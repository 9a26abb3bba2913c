#include <gtest/gtest.h>

#include "obs/registry.hpp"
#include "scenario/fleet.hpp"
#include "umtsctl/frontend.hpp"

namespace onelab::umtsctl {
namespace {

using scenario::FleetConfig;

struct UmtsctlTest : ::testing::Test {
    /// The paper's testbed plus a second Napoli slice, unina_other,
    /// that is NOT in the umts ACL.
    static FleetConfig testbedConfig() {
        FleetConfig config = scenario::makeUniformFleet(1);
        config.umtsSites[0].extraSliceNames = {"unina_other"};
        return config;
    }

    UmtsctlTest() : UmtsctlTest(testbedConfig()) {}
    explicit UmtsctlTest(FleetConfig config) : fleet(std::move(config)) {}

    /// Synchronously invoke the umts vsys script from a slice.
    pl::VsysResult invoke(pl::Slice& slice, const std::vector<std::string>& args,
                          double waitSeconds = 30.0) {
        std::optional<util::Result<pl::VsysResult>> outcome;
        napoli.node().vsys().invoke(slice, "umts", args,
                                  [&](util::Result<pl::VsysResult> r) { outcome = std::move(r); });
        const sim::SimTime deadline = fleet.now() + sim::seconds(waitSeconds);
        while (!outcome && fleet.now() < deadline)
            fleet.runFor(sim::millis(50));
        if (!outcome) return pl::VsysResult{-1, {"timeout"}};
        if (!outcome->ok()) return pl::VsysResult{-2, {outcome->error().message}};
        return outcome->value();
    }

    static bool hasLine(const pl::VsysResult& result, const std::string& needle) {
        for (const std::string& line : result.output)
            if (line.find(needle) != std::string::npos) return true;
        return false;
    }

    scenario::Fleet fleet;
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    scenario::WiredSite& inria = fleet.wiredSite(0);
    pl::Slice& other = *napoli.slice("unina_other");
};

TEST_F(UmtsctlTest, StartConnectsAndReportsAddress) {
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok()) << started.error().message;
    EXPECT_TRUE(started.value().connected);
    EXPECT_TRUE(fleet.operatorNetwork().profile().subscriberPool.contains(
        started.value().address));
    EXPECT_EQ(started.value().operatorName, "IT Mobile");
    EXPECT_GT(started.value().signalQuality, 0);
    // ppp0 exists on the node, with the negotiated address.
    net::Interface* ppp = napoli.node().stack().findInterface("ppp0");
    ASSERT_NE(ppp, nullptr);
    EXPECT_TRUE(ppp->isUp());
    EXPECT_EQ(ppp->address(), started.value().address);
}

TEST_F(UmtsctlTest, StartFailureReleasesLock) {
    // No coverage: registration times out, the lock must come free.
    fleet.operatorNetwork().setCoverage(false);
    const auto result = napoli.startUmts(sim::seconds(60.0));
    ASSERT_FALSE(result.ok());
    EXPECT_FALSE(napoli.backend().state().locked);
    EXPECT_EQ(napoli.node().stack().findInterface("ppp0"), nullptr);
    // Coverage returns: the same slice can start successfully.
    fleet.operatorNetwork().setCoverage(true);
    EXPECT_TRUE(napoli.startUmts().ok());
}

TEST_F(UmtsctlTest, ConcurrentStartRaceSecondSliceLosesImmediately) {
    // The second slice's start must fail fast with EBUSY while the
    // first is still registering/dialing (check-and-lock semantics).
    napoli.node().vsys().allow("umts", other.name);
    std::optional<pl::VsysResult> first;
    std::optional<pl::VsysResult> second;
    napoli.node().vsys().invoke(napoli.umtsSlice(), "umts", {"start"},
                              [&](util::Result<pl::VsysResult> r) { first = r.value(); });
    fleet.runFor(sim::millis(500));  // mid-registration
    napoli.node().vsys().invoke(other, "umts", {"start"},
                              [&](util::Result<pl::VsysResult> r) { second = r.value(); });
    // The loser is answered immediately, the winner keeps dialing.
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->exitCode, exit_code::busy);
    EXPECT_FALSE(first.has_value());
    fleet.runFor(sim::seconds(30.0));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->exitCode, exit_code::ok);
}

TEST_F(UmtsctlTest, WrongPinConfigurationFailsCleanly) {
    // The site operator misconfigured the backend's PIN: comgt's
    // AT+CPIN attempt is rejected, start fails, nothing stays locked.
    FleetConfig config = scenario::makeUniformFleet(1);
    config.umtsSites[0].simPin = "1234";
    config.umtsSites[0].backendPinOverride = "9999";
    scenario::Fleet broken{config};
    scenario::UmtsNodeSite& site = broken.umtsSite(0);
    const auto result = site.startUmts(sim::seconds(30.0));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("registration"), std::string::npos);
    EXPECT_FALSE(site.backend().state().locked);
    EXPECT_EQ(site.node().stack().findInterface("ppp0"), nullptr);
    EXPECT_EQ(broken.operatorNetwork().activeSessions(), 0u);
}

TEST_F(UmtsctlTest, StartLoadsPppAndDriverModules) {
    pl::KernelModuleRegistry* modules =
        napoli.node().modules(napoli.node().rootContext()).value();
    EXPECT_FALSE(modules->isLoaded("ppp_async"));
    ASSERT_TRUE(napoli.startUmts().ok());
    EXPECT_TRUE(modules->isLoaded("ppp_generic"));
    EXPECT_TRUE(modules->isLoaded("ppp_async"));
    EXPECT_TRUE(modules->isLoaded("ppp_deflate"));
    EXPECT_TRUE(modules->isLoaded("pl2303"));  // huawei card default
    EXPECT_TRUE(modules->isLoaded("usbserial"));
}

TEST_F(UmtsctlTest, StartFailsWhenDriverCannotLoad) {
    // The vanilla nozomi refuses the PlanetLab kernel (§2.3); without
    // the OneLab patch the whole start aborts.
    FleetConfig config = scenario::makeUniformFleet(1);
    config.umtsSites[0].extraRequiredModules = {"nozomi"};
    scenario::Fleet broken{config};
    scenario::UmtsNodeSite& site = broken.umtsSite(0);
    const auto result = site.startUmts(sim::seconds(10.0));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("modprobe"), std::string::npos);
    EXPECT_FALSE(site.backend().state().locked);
}

TEST_F(UmtsctlTest, StartInstallsExactRuleSet) {
    ASSERT_TRUE(napoli.startUmts().ok());
    net::NetworkStack& stack = napoli.node().stack();
    // One MARK rule in mangle/OUTPUT keyed on the slice xid.
    const auto mangle = stack.netfilter().listChain(net::ChainHook::mangle_output);
    ASSERT_EQ(mangle.size(), 1u);
    EXPECT_EQ(mangle[0].second.match.sliceXid, napoli.umtsSlice().xid);
    EXPECT_EQ(mangle[0].second.target.kind, net::FilterTarget::Kind::mark);
    // One negated-slice DROP rule on ppp0 in filter/OUTPUT.
    const auto filter = stack.netfilter().listChain(net::ChainHook::filter_output);
    ASSERT_EQ(filter.size(), 1u);
    EXPECT_TRUE(filter[0].second.match.negateSlice);
    EXPECT_EQ(filter[0].second.match.outInterface, "ppp0");
    // Table 100 holds exactly the default-via-ppp0 route.
    const net::RoutingTable* table = stack.router().findTable(100);
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->routes().size(), 1u);
    EXPECT_EQ(table->routes()[0].oifName, "ppp0");
    EXPECT_EQ(table->routes()[0].dst, net::Prefix::any());
    // The from-<ppp0-addr> rule plus the default main rule.
    EXPECT_EQ(stack.router().rules().size(), 2u);
}

TEST_F(UmtsctlTest, SecondSliceStartIsLockedOut) {
    ASSERT_TRUE(napoli.startUmts().ok());
    // Allow the other slice in the ACL, then try to start: EBUSY.
    napoli.node().vsys().allow("umts", other.name);
    const auto result = invoke(other, {"start"});
    EXPECT_EQ(result.exitCode, exit_code::busy);
    EXPECT_TRUE(hasLine(result, "locked by slice"));
}

TEST_F(UmtsctlTest, StartWhileAlreadyStartedIsIdempotent) {
    ASSERT_TRUE(napoli.startUmts().ok());
    const auto again = invoke(napoli.umtsSlice(), {"start"});
    EXPECT_EQ(again.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(again, "already-connected"));
}

TEST_F(UmtsctlTest, SliceNotInAclIsRefusedByVsys) {
    const auto result = invoke(other, {"start"});
    EXPECT_EQ(result.exitCode, -2);  // vsys-level permission denial
}

TEST_F(UmtsctlTest, StatusReportsState) {
    auto status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_EQ(status.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(status, "locked=0"));
    ASSERT_TRUE(napoli.startUmts().ok());
    status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_TRUE(hasLine(status, "locked=1"));
    EXPECT_TRUE(hasLine(status, "owner=" + napoli.umtsSlice().name));
    EXPECT_TRUE(hasLine(status, "connected=1"));
    EXPECT_TRUE(hasLine(status, "operator=IT Mobile"));
}

TEST_F(UmtsctlTest, AddAndDelDestination) {
    ASSERT_TRUE(napoli.startUmts().ok());
    const auto added = invoke(napoli.umtsSlice(), {"add", "destination", "138.96.250.20/32"});
    EXPECT_EQ(added.exitCode, exit_code::ok);
    EXPECT_EQ(napoli.node().stack().router().rules().size(), 3u);

    // Duplicates rejected.
    const auto dup = invoke(napoli.umtsSlice(), {"add", "destination", "138.96.250.20/32"});
    EXPECT_EQ(dup.exitCode, exit_code::inval);

    const auto status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_TRUE(hasLine(status, "destination=138.96.250.20/32"));

    const auto deleted = invoke(napoli.umtsSlice(), {"del", "destination", "138.96.250.20/32"});
    EXPECT_EQ(deleted.exitCode, exit_code::ok);
    EXPECT_EQ(napoli.node().stack().router().rules().size(), 2u);

    const auto missing = invoke(napoli.umtsSlice(), {"del", "destination", "138.96.250.20/32"});
    EXPECT_EQ(missing.exitCode, exit_code::noent);
}

TEST_F(UmtsctlTest, DestinationRequiresOwnership) {
    ASSERT_TRUE(napoli.startUmts().ok());
    napoli.node().vsys().allow("umts", other.name);
    const auto result = invoke(other, {"add", "destination", "1.2.3.4/32"});
    EXPECT_EQ(result.exitCode, exit_code::perm);
}

TEST_F(UmtsctlTest, BadDestinationRejected) {
    ASSERT_TRUE(napoli.startUmts().ok());
    EXPECT_EQ(invoke(napoli.umtsSlice(), {"add", "destination", "not-an-address"}).exitCode,
              exit_code::inval);
    EXPECT_EQ(invoke(napoli.umtsSlice(), {"add", "destination", "10.0.0.0/99"}).exitCode,
              exit_code::inval);
}

TEST_F(UmtsctlTest, StatsVerbDumpsLiveRegistry) {
    ASSERT_TRUE(napoli.startUmts().ok());
    const auto stats = invoke(napoli.umtsSlice(), {"stats"});
    EXPECT_EQ(stats.exitCode, exit_code::ok);
    // Counters registered at construction across the layers show up,
    // tagged with their kind; the AT dialogue has run by now.
    EXPECT_TRUE(hasLine(stats, "modem.at.commands=counter:"));
    EXPECT_TRUE(hasLine(stats, "umts.bearer.222880000000001.upgrades=counter:"));
    bool atNonZero = false;
    for (const std::string& line : stats.output)
        if (line.find("modem.at.commands=counter:0") == std::string::npos &&
            line.find("modem.at.commands=counter:") != std::string::npos)
            atNonZero = true;
    EXPECT_TRUE(atNonZero);
}

TEST_F(UmtsctlTest, FrontendStatsRendersTable) {
    ASSERT_TRUE(napoli.startUmts().ok());
    UmtsFrontend frontend{napoli.node(), napoli.umtsSlice()};
    std::optional<util::Result<std::string>> rendered;
    frontend.stats([&](util::Result<std::string> r) { rendered = std::move(r); });
    fleet.runFor(sim::seconds(1.0));
    ASSERT_TRUE(rendered.has_value());
    ASSERT_TRUE(rendered->ok()) << rendered->error().message;
    const std::string& table = rendered->value();
    EXPECT_NE(table.find("metric"), std::string::npos);
    EXPECT_NE(table.find("type"), std::string::npos);
    EXPECT_NE(table.find("modem.at.commands"), std::string::npos);
    EXPECT_NE(table.find("counter"), std::string::npos);
}

// --- stats ACL: per-session scoping at the FIFO trust boundary ---

TEST_F(UmtsctlTest, ScopedStatsHidesOtherSessionsBearerFamilies) {
    ASSERT_TRUE(napoli.startUmts().ok());
    // A family belonging to some other session's IMSI (as would exist
    // after this node served a different subscriber, or on a shared
    // registry): the scoped dump must not leak it.
    obs::Registry::instance().counter("umts.bearer.999880000000099.upgrades").inc();
    const auto stats = invoke(napoli.umtsSlice(), {"stats"});
    EXPECT_EQ(stats.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(stats, "umts.bearer.222880000000001.upgrades=counter:"));
    EXPECT_FALSE(hasLine(stats, "umts.bearer.999880000000099"));
    // Node-wide families (and the non-digit legacy aggregates) are not
    // per-session and stay visible.
    EXPECT_TRUE(hasLine(stats, "modem.at.commands=counter:"));
}

TEST_F(UmtsctlTest, HostileStatsAllIsScopedBackAndCounted) {
    ASSERT_TRUE(napoli.startUmts().ok());
    obs::Registry::instance().counter("umts.bearer.999880000000099.upgrades").inc();
    napoli.node().vsys().allow("umts", other.name);
    const std::uint64_t deniedBefore =
        obs::Registry::instance().counter("guard.umtsctl.stats_denied").value();
    // The frontend never sends "all" for a non-owner, but a hostile
    // slice speaking the raw FIFO protocol can. The backend scopes the
    // dump back to the node's own session and records the attempt.
    const auto stats = invoke(other, {"stats", "all"});
    EXPECT_EQ(stats.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(stats, "umts.bearer.222880000000001.upgrades=counter:"));
    EXPECT_FALSE(hasLine(stats, "umts.bearer.999880000000099"));
    EXPECT_EQ(obs::Registry::instance().counter("guard.umtsctl.stats_denied").value(),
              deniedBefore + 1);
}

TEST_F(UmtsctlTest, OwningSliceStatsAllStillDumpsEverything) {
    ASSERT_TRUE(napoli.startUmts().ok());
    obs::Registry::instance().counter("umts.bearer.999880000000099.upgrades").inc();
    const std::uint64_t deniedBefore =
        obs::Registry::instance().counter("guard.umtsctl.stats_denied").value();
    const auto stats = invoke(napoli.umtsSlice(), {"stats", "all"});
    EXPECT_EQ(stats.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(stats, "umts.bearer.999880000000099.upgrades=counter:"));
    EXPECT_EQ(obs::Registry::instance().counter("guard.umtsctl.stats_denied").value(),
              deniedBefore);
}

TEST_F(UmtsctlTest, UnknownVerbRejected) {
    EXPECT_EQ(invoke(napoli.umtsSlice(), {"frobnicate"}).exitCode, exit_code::inval);
}

TEST_F(UmtsctlTest, StopRestoresStateExactly) {
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination("138.96.250.20/32").ok());
    ASSERT_TRUE(napoli.stopUmts().ok());

    net::NetworkStack& stack = napoli.node().stack();
    // Invariant 4 (DESIGN.md): no rule leaks after stop.
    EXPECT_EQ(stack.netfilter().ruleCount(), 0u);
    EXPECT_EQ(stack.router().rules().size(), 1u);  // only the main rule
    EXPECT_EQ(stack.router().findTable(100), nullptr);
    EXPECT_EQ(stack.findInterface("ppp0"), nullptr);
    EXPECT_EQ(fleet.operatorNetwork().activeSessions(), 0u);
    // And the modem is back in command mode.
    EXPECT_FALSE(napoli.card().inDataMode());
}

TEST_F(UmtsctlTest, StopByNonOwnerDenied) {
    ASSERT_TRUE(napoli.startUmts().ok());
    napoli.node().vsys().allow("umts", other.name);
    const auto result = invoke(other, {"stop"});
    EXPECT_EQ(result.exitCode, exit_code::perm);
    EXPECT_TRUE(napoli.backend().state().connected);
}

TEST_F(UmtsctlTest, StopWhenNotStartedIsNoop) {
    const auto result = invoke(napoli.umtsSlice(), {"stop"});
    EXPECT_EQ(result.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(result, "not-started"));
}

TEST_F(UmtsctlTest, RestartAfterStopWorks) {
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.stopUmts().ok());
    const auto second = napoli.startUmts();
    ASSERT_TRUE(second.ok()) << second.error().message;
    EXPECT_TRUE(second.value().connected);
}

// --- Isolation invariants (DESIGN.md §4), enforced end to end ---

TEST_F(UmtsctlTest, OnlyOwnerSliceTrafficUsesUmts) {
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    net::Interface* ppp = napoli.node().stack().findInterface("ppp0");
    ASSERT_NE(ppp, nullptr);

    // Owner-slice packet to the registered destination: via ppp0.
    auto ownerSocket = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    ASSERT_TRUE(ownerSocket->sendTo(inria.address(), 9001, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 1u);

    // Invariant 2: other-slice packet to the same destination: eth0.
    net::Interface* eth = napoli.node().stack().findInterface("eth0");
    const std::uint64_t ethBefore = eth->counters().txPackets;
    auto otherSocket = napoli.node().openSliceUdp(other).value();
    ASSERT_TRUE(otherSocket->sendTo(inria.address(), 9001, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 1u);
    EXPECT_EQ(eth->counters().txPackets, ethBefore + 1);
}

TEST_F(UmtsctlTest, IntruderBindingToUmtsAddressIsDropped) {
    // Invariant 1: even binding to the UMTS address or addressing the
    // PPP peer does not get another slice onto ppp0 (§2.3's special
    // cases, handled by the DROP rule).
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    net::Interface* ppp = napoli.node().stack().findInterface("ppp0");

    auto intruder = napoli.node().openSliceUdp(other).value();
    intruder->bindAddress(started.value().address);
    (void)intruder->sendTo(inria.address(), 9001, util::Bytes{1});
    EXPECT_EQ(ppp->counters().txPackets, 0u);

    // Packets aimed at the PPP peer (the GGSN end of the link).
    auto intruder2 = napoli.node().openSliceUdp(other).value();
    (void)intruder2->sendTo(fleet.operatorNetwork().profile().ggsnAddress, 22, util::Bytes{1});
    EXPECT_EQ(ppp->counters().txPackets, 0u);
    // The hostile traffic fell through to the default route instead.
    EXPECT_GE(napoli.node().stack().findInterface("eth0")->counters().txPackets, 2u);
}

TEST_F(UmtsctlTest, OwnerUnmarkedDestinationsStayOnEth) {
    // Invariant 2: the default route is untouched; the owner's traffic
    // to unregistered destinations also stays on eth0.
    ASSERT_TRUE(napoli.startUmts().ok());
    net::Interface* ppp = napoli.node().stack().findInterface("ppp0");
    net::Interface* eth = napoli.node().stack().findInterface("eth0");
    auto socket = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    ASSERT_TRUE(socket->sendTo(net::Ipv4Address{8, 8, 8, 8}, 53, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 0u);
    EXPECT_GE(eth->counters().txPackets, 1u);
}

TEST_F(UmtsctlTest, OwnerCanForceUmtsByBinding) {
    // §2.2: "or to explicitly bind to the UMTS interface". The
    // from-<addr> rule routes owner packets bound to ppp0's address.
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok());
    net::Interface* ppp = napoli.node().stack().findInterface("ppp0");
    auto socket = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    socket->bindAddress(started.value().address);
    ASSERT_TRUE(socket->sendTo(net::Ipv4Address{8, 8, 8, 8}, 53, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 1u);
}

TEST_F(UmtsctlTest, StatusDuringDialShowsLockedNotConnected) {
    std::optional<pl::VsysResult> startResult;
    napoli.node().vsys().invoke(napoli.umtsSlice(), "umts", {"start"},
                              [&](util::Result<pl::VsysResult> r) { startResult = r.value(); });
    fleet.runFor(sim::millis(800));  // mid-registration
    const auto status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_EQ(status.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(status, "locked=1"));
    EXPECT_TRUE(hasLine(status, "connected=0"));
    fleet.runFor(sim::seconds(30.0));
    ASSERT_TRUE(startResult.has_value());
    EXPECT_EQ(startResult->exitCode, exit_code::ok);
}

TEST_F(UmtsctlTest, CoverageLossMidFlowCleansUpAndTrafficFallsBack) {
    // Failure injection: the operator drops the PDP context while a
    // slice is actively sending. The backend must tear down its state;
    // subsequent slice traffic to the registered destination falls
    // back to the default (eth0) route instead of vanishing.
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    auto socket = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    ASSERT_TRUE(socket->sendTo(inria.address(), 9001, util::Bytes{1}).ok());

    fleet.operatorNetwork().detachUe("222880000000001");  // admin detach
    fleet.runFor(sim::seconds(5.0));
    EXPECT_FALSE(napoli.backend().state().connected);
    EXPECT_FALSE(napoli.backend().state().locked);
    EXPECT_EQ(napoli.node().stack().findInterface("ppp0"), nullptr);

    net::Interface* eth = napoli.node().stack().findInterface("eth0");
    const std::uint64_t ethBefore = eth->counters().txPackets;
    ASSERT_TRUE(socket->sendTo(inria.address(), 9001, util::Bytes{2}).ok());
    EXPECT_EQ(eth->counters().txPackets, ethBefore + 1);
}

TEST_F(UmtsctlTest, LinkLossCleansUpAndUnlocks) {
    ASSERT_TRUE(napoli.startUmts().ok());
    // The operator kills the PDP context under us.
    fleet.operatorNetwork().deactivatePdp(fleet.operatorNetwork().sessionAt(0));
    fleet.runFor(sim::seconds(10.0));
    EXPECT_FALSE(napoli.backend().state().locked);
    EXPECT_FALSE(napoli.backend().state().connected);
    EXPECT_EQ(napoli.node().stack().findInterface("ppp0"), nullptr);
    EXPECT_EQ(napoli.node().stack().netfilter().ruleCount(), 0u);
    // A new start succeeds afterwards.
    EXPECT_TRUE(napoli.startUmts().ok());
}

struct SupervisedUmtsctlTest : UmtsctlTest {
    static FleetConfig supervisedConfig() {
        FleetConfig config = testbedConfig();
        config.umtsSites[0].supervise.enable = true;
        return config;
    }
    SupervisedUmtsctlTest() : UmtsctlTest(supervisedConfig()) {}
};

/// `umts status` surfaces the supervisor ladder so a slice can see
/// what recovery is doing to its link (absent on unsupervised nodes).
TEST_F(SupervisedUmtsctlTest, StatusReportsSuperviseLadderRows) {
    ASSERT_TRUE(napoli.startUmts().ok());
    fleet.runFor(sim::seconds(2.0));
    const auto status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_EQ(status.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(status, "supervise_state=healthy"));
    EXPECT_TRUE(hasLine(status, "supervise_time_in_state_ms="));

    // The typed report carries the same rows through the public API.
    std::optional<util::Result<UmtsReport>> typed;
    napoli.frontend().status([&](util::Result<UmtsReport> r) { typed = std::move(r); });
    const sim::SimTime deadline = fleet.now() + sim::seconds(30.0);
    while (!typed && fleet.now() < deadline)
        fleet.runFor(sim::millis(50));
    ASSERT_TRUE(typed && typed->ok());
    EXPECT_EQ(typed->value().superviseState, "healthy");
    EXPECT_GE(typed->value().superviseTimeInStateMs, 0);
    EXPECT_EQ(typed->value().superviseLastRecoveryMs, -1) << "no incident has happened";
}

TEST_F(UmtsctlTest, StatusOmitsSuperviseRowsWithoutASupervisor) {
    ASSERT_TRUE(napoli.startUmts().ok());
    const auto status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_EQ(status.exitCode, exit_code::ok);
    EXPECT_FALSE(hasLine(status, "supervise_state="));
}

// --- auto-redial: the backend's own recovery on unsupervised nodes ---

struct AutoRedialUmtsctlTest : UmtsctlTest {
    static FleetConfig autoRedialConfig(int maxAttempts) {
        FleetConfig config = testbedConfig();
        config.umtsSites[0].autoRedial.enable = true;
        config.umtsSites[0].autoRedial.maxAttempts = maxAttempts;
        return config;
    }
    explicit AutoRedialUmtsctlTest(int maxAttempts = 6)
        : UmtsctlTest(autoRedialConfig(maxAttempts)) {}

    static std::uint64_t counter(const char* name) {
        return obs::Registry::instance().counter(name).value();
    }

    /// Run the clock until `pred` holds or `patience` elapses.
    template <typename Pred>
    bool settle(sim::SimTime patience, Pred&& pred) {
        const sim::SimTime deadline = fleet.now() + patience;
        while (!pred() && fleet.now() < deadline)
            fleet.runFor(sim::millis(100));
        return pred();
    }

    /// Start, route INRIA over ppp0, then drop the bearer and wait for
    /// the backend to notice. Returns the destination it added.
    std::string startAndDropBearer() {
        EXPECT_TRUE(napoli.startUmts().ok());
        const std::string destination = inria.address().str() + "/32";
        EXPECT_TRUE(napoli.addUmtsDestination(destination).ok());
        EXPECT_TRUE(fleet.operatorNetwork().injectBearerDrop(napoli.imsi()));
        EXPECT_TRUE(settle(sim::seconds(1.0), [&] { return !napoli.backend().state().connected; }));
        return destination;
    }
};

struct ShortAutoRedialUmtsctlTest : AutoRedialUmtsctlTest {
    ShortAutoRedialUmtsctlTest() : AutoRedialUmtsctlTest(2) {}
};

TEST_F(AutoRedialUmtsctlTest, BearerDropRedialsAndRestoresDestination) {
    const std::uint64_t successesBefore = counter("recovery.redial.successes");
    const std::string destination = startAndDropBearer();
    EXPECT_TRUE(napoli.backend().state().locked);

    // The slice keeps its lock; its flows leave over eth0 meanwhile.
    EXPECT_EQ(napoli.node().stack().findInterface("ppp0"), nullptr);
    net::Interface* eth = napoli.node().stack().findInterface("eth0");
    const std::uint64_t ethBefore = eth->counters().txPackets;
    auto socket = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    ASSERT_TRUE(socket->sendTo(inria.address(), 9001, util::Bytes{1}).ok());
    EXPECT_EQ(eth->counters().txPackets, ethBefore + 1);

    ASSERT_TRUE(settle(sim::seconds(120.0), [&] { return napoli.backend().state().connected; }));
    EXPECT_EQ(counter("recovery.redial.successes"), successesBefore + 1);
    const auto status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_TRUE(hasLine(status, "destination=" + destination));
    EXPECT_FALSE(hasLine(status, "failover=wired"));
    // The destination rule is back: the flow rides ppp0 again.
    net::Interface* ppp = napoli.node().stack().findInterface("ppp0");
    ASSERT_NE(ppp, nullptr);
    ASSERT_TRUE(socket->sendTo(inria.address(), 9001, util::Bytes{2}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 1u);
}

TEST_F(ShortAutoRedialUmtsctlTest, ExhaustionReleasesLockAndParksNothing) {
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    const std::uint64_t exhaustedBefore = counter("recovery.redial.exhausted");
    fleet.operatorNetwork().injectCoverageOutage(sim::seconds(600.0));

    ASSERT_TRUE(settle(sim::seconds(300.0), [&] { return !napoli.backend().state().locked; }));
    EXPECT_EQ(counter("recovery.redial.exhausted"), exhaustedBefore + 1);
    EXPECT_FALSE(napoli.backend().state().connected);
    EXPECT_FALSE(napoli.backend().state().lastError.empty());
    EXPECT_FALSE(napoli.backend().routesParked());
    const auto status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_TRUE(hasLine(status, "locked=0"));
    EXPECT_TRUE(hasLine(status, "last_error="));
    EXPECT_FALSE(hasLine(status, "failover=wired"));
    EXPECT_FALSE(hasLine(status, "parked_destination="));
    EXPECT_EQ(napoli.node().stack().router().rules().size(), 1u);  // only the main rule
}

TEST_F(AutoRedialUmtsctlTest, StopDuringOutageCancelsPendingRedial) {
    (void)startAndDropBearer();
    const std::uint64_t attemptsBefore = counter("recovery.redial.attempts");
    const auto stopped = invoke(napoli.umtsSlice(), {"stop"});
    EXPECT_EQ(stopped.exitCode, exit_code::ok);
    EXPECT_FALSE(napoli.backend().state().locked);

    fleet.runFor(sim::seconds(120.0));
    EXPECT_EQ(counter("recovery.redial.attempts"), attemptsBefore);
    EXPECT_FALSE(napoli.backend().state().locked);
    EXPECT_FALSE(napoli.backend().state().connected);
    EXPECT_EQ(napoli.node().stack().findInterface("ppp0"), nullptr);
    EXPECT_EQ(napoli.node().stack().router().rules().size(), 1u);  // only the main rule
}

TEST_F(AutoRedialUmtsctlTest, OutageReportsParkedRulesLikeSupervisedMode) {
    const std::string destination = startAndDropBearer();
    const auto status = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_TRUE(hasLine(status, "locked=1"));
    EXPECT_TRUE(hasLine(status, "connected=0"));
    EXPECT_TRUE(hasLine(status, "failover=wired"));
    EXPECT_TRUE(hasLine(status, "parked_destination=" + destination));

    // A destination added mid-outage joins the parked set and is
    // installed with the others once the redial succeeds.
    const std::string added = "192.0.2.0/24";
    const auto reply = invoke(napoli.umtsSlice(), {"add", "destination", added});
    EXPECT_EQ(reply.exitCode, exit_code::ok);
    EXPECT_TRUE(hasLine(invoke(napoli.umtsSlice(), {"status"}), "parked_destination=" + added));

    ASSERT_TRUE(settle(sim::seconds(120.0), [&] { return napoli.backend().state().connected; }));
    const auto restored = invoke(napoli.umtsSlice(), {"status"});
    EXPECT_TRUE(hasLine(restored, "destination=" + destination));
    EXPECT_TRUE(hasLine(restored, "destination=" + added));
    EXPECT_FALSE(hasLine(restored, "failover=wired"));
    EXPECT_FALSE(hasLine(restored, "parked_destination="));
    // Main rule, from-<ppp0-addr> rule and the two destination rules.
    EXPECT_EQ(napoli.node().stack().router().rules().size(), 4u);
}

}  // namespace
}  // namespace onelab::umtsctl
