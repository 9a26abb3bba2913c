#include "scenario/fleet.hpp"

#include <gtest/gtest.h>

#include "obs/registry.hpp"
#include "umtsctl/frontend.hpp"

namespace onelab::scenario {
namespace {

TEST(Fleet, UniformFleetConstructsDistinctSites) {
    Fleet fleet{makeUniformFleet(4)};
    ASSERT_EQ(fleet.umtsSiteCount(), 4u);
    ASSERT_EQ(fleet.wiredSiteCount(), 1u);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t k = i + 1; k < 4; ++k) {
            EXPECT_NE(fleet.umtsSite(i).hostname(), fleet.umtsSite(k).hostname());
            EXPECT_NE(fleet.umtsSite(i).imsi(), fleet.umtsSite(k).imsi());
            EXPECT_NE(fleet.umtsSite(i).ethAddress(), fleet.umtsSite(k).ethAddress());
        }
    }
    // All four camp on ONE cell with the profile's budget.
    EXPECT_DOUBLE_EQ(fleet.operatorNetwork().cell().uplinkCapacityBps(),
                     fleet.config().operatorProfile.cellUplinkCapacityBps);
}

TEST(Fleet, StartAllBringsUpEverySession) {
    Fleet fleet{makeUniformFleet(3)};
    const auto started = fleet.startAll();
    ASSERT_TRUE(started.ok()) << started.error().message;
    EXPECT_EQ(fleet.operatorNetwork().activeSessions(), 3u);
    // Three initial grants are now carved out of the shared pool.
    EXPECT_DOUBLE_EQ(fleet.operatorNetwork().cell().uplinkAllocatedBps(), 3 * 144e3);
}

TEST(Fleet, StartAllCollectsPerSiteFailuresAndKeepsSurvivorsUp) {
    const double failuresBefore =
        obs::Registry::instance().counter("fleet.start_failures").value();
    FleetConfig config = makeUniformFleet(2);
    // Site 0's backend comgt config carries the wrong PIN: its
    // bring-up fails deterministically while site 1 is healthy.
    config.umtsSites[0].backendPinOverride = "0000";
    Fleet fleet{std::move(config)};
    const auto started = fleet.startAll();
    ASSERT_FALSE(started.ok());
    // The aggregate error names the failing host — and only it.
    EXPECT_NE(started.error().message.find("1/2 sites failed to start"), std::string::npos)
        << started.error().message;
    EXPECT_NE(started.error().message.find(fleet.umtsSite(0).hostname()), std::string::npos)
        << started.error().message;
    EXPECT_EQ(started.error().message.find(fleet.umtsSite(1).hostname()), std::string::npos)
        << started.error().message;
    // The survivor was NOT torn down by its neighbour's failure.
    EXPECT_TRUE(fleet.umtsSite(1).backend().state().connected);
    EXPECT_FALSE(fleet.umtsSite(0).backend().state().connected);
    EXPECT_DOUBLE_EQ(
        obs::Registry::instance().counter("fleet.start_failures").value(),
        failuresBefore + 1);
}

TEST(Fleet, StopReturnsCellCapacity) {
    Fleet fleet{makeUniformFleet(2)};
    ASSERT_TRUE(fleet.startAll().ok());
    ASSERT_DOUBLE_EQ(fleet.operatorNetwork().cell().uplinkAllocatedBps(), 2 * 144e3);
    ASSERT_TRUE(fleet.stopUmts(1).ok());
    EXPECT_DOUBLE_EQ(fleet.operatorNetwork().cell().uplinkAllocatedBps(), 144e3);
}

TEST(Fleet, ContentionDeniesUpgradesAndCollapsesGoodput) {
    // Solo baseline: the lone UE gets its ~50 s on-demand upgrade.
    // Scoped so its IMSI lease is released before the 4-UE fleet
    // re-uses the same identities.
    FleetCbrRun soloRun;
    {
        Fleet solo{makeUniformFleet(1)};
        ASSERT_TRUE(solo.startAll().ok());
        ASSERT_TRUE(solo.addDestinationAll().ok());
        soloRun = solo.runCbr(0, 90.0);
        EXPECT_GE(soloRun.bearerUpgrades, 1);
        EXPECT_EQ(soloRun.deniedUpgrades, 0);
        EXPECT_EQ(solo.operatorNetwork().cell().deniedUpgrades(), 0u);
    }

    // Four UEs on the same cell: the budget covers at most one upgrade
    // beyond the four initial grants, so upgrades get denied and every
    // per-UE goodput lands strictly below the solo saturation.
    Fleet fleet{makeUniformFleet(4)};
    ASSERT_TRUE(fleet.startAll().ok());
    ASSERT_TRUE(fleet.addDestinationAll().ok());
    const std::vector<FleetCbrRun> runs = fleet.runCbrAll(90.0);
    ASSERT_EQ(runs.size(), 4u);
    int denied = 0;
    for (const FleetCbrRun& run : runs) {
        EXPECT_LT(run.summary.meanBitrateKbps, soloRun.summary.meanBitrateKbps)
            << run.imsi;
        denied += run.deniedUpgrades;
    }
    EXPECT_GE(denied, 1);
    EXPECT_GE(fleet.operatorNetwork().cell().deniedUpgrades(), 1u);
}

TEST(Fleet, DetachRegrantsParkedUpgrades) {
    Fleet fleet{makeUniformFleet(3)};
    ASSERT_TRUE(fleet.startAll().ok());
    ASSERT_TRUE(fleet.addDestinationAll().ok());

    // Saturate all three uplinks long enough for the commercial-grade
    // grant timers (~40-52 s) to fire: the pool covers one 384k
    // upgrade, the other two park as waiters.
    const net::Ipv4Address receiver = fleet.wiredSite(0).address();
    std::vector<net::UdpSocket*> sockets;
    for (std::size_t i = 0; i < 3; ++i) {
        UmtsNodeSite& site = fleet.umtsSite(i);
        sockets.push_back(site.node().openSliceUdp(site.umtsSlice()).value());
    }
    const sim::SimTime base = fleet.sim().now();
    for (int k = 0; k < 60 * 35; ++k)
        fleet.sim().scheduleAt(base + sim::millis(k * 28.0), [&, k] {
            for (net::UdpSocket* socket : sockets)
                (void)socket->sendTo(receiver, 9001, util::Bytes(1052, 0));
        });
    fleet.sim().runUntil(base + sim::seconds(70.0));

    umts::UmtsNetwork& op = fleet.operatorNetwork();
    std::size_t upgradedSite = 3;
    std::vector<std::string> waitingImsis;
    for (std::size_t k = 0; k < op.activeSessions(); ++k) {
        umts::UmtsSession* session = op.sessionAt(k);
        ASSERT_NE(session, nullptr);
        if (session->bearer().upgradeCount() >= 1)
            upgradedSite = std::size_t(session->imsi().back() - '1');
        else if (session->bearer().upgradeWaiting())
            waitingImsis.push_back(session->imsi());
    }
    ASSERT_LT(upgradedSite, 3u) << "no session won the single available upgrade";
    ASSERT_FALSE(waitingImsis.empty());

    // The winner detaches; its 384k returns to the pool and the parked
    // upgrades are granted immediately — no second grant delay.
    ASSERT_TRUE(fleet.stopUmts(upgradedSite).ok());
    for (std::size_t k = 0; k < op.activeSessions(); ++k) {
        umts::UmtsSession* session = op.sessionAt(k);
        for (const std::string& imsi : waitingImsis) {
            if (session->imsi() != imsi) continue;
            EXPECT_FALSE(session->bearer().upgradeWaiting()) << imsi;
            EXPECT_GT(session->bearer().currentUplinkRateBps(), 144e3) << imsi;
        }
    }
}

TEST(Fleet, SliceAclDoesNotSpanNodes) {
    FleetConfig config = makeUniformFleet(2);
    config.umtsSites[1].umtsSliceName = "roma_umts";
    Fleet fleet{config};

    pl::NodeOs& nodeB = fleet.umtsSite(1).node();
    EXPECT_TRUE(nodeB.vsys().isAllowed("umts", "roma_umts"));
    EXPECT_FALSE(nodeB.vsys().isAllowed("umts", "unina_umts"));

    // A frontend wielding node A's slice against node B's backend must
    // be rejected at the vsys ACL, not reach the modem.
    umtsctl::UmtsFrontend crossFrontend{nodeB, fleet.umtsSite(0).umtsSlice()};
    std::optional<util::Result<umtsctl::UmtsReport>> outcome;
    crossFrontend.start(
        [&](util::Result<umtsctl::UmtsReport> result) { outcome = std::move(result); });
    const sim::SimTime deadline = fleet.sim().now() + sim::seconds(5.0);
    while (!outcome && fleet.sim().now() < deadline)
        fleet.sim().runUntil(fleet.sim().now() + sim::millis(10));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_FALSE(outcome->ok());
    EXPECT_EQ(outcome->error().code, util::Error::Code::permission_denied);
    // And node B's own connection never came up as a side effect.
    EXPECT_EQ(fleet.operatorNetwork().activeSessions(), 0u);
}

TEST(Fleet, StatsScopedToOwnSession) {
    Fleet fleet{makeUniformFleet(2)};
    ASSERT_TRUE(fleet.startAll().ok());

    const auto fetchStats = [&fleet](std::size_t site, bool includeAll) {
        std::optional<util::Result<std::string>> outcome;
        fleet.umtsSite(site).frontend().stats(
            [&](util::Result<std::string> result) { outcome = std::move(result); },
            includeAll);
        const sim::SimTime deadline = fleet.sim().now() + sim::seconds(5.0);
        while (!outcome && fleet.sim().now() < deadline)
            fleet.sim().runUntil(fleet.sim().now() + sim::millis(10));
        EXPECT_TRUE(outcome.has_value() && outcome->ok());
        return outcome->ok() ? outcome->value() : std::string{};
    };

    const std::string own = fetchStats(0, false);
    EXPECT_NE(own.find("umts.bearer.222880000000001."), std::string::npos);
    EXPECT_EQ(own.find("umts.bearer.222880000000002."), std::string::npos)
        << "node 1's stats leaked node 2's session metrics";

    const std::string all = fetchStats(0, true);
    EXPECT_NE(all.find("umts.bearer.222880000000001."), std::string::npos);
    EXPECT_NE(all.find("umts.bearer.222880000000002."), std::string::npos);
}

}  // namespace
}  // namespace onelab::scenario
