#include "supervise/supervisor.hpp"

#include <gtest/gtest.h>

#include "obs/registry.hpp"
#include "scenario/fleet.hpp"
#include "umts/bearer.hpp"
#include "umts/network.hpp"

namespace onelab::supervise {
namespace {

double counterValue(const std::string& name) {
    return obs::Registry::instance().counter(name).value();
}

/// Run the testbed's clock until `pred` holds or `patience` elapses.
template <typename Pred>
bool settle(scenario::Fleet& fleet, sim::SimTime patience, Pred&& pred) {
    const sim::SimTime deadline = fleet.now() + patience;
    while (!pred() && fleet.now() < deadline)
        fleet.runFor(sim::millis(500));
    return pred();
}

scenario::FleetConfig supervisedConfig() {
    scenario::FleetConfig config = scenario::makeUniformFleet(1);
    config.umtsSites[0].supervise.enable = true;
    // Fast probation so tests don't wait out the production default.
    config.umtsSites[0].supervise.config.stabilityWindow = sim::seconds(5.0);
    return config;
}

TEST(LinkSupervisor, ConstructedOnlyWhenEnabled) {
    scenario::Fleet plain{scenario::makeUniformFleet(1)};
    EXPECT_EQ(plain.umtsSite(0).supervisor(), nullptr);
    scenario::Fleet supervised{supervisedConfig()};
    ASSERT_NE(supervised.umtsSite(0).supervisor(), nullptr);
    EXPECT_EQ(supervised.umtsSite(0).supervisor()->health(), Health::healthy);
}

TEST(LinkSupervisor, FailoverAndFailbackRouting) {
    scenario::Fleet fleet{supervisedConfig()};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    scenario::WiredSite& inria = fleet.wiredSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    LinkSupervisor* supervisor = napoli.supervisor();
    ASSERT_NE(supervisor, nullptr);
    const double failoversBefore = counterValue("supervise.failovers");
    const double failbacksBefore = counterValue("supervise.failbacks");
    const double recoveredBefore = counterValue("supervise.recovered");

    // Kill the PDP context out from under the link.
    ASSERT_TRUE(fleet.operatorNetwork().injectBearerDrop(napoli.imsi()));
    fleet.runFor(sim::seconds(2.0));

    // The supervisor kept the lock, parked the destination rules (the
    // flow now resolves via the wired main table) and is recovering.
    EXPECT_TRUE(napoli.backend().state().locked);
    EXPECT_TRUE(napoli.backend().routesParked());
    EXPECT_NE(supervisor->health(), Health::healthy);
    EXPECT_GE(counterValue("supervise.failovers"), failoversBefore + 1);

    // The ladder redials; probation passes; flows steer back.
    ASSERT_TRUE(settle(fleet, sim::seconds(120.0), [&] {
        return supervisor->health() == Health::healthy;
    }));
    EXPECT_TRUE(napoli.backend().state().connected);
    EXPECT_FALSE(napoli.backend().routesParked());
    EXPECT_GE(counterValue("supervise.failbacks"), failbacksBefore + 1);
    EXPECT_GE(counterValue("supervise.recovered"), recoveredBefore + 1);
    EXPECT_GE(supervisor->incidents(), 1);
}

TEST(LinkSupervisor, LadderEscalatesThroughProbeAndReattach) {
    scenario::FleetConfig config = supervisedConfig();
    scenario::UmtsNodeSiteConfig::Supervise& supervision = config.umtsSites[0].supervise;
    // Quick rungs: first redial ~1 s after the loss, later ones a few
    // seconds apart, so two 30 s registration timeouts plus the AT
    // probe and the detach/re-attach all land inside the outage.
    supervision.config.redialInitialBackoff = sim::seconds(1.0);
    supervision.config.redialMaxBackoff = sim::seconds(4.0);
    scenario::Fleet fleet{config};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    LinkSupervisor* supervisor = napoli.supervisor();
    ASSERT_NE(supervisor, nullptr);
    const double atOkBefore = counterValue("supervise.probe.at_ok");
    const double reattachBefore = counterValue("supervise.ladder.reattach");
    const double redialBefore = counterValue("supervise.ladder.redial");

    // 70 s without coverage: redials time out on registration, the AT
    // probe finds the card alive, and the ladder picks detach/
    // re-attach over a hard reset.
    fleet.operatorNetwork().injectCoverageOutage(sim::seconds(70.0));
    ASSERT_TRUE(settle(fleet, sim::seconds(300.0), [&] {
        return supervisor->health() == Health::healthy;
    }));
    EXPECT_TRUE(napoli.backend().state().connected);
    EXPECT_GE(counterValue("supervise.probe.at_ok"), atOkBefore + 1);
    EXPECT_GE(counterValue("supervise.ladder.reattach"), reattachBefore + 1);
    EXPECT_GE(counterValue("supervise.ladder.redial"), redialBefore + 2);
}

TEST(LinkSupervisor, BreakerParksFlappingLink) {
    scenario::FleetConfig config = supervisedConfig();
    scenario::UmtsNodeSiteConfig::Supervise& supervision = config.umtsSites[0].supervise;
    supervision.config.breaker.flapThreshold = 2;
    supervision.config.breaker.window = sim::seconds(300.0);
    supervision.config.breaker.cooldown = sim::seconds(20.0);
    scenario::Fleet fleet{config};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    scenario::WiredSite& inria = fleet.wiredSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    LinkSupervisor* supervisor = napoli.supervisor();
    ASSERT_NE(supervisor, nullptr);
    const double tripsBefore = counterValue("supervise.breaker.trips");
    const double retriesBefore = counterValue("supervise.breaker.cooldown_retries");
    const std::string imsi = napoli.imsi();

    // First flap: drop, recover, pass probation.
    ASSERT_TRUE(fleet.operatorNetwork().injectBearerDrop(imsi));
    ASSERT_TRUE(settle(fleet, sim::seconds(120.0), [&] {
        return supervisor->health() == Health::healthy;
    }));

    // Second flap inside the window trips the breaker: the link is
    // parked on the wired path instead of burning dial attempts.
    ASSERT_TRUE(fleet.operatorNetwork().injectBearerDrop(imsi));
    fleet.runFor(sim::seconds(2.0));
    EXPECT_EQ(supervisor->health(), Health::failed_over);
    EXPECT_TRUE(napoli.backend().routesParked());
    EXPECT_GE(counterValue("supervise.breaker.trips"), tripsBefore + 1);

    // Cooldown expires; the retry succeeds and flows fail back.
    ASSERT_TRUE(settle(fleet, sim::seconds(180.0), [&] {
        return supervisor->health() == Health::healthy;
    }));
    EXPECT_GE(counterValue("supervise.breaker.cooldown_retries"), retriesBefore + 1);
    EXPECT_FALSE(napoli.backend().routesParked());
    EXPECT_TRUE(napoli.backend().state().connected);
}

TEST(LinkSupervisor, AdministrativeStopStandsTheSupervisorDown) {
    scenario::Fleet fleet{supervisedConfig()};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    LinkSupervisor* supervisor = napoli.supervisor();
    ASSERT_NE(supervisor, nullptr);

    // Lose the link, then stop administratively while the ladder is
    // mid-recovery: the next rung must notice the lock is gone and
    // stand down instead of redialling a link nobody wants.
    ASSERT_TRUE(fleet.operatorNetwork().injectBearerDrop(napoli.imsi()));
    fleet.runFor(sim::millis(200));
    EXPECT_EQ(supervisor->health(), Health::recovering);
    ASSERT_TRUE(napoli.stopUmts().ok());
    ASSERT_TRUE(settle(fleet, sim::seconds(60.0), [&] {
        return supervisor->health() == Health::healthy && !supervisor->hasPendingWork();
    }));
    EXPECT_FALSE(napoli.backend().state().locked);
    EXPECT_FALSE(napoli.backend().routesParked());
    // And the machine is restartable afterwards.
    ASSERT_TRUE(napoli.startUmts().ok());
    EXPECT_EQ(supervisor->health(), Health::healthy);
}

TEST(LinkSupervisor, EchoDegradationRenegotiatesAndRecoversWithoutLinkLoss) {
    scenario::FleetConfig config = supervisedConfig();
    scenario::UmtsNodeSiteConfig::Supervise& supervision = config.umtsSites[0].supervise;
    // Tight probing, lax pppd kill-switch: the supervisor sees missed
    // echoes well before pppd would tear the link down itself.
    supervision.echoInterval = sim::seconds(1.0);
    supervision.echoFailureLimit = 20;
    supervision.config.degradeAfterMisses = 2;
    supervision.config.stabilityWindow = sim::seconds(3.0);
    scenario::Fleet fleet{config};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    scenario::WiredSite& inria = fleet.wiredSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    LinkSupervisor* supervisor = napoli.supervisor();
    ASSERT_NE(supervisor, nullptr);
    const double degradedBefore = counterValue("supervise.echo.degraded");
    const double renegotiateBefore = counterValue("supervise.ladder.renegotiate");
    const double lossesBefore = counterValue("fault.umtsctl.link_losses");

    // A radio-side stall: the bearer goes dark for 8 s but the PPP
    // link never terminates.
    umts::UmtsSession* session = nullptr;
    for (std::size_t k = 0; k < fleet.operatorNetwork().activeSessions(); ++k)
        if (fleet.operatorNetwork().sessionAt(k)) session = fleet.operatorNetwork().sessionAt(k);
    ASSERT_NE(session, nullptr);
    session->bearer().injectOutage(sim::seconds(8.0));

    ASSERT_TRUE(settle(fleet, sim::seconds(30.0), [&] {
        return supervisor->health() == Health::degraded;
    }));
    EXPECT_GE(counterValue("supervise.echo.degraded"), degradedBefore + 1);
    EXPECT_GE(counterValue("supervise.ladder.renegotiate"), renegotiateBefore + 1);
    EXPECT_TRUE(napoli.backend().routesParked());  // flows parked on wired

    // The bearer heals; echoes flow again; after the stability window
    // the flows steer back — all without a single link loss.
    ASSERT_TRUE(settle(fleet, sim::seconds(60.0), [&] {
        return supervisor->health() == Health::healthy;
    }));
    EXPECT_FALSE(napoli.backend().routesParked());
    EXPECT_TRUE(napoli.backend().state().connected);
    EXPECT_EQ(counterValue("fault.umtsctl.link_losses"), lossesBefore);
}

}  // namespace
}  // namespace onelab::supervise
