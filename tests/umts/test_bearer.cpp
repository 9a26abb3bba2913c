#include "umts/bearer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/run_context.hpp"
#include "obs/trace.hpp"

namespace onelab::umts {
namespace {

BearerLink::Params fastParams() {
    return BearerLink::Params{
        .rateBps = 80000.0,  // 10 kB/s
        .bufferBytes = 10000,
        .baseDelay = sim::millis(10),
        .ttiQuantum = sim::SimTime{0},
        .jitterGammaShape = 0.0001,  // effectively no jitter
        .jitterGammaScaleMs = 0.0001,
        .residualLossProbability = 0.0,
        .degradedRateFactor = 0.25,
    };
}

TEST(BearerLink, DeliversWithSerializationAndBaseDelay) {
    sim::Simulator sim;
    BearerLink link{sim, fastParams(), util::RandomStream{1}, "test"};
    sim::SimTime arrival{};
    link.setDeliver([&](const util::SharedBytes&) { arrival = sim.now(); });
    link.send(util::Bytes(1000, 0));  // 100 ms at 10 kB/s
    sim.run();
    EXPECT_GE(arrival, sim::millis(110));
    EXPECT_LT(arrival, sim::millis(130));
    EXPECT_EQ(link.stats().chunksDelivered, 1u);
    EXPECT_EQ(link.stats().bytesDelivered, 1000u);
}

TEST(BearerLink, InOrderDelivery) {
    sim::Simulator sim;
    BearerLink::Params params = fastParams();
    params.jitterGammaShape = 2.0;
    params.jitterGammaScaleMs = 10.0;  // heavy jitter
    BearerLink link{sim, params, util::RandomStream{3}, "test"};
    std::vector<std::uint8_t> order;
    link.setDeliver([&](const util::SharedBytes& chunk) { order.push_back(chunk.view()[0]); });
    for (std::uint8_t i = 0; i < 30; ++i) link.send(util::Bytes{i});
    sim.run();
    ASSERT_EQ(order.size(), 30u);
    for (std::uint8_t i = 0; i < 30; ++i) EXPECT_EQ(order[i], i);
}

TEST(BearerLink, OverflowDropsTail) {
    sim::Simulator sim;
    BearerLink link{sim, fastParams(), util::RandomStream{1}, "test"};
    int delivered = 0;
    link.setDeliver([&](const util::SharedBytes&) { ++delivered; });
    for (int i = 0; i < 20; ++i) link.send(util::Bytes(1000, 0));  // 20 kB into 10 kB buffer
    EXPECT_GT(link.stats().droppedOverflow, 0u);
    sim.run();
    EXPECT_EQ(std::size_t(delivered), link.stats().chunksDelivered);
    EXPECT_EQ(link.stats().chunksIn, link.stats().chunksDelivered);
}

TEST(BearerLink, ResidualLossDropsSome) {
    sim::Simulator sim;
    BearerLink::Params params = fastParams();
    params.residualLossProbability = 1.0;
    BearerLink link{sim, params, util::RandomStream{1}, "test"};
    int delivered = 0;
    link.setDeliver([&](const util::SharedBytes&) { ++delivered; });
    link.send(util::Bytes(100, 0));
    sim.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(link.stats().droppedRadio, 1u);
}

TEST(BearerLink, DegradedRateSlowsService) {
    sim::Simulator sim;
    BearerLink link{sim, fastParams(), util::RandomStream{1}, "test"};
    sim::SimTime arrival{};
    link.setDeliver([&](const util::SharedBytes&) { arrival = sim.now(); });
    link.degrade(sim::seconds(10.0));
    EXPECT_TRUE(link.isDegraded());
    link.send(util::Bytes(1000, 0));  // 100 ms normally, 400 ms degraded
    sim.run();
    EXPECT_GE(arrival, sim::millis(410));
}

TEST(BearerLink, TtiQuantisesArrival) {
    sim::Simulator sim;
    BearerLink::Params params = fastParams();
    params.ttiQuantum = sim::millis(10);
    BearerLink link{sim, params, util::RandomStream{1}, "test"};
    sim::SimTime arrival{};
    link.setDeliver([&](const util::SharedBytes&) { arrival = sim.now(); });
    link.send(util::Bytes(100, 0));
    sim.run();
    EXPECT_EQ(arrival.count() % sim::millis(10).count(), 0);
}

TEST(BearerLink, RateChangeAffectsBacklogService) {
    sim::Simulator sim;
    BearerLink link{sim, fastParams(), util::RandomStream{1}, "test"};
    std::vector<double> arrivals;
    link.setDeliver([&](const util::SharedBytes&) { arrivals.push_back(sim::toSeconds(sim.now())); });
    link.send(util::Bytes(1000, 0));
    link.send(util::Bytes(1000, 0));
    link.setRate(160000.0);  // double speed for the queued chunk
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    // First chunk ~0.11 s, second only +50 ms serialization after it.
    EXPECT_NEAR(arrivals[1] - arrivals[0], 0.05, 0.02);
}

TEST(BearerLink, ClearFlushesBacklog) {
    sim::Simulator sim;
    BearerLink link{sim, fastParams(), util::RandomStream{1}, "test"};
    int delivered = 0;
    link.setDeliver([&](const util::SharedBytes&) { ++delivered; });
    link.send(util::Bytes(1000, 0));
    link.send(util::Bytes(1000, 0));
    link.clear();
    sim.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(link.backlogBytes(), 0u);
}

// --- RadioBearer: on-demand allocation ---

OperatorProfile onDemandProfile() {
    OperatorProfile profile = commercialItalianOperator();
    profile.badStateRatePerSec = 0.0;  // deterministic tests
    profile.jitterGammaShape = 0.0001;
    profile.jitterGammaScaleMs = 0.0001;
    profile.upgradeGrantDelayMin = sim::seconds(5.0);
    profile.upgradeGrantDelayMax = sim::seconds(6.0);
    profile.upgradeSustain = sim::seconds(1.0);
    return profile;
}

TEST(RadioBearer, StartsAtInitialRate) {
    sim::Simulator sim;
    RadioBearer bearer{sim, onDemandProfile(), util::RandomStream{1}, "222880000000101"};
    EXPECT_DOUBLE_EQ(bearer.currentUplinkRateBps(), 144e3);
    EXPECT_EQ(bearer.upgradeCount(), 0);
}

TEST(RadioBearer, SustainedSaturationTriggersUpgradeAfterGrantDelay) {
    sim::Simulator sim;
    const OperatorProfile profile = onDemandProfile();
    RadioBearer bearer{sim, profile, util::RandomStream{1}, "222880000000102"};
    std::optional<double> upgradeAt;
    bearer.onUplinkRateChange = [&](double oldRate, double newRate) {
        if (newRate > oldRate) upgradeAt = sim::toSeconds(sim.now());
    };
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    // Offer ~2x the bearer rate for 10 s.
    for (int i = 0; i < 10 * 35; ++i) {
        sim.schedule(sim::millis(i * 28.0), [&] { bearer.sendUplink(util::Bytes(1052, 0)); });
    }
    sim.runUntil(sim::seconds(12.0));
    ASSERT_TRUE(upgradeAt.has_value());
    // Saturation onset is within the first second; grant 5-6 s later.
    EXPECT_GT(*upgradeAt, 4.5);
    EXPECT_LT(*upgradeAt, 8.0);
    EXPECT_DOUBLE_EQ(bearer.currentUplinkRateBps(), 384e3);
    EXPECT_EQ(bearer.upgradeCount(), 1);
}

TEST(RadioBearer, NoUpgradeWithoutSaturation) {
    sim::Simulator sim;
    RadioBearer bearer{sim, onDemandProfile(), util::RandomStream{1}, "222880000000103"};
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    // A VoIP-class load (~100 pkt/s of 130 B) never fills the buffer.
    for (int i = 0; i < 10 * 100; ++i)
        sim.schedule(sim::millis(i * 10.0), [&] { bearer.sendUplink(util::Bytes(130, 0)); });
    sim.runUntil(sim::seconds(12.0));
    EXPECT_EQ(bearer.upgradeCount(), 0);
    EXPECT_DOUBLE_EQ(bearer.currentUplinkRateBps(), 144e3);
}

TEST(RadioBearer, NoAdaptationWhenDisabled) {
    sim::Simulator sim;
    OperatorProfile profile = onDemandProfile();
    profile.onDemandAllocation = false;
    RadioBearer bearer{sim, profile, util::RandomStream{1}, "222880000000104"};
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    for (int i = 0; i < 10 * 35; ++i)
        sim.schedule(sim::millis(i * 28.0), [&] { bearer.sendUplink(util::Bytes(1052, 0)); });
    sim.runUntil(sim::seconds(12.0));
    EXPECT_EQ(bearer.upgradeCount(), 0);
}

TEST(RadioBearer, DowngradesAfterIdle) {
    sim::Simulator sim;
    OperatorProfile profile = onDemandProfile();
    profile.downgradeIdle = sim::seconds(3.0);
    RadioBearer bearer{sim, profile, util::RandomStream{1}, "222880000000105"};
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    std::vector<double> rates;
    bearer.onUplinkRateChange = [&](double, double newRate) { rates.push_back(newRate); };
    for (int i = 0; i < 10 * 35; ++i)
        sim.schedule(sim::millis(i * 28.0), [&] { bearer.sendUplink(util::Bytes(1052, 0)); });
    sim.runUntil(sim::seconds(12.0));
    ASSERT_DOUBLE_EQ(bearer.currentUplinkRateBps(), 384e3);
    // Now go idle; the network reclaims the fat bearer.
    sim.runUntil(sim::seconds(30.0));
    EXPECT_DOUBLE_EQ(bearer.currentUplinkRateBps(), 144e3);
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates.back(), 144e3);
}

TEST(RadioBearer, RrcDemotesAfterIdleAndPromotionDelaysFirstPacket) {
    sim::Simulator sim;
    OperatorProfile profile = onDemandProfile();
    profile.dchIdleTimeout = sim::seconds(3.0);
    profile.fachPromotionDelay = sim::millis(650);
    RadioBearer bearer{sim, profile, util::RandomStream{1}, "222880000000106"};
    std::vector<double> arrivals;
    bearer.setUplinkSink([&](const util::SharedBytes&) { arrivals.push_back(sim::toSeconds(sim.now())); });

    // Active: packet crosses in ~base delay (60 ms) + serialization.
    bearer.sendUplink(util::Bytes(100, 0));
    sim.runUntil(sim::seconds(1.0));
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_LT(arrivals[0], 0.2);
    EXPECT_EQ(bearer.rrcState(), RadioBearer::RrcState::cell_dch);

    // Idle past the timeout: demoted to CELL_FACH.
    sim.runUntil(sim::seconds(8.0));
    EXPECT_EQ(bearer.rrcState(), RadioBearer::RrcState::cell_fach);

    // The next packet pays the promotion delay.
    bearer.sendUplink(util::Bytes(100, 0));
    sim.runUntil(sim::seconds(10.0));  // before the next idle demotion
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_GT(arrivals[1] - 8.0, 0.65);
    EXPECT_LT(arrivals[1] - 8.0, 1.0);
    EXPECT_EQ(bearer.rrcPromotions(), 1);
    EXPECT_EQ(bearer.rrcState(), RadioBearer::RrcState::cell_dch);

    // Another long idle period demotes again.
    sim.runUntil(sim::seconds(15.0));
    EXPECT_EQ(bearer.rrcState(), RadioBearer::RrcState::cell_fach);
}

TEST(RadioBearer, RrcEdgesNameTheUeInTheBlackBox) {
    obs::RunContext context;
    obs::Tracer& recorder = obs::Tracer::instance();
    recorder.setEnabled(true);
    sim::Simulator sim;
    OperatorProfile profile = onDemandProfile();
    profile.dchIdleTimeout = sim::seconds(3.0);
    RadioBearer bearer{sim, profile, util::RandomStream{1}, "222880000000108"};
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    bearer.sendUplink(util::Bytes(100, 0));
    sim.runUntil(sim::seconds(8.0));  // idle: demoted
    bearer.sendUplink(util::Bytes(100, 0));
    sim.runUntil(sim::seconds(9.0));  // promoted again
    std::vector<std::string> edges;
    for (const obs::TraceRecord& record : recorder.records()) {
        if (record.categoryView() != "umts.rrc") continue;
        EXPECT_EQ(record.kind, obs::RecordKind::transition);
        EXPECT_EQ(record.value, 222880000000108);
        edges.emplace_back(record.nameView());
    }
    EXPECT_EQ(edges, (std::vector<std::string>{"demotion", "promotion"}));
    // The trace shows the edges by name only.
    const std::string trace = recorder.exportChromeJson();
    EXPECT_NE(trace.find("\"name\":\"promotion\",\"cat\":\"umts.rrc\",\"ph\":\"i\""),
              std::string::npos);
    EXPECT_EQ(trace.find("222880000000108"), std::string::npos);
}

TEST(RadioBearer, SteadyTrafficNeverDemotes) {
    sim::Simulator sim;
    OperatorProfile profile = onDemandProfile();
    profile.dchIdleTimeout = sim::seconds(2.0);
    RadioBearer bearer{sim, profile, util::RandomStream{1}, "222880000000107"};
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    for (int i = 0; i < 20; ++i)
        sim.schedule(sim::millis(500.0 * i), [&] { bearer.sendUplink(util::Bytes(100, 0)); });
    sim.runUntil(sim::seconds(10.0));
    EXPECT_EQ(bearer.rrcPromotions(), 0);
    EXPECT_EQ(bearer.rrcState(), RadioBearer::RrcState::cell_dch);
}

TEST(RadioBearer, RrcDisabledStaysDch) {
    sim::Simulator sim;
    OperatorProfile profile = onDemandProfile();
    profile.rrcStates = false;
    profile.dchIdleTimeout = sim::seconds(1.0);
    RadioBearer bearer{sim, profile, util::RandomStream{1}, "222880000000108"};
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    sim.runUntil(sim::seconds(5.0));
    EXPECT_EQ(bearer.rrcState(), RadioBearer::RrcState::cell_dch);
    bearer.sendUplink(util::Bytes(100, 0));
    sim.runUntil(sim::seconds(6.0));
    EXPECT_EQ(bearer.rrcPromotions(), 0);
}

TEST(RadioBearer, DownlinkTrafficAlsoPromotes) {
    sim::Simulator sim;
    OperatorProfile profile = onDemandProfile();
    profile.dchIdleTimeout = sim::seconds(2.0);
    RadioBearer bearer{sim, profile, util::RandomStream{1}, "222880000000109"};
    bearer.setDownlinkSink([](const util::SharedBytes&) {});
    sim.runUntil(sim::seconds(5.0));
    ASSERT_EQ(bearer.rrcState(), RadioBearer::RrcState::cell_fach);
    bearer.sendDownlink(util::Bytes(100, 0));
    EXPECT_EQ(bearer.rrcState(), RadioBearer::RrcState::cell_dch);
    EXPECT_EQ(bearer.rrcPromotions(), 1);
}

TEST(RadioBearer, DownlinkIndependentOfUplink) {
    sim::Simulator sim;
    RadioBearer bearer{sim, onDemandProfile(), util::RandomStream{1}, "222880000000110"};
    int downDelivered = 0;
    bearer.setDownlinkSink([&](const util::SharedBytes&) { ++downDelivered; });
    bearer.sendDownlink(util::Bytes(1000, 0));
    // runUntil, not run(): the adaptation monitor re-arms itself.
    sim.runUntil(sim::seconds(2.0));
    EXPECT_EQ(downDelivered, 1);
    EXPECT_EQ(bearer.downlinkStats().chunksDelivered, 1u);
    EXPECT_EQ(bearer.uplinkStats().chunksDelivered, 0u);
}

TEST(RadioBearer, ShutdownStopsEverything) {
    sim::Simulator sim;
    RadioBearer bearer{sim, onDemandProfile(), util::RandomStream{1}, "222880000000111"};
    int delivered = 0;
    bearer.setUplinkSink([&](const util::SharedBytes&) { ++delivered; });
    bearer.sendUplink(util::Bytes(1000, 0));
    bearer.shutdown();
    sim.run();  // must drain without firing deliveries or timers forever
    EXPECT_EQ(delivered, 0);
}

// --- RadioBearer on a shared cell ---

TEST(RadioBearer, SameImsiTwiceThrowsInsteadOfAliasingMetrics) {
    sim::Simulator sim;
    CellCapacity cell{768e3, 7.2e6};
    RadioBearer first{sim, onDemandProfile(), util::RandomStream{1}, "222880000000009",
                      &cell};
    // A second live bearer for the same IMSI would silently write into
    // the first one's "umts.bearer.<imsi>.*" counters; that's an error.
    EXPECT_THROW((RadioBearer{sim, onDemandProfile(), util::RandomStream{2},
                              "222880000000009", &cell}),
                 std::logic_error);
    // After the first session ends the prefix is claimable again.
    first.shutdown();
    RadioBearer second{sim, onDemandProfile(), util::RandomStream{2}, "222880000000009",
                       &cell};
    EXPECT_EQ(second.imsi(), "222880000000009");
}

TEST(RadioBearer, UpgradeDeniedWhenCellIsDry) {
    sim::Simulator sim;
    CellCapacity cell{768e3, 7.2e6};
    // Another UE holds everything above one initial grant.
    cell.reserveUplink(768e3 - 144e3);
    RadioBearer bearer{sim, onDemandProfile(), util::RandomStream{1}, "222880000000011",
                       &cell};
    EXPECT_DOUBLE_EQ(bearer.currentUplinkRateBps(), 144e3);
    EXPECT_FALSE(bearer.admissionTrimmed());
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    for (int i = 0; i < 10 * 35; ++i)
        sim.schedule(sim::millis(i * 28.0), [&] { bearer.sendUplink(util::Bytes(1052, 0)); });
    sim.runUntil(sim::seconds(12.0));
    EXPECT_EQ(bearer.upgradeCount(), 0);
    EXPECT_GE(bearer.deniedUpgrades(), 1);
    EXPECT_TRUE(bearer.upgradeWaiting());
    EXPECT_DOUBLE_EQ(bearer.currentUplinkRateBps(), 144e3);
    EXPECT_GE(cell.deniedUpgrades(), 1u);
    bearer.shutdown();
}

TEST(RadioBearer, ReleasedCapacityRegrantsParkedUpgrade) {
    sim::Simulator sim;
    CellCapacity cell{768e3, 7.2e6};
    cell.reserveUplink(768e3 - 144e3);  // the "other UE"
    RadioBearer bearer{sim, onDemandProfile(), util::RandomStream{1}, "222880000000012",
                       &cell};
    bearer.setUplinkSink([](const util::SharedBytes&) {});
    for (int i = 0; i < 10 * 35; ++i)
        sim.schedule(sim::millis(i * 28.0), [&] { bearer.sendUplink(util::Bytes(1052, 0)); });
    sim.runUntil(sim::seconds(12.0));
    ASSERT_TRUE(bearer.upgradeWaiting());
    // The other UE detaches: its capacity returns to the pool and the
    // parked upgrade is granted immediately (its delay was already
    // paid), without waiting for a new saturation episode.
    cell.releaseUplink(768e3 - 144e3);
    EXPECT_FALSE(bearer.upgradeWaiting());
    EXPECT_GT(bearer.currentUplinkRateBps(), 144e3);
    EXPECT_GE(bearer.upgradeCount(), 1);
    bearer.shutdown();
}

TEST(RadioBearer, AdmissionTrimmedToLadderFloorWhenPoolNearlyFull) {
    sim::Simulator sim;
    CellCapacity cell{768e3, 7.2e6};
    cell.reserveUplink(768e3 - 30e3);  // 30k headroom: not even the floor fits
    RadioBearer bearer{sim, onDemandProfile(), util::RandomStream{1}, "222880000000013",
                       &cell};
    // Trimmed down the ladder to the 64k floor step; the floor is
    // granted even though it oversubscribes the pool.
    EXPECT_TRUE(bearer.admissionTrimmed());
    EXPECT_DOUBLE_EQ(bearer.currentUplinkRateBps(), 64e3);
    EXPECT_GE(cell.trimmedAdmissions(), 1u);
    EXPECT_DOUBLE_EQ(cell.uplinkAvailableBps(), 0.0);  // oversubscribed clamps at 0
    bearer.shutdown();
}

TEST(RadioBearer, ShutdownReturnsCapacityToPool) {
    sim::Simulator sim;
    CellCapacity cell{768e3, 7.2e6};
    const double downlinkBefore = cell.downlinkAllocatedBps();
    {
        RadioBearer bearer{sim, onDemandProfile(), util::RandomStream{1},
                           "222880000000014", &cell};
        EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(), 144e3);
        bearer.shutdown();
    }
    EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(), 0.0);
    EXPECT_DOUBLE_EQ(cell.downlinkAllocatedBps(), downlinkBefore);
}

// --- greedy-UE containment: RNC reclaim of idle over-share grants ---

TEST(RadioBearer, RncReclaimsIdleOverShareGreedyGrant) {
    sim::Simulator sim;
    // 700k budget, two claimants: fair share 350k, so a 384k grant is
    // over-share and reclaimable; 2×144k initial + one 384k step fit.
    CellCapacity cell{700e3, 7.2e6};
    OperatorProfile profile = onDemandProfile();
    profile.downgradeIdle = sim::seconds(1.0);  // 5 monitor ticks
    RadioBearer honest{sim, profile, util::RandomStream{1}, "222880000000021", &cell};
    RadioBearer greedy{sim, profile, util::RandomStream{2}, "222880000000022", &cell};
    greedy.setGreedy(true);

    const std::uint64_t reclaimsBefore =
        obs::Registry::instance().counter("guard.cell.reclaims").value();
    bool sawUpgrade = false;
    bool sawReclaim = false;
    greedy.onUplinkRateChange = [&](double oldRate, double newRate) {
        if (newRate > oldRate) sawUpgrade = true;
        if (newRate < oldRate && oldRate > cell.fairShareUplinkBps()) sawReclaim = true;
    };
    // The greedy monitor grabs 384k with no saturation evidence and no
    // grant delay; it then idles (no uplink traffic at all), which an
    // honest bearer would volunteer back — the greedy one never does.
    // After downgradeIdle of consecutive empty-queue ticks the RNC
    // takes the over-share grant back itself.
    sim.runUntil(sim::seconds(10.0));
    EXPECT_TRUE(sawUpgrade);
    EXPECT_TRUE(sawReclaim);
    EXPECT_GT(obs::Registry::instance().counter("guard.cell.reclaims").value(),
              reclaimsBefore);
    // Accounting stayed exact through grab/reclaim cycles: both
    // bearers' grants sum to the pool's allocated figure.
    EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(),
                     honest.currentUplinkRateBps() + greedy.currentUplinkRateBps());
    honest.shutdown();
    greedy.shutdown();
    EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(), 0.0);
}

TEST(RadioBearer, AttemptPacingPinsAHammeringGreedyBearer) {
    sim::Simulator sim;
    CellCapacity cell{700e3, 7.2e6};
    OperatorProfile profile = onDemandProfile();
    profile.downgradeIdle = sim::seconds(1.0);
    RadioBearer honest{sim, profile, util::RandomStream{1}, "222880000000023", &cell};
    RadioBearer greedy{sim, profile, util::RandomStream{2}, "222880000000024", &cell};
    greedy.setGreedy(true);
    const std::uint64_t denialsBefore =
        obs::Registry::instance().counter("guard.cell.fairness_denials").value();
    // Long horizon: the greedy monitor hammers an upgrade attempt
    // every 200 ms whenever it is below the ladder top. The attempt
    // bucket (0.5 tokens/s refill, denied attempts cost too) must pin
    // it, so the vast majority of its hammering is denied.
    sim.runUntil(sim::seconds(60.0));
    const std::uint64_t denials =
        obs::Registry::instance().counter("guard.cell.fairness_denials").value() -
        denialsBefore;
    EXPECT_GT(denials, 50u);
    // The honest idle bearer keeps its admission grant untouched.
    EXPECT_DOUBLE_EQ(honest.currentUplinkRateBps(), 144e3);
    honest.shutdown();
    greedy.shutdown();
}

}  // namespace
}  // namespace onelab::umts
