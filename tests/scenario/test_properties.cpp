#include <gtest/gtest.h>

#include "scenario/experiment.hpp"

namespace onelab::scenario {
namespace {

/// Property sweeps across seeds — the paper notes every measurement
/// was repeated 20 times "and very similar results were obtained";
/// these parameterised suites assert the same stability.

class SeededVoip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededVoip, ShapeInvariantsHoldAcrossSeeds) {
    ExperimentOptions options;
    options.workload = Workload::voip_g711;
    options.durationSeconds = 40.0;
    options.seed = GetParam();
    const PathRun run = runPath(PathKind::umts_to_ethernet, options);
    // Invariants: no loss, nominal average rate, VoIP-usable RTT.
    EXPECT_EQ(run.summary.lost, 0u);
    EXPECT_NEAR(util::meanInWindow(run.series.bitrateKbps, 2, 38), 72.0, 5.0);
    EXPECT_LT(run.summary.meanRttSeconds, 0.5);
    EXPECT_GT(run.summary.meanRttSeconds, 0.1);
    EXPECT_EQ(run.bearerUpgrades, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededVoip, ::testing::Values(1, 7, 42, 1234, 99999));

class SeededCbr : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededCbr, SaturationInvariantsHoldAcrossSeeds) {
    ExperimentOptions options;
    options.workload = Workload::cbr_1mbps;
    options.durationSeconds = 30.0;  // before any upgrade grant
    options.seed = GetParam();
    const PathRun run = runPath(PathKind::umts_to_ethernet, options);
    // Saturated uplink: goodput pinned at the initial bearer capacity.
    EXPECT_NEAR(util::meanInWindow(run.series.bitrateKbps, 5, 28), 133.0, 25.0);
    EXPECT_GT(run.summary.lossRate, 0.7);
    EXPECT_GT(run.summary.meanRttSeconds, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededCbr, ::testing::Values(2, 11, 314, 2718));

class SeededIsolation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededIsolation, NoForeignPacketEverCrossesPpp0) {
    FleetConfig config = makeUniformFleet(1, GetParam());
    config.umtsSites[0].extraSliceNames = {"unina_other"};
    Fleet fleet{config};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    pl::Slice& other = *napoli.slice("unina_other");
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    net::Interface* ppp = napoli.node().stack().findInterface("ppp0");
    ASSERT_NE(ppp, nullptr);

    // Fire a barrage of hostile traffic from the other slice: bound to
    // the UMTS address, to the registered destination, to the peer —
    // none of it may transit ppp0.
    auto hostile = napoli.node().openSliceUdp(other).value();
    auto hostileBound = napoli.node().openSliceUdp(other).value();
    hostileBound->bindAddress(started.value().address);
    for (int i = 0; i < 20; ++i) {
        (void)hostile->sendTo(inria.address(), 9001, util::Bytes{1});
        (void)hostile->sendTo(fleet.operatorNetwork().profile().ggsnAddress, 22, util::Bytes{1});
        (void)hostileBound->sendTo(inria.address(), 9001, util::Bytes{1});
        fleet.runFor(sim::millis(50));
    }
    EXPECT_EQ(ppp->counters().txPackets, 0u);

    // The owner still gets through afterwards.
    auto owner = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    ASSERT_TRUE(owner->sendTo(inria.address(), 9001, util::Bytes{1}).ok());
    EXPECT_EQ(ppp->counters().txPackets, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededIsolation, ::testing::Values(3, 17, 101));

class SeededKnee : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededKnee, UpgradeLandsNearFiftySecondsForEverySeed) {
    // The Fig. 4 knee position is an operator property (grant delay
    // 40-52 s after saturation onset), not a lucky seed.
    ExperimentOptions options;
    options.workload = Workload::cbr_1mbps;
    options.durationSeconds = 120.0;
    options.seed = GetParam();
    const PathRun run = runPath(PathKind::umts_to_ethernet, options);
    ASSERT_EQ(run.bearerUpgrades, 1) << "seed " << GetParam();
    EXPECT_GT(run.upgradeTimeSeconds, 38.0);
    EXPECT_LT(run.upgradeTimeSeconds, 58.0);
    const double early = util::meanInWindow(run.series.bitrateKbps, 5, 40);
    const double late = util::meanInWindow(run.series.bitrateKbps, 62, 115);
    EXPECT_GT(late, early * 2.0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededKnee, ::testing::Values(8, 21, 777));

TEST(Determinism, SameSeedSameSeries) {
    ExperimentOptions options;
    options.workload = Workload::voip_g711;
    options.durationSeconds = 20.0;
    options.seed = 77;
    const PathRun a = runPath(PathKind::umts_to_ethernet, options);
    const PathRun b = runPath(PathKind::umts_to_ethernet, options);
    ASSERT_EQ(a.series.bitrateKbps.size(), b.series.bitrateKbps.size());
    for (std::size_t i = 0; i < a.series.bitrateKbps.size(); ++i)
        EXPECT_DOUBLE_EQ(a.series.bitrateKbps[i].value, b.series.bitrateKbps[i].value);
    ASSERT_EQ(a.series.rttSeconds.size(), b.series.rttSeconds.size());
    for (std::size_t i = 0; i < a.series.rttSeconds.size(); ++i)
        EXPECT_DOUBLE_EQ(a.series.rttSeconds[i].value, b.series.rttSeconds[i].value);
}

TEST(Determinism, DifferentSeedsDifferentMicrostructure) {
    ExperimentOptions options;
    options.workload = Workload::voip_g711;
    options.durationSeconds = 20.0;
    options.seed = 1;
    const PathRun a = runPath(PathKind::umts_to_ethernet, options);
    options.seed = 2;
    const PathRun b = runPath(PathKind::umts_to_ethernet, options);
    // Same macroscopic behaviour, different noise realisation.
    int differing = 0;
    const std::size_t count = std::min(a.series.rttSeconds.size(), b.series.rttSeconds.size());
    for (std::size_t i = 0; i < count; ++i)
        if (a.series.rttSeconds[i].value != b.series.rttSeconds[i].value) ++differing;
    EXPECT_GT(differing, int(count / 2));
}

TEST(Repeatability, TwentyRunsVerySimilarResults) {
    // The paper's §3.1 claim, directly: repeat the (shortened) VoIP
    // measurement and check the run-to-run spread is tight.
    util::OnlineStats bitrateMeans;
    util::OnlineStats rttMeans;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ExperimentOptions options;
        options.workload = Workload::voip_g711;
        options.durationSeconds = 15.0;
        options.seed = seed;
        const PathRun run = runPath(PathKind::umts_to_ethernet, options);
        bitrateMeans.add(util::meanInWindow(run.series.bitrateKbps, 2, 13));
        rttMeans.add(run.summary.meanRttSeconds);
    }
    EXPECT_LT(bitrateMeans.stddev() / bitrateMeans.mean(), 0.05);
    EXPECT_LT(rttMeans.stddev() / rttMeans.mean(), 0.25);
}

}  // namespace
}  // namespace onelab::scenario
