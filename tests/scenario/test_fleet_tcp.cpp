// Fleet TCP waves: framed D-ITG probes over the real TCP stack from
// every UE to the wired receiver. The wave contract under test is the
// soak-loop enabler — each wave closes its connections, drains
// TIME-WAIT and reaps, so consecutive waves rebind deterministically
// instead of accreting half-open state across a long soak.
#include "scenario/fleet.hpp"

#include <gtest/gtest.h>

#include "net/tcp.hpp"

namespace onelab::scenario {
namespace {

TEST(FleetTcp, WaveDeliversEveryProbeOverTheRadio) {
    Fleet fleet{makeUniformFleet(2, 7)};
    ASSERT_TRUE(fleet.startAll().ok());
    ASSERT_TRUE(fleet.addDestinationAll().ok());

    const auto runs = fleet.runTcpAll(4.0);
    ASSERT_EQ(runs.size(), 2u);
    for (const FleetTcpRun& run : runs) {
        EXPECT_GT(run.probesSent, 0u) << run.imsi;
        // TCP turns radio loss into retransmission, never probe loss.
        EXPECT_EQ(run.probesReceived, run.probesSent) << run.imsi;
        EXPECT_EQ(run.summary.lost, 0u) << run.imsi;
        EXPECT_GT(run.tcp.bytesAcked, 0u) << run.imsi;
        EXPECT_GT(run.summary.meanOwdSeconds, 0.0) << run.imsi;
    }
}

TEST(FleetTcp, ConsecutiveWavesRebindDeterministically) {
    Fleet fleet{makeUniformFleet(2, 7)};
    ASSERT_TRUE(fleet.startAll().ok());
    ASSERT_TRUE(fleet.addDestinationAll().ok());

    const auto wave1 = fleet.runTcpAll(3.0);
    // The wave cleaned up after itself: TIME-WAIT drained, every
    // connection reaped, listener gone — on both ends.
    for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i)
        EXPECT_EQ(fleet.umtsSite(i).node().tcp().connectionCount(), 0u) << i;
    EXPECT_EQ(fleet.wiredSite(0).node().tcp().connectionCount(), 0u);

    const auto wave2 = fleet.runTcpAll(3.0);
    ASSERT_EQ(wave1.size(), wave2.size());
    for (std::size_t i = 0; i < wave1.size(); ++i) {
        // Same fleet, same flow spec, clean tables: wave 2 carries the
        // same probe count as wave 1 (rebinding worked; nothing stuck).
        EXPECT_EQ(wave2[i].probesSent, wave1[i].probesSent) << wave1[i].imsi;
        EXPECT_EQ(wave2[i].probesReceived, wave2[i].probesSent) << wave1[i].imsi;
    }
    for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i)
        EXPECT_EQ(fleet.umtsSite(i).node().tcp().connectionCount(), 0u) << i;
    EXPECT_EQ(fleet.wiredSite(0).node().tcp().connectionCount(), 0u);
}

TEST(FleetTcp, CongestionAlgorithmIsSelectable) {
    Fleet fleet{makeUniformFleet(1, 9)};
    ASSERT_TRUE(fleet.startAll().ok());
    ASSERT_TRUE(fleet.addDestinationAll().ok());
    const FleetTcpRun run = fleet.runTcp(0, 3.0, net::CcAlgorithm::cubic);
    EXPECT_GT(run.probesSent, 0u);
    EXPECT_EQ(run.probesReceived, run.probesSent);
}

}  // namespace
}  // namespace onelab::scenario
