#include "scenario/fleet.hpp"

#include <gtest/gtest.h>

namespace onelab::scenario {
namespace {

TEST(Testbed, ConstructsPaperTopology) {
    // The paper's §3 testbed is the 1-UE fleet.
    Fleet fleet{makeUniformFleet(1)};
    ASSERT_EQ(fleet.umtsSiteCount(), 1u);
    ASSERT_EQ(fleet.wiredSiteCount(), 1u);
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    EXPECT_EQ(napoli.node().hostname(), "planetlab1.unina.it");
    EXPECT_EQ(napoli.ethAddress(), (net::Ipv4Address{143, 225, 229, 10}));
    EXPECT_EQ(napoli.imsi(), "222880000000001");
    EXPECT_EQ(inria.node().hostname(), "planetlab1.inria.fr");
    EXPECT_EQ(inria.address(), (net::Ipv4Address{138, 96, 250, 20}));
    EXPECT_EQ(inria.firstSlice().name, "inria_recv");
    EXPECT_EQ(fleet.operatorNetwork().profile().name, "commercial-it");
    EXPECT_NE(napoli.node().findSlice("unina_umts"), nullptr);
    EXPECT_TRUE(napoli.node().vsys().isAllowed("umts", "unina_umts"));
    EXPECT_FALSE(napoli.node().vsys().isAllowed("umts", "unina_other"));
}

TEST(Testbed, EthernetPathWorksWithoutUmts) {
    Fleet fleet{makeUniformFleet(1)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    auto rx = inria.node().openSliceUdp(inria.firstSlice(), 9001).value();
    int got = 0;
    rx->onReceive([&](net::Datagram) { ++got; });
    auto tx = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    ASSERT_TRUE(tx->sendTo(inria.address(), 9001, util::Bytes{1}).ok());
    fleet.runUntil(sim::seconds(1.0));
    EXPECT_EQ(got, 1);
}

TEST(Testbed, EthernetRttAroundTwentyMs) {
    Fleet fleet{makeUniformFleet(1)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    std::optional<net::PingReply> reply;
    ASSERT_TRUE(napoli.node().stack()
                    .ping(inria.address(), [&](net::PingReply r) { reply = r; })
                    .ok());
    fleet.runUntil(sim::seconds(1.0));
    ASSERT_TRUE(reply.has_value());
    const double rttMs = sim::toMillis(reply->rtt);
    EXPECT_GT(rttMs, 15.0);
    EXPECT_LT(rttMs, 30.0);
}

TEST(Testbed, StartUmtsEndToEnd) {
    Fleet fleet{makeUniformFleet(1)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok()) << started.error().message;
    EXPECT_TRUE(started.value().connected);
    // Takes realistic setup time: registration + dial + PPP.
    EXPECT_GT(sim::toSeconds(fleet.now()), 3.0);
    EXPECT_LT(sim::toSeconds(fleet.now()), 20.0);
}

TEST(Testbed, GlobetrotterCardVariant) {
    FleetConfig config = makeUniformFleet(1);
    config.umtsSites[0].card = CardKind::globetrotter;
    Fleet fleet{config};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok()) << started.error().message;
    EXPECT_EQ(napoli.card().identity().manufacturer, "Option N.V.");
}

TEST(Testbed, MicrocellOperatorVariant) {
    Fleet fleet{makeUniformFleet(1, 42, umts::alcatelLucentMicrocell())};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok()) << started.error().message;
    EXPECT_EQ(started.value().operatorName, "ALU 3G Reality Center");
    EXPECT_TRUE(fleet.operatorNetwork().profile().subscriberPool.contains(
        started.value().address));
}

TEST(Testbed, PingOverUmtsAfterAddDestination) {
    Fleet fleet{makeUniformFleet(1)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    // ICMP from the slice context, marked and routed via ppp0.
    std::optional<net::PingReply> reply;
    ASSERT_TRUE(napoli.node().stack()
                    .ping(inria.address(), [&](net::PingReply r) { reply = r; },
                          napoli.umtsSlice().xid)
                    .ok());
    fleet.runFor(sim::seconds(5.0));
    ASSERT_TRUE(reply.has_value());
    // UMTS RTT is an order of magnitude above the wired path.
    EXPECT_GT(sim::toMillis(reply->rtt), 100.0);
}

TEST(Testbed, OperatorFirewallBlocksInboundToUmtsAddress) {
    // The paper's §2.2 rationale for keeping control traffic on eth0:
    // the UMTS-side address is not reachable from outside.
    Fleet fleet{makeUniformFleet(1)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok());
    auto probe = inria.node().openSliceUdp(inria.firstSlice()).value();
    ASSERT_TRUE(probe->sendTo(started.value().address, 22, util::Bytes{1}).ok());
    fleet.runFor(sim::seconds(2.0));
    EXPECT_GE(fleet.operatorNetwork().firewallBlockedInbound(), 1u);
}

TEST(Testbed, StopMidTransferTearsDownCleanly) {
    Fleet fleet{makeUniformFleet(1)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    auto tx = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    // A saturating burst that outlives the stop: the RLC queue is full
    // of in-flight chunks when the PDP context is torn down, and the
    // sender keeps writing into the (now unrouted) socket afterwards.
    const sim::SimTime base = fleet.now();
    for (int i = 0; i < 20 * 35; ++i)
        fleet.sim().scheduleAt(base + sim::millis(i * 28.0), [&inria, tx] {
            (void)tx->sendTo(inria.address(), 9001, util::Bytes(1052, 0));
        });
    fleet.runUntil(base + sim::seconds(5.0));
    const auto stopped = napoli.stopUmts();
    ASSERT_TRUE(stopped.ok()) << stopped.error().message;
    EXPECT_EQ(fleet.operatorNetwork().activeSessions(), 0u);
    // The stop returned the bearer's capacity to the cell pool.
    EXPECT_DOUBLE_EQ(fleet.operatorNetwork().cell().uplinkAllocatedBps(), 0.0);
    // Drain the rest of the burst: no dangling bearer/ByteChannel
    // callbacks may fire into the torn-down session.
    fleet.runUntil(base + sim::seconds(25.0));
    // And the node can dial again afterwards.
    const auto restarted = napoli.startUmts();
    ASSERT_TRUE(restarted.ok()) << restarted.error().message;
}

TEST(Testbed, DestructionMidTransferIsClean) {
    // Destroying the whole testbed while chunks sit in the RLC queues
    // and PPP frames sit in the TTY pipes must not fire any callback
    // into freed objects (exercised under ASan via tools/sanitize.sh).
    auto fleet = std::make_unique<Fleet>(makeUniformFleet(1));
    UmtsNodeSite& napoli = fleet->umtsSite(0);
    const net::Ipv4Address inriaAddress = fleet->wiredSite(0).address();
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inriaAddress.str() + "/32").ok());
    auto tx = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    sim::Simulator& sim = fleet->sim();
    const sim::SimTime base = sim.now();
    for (int i = 0; i < 10 * 35; ++i)
        sim.scheduleAt(base + sim::millis(i * 28.0), [inriaAddress, tx] {
            (void)tx->sendTo(inriaAddress, 9001, util::Bytes(1052, 0));
        });
    // Stop in the middle of the burst with the uplink saturated.
    sim.runUntil(base + sim::seconds(3.0));
    EXPECT_GT(fleet->operatorNetwork().activeSessions(), 0u);
    fleet.reset();
}

TEST(Testbed, StopAndRestartCycleTwice) {
    Fleet fleet{makeUniformFleet(1)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    for (int cycle = 0; cycle < 2; ++cycle) {
        const auto started = napoli.startUmts();
        ASSERT_TRUE(started.ok()) << "cycle " << cycle << ": " << started.error().message;
        const auto stopped = napoli.stopUmts();
        ASSERT_TRUE(stopped.ok()) << "cycle " << cycle << ": " << stopped.error().message;
    }
}

}  // namespace
}  // namespace onelab::scenario
