// The paper's goal was "to provide every node of the testbed with the
// possibility of using a UMTS interface" (§2). This suite equips a
// SECOND PlanetLab node with its own card and umts extension, against
// the same operator network, and checks the two UMTS connections are
// fully independent.
#include <gtest/gtest.h>

#include "ditg/decoder.hpp"
#include "ditg/receiver.hpp"
#include "ditg/sender.hpp"
#include "scenario/fleet.hpp"

namespace onelab::scenario {
namespace {

TEST(MultiNode, TwoSitesHoldIndependentPdpContexts) {
    Fleet fleet{makeUniformFleet(2)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    UmtsNodeSite& second = fleet.umtsSite(1);

    const auto first = napoli.startUmts();
    ASSERT_TRUE(first.ok()) << first.error().message;
    const auto other = second.startUmts();
    ASSERT_TRUE(other.ok()) << other.error().message;

    EXPECT_EQ(fleet.operatorNetwork().activeSessions(), 2u);
    EXPECT_NE(first.value().address, other.value().address);
    EXPECT_TRUE(fleet.operatorNetwork().profile().subscriberPool.contains(other.value().address));
    // Each node has its own ppp0 with its own address.
    EXPECT_EQ(napoli.node().stack().findInterface("ppp0")->address(), first.value().address);
    EXPECT_EQ(second.node().stack().findInterface("ppp0")->address(), other.value().address);
}

TEST(MultiNode, ConcurrentFlowsFromBothSites) {
    Fleet fleet{makeUniformFleet(2)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    UmtsNodeSite& second = fleet.umtsSite(1);
    WiredSite& inria = fleet.wiredSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(second.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    ASSERT_TRUE(second.addUmtsDestination(inria.address().str() + "/32").ok());

    auto rxSocket = inria.node().openSliceUdp(inria.firstSlice(), 9001).value();
    ditg::ItgRecv receiver{*rxSocket};
    auto socketA = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    auto socketB = second.node().openSliceUdp(second.umtsSlice()).value();
    ditg::ItgSend senderA{fleet.sim(), *socketA, ditg::voipG711Flow(1, 20.0), inria.address(),
                          9001, util::RandomStream{1}};
    ditg::ItgSend senderB{fleet.sim(), *socketB, ditg::voipG711Flow(2, 20.0), inria.address(),
                          9001, util::RandomStream{2}};
    senderA.start();
    senderB.start();
    fleet.runFor(sim::seconds(25.0));

    // Both flows ride their own bearers: full delivery, no cross-talk.
    const auto summaryA = ditg::ItgDec::summarize(senderA.log(), receiver.log(1));
    const auto summaryB = ditg::ItgDec::summarize(senderB.log(), receiver.log(2));
    EXPECT_EQ(summaryA.lost, 0u);
    EXPECT_EQ(summaryB.lost, 0u);
    EXPECT_NEAR(summaryA.meanRttSeconds, summaryB.meanRttSeconds, 0.15);
    // Arrivals carry each node's own subscriber address.
    const auto& logA = receiver.log(1).packets;
    const auto& logB = receiver.log(2).packets;
    ASSERT_FALSE(logA.empty());
    ASSERT_FALSE(logB.empty());
}

TEST(MultiNode, OneSiteStoppingDoesNotDisturbTheOther) {
    Fleet fleet{makeUniformFleet(2)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    UmtsNodeSite& second = fleet.umtsSite(1);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(second.startUmts().ok());
    ASSERT_TRUE(napoli.stopUmts().ok());
    EXPECT_EQ(fleet.operatorNetwork().activeSessions(), 1u);
    // The surviving site still has a working connection.
    EXPECT_NE(second.node().stack().findInterface("ppp0"), nullptr);
    EXPECT_TRUE(second.backend().state().connected);
    // And its slice can still emit traffic through it.
    auto socket = second.node().openSliceUdp(second.umtsSlice()).value();
    socket->bindAddress(second.node().stack().findInterface("ppp0")->address());
    EXPECT_TRUE(socket->sendTo(fleet.wiredSite(0).address(), 9001, util::Bytes{1}).ok());
    EXPECT_EQ(second.node().stack().findInterface("ppp0")->counters().txPackets, 1u);
}

}  // namespace
}  // namespace onelab::scenario
