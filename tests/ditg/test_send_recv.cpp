#include <gtest/gtest.h>

#include <tuple>

#include "ditg/decoder.hpp"
#include "ditg/receiver.hpp"
#include "ditg/sender.hpp"
#include "net/internet.hpp"

namespace onelab::ditg {
namespace {

using sim::seconds;

/// Sender and receiver hosts joined by a clean wired Internet.
struct SendRecvTest : ::testing::Test {
    SendRecvTest() : internet(sim, util::RandomStream{11}) {
        sender = makeHost("tx", net::Ipv4Address{10, 0, 0, 1});
        receiver = makeHost("rx", net::Ipv4Address{10, 0, 0, 2});
    }

    net::NetworkStack* makeHost(const std::string& name, net::Ipv4Address addr) {
        hosts.push_back(std::make_unique<net::NetworkStack>(sim, name));
        net::NetworkStack& host = *hosts.back();
        net::Interface& eth = host.addInterface("eth0");
        eth.setAddress(addr);
        eth.setUp(true);
        internet.attach(eth, net::AccessLink{});
        host.router().table(net::PolicyRouter::kMainTable)
            .addRoute({net::Prefix::any(), "eth0", std::nullopt, 0});
        return &host;
    }

    sim::Simulator sim;
    net::Internet internet;
    std::vector<std::unique_ptr<net::NetworkStack>> hosts;
    net::NetworkStack* sender = nullptr;
    net::NetworkStack* receiver = nullptr;
};

TEST_F(SendRecvTest, CbrFlowDeliversAllPackets) {
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv recv{*rxSocket};
    auto txSocket = sender->openUdp(0).value();
    ItgSend send{sim, *txSocket, cbrFlow(1, 100.0, 200, 2.0), net::Ipv4Address{10, 0, 0, 2},
                 9001, util::RandomStream{1}};
    bool completed = false;
    send.start([&] { completed = true; });
    sim.runUntil(seconds(4.0));

    EXPECT_TRUE(completed);
    EXPECT_TRUE(send.finished());
    // 2 s at 100 pkt/s: the first packet goes at t=0, the last before 2 s.
    EXPECT_EQ(send.packetsSent(), 200u);
    EXPECT_EQ(send.sendErrors(), 0u);
    EXPECT_EQ(recv.packetsReceived(), 200u);
    EXPECT_EQ(recv.log(1).packets.size(), 200u);
    EXPECT_EQ(recv.acksSent(), 200u);
    EXPECT_EQ(send.log().rtts.size(), 200u);
}

TEST_F(SendRecvTest, PayloadSizesHonoured) {
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv recv{*rxSocket};
    auto txSocket = sender->openUdp(0).value();
    ItgSend send{sim, *txSocket, cbrFlow(1, 50.0, 512, 1.0), net::Ipv4Address{10, 0, 0, 2},
                 9001, util::RandomStream{1}};
    send.start();
    sim.runUntil(seconds(2.0));
    for (const RxRecord& rx : recv.log(1).packets) EXPECT_EQ(rx.payloadBytes, 512u);
}

TEST_F(SendRecvTest, RttMeasuredViaAcks) {
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv recv{*rxSocket};
    auto txSocket = sender->openUdp(0).value();
    ItgSend send{sim, *txSocket, cbrFlow(1, 20.0, 100, 1.0), net::Ipv4Address{10, 0, 0, 2},
                 9001, util::RandomStream{1}};
    send.start();
    sim.runUntil(seconds(3.0));
    ASSERT_FALSE(send.log().rtts.empty());
    for (const RttRecord& rtt : send.log().rtts) {
        // Round trip over two ~5.2 ms access paths.
        EXPECT_GT(sim::toMillis(rtt.rtt), 5.0);
        EXPECT_LT(sim::toMillis(rtt.rtt), 50.0);
    }
}

TEST_F(SendRecvTest, ReceiverWithoutAcksSendsNone) {
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv recv{*rxSocket, /*sendAcks=*/false};
    auto txSocket = sender->openUdp(0).value();
    ItgSend send{sim, *txSocket, cbrFlow(1, 50.0, 100, 1.0), net::Ipv4Address{10, 0, 0, 2},
                 9001, util::RandomStream{1}};
    send.start();
    sim.runUntil(seconds(3.0));
    EXPECT_EQ(recv.acksSent(), 0u);
    EXPECT_TRUE(send.log().rtts.empty());
    EXPECT_GT(recv.packetsReceived(), 0u);
}

TEST_F(SendRecvTest, VariablePacketSizesAndIdt) {
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv recv{*rxSocket};
    auto txSocket = sender->openUdp(0).value();
    FlowSpec spec;
    spec.name = "exp-uniform";
    spec.flowId = 4;
    spec.idtSeconds = util::exponentialVariable(0.01);
    spec.payloadBytes = util::uniformVariable(64, 512);
    spec.durationSeconds = 3.0;
    ItgSend send{sim, *txSocket, std::move(spec), net::Ipv4Address{10, 0, 0, 2},
                 9001, util::RandomStream{5}};
    send.start();
    sim.runUntil(seconds(5.0));
    // Roughly 300 packets expected; allow generous slack.
    EXPECT_GT(send.packetsSent(), 150u);
    EXPECT_LT(send.packetsSent(), 600u);
    // Sizes vary within bounds.
    std::size_t minSize = 10000, maxSize = 0;
    for (const RxRecord& rx : recv.log(4).packets) {
        minSize = std::min(minSize, rx.payloadBytes);
        maxSize = std::max(maxSize, rx.payloadBytes);
    }
    EXPECT_GE(minSize, 17u);
    EXPECT_LE(maxSize, 512u);
    EXPECT_NE(minSize, maxSize);
}

TEST_F(SendRecvTest, TwoFlowsKeepSeparateLogs) {
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv recv{*rxSocket};
    auto txSocket1 = sender->openUdp(0).value();
    auto txSocket2 = sender->openUdp(0).value();
    ItgSend flow1{sim, *txSocket1, cbrFlow(1, 50.0, 100, 1.0), net::Ipv4Address{10, 0, 0, 2},
                  9001, util::RandomStream{1}};
    ItgSend flow2{sim, *txSocket2, cbrFlow(2, 25.0, 300, 1.0), net::Ipv4Address{10, 0, 0, 2},
                  9001, util::RandomStream{2}};
    flow1.start();
    flow2.start();
    sim.runUntil(seconds(3.0));
    EXPECT_EQ(recv.log(1).packets.size(), flow1.packetsSent());
    EXPECT_EQ(recv.log(2).packets.size(), flow2.packetsSent());
    for (const RxRecord& rx : recv.log(2).packets) EXPECT_EQ(rx.payloadBytes, 300u);
}

TEST_F(SendRecvTest, StartOffsetDelaysFlow) {
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv recv{*rxSocket};
    auto txSocket = sender->openUdp(0).value();
    FlowSpec spec = cbrFlow(1, 100.0, 100, 1.0);
    spec.startOffsetSeconds = 2.0;
    ItgSend send{sim, *txSocket, std::move(spec), net::Ipv4Address{10, 0, 0, 2},
                 9001, util::RandomStream{1}};
    send.start();
    sim.runUntil(seconds(1.5));
    EXPECT_EQ(send.packetsSent(), 0u);
    sim.runUntil(seconds(5.0));
    EXPECT_GT(send.packetsSent(), 0u);
    ASSERT_FALSE(send.log().packets.empty());
    EXPECT_GE(send.log().packets.front().txTime, seconds(2.0));
}

TEST_F(SendRecvTest, EndToEndDecodeMatchesExpectations) {
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv recv{*rxSocket};
    auto txSocket = sender->openUdp(0).value();
    // 400 kbps CBR over a clean 100 Mbps path: all delivered.
    ItgSend send{sim, *txSocket, cbrFlow(1, 100.0, 500, 4.0), net::Ipv4Address{10, 0, 0, 2},
                 9001, util::RandomStream{1}};
    send.start();
    sim.runUntil(seconds(6.0));
    const QosSummary summary = ItgDec::summarize(send.log(), recv.log(1));
    EXPECT_EQ(summary.lost, 0u);
    EXPECT_NEAR(summary.meanBitrateKbps, 400.0, 40.0);
    EXPECT_LT(summary.meanJitterSeconds, 0.001);
}

// --- the same flows over TCP (D-ITG's -T TCP) ---

/// The UDP fixture plus a TcpHost on each host (as NodeOs::tcp() would
/// provide on a node).
struct TcpSendRecvTest : SendRecvTest {
    std::unique_ptr<net::TcpHost> senderTcp =
        std::make_unique<net::TcpHost>(sim, *sender, util::RandomStream{21});
    std::unique_ptr<net::TcpHost> receiverTcp =
        std::make_unique<net::TcpHost>(sim, *receiver, util::RandomStream{22});
};

TEST_F(TcpSendRecvTest, CbrFlowDeliversEveryProbe) {
    ItgRecv recv{sim, *receiverTcp, 9002};
    ItgSend send{sim, *senderTcp, cbrFlow(1, 100.0, 200, 2.0), net::Ipv4Address{10, 0, 0, 2},
                 9002, util::RandomStream{1}};
    bool completed = false;
    send.start([&] { completed = true; });
    sim.runUntil(seconds(8.0));

    EXPECT_TRUE(completed);
    EXPECT_TRUE(send.finished());
    EXPECT_EQ(send.packetsSent(), 200u);
    EXPECT_EQ(send.sendErrors(), 0u);
    // TCP never loses probes on a clean path: exactly-once, in order.
    EXPECT_EQ(recv.packetsReceived(), 200u);
    ASSERT_EQ(recv.log(1).packets.size(), 200u);
    for (std::size_t i = 0; i < 200; ++i)
        EXPECT_EQ(recv.log(1).packets[i].sequence, std::uint32_t(i));
    EXPECT_EQ(recv.acksSent(), 200u);
    EXPECT_EQ(send.log().rtts.size(), 200u);
    EXPECT_EQ(recv.connectionsAccepted(), 1u);
}

TEST_F(TcpSendRecvTest, LogsCarryTheTcpTransportTag) {
    ItgRecv recv{sim, *receiverTcp, 9002};
    ItgSend send{sim, *senderTcp, cbrFlow(3, 50.0, 128, 1.0), net::Ipv4Address{10, 0, 0, 2},
                 9002, util::RandomStream{2}};
    send.start();
    sim.runUntil(seconds(5.0));
    EXPECT_EQ(send.log().transport, FlowTransport::tcp);
    EXPECT_EQ(recv.log(3).transport, FlowTransport::tcp);
    const QosSummary summary = ItgDec::summarize(send.log(), recv.log(3));
    EXPECT_EQ(summary.lost, 0u);
}

TEST_F(TcpSendRecvTest, ConnectionClosesAfterFlowEnds) {
    ItgRecv recv{sim, *receiverTcp, 9002};
    ItgSend send{sim, *senderTcp, cbrFlow(1, 50.0, 200, 1.0), net::Ipv4Address{10, 0, 0, 2},
                 9002, util::RandomStream{3}};
    send.start();
    sim.runUntil(seconds(10.0));
    ASSERT_NE(send.connection(), nullptr);
    // The sender's close handshake has fully run; after TIME-WAIT both
    // hosts can reap, leaving clean connection tables for a next wave.
    EXPECT_EQ(send.connection()->state(), net::TcpState::closed);
    EXPECT_EQ(senderTcp->reapClosed(), 1u);
    EXPECT_EQ(receiverTcp->reapClosed(), 1u);
    EXPECT_EQ(senderTcp->connectionCount(), 0u);
    EXPECT_EQ(receiverTcp->connectionCount(), 0u);
}

TEST_F(TcpSendRecvTest, ReceiverWithoutAcksSendsNone) {
    ItgRecv recv{sim, *receiverTcp, 9002, /*sendAcks=*/false};
    ItgSend send{sim, *senderTcp, cbrFlow(1, 50.0, 100, 1.0), net::Ipv4Address{10, 0, 0, 2},
                 9002, util::RandomStream{4}};
    send.start();
    sim.runUntil(seconds(5.0));
    EXPECT_EQ(recv.acksSent(), 0u);
    EXPECT_TRUE(send.log().rtts.empty());
    EXPECT_GT(recv.packetsReceived(), 0u);
}

TEST_F(TcpSendRecvTest, TwoFlowsOnOnePortKeepSeparateLogs) {
    ItgRecv recv{sim, *receiverTcp, 9002};
    ItgSend flow1{sim, *senderTcp, cbrFlow(1, 50.0, 100, 1.0), net::Ipv4Address{10, 0, 0, 2},
                  9002, util::RandomStream{1}};
    ItgSend flow2{sim, *senderTcp, cbrFlow(2, 25.0, 300, 1.0), net::Ipv4Address{10, 0, 0, 2},
                  9002, util::RandomStream{2}};
    flow1.start();
    flow2.start();
    sim.runUntil(seconds(6.0));
    EXPECT_EQ(recv.connectionsAccepted(), 2u);
    EXPECT_EQ(recv.log(1).packets.size(), flow1.packetsSent());
    EXPECT_EQ(recv.log(2).packets.size(), flow2.packetsSent());
    for (const RxRecord& rx : recv.log(2).packets) EXPECT_EQ(rx.payloadBytes, 300u);
}

TEST_F(TcpSendRecvTest, ConnectFailureCountsSendErrorsNotProbes) {
    // Nobody listens on 9002: the SYN draws an RST and the flow never
    // establishes. The sender reports errors rather than silently
    // logging probes that never hit the wire.
    ItgSend send{sim, *senderTcp, cbrFlow(1, 50.0, 100, 1.0), net::Ipv4Address{10, 0, 0, 2},
                 9002, util::RandomStream{5}};
    bool completed = false;
    send.start([&] { completed = true; });
    sim.runUntil(seconds(10.0));
    EXPECT_EQ(send.packetsSent(), 0u);
    EXPECT_TRUE(send.log().packets.empty());
}

TEST_F(TcpSendRecvTest, EndToEndDecodeMatchesExpectations) {
    ItgRecv recv{sim, *receiverTcp, 9002};
    // 400 kbps CBR over a clean 100 Mbps path: all delivered, tiny OWD.
    ItgSend send{sim, *senderTcp, cbrFlow(1, 100.0, 500, 4.0), net::Ipv4Address{10, 0, 0, 2},
                 9002, util::RandomStream{1}};
    send.start();
    sim.runUntil(seconds(10.0));
    const QosSummary summary = ItgDec::summarize(send.log(), recv.log(1));
    EXPECT_EQ(summary.lost, 0u);
    EXPECT_NEAR(summary.meanBitrateKbps, 400.0, 40.0);
    EXPECT_LT(summary.meanJitterSeconds, 0.001);
}

TEST_F(TcpSendRecvTest, UdpAndTcpDrawTheSameSchedule) {
    // One flow, one seed, either transport: the payload draw precedes
    // the IDT draw on both paths, so the departures match probe for
    // probe. Only the start differs (TCP waits for its handshake).
    auto rxSocket = receiver->openUdp(0, 9001).value();
    ItgRecv udpRecv{*rxSocket};
    ItgRecv tcpRecv{sim, *receiverTcp, 9002};
    auto txSocket = sender->openUdp(0).value();
    ItgSend udp{sim, *txSocket, telnetFlow(1, 20.0), net::Ipv4Address{10, 0, 0, 2},
                9001, util::RandomStream{8}};
    ItgSend tcp{sim, *senderTcp, telnetFlow(1, 20.0), net::Ipv4Address{10, 0, 0, 2},
                9002, util::RandomStream{8}};
    udp.start();
    tcp.start();
    sim.runUntil(seconds(30.0));
    ASSERT_TRUE(udp.finished());
    ASSERT_TRUE(tcp.finished());

    using Departure = std::tuple<std::uint32_t, std::size_t, sim::SimTime>;
    const auto departures = [](const SenderLog& log) {
        std::vector<Departure> out;
        for (const TxRecord& tx : log.packets)
            out.emplace_back(tx.sequence, tx.payloadBytes, tx.txTime - log.packets.front().txTime);
        return out;
    };
    ASSERT_GT(udp.log().packets.size(), 40u);
    EXPECT_EQ(departures(udp.log()), departures(tcp.log()));
    EXPECT_NE(udp.log().packets.front().txTime, tcp.log().packets.front().txTime);
}

// --- lifetime: flows and a dead receiver/sender must not dangle ---

TEST_F(TcpSendRecvTest, ReceiverDestroyedMidFlowAbortsItsConnections) {
    // A receiver torn down while a peer is still streaming (the chaos
    // soak does this when a wave ends under injected faults) must
    // leave nothing pointing back into freed state: late segments
    // used to land in the destroyed receiver's ProbeStream.
    auto recv = std::make_unique<ItgRecv>(sim, *receiverTcp, 9002);
    ItgSend send{sim, *senderTcp, cbrFlow(1, 100.0, 200, 5.0), net::Ipv4Address{10, 0, 0, 2},
                 9002, util::RandomStream{5}};
    send.start();
    sim.runUntil(seconds(1.0));  // established, probes flowing
    ASSERT_EQ(recv->connectionsAccepted(), 1u);
    recv.reset();
    // The sender keeps emitting into the teardown; the abort's RST
    // must finish its connection instead of feeding freed memory.
    sim.runUntil(seconds(10.0));
    ASSERT_NE(send.connection(), nullptr);
    EXPECT_EQ(send.connection()->state(), net::TcpState::closed);
    EXPECT_EQ(receiverTcp->reapClosed(), 1u);
    EXPECT_EQ(receiverTcp->connectionCount(), 0u);
}

TEST_F(TcpSendRecvTest, SenderDestroyedMidFlowLeavesNoLiveTimers) {
    ItgRecv recv{sim, *receiverTcp, 9002};
    auto send = std::make_unique<ItgSend>(sim, *senderTcp, cbrFlow(2, 100.0, 200, 5.0),
                                          net::Ipv4Address{10, 0, 0, 2}, 9002,
                                          util::RandomStream{6});
    send->start();
    sim.runUntil(seconds(1.0));  // mid-flow: probe timer pending
    send.reset();
    // The pending emit timer is cancelled and the connection's
    // callbacks fire against the liveness token, not the freed sender.
    sim.runUntil(seconds(10.0));
    SUCCEED();
}

TEST_F(TcpSendRecvTest, SenderDestroyedBeforeConnectEstablishes) {
    ItgRecv recv{sim, *receiverTcp, 9002};
    auto send = std::make_unique<ItgSend>(sim, *senderTcp, cbrFlow(3, 100.0, 200, 5.0),
                                          net::Ipv4Address{10, 0, 0, 2}, 9002,
                                          util::RandomStream{7});
    send->start();
    send.reset();  // SYN in flight; onConnected fires after death
    sim.runUntil(seconds(10.0));
    SUCCEED();
}

}  // namespace
}  // namespace onelab::ditg
