#include "net/internet.hpp"

#include <gtest/gtest.h>

#include "net/stack.hpp"
#include "obs/registry.hpp"
#include "obs/run_context.hpp"

namespace onelab::net {
namespace {

struct InternetTest : ::testing::Test {
    InternetTest() : internet(sim, util::RandomStream{7}) {}

    NetworkStack& makeHost(const std::string& name, Ipv4Address addr,
                           AccessLink link = AccessLink{}) {
        hosts.push_back(std::make_unique<NetworkStack>(sim, name));
        NetworkStack& host = *hosts.back();
        Interface& eth = host.addInterface("eth0");
        eth.setAddress(addr);
        eth.setUp(true);
        internet.attach(eth, link);
        host.router().table(PolicyRouter::kMainTable)
            .addRoute({Prefix::any(), "eth0", std::nullopt, 0});
        return host;
    }

    sim::Simulator sim;
    Internet internet;
    std::vector<std::unique_ptr<NetworkStack>> hosts;
};

TEST_F(InternetTest, DeliversBetweenAttachments) {
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1});
    NetworkStack& b = makeHost("b", Ipv4Address{10, 0, 0, 2});
    auto rx = b.openUdp(0, 9000);
    int got = 0;
    rx.value()->onReceive([&](Datagram) { ++got; });
    auto tx = a.openUdp(0);
    (void)tx.value()->sendTo(Ipv4Address{10, 0, 0, 2}, 9000, util::Bytes{1});
    sim.run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(internet.deliveredPackets(), 1u);
}

TEST_F(InternetTest, TransitDelayApplies) {
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1});
    NetworkStack& b = makeHost("b", Ipv4Address{10, 0, 0, 2});
    internet.setTransitDelay(*a.findInterface("eth0"), *b.findInterface("eth0"),
                             sim::millis(25));
    auto rx = b.openUdp(0, 9000);
    sim::SimTime arrival{};
    rx.value()->onReceive([&](Datagram d) { arrival = d.rxTime; });
    auto tx = a.openUdp(0);
    (void)tx.value()->sendTo(Ipv4Address{10, 0, 0, 2}, 9000, util::Bytes{1});
    sim.run();
    EXPECT_GE(arrival, sim::millis(25));
    EXPECT_LT(arrival, sim::millis(30));
}

TEST_F(InternetTest, UnroutableDestinationCounted) {
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1});
    auto tx = a.openUdp(0);
    (void)tx.value()->sendTo(Ipv4Address{99, 99, 99, 99}, 1, util::Bytes{1});
    sim.run();
    EXPECT_EQ(internet.unroutablePackets(), 1u);
}

TEST_F(InternetTest, AnnouncedPrefixRoutesToGateway) {
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1});
    NetworkStack& gw = makeHost("gw", Ipv4Address{93, 57, 0, 1});
    internet.announcePrefix(Prefix{Ipv4Address{93, 57, 0, 0}, 16},
                            *gw.findInterface("eth0"));
    int arrived = 0;
    gw.setSniffer([&](const Packet& pkt, const std::string&) {
        EXPECT_EQ(pkt.ip.dst, (Ipv4Address{93, 57, 0, 42}));
        ++arrived;
    });
    auto tx = a.openUdp(0);
    (void)tx.value()->sendTo(Ipv4Address{93, 57, 0, 42}, 1, util::Bytes{1});
    sim.run();
    EXPECT_EQ(arrived, 1);
}

TEST_F(InternetTest, LongestAnnouncedPrefixWins) {
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1});
    NetworkStack& coarse = makeHost("coarse", Ipv4Address{172, 16, 0, 1});
    NetworkStack& fine = makeHost("fine", Ipv4Address{172, 16, 0, 2});
    internet.announcePrefix(Prefix{Ipv4Address{93, 0, 0, 0}, 8}, *coarse.findInterface("eth0"));
    internet.announcePrefix(Prefix{Ipv4Address{93, 57, 0, 0}, 16}, *fine.findInterface("eth0"));
    int fineHits = 0;
    fine.setSniffer([&](const Packet&, const std::string&) { ++fineHits; });
    auto tx = a.openUdp(0);
    (void)tx.value()->sendTo(Ipv4Address{93, 57, 1, 1}, 1, util::Bytes{1});
    sim.run();
    EXPECT_EQ(fineHits, 1);
}

TEST_F(InternetTest, LossProbabilityDropsEverythingAtOne) {
    AccessLink lossy;
    lossy.lossProbability = 1.0;
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1}, lossy);
    makeHost("b", Ipv4Address{10, 0, 0, 2});
    auto tx = a.openUdp(0);
    for (int i = 0; i < 10; ++i)
        (void)tx.value()->sendTo(Ipv4Address{10, 0, 0, 2}, 9000, util::Bytes{1});
    sim.run();
    EXPECT_EQ(internet.lostPackets(), 10u);
    EXPECT_EQ(internet.deliveredPackets(), 0u);
}

TEST_F(InternetTest, FifoOrderDespiteJitter) {
    AccessLink jittery;
    jittery.jitterStddevMillis = 5.0;
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1}, jittery);
    NetworkStack& b = makeHost("b", Ipv4Address{10, 0, 0, 2});
    auto rx = b.openUdp(0, 9000);
    std::vector<std::uint8_t> order;
    rx.value()->onReceive([&](Datagram d) { order.push_back(d.payload.at(0)); });
    auto tx = a.openUdp(0);
    for (std::uint8_t i = 0; i < 50; ++i) {
        (void)tx.value()->sendTo(Ipv4Address{10, 0, 0, 2}, 9000, util::Bytes{i});
        sim.runUntil(sim.now() + sim::micros(100));
    }
    sim.run();
    ASSERT_EQ(order.size(), 50u);
    for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(InternetTest, EgressQueueLimitsDropTail) {
    AccessLink slow;
    slow.rateBitsPerSecond = 8000.0;  // 1 kB/s
    slow.queueBytes = 300;
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1}, slow);
    NetworkStack& b = makeHost("b", Ipv4Address{10, 0, 0, 2});
    auto rx = b.openUdp(0, 9000);
    int got = 0;
    rx.value()->onReceive([&](Datagram) { ++got; });
    auto tx = a.openUdp(0);
    // 10 x 128-byte datagrams exceed the 300-byte egress buffer.
    for (int i = 0; i < 10; ++i)
        (void)tx.value()->sendTo(Ipv4Address{10, 0, 0, 2}, 9000, util::Bytes(100, 0));
    sim.run();
    EXPECT_GT(got, 0);
    EXPECT_LT(got, 10);
}

// The per-attachment egress (transmit) queue: a drop-tail FIFO of
// packets serialised one at a time at the access link's rate. A 100 B
// UDP payload is a 128 B packet, 128 ms on the wire at 8 kbps.
struct TxQueue : InternetTest {
    NetworkStack& sender(AccessLink link) {
        link.rateBitsPerSecond = 8000.0;  // 1 kB/s
        NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1}, link);
        NetworkStack& b = makeHost("b", Ipv4Address{10, 0, 0, 2});
        rx = b.openUdp(0, 9000).value();
        rx->onReceive([this](Datagram d) { arrivals.push_back(d.rxTime); });
        tx = a.openUdp(0).value();
        return a;
    }
    void send(std::size_t payloadBytes = 100) {
        (void)tx->sendTo(Ipv4Address{10, 0, 0, 2}, 9000, util::Bytes(payloadBytes, 0));
    }
    /// Both 200 us access links plus the default 5 ms transit.
    static sim::SimTime pathDelay() { return sim::micros(400) + sim::millis(5); }

    UdpSocket* rx = nullptr;
    UdpSocket* tx = nullptr;
    std::vector<sim::SimTime> arrivals;
    obs::Counter& dropped = obs::Registry::instance().counter("net.queue.dropped");
    obs::Counter& completed = obs::Registry::instance().counter("net.queue.completed");
    obs::Gauge& depth = obs::Registry::instance().gauge("net.queue.depth");
    const std::uint64_t droppedBefore = dropped.value();
    const std::uint64_t completedBefore = completed.value();
    const std::int64_t depthBefore = depth.value();
};

TEST_F(TxQueue, SerializesAtConfiguredRate) {
    sender(AccessLink{});
    send(472);  // a 500 B packet
    sim.run();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0], sim::millis(500) + pathDelay());
}

TEST_F(TxQueue, BackToBackItemsQueueSequentially) {
    sender(AccessLink{});
    for (int i = 0; i < 3; ++i) send();
    EXPECT_EQ(depth.value(), depthBefore + 3 * 128);
    sim.run();
    // One after another on the wire.
    ASSERT_EQ(arrivals.size(), 3u);
    for (int k = 1; k <= 3; ++k)
        EXPECT_EQ(arrivals[k - 1], sim::millis(128) * k + pathDelay());
    EXPECT_EQ(completed.value(), completedBefore + 3);
}

TEST_F(TxQueue, DropTailOnByteLimit) {
    AccessLink twoPackets;
    twoPackets.queueBytes = 2 * 128;
    sender(twoPackets);
    send();
    send();
    send();  // would exceed the limit
    EXPECT_EQ(dropped.value(), droppedBefore + 1);
    EXPECT_EQ(depth.value(), depthBefore + 2 * 128);
    sim.run();
    EXPECT_EQ(arrivals.size(), 2u);
}

TEST_F(TxQueue, BacklogDrainsAsItemsComplete) {
    AccessLink onePacket;
    onePacket.queueBytes = 128;
    sender(onePacket);
    send();
    sim.run();
    EXPECT_EQ(depth.value(), depthBefore);
    send();  // accepted again once drained
    sim.run();
    EXPECT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(dropped.value(), droppedBefore);
}

TEST_F(TxQueue, ClearDropsPendingWithoutRunningActions) {
    NetworkStack& a = sender(AccessLink{});
    send();
    send();
    internet.detach(*a.findInterface("eth0"));
    EXPECT_EQ(depth.value(), depthBefore);
    sim.run();
    EXPECT_TRUE(arrivals.empty());
    EXPECT_EQ(completed.value(), completedBefore);
}

TEST_F(TxQueue, UsableAfterClear) {
    NetworkStack& a = sender(AccessLink{});
    send();
    Interface& eth = *a.findInterface("eth0");
    internet.detach(eth);
    AccessLink slow;
    slow.rateBitsPerSecond = 8000.0;
    internet.attach(eth, slow);
    send();
    sim.run();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0], sim::millis(128) + pathDelay());
    EXPECT_EQ(depth.value(), depthBefore);
}

TEST_F(InternetTest, DetachStopsDelivery) {
    NetworkStack& a = makeHost("a", Ipv4Address{10, 0, 0, 1});
    NetworkStack& b = makeHost("b", Ipv4Address{10, 0, 0, 2});
    auto rx = b.openUdp(0, 9000);
    int got = 0;
    rx.value()->onReceive([&](Datagram) { ++got; });
    auto tx = a.openUdp(0);
    (void)tx.value()->sendTo(Ipv4Address{10, 0, 0, 2}, 9000, util::Bytes{1});
    internet.detach(*b.findInterface("eth0"));  // before delivery fires
    sim.run();
    EXPECT_EQ(got, 0);
}

TEST(InternetMetrics, QueueFamilyRegisteredBeforeAnyPacket) {
    obs::RunContext context;  // a fresh registry
    sim::Simulator simulator;
    Internet internet{simulator, util::RandomStream{1}};
    std::vector<std::string> names;
    for (const obs::MetricSample& sample : obs::Registry::instance().snapshot())
        if (sample.name.rfind("net.queue.", 0) == 0) names.push_back(sample.name);
    EXPECT_EQ(names, (std::vector<std::string>{"net.queue.completed", "net.queue.depth",
                                               "net.queue.dropped"}));
}

}  // namespace
}  // namespace onelab::net
