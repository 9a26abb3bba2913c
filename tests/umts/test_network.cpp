#include "umts/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <tuple>

#include "obs/registry.hpp"
#include "util/strings.hpp"

namespace onelab::umts {
namespace {

struct NetworkTest : ::testing::Test {
    NetworkTest()
        : internet(sim, util::RandomStream{5}),
          network(sim, internet, commercialItalianOperator(), util::RandomStream{6}) {}

    /// Attach + activate synchronously (driving the simulator).
    UmtsSession* bringUpSession(const std::string& imsi = "222880000000001") {
        bool attached = false;
        network.attachUe(imsi, [&](util::Result<void> r) { attached = r.ok(); });
        sim.runUntil(sim.now() + sim::seconds(5.0));
        EXPECT_TRUE(attached);
        UmtsSession* session = nullptr;
        network.activatePdp(imsi, network.profile().apn,
                            [&](util::Result<UmtsSession*> r) {
                                if (r.ok()) session = r.value();
                            });
        sim.runUntil(sim.now() + sim::seconds(3.0));
        return session;
    }

    sim::Simulator sim;
    net::Internet internet;
    UmtsNetwork network;
};

TEST_F(NetworkTest, AttachTakesRegistrationDelay) {
    bool done = false;
    network.attachUe("imsi-1", [&](util::Result<void> r) { done = r.ok(); });
    sim.runUntil(sim::seconds(1.0));
    EXPECT_FALSE(done);  // registration delay is 2.2 s
    EXPECT_FALSE(network.isAttached("imsi-1"));
    sim.runUntil(sim::seconds(3.0));
    EXPECT_TRUE(done);
    EXPECT_TRUE(network.isAttached("imsi-1"));
}

TEST_F(NetworkTest, AttachFailsWithoutCoverage) {
    network.setCoverage(false);
    std::optional<bool> outcome;
    network.attachUe("imsi-1", [&](util::Result<void> r) { outcome = r.ok(); });
    EXPECT_EQ(outcome, false);
    EXPECT_EQ(network.signalQuality(), 99);  // AT+CSQ "unknown"
}

TEST_F(NetworkTest, SignalQualityNearProfileValue) {
    for (int i = 0; i < 20; ++i) {
        const int csq = network.signalQuality();
        EXPECT_GE(csq, network.profile().signalQualityCsq - 2);
        EXPECT_LE(csq, network.profile().signalQualityCsq + 2);
    }
}

TEST_F(NetworkTest, PdpRequiresAttach) {
    std::optional<util::Error::Code> code;
    network.activatePdp("unknown-imsi", network.profile().apn,
                        [&](util::Result<UmtsSession*> r) {
                            if (!r.ok()) code = r.error().code;
                        });
    EXPECT_EQ(code, util::Error::Code::state);
}

TEST_F(NetworkTest, PdpRejectsWrongApn) {
    bool attached = false;
    network.attachUe("imsi-1", [&](util::Result<void> r) { attached = r.ok(); });
    sim.runUntil(sim::seconds(5.0));
    ASSERT_TRUE(attached);
    std::optional<util::Error::Code> code;
    network.activatePdp("imsi-1", "wrong.apn", [&](util::Result<UmtsSession*> r) {
        if (!r.ok()) code = r.error().code;
    });
    EXPECT_EQ(code, util::Error::Code::invalid_argument);
}

TEST_F(NetworkTest, SessionGetsPoolAddressAndGgsnRoute) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    EXPECT_TRUE(network.profile().subscriberPool.contains(session->subscriberAddress()));
    EXPECT_NE(session->subscriberAddress(), network.profile().ggsnAddress);
    EXPECT_EQ(network.activeSessions(), 1u);
    EXPECT_EQ(network.sessionAt(0), session);
    // GGSN has a host route toward the subscriber.
    const auto route = network.ggsn().router().table(net::PolicyRouter::kMainTable)
                           .lookup(session->subscriberAddress());
    ASSERT_TRUE(route.has_value());
    EXPECT_NE(route->oifName, "wan");
}

TEST_F(NetworkTest, DistinctSubscribersGetDistinctAddresses) {
    UmtsSession* a = bringUpSession("imsi-a");
    UmtsSession* b = bringUpSession("imsi-b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a->subscriberAddress(), b->subscriberAddress());
    EXPECT_EQ(network.activeSessions(), 2u);
}

TEST_F(NetworkTest, AddressReleasedOnDeactivation) {
    UmtsSession* a = bringUpSession("imsi-a");
    ASSERT_NE(a, nullptr);
    const net::Ipv4Address addr = a->subscriberAddress();
    network.deactivatePdp(a);
    EXPECT_EQ(network.activeSessions(), 0u);
    UmtsSession* b = bringUpSession("imsi-b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->subscriberAddress(), addr);  // recycled
}

TEST_F(NetworkTest, TeardownCallbackFires) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    bool torn = false;
    session->onTeardown = [&] { torn = true; };
    network.detachUe(session->imsi());  // detach drops the session too
    EXPECT_TRUE(torn);
    EXPECT_EQ(network.activeSessions(), 0u);
}

TEST_F(NetworkTest, DetachDuringRegistrationCancels) {
    bool fired = false;
    network.attachUe("imsi-1", [&](util::Result<void>) { fired = true; });
    network.detachUe("imsi-1");
    sim.runUntil(sim::seconds(5.0));
    EXPECT_FALSE(fired);
    EXPECT_FALSE(network.isAttached("imsi-1"));
}

TEST_F(NetworkTest, StatefulFirewallBlocksUnsolicitedInbound) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    // Unsolicited packet from the Internet toward the subscriber.
    net::Packet intrusion = net::makeUdpPacket(net::Ipv4Address{138, 96, 250, 20}, 22,
                                               session->subscriberAddress(), 22, {});
    network.ggsn().findInterface("wan")->deliver(std::move(intrusion));
    sim.runUntil(sim.now() + sim::seconds(1.0));
    EXPECT_EQ(network.firewallBlockedInbound(), 1u);
    EXPECT_EQ(network.ggsn().forwardedPackets(), 0u);
}

TEST_F(NetworkTest, FirewallAllowsReturnTraffic) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    // Outbound flow recorded at the GGSN's pdp-side interface...
    net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                              net::Ipv4Address{138, 96, 250, 20}, 9001, {});
    // Find the pdp interface (the non-wan one).
    net::Interface* pdp = nullptr;
    for (const std::string& name : network.ggsn().interfaceNames())
        if (name != "wan") pdp = network.ggsn().findInterface(name);
    ASSERT_NE(pdp, nullptr);
    pdp->deliver(std::move(outbound));
    EXPECT_EQ(network.ggsn().forwardedPackets(), 1u);

    // ...so the reverse packet is admitted.
    net::Packet reply = net::makeUdpPacket(net::Ipv4Address{138, 96, 250, 20}, 9001,
                                           session->subscriberAddress(), 5000, {});
    network.ggsn().findInterface("wan")->deliver(std::move(reply));
    EXPECT_EQ(network.ggsn().forwardedPackets(), 2u);
    EXPECT_EQ(network.firewallBlockedInbound(), 0u);
}

OperatorProfile natOperator() {
    OperatorProfile profile = commercialItalianOperator();
    profile.name = "nat-it";
    profile.natSubscribers = true;
    profile.subscriberPool = net::Prefix{net::Ipv4Address{10, 47, 0, 0}, 16};
    profile.ggsnAddress = net::Ipv4Address{93, 57, 0, 1};
    profile.dnsServer = net::Ipv4Address{93, 57, 0, 53};
    return profile;
}

struct NatNetworkTest : ::testing::Test {
    explicit NatNetworkTest(OperatorProfile profile = natOperator())
        : internet(sim, util::RandomStream{5}),
          network(sim, internet, std::move(profile), util::RandomStream{6}) {
        // A wired observer host.
        observerStack = std::make_unique<net::NetworkStack>(sim, "observer");
        net::Interface& eth = observerStack->addInterface("eth0");
        eth.setAddress(net::Ipv4Address{138, 96, 250, 20});
        eth.setUp(true);
        internet.attach(eth, net::AccessLink{});
        observerStack->router().table(net::PolicyRouter::kMainTable)
            .addRoute({net::Prefix::any(), "eth0", std::nullopt, 0});
    }

    UmtsSession* bringUpSession() {
        bool attached = false;
        network.attachUe("imsi-nat", [&](util::Result<void> r) { attached = r.ok(); });
        sim.runUntil(sim.now() + sim::seconds(5.0));
        EXPECT_TRUE(attached);
        UmtsSession* session = nullptr;
        network.activatePdp("imsi-nat", network.profile().apn,
                            [&](util::Result<UmtsSession*> r) {
                                if (r.ok()) session = r.value();
                            });
        sim.runUntil(sim.now() + sim::seconds(3.0));
        return session;
    }

    net::Interface* pdpInterface() {
        for (const std::string& name : network.ggsn().interfaceNames())
            if (name != "wan") return network.ggsn().findInterface(name);
        return nullptr;
    }

    sim::Simulator sim;
    net::Internet internet;
    UmtsNetwork network;
    std::unique_ptr<net::NetworkStack> observerStack;
};

TEST_F(NatNetworkTest, OutboundSourceRewrittenToGgsnAddress) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    EXPECT_TRUE((net::Prefix{net::Ipv4Address{10, 47, 0, 0}, 16})
                    .contains(session->subscriberAddress()));

    auto observer = observerStack->openUdp(0, 9001).value();
    std::optional<net::Datagram> seen;
    observer->onReceive([&](net::Datagram d) { seen = std::move(d); });

    net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                              net::Ipv4Address{138, 96, 250, 20}, 9001,
                                              util::Bytes{7});
    pdpInterface()->deliver(std::move(outbound));
    sim.runUntil(sim.now() + sim::seconds(1.0));

    ASSERT_TRUE(seen.has_value());
    // The observer sees the GGSN's public address, not the private one.
    EXPECT_EQ(seen->src, network.profile().ggsnAddress);
    EXPECT_NE(seen->srcPort, 5000);
    EXPECT_GE(seen->srcPort, 20000);
    EXPECT_EQ(network.natBindingCount(), 1u);
}

TEST_F(NatNetworkTest, ReplyTranslatedBackToSubscriber) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);

    std::optional<net::Packet> towardSubscriber;
    // Watch what the GGSN pushes down the PDP interface by sniffing
    // its pppd input: easier — watch the session's pppd via the GGSN
    // stack sniffer for packets addressed to the subscriber.
    auto observer = observerStack->openUdp(0, 9001).value();
    observer->onReceive([&](net::Datagram d) {
        // Echo straight back to whatever source we saw (the NAT addr).
        (void)observer->sendTo(d.src, d.srcPort, util::Bytes{9});
    });
    network.ggsn().setSniffer([&](const net::Packet& pkt, const std::string& iif) {
        if (iif == "wan" && pkt.ip.protocol == net::IpProto::udp) towardSubscriber = pkt;
    });

    net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                              net::Ipv4Address{138, 96, 250, 20}, 9001,
                                              util::Bytes{7});
    pdpInterface()->deliver(std::move(outbound));
    sim.runUntil(sim.now() + sim::seconds(1.0));

    // The GGSN forwarded the reply after DNAT back to the private
    // address; the sniffer sees the pre-hook packet (public), but the
    // binding must have translated twice (out + in).
    EXPECT_GE(network.natTranslations(), 2u);
    ASSERT_TRUE(towardSubscriber.has_value());
}

TEST_F(NatNetworkTest, DistinctFlowsGetDistinctPublicPorts) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    auto observer = observerStack->openUdp(0, 9001).value();
    std::vector<std::uint16_t> seenPorts;
    observer->onReceive([&](net::Datagram d) { seenPorts.push_back(d.srcPort); });
    for (std::uint16_t port : {5000, 5001, 5002}) {
        net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), port,
                                                  net::Ipv4Address{138, 96, 250, 20}, 9001,
                                                  util::Bytes{1});
        pdpInterface()->deliver(std::move(outbound));
    }
    sim.runUntil(sim.now() + sim::seconds(1.0));
    ASSERT_EQ(seenPorts.size(), 3u);
    EXPECT_NE(seenPorts[0], seenPorts[1]);
    EXPECT_NE(seenPorts[1], seenPorts[2]);
    EXPECT_EQ(network.natBindingCount(), 3u);

    // Same flow again: binding is reused.
    net::Packet again = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                           net::Ipv4Address{138, 96, 250, 20}, 9001,
                                           util::Bytes{1});
    pdpInterface()->deliver(std::move(again));
    sim.runUntil(sim.now() + sim::seconds(1.0));
    ASSERT_EQ(seenPorts.size(), 4u);
    EXPECT_EQ(seenPorts[3], seenPorts[0]);
    EXPECT_EQ(network.natBindingCount(), 3u);
}

TEST_F(NatNetworkTest, UnsolicitedInboundToPublicAddressDies) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    // No binding for this port: the packet is delivered to the GGSN
    // itself (no listener) rather than to any subscriber.
    net::Packet intrusion = net::makeUdpPacket(net::Ipv4Address{138, 96, 250, 20}, 22,
                                               network.profile().ggsnAddress, 23456, {});
    network.ggsn().findInterface("wan")->deliver(std::move(intrusion));
    sim.runUntil(sim.now() + sim::seconds(1.0));
    EXPECT_EQ(network.ggsn().forwardedPackets(), 0u);
}

/// A NAT operator tuned for binding churn: no firewall state, no
/// per-subscriber quota, and a small binding table.
OperatorProfile churnNatOperator() {
    OperatorProfile profile = natOperator();
    profile.statefulFirewall = false;
    profile.natGuard.perSubscriberQuota = 0;
    profile.natGuard.maxBindings = 64;
    return profile;
}

struct NatPortWrapTest : NatNetworkTest {
    NatPortWrapTest() : NatNetworkTest(churnNatOperator()) {}
};

TEST_F(NatPortWrapTest, PublicPortsWrapBackTo20000) {
    UmtsSession* session = bringUpSession();
    ASSERT_NE(session, nullptr);
    auto observer = observerStack->openUdp(0, 9001).value();
    std::optional<net::Datagram> seen;
    observer->onReceive([&](net::Datagram d) { seen = std::move(d); });

    // Ports 20000..65535 take 45 536 bindings; 45 600 run the allocator past 65535.
    (void)network.injectFlowChurn(net::Ipv4Address{10, 47, 0, 99},
                                  net::Ipv4Address{138, 96, 250, 21}, 0, 45600);
    EXPECT_EQ(network.natBindingCount(), 64u);

    net::Packet outbound = net::makeUdpPacket(session->subscriberAddress(), 5000,
                                              net::Ipv4Address{138, 96, 250, 20}, 9001,
                                              util::Bytes{7});
    pdpInterface()->deliver(std::move(outbound));
    sim.runUntil(sim.now() + sim::seconds(1.0));
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(seen->src, network.profile().ggsnAddress);
    EXPECT_GE(seen->srcPort, 20000);
}

TEST_F(NetworkTest, MicrocellHasNoFirewall) {
    UmtsNetwork microcell{sim, internet, alcatelLucentMicrocell(), util::RandomStream{9}};
    bool attached = false;
    microcell.attachUe("imsi-m", [&](util::Result<void> r) { attached = r.ok(); });
    sim.runUntil(sim.now() + sim::seconds(3.0));
    ASSERT_TRUE(attached);
    UmtsSession* session = nullptr;
    microcell.activatePdp("imsi-m", microcell.profile().apn,
                          [&](util::Result<UmtsSession*> r) {
                              if (r.ok()) session = r.value();
                          });
    sim.runUntil(sim.now() + sim::seconds(2.0));
    ASSERT_NE(session, nullptr);
    net::Packet intrusion = net::makeUdpPacket(net::Ipv4Address{138, 96, 250, 20}, 22,
                                               session->subscriberAddress(), 22, {});
    microcell.ggsn().findInterface("wan")->deliver(std::move(intrusion));
    EXPECT_EQ(microcell.firewallBlockedInbound(), 0u);
    EXPECT_EQ(microcell.ggsn().forwardedPackets(), 1u);
}

// --- trust-boundary guards: attach storm + flow-state churn ---

std::uint64_t guardCounter(const char* name) {
    return obs::Registry::instance().counter(name).value();
}

TEST(SignalingGuard, BarringCapsAttachBacklog) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.signalingGuard.barringLimit = 8;
    profile.signalingGuard.congestionStart = 4;
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    const std::uint64_t throttledBefore = guardCounter("guard.umts.attach_throttled");
    const std::uint64_t delayedBefore = guardCounter("guard.umts.attach_delayed");
    int admitted = 0;
    int barred = 0;
    for (int i = 0; i < 20; ++i) {
        network.attachUe("storm-" + std::to_string(i), [&](util::Result<void> r) {
            if (r.ok())
                ++admitted;
            else if (r.error().code == util::Error::Code::busy)
                ++barred;
        });
    }
    // The backlog never exceeds the barring limit; the 12 over-limit
    // attaches were answered busy immediately.
    EXPECT_EQ(network.attachBacklog(), 8u);
    EXPECT_EQ(barred, 12);
    EXPECT_EQ(guardCounter("guard.umts.attach_throttled"), throttledBefore + 12);
    // Congestion physics slowed the late admits (backlog >= 4).
    EXPECT_GT(guardCounter("guard.umts.attach_delayed"), delayedBefore);
    // Every admitted registration completes once the delays elapse.
    sim.runUntil(sim.now() + sim::seconds(60.0));
    EXPECT_EQ(admitted, 8);
    EXPECT_EQ(network.attachBacklog(), 0u);
}

TEST(SignalingGuard, DisabledBarringAdmitsUnboundedBacklog) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.signalingGuard.enabled = false;
    profile.signalingGuard.barringLimit = 8;
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    int barred = 0;
    for (int i = 0; i < 20; ++i) {
        network.attachUe("storm-" + std::to_string(i),
                         [&](util::Result<void> r) { barred += r.ok() ? 0 : 1; });
    }
    // No barring: the whole storm is in flight at once (this is the
    // unguarded failure mode the adversary bench measures); the
    // congestion slowdown still applies — it is physics, not policy.
    EXPECT_EQ(network.attachBacklog(), 20u);
    EXPECT_EQ(barred, 0);
}

TEST(NatGuardFlows, PerSubscriberQuotaBoundsChurnState) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.natGuard.perSubscriberQuota = 10;
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    const net::Ipv4Address sprayer{10, 47, 0, 99};
    const net::Ipv4Address dest{138, 96, 250, 20};
    const std::uint64_t deniedBefore = guardCounter("guard.firewall.quota_denied");
    const std::size_t recorded = network.injectFlowChurn(sprayer, dest, 30000, 100);
    EXPECT_EQ(recorded, 10u);
    EXPECT_EQ(network.firewallFlowCount(), 10u);
    EXPECT_EQ(guardCounter("guard.firewall.quota_denied"), deniedBefore + 90);
}

TEST(NatGuardFlows, QuotaKeepsChurnFromEvictingVictimState) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.natGuard.maxFirewallFlows = 64;
    profile.natGuard.perSubscriberQuota = 32;
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    const net::Ipv4Address victim{10, 47, 0, 16};
    const net::Ipv4Address sprayer{10, 47, 0, 99};
    const net::Ipv4Address dest{138, 96, 250, 20};
    ASSERT_EQ(network.injectFlowChurn(victim, dest, 5000, 1), 1u);
    ASSERT_TRUE(network.hasFlowStateFor(victim));
    // A 500-flow spray hits the sprayer's own quota long before the
    // table cap, so the victim's single return-path entry survives.
    (void)network.injectFlowChurn(sprayer, dest, 30000, 500);
    EXPECT_TRUE(network.hasFlowStateFor(victim));
    EXPECT_LE(network.firewallFlowCount(), 33u);
}

TEST(NatGuardFlows, UnlimitedQuotaLetsChurnEvictVictim) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    OperatorProfile profile = commercialItalianOperator();
    profile.natGuard.maxFirewallFlows = 16;
    profile.natGuard.perSubscriberQuota = 0;  // guard off
    UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};

    const net::Ipv4Address victim{10, 47, 0, 16};
    const net::Ipv4Address sprayer{10, 47, 0, 99};
    const net::Ipv4Address dest{138, 96, 250, 20};
    ASSERT_EQ(network.injectFlowChurn(victim, dest, 5000, 1), 1u);
    const std::uint64_t evictedBefore = guardCounter("guard.firewall.evicted");
    (void)network.injectFlowChurn(sprayer, dest, 30000, 200);
    // With the quota off the spray churns the whole bounded table —
    // the victim's entry is evicted (the attack the quota exists for).
    EXPECT_FALSE(network.hasFlowStateFor(victim));
    EXPECT_LE(network.firewallFlowCount(), 16u);
    EXPECT_GT(guardCounter("guard.firewall.evicted"), evictedBefore);
}

// --- idle-order eviction: firewall flow table and NAT binding table ---

/// `profile` with both tables capped at `cap` and the per-subscriber
/// quota off.
OperatorProfile capped(OperatorProfile profile, std::size_t cap) {
    profile.natGuard.maxFirewallFlows = cap;
    profile.natGuard.maxBindings = cap;
    profile.natGuard.perSubscriberQuota = 0;
    return profile;
}

/// An operator network driven through the churn hook by subscribers
/// 10.47.0.<host>, each holding at most one flow (UDP 5000 ->
/// 138.96.250.20:33001 after the hook's port rotation).
struct ChurnedOperator {
    explicit ChurnedOperator(OperatorProfile profile)
        : internet(sim, util::RandomStream{5}),
          network(sim, internet, std::move(profile), util::RandomStream{6}) {}

    static net::Ipv4Address subscriber(int host) {
        return net::Ipv4Address{10, 47, 0, std::uint8_t(host)};
    }
    /// Send subscriber `host`'s flow (new or refresh) at `seconds`.
    void flowAt(double seconds, int host) {
        sim.runUntil(sim::seconds(seconds));
        (void)network.injectFlowChurn(subscriber(host), net::Ipv4Address{138, 96, 250, 20},
                                      5000 - 1024, 1);
    }
    [[nodiscard]] bool holds(int host) const { return network.hasFlowStateFor(subscriber(host)); }

    sim::Simulator sim;
    net::Internet internet;
    UmtsNetwork network;
};

TEST(FirewallEviction, NewFlowAtCapEvictsLeastRecentlyActive) {
    ChurnedOperator fw{capped(commercialItalianOperator(), 4)};
    // Activity order is the reverse of key order: host 4 idles longest.
    for (int host = 4; host >= 1; --host) fw.flowAt(5 - host, host);
    ASSERT_EQ(fw.network.firewallFlowCount(), 4u);
    const std::uint64_t evictedBefore = guardCounter("guard.firewall.evicted");
    fw.flowAt(5, 5);
    EXPECT_FALSE(fw.holds(4));
    for (int host : {1, 2, 3, 5}) EXPECT_TRUE(fw.holds(host)) << host;
    EXPECT_EQ(fw.network.firewallFlowCount(), 4u);
    EXPECT_EQ(guardCounter("guard.firewall.evicted"), evictedBefore + 1);
}

TEST(FirewallEviction, RefreshMovesFlowToTheBack) {
    ChurnedOperator fw{capped(commercialItalianOperator(), 4)};
    for (int host = 1; host <= 4; ++host) fw.flowAt(host, host);
    const std::uint64_t evictedBefore = guardCounter("guard.firewall.evicted");
    fw.flowAt(5, 1);  // refresh: no new entry, nothing evicted
    EXPECT_EQ(fw.network.firewallFlowCount(), 4u);
    EXPECT_EQ(guardCounter("guard.firewall.evicted"), evictedBefore);
    fw.flowAt(6, 5);
    EXPECT_TRUE(fw.holds(1));
    EXPECT_FALSE(fw.holds(2));
    fw.flowAt(7, 6);
    EXPECT_TRUE(fw.holds(1));
    EXPECT_FALSE(fw.holds(3));
    EXPECT_TRUE(fw.holds(4));
    EXPECT_EQ(guardCounter("guard.firewall.evicted"), evictedBefore + 2);
}

TEST(FirewallEviction, TimestampTieEvictsFirstKey) {
    ChurnedOperator fw{capped(commercialItalianOperator(), 4)};
    // Hosts 4, 3, 2 tie at t=1 (inserted against key order); host 1,
    // the first key overall, is younger and must survive.
    for (int host : {4, 3, 2}) fw.flowAt(1, host);
    fw.flowAt(2, 1);
    fw.flowAt(2, 5);
    EXPECT_FALSE(fw.holds(2));
    for (int host : {1, 3, 4, 5}) EXPECT_TRUE(fw.holds(host)) << host;
    fw.flowAt(2, 6);
    EXPECT_FALSE(fw.holds(3));
    EXPECT_TRUE(fw.holds(4));
}

TEST(FirewallEviction, ExpiredFlowsPurgedBeforeLiveEviction) {
    ChurnedOperator fw{capped(commercialItalianOperator(), 4)};
    fw.flowAt(10, 1);
    fw.flowAt(11, 2);
    fw.flowAt(200, 3);
    fw.flowAt(200, 4);
    const std::uint64_t evictedBefore = guardCounter("guard.firewall.evicted");
    // At t=311 host 1 has idled 301 s (> 300 s: expired); host 2 has
    // idled exactly 300 s and is still live.
    fw.flowAt(311, 5);
    EXPECT_FALSE(fw.holds(1));
    for (int host : {2, 3, 4, 5}) EXPECT_TRUE(fw.holds(host)) << host;
    EXPECT_EQ(fw.network.firewallFlowCount(), 4u);
    fw.flowAt(400, 3);  // refresh host 3
    // At t=600 hosts 2 (idle 589 s) and 4 (idle 400 s) have expired;
    // hosts 3 (200 s) and 5 (289 s) are live and stay.
    fw.flowAt(600, 6);
    EXPECT_FALSE(fw.holds(2));
    EXPECT_FALSE(fw.holds(4));
    for (int host : {3, 5, 6}) EXPECT_TRUE(fw.holds(host)) << host;
    EXPECT_EQ(fw.network.firewallFlowCount(), 3u);
    // Purges are not evictions.
    EXPECT_EQ(guardCounter("guard.firewall.evicted"), evictedBefore);
}

TEST(NatEviction, OldestIdleBindingEvictedAtCap) {
    ChurnedOperator nat{capped(natOperator(), 3)};
    for (int host : {3, 2, 1}) nat.flowAt(4 - host, host);
    ASSERT_EQ(nat.network.natBindingCount(), 3u);
    ASSERT_EQ(nat.network.natEvictions(), 0u);
    nat.flowAt(4, 4);  // evicts host 3 (idle since t=1)
    EXPECT_EQ(nat.network.natEvictions(), 1u);
    nat.flowAt(5, 2);  // refresh: still bound
    EXPECT_EQ(nat.network.natEvictions(), 1u);
    nat.flowAt(6, 3);  // rebinds; evicts host 1 (t=3), not host 2 (t=5)
    EXPECT_EQ(nat.network.natEvictions(), 2u);
    for (int host : {4, 2, 3}) {
        nat.flowAt(7, host);  // all three still bound
        EXPECT_EQ(nat.network.natEvictions(), 2u) << host;
    }
    nat.flowAt(8, 1);
    EXPECT_EQ(nat.network.natEvictions(), 3u);
    EXPECT_EQ(nat.network.natBindingCount(), 3u);
}

TEST(NatEviction, IdleBindingsExpireAfterBindingTimeout) {
    OperatorProfile profile = natOperator();
    profile.natGuard.bindingTimeout = sim::seconds(60.0);
    ChurnedOperator nat{profile};
    const std::uint64_t expiredBefore = guardCounter("guard.nat.expired");
    nat.flowAt(10, 1);
    nat.flowAt(40, 2);
    nat.flowAt(70, 3);  // host 1 idle exactly 60 s: not yet expired
    EXPECT_EQ(nat.network.natBindingCount(), 3u);
    EXPECT_EQ(guardCounter("guard.nat.expired"), expiredBefore);
    nat.flowAt(71, 4);  // host 1 idle 61 s: expired
    EXPECT_EQ(nat.network.natBindingCount(), 3u);
    EXPECT_EQ(guardCounter("guard.nat.expired"), expiredBefore + 1);
    nat.flowAt(100, 2);  // refresh keeps host 2 alive
    nat.flowAt(135, 5);  // hosts 3 and 4 expire; host 2 (idle 35 s) stays
    EXPECT_EQ(nat.network.natBindingCount(), 2u);
    EXPECT_EQ(guardCounter("guard.nat.expired"), expiredBefore + 3);
    EXPECT_EQ(nat.network.natEvictions(), 0u);
}

/// The flow table as a full scan keeps it: the expired purge and then
/// the oldest-entry search walk every entry in key order, and strict
/// `<` keeps the first key on a timestamp tie.
class ScanFlowTable {
  public:
    ScanFlowTable(std::size_t cap, sim::SimTime timeout) : cap_(cap), timeout_(timeout) {}

    void record(const std::string& key, std::uint32_t src, sim::SimTime now) {
        const auto existing = flows_.find(key);
        if (existing != flows_.end()) {
            existing->second.last = now;
            return;
        }
        if (flows_.size() >= cap_) {
            for (auto it = flows_.begin(); it != flows_.end();) {
                if (now - it->second.last > timeout_) {
                    ++purged_;
                    erase(it++);
                } else {
                    ++it;
                }
            }
            while (flows_.size() >= cap_) {
                auto oldest = flows_.begin();
                for (auto it = flows_.begin(); it != flows_.end(); ++it)
                    if (it->second.last < oldest->second.last) oldest = it;
                ++evictions_;
                if (std::count_if(flows_.begin(), flows_.end(), [&](const auto& flow) {
                        return flow.second.last == oldest->second.last;
                    }) > 1)
                    ++tiedEvictions_;
                erase(oldest);
            }
        }
        flows_.emplace(key, Entry{now, src});
        ++bySrc_[src];
    }

    [[nodiscard]] bool holds(std::uint32_t src) const { return bySrc_.count(src) > 0; }
    [[nodiscard]] std::size_t size() const { return flows_.size(); }
    [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
    [[nodiscard]] std::uint64_t tiedEvictions() const { return tiedEvictions_; }
    [[nodiscard]] std::uint64_t purged() const { return purged_; }
    /// The `index`-th key in key order (index < size()).
    [[nodiscard]] const std::string& keyAt(std::size_t index) const {
        return std::next(flows_.begin(), std::ptrdiff_t(index))->first;
    }

  private:
    struct Entry {
        sim::SimTime last{0};
        std::uint32_t src = 0;
    };
    void erase(std::map<std::string, Entry>::iterator it) {
        if (--bySrc_[it->second.src] == 0) bySrc_.erase(it->second.src);
        flows_.erase(it);
    }

    std::size_t cap_;
    sim::SimTime timeout_;
    std::map<std::string, Entry> flows_;
    std::map<std::uint32_t, std::size_t> bySrc_;
    std::uint64_t evictions_ = 0;
    std::uint64_t tiedEvictions_ = 0;  ///< evictions that broke a timestamp tie
    std::uint64_t purged_ = 0;
};

TEST(FirewallEviction, MatchesFullScanOnRandomChurn) {
    constexpr int kSubscribers = 6;
    constexpr int kPorts = 40;
    ChurnedOperator fw{capped(commercialItalianOperator(), 16)};
    ScanFlowTable reference{16, sim::seconds(300.0)};
    const net::Ipv4Address dest{138, 96, 250, 20};
    // The GGSN's flow key for a churn packet (UDP, dst port 33001).
    const auto keyFor = [&](net::Ipv4Address src, int port) {
        return util::format("%u/%08x:%u>%08x:%u", unsigned(net::IpProto::udp), src.value(),
                            unsigned(1024 + port), dest.value(), 33001u);
    };
    std::map<std::string, std::pair<int, int>> flowOf;  // key -> (host, port)
    const std::uint64_t evictedBefore = guardCounter("guard.firewall.evicted");
    util::RandomStream rng{20240615};

    for (int op = 0; op < 2000; ++op) {
        SCOPED_TRACE(op);
        const std::int64_t roll = rng.uniformInt(0, 99);
        if (roll < 30) {
            // Advance time: ties, small steps, and jumps toward the timeout.
            const std::int64_t step = rng.uniformInt(0, 19);
            const double seconds = step < 10 ? 0.0 : step < 16 ? 1.0 : step < 19 ? 30.0 : 200.0;
            fw.sim.runUntil(fw.sim.now() + sim::seconds(seconds));
        } else {
            int host = int(rng.uniformInt(1, kSubscribers));
            int port = int(rng.uniformInt(0, kPorts - 1));
            if (roll >= 75 && reference.size() > 0) {
                // Refresh a flow the reference still holds.
                const auto pick = rng.uniformInt(0, std::int64_t(reference.size()) - 1);
                std::tie(host, port) = flowOf.at(reference.keyAt(std::size_t(pick)));
            }
            const net::Ipv4Address src = ChurnedOperator::subscriber(host);
            const std::string key = keyFor(src, port);
            flowOf[key] = {host, port};
            const std::size_t before = reference.size();
            reference.record(key, src.value(), fw.sim.now());
            // The hook counts table growth (0 at the cap or on a refresh).
            ASSERT_EQ(fw.network.injectFlowChurn(src, dest, std::uint16_t(port), 1),
                      reference.size() > before ? 1u : 0u);
        }
        ASSERT_EQ(fw.network.firewallFlowCount(), reference.size());
        for (int host = 1; host <= kSubscribers; ++host)
            ASSERT_EQ(fw.holds(host), reference.holds(ChurnedOperator::subscriber(host).value()))
                << "host " << host;
        ASSERT_EQ(guardCounter("guard.firewall.evicted") - evictedBefore, reference.evictions());
    }
    // The run exercised the cap, timestamp ties and the purge.
    EXPECT_GT(reference.evictions(), 500u);
    EXPECT_GT(reference.tiedEvictions(), 250u);
    EXPECT_GT(reference.purged(), 30u);
}

}  // namespace
}  // namespace onelab::umts
