#include "net/dns.hpp"

#include <gtest/gtest.h>

#include "scenario/fleet.hpp"

namespace onelab::net {
namespace {

TEST(DnsCodec, QueryEncodeDecodeRoundTrip) {
    DnsMessage query;
    query.id = 0x1234;
    query.questionName = "planetlab1.inria.fr";
    const util::Bytes wire = query.encode();
    const auto decoded = DnsMessage::decode({wire.data(), wire.size()});
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().id, 0x1234);
    EXPECT_FALSE(decoded.value().isResponse);
    EXPECT_EQ(decoded.value().questionName, "planetlab1.inria.fr");
    EXPECT_FALSE(decoded.value().answer.has_value());
}

TEST(DnsCodec, ResponseCarriesARecord) {
    DnsMessage response;
    response.id = 7;
    response.isResponse = true;
    response.questionName = "host.example";
    response.answer = Ipv4Address{138, 96, 250, 20};
    const util::Bytes wire = response.encode();
    const auto decoded = DnsMessage::decode({wire.data(), wire.size()});
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().isResponse);
    ASSERT_TRUE(decoded.value().answer.has_value());
    EXPECT_EQ(*decoded.value().answer, (Ipv4Address{138, 96, 250, 20}));
}

TEST(DnsCodec, NxDomainFlag) {
    DnsMessage response;
    response.isResponse = true;
    response.nxDomain = true;
    response.questionName = "nosuch.example";
    const auto decoded = [&] {
        const util::Bytes wire = response.encode();
        return DnsMessage::decode({wire.data(), wire.size()});
    }();
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().nxDomain);
}

TEST(DnsCodec, RejectsGarbage) {
    const util::Bytes junk{1, 2, 3};
    EXPECT_FALSE(DnsMessage::decode({junk.data(), junk.size()}).ok());
    EXPECT_FALSE(DnsMessage::decode({}).ok());
}

TEST(Dns, ResolveOverUmtsUsingIpcpAssignedServer) {
    // End to end: dial up, learn the DNS server from IPCP, route it
    // through the UMTS connection and resolve the INRIA hostname.
    scenario::Fleet fleet{scenario::makeUniformFleet(1)};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    scenario::WiredSite& inria = fleet.wiredSite(0);
    const auto started = napoli.startUmts();
    ASSERT_TRUE(started.ok());
    const Ipv4Address dnsServer = fleet.operatorNetwork().profile().dnsServer;
    ASSERT_TRUE(napoli.addUmtsDestination(dnsServer.str() + "/32").ok());

    DnsResolver resolver{fleet.sim(), napoli.node().stack(), napoli.umtsSlice().xid};
    std::optional<util::Result<Ipv4Address>> outcome;
    resolver.resolve("planetlab1.inria.fr", dnsServer,
                     [&](util::Result<Ipv4Address> r) { outcome = std::move(r); });
    fleet.runFor(sim::seconds(5.0));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->ok()) << outcome->error().message;
    EXPECT_EQ(outcome->value(), inria.address());
    EXPECT_GE(fleet.operatorNetwork().dns().queriesServed(), 1u);
    // The query really went over ppp0.
    EXPECT_GT(napoli.node().stack().findInterface("ppp0")->counters().txPackets, 0u);
}

TEST(Dns, UnknownNameIsNxdomain) {
    scenario::Fleet fleet{scenario::makeUniformFleet(1)};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    const Ipv4Address dnsServer = fleet.operatorNetwork().profile().dnsServer;
    ASSERT_TRUE(napoli.addUmtsDestination(dnsServer.str() + "/32").ok());
    DnsResolver resolver{fleet.sim(), napoli.node().stack(), napoli.umtsSlice().xid};
    std::optional<util::Result<Ipv4Address>> outcome;
    resolver.resolve("no.such.host", dnsServer,
                     [&](util::Result<Ipv4Address> r) { outcome = std::move(r); });
    fleet.runFor(sim::seconds(5.0));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_FALSE(outcome->ok());
    EXPECT_EQ(outcome->error().code, util::Error::Code::not_found);
}

TEST(Dns, TimeoutWhenServerUnreachable) {
    scenario::Fleet fleet{scenario::makeUniformFleet(1)};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    // No UMTS, and the operator DNS is not reachable from eth0 routing
    // (it is, actually, via the announced pool prefix — so point at a
    // bogus server instead).
    DnsResolver resolver{fleet.sim(), napoli.node().stack(), 0};
    std::optional<util::Result<Ipv4Address>> outcome;
    resolver.resolve("planetlab1.inria.fr", Ipv4Address{203, 0, 113, 53},
                     [&](util::Result<Ipv4Address> r) { outcome = std::move(r); },
                     sim::millis(500), 1);
    fleet.runFor(sim::seconds(5.0));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_FALSE(outcome->ok());
    EXPECT_EQ(outcome->error().code, util::Error::Code::timeout);
}

TEST(Dns, ResolverBusyRejectsSecondQuery) {
    scenario::Fleet fleet{scenario::makeUniformFleet(1)};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    DnsResolver resolver{fleet.sim(), napoli.node().stack(), 0};
    resolver.resolve("a.example", Ipv4Address{203, 0, 113, 53},
                     [](util::Result<Ipv4Address>) {});
    std::optional<util::Error::Code> code;
    resolver.resolve("b.example", Ipv4Address{203, 0, 113, 53},
                     [&](util::Result<Ipv4Address> r) {
                         if (!r.ok()) code = r.error().code;
                     });
    EXPECT_EQ(code, util::Error::Code::busy);
}

}  // namespace
}  // namespace onelab::net
