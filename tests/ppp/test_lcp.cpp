#include "ppp/lcp.hpp"

#include <gtest/gtest.h>

namespace onelab::ppp {
namespace {

/// Two LCP automatons over a lossless simulated wire.
struct LcpPair : ::testing::Test {
    void connect(Lcp& from, Lcp& to) {
        from.setSender([this, &to](const ControlPacket& pkt) {
            const util::Bytes wire = pkt.serialize();
            sim.schedule(sim::millis(5), [&to, wire] {
                const auto parsed = ControlPacket::parse({wire.data(), wire.size()});
                ASSERT_TRUE(parsed.ok());
                to.receive(parsed.value());
            });
        });
    }

    void open(Lcp& a, Lcp& b) {
        connect(a, b);
        connect(b, a);
        a.open();
        a.up();
        b.open();
        b.up();
        sim.runUntil(sim.now() + sim::seconds(5.0));
    }

    sim::Simulator sim;
};

TEST_F(LcpPair, NegotiatesPfcAcfcAccmAndMagic) {
    LcpConfig config;  // defaults: ACCM 0, PFC, ACFC, magic
    Lcp a{sim, config, util::RandomStream{1}};
    Lcp b{sim, config, util::RandomStream{2}};
    open(a, b);
    ASSERT_TRUE(a.isOpened());
    ASSERT_TRUE(b.isOpened());
    EXPECT_EQ(a.result().sendAccm, 0u);
    EXPECT_TRUE(a.result().sendPfc);
    EXPECT_TRUE(a.result().sendAcfc);
    EXPECT_EQ(a.result().peerMagic, b.result().localMagic);
    EXPECT_EQ(b.result().peerMagic, a.result().localMagic);
    EXPECT_EQ(a.result().peerRequiresAuth, AuthProtocol::none);
}

TEST_F(LcpPair, TwinSeedsStillGetDistinctMagics) {
    // Two endpoints with identical RNG seeds (possible in tests) must
    // still negotiate — per-instance entropy breaks the symmetry.
    Lcp a{sim, LcpConfig{}, util::RandomStream{77}};
    Lcp b{sim, LcpConfig{}, util::RandomStream{77}};
    EXPECT_NE(a.result().localMagic, b.result().localMagic);
    open(a, b);
    EXPECT_TRUE(a.isOpened());
    EXPECT_TRUE(b.isOpened());
}

TEST_F(LcpPair, LoopbackMagicIsNaked) {
    // Loopback detection (RFC 1661 §6.4): a Configure-Request carrying
    // our own magic number must be Configure-Nak'ed with a new value.
    Lcp b{sim, LcpConfig{}, util::RandomStream{5}};
    std::vector<ControlPacket> sent;
    b.setSender([&](const ControlPacket& pkt) { sent.push_back(pkt); });
    b.open();
    b.up();
    ControlPacket request;
    request.code = Code::configure_request;
    request.identifier = 9;
    request.data = encodeOptions({makeU32Option(lcp_opt::magic_number, b.result().localMagic)});
    b.receive(request);
    const ControlPacket* nak = nullptr;
    for (const ControlPacket& pkt : sent)
        if (pkt.code == Code::configure_nak) nak = &pkt;
    ASSERT_NE(nak, nullptr);
    const auto options = parseOptions({nak->data.data(), nak->data.size()});
    ASSERT_TRUE(options.ok());
    ASSERT_EQ(options.value().size(), 1u);
    const auto suggested = optionU32(options.value()[0]);
    ASSERT_TRUE(suggested.has_value());
    EXPECT_NE(*suggested, b.result().localMagic);
    EXPECT_NE(*suggested, 0u);
}

TEST_F(LcpPair, AuthDemandIsCarriedToThePeer) {
    LcpConfig serverConfig;
    serverConfig.requireAuth = AuthProtocol::chap_md5;
    Lcp server{sim, serverConfig, util::RandomStream{1}};
    Lcp client{sim, LcpConfig{}, util::RandomStream{2}};
    open(server, client);
    ASSERT_TRUE(server.isOpened());
    EXPECT_EQ(client.result().peerRequiresAuth, AuthProtocol::chap_md5);
    EXPECT_EQ(server.result().weRequireAuth, AuthProtocol::chap_md5);
}

TEST_F(LcpPair, SmallMruIsNakedUpward) {
    LcpConfig tinyMru;
    tinyMru.mru = 100;  // below the 576 floor: peer naks with 1500
    Lcp a{sim, tinyMru, util::RandomStream{1}};
    Lcp b{sim, LcpConfig{}, util::RandomStream{2}};
    open(a, b);
    ASSERT_TRUE(a.isOpened());
    // b committed a's (corrected) MRU as its send limit.
    EXPECT_GE(b.result().sendMru, 576);
}

TEST_F(LcpPair, CustomMruPropagates) {
    LcpConfig smaller;
    smaller.mru = 1000;
    Lcp a{sim, smaller, util::RandomStream{1}};
    Lcp b{sim, LcpConfig{}, util::RandomStream{2}};
    open(a, b);
    ASSERT_TRUE(b.isOpened());
    EXPECT_EQ(b.result().sendMru, 1000);  // b must not exceed a's MRU
    EXPECT_EQ(a.result().sendMru, 1500);
}

TEST_F(LcpPair, EchoRequestAnsweredOnlyWhenOpened) {
    Lcp a{sim, LcpConfig{}, util::RandomStream{1}};
    Lcp b{sim, LcpConfig{}, util::RandomStream{2}};
    open(a, b);
    ASSERT_TRUE(a.isOpened());
    int replies = 0;
    a.onEchoReply = [&] { ++replies; };
    a.sendEchoRequest();
    sim.runUntil(sim.now() + sim::seconds(1.0));
    EXPECT_EQ(replies, 1);
}

TEST_F(LcpPair, UnknownOptionIsRejectedAndDropped) {
    // Craft a Configure-Request with a bogus option type 200 and feed
    // it directly: the peer must Configure-Reject it.
    Lcp b{sim, LcpConfig{}, util::RandomStream{2}};
    std::vector<ControlPacket> sent;
    b.setSender([&](const ControlPacket& pkt) { sent.push_back(pkt); });
    b.open();
    b.up();
    ControlPacket request;
    request.code = Code::configure_request;
    request.identifier = 9;
    Option bogus;
    bogus.type = 200;
    bogus.value = {1, 2, 3};
    request.data = encodeOptions({bogus});
    b.receive(request);
    bool sawReject = false;
    for (const ControlPacket& pkt : sent)
        if (pkt.code == Code::configure_reject) sawReject = true;
    EXPECT_TRUE(sawReject);
}

class LcpConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LcpConvergence, OpensForAnySeedPair) {
    sim::Simulator sim;
    Lcp a{sim, LcpConfig{}, util::RandomStream{GetParam()}};
    Lcp b{sim, LcpConfig{}, util::RandomStream{GetParam() + 1}};
    auto connect = [&sim](Lcp& from, Lcp& to) {
        from.setSender([&sim, &to](const ControlPacket& pkt) {
            const util::Bytes wire = pkt.serialize();
            sim.schedule(sim::millis(3), [&to, wire] {
                const auto parsed = ControlPacket::parse({wire.data(), wire.size()});
                if (parsed.ok()) to.receive(parsed.value());
            });
        });
    };
    connect(a, b);
    connect(b, a);
    a.open();
    a.up();
    b.open();
    b.up();
    sim.runUntil(sim::seconds(5.0));
    EXPECT_TRUE(a.isOpened());
    EXPECT_TRUE(b.isOpened());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LcpConvergence,
                         ::testing::Values(1, 5, 23, 99, 1000, 54321));

}  // namespace
}  // namespace onelab::ppp
