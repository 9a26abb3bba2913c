#include "ditg/flow.hpp"

#include <gtest/gtest.h>

namespace onelab::ditg {
namespace {

TEST(ProbeHeader, EncodeDecodeRoundTrip) {
    ProbeHeader header;
    header.flowId = 7;
    header.sequence = 123456;
    header.txTimeNs = 987654321012345;
    header.isAck = true;
    const util::Bytes wire = header.encode(ProbeHeader::kSize);
    ASSERT_EQ(wire.size(), ProbeHeader::kSize);
    const auto decoded = ProbeHeader::decode({wire.data(), wire.size()});
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->flowId, 7);
    EXPECT_EQ(decoded->sequence, 123456u);
    EXPECT_EQ(decoded->txTimeNs, 987654321012345);
    EXPECT_TRUE(decoded->isAck);
}

TEST(ProbeHeader, PadsToRequestedSize) {
    ProbeHeader header;
    const util::Bytes wire = header.encode(1024);
    EXPECT_EQ(wire.size(), 1024u);
    // Padding is zeros (compressible, like D-ITG's default payload).
    for (std::size_t i = ProbeHeader::kSize; i < wire.size(); ++i) EXPECT_EQ(wire[i], 0);
}

TEST(ProbeHeader, RejectsBadMagicAndShortBuffers) {
    util::Bytes wire = ProbeHeader{}.encode(ProbeHeader::kSize);
    wire[0] ^= 0xff;
    EXPECT_FALSE(ProbeHeader::decode({wire.data(), wire.size()}).has_value());
    const util::Bytes tiny(4, 0);
    EXPECT_FALSE(ProbeHeader::decode({tiny.data(), tiny.size()}).has_value());
}

TEST(ProbeStreamTest, ReassemblesProbesAcrossArbitraryChunking) {
    // Three framed probes concatenated, then fed one byte at a time —
    // the worst chunking TCP can legally produce.
    util::Bytes wire;
    std::vector<util::Bytes> probes;
    for (std::uint32_t i = 0; i < 3; ++i) {
        ProbeHeader header;
        header.flowId = 9;
        header.sequence = i;
        header.txTimeNs = 1000 * i;
        util::Bytes framed = ProbeStream::frame(header.encode(ProbeHeader::kSize + i));
        wire.insert(wire.end(), framed.begin(), framed.end());
    }
    ProbeStream stream;
    std::vector<std::uint32_t> sequences;
    std::vector<std::size_t> sizes;
    for (const std::uint8_t byte : wire)
        stream.feed({&byte, 1}, [&](util::ByteView probe) {
            const auto header = ProbeHeader::decode(probe);
            ASSERT_TRUE(header.has_value());
            sequences.push_back(header->sequence);
            sizes.push_back(probe.size());
        });
    EXPECT_EQ(sequences, (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(sizes, (std::vector<std::size_t>{ProbeHeader::kSize, ProbeHeader::kSize + 1,
                                               ProbeHeader::kSize + 2}));
}

TEST(FlowSpec, VoipG711Is72Kbps) {
    const FlowSpec spec = voipG711Flow();
    EXPECT_NEAR(spec.nominalKbps(), 72.0, 0.01);
    EXPECT_DOUBLE_EQ(spec.idtSeconds->mean(), 0.01);   // 100 pkt/s
    EXPECT_DOUBLE_EQ(spec.payloadBytes->mean(), 90.0);
    EXPECT_DOUBLE_EQ(spec.durationSeconds, 120.0);
}

TEST(FlowSpec, Cbr1MbpsMatchesPaper) {
    const FlowSpec spec = cbr1MbpsFlow();
    // 1024 B at 122 pkt/s (§3.1).
    EXPECT_DOUBLE_EQ(spec.payloadBytes->mean(), 1024.0);
    EXPECT_NEAR(1.0 / spec.idtSeconds->mean(), 122.0, 1e-9);
    EXPECT_NEAR(spec.nominalKbps(), 999.4, 0.1);
}

TEST(FlowSpec, CbrFactory) {
    const FlowSpec spec = cbrFlow(9, 50.0, 200, 30.0, "custom");
    EXPECT_EQ(spec.flowId, 9);
    EXPECT_EQ(spec.name, "custom");
    EXPECT_NEAR(spec.nominalKbps(), 80.0, 1e-9);
    EXPECT_DOUBLE_EQ(spec.durationSeconds, 30.0);
}

TEST(FlowSpec, ApplicationPresets) {
    const FlowSpec g729 = voipG729Flow(3, 30.0);
    EXPECT_NEAR(g729.nominalKbps(), 12.8, 0.01);
    const FlowSpec telnet = telnetFlow(4, 30.0);
    EXPECT_GT(telnet.nominalKbps(), 0.5);
    EXPECT_LT(telnet.nominalKbps(), 5.0);
    const FlowSpec dns = dnsFlow(5, 30.0);
    EXPECT_LT(dns.nominalKbps(), 2.0);
    const FlowSpec gaming = gamingFlow(6, 30.0);
    EXPECT_NEAR(gaming.nominalKbps(), 80.0 * 30.0 * 8.0 / 1000.0, 0.5);
    // All presets respect the probe-header floor.
    EXPECT_GE(telnet.payloadBytes->mean(), double(ProbeHeader::kSize));
}

TEST(FlowSpec, NominalRateUndefinedForCauchy) {
    FlowSpec spec;
    spec.idtSeconds = util::cauchyVariable(0.01, 0.001);
    spec.payloadBytes = util::constantVariable(100);
    EXPECT_DOUBLE_EQ(spec.nominalKbps(), 0.0);
    FlowSpec empty;
    EXPECT_DOUBLE_EQ(empty.nominalKbps(), 0.0);
}

}  // namespace
}  // namespace onelab::ditg
