// Robustness fuzzing: hostile byte streams must never crash the
// decoders and must never produce frames/packets that violate their
// invariants.
#include <gtest/gtest.h>

#include "net/packet.hpp"
#include "ppp/compress.hpp"
#include "ppp/framer.hpp"
#include "ppp/options.hpp"
#include "util/rand.hpp"

namespace onelab::ppp {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, DeframerSurvivesRandomBytes) {
    util::RandomStream rng{GetParam()};
    Deframer deframer;
    std::size_t frames = 0;
    deframer.onFrame([&](Frame frame) {
        ++frames;
        // Whatever comes out passed the FCS; the info field must fit a
        // sane bound for the garbage we feed.
        EXPECT_LE(frame.info.size(), 4096u);
    });
    for (int burst = 0; burst < 200; ++burst) {
        util::Bytes noise(std::size_t(rng.uniformInt(1, 64)));
        for (auto& byte : noise) byte = std::uint8_t(rng.uniformInt(0, 255));
        deframer.feed({noise.data(), noise.size()});
    }
    // Random noise essentially never passes a 16-bit FCS by chance in
    // this volume, and must never crash.
    EXPECT_LE(frames, 2u);
}

TEST_P(FuzzSeeds, DeframerRecoversAfterGarbage) {
    util::RandomStream rng{GetParam()};
    Deframer deframer;
    std::vector<Frame> frames;
    deframer.onFrame([&](Frame f) { frames.push_back(std::move(f)); });
    // Garbage, then a clean frame: the clean frame must decode.
    util::Bytes noise(100);
    for (auto& byte : noise) byte = std::uint8_t(rng.uniformInt(0, 255));
    deframer.feed({noise.data(), noise.size()});
    const util::Bytes good =
        encodeFrame(Frame{Protocol::ip, util::Bytes{1, 2, 3}}, FramerConfig{});
    deframer.feed({good.data(), good.size()});
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.back().info, (util::Bytes{1, 2, 3}));
}

TEST_P(FuzzSeeds, PacketParseNeverCrashes) {
    util::RandomStream rng{GetParam()};
    for (int i = 0; i < 500; ++i) {
        util::Bytes noise(std::size_t(rng.uniformInt(0, 100)));
        for (auto& byte : noise) byte = std::uint8_t(rng.uniformInt(0, 255));
        (void)net::Packet::parse({noise.data(), noise.size()});
    }
    SUCCEED();
}

TEST_P(FuzzSeeds, ControlPacketAndOptionsParseNeverCrash) {
    util::RandomStream rng{GetParam()};
    for (int i = 0; i < 500; ++i) {
        util::Bytes noise(std::size_t(rng.uniformInt(0, 64)));
        for (auto& byte : noise) byte = std::uint8_t(rng.uniformInt(0, 255));
        (void)ControlPacket::parse({noise.data(), noise.size()});
        (void)parseOptions({noise.data(), noise.size()});
    }
    SUCCEED();
}

TEST_P(FuzzSeeds, LzssDecompressNeverCrashes) {
    util::RandomStream rng{GetParam()};
    for (int i = 0; i < 500; ++i) {
        util::Bytes noise(std::size_t(rng.uniformInt(0, 128)));
        for (auto& byte : noise) byte = std::uint8_t(rng.uniformInt(0, 255));
        const auto result = LzssCodec::decompress({noise.data(), noise.size()});
        if (result.ok()) {
            EXPECT_LE(result.value().size(), 128u * 20);
        }
    }
    SUCCEED();
}

TEST_P(FuzzSeeds, CorruptedValidFrameNeverDecodesWrong) {
    // Flip one byte of a valid frame: either it is rejected (almost
    // always) or — if the FCS collides — it still parses as a frame;
    // it must never produce the ORIGINAL payload from damaged bytes.
    util::RandomStream rng{GetParam()};
    util::Bytes payload(64);
    for (auto& byte : payload) byte = std::uint8_t(rng.uniformInt(0, 255));
    const util::Bytes wire = encodeFrame(Frame{Protocol::ip, payload}, FramerConfig{});
    for (int i = 0; i < 100; ++i) {
        util::Bytes corrupted = wire;
        const std::size_t pos = 1 + std::size_t(rng.uniformInt(0, long(wire.size()) - 3));
        corrupted[pos] ^= std::uint8_t(rng.uniformInt(1, 255));
        Deframer deframer;
        deframer.onFrame([&](Frame frame) {
            if (frame.protocol == Protocol::ip) {
                EXPECT_NE(frame.info, payload);
            }
        });
        deframer.feed({corrupted.data(), corrupted.size()});
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace onelab::ppp
