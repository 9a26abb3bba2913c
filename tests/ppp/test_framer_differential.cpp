#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ppp/fcs.hpp"
#include "ppp/framer.hpp"
#include "util/rand.hpp"

namespace onelab::ppp {
namespace {

constexpr std::uint8_t kFlag = 0x7e;
constexpr std::uint8_t kEscape = 0x7d;
constexpr std::uint8_t kXor = 0x20;
constexpr std::uint8_t kAddress = 0xff;
constexpr std::uint8_t kControl = 0x03;

// ------------------------------------------------------------------
// Reference implementations: the pre-vectorization byte-at-a-time
// framer, kept verbatim as the differential oracle. The production
// path must reproduce these byte-for-byte (encode) and
// verdict-for-verdict (deframe).
// ------------------------------------------------------------------

bool needsEscapeReference(std::uint8_t byte, std::uint32_t accm) noexcept {
    if (byte == kFlag || byte == kEscape) return true;
    return byte < 0x20 && ((accm >> byte) & 1u);
}

void putEscapedReference(util::Bytes& out, std::uint8_t byte, std::uint32_t accm) {
    if (needsEscapeReference(byte, accm)) {
        out.push_back(kEscape);
        out.push_back(byte ^ kXor);
    } else {
        out.push_back(byte);
    }
}

util::Bytes encodeFrameReference(const Frame& frame, const FramerConfig& config) {
    util::Bytes raw;
    raw.reserve(frame.info.size() + 6);
    if (!config.compressAddressControl) {
        raw.push_back(kAddress);
        raw.push_back(kControl);
    }
    const auto protocol = std::uint16_t(frame.protocol);
    if (config.compressProtocolField && protocol <= 0xff) {
        raw.push_back(std::uint8_t(protocol));
    } else {
        raw.push_back(std::uint8_t(protocol >> 8));
        raw.push_back(std::uint8_t(protocol));
    }
    raw.insert(raw.end(), frame.info.begin(), frame.info.end());

    const auto fcs = std::uint16_t(~fcs16(raw) & 0xffff);

    util::Bytes out;
    out.reserve(raw.size() + 8);
    out.push_back(kFlag);
    for (const std::uint8_t byte : raw) putEscapedReference(out, byte, config.sendAccm);
    putEscapedReference(out, std::uint8_t(fcs & 0xff), config.sendAccm);
    putEscapedReference(out, std::uint8_t(fcs >> 8), config.sendAccm);
    out.push_back(kFlag);
    return out;
}

class DeframerReference {
  public:
    void feed(util::ByteView data) {
        for (const std::uint8_t byte : data) {
            if (byte == kFlag) {
                escaped_ = false;
                endFrame();
                continue;
            }
            if (byte == kEscape) {
                escaped_ = true;
                continue;
            }
            current_.push_back(escaped_ ? std::uint8_t(byte ^ kXor) : byte);
            escaped_ = false;
        }
    }

    std::vector<Frame> frames;
    std::uint64_t good = 0;
    std::uint64_t bad = 0;

  private:
    void endFrame() {
        if (current_.empty()) return;
        util::Bytes raw;
        raw.swap(current_);
        if (raw.size() < 3 || !fcsValid(raw)) {
            ++bad;
            return;
        }
        raw.erase(raw.end() - 2, raw.end());
        std::size_t offset = 0;
        if (raw.size() >= 2 && raw[0] == kAddress && raw[1] == kControl) offset = 2;
        if (raw.size() <= offset) {
            ++bad;
            return;
        }
        std::uint16_t protocol = 0;
        if (raw[offset] & 1) {
            protocol = raw[offset];
            offset += 1;
        } else {
            if (raw.size() < offset + 2) {
                ++bad;
                return;
            }
            protocol = std::uint16_t((raw[offset] << 8) | raw[offset + 1]);
            offset += 2;
        }
        Frame frame;
        frame.protocol = Protocol{protocol};
        frame.info.assign(raw.begin() + long(offset), raw.end());
        ++good;
        frames.push_back(std::move(frame));
    }

    util::Bytes current_;
    bool escaped_ = false;
};

// ------------------------------------------------------------------

Protocol randomProtocol(util::RandomStream& rng) {
    static constexpr Protocol kChoices[] = {Protocol::ip,  Protocol::ipcp, Protocol::lcp,
                                            Protocol::pap, Protocol::chap, Protocol::ccp};
    return kChoices[rng.uniformInt(0, 5)];
}

util::Bytes randomPayload(util::RandomStream& rng) {
    // Mix of sizes and byte distributions: uniform bytes, escape-heavy
    // (flags/escapes/control chars), and long plain runs that exercise
    // the word-at-a-time scanner across alignments.
    const auto size = std::size_t(rng.uniformInt(0, 1600));
    util::Bytes payload(size);
    const auto mode = rng.uniformInt(0, 2);
    for (auto& byte : payload) {
        if (mode == 0) {
            byte = std::uint8_t(rng.uniformInt(0, 255));
        } else if (mode == 1) {
            static constexpr std::uint8_t kNasty[] = {kFlag, kEscape, 0x00, 0x11,
                                                      0x13,  0x1f,    0x41};
            byte = kNasty[rng.uniformInt(0, 6)];
        } else {
            byte = 0x55;
        }
    }
    return payload;
}

FramerConfig randomConfig(util::RandomStream& rng) {
    FramerConfig config;
    const auto pick = rng.uniformInt(0, 3);
    config.sendAccm = pick == 0   ? 0xffffffffu
                      : pick == 1 ? 0x00000000u
                      : pick == 2 ? 0x000a0000u
                                  : std::uint32_t(rng.uniformInt(0, 0xffffffffll));
    config.compressProtocolField = rng.chance(0.5);
    config.compressAddressControl = rng.chance(0.5);
    return config;
}

/// Feed `wire` to both deframers in identical random splits (including
/// splits landing mid-escape-sequence).
template <typename A, typename B>
void feedSplit(A& fast, B& reference, util::ByteView wire, util::RandomStream& rng) {
    std::size_t offset = 0;
    while (offset < wire.size()) {
        const auto chunk =
            std::size_t(rng.uniformInt(1, long(std::min<std::size_t>(97, wire.size() - offset))));
        fast.feed(wire.subspan(offset, chunk));
        reference.feed(wire.subspan(offset, chunk));
        offset += chunk;
    }
}

TEST(FramerDifferential, RandomizedEncodeIsByteIdenticalAndRoundTrips) {
    util::RandomStream rng{0xd1f7};
    Deframer fast;
    DeframerReference reference;
    std::vector<Frame> decoded;
    fast.onFrame([&](Frame frame) { decoded.push_back(std::move(frame)); });

    int frames = 0;
    for (int caseIndex = 0; caseIndex < 1200; ++caseIndex) {
        const FramerConfig config = randomConfig(rng);
        Frame frame{randomProtocol(rng), randomPayload(rng)};

        const util::Bytes wire = encodeFrame(frame, config);
        const util::Bytes expectedWire = encodeFrameReference(frame, config);
        ASSERT_EQ(wire, expectedWire) << "case " << caseIndex;
        ASSERT_LE(wire.size(), maxEncodedSize(frame.info.size(), config))
            << "case " << caseIndex;

        feedSplit(fast, reference, wire, rng);
        ++frames;
        ASSERT_EQ(fast.goodFrames(), std::uint64_t(frames)) << "case " << caseIndex;
        ASSERT_EQ(reference.good, std::uint64_t(frames)) << "case " << caseIndex;
        ASSERT_EQ(decoded.size(), reference.frames.size());
        ASSERT_EQ(decoded.back().info, frame.info) << "case " << caseIndex;
        ASSERT_EQ(decoded.back().protocol, reference.frames.back().protocol);
    }
    EXPECT_EQ(fast.badFrames(), 0u);
    EXPECT_EQ(reference.bad, 0u);
}

TEST(FramerDifferential, CorruptedWiresAgreeOnEveryVerdict) {
    util::RandomStream rng{0xbadc};
    Deframer fast;
    DeframerReference reference;
    std::vector<Frame> decoded;
    fast.onFrame([&](Frame frame) { decoded.push_back(std::move(frame)); });

    for (int caseIndex = 0; caseIndex < 600; ++caseIndex) {
        const FramerConfig config = randomConfig(rng);
        Frame frame{randomProtocol(rng), randomPayload(rng)};
        util::Bytes wire = encodeFrame(frame, config);
        // Corrupt a few bytes; flipping flags/escapes reshapes framing
        // entirely, so both decoders must drop/accept identically.
        const auto flips = rng.uniformInt(1, 4);
        for (long flip = 0; flip < flips; ++flip) {
            const auto at = std::size_t(rng.uniformInt(0, long(wire.size() - 1)));
            wire[at] ^= std::uint8_t(rng.uniformInt(1, 255));
        }
        feedSplit(fast, reference, wire, rng);
        ASSERT_EQ(fast.goodFrames(), reference.good) << "case " << caseIndex;
        ASSERT_EQ(fast.badFrames(), reference.bad) << "case " << caseIndex;
        ASSERT_EQ(decoded.size(), reference.frames.size()) << "case " << caseIndex;
    }
    // Flush any trailing partial so the last comparisons above are
    // meaningful (a dangling fragment hides in current_ on both sides).
    const std::uint8_t flag = kFlag;
    fast.feed({&flag, 1});
    reference.feed({&flag, 1});
    EXPECT_EQ(fast.goodFrames(), reference.good);
    EXPECT_EQ(fast.badFrames(), reference.bad);
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        ASSERT_EQ(decoded[i].info, reference.frames[i].info) << "frame " << i;
        ASSERT_EQ(decoded[i].protocol, reference.frames[i].protocol) << "frame " << i;
    }
}

TEST(FramerDifferential, EdgeCasePayloadsMatchReference) {
    const FramerConfig configs[] = {
        {},
        {.sendAccm = 0, .compressProtocolField = true, .compressAddressControl = true},
        {.sendAccm = 0xffffffff, .compressProtocolField = true,
         .compressAddressControl = false},
    };
    std::vector<util::Bytes> payloads;
    payloads.emplace_back();                          // empty info
    payloads.emplace_back(512, kFlag);                // all flag bytes
    payloads.emplace_back(512, kEscape);              // all escape bytes
    payloads.emplace_back(512, std::uint8_t(0x13));   // all XON (ACCM-dependent)
    payloads.emplace_back(1500, std::uint8_t(0x42));  // MTU of plain bytes
    util::Bytes mixed;                                 // escape at every word edge
    for (int i = 0; i < 64; ++i) {
        mixed.insert(mixed.end(), 7, std::uint8_t(i));
        mixed.push_back(kEscape);
    }
    payloads.push_back(std::move(mixed));

    for (const FramerConfig& config : configs) {
        for (const util::Bytes& payload : payloads) {
            const Frame frame{Protocol::ip, payload};
            const util::Bytes wire = encodeFrame(frame, config);
            EXPECT_EQ(wire, encodeFrameReference(frame, config));
            EXPECT_LE(wire.size(), maxEncodedSize(payload.size(), config));

            Deframer fast;
            Frame decoded;
            fast.onFrame([&](Frame got) { decoded = std::move(got); });
            fast.feed(wire);
            ASSERT_EQ(fast.goodFrames(), 1u);
            EXPECT_EQ(decoded.info, payload);
        }
    }
}

TEST(FramerDifferential, SplitMidEscapeAcrossFeeds) {
    // An escape pair split across feed() calls must unescape exactly
    // like an unsplit stream, including escape-then-flag (abort) and
    // escape-then-escape (stay armed) at the boundary.
    const util::Bytes stream = {kFlag, kAddress, kControl, 0x00, 0x21, kEscape,
                                kXor ^ kEscape,  // escaped escape byte
                                kEscape};        // dangling escape, then next feed
    Deframer fast;
    DeframerReference reference;
    fast.feed(stream);
    reference.feed(stream);
    const util::Bytes tail = {kEscape, std::uint8_t(0x41 ^ kXor), kFlag};
    fast.feed(tail);
    reference.feed(tail);
    EXPECT_EQ(fast.goodFrames(), reference.good);
    EXPECT_EQ(fast.badFrames(), reference.bad);
}

TEST(FramerDifferential, MaxEncodedSizeIsTightForWorstCase) {
    // All-escape payload with every control char escaped: every byte
    // between the flags doubles, which is exactly the bound.
    FramerConfig config;  // ACCM 0xffffffff, full headers
    const util::Bytes payload(64, kFlag);
    const Frame frame{Protocol::lcp, payload};
    const util::Bytes wire = encodeFrame(frame, config);
    // addr+ctrl+proto(2)+info+fcs(2) can all escape; here addr (0xff)
    // and proto bytes (0xc0, 0x21) don't, so the bound is not reached
    // but must hold.
    EXPECT_LE(wire.size(), maxEncodedSize(payload.size(), config));
    // A payload needing no escapes sits well under the bound.
    const Frame plain{Protocol::ip, util::Bytes(64, 0x42)};
    EXPECT_LT(encodeFrame(plain, config).size(), maxEncodedSize(64, config));
}

TEST(FramerOversize, GuardDropsFlaglessGarbageAndResyncs) {
    Deframer deframer;
    deframer.setMaxFrameLength(1024);
    ASSERT_EQ(deframer.maxFrameLength(), 1024u);
    std::vector<Frame> decoded;
    deframer.onFrame([&](Frame frame) { decoded.push_back(std::move(frame)); });

    // A flag-less garbage stream far beyond the cap: dropped once (one
    // bad frame, one oversize), not accumulated without bound.
    const util::Bytes garbage(256, 0x42);
    for (int i = 0; i < 64; ++i) deframer.feed(garbage);
    EXPECT_EQ(deframer.badFrames(), 1u);
    EXPECT_EQ(deframer.oversizedFrames(), 1u);
    EXPECT_TRUE(decoded.empty());

    // The next flag resynchronises; a good frame then decodes cleanly.
    const util::Bytes wire = encodeFrame({Protocol::ip, util::Bytes(64, 0x11)}, {});
    deframer.feed(wire);  // leading flag ends the discarded frame
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].info, util::Bytes(64, 0x11));
    EXPECT_EQ(deframer.goodFrames(), 1u);
    EXPECT_EQ(deframer.badFrames(), 1u);
    EXPECT_EQ(deframer.oversizedFrames(), 1u);
}

TEST(FramerOversize, FrameAtTheCapStillDecodes) {
    Deframer deframer;
    deframer.setMaxFrameLength(512 + 16);  // payload + headers/FCS headroom
    std::vector<Frame> decoded;
    deframer.onFrame([&](Frame frame) { decoded.push_back(std::move(frame)); });
    const util::Bytes payload(512, 0x33);
    deframer.feed(encodeFrame({Protocol::ip, payload}, {}));
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].info, payload);
    EXPECT_EQ(deframer.oversizedFrames(), 0u);
}

}  // namespace
}  // namespace onelab::ppp
