#include "ppp/fcs.hpp"

#include <gtest/gtest.h>

namespace onelab::ppp {
namespace {

TEST(Fcs, KnownVector) {
    // CRC-16/X.25 of "123456789" has check value 0x906e; the running
    // FCS register before complementing is ~0x906e.
    const util::Bytes data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    const std::uint16_t fcs = fcs16({data.data(), data.size()});
    EXPECT_EQ(std::uint16_t(~fcs & 0xffff), 0x906e);
}

TEST(Fcs, GoodFrameVerifies) {
    util::Bytes frame{0xff, 0x03, 0xc0, 0x21, 0x01, 0x01, 0x00, 0x04};
    const std::uint16_t fcs = std::uint16_t(~fcs16({frame.data(), frame.size()}) & 0xffff);
    frame.push_back(std::uint8_t(fcs & 0xff));  // LSB first on the wire
    frame.push_back(std::uint8_t(fcs >> 8));
    EXPECT_TRUE(fcsValid({frame.data(), frame.size()}));
}

TEST(Fcs, CorruptionDetected) {
    util::Bytes frame{0xff, 0x03, 0x00, 0x21, 0x45, 0x00};
    const std::uint16_t fcs = std::uint16_t(~fcs16({frame.data(), frame.size()}) & 0xffff);
    frame.push_back(std::uint8_t(fcs & 0xff));
    frame.push_back(std::uint8_t(fcs >> 8));
    ASSERT_TRUE(fcsValid({frame.data(), frame.size()}));
    for (std::size_t i = 0; i < frame.size(); ++i) {
        util::Bytes corrupted = frame;
        corrupted[i] ^= 0x01;
        EXPECT_FALSE(fcsValid({corrupted.data(), corrupted.size()})) << "byte " << i;
    }
}

TEST(Fcs, IncrementalMatchesBulk) {
    const util::Bytes data{0x01, 0x02, 0x03, 0x04, 0x05};
    std::uint16_t incremental = kFcsInit;
    for (const std::uint8_t byte : data) incremental = fcsStep(incremental, byte);
    EXPECT_EQ(incremental, fcs16({data.data(), data.size()}));
}

TEST(Fcs, BulkUpdateMatchesByteStepsAtEverySize) {
    // The slice-by-16 walk kicks in at 16 bytes and finishes with an
    // 8-byte step and byte steps; cross-check against the byte-at-a-time
    // register for every length through several blocks.
    util::Bytes data(64);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 37 + 11);
    for (std::size_t len = 0; len <= data.size(); ++len) {
        std::uint16_t scalar = kFcsInit;
        for (std::size_t i = 0; i < len; ++i) scalar = fcsStep(scalar, data[i]);
        EXPECT_EQ(fcsUpdate(kFcsInit, {data.data(), len}), scalar) << "len " << len;
    }
    // Resuming from a mid-stream register (as the fused escape scan
    // does between runs) must agree too.
    for (std::size_t split = 0; split <= data.size(); split += 7) {
        const std::uint16_t bulk =
            fcsUpdate(fcsUpdate(kFcsInit, {data.data(), split}),
                      {data.data() + split, data.size() - split});
        EXPECT_EQ(bulk, fcs16({data.data(), data.size()})) << "split " << split;
    }
}

TEST(Fcs, StepWordMatchesEightByteSteps) {
    // fcsStepWord (8 bytes) and fcsStepWords (16 bytes) are the
    // register-fed steps the framer's fused scan uses on words it
    // already loaded; each must advance the FCS exactly like the same
    // number of sequential byte steps, from any starting register.
    const util::Bytes data{0x7e, 0x00, 0x41, 0xff, 0x13, 0x7d, 0x20, 0x99,
                           0x03, 0xc0, 0x21, 0x5e, 0x80, 0x7e, 0x01, 0xf0};
    const auto pack = [&data](std::size_t from) {
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < 8; ++i) word |= std::uint64_t(data[from + i]) << (8 * i);
        return word;
    };
    for (const std::uint16_t start : {kFcsInit, std::uint16_t(0x0000), std::uint16_t(0xbeef)}) {
        std::uint16_t scalar = start;
        for (std::size_t i = 0; i < 8; ++i) scalar = fcsStep(scalar, data[i]);
        EXPECT_EQ(fcsStepWord(start, pack(0), fcsTables()), scalar) << "start " << start;
        for (std::size_t i = 8; i < 16; ++i) scalar = fcsStep(scalar, data[i]);
        EXPECT_EQ(fcsStepWords(start, pack(0), pack(8), fcsTables()), scalar)
            << "start " << start;
    }
}

TEST(Fcs, TooShortInvalid) {
    const util::Bytes one{0x42};
    EXPECT_FALSE(fcsValid({one.data(), one.size()}));
    EXPECT_FALSE(fcsValid({}));
}

}  // namespace
}  // namespace onelab::ppp
