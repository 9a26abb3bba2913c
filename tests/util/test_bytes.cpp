#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace onelab::util {
namespace {

TEST(Bytes, BigEndianRoundTrip) {
    Bytes buffer;
    putU8(buffer, 0xab);
    putU16(buffer, 0x1234);
    putU32(buffer, 0xdeadbeef);
    putU64(buffer, 0x0102030405060708ULL);
    ASSERT_EQ(buffer.size(), 1u + 2 + 4 + 8);

    ByteReader reader{{buffer.data(), buffer.size()}};
    EXPECT_EQ(reader.u8(), 0xab);
    EXPECT_EQ(reader.u16(), 0x1234);
    EXPECT_EQ(reader.u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.u64(), 0x0102030405060708ULL);
    EXPECT_TRUE(reader.ok());
    EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Bytes, NetworkByteOrderOnWire) {
    Bytes buffer;
    putU16(buffer, 0x0102);
    EXPECT_EQ(buffer[0], 0x01);
    EXPECT_EQ(buffer[1], 0x02);
}

TEST(Bytes, ReaderUnderflowTurnsNotOk) {
    const Bytes buffer{0x01};
    ByteReader reader{{buffer.data(), buffer.size()}};
    EXPECT_EQ(reader.u16(), 0u);
    EXPECT_FALSE(reader.ok());
    // Stays not-ok for further reads.
    EXPECT_EQ(reader.u8(), 0u);
    EXPECT_FALSE(reader.ok());
}

TEST(Bytes, ReaderBytesAndSkip) {
    const Bytes buffer{1, 2, 3, 4, 5};
    ByteReader reader{{buffer.data(), buffer.size()}};
    reader.skip(2);
    const Bytes tail = reader.bytes(3);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail[0], 3);
    EXPECT_EQ(tail[2], 5);
    EXPECT_TRUE(reader.ok());
}

TEST(Bytes, HexDump) {
    const Bytes data{0xde, 0xad, 0xbe, 0xef};
    EXPECT_EQ(hexDump({data.data(), data.size()}), "de ad be ef");
    EXPECT_EQ(hexDump({data.data(), data.size()}, 2), "de ad ...");
}

TEST(Bytes, InternetChecksumRfc1071Example) {
    // Classic example: checksum of this sequence is 0xddf2 (RFC 1071).
    const Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(internetChecksum({data.data(), data.size()}), 0x220d);
    // Appending the checksum makes the total sum come out as zero.
    Bytes withSum = data;
    putU16(withSum, 0x220d);
    EXPECT_EQ(internetChecksum({withSum.data(), withSum.size()}), 0);
}

TEST(Bytes, InternetChecksumOddLength) {
    const Bytes data{0x01, 0x02, 0x03};
    const std::uint16_t sum = internetChecksum({data.data(), data.size()});
    // Odd data is padded with zero for the sum; verification must pad
    // the same way, so the data is followed by pad + sum.
    const Bytes withSum{0x01, 0x02, 0x03, 0x00, std::uint8_t(sum >> 8), std::uint8_t(sum)};
    EXPECT_EQ(internetChecksum({withSum.data(), withSum.size()}), 0);
}

}  // namespace
}  // namespace onelab::util
