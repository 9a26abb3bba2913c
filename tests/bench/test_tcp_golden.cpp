// Golden-file regression for the TCP congestion-control sweep: the
// fixed-seed 3-CC x 3-loss grid must reproduce the committed CSV
// digest exactly (the bytes `ext_tcp_cc_compare --csv` writes — a
// FROZEN format from bench::ccSweepCsv). Any drift in the TCP stack,
// the congestion algorithms, the RLC loss model, or the fleet wave
// shows up here as a digest mismatch.
//
// To regenerate after an INTENTIONAL behaviour change: run this test,
// copy the "actual" digest it prints into kGoldenDigest below, and
// say why in the commit message.
#include <gtest/gtest.h>

#include <string>

#include "tcp_cc_common.hpp"
#include "util/md5.hpp"

namespace onelab::bench {
namespace {

// The exact parameters of the PR-smoke run: seed 42, 15 s per point.
constexpr std::uint64_t kGoldenSeed = 42;
constexpr double kGoldenDuration = 15.0;
constexpr const char* kGoldenDigest = "07aca070590a3e353216d17eeb42fada";

std::string md5Hex(const std::string& text) {
    const util::Md5::Digest digest = util::Md5::hash(
        {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
    std::string hex;
    hex.reserve(2 * digest.size());
    for (const std::uint8_t byte : digest) {
        static const char* kDigits = "0123456789abcdef";
        hex += kDigits[byte >> 4];
        hex += kDigits[byte & 0xf];
    }
    return hex;
}

TEST(TcpGolden, CcSweepCsvReproduces) {
    const std::string csv = ccSweepCsv(runCcSweep(kGoldenSeed, kGoldenDuration));
    EXPECT_EQ(md5Hex(csv), kGoldenDigest)
        << "TCP CC sweep CSV drifted (" << csv.size() << " bytes):\n"
        << csv << "If the change is intentional, update kGoldenDigest "
        << "with the actual digest.";
}

}  // namespace
}  // namespace onelab::bench
