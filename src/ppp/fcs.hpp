#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace onelab::ppp {

/// PPP FCS-16 (RFC 1662 appendix C): CRC-16/X.25, reflected,
/// polynomial 0x8408, initial value 0xffff.
inline constexpr std::uint16_t kFcsInit = 0xffff;
/// Value of the running FCS after including a correct trailing FCS.
inline constexpr std::uint16_t kFcsGood = 0xf0b8;

/// The slice-by-16 tables for the reflected CRC-16/X.25 walk (16 x 256
/// entries, 8 KB). Table 0 is the classic byte table; table k advances
/// table k-1 by one zero-byte step, so sixteen lookups absorb sixteen
/// message bytes at once and the first eight tables alone make the
/// 8-byte step. Header-inline so the per-byte steps the framer takes
/// on short tails compile to one lookup with no call.
using FcsTables = std::array<std::array<std::uint16_t, 256>, 16>;

namespace detail {
constexpr FcsTables makeFcsTables() {
    FcsTables tables{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint16_t value = std::uint16_t(b);
        for (int bit = 0; bit < 8; ++bit)
            value = (value & 1) ? std::uint16_t((value >> 1) ^ 0x8408) : std::uint16_t(value >> 1);
        tables[0][b] = value;
    }
    for (std::size_t k = 1; k < tables.size(); ++k)
        for (std::uint32_t b = 0; b < 256; ++b)
            tables[k][b] =
                std::uint16_t((tables[k - 1][b] >> 8) ^ tables[0][tables[k - 1][b] & 0xff]);
    return tables;
}
}  // namespace detail

inline constexpr FcsTables kFcsTables = detail::makeFcsTables();

[[nodiscard]] inline const FcsTables& fcsTables() noexcept { return kFcsTables; }

/// Incrementally extend a running FCS with one byte.
[[nodiscard]] inline std::uint16_t fcsStep(std::uint16_t fcs, std::uint8_t byte) noexcept {
    return std::uint16_t((fcs >> 8) ^ kFcsTables[0][(fcs ^ byte) & 0xff]);
}

/// Extend a running FCS over a whole buffer: slice-by-16 table walk
/// (sixteen bytes per step), then one 8-byte step and byte steps for
/// the tail. The deframer checks each assembled frame with it.
[[nodiscard]] std::uint16_t fcsUpdate(std::uint16_t fcs, util::ByteView data) noexcept;

/// FCS over a whole buffer, starting from kFcsInit.
[[nodiscard]] std::uint16_t fcs16(util::ByteView data) noexcept;

/// True when `data` (payload + trailing 2-byte FCS, little-endian as
/// transmitted) verifies.
[[nodiscard]] bool fcsValid(util::ByteView dataWithFcs) noexcept;

/// Advance the FCS over eight message bytes packed little-endian in
/// `word` (byte 0 in the low octet): fcsUpdate's 8-byte tail step, fed
/// from a register instead of memory — for callers fusing the FCS
/// into their own word-at-a-time scans (the framer's escape scan
/// advances the FCS on the words it already loaded instead of
/// re-reading the buffer).
[[nodiscard]] inline std::uint16_t fcsStepWord(std::uint16_t fcs, std::uint64_t word,
                                               const FcsTables& t) noexcept {
    return std::uint16_t(t[7][(fcs ^ word) & 0xff] ^ t[6][((fcs >> 8) ^ (word >> 8)) & 0xff] ^
                         t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
                         t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
                         t[1][(word >> 48) & 0xff] ^ t[0][(word >> 56) & 0xff]);
}

/// The 16-byte step: advance the FCS over the sixteen message bytes
/// packed little-endian in `low` (bytes 0-7) and `high` (bytes 8-15).
/// Equal to fcsStepWord(fcsStepWord(fcs, low, t), high, t) with half
/// the dependent lookups: only the first two bytes meet the register.
[[nodiscard]] inline std::uint16_t fcsStepWords(std::uint16_t fcs, std::uint64_t low,
                                                std::uint64_t high,
                                                const FcsTables& t) noexcept {
    return std::uint16_t(t[15][(fcs ^ low) & 0xff] ^ t[14][((fcs >> 8) ^ (low >> 8)) & 0xff] ^
                         t[13][(low >> 16) & 0xff] ^ t[12][(low >> 24) & 0xff] ^
                         t[11][(low >> 32) & 0xff] ^ t[10][(low >> 40) & 0xff] ^
                         t[9][(low >> 48) & 0xff] ^ t[8][(low >> 56) & 0xff] ^
                         t[7][high & 0xff] ^ t[6][(high >> 8) & 0xff] ^
                         t[5][(high >> 16) & 0xff] ^ t[4][(high >> 24) & 0xff] ^
                         t[3][(high >> 32) & 0xff] ^ t[2][(high >> 40) & 0xff] ^
                         t[1][(high >> 48) & 0xff] ^ t[0][(high >> 56) & 0xff]);
}

}  // namespace onelab::ppp
