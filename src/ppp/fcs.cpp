#include "ppp/fcs.hpp"

namespace onelab::ppp {

std::uint16_t fcsUpdate(std::uint16_t fcs, util::ByteView data) noexcept {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    const FcsTables& t = kFcsTables;
    while (n >= 16) {
        // The 16-bit register only reaches the first two bytes; the
        // other fourteen contribute through their distance tables alone.
        fcs = std::uint16_t(t[15][(fcs ^ p[0]) & 0xff] ^ t[14][((fcs >> 8) ^ p[1]) & 0xff] ^
                            t[13][p[2]] ^ t[12][p[3]] ^ t[11][p[4]] ^ t[10][p[5]] ^
                            t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^
                            t[4][p[11]] ^ t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]]);
        p += 16;
        n -= 16;
    }
    if (n >= 8) {
        fcs = std::uint16_t(t[7][(fcs ^ p[0]) & 0xff] ^ t[6][((fcs >> 8) ^ p[1]) & 0xff] ^
                            t[5][p[2]] ^ t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^
                            t[0][p[7]]);
        p += 8;
        n -= 8;
    }
    while (n--) fcs = fcsStep(fcs, *p++);
    return fcs;
}

std::uint16_t fcs16(util::ByteView data) noexcept { return fcsUpdate(kFcsInit, data); }

bool fcsValid(util::ByteView dataWithFcs) noexcept {
    if (dataWithFcs.size() < 2) return false;
    return fcs16(dataWithFcs) == kFcsGood;
}

}  // namespace onelab::ppp
