#include "ppp/framer.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "ppp/fcs.hpp"

namespace onelab::ppp {

namespace {
constexpr std::uint8_t kFlag = 0x7e;
constexpr std::uint8_t kEscape = 0x7d;
constexpr std::uint8_t kXor = 0x20;
constexpr std::uint8_t kAddress = 0xff;
constexpr std::uint8_t kControl = 0x03;

/// 256-entry needs-escape map derived from one ACCM. Rebuilt only when
/// a new ACCM shows up; a handful of slots because a pppd alternates
/// between the negotiated data ACCM and the LCP default (RFC 1662 §7).
struct EscapeMap {
    std::uint32_t accm = 0;
    bool valid = false;
    std::array<std::uint8_t, 256> need{};
};

const EscapeMap& escapeMapFor(std::uint32_t accm) {
    thread_local std::array<EscapeMap, 4> cache{};
    thread_local std::size_t nextSlot = 0;
    for (const EscapeMap& entry : cache)
        if (entry.valid && entry.accm == accm) return entry;
    EscapeMap& entry = cache[nextSlot];
    nextSlot = (nextSlot + 1) % cache.size();
    entry.accm = accm;
    entry.valid = true;
    entry.need.fill(0);
    entry.need[kFlag] = 1;
    entry.need[kEscape] = 1;
    for (std::uint32_t c = 0; c < 32; ++c)
        if ((accm >> c) & 1u) entry.need[c] = 1;
    return entry;
}

/// Append `data` escaped per `map`, folding the bytes into the running
/// FCS as they are scanned. One pass: each eight-byte word is loaded
/// once, SWAR-tested for escape candidates, and on a clean word the
/// same register feeds the slice-by-8 FCS step; maximal no-escape runs
/// become one bulk copy. The SWAR filter over-approximates (any byte
/// < 0x20 counts as a candidate even when its ACCM bit is clear), so
/// candidate words fall back to the map, which is the ground truth.
std::uint16_t appendEscaped(util::Bytes& out, const std::uint8_t* data, std::size_t size,
                            const EscapeMap& map, std::uint16_t fcs) {
    const std::uint8_t* p = data;
    const std::uint8_t* const end = data + size;
    const std::uint8_t* runStart = p;
    const auto flushRun = [&](const std::uint8_t* upTo) {
        if (upTo > runStart) out.insert(out.end(), runStart, upTo);
    };
    const auto escapeByte = [&](const std::uint8_t byte) {
        flushRun(p);
        out.push_back(kEscape);
        out.push_back(std::uint8_t(byte ^ kXor));
        runStart = p + 1;
    };
    if constexpr (std::endian::native == std::endian::little) {
        constexpr std::uint64_t kOnes = 0x0101010101010101ull;
        constexpr std::uint64_t kHigh = 0x8080808080808080ull;
        constexpr std::uint64_t kCtlMask = 0xe0e0e0e0e0e0e0e0ull;
        const bool scanCtl = map.accm != 0;  // any control char escapable at all?
        const FcsTables& tables = fcsTables();
        while (end - p >= 8) {
            std::uint64_t word;
            std::memcpy(&word, p, sizeof(word));
            const std::uint64_t flagHits = word ^ (kOnes * kFlag);
            const std::uint64_t escHits = word ^ (kOnes * kEscape);
            std::uint64_t hit = ((flagHits - kOnes) & ~flagHits & kHigh) |
                                ((escHits - kOnes) & ~escHits & kHigh);
            if (scanCtl) {
                const std::uint64_t highBits = word & kCtlMask;  // zero byte <=> < 0x20
                hit |= (highBits - kOnes) & ~highBits & kHigh;
            }
            if (hit == 0) {
                fcs = fcsStepWord(fcs, word, tables);
                p += 8;
                continue;
            }
            for (const std::uint8_t* wordEnd = p + 8; p != wordEnd; ++p) {
                const std::uint8_t byte = *p;
                fcs = fcsStep(fcs, byte);
                if (map.need[byte]) escapeByte(byte);
            }
        }
    }
    for (; p != end; ++p) {
        const std::uint8_t byte = *p;
        fcs = fcsStep(fcs, byte);
        if (map.need[byte]) escapeByte(byte);
    }
    flushRun(end);
    return fcs;
}

/// First flag or escape byte in [p, end), or end. Word-at-a-time: the
/// SWAR zero-in-word test against both patterns covers eight bytes per
/// step on little-endian targets.
const std::uint8_t* findSpecial(const std::uint8_t* p, const std::uint8_t* end) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
        constexpr std::uint64_t kOnes = 0x0101010101010101ull;
        constexpr std::uint64_t kHigh = 0x8080808080808080ull;
        while (end - p >= 8) {
            std::uint64_t word;
            std::memcpy(&word, p, sizeof(word));
            const std::uint64_t flagHits = word ^ (kOnes * kFlag);
            const std::uint64_t escHits = word ^ (kOnes * kEscape);
            const std::uint64_t hit = ((flagHits - kOnes) & ~flagHits & kHigh) |
                                      ((escHits - kOnes) & ~escHits & kHigh);
            if (hit) return p + (std::countr_zero(hit) >> 3);
            p += 8;
        }
    }
    while (p != end && *p != kFlag && *p != kEscape) ++p;
    return p;
}

}  // namespace

void encodeFrameInto(Protocol protocol, util::ByteView info, const FramerConfig& config,
                     util::Bytes& out) {
    // The FCS is folded into the escape scan, so the whole encode bills
    // to hdlc_encode.
    obs::ProfileScope scope(obs::ProfileCategory::hdlc_encode);
    const EscapeMap& map = escapeMapFor(config.sendAccm);
    out.clear();
    out.reserve(maxEncodedSize(info.size(), config));
    out.push_back(kFlag);

    std::array<std::uint8_t, 4> header;
    std::size_t headerLen = 0;
    if (!config.compressAddressControl) {
        header[headerLen++] = kAddress;
        header[headerLen++] = kControl;
    }
    const auto proto = std::uint16_t(protocol);
    if (config.compressProtocolField && proto <= 0xff) {
        header[headerLen++] = std::uint8_t(proto);
    } else {
        header[headerLen++] = std::uint8_t(proto >> 8);
        header[headerLen++] = std::uint8_t(proto);
    }

    std::uint16_t fcs = kFcsInit;
    fcs = appendEscaped(out, header.data(), headerLen, map, fcs);
    fcs = appendEscaped(out, info.data(), info.size(), map, fcs);
    fcs = std::uint16_t(~fcs & 0xffff);
    // FCS is transmitted least-significant byte first (RFC 1662).
    const std::uint8_t trailer[2] = {std::uint8_t(fcs & 0xff), std::uint8_t(fcs >> 8)};
    (void)appendEscaped(out, trailer, 2, map, kFcsInit);
    out.push_back(kFlag);
}

util::Bytes encodeFrame(const Frame& frame, const FramerConfig& config) {
    util::Bytes out;
    encodeFrameInto(frame.protocol, {frame.info.data(), frame.info.size()}, config, out);
    return out;
}

void Deframer::feed(util::ByteView data) {
    obs::ProfileScope scope(obs::ProfileCategory::hdlc_decode);
    const std::uint8_t* p = data.data();
    const std::uint8_t* const end = p + data.size();
    while (p != end) {
        if (escaped_) {
            const std::uint8_t byte = *p++;
            if (byte == kFlag) {
                escaped_ = false;
                endFrame();
                continue;
            }
            if (byte == kEscape) continue;  // repeated escape: stay armed
            escaped_ = false;
            const std::uint8_t unescaped = std::uint8_t(byte ^ kXor);
            appendRun(&unescaped, 1);
            continue;
        }
        const std::uint8_t* special = findSpecial(p, end);
        if (special != p) appendRun(p, std::size_t(special - p));
        if (special == end) return;
        if (*special == kFlag)
            endFrame();
        else
            escaped_ = true;
        p = special + 1;
    }
}

void Deframer::appendRun(const std::uint8_t* data, std::size_t size) {
    if (discarding_) return;
    if (current_.size() + size > maxFrame_) {
        // Oversized frame (flag-less garbage, or a peer violating the
        // MRU by orders of magnitude): drop what accumulated and skip
        // until the next flag resynchronises the stream.
        ++bad_;
        ++oversized_;
        obs::Registry::instance().counter("ppp.hdlc.oversize").inc();
        current_.clear();
        fcs_ = kFcsInit;
        discarding_ = true;
        return;
    }
    // The running FCS advances with the bytes as they land, so endFrame
    // validates without a second pass over the assembled frame. Short
    // runs (escape-dense wire chops the stream into 1-2 byte pieces)
    // step inline instead of paying the bulk-update call.
    if (size < 8) {
        for (std::size_t i = 0; i < size; ++i) fcs_ = fcsStep(fcs_, data[i]);
    } else {
        fcs_ = fcsUpdate(fcs_, {data, size});
    }
    current_.insert(current_.end(), data, data + size);
}

void Deframer::endFrame() {
    if (discarding_) {
        discarding_ = false;  // flag seen: resync, next frame is clean
        return;
    }
    if (current_.empty()) return;  // back-to-back flags
    const std::size_t size = current_.size();
    const std::uint16_t fcs = fcs_;  // accumulated by appendRun
    fcs_ = kFcsInit;
    // Minimum: protocol (1) + FCS (2).
    if (size < 3 || fcs != kFcsGood) {
        current_.clear();
        ++bad_;
        return;
    }
    const std::size_t payloadEnd = size - 2;  // strip FCS

    std::size_t offset = 0;
    // Address/control may be present (0xff 0x03) or elided (ACFC); the
    // receiver accepts both regardless of negotiation, per RFC 1662.
    if (payloadEnd >= 2 && current_[0] == kAddress && current_[1] == kControl) offset = 2;

    if (payloadEnd <= offset) {
        current_.clear();
        ++bad_;
        return;
    }
    // Protocol field: 2 bytes normally; 1 byte when PFC used (low bit
    // of the first byte set means "final, odd byte" => compressed).
    std::uint16_t protocol = 0;
    if (current_[offset] & 1) {
        protocol = current_[offset];
        offset += 1;
    } else {
        if (payloadEnd < offset + 2) {
            current_.clear();
            ++bad_;
            return;
        }
        protocol = std::uint16_t((current_[offset] << 8) | current_[offset + 1]);
        offset += 2;
    }

    Frame frame;
    frame.protocol = Protocol{protocol};
    frame.info.assign(current_.begin() + long(offset), current_.begin() + long(payloadEnd));
    current_.clear();  // keeps capacity for the next frame
    ++good_;
    if (handler_) handler_(std::move(frame));
}

void Deframer::reset() {
    current_.clear();
    fcs_ = kFcsInit;
    escaped_ = false;
    discarding_ = false;
}

std::size_t framingOverhead(const FramerConfig& config) noexcept {
    // flag + FCS(2) + flag = 4, plus addr/ctrl and protocol fields.
    std::size_t overhead = 4;
    if (!config.compressAddressControl) overhead += 2;
    overhead += config.compressProtocolField ? 1 : 2;
    return overhead;
}

std::size_t maxEncodedSize(std::size_t infoLen, const FramerConfig& config) noexcept {
    // Everything between the flags can double under stuffing.
    const std::size_t between = infoLen + framingOverhead(config) - 2;
    return 2 + 2 * between;
}

}  // namespace onelab::ppp
