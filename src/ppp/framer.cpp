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

constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kHigh = 0x8080808080808080ull;

/// SWAR zero-byte test: the high bit of each zero byte lane of `word`
/// is set. It can also flag the lane above a zero lane, never miss one,
/// so the lowest set bit is always exact.
constexpr std::uint64_t zeroLanes(std::uint64_t word) noexcept {
    return (word - kOnes) & ~word & kHigh;
}

/// Lanes holding a flag or escape byte (plus the lane above one).
constexpr std::uint64_t specialLanes(std::uint64_t word) noexcept {
    return zeroLanes(word ^ (kOnes * kFlag)) | zeroLanes(word ^ (kOnes * kEscape));
}

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

/// Write `data` escaped per `map` at `cursor` (room for every byte to
/// double), folding the bytes into the running FCS as they are
/// scanned. One pass over sixteen-byte blocks: the two words are
/// loaded once, and since the FCS covers the unescaped bytes the same
/// registers feed the slice-by-16 step whether or not a byte escapes.
/// Maximal no-escape runs become one copy. The SWAR filter
/// over-approximates (any byte < 0x20 counts as a candidate even when
/// its ACCM bit is clear), so only candidate bytes are looked up in
/// the map, which is the ground truth. The 8-byte step and byte steps
/// finish the tail.
std::uint16_t appendEscaped(std::uint8_t*& cursor, const std::uint8_t* data, std::size_t size,
                            const EscapeMap& map, std::uint16_t fcs) {
    std::uint8_t* w = cursor;
    const std::uint8_t* p = data;
    const std::uint8_t* const end = data + size;
    const std::uint8_t* runStart = p;
    const auto copyRun = [&](const std::uint8_t* upTo) {
        if (upTo == runStart) return;  // back-to-back escapes
        std::memcpy(w, runStart, std::size_t(upTo - runStart));
        w += upTo - runStart;
    };
    const auto escapeAt = [&](const std::uint8_t* at) {
        copyRun(at);
        w[0] = kEscape;
        w[1] = std::uint8_t(*at ^ kXor);
        w += 2;
        runStart = at + 1;
    };
    if constexpr (std::endian::native == std::endian::little) {
        constexpr std::uint64_t kCtlMask = 0xe0e0e0e0e0e0e0e0ull;
        const bool scanCtl = map.accm != 0;  // any control char escapable at all?
        const FcsTables& tables = fcsTables();
        // Lanes that may need escaping; a masked lane is zero <=> < 0x20.
        const auto candidates = [&](const std::uint64_t word) {
            return specialLanes(word) | (scanCtl ? zeroLanes(word & kCtlMask) : 0);
        };
        const auto escapeCandidates = [&](const std::uint8_t* base, std::uint64_t hit) {
            for (; hit != 0; hit &= hit - 1) {
                const std::uint8_t* at = base + (std::countr_zero(hit) >> 3);
                if (map.need[*at]) escapeAt(at);
            }
        };
        while (end - p >= 16) {
            std::uint64_t low;
            std::uint64_t high;
            std::memcpy(&low, p, sizeof(low));
            std::memcpy(&high, p + 8, sizeof(high));
            fcs = fcsStepWords(fcs, low, high, tables);
            escapeCandidates(p, candidates(low));
            escapeCandidates(p + 8, candidates(high));
            p += 16;
        }
        if (end - p >= 8) {
            std::uint64_t word;
            std::memcpy(&word, p, sizeof(word));
            fcs = fcsStepWord(fcs, word, tables);
            escapeCandidates(p, candidates(word));
            p += 8;
        }
    }
    for (; p != end; ++p) {
        fcs = fcsStep(fcs, *p);
        if (map.need[*p]) escapeAt(p);
    }
    copyRun(end);
    cursor = w;
    return fcs;
}

/// First flag or escape byte in [p, end), or end. Word-at-a-time: the
/// SWAR zero-in-word test against both patterns covers eight bytes per
/// step on little-endian targets.
const std::uint8_t* findSpecial(const std::uint8_t* p, const std::uint8_t* end) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
        while (end - p >= 8) {
            std::uint64_t word;
            std::memcpy(&word, p, sizeof(word));
            const std::uint64_t hit = specialLanes(word);
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
    // Sized to the worst case up front, then trimmed to what was
    // written: the scan stores through a plain cursor.
    out.resize(maxEncodedSize(info.size(), config));
    std::uint8_t* w = out.data();
    *w++ = kFlag;

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
    fcs = appendEscaped(w, header.data(), headerLen, map, fcs);
    fcs = appendEscaped(w, info.data(), info.size(), map, fcs);
    fcs = std::uint16_t(~fcs & 0xffff);
    // FCS is transmitted least-significant byte first (RFC 1662).
    const std::uint8_t trailer[2] = {std::uint8_t(fcs & 0xff), std::uint8_t(fcs >> 8)};
    (void)appendEscaped(w, trailer, 2, map, kFcsInit);
    *w++ = kFlag;
    out.resize(std::size_t(w - out.data()));
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
        const std::uint8_t byte = *p++;
        if (byte == kFlag) {
            escaped_ = false;
            endFrame();
            continue;
        }
        if (byte == kEscape) {
            escaped_ = true;  // a repeated escape stays armed
            continue;
        }
        if (escaped_) {
            escaped_ = false;
            appendByte(std::uint8_t(byte ^ kXor));
            continue;
        }
        // Escape-dense wire chops the stream into 1-2 byte runs: those
        // land byte by byte here. Longer runs take the word scan and
        // one bulk append.
        if (end - p >= 2 && p[0] != kFlag && p[0] != kEscape && p[1] != kFlag &&
            p[1] != kEscape) {
            const std::uint8_t* const run = p - 1;
            p = findSpecial(p + 2, end);
            appendRun(run, std::size_t(p - run));
            continue;
        }
        appendByte(byte);
    }
}

void Deframer::appendByte(std::uint8_t byte) {
    if (discarding_) return;
    if (current_.size() >= maxFrame_) {
        dropOversized();
        return;
    }
    current_.push_back(byte);
}

void Deframer::appendRun(const std::uint8_t* data, std::size_t size) {
    if (discarding_) return;
    if (current_.size() + size > maxFrame_) {
        dropOversized();
        return;
    }
    current_.insert(current_.end(), data, data + size);
}

void Deframer::dropOversized() {
    // Oversized frame (flag-less garbage, or a peer violating the MRU
    // by orders of magnitude): drop what accumulated and skip until the
    // next flag resynchronises the stream.
    ++bad_;
    ++oversized_;
    obs::Registry::instance().counter("ppp.hdlc.oversize").inc();
    current_.clear();
    discarding_ = true;
}

void Deframer::endFrame() {
    if (discarding_) {
        discarding_ = false;  // flag seen: resync, next frame is clean
        return;
    }
    if (current_.empty()) return;  // back-to-back flags
    const std::size_t size = current_.size();
    // One slice-by-16 pass over the assembled frame, still in cache.
    // Minimum: protocol (1) + FCS (2).
    if (size < 3 || !fcsValid({current_.data(), size})) {
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
