#pragma once

#include <cstdint>
#include <functional>

#include "util/bytes.hpp"

namespace onelab::ppp {

/// PPP protocol numbers used by this implementation.
enum class Protocol : std::uint16_t {
    ip = 0x0021,
    compressed_datagram = 0x00fd,
    ipcp = 0x8021,
    ccp = 0x80fd,
    lcp = 0xc021,
    pap = 0xc023,
    chap = 0xc223,
};

/// One decoded PPP frame: protocol + information field.
struct Frame {
    Protocol protocol{};
    util::Bytes info;
};

/// Framing knobs negotiated by LCP. Until LCP completes both ends use
/// the defaults (all control characters escaped, full address/control
/// and protocol fields), per RFC 1662.
struct FramerConfig {
    std::uint32_t sendAccm = 0xffffffff;  ///< chars 0x00..0x1f to escape on tx
    bool compressProtocolField = false;   ///< PFC: 1-byte protocol when <= 0xff
    bool compressAddressControl = false;  ///< ACFC: omit 0xff 0x03
};

/// Encode a frame into RFC 1662 async HDLC-like framing: flag, address
/// 0xff, control 0x03, protocol, information, FCS-16, flag — with byte
/// stuffing per the send ACCM (flag/escape always escaped).
[[nodiscard]] util::Bytes encodeFrame(const Frame& frame, const FramerConfig& config);

/// The allocation-free form the datapath uses: encode protocol + info
/// into `out` (its contents are replaced — pass a pooled buffer to
/// recycle its capacity). One pass: maximal no-escape runs are
/// bulk-copied with the FCS fused into the same scan, into a buffer
/// sized to maxEncodedSize() up front and trimmed to the frame after.
void encodeFrameInto(Protocol protocol, util::ByteView info, const FramerConfig& config,
                     util::Bytes& out);

/// Incremental deframer: feed received bytes, emit complete validated
/// frames. Frames with a bad FCS or shorter than protocol+FCS are
/// dropped and counted. Runs of three or more ordinary bytes are
/// located with a word-at-a-time scan and bulk-appended into a reused
/// frame buffer; escape pairs and shorter runs step byte by byte.
class Deframer {
  public:
    /// Handler invoked for each good frame.
    void onFrame(std::function<void(Frame)> handler) { handler_ = std::move(handler); }

    /// Feed raw bytes from the line.
    void feed(util::ByteView data);

    /// Drop any partial frame (used when (re)starting the link).
    void reset();

    /// Cap on the accumulated (unescaped) frame bytes. A flag-less
    /// garbage stream can otherwise grow the frame buffer without
    /// bound; an oversized frame is dropped (badFrames + the
    /// ppp.hdlc.oversize counter) and the stream resynchronises at the
    /// next flag.
    void setMaxFrameLength(std::size_t bytes) noexcept { maxFrame_ = bytes; }
    [[nodiscard]] std::size_t maxFrameLength() const noexcept { return maxFrame_; }

    [[nodiscard]] std::uint64_t goodFrames() const noexcept { return good_; }
    [[nodiscard]] std::uint64_t badFrames() const noexcept { return bad_; }
    /// Frames dropped by the max-frame-length guard (also in bad_).
    [[nodiscard]] std::uint64_t oversizedFrames() const noexcept { return oversized_; }

  private:
    static constexpr std::size_t kDefaultMaxFrameLength = 64 * 1024;

    void appendByte(std::uint8_t byte);
    void appendRun(const std::uint8_t* data, std::size_t size);
    void dropOversized();
    void endFrame();

    std::function<void(Frame)> handler_;
    util::Bytes current_;
    bool escaped_ = false;
    bool discarding_ = false;  ///< oversized frame: skip until the next flag
    std::size_t maxFrame_ = kDefaultMaxFrameLength;
    std::uint64_t good_ = 0;
    std::uint64_t bad_ = 0;
    std::uint64_t oversized_ = 0;
};

/// Rough per-frame byte overhead of the framing (flags, addr/ctrl,
/// protocol, FCS) before stuffing, for capacity accounting.
[[nodiscard]] std::size_t framingOverhead(const FramerConfig& config) noexcept;

/// Worst-case encoded size of a frame carrying `infoLen` info bytes:
/// every field byte (including both FCS bytes) escaping to two, plus
/// the two flags. The encode path sizes its output to this; callers sizing
/// buffers from framingOverhead() alone under-reserve on escape-heavy
/// payloads.
[[nodiscard]] std::size_t maxEncodedSize(std::size_t infoLen,
                                         const FramerConfig& config) noexcept;

}  // namespace onelab::ppp
