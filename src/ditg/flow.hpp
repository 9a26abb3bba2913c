#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "util/bytes.hpp"
#include "util/rand.hpp"

namespace onelab::ditg {

/// Probe packet header carried in every D-ITG payload: flow id,
/// sequence number and the sender timestamp (what ITGDec uses to
/// compute OWD/RTT/loss). ACKs echo the header back with the ack flag.
struct ProbeHeader {
    static constexpr std::uint16_t kMagic = 0xD174;
    static constexpr std::size_t kSize = 17;

    std::uint16_t flowId = 0;
    std::uint32_t sequence = 0;
    std::int64_t txTimeNs = 0;
    bool isAck = false;

    [[nodiscard]] util::Bytes encode(std::size_t paddedSize) const;
    static std::optional<ProbeHeader> decode(util::ByteView payload);
};

/// Length-prefixed probe framing for TCP flows: each probe rides the
/// byte stream as u16 length (big-endian) + the padded probe payload.
/// TCP hands back arbitrary chunks; the framer reassembles them into
/// complete probes.
class ProbeStream {
  public:
    /// Append stream bytes; invokes `onProbe` for every completed
    /// probe payload (in stream order).
    void feed(util::ByteView data, const std::function<void(util::ByteView)>& onProbe);

    /// Frame one probe payload for transmission.
    [[nodiscard]] static util::Bytes frame(util::ByteView probe);

  private:
    util::Bytes buffer_;
};

/// One traffic flow specification, mirroring D-ITG's command line: an
/// inter-departure-time process, a packet-size process, and a
/// duration. Both processes may be any of the supported stochastic
/// models (constant, uniform, exponential, pareto, normal, cauchy,
/// weibull, gamma). The transport (D-ITG's -T) is chosen by the
/// ItgSend constructor, not by the spec.
struct FlowSpec {
    std::string name;
    std::uint16_t flowId = 1;
    util::RandomVariablePtr idtSeconds;   ///< inter-departure time [s]
    util::RandomVariablePtr payloadBytes; ///< packet size [bytes, >= header]
    double durationSeconds = 120.0;
    double startOffsetSeconds = 0.0;

    /// Nominal offered rate in kbps when both processes have means.
    [[nodiscard]] double nominalKbps() const;
};

/// The paper's first workload (§3.1): a VoIP-like flow resembling a
/// G.711 call — 72 kbps of UDP CBR, 90-byte payloads at 100 pkt/s.
[[nodiscard]] FlowSpec voipG711Flow(std::uint16_t flowId = 1, double durationSeconds = 120.0);

/// The paper's second workload: 1 Mbps UDP CBR, 1024-byte payloads at
/// 122 pkt/s, saturating the UMTS uplink.
[[nodiscard]] FlowSpec cbr1MbpsFlow(std::uint16_t flowId = 2, double durationSeconds = 120.0);

/// Generic CBR helper.
[[nodiscard]] FlowSpec cbrFlow(std::uint16_t flowId, double packetsPerSecond,
                               std::size_t payloadSize, double durationSeconds,
                               std::string name = "cbr");

// --- application presets modelled after D-ITG's application-level
// --- generators (the IMS-era applications §2.1 motivates) ---

/// G.729 voice: 2 frames per packet, 50 pkt/s, ~13 kbps with headers.
[[nodiscard]] FlowSpec voipG729Flow(std::uint16_t flowId, double durationSeconds);

/// Telnet-style interactive session: exponential keystroke bursts,
/// small uniform payloads.
[[nodiscard]] FlowSpec telnetFlow(std::uint16_t flowId, double durationSeconds);

/// DNS-style request traffic: Poisson queries, small variable payloads.
[[nodiscard]] FlowSpec dnsFlow(std::uint16_t flowId, double durationSeconds);

/// Counter-Strike-like gaming client: steady tick rate, normal payload
/// sizes around 80 B.
[[nodiscard]] FlowSpec gamingFlow(std::uint16_t flowId, double durationSeconds);

}  // namespace onelab::ditg
