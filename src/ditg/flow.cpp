#include "ditg/flow.hpp"

#include <cmath>

namespace onelab::ditg {

util::Bytes ProbeHeader::encode(std::size_t paddedSize) const {
    util::Bytes out;
    out.reserve(std::max(paddedSize, kSize));
    util::putU16(out, kMagic);
    util::putU16(out, flowId);
    util::putU32(out, sequence);
    util::putU64(out, std::uint64_t(txTimeNs));
    util::putU8(out, isAck ? 1 : 0);
    if (out.size() < paddedSize) out.resize(paddedSize, 0);
    return out;
}

std::optional<ProbeHeader> ProbeHeader::decode(util::ByteView payload) {
    if (payload.size() < kSize) return std::nullopt;
    util::ByteReader reader{payload};
    if (reader.u16() != kMagic) return std::nullopt;
    ProbeHeader header;
    header.flowId = reader.u16();
    header.sequence = reader.u32();
    header.txTimeNs = std::int64_t(reader.u64());
    header.isAck = reader.u8() != 0;
    return header;
}

void ProbeStream::feed(util::ByteView data,
                       const std::function<void(util::ByteView)>& onProbe) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    std::size_t offset = 0;
    while (buffer_.size() - offset >= 2) {
        const std::size_t length =
            (std::size_t(buffer_[offset]) << 8) | std::size_t(buffer_[offset + 1]);
        if (buffer_.size() - offset - 2 < length) break;
        onProbe(util::ByteView{buffer_.data() + offset + 2, length});
        offset += 2 + length;
    }
    if (offset > 0) buffer_.erase(buffer_.begin(), buffer_.begin() + long(offset));
}

util::Bytes ProbeStream::frame(util::ByteView probe) {
    util::Bytes framed;
    framed.reserve(probe.size() + 2);
    framed.push_back(std::uint8_t(probe.size() >> 8));
    framed.push_back(std::uint8_t(probe.size() & 0xff));
    framed.insert(framed.end(), probe.begin(), probe.end());
    return framed;
}

double FlowSpec::nominalKbps() const {
    if (!idtSeconds || !payloadBytes) return 0.0;
    const double idt = idtSeconds->mean();
    const double ps = payloadBytes->mean();
    if (!(idt > 0.0) || std::isnan(idt) || std::isnan(ps)) return 0.0;
    return ps * 8.0 / idt / 1000.0;
}

FlowSpec cbrFlow(std::uint16_t flowId, double packetsPerSecond, std::size_t payloadSize,
                 double durationSeconds, std::string name) {
    FlowSpec spec;
    spec.name = std::move(name);
    spec.flowId = flowId;
    spec.idtSeconds = util::constantVariable(1.0 / packetsPerSecond);
    spec.payloadBytes = util::constantVariable(double(payloadSize));
    spec.durationSeconds = durationSeconds;
    return spec;
}

FlowSpec voipG711Flow(std::uint16_t flowId, double durationSeconds) {
    // 90 B * 100 pkt/s * 8 = 72 kbps, the paper's "VoIP-like" G.711
    // profile.
    return cbrFlow(flowId, 100.0, 90, durationSeconds, "voip-g711");
}

FlowSpec cbr1MbpsFlow(std::uint16_t flowId, double durationSeconds) {
    // 1024 B at 122 pkt/s ~ 0.999 Mbps, the paper's saturating flow.
    return cbrFlow(flowId, 122.0, 1024, durationSeconds, "cbr-1mbps");
}

FlowSpec voipG729Flow(std::uint16_t flowId, double durationSeconds) {
    // Two 10-byte G.729 frames + 12 B RTP-style header per packet at
    // 50 pkt/s: 32 B payload, 12.8 kbps application rate.
    return cbrFlow(flowId, 50.0, 32, durationSeconds, "voip-g729");
}

FlowSpec telnetFlow(std::uint16_t flowId, double durationSeconds) {
    FlowSpec spec;
    spec.name = "telnet";
    spec.flowId = flowId;
    spec.idtSeconds = util::exponentialVariable(0.25);       // keystroke bursts
    spec.payloadBytes = util::uniformVariable(17, 64);       // >= probe header
    spec.durationSeconds = durationSeconds;
    return spec;
}

FlowSpec dnsFlow(std::uint16_t flowId, double durationSeconds) {
    FlowSpec spec;
    spec.name = "dns";
    spec.flowId = flowId;
    spec.idtSeconds = util::exponentialVariable(1.0);        // Poisson queries
    spec.payloadBytes = util::uniformVariable(40, 120);
    spec.durationSeconds = durationSeconds;
    return spec;
}

FlowSpec gamingFlow(std::uint16_t flowId, double durationSeconds) {
    FlowSpec spec;
    spec.name = "gaming";
    spec.flowId = flowId;
    spec.idtSeconds = util::constantVariable(1.0 / 30.0);    // 30 Hz client ticks
    spec.payloadBytes = util::normalVariable(80.0, 10.0, 40.0);
    spec.durationSeconds = durationSeconds;
    return spec;
}

}  // namespace onelab::ditg
