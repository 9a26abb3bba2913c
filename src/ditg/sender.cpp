#include "ditg/sender.hpp"

namespace onelab::ditg {

/// Buckets for the microsecond latency histograms: 1 ms .. ~32 s.
static constexpr obs::HistogramSpec kLatencyUsBuckets{1000.0, 2.0, 16};

ItgSend::ItgSend(sim::Simulator& simulator, net::UdpSocket& socket, FlowSpec spec,
                 net::Ipv4Address destination, std::uint16_t destinationPort,
                 util::RandomStream rng)
    : sim_(simulator),
      socket_(socket),
      spec_(std::move(spec)),
      destination_(destination),
      destinationPort_(destinationPort),
      rng_(std::move(rng)),
      sentMetric_(obs::Registry::instance().counter("ditg.flow.packets_sent")),
      sendErrorsMetric_(obs::Registry::instance().counter("ditg.flow.send_errors")),
      rttMetric_(obs::Registry::instance().histogram("ditg.flow.rtt_us", kLatencyUsBuckets)) {}

void ItgSend::start(std::function<void()> onComplete) {
    onComplete_ = std::move(onComplete);
    socket_.onReceive([this](net::Datagram dgram) {
        const auto header = ProbeHeader::decode({dgram.payload.data(), dgram.payload.size()});
        if (!header || !header->isAck || header->flowId != spec_.flowId) return;
        const sim::SimTime txTime{header->txTimeNs};
        const sim::SimTime rtt = dgram.rxTime - txTime;
        rttMetric_.observe(double(rtt.count()) / 1e3);
        log_.rtts.push_back(RttRecord{header->sequence, txTime, rtt});
    });
    sim_.schedule(sim::seconds(spec_.startOffsetSeconds), [this] {
        endTime_ = sim_.now() + sim::seconds(spec_.durationSeconds);
        emitPacket();
    });
}

void ItgSend::scheduleNext() {
    const double idt = std::max(1e-6, spec_.idtSeconds->sample(rng_));
    const sim::SimTime next = sim_.now() + sim::seconds(idt);
    if (next >= endTime_) {
        finished_ = true;
        logger_.info() << "flow '" << spec_.name << "' done: " << sent_ << " packets, "
                       << sendErrors_ << " send errors";
        if (onComplete_) onComplete_();
        return;
    }
    sim_.scheduleAt(next, [this] { emitPacket(); });
}

void ItgSend::emitPacket() {
    const double psSample = spec_.payloadBytes->sample(rng_);
    const std::size_t payloadSize =
        std::max<std::size_t>(ProbeHeader::kSize, std::size_t(psSample));

    ProbeHeader header;
    header.flowId = spec_.flowId;
    header.sequence = nextSequence_++;
    header.txTimeNs = sim_.now().count();
    header.isAck = false;

    TxRecord record;
    record.sequence = header.sequence;
    record.payloadBytes = payloadSize;
    record.txTime = sim_.now();

    const auto sent = socket_.sendTo(destination_, destinationPort_,
                                     header.encode(payloadSize));
    if (sent.ok()) {
        ++sent_;
        sentMetric_.inc();
    } else {
        ++sendErrors_;
        sendErrorsMetric_.inc();
        record.sendFailed = true;
    }
    log_.packets.push_back(record);
    scheduleNext();
}

}  // namespace onelab::ditg
