#include "ditg/sender.hpp"

namespace onelab::ditg {

ItgSend::ItgSend(sim::Simulator& simulator, net::UdpSocket& socket, FlowSpec spec,
                 net::Ipv4Address destination, std::uint16_t destinationPort,
                 util::RandomStream rng)
    : sim_(simulator),
      socket_(&socket),
      spec_(std::move(spec)),
      destination_(destination),
      destinationPort_(destinationPort),
      rng_(std::move(rng)) {}

ItgSend::ItgSend(sim::Simulator& simulator, net::TcpHost& host, FlowSpec spec,
                 net::Ipv4Address destination, std::uint16_t destinationPort,
                 util::RandomStream rng, int sliceXid, const net::TcpOptions& options)
    : sim_(simulator),
      host_(&host),
      spec_(std::move(spec)),
      destination_(destination),
      destinationPort_(destinationPort),
      rng_(std::move(rng)),
      sliceXid_(sliceXid),
      options_(options) {
    log_.transport = FlowTransport::tcp;
}

ItgSend::~ItgSend() {
    *alive_ = false;
    sim_.cancel(pending_);
}

void ItgSend::start(std::function<void()> onComplete) {
    onComplete_ = std::move(onComplete);
    if (socket_) {
        socket_->onReceive([this, alive = alive_](net::Datagram dgram) {
            if (*alive) onAck({dgram.payload.data(), dgram.payload.size()}, dgram.rxTime);
        });
        scheduleStart();
        return;
    }
    conn_ = host_->connect(destination_, destinationPort_, sliceXid_, {}, options_);
    conn_->onData = [this, alive = alive_](util::ByteView data) {
        if (!*alive) return;
        ackStream_.feed(data, [this](util::ByteView probe) { onAck(probe, sim_.now()); });
    };
    conn_->onConnected = [this, alive = alive_] {
        if (*alive) scheduleStart();
    };
}

void ItgSend::scheduleStart() {
    pending_ = sim_.schedule(sim::seconds(spec_.startOffsetSeconds), [this] {
        endTime_ = sim_.now() + sim::seconds(spec_.durationSeconds);
        emitPacket();
    });
}

void ItgSend::onAck(util::ByteView probe, sim::SimTime rxTime) {
    const auto header = ProbeHeader::decode(probe);
    if (!header || !header->isAck || header->flowId != spec_.flowId) return;
    const sim::SimTime txTime{header->txTimeNs};
    const sim::SimTime rtt = rxTime - txTime;
    rttMetric_.observe(double(rtt.count()) / 1e3);
    log_.rtts.push_back(RttRecord{header->sequence, txTime, rtt});
}

void ItgSend::scheduleNext() {
    const double idt = std::max(1e-6, spec_.idtSeconds->sample(rng_));
    const sim::SimTime next = sim_.now() + sim::seconds(idt);
    if (next >= endTime_) {
        finished_ = true;
        logger_.info() << "flow '" << spec_.name << "' done: " << sent_ << " packets, "
                       << sendErrors_ << " send errors";
        // Orderly TCP close: the FIN trails the queued probes; ACK
        // probes still drain on the read side afterwards.
        if (conn_) conn_->close();
        if (onComplete_) onComplete_();
        return;
    }
    pending_ = sim_.scheduleAt(next, [this] { emitPacket(); });
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

    util::Bytes probe = header.encode(payloadSize);
    // Over TCP, one send() per framed probe: TCP may still split or
    // coalesce the bytes on the wire — the receiver's ProbeStream
    // handles that — but queueing prefix+payload atomically means the
    // log counts each probe exactly once.
    const auto sent = socket_ ? socket_->sendTo(destination_, destinationPort_, std::move(probe))
                              : conn_->send(ProbeStream::frame(probe));
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
