#include "ditg/tcp_flow.hpp"

#include "util/bytes.hpp"

namespace onelab::ditg {

static constexpr obs::HistogramSpec kTcpLatencyUsBuckets{1000.0, 2.0, 16};

// ------------------------------------------------------------ framing

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

// --------------------------------------------------------- ItgTcpSend

ItgTcpSend::ItgTcpSend(sim::Simulator& simulator, net::TcpHost& host, FlowSpec spec,
                       net::Ipv4Address destination, std::uint16_t destinationPort,
                       util::RandomStream rng, int sliceXid,
                       const net::TcpOptions& options)
    : sim_(simulator),
      host_(host),
      spec_(std::move(spec)),
      destination_(destination),
      destinationPort_(destinationPort),
      rng_(std::move(rng)),
      sliceXid_(sliceXid),
      options_(options),
      sentMetric_(obs::Registry::instance().counter("ditg.flow.packets_sent")),
      sendErrorsMetric_(obs::Registry::instance().counter("ditg.flow.send_errors")),
      rttMetric_(obs::Registry::instance().histogram("ditg.flow.rtt_us",
                                                     kTcpLatencyUsBuckets)) {
    spec_.transport = FlowTransport::tcp;
    log_.transport = FlowTransport::tcp;
}

ItgTcpSend::~ItgTcpSend() { *alive_ = false; }

void ItgTcpSend::start(std::function<void()> onComplete) {
    onComplete_ = std::move(onComplete);
    conn_ = host_.connect(destination_, destinationPort_, sliceXid_, {}, options_);
    conn_->onData = [this, alive = alive_](util::ByteView data) {
        if (!*alive) return;
        ackStream_.feed(data, [this](util::ByteView probe) {
            const auto header = ProbeHeader::decode(probe);
            if (!header || !header->isAck || header->flowId != spec_.flowId) return;
            const sim::SimTime txTime{header->txTimeNs};
            const sim::SimTime rtt = sim_.now() - txTime;
            rttMetric_.observe(double(rtt.count()) / 1e3);
            log_.rtts.push_back(RttRecord{header->sequence, txTime, rtt});
        });
    };
    conn_->onConnected = [this, alive = alive_] {
        if (!*alive) return;
        sim_.schedule(sim::seconds(spec_.startOffsetSeconds), [this, alive] {
            if (!*alive) return;
            endTime_ = sim_.now() + sim::seconds(spec_.durationSeconds);
            emitProbe();
        });
    };
}

void ItgTcpSend::scheduleNext() {
    const double idt = std::max(1e-6, spec_.idtSeconds->sample(rng_));
    const sim::SimTime next = sim_.now() + sim::seconds(idt);
    if (next >= endTime_) {
        finished_ = true;
        logger_.info() << "tcp flow '" << spec_.name << "' done: " << sent_
                       << " probes, " << sendErrors_ << " send errors";
        // Orderly close: the FIN trails the queued probes; ACK probes
        // still drain on the read side afterwards.
        conn_->close();
        if (onComplete_) onComplete_();
        return;
    }
    sim_.scheduleAt(next, [this, alive = alive_] {
        if (*alive) emitProbe();
    });
}

void ItgTcpSend::emitProbe() {
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

    // One send() per framed probe: TCP may still split or coalesce the
    // bytes arbitrarily on the wire — the receiver's framer handles
    // that — but queueing prefix+payload atomically means the log
    // counts each probe exactly once.
    const util::Bytes framed = ProbeStream::frame(header.encode(payloadSize));
    const auto queued = conn_->send({framed.data(), framed.size()});
    if (queued.ok()) {
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

// --------------------------------------------------------- ItgTcpRecv

ItgTcpRecv::ItgTcpRecv(sim::Simulator& simulator, net::TcpHost& host,
                       std::uint16_t port, bool sendAcks, int sliceXid,
                       const net::TcpOptions& options)
    : sim_(simulator),
      host_(host),
      port_(port),
      sendAcks_(sendAcks),
      receivedMetric_(obs::Registry::instance().counter("ditg.flow.packets_received")),
      acksSentMetric_(obs::Registry::instance().counter("ditg.flow.acks_sent")),
      owdMetric_(obs::Registry::instance().histogram("ditg.flow.owd_us",
                                                     kTcpLatencyUsBuckets)) {
    (void)host_.listen(
        port_,
        [this](net::TcpConnection& conn) {
            ++accepted_;
            streams_.emplace(&conn, ProbeStream{});
            conn.onData = [this, &conn](util::ByteView data) {
                streams_[&conn].feed(
                    data, [this, &conn](util::ByteView probe) { onProbe(conn, probe); });
            };
            // The sender's FIN ends the flow: close our side too so
            // the connection walks through to CLOSED and is reapable.
            // Queued ACK echoes drain before our FIN goes out.
            conn.onPeerClosed = [&conn] { conn.close(); };
            conn.onClosed = [this, &conn] { streams_.erase(&conn); };
        },
        sliceXid, options);
}

ItgTcpRecv::~ItgTcpRecv() {
    host_.stopListening(port_);
    // Accepted connections can outlive the receiver: a peer that
    // vanished mid-close (carrier loss, injected faults) leaves the
    // connection parked in the host, still holding callbacks into
    // this object. A retransmission arriving after destruction would
    // then feed a freed ProbeStream. Detach everything we installed
    // and abort the leftovers so the host can reap them. onClosed is
    // cleared first: abort() finishes the connection, and the erase
    // it would trigger must not run mid-iteration.
    for (auto& [conn, stream] : streams_) {
        conn->onData = nullptr;
        conn->onPeerClosed = nullptr;
        conn->onClosed = nullptr;
        conn->abort();
    }
}

void ItgTcpRecv::onProbe(net::TcpConnection& conn, util::ByteView probe) {
    const auto header = ProbeHeader::decode(probe);
    if (!header || header->isAck) return;

    RxRecord record;
    record.flowId = header->flowId;
    record.sequence = header->sequence;
    record.payloadBytes = probe.size();
    record.txTime = sim::SimTime{header->txTimeNs};
    record.rxTime = sim_.now();
    logs_[header->flowId].packets.push_back(record);
    logs_[header->flowId].transport = FlowTransport::tcp;
    ++received_;
    receivedMetric_.inc();
    owdMetric_.observe(double((record.rxTime - record.txTime).count()) / 1e3);

    if (!sendAcks_) return;
    ProbeHeader ack = *header;
    ack.isAck = true;
    const util::Bytes framed = ProbeStream::frame(ack.encode(ProbeHeader::kSize));
    if (conn.send({framed.data(), framed.size()}).ok()) {
        ++acksSent_;
        acksSentMetric_.inc();
    }
}

const ReceiverLog& ItgTcpRecv::log(std::uint16_t flowId) const {
    return logs_[flowId];  // default-constructed (empty) if unseen
}

}  // namespace onelab::ditg
