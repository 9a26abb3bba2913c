#include "ditg/receiver.hpp"

namespace onelab::ditg {

ItgRecv::ItgRecv(net::UdpSocket& socket, bool sendAcks)
    : socket_(&socket),
      sendAcks_(sendAcks) {
    socket_->onReceive([this](net::Datagram dgram) {
        onProbe({dgram.payload.data(), dgram.payload.size()}, dgram.rxTime, nullptr, dgram.src,
                dgram.srcPort);
    });
}

ItgRecv::ItgRecv(sim::Simulator& simulator, net::TcpHost& host, std::uint16_t port,
                 bool sendAcks, int sliceXid, const net::TcpOptions& options)
    : host_(&host),
      port_(port),
      sendAcks_(sendAcks) {
    (void)host_->listen(
        port_,
        [this, &simulator](net::TcpConnection& conn) {
            ++accepted_;
            streams_.emplace(&conn, ProbeStream{});
            conn.onData = [this, &simulator, &conn](util::ByteView data) {
                streams_[&conn].feed(data, [this, &simulator, &conn](util::ByteView probe) {
                    onProbe(probe, simulator.now(), &conn);
                });
            };
            // The sender's FIN ends the flow: close our side too so
            // the connection walks through to CLOSED and is reapable.
            // Queued ACK echoes drain before our FIN goes out.
            conn.onPeerClosed = [&conn] { conn.close(); };
            conn.onClosed = [this, &conn] { streams_.erase(&conn); };
        },
        sliceXid, options);
}

ItgRecv::~ItgRecv() {
    if (!host_) return;
    host_->stopListening(port_);
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

void ItgRecv::onProbe(util::ByteView probe, sim::SimTime rxTime, net::TcpConnection* conn,
                      net::Ipv4Address from, std::uint16_t fromPort) {
    const auto header = ProbeHeader::decode(probe);
    if (!header || header->isAck) return;
    ++received_;
    receivedMetric_.inc();
    owdMetric_.observe(double((rxTime - sim::SimTime{header->txTimeNs}).count()) / 1e3);
    RxRecord record;
    record.flowId = header->flowId;
    record.sequence = header->sequence;
    record.payloadBytes = probe.size();
    record.txTime = sim::SimTime{header->txTimeNs};
    record.rxTime = rxTime;
    ReceiverLog& flowLog = logs_[header->flowId];
    flowLog.transport = conn ? FlowTransport::tcp : FlowTransport::udp;
    flowLog.packets.push_back(record);

    if (!sendAcks_) return;
    ProbeHeader ack = *header;
    ack.isAck = true;
    util::Bytes echo = ack.encode(ProbeHeader::kSize);
    const auto sent = conn ? conn->send(ProbeStream::frame(echo))
                           : socket_->sendTo(from, fromPort, std::move(echo));
    if (sent.ok()) {
        ++acksSent_;
        acksSentMetric_.inc();
    }
}

const ReceiverLog& ItgRecv::log(std::uint16_t flowId) const {
    return logs_[flowId];  // default-constructed (empty) if unseen
}

}  // namespace onelab::ditg
