#include "ditg/receiver.hpp"

namespace onelab::ditg {

/// Same bucket layout as the sender's rtt_us histogram.
static constexpr obs::HistogramSpec kOwdUsBuckets{1000.0, 2.0, 16};

ItgRecv::ItgRecv(net::UdpSocket& socket, bool sendAcks)
    : socket_(socket),
      sendAcks_(sendAcks),
      receivedMetric_(obs::Registry::instance().counter("ditg.flow.packets_received")),
      acksSentMetric_(obs::Registry::instance().counter("ditg.flow.acks_sent")),
      owdMetric_(obs::Registry::instance().histogram("ditg.flow.owd_us", kOwdUsBuckets)) {
    socket_.onReceive([this](net::Datagram dgram) {
        const auto header = ProbeHeader::decode({dgram.payload.data(), dgram.payload.size()});
        if (!header || header->isAck) return;
        ++received_;
        receivedMetric_.inc();
        owdMetric_.observe(double((dgram.rxTime - sim::SimTime{header->txTimeNs}).count()) /
                           1e3);
        RxRecord record;
        record.flowId = header->flowId;
        record.sequence = header->sequence;
        record.payloadBytes = dgram.payload.size();
        record.txTime = sim::SimTime{header->txTimeNs};
        record.rxTime = dgram.rxTime;
        logs_[header->flowId].packets.push_back(record);

        if (sendAcks_) {
            ProbeHeader ack = *header;
            ack.isAck = true;
            if (socket_.sendTo(dgram.src, dgram.srcPort, ack.encode(ProbeHeader::kSize)).ok()) {
                ++acksSent_;
                acksSentMetric_.inc();
            }
        }
    });
}

const ReceiverLog& ItgRecv::log(std::uint16_t flowId) const { return logs_[flowId]; }

}  // namespace onelab::ditg
