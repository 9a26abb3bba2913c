#pragma once

#include <map>

#include "ditg/flow.hpp"
#include "ditg/logs.hpp"
#include "net/stack.hpp"
#include "net/tcp.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"

namespace onelab::ditg {

/// ITGRecv: logs arriving probe packets and (optionally) echoes a
/// small ACK carrying the original header back to the sender so RTT
/// can be measured. One receiver can serve many flows; logs are kept
/// per flow id. Over UDP it takes over a borrowed socket's receive
/// handler; over TCP it listens on a port, reassembles probes from
/// every accepted connection and echoes ACK probes on the connection
/// they arrived on.
class ItgRecv {
  public:
    ItgRecv(net::UdpSocket& socket, bool sendAcks = true);
    ItgRecv(sim::Simulator& simulator, net::TcpHost& host, std::uint16_t port,
            bool sendAcks = true, int sliceXid = 0, const net::TcpOptions& options = {});
    ~ItgRecv();

    ItgRecv(const ItgRecv&) = delete;
    ItgRecv& operator=(const ItgRecv&) = delete;

    [[nodiscard]] const ReceiverLog& log(std::uint16_t flowId) const;
    [[nodiscard]] std::uint64_t packetsReceived() const noexcept { return received_; }
    [[nodiscard]] std::uint64_t acksSent() const noexcept { return acksSent_; }
    /// TCP connections accepted so far (0 over UDP).
    [[nodiscard]] std::size_t connectionsAccepted() const noexcept { return accepted_; }

  private:
    /// Log one probe, then echo its ACK on `conn` (TCP) or back to
    /// `from`:`fromPort` (UDP).
    void onProbe(util::ByteView probe, sim::SimTime rxTime, net::TcpConnection* conn,
                 net::Ipv4Address from = {}, std::uint16_t fromPort = 0);

    net::UdpSocket* socket_ = nullptr;  ///< UDP endpoint, or
    net::TcpHost* host_ = nullptr;      ///< TCP endpoint
    std::uint16_t port_ = 0;
    bool sendAcks_;
    std::map<net::TcpConnection*, ProbeStream> streams_;
    mutable std::map<std::uint16_t, ReceiverLog> logs_;
    std::uint64_t received_ = 0;
    std::uint64_t acksSent_ = 0;
    std::size_t accepted_ = 0;

    // Registry-backed flow metrics (ditg.flow.*).
    obs::Counter& receivedMetric_ =
        obs::Registry::instance().counter("ditg.flow.packets_received");
    obs::Counter& acksSentMetric_ = obs::Registry::instance().counter("ditg.flow.acks_sent");
    /// Log-scale buckets (obs::HistogramSpec's default).
    obs::Histogram& owdMetric_ = obs::Registry::instance().histogram("ditg.flow.owd_us");
};

}  // namespace onelab::ditg
