#pragma once

#include <functional>
#include <memory>

#include "ditg/flow.hpp"
#include "ditg/logs.hpp"
#include "net/stack.hpp"
#include "net/tcp.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"

namespace onelab::ditg {

/// ITGSend: generates one flow of probe traffic, logging every
/// departure, and collects the receiver's ACKs into RTT samples. As
/// with D-ITG's -T option, the flow rides UDP or TCP, chosen by the
/// constructor:
/// - UDP: the socket is borrowed and its receive handler taken over
///   for the flow's lifetime; each probe is one datagram.
/// - TCP: start() connects and the flow begins once established. Each
///   probe is length-framed (ProbeStream) into the byte stream, so
///   losses never drop probes — they show up as delay/bunching at the
///   receiver. ACK probes return on the same connection.
class ItgSend {
  public:
    ItgSend(sim::Simulator& simulator, net::UdpSocket& socket, FlowSpec spec,
            net::Ipv4Address destination, std::uint16_t destinationPort,
            util::RandomStream rng);
    ItgSend(sim::Simulator& simulator, net::TcpHost& host, FlowSpec spec,
            net::Ipv4Address destination, std::uint16_t destinationPort,
            util::RandomStream rng, int sliceXid = 0, const net::TcpOptions& options = {});
    ~ItgSend();

    ItgSend(const ItgSend&) = delete;
    ItgSend& operator=(const ItgSend&) = delete;

    /// Begin generating. `onComplete` fires when the duration elapses
    /// (ACKs may still trickle in afterwards and are recorded). A TCP
    /// flow's connection is then closed (FIN) but keeps draining ACKs.
    void start(std::function<void()> onComplete = {});

    [[nodiscard]] const SenderLog& log() const noexcept { return log_; }
    [[nodiscard]] const FlowSpec& spec() const noexcept { return spec_; }
    [[nodiscard]] std::uint64_t packetsSent() const noexcept { return sent_; }
    [[nodiscard]] std::uint64_t sendErrors() const noexcept { return sendErrors_; }
    [[nodiscard]] bool finished() const noexcept { return finished_; }
    /// The TCP connection (nullptr over UDP or before start()); exposes
    /// TcpStats for goodput/retransmission reporting.
    [[nodiscard]] net::TcpConnection* connection() noexcept { return conn_; }

  private:
    /// Arm the first departure `startOffsetSeconds` from now.
    void scheduleStart();
    void scheduleNext();
    void emitPacket();
    /// Record the RTT of one returned ACK probe.
    void onAck(util::ByteView probe, sim::SimTime rxTime);

    sim::Simulator& sim_;
    net::UdpSocket* socket_ = nullptr;  ///< UDP endpoint, or
    net::TcpHost* host_ = nullptr;      ///< TCP endpoint
    FlowSpec spec_;
    net::Ipv4Address destination_;
    std::uint16_t destinationPort_;
    util::RandomStream rng_;
    int sliceXid_ = 0;
    net::TcpOptions options_;
    util::Logger logger_{"ditg.send"};

    net::TcpConnection* conn_ = nullptr;
    ProbeStream ackStream_;
    /// The flow's one pending timer (its start or its next departure),
    /// cancelled on destruction.
    sim::EventHandle pending_;
    /// Liveness token for the socket and connection callbacks, which
    /// can fire after this object is gone (a connection outlives its
    /// flow when the link dies mid-flow).
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    SenderLog log_;
    sim::SimTime endTime_{};
    std::uint32_t nextSequence_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t sendErrors_ = 0;
    bool finished_ = false;
    std::function<void()> onComplete_;

    // Registry-backed flow metrics (ditg.flow.*), aggregated across
    // flows by name.
    obs::Counter& sentMetric_ = obs::Registry::instance().counter("ditg.flow.packets_sent");
    obs::Counter& sendErrorsMetric_ = obs::Registry::instance().counter("ditg.flow.send_errors");
    /// Log-scale buckets (obs::HistogramSpec's default).
    obs::Histogram& rttMetric_ = obs::Registry::instance().histogram("ditg.flow.rtt_us");
};

}  // namespace onelab::ditg
