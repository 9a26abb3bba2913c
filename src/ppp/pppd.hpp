#pragma once

#include <functional>
#include <memory>
#include <string>

#include "ppp/auth.hpp"
#include "ppp/ccp.hpp"
#include "ppp/framer.hpp"
#include "ppp/ipcp.hpp"
#include "ppp/lcp.hpp"
#include "sim/pipe.hpp"
#include "util/rand.hpp"

namespace onelab::ppp {

/// pppd phases (RFC 1661 §3.2).
enum class PppPhase : std::uint8_t {
    dead,
    establish,
    authenticate,
    network,
    running,
    terminate,
};

[[nodiscard]] const char* phaseName(PppPhase phase) noexcept;

/// Full daemon configuration. A dial-up client (the PlanetLab node)
/// sets credentials; the network side (GGSN) sets isServer plus the
/// addresses to assign and the subscriber secret lookup.
struct PppdConfig {
    std::string name = "ppp";  ///< log tag
    bool isServer = false;

    // Client side.
    Credentials credentials;
    bool requestDns = false;

    // Server side.
    AuthProtocol requireAuth = AuthProtocol::none;
    bool acceptAnyPeer = false;  ///< run the auth exchange but accept anything
    std::function<std::optional<std::string>(const std::string&)> secretLookup;
    net::Ipv4Address localAddress;
    net::Ipv4Address addressForPeer;
    net::Ipv4Address dnsServer;

    // Link options.
    LcpConfig lcp;
    CcpConfig ccp{.enable = false, .windowCode = 12};
    Fsm::Timers timers;

    // LCP echo keepalive (pppd's lcp-echo-interval / lcp-echo-failure).
    bool enableEcho = true;
    sim::SimTime echoInterval = sim::seconds(10.0);
    int echoFailureLimit = 3;
    /// pppd's lcp-echo-adaptive: only probe when the line has been
    /// silent for a whole interval. Any received bytes count as proof
    /// of life, so a loaded link never carries extra echo traffic.
    bool echoAdaptive = false;

    std::uint64_t seed = 1;
};

/// Traffic/robustness counters.
struct PppdCounters {
    std::uint64_t ipFramesSent = 0;
    std::uint64_t ipFramesReceived = 0;
    std::uint64_t bytesToLine = 0;
    std::uint64_t bytesFromLine = 0;
    std::uint64_t compressedIn = 0;   ///< pre-compression payload bytes
    std::uint64_t compressedOut = 0;  ///< post-compression payload bytes
    std::uint64_t sendErrors = 0;
    std::uint64_t badFrames = 0;
    std::uint64_t echoRequestsSent = 0;
    std::uint64_t echoRepliesReceived = 0;
};

/// The PPP daemon: drives HDLC framing, LCP, authentication, IPCP and
/// CCP over a byte channel, and exchanges IP datagrams once the
/// network phase completes. This is the user-space stand-in for the
/// ppp_generic/ppp_async kernel modules plus pppd.
class Pppd {
  public:
    Pppd(sim::Simulator& simulator, PppdConfig config);
    ~Pppd();

    Pppd(const Pppd&) = delete;
    Pppd& operator=(const Pppd&) = delete;

    /// Attach to the line (a modem TTY in data mode, or the network
    /// side of a bearer). Installs the channel's onData handler.
    void attach(sim::ByteChannel& channel);

    /// Open the connection (administrative Open + lower layer Up).
    void start();
    /// Graceful shutdown: LCP Terminate handshake, then dead.
    void stop();
    /// Carrier lost: immediate down without Terminate exchange.
    void abortLink();

    /// Fault hook: force an LCP renegotiation — the link drops back to
    /// the establish phase and re-negotiates from scratch (the peer
    /// follows per RFC 1661). Traffic stalls during the exchange but
    /// onLinkDown does NOT fire: this is a transparent reconfigure.
    void renegotiateLcp();

    /// Send one IP datagram (serialised IPv4 bytes). Fails unless the
    /// session is running. Applies CCP compression when negotiated.
    util::Result<void> sendIpDatagram(util::ByteView datagram);

    /// Received IP datagrams (decompressed, serialised IPv4 bytes).
    std::function<void(util::ByteView)> onIpDatagram;
    /// Network phase complete: addresses are known.
    std::function<void(const IpcpResult&)> onNetworkUp;
    /// Terminal link down (fires once per session).
    std::function<void(std::string reason)> onLinkDown;
    /// Keepalive verdict at each echo tick (and on recovery): the
    /// number of unanswered echo requests at that point. 0 means the
    /// link just proved itself (reply arrived, or adaptive mode saw RX
    /// traffic); the value hits echoFailureLimit right before the
    /// keepalive declares the link dead. Health monitors subscribe
    /// here instead of polling.
    std::function<void(int outstanding)> onEchoStatus;

    [[nodiscard]] PppPhase phase() const noexcept { return phase_; }
    [[nodiscard]] bool isRunning() const noexcept { return phase_ == PppPhase::running; }
    [[nodiscard]] const LcpResult& lcpResult() const noexcept { return lcp_->result(); }
    [[nodiscard]] const IpcpResult& ipcpResult() const noexcept { return ipcp_->result(); }
    [[nodiscard]] bool compressionActive() const noexcept { return ccp_->sendCompressed(); }
    [[nodiscard]] int echoOutstanding() const noexcept { return echoOutstanding_; }
    [[nodiscard]] const PppdCounters& counters() const noexcept { return counters_; }

  private:
    void setPhase(PppPhase phase);
    void dispatchFrame(Frame frame);
    void sendControl(Protocol protocol, const ControlPacket& packet);
    void sendFrame(Protocol protocol, util::ByteView info);
    void onLcpUp();
    void onLcpDown();
    void onLcpFinished();
    void startNetworkPhase();
    void maybeFinishAuth();
    void scheduleEcho();
    void armEchoTimer();
    void linkDown(const std::string& reason);

    sim::Simulator& sim_;
    PppdConfig config_;
    util::Logger log_;
    util::RandomStream rng_;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    sim::ByteChannel* line_ = nullptr;
    FramerConfig sendFramer_;  ///< framing for transmitted frames
    Deframer deframer_;

    std::unique_ptr<Lcp> lcp_;
    std::unique_ptr<Ipcp> ipcp_;
    std::unique_ptr<Ccp> ccp_;
    std::unique_ptr<Authenticatee> authPeer_;
    std::unique_ptr<Authenticator> authServer_;

    PppPhase phase_ = PppPhase::dead;
    bool peerAuthOk_ = false;   ///< we proved ourselves (or not needed)
    bool localAuthOk_ = false;  ///< peer proved itself (or not needed)
    bool linkDownNotified_ = true;
    int echoOutstanding_ = 0;
    std::uint64_t echoRxMark_ = 0;  ///< bytesFromLine at the last echo tick
    sim::EventHandle echoTimer_;
    PppdCounters counters_;
};

}  // namespace onelab::ppp
