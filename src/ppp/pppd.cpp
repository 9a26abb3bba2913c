#include "ppp/pppd.hpp"

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "ppp/compress.hpp"

namespace onelab::ppp {

const char* phaseName(PppPhase phase) noexcept {
    switch (phase) {
        case PppPhase::dead: return "dead";
        case PppPhase::establish: return "establish";
        case PppPhase::authenticate: return "authenticate";
        case PppPhase::network: return "network";
        case PppPhase::running: return "running";
        case PppPhase::terminate: return "terminate";
    }
    return "?";
}

Pppd::Pppd(sim::Simulator& simulator, PppdConfig config)
    : sim_(simulator),
      config_(std::move(config)),
      log_("pppd." + config_.name),
      rng_(config_.seed) {
    LcpConfig lcpConfig = config_.lcp;
    if (config_.isServer) lcpConfig.requireAuth = config_.requireAuth;
    lcp_ = std::make_unique<Lcp>(sim_, lcpConfig, rng_.derive("lcp"), config_.timers);
    lcp_->setSender([this](const ControlPacket& pkt) { sendControl(Protocol::lcp, pkt); });
    lcp_->onUp = [this] { onLcpUp(); };
    lcp_->onDown = [this] { onLcpDown(); };
    lcp_->onFinished = [this] { onLcpFinished(); };
    lcp_->onEchoReply = [this] {
        echoOutstanding_ = 0;
        ++counters_.echoRepliesReceived;
        if (onEchoStatus) onEchoStatus(0);
    };

    IpcpConfig ipcpConfig;
    ipcpConfig.isServer = config_.isServer;
    ipcpConfig.localAddress = config_.localAddress;
    ipcpConfig.addressForPeer = config_.addressForPeer;
    ipcpConfig.dnsServer = config_.dnsServer;
    ipcpConfig.requestDns = config_.requestDns;
    ipcp_ = std::make_unique<Ipcp>(sim_, ipcpConfig, config_.timers);
    ipcp_->setSender([this](const ControlPacket& pkt) { sendControl(Protocol::ipcp, pkt); });
    ipcp_->onUp = [this](const IpcpResult& result) {
        setPhase(PppPhase::running);
        log_.info() << "network up: local=" << result.localAddress.str()
                    << " peer=" << result.peerAddress.str();
        scheduleEcho();
        if (onNetworkUp) onNetworkUp(result);
    };
    ipcp_->onDown = [this] {
        if (phase_ == PppPhase::running) setPhase(PppPhase::network);
    };

    ccp_ = std::make_unique<Ccp>(sim_, config_.ccp, config_.timers);
    ccp_->setSender([this](const ControlPacket& pkt) { sendControl(Protocol::ccp, pkt); });

    deframer_.onFrame([this](Frame frame) { dispatchFrame(std::move(frame)); });
}

Pppd::~Pppd() {
    *alive_ = false;
    if (echoTimer_.valid()) sim_.cancel(echoTimer_);
}

void Pppd::attach(sim::ByteChannel& channel) {
    line_ = &channel;
    // The guard protects against line deliveries racing our own
    // destruction (a torn-down dialer may leave this handler installed
    // until the next tool takes the TTY over).
    channel.onData([this, alive = std::weak_ptr<bool>(alive_)](util::SharedBytes data) {
        const auto stillAlive = alive.lock();
        if (!stillAlive || !*stillAlive) return;
        counters_.bytesFromLine += data.size();
        deframer_.feed(data.view());
        counters_.badFrames = deframer_.badFrames();
    });
}

void Pppd::setPhase(PppPhase phase) {
    if (phase == phase_) return;
    log_.debug() << "phase " << phaseName(phase_) << " -> " << phaseName(phase);
    phase_ = phase;
}

void Pppd::start() {
    if (!line_) {
        log_.error() << "start() without an attached line";
        return;
    }
    linkDownNotified_ = false;
    peerAuthOk_ = false;
    localAuthOk_ = false;
    sendFramer_ = FramerConfig{};  // default framing until LCP opens
    deframer_.reset();
    setPhase(PppPhase::establish);
    lcp_->open();
    lcp_->up();
}

void Pppd::stop() {
    if (phase_ == PppPhase::dead) return;
    setPhase(PppPhase::terminate);
    lcp_->close();
}

void Pppd::abortLink() {
    if (phase_ == PppPhase::dead) return;
    lcp_->down();
    setPhase(PppPhase::dead);
    linkDown("carrier lost");
}

void Pppd::renegotiateLcp() {
    if (phase_ == PppPhase::dead || phase_ == PppPhase::terminate) return;
    log_.warn() << "injected LCP renegotiation";
    obs::Registry::instance().counter("fault.ppp.lcp_renegotiations").inc();
    // Back to default framing until the new LCP opens; the peer's FSM
    // follows our Configure-Request out of its Opened state.
    sendFramer_ = FramerConfig{};
    deframer_.reset();
    peerAuthOk_ = false;
    localAuthOk_ = false;
    setPhase(PppPhase::establish);
    lcp_->down();
    lcp_->up();
}

void Pppd::sendControl(Protocol protocol, const ControlPacket& packet) {
    sendFrame(protocol, packet.serialize());
}

void Pppd::sendFrame(Protocol protocol, util::ByteView info) {
    if (!line_) return;
    // LCP control traffic always uses default framing (RFC 1662 §7).
    const bool isLcp = protocol == Protocol::lcp;
    const FramerConfig framing = isLcp ? FramerConfig{.sendAccm = sendFramer_.sendAccm,
                                                      .compressProtocolField = false,
                                                      .compressAddressControl = false}
                                       : sendFramer_;
    // Encode straight into a pooled buffer and hand the line a
    // refcounted slice: the same bytes ride every hop to the deframer.
    // The capacity recycles when the last hop lets go.
    util::Bytes wire = sim_.bufferPool().acquire(std::size_t{0});
    encodeFrameInto(protocol, info, framing, wire);
    counters_.bytesToLine += wire.size();
    line_->write(sim_.bufferPool().share(std::move(wire)));
}

void Pppd::onLcpUp() {
    // Commit the negotiated framing for our transmit direction.
    const LcpResult& result = lcp_->result();
    sendFramer_.sendAccm = result.sendAccm;
    sendFramer_.compressProtocolField = result.sendPfc;
    sendFramer_.compressAddressControl = result.sendAcfc;

    setPhase(PppPhase::authenticate);

    peerAuthOk_ = result.peerRequiresAuth == AuthProtocol::none;
    localAuthOk_ = result.weRequireAuth == AuthProtocol::none;

    if (!peerAuthOk_) {
        authPeer_ = std::make_unique<Authenticatee>(
            sim_, result.peerRequiresAuth, config_.credentials,
            [this](Protocol proto, const ControlPacket& pkt) { sendControl(proto, pkt); });
        authPeer_->onResult = [this](bool ok, const std::string& message) {
            if (!ok) {
                log_.warn() << "authentication failed: " << message;
                stop();
                return;
            }
            peerAuthOk_ = true;
            maybeFinishAuth();
        };
        authPeer_->start();
    }
    if (!localAuthOk_) {
        auto lookup = config_.secretLookup;
        if (!lookup) lookup = [](const std::string&) { return std::nullopt; };
        authServer_ = std::make_unique<Authenticator>(
            sim_, result.weRequireAuth, config_.name, std::move(lookup),
            [this](Protocol proto, const ControlPacket& pkt) { sendControl(proto, pkt); },
            rng_.derive("chap"));
        authServer_->setAcceptAll(config_.acceptAnyPeer);
        authServer_->onResult = [this](bool ok, const std::string& peer) {
            if (!ok) {
                log_.warn() << "peer '" << peer << "' failed authentication";
                stop();
                return;
            }
            localAuthOk_ = true;
            maybeFinishAuth();
        };
        authServer_->start();
    }
    maybeFinishAuth();
}

void Pppd::maybeFinishAuth() {
    if (phase_ != PppPhase::authenticate || !peerAuthOk_ || !localAuthOk_) return;
    startNetworkPhase();
}

void Pppd::startNetworkPhase() {
    setPhase(PppPhase::network);
    ipcp_->open();
    ipcp_->up();
    if (config_.ccp.enable) {
        ccp_->open();
        ccp_->up();
    }
}

void Pppd::onLcpDown() {
    if (echoTimer_.valid()) sim_.cancel(echoTimer_);
    echoTimer_ = {};
    ipcp_->down();
    ccp_->down();
    authPeer_.reset();
    authServer_.reset();
}

void Pppd::onLcpFinished() {
    setPhase(PppPhase::dead);
    linkDown("connection terminated");
}

void Pppd::scheduleEcho() {
    if (!config_.enableEcho) return;
    echoOutstanding_ = 0;
    echoRxMark_ = counters_.bytesFromLine;
    armEchoTimer();
}

void Pppd::armEchoTimer() {
    if (echoTimer_.valid()) sim_.cancel(echoTimer_);
    echoTimer_ = sim_.schedule(config_.echoInterval, [this] {
        echoTimer_ = {};
        if (phase_ != PppPhase::running) return;
        const int missed = echoOutstanding_;
        if (config_.echoAdaptive && counters_.bytesFromLine != echoRxMark_) {
            // The peer spoke during the interval — alive by inference,
            // no probe needed (and none sent: the wire stays identical
            // to an unsupervised run as long as traffic flows).
            echoRxMark_ = counters_.bytesFromLine;
            echoOutstanding_ = 0;
            if (onEchoStatus) onEchoStatus(0);
            armEchoTimer();
            return;
        }
        if (missed >= config_.echoFailureLimit) {
            log_.warn() << "LCP keepalive: " << missed
                        << " echo requests unanswered, assuming dead link";
            lcp_->down();
            setPhase(PppPhase::dead);
            linkDown("keepalive timeout");
            return;
        }
        if (onEchoStatus) onEchoStatus(missed);
        echoRxMark_ = counters_.bytesFromLine;
        ++echoOutstanding_;
        ++counters_.echoRequestsSent;
        lcp_->sendEchoRequest();
        armEchoTimer();
    });
}

void Pppd::linkDown(const std::string& reason) {
    if (linkDownNotified_) return;
    linkDownNotified_ = true;
    log_.info() << "link down: " << reason;
    if (onLinkDown) onLinkDown(reason);
}

util::Result<void> Pppd::sendIpDatagram(util::ByteView datagram) {
    if (phase_ != PppPhase::running) {
        ++counters_.sendErrors;
        return util::err(util::Error::Code::state,
                         std::string("ppp not running (phase ") + phaseName(phase_) + ")");
    }
    if (datagram.size() > lcp_->result().sendMru) {
        ++counters_.sendErrors;
        return util::err(util::Error::Code::invalid_argument, "datagram exceeds peer MRU");
    }
    ++counters_.ipFramesSent;
    if (ccp_->sendCompressed()) {
        const util::Bytes compressed = LzssCodec::compress(datagram);
        counters_.compressedIn += datagram.size();
        counters_.compressedOut += compressed.size();
        sendFrame(Protocol::compressed_datagram, {compressed.data(), compressed.size()});
    } else {
        sendFrame(Protocol::ip, datagram);
    }
    return {};
}

void Pppd::dispatchFrame(Frame frame) {
    obs::ProfileScope scope(obs::ProfileCategory::pppd);
    switch (frame.protocol) {
        case Protocol::lcp: {
            const auto packet = ControlPacket::parse({frame.info.data(), frame.info.size()});
            if (!packet.ok()) return;
            // Protocol-Reject is routed to the rejected protocol.
            if (packet.value().code == Code::protocol_reject &&
                packet.value().data.size() >= 2) {
                const std::uint16_t rejected =
                    std::uint16_t((packet.value().data[0] << 8) | packet.value().data[1]);
                if (rejected == std::uint16_t(Protocol::ipcp))
                    ipcp_->protocolRejected();
                else if (rejected == std::uint16_t(Protocol::ccp))
                    ccp_->protocolRejected();
                return;
            }
            lcp_->receive(packet.value());
            return;
        }
        case Protocol::pap:
        case Protocol::chap: {
            if (phase_ != PppPhase::authenticate && phase_ != PppPhase::establish) return;
            const auto packet = ControlPacket::parse({frame.info.data(), frame.info.size()});
            if (!packet.ok()) return;
            if (authPeer_) authPeer_->receive(frame.protocol, packet.value());
            if (authServer_) authServer_->receive(frame.protocol, packet.value());
            return;
        }
        case Protocol::ipcp: {
            if (phase_ != PppPhase::network && phase_ != PppPhase::running) return;
            const auto packet = ControlPacket::parse({frame.info.data(), frame.info.size()});
            if (packet.ok()) ipcp_->receive(packet.value());
            return;
        }
        case Protocol::ccp: {
            if (phase_ != PppPhase::network && phase_ != PppPhase::running) return;
            // Compression not configured locally: Protocol-Reject, as
            // pppd does for protocols it has no handler for.
            if (!config_.ccp.enable) {
                if (lcp_->isOpened())
                    lcp_->sendProtocolReject(std::uint16_t(Protocol::ccp),
                                             {frame.info.data(), frame.info.size()});
                return;
            }
            const auto packet = ControlPacket::parse({frame.info.data(), frame.info.size()});
            if (packet.ok()) ccp_->receive(packet.value());
            return;
        }
        case Protocol::ip: {
            if (phase_ != PppPhase::running) return;
            ++counters_.ipFramesReceived;
            if (onIpDatagram) onIpDatagram({frame.info.data(), frame.info.size()});
            return;
        }
        case Protocol::compressed_datagram: {
            if (phase_ != PppPhase::running || !ccp_->recvCompressed()) return;
            const auto plain = LzssCodec::decompress({frame.info.data(), frame.info.size()});
            if (!plain.ok()) {
                log_.warn() << "undecodable compressed frame: " << plain.error().message;
                return;
            }
            ++counters_.ipFramesReceived;
            if (onIpDatagram) onIpDatagram({plain.value().data(), plain.value().size()});
            return;
        }
        default: {
            log_.debug() << "unknown protocol 0x" << std::hex
                         << int(std::uint16_t(frame.protocol));
            if (lcp_->isOpened())
                lcp_->sendProtocolReject(std::uint16_t(frame.protocol),
                                         {frame.info.data(), frame.info.size()});
            return;
        }
    }
}

}  // namespace onelab::ppp
