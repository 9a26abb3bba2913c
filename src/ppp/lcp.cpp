#include "ppp/lcp.hpp"

namespace onelab::ppp {

namespace {
constexpr std::uint16_t kPapProtocol = 0xc023;
constexpr std::uint16_t kChapProtocol = 0xc223;
constexpr std::uint8_t kChapMd5 = 5;

Option makeAuthOption(AuthProtocol auth) {
    Option option;
    option.type = lcp_opt::auth_protocol;
    if (auth == AuthProtocol::pap) {
        util::putU16(option.value, kPapProtocol);
    } else {
        util::putU16(option.value, kChapProtocol);
        util::putU8(option.value, kChapMd5);
    }
    return option;
}

std::optional<AuthProtocol> parseAuthOption(const Option& option) {
    if (option.value.size() < 2) return std::nullopt;
    const std::uint16_t proto = std::uint16_t((option.value[0] << 8) | option.value[1]);
    if (proto == kPapProtocol && option.value.size() == 2) return AuthProtocol::pap;
    if (proto == kChapProtocol && option.value.size() == 3 && option.value[2] == kChapMd5)
        return AuthProtocol::chap_md5;
    return std::nullopt;
}

}  // namespace

namespace {
std::uint32_t& magicCounter() noexcept {
    // thread_local so parallel sweep workers draw independent magic
    // sequences; every run entry point resets it (on its own thread)
    // before bring-up, keeping runs deterministic wherever they land.
    thread_local std::uint32_t counter = 0;
    return counter;
}

/// Per-instance entropy mixed into magic numbers. Two endpoints
/// seeded identically (possible in tests) must still resolve the
/// loopback-detection Nak exchange; real pppd draws kernel entropy.
std::uint32_t magicSalt() {
    std::uint32_t x = ++magicCounter() * 0x9e3779b9u;
    x ^= x >> 16;
    x *= 0x85ebca6bu;
    x ^= x >> 13;
    return x | 1u;  // never zero
}
}  // namespace

void resetMagicEntropy() noexcept { magicCounter() = 0; }

const char* authName(AuthProtocol auth) noexcept {
    switch (auth) {
        case AuthProtocol::none: return "none";
        case AuthProtocol::pap: return "PAP";
        case AuthProtocol::chap_md5: return "CHAP-MD5";
    }
    return "?";
}

Lcp::Lcp(sim::Simulator& simulator, LcpConfig config, util::RandomStream rng, Timers timers)
    : Fsm(simulator, "lcp", timers), config_(config), rng_(std::move(rng)) {
    result_.localMagic = std::uint32_t(rng_.uniformInt(1, 0x7fffffff)) ^ magicSalt();
    if (result_.localMagic == 0) result_.localMagic = 1;
}

std::vector<Option> Lcp::buildConfigRequest() {
    std::vector<Option> options;
    if (!mruRejected_ && config_.mru != 1500)
        options.push_back(makeU16Option(lcp_opt::mru, config_.mru));
    if (!accmRejected_) options.push_back(makeU32Option(lcp_opt::accm, config_.accm));
    if (config_.requestMagic && !magicRejected_)
        options.push_back(makeU32Option(lcp_opt::magic_number, result_.localMagic));
    if (config_.requireAuth != AuthProtocol::none && !authRejected_)
        options.push_back(makeAuthOption(config_.requireAuth));
    if (config_.requestPfc && !pfcRejected_) options.push_back(Option{lcp_opt::pfc, {}});
    if (config_.requestAcfc && !acfcRejected_) options.push_back(Option{lcp_opt::acfc, {}});
    return options;
}

ConfigDecision Lcp::checkConfigRequest(const std::vector<Option>& options) {
    // First pass: reject unknown options outright (RFC 1661: reject
    // takes precedence over nak).
    ConfigDecision decision;
    for (const Option& option : options) {
        switch (option.type) {
            case lcp_opt::mru:
            case lcp_opt::accm:
            case lcp_opt::auth_protocol:
            case lcp_opt::magic_number:
            case lcp_opt::pfc:
            case lcp_opt::acfc:
                break;
            default:
                decision.options.push_back(option);
                break;
        }
    }
    if (!decision.options.empty()) {
        decision.verdict = ConfigDecision::Verdict::reject;
        return decision;
    }

    // Second pass: nak unacceptable values.
    for (const Option& option : options) {
        switch (option.type) {
            case lcp_opt::mru: {
                const auto mru = optionU16(option);
                if (!mru || *mru < 576)
                    decision.options.push_back(makeU16Option(lcp_opt::mru, 1500));
                break;
            }
            case lcp_opt::magic_number: {
                const auto magic = optionU32(option);
                // Same magic as ours => looped-back link: nak with a
                // fresh random value (RFC 1661 §6.4).
                if (!magic || *magic == 0 || *magic == result_.localMagic) {
                    std::uint32_t fresh =
                        std::uint32_t(rng_.uniformInt(1, 0x7fffffff)) ^ magicSalt();
                    if (fresh == 0 || fresh == result_.localMagic) fresh ^= 0x5bd1e995u;
                    decision.options.push_back(makeU32Option(lcp_opt::magic_number, fresh));
                }
                break;
            }
            case lcp_opt::auth_protocol: {
                const auto auth = parseAuthOption(option);
                if (!auth) {
                    // Unsupported algorithm: suggest PAP.
                    decision.options.push_back(makeAuthOption(AuthProtocol::pap));
                }
                break;
            }
            default:
                break;  // accm/pfc/acfc: any value acceptable
        }
    }
    if (!decision.options.empty()) {
        decision.verdict = ConfigDecision::Verdict::nak;
        return decision;
    }

    // Acceptable: commit peer-direction parameters.
    for (const Option& option : options) {
        switch (option.type) {
            case lcp_opt::mru:
                if (const auto mru = optionU16(option)) result_.sendMru = *mru;
                break;
            case lcp_opt::accm:
                if (const auto accm = optionU32(option)) result_.sendAccm = *accm;
                break;
            case lcp_opt::magic_number:
                if (const auto magic = optionU32(option)) result_.peerMagic = *magic;
                break;
            case lcp_opt::auth_protocol:
                if (const auto auth = parseAuthOption(option)) result_.peerRequiresAuth = *auth;
                break;
            case lcp_opt::pfc:
                result_.sendPfc = true;
                break;
            case lcp_opt::acfc:
                result_.sendAcfc = true;
                break;
            default:
                break;
        }
    }
    decision.verdict = ConfigDecision::Verdict::ack;
    return decision;
}

void Lcp::onConfigAcked(const std::vector<Option>& options) {
    for (const Option& option : options) {
        if (option.type == lcp_opt::auth_protocol) {
            if (const auto auth = parseAuthOption(option)) result_.weRequireAuth = *auth;
        }
    }
}

void Lcp::onConfigNakOrReject(bool isReject, const std::vector<Option>& options) {
    for (const Option& option : options) {
        switch (option.type) {
            case lcp_opt::mru:
                if (isReject)
                    mruRejected_ = true;
                else if (const auto mru = optionU16(option))
                    config_.mru = *mru;
                break;
            case lcp_opt::accm:
                if (isReject)
                    accmRejected_ = true;
                else if (const auto accm = optionU32(option))
                    config_.accm = *accm;
                break;
            case lcp_opt::magic_number:
                if (isReject)
                    magicRejected_ = true;
                else if (const auto magic = optionU32(option))
                    result_.localMagic = *magic;  // adopt suggestion
                break;
            case lcp_opt::auth_protocol:
                if (isReject) {
                    // Fall back: CHAP -> PAP -> give up requiring.
                    if (config_.requireAuth == AuthProtocol::chap_md5)
                        config_.requireAuth = AuthProtocol::pap;
                    else
                        authRejected_ = true;
                } else if (const auto auth = parseAuthOption(option)) {
                    config_.requireAuth = *auth;
                }
                break;
            case lcp_opt::pfc:
                pfcRejected_ = true;
                break;
            case lcp_opt::acfc:
                acfcRejected_ = true;
                break;
            default:
                break;
        }
    }
}

bool Lcp::onExtraCode(const ControlPacket& packet) {
    switch (packet.code) {
        case Code::echo_request: {
            if (!isOpened()) return true;  // silently discard
            ControlPacket reply;
            reply.code = Code::echo_reply;
            reply.identifier = packet.identifier;
            util::putU32(reply.data, result_.localMagic);
            sendPacket(reply);
            return true;
        }
        case Code::echo_reply:
            if (onEchoReply) onEchoReply();
            return true;
        case Code::discard_request:
            return true;
        case Code::protocol_reject:
            // Owner (pppd) handles routing this to the right protocol;
            // it intercepts before the FSM, so reaching here means an
            // unparseable reject — ignore.
            return true;
        default:
            return false;
    }
}

void Lcp::sendEchoRequest() {
    if (!isOpened()) return;
    ControlPacket packet;
    packet.code = Code::echo_request;
    packet.identifier = nextEchoId_++;
    util::putU32(packet.data, result_.localMagic);
    sendPacket(packet);
}

void Lcp::sendProtocolReject(std::uint16_t protocol, util::ByteView info) {
    ControlPacket packet;
    packet.code = Code::protocol_reject;
    packet.identifier = nextEchoId_++;
    util::putU16(packet.data, protocol);
    // Include as much of the offending packet as fits a small MTU.
    const std::size_t take = std::min<std::size_t>(info.size(), 64);
    packet.data.insert(packet.data.end(), info.begin(), info.begin() + long(take));
    sendPacket(packet);
}

void Lcp::onThisLayerUp() {
    if (onUp) onUp();
}
void Lcp::onThisLayerDown() {
    if (onDown) onDown();
}
void Lcp::onThisLayerFinished() {
    if (onFinished) onFinished();
}

}  // namespace onelab::ppp
