#pragma once

#include <functional>
#include <optional>

#include "ppp/fsm.hpp"
#include "util/rand.hpp"

namespace onelab::ppp {

/// Authentication protocols LCP can negotiate.
enum class AuthProtocol : std::uint8_t { none, pap, chap_md5 };

[[nodiscard]] const char* authName(AuthProtocol auth) noexcept;

/// Rewind the process-global entropy counter mixed into LCP magic
/// numbers. The counter exists to break rng symmetry between
/// identically-seeded endpoints; rewinding it at the start of a run
/// makes same-seed runs reproduce the exact same magic numbers (and
/// hence byte-identical telemetry).
void resetMagicEntropy() noexcept;

/// Local LCP desires.
struct LcpConfig {
    std::uint16_t mru = 1500;
    std::uint32_t accm = 0x00000000;  ///< we can receive unescaped control chars
    bool requestMagic = true;
    bool requestPfc = true;
    bool requestAcfc = true;
    /// What we demand the peer authenticate with (network side sets
    /// this; the UE side leaves none).
    AuthProtocol requireAuth = AuthProtocol::none;
};

/// Negotiated link parameters, split by direction.
struct LcpResult {
    std::uint16_t sendMru = 1500;   ///< largest information field we may send
    std::uint32_t sendAccm = 0xffffffff;  ///< chars we must escape when sending
    bool sendPfc = false;           ///< peer accepts compressed protocol field
    bool sendAcfc = false;          ///< peer accepts elided address/control
    std::uint32_t localMagic = 0;
    std::uint32_t peerMagic = 0;
    /// Auth the peer demands from us (we are the authenticatee).
    AuthProtocol peerRequiresAuth = AuthProtocol::none;
    /// Auth we demanded and the peer accepted (we are authenticator).
    AuthProtocol weRequireAuth = AuthProtocol::none;
};

/// LCP: negotiates MRU, ACCM, magic number, PFC/ACFC and the
/// authentication protocol; handles echo request/reply keepalives and
/// loopback detection via magic numbers.
class Lcp final : public Fsm {
  public:
    Lcp(sim::Simulator& simulator, LcpConfig config, util::RandomStream rng,
        Timers timers = {});

    [[nodiscard]] const LcpResult& result() const noexcept { return result_; }

    /// Layer callbacks for the owning pppd.
    std::function<void()> onUp;
    std::function<void()> onDown;
    std::function<void()> onFinished;
    /// Echo-Reply received (keepalive bookkeeping).
    std::function<void()> onEchoReply;

    /// Send an LCP Echo-Request (only meaningful when opened).
    void sendEchoRequest();

    /// Send a Protocol-Reject for an unknown protocol number.
    void sendProtocolReject(std::uint16_t protocol, util::ByteView info);

  protected:
    std::vector<Option> buildConfigRequest() override;
    ConfigDecision checkConfigRequest(const std::vector<Option>& options) override;
    void onConfigAcked(const std::vector<Option>& options) override;
    void onConfigNakOrReject(bool isReject, const std::vector<Option>& options) override;
    bool onExtraCode(const ControlPacket& packet) override;
    void onThisLayerUp() override;
    void onThisLayerDown() override;
    void onThisLayerFinished() override;

  private:
    LcpConfig config_;
    LcpResult result_;
    util::RandomStream rng_;
    // Which of our options the peer rejected (stop requesting them).
    bool magicRejected_ = false;
    bool pfcRejected_ = false;
    bool acfcRejected_ = false;
    bool accmRejected_ = false;
    bool mruRejected_ = false;
    bool authRejected_ = false;
    std::uint8_t nextEchoId_ = 1;
};

}  // namespace onelab::ppp
