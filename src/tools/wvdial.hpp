#pragma once

#include <memory>
#include <string>

#include "ppp/pppd.hpp"
#include "tools/chat.hpp"

namespace onelab::tools {

/// wvdial configuration (the [Dialer Defaults] section, in effect).
struct WvDialConfig {
    std::string apn = "internet";
    std::string phone = "*99***1#";
    std::string username = "anonymous";
    std::string password = "anonymous";
    bool requestDns = true;
    ppp::CcpConfig ccp{.enable = false, .windowCode = 12};
    /// Operator dial-up configs typically set lcp-echo-interval 0; a
    /// saturated uplink would otherwise drop enough echoes to kill the
    /// link mid-experiment. Supervised sites re-enable the keepalive
    /// with lcpEchoAdaptive so only a silent line is ever probed.
    bool lcpEcho = false;
    sim::SimTime lcpEchoInterval = sim::seconds(10.0);
    int lcpEchoFailure = 3;
    bool lcpEchoAdaptive = false;
    sim::SimTime commandTimeout = sim::seconds(5.0);
    sim::SimTime connectTimeout = sim::seconds(30.0);
    std::uint64_t seed = 7;
};

/// Dialer in the mould of `wvdial` (§2.3): defines the PDP context,
/// dials the *99# data call, and on CONNECT hands the TTY over to an
/// embedded pppd client that negotiates the link.
class WvDial {
  public:
    WvDial(sim::Simulator& simulator, sim::ByteChannel& tty, WvDialConfig config);
    ~WvDial();

    WvDial(const WvDial&) = delete;
    WvDial& operator=(const WvDial&) = delete;

    /// Dial and bring PPP up. `done` fires once with the negotiated
    /// addresses or an error.
    void dial(std::function<void(util::Result<ppp::IpcpResult>)> done);

    /// Tear the connection down: graceful LCP terminate, then DTR drop.
    void hangup();

    /// DCD dropped (the modem lost the call): kill pppd immediately,
    /// without a Terminate exchange. Wire to UmtsModem::onCarrierLost.
    void carrierLost();

    /// Out-of-band DTR control line to the modem (serial hardware
    /// signal; wire this to UmtsModem::dropDtr).
    std::function<void()> dropDtr;

    /// Fires when an established connection dies (LCP down, keepalive
    /// failure, NO CARRIER).
    std::function<void(std::string reason)> onDisconnected;

    [[nodiscard]] bool connected() const noexcept {
        return pppd_ && pppd_->isRunning();
    }
    /// The PPP daemon (valid after CONNECT; used to move datagrams).
    [[nodiscard]] ppp::Pppd* pppd() noexcept { return pppd_.get(); }

  private:
    void fail(util::Error error);

    sim::Simulator& sim_;
    sim::ByteChannel& tty_;
    WvDialConfig config_;
    std::unique_ptr<AtChat> chat_;
    std::unique_ptr<ppp::Pppd> pppd_;
    util::Logger log_{"tools.wvdial"};
    std::function<void(util::Result<ppp::IpcpResult>)> done_;
    bool dialing_ = false;
};

}  // namespace onelab::tools
