#pragma once

#include <map>
#include <memory>
#include <string>

#include "modem/at_engine.hpp"
#include "umts/network.hpp"

namespace onelab::modem {

/// Static identity strings (AT+CGMI/+CGMM/+CGMR).
struct ModemIdentity {
    std::string manufacturer;
    std::string model;
    std::string revision;
};

/// SIM and subscriber configuration.
struct ModemConfig {
    std::string imsi = "222880000000001";
    std::string imei = "356938035643809";
    std::string pin;  ///< empty = SIM not PIN-locked
    int pinAttemptsAllowed = 3;
};

/// GSM 07.10-style registration status (AT+CREG).
enum class RegistrationState : int {
    not_registered = 0,
    registered_home = 1,
    searching = 2,
    denied = 3,
    roaming = 5,
};

/// A UMTS data card: Hayes command set over a TTY, SIM/PIN handling,
/// network registration, PDP context definition and the ATD*99# data
/// call that bridges the TTY to the radio bearer. Card personalities
/// (Option Globetrotter GT+, Huawei E620) subclass to add their vendor
/// command quirks.
class UmtsModem {
  public:
    UmtsModem(sim::Simulator& simulator, umts::UmtsNetwork* network, ModemIdentity identity,
              ModemConfig config, const std::string& logTag);
    virtual ~UmtsModem();

    UmtsModem(const UmtsModem&) = delete;
    UmtsModem& operator=(const UmtsModem&) = delete;

    /// Attach the device side of the host TTY.
    void attachTty(sim::ByteChannel& tty);

    /// Host dropped DTR (hangup from wvdial/pppd).
    void dropDtr();

    /// DCD line toward the host: fires when the network side tears the
    /// data call down (the host's pppd sees carrier loss).
    std::function<void()> onCarrierLost;

    /// Re-point the modem at another operator network (swapping the
    /// SIM/operator in the experiment).
    void setNetwork(umts::UmtsNetwork* network);

    /// Fault hook: power-cycle the card. The data call, registration,
    /// volatile PDP contexts and echo state are lost; the host sees
    /// DCD drop. The card reboots and, PIN permitting, re-registers
    /// after a short boot delay.
    void hardReset();

    /// Fault hook: answer the next `count` AT commands with `result`
    /// instead of executing them (see AtEngine::forceFinal).
    void injectAtFailure(const std::string& result, int count = 1);

    /// Recovery hook: deliberate detach + re-attach (AT+CGATT=0 then
    /// =1, as recovery tooling issues it). Gentler than hardReset():
    /// volatile card state — PDP definitions, PIN, echo — survives; the
    /// card drops its registration and rescans after the detach settle
    /// time, with no boot delay.
    void reattach();

    // --- inspection for tests/status ---
    /// The AT command engine — the hardening knobs (line cap, dial
    /// validation) live here; adversary benches toggle them to
    /// reproduce the unguarded historic firmware.
    [[nodiscard]] AtEngine& atEngine() noexcept { return engine_; }
    [[nodiscard]] bool pinUnlocked() const noexcept { return pinUnlocked_; }
    [[nodiscard]] bool simBlocked() const noexcept { return pinAttemptsLeft_ <= 0; }
    [[nodiscard]] RegistrationState registration() const noexcept { return registration_; }
    [[nodiscard]] bool inDataMode() const noexcept { return engine_.inDataMode(); }
    [[nodiscard]] umts::UmtsSession* session() noexcept { return session_; }
    [[nodiscard]] const ModemIdentity& identity() const noexcept { return identity_; }

  protected:
    /// Personalities register vendor commands here.
    virtual void installVendorCommands() {}

    sim::Simulator& sim_;
    AtEngine engine_;
    util::Logger log_;

  private:
    void installStandardCommands();
    void startRegistration();
    void watchDetach();
    void dial(const std::string& dialString);
    void hangup(bool notifyNoCarrier);
    void bridgeDataMode();

    umts::UmtsNetwork* network_;
    ModemIdentity identity_;
    ModemConfig config_;

    bool pinUnlocked_ = false;
    int pinAttemptsLeft_;
    RegistrationState registration_ = RegistrationState::not_registered;

    struct PdpDefinition {
        std::string type = "IP";
        std::string apn;
    };
    std::map<int, PdpDefinition> pdpContexts_;

    umts::UmtsSession* session_ = nullptr;
    sim::EventHandle registrationRetry_;

    // Re-registration backoff: 5 s after the first failure, doubling
    // to a cap — a commercial card never hammers a refusing SGSN. A
    // barred attach (access class barring) always retries after 5 s.
    static constexpr sim::SimTime kRegistrationRetryInitial = sim::seconds(5.0);
    static constexpr sim::SimTime kRegistrationRetryMax = sim::seconds(80.0);
    static constexpr sim::SimTime kBootDelay = sim::seconds(2.0);
    static constexpr sim::SimTime kDetachRescanDelay = sim::seconds(1.0);
    sim::SimTime registrationBackoff_{0};
};

}  // namespace onelab::modem
