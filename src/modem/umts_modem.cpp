#include "modem/umts_modem.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/strings.hpp"

namespace onelab::modem {

namespace {

/// Strip surrounding double quotes.
std::string unquote(const std::string& text) {
    if (text.size() >= 2 && text.front() == '"' && text.back() == '"')
        return text.substr(1, text.size() - 2);
    return text;
}

}  // namespace

UmtsModem::UmtsModem(sim::Simulator& simulator, umts::UmtsNetwork* network,
                     ModemIdentity identity, ModemConfig config, const std::string& logTag)
    : sim_(simulator),
      engine_(simulator, logTag),
      log_("modem." + logTag),
      network_(network),
      identity_(std::move(identity)),
      config_(std::move(config)),
      pinAttemptsLeft_(config_.pinAttemptsAllowed) {
    pinUnlocked_ = config_.pin.empty();
    installStandardCommands();
    installVendorCommands();
    engine_.onEscape = [this] {
        // "+++": suspend data mode, keep the call up (ATO resumes).
        engine_.leaveDataMode();
        engine_.reply("OK");
    };
    if (pinUnlocked_) startRegistration();
}

UmtsModem::~UmtsModem() {
    if (registrationRetry_.valid()) sim_.cancel(registrationRetry_);
    if (network_) network_->onUeDetached(config_.imsi, nullptr);
    if (session_ && network_) {
        session_->onTeardown = nullptr;
        network_->deactivatePdp(session_);
        session_ = nullptr;
    }
}

void UmtsModem::attachTty(sim::ByteChannel& tty) { engine_.attachTty(tty); }

void UmtsModem::setNetwork(umts::UmtsNetwork* network) {
    hangup(false);
    if (network_) network_->onUeDetached(config_.imsi, nullptr);
    network_ = network;
    registration_ = RegistrationState::not_registered;
    registrationBackoff_ = sim::SimTime{0};
    if (pinUnlocked_) startRegistration();
}

void UmtsModem::dropDtr() {
    log_.info() << "DTR dropped by host";
    hangup(false);
}

void UmtsModem::hardReset() {
    log_.warn() << "hard reset injected";
    obs::Registry::instance().counter("fault.modem.hard_resets").inc();
    const bool wasOnline = session_ != nullptr || engine_.inDataMode();
    hangup(false);
    if (network_) network_->detachUe(config_.imsi);
    registration_ = RegistrationState::not_registered;
    if (registrationRetry_.valid()) {
        sim_.cancel(registrationRetry_);
        registrationRetry_ = {};
    }
    registrationBackoff_ = sim::SimTime{0};
    // Volatile card state is gone with the power.
    pdpContexts_.clear();
    pinUnlocked_ = config_.pin.empty();
    pinAttemptsLeft_ = config_.pinAttemptsAllowed;
    engine_.setEcho(true);
    if (wasOnline && onCarrierLost) onCarrierLost();  // DCD drops with power
    // The card re-appears after its boot delay and scans again.
    registrationRetry_ = sim_.schedule(kBootDelay, [this] {
        registrationRetry_ = {};
        obs::Registry::instance().counter("recovery.modem.reinits").inc();
        if (pinUnlocked_) startRegistration();
    });
}

void UmtsModem::injectAtFailure(const std::string& result, int count) {
    engine_.forceFinal(result, count);
}

void UmtsModem::reattach() {
    log_.warn() << "deliberate detach/re-attach";
    obs::Registry::instance().counter("recovery.modem.reattaches").inc();
    const bool wasOnline = session_ != nullptr || engine_.inDataMode();
    hangup(false);
    if (network_) network_->detachUe(config_.imsi);
    registration_ = RegistrationState::not_registered;
    if (registrationRetry_.valid()) {
        sim_.cancel(registrationRetry_);
        registrationRetry_ = {};
    }
    registrationBackoff_ = sim::SimTime{0};
    if (wasOnline && onCarrierLost) onCarrierLost();
    registrationRetry_ = sim_.schedule(kDetachRescanDelay, [this] {
        registrationRetry_ = {};
        if (pinUnlocked_) startRegistration();
    });
}

void UmtsModem::startRegistration() {
    if (!network_) return;
    registration_ = RegistrationState::searching;
    network_->attachUe(config_.imsi, [this](util::Result<void> result) {
        if (result.ok()) {
            registration_ = RegistrationState::registered_home;
            registrationBackoff_ = sim::SimTime{0};
            watchDetach();
            return;
        }
        // Like a real card, keep scanning: retry while powered, with
        // capped exponential backoff so a refusing/absent SGSN is not
        // hammered at a fixed cadence. Access class barring is the
        // cell shedding a transient attach backlog, so a barred card
        // rescans at the 1 s detach cadence instead: a storm keeps the
        // backlog at the barring limit apart from short gaps, and a
        // slower retry can miss every gap for longer than comgt waits.
        registration_ = RegistrationState::not_registered;
        const bool barred = result.error().code == util::Error::Code::busy;
        registrationBackoff_ = barred || registrationBackoff_.count() == 0
                                   ? kRegistrationRetryInitial
                                   : std::min(registrationBackoff_ * 2, kRegistrationRetryMax);
        obs::Registry::instance().counter("recovery.modem.registration_retries").inc();
        const sim::SimTime retry = barred ? kDetachRescanDelay : registrationBackoff_;
        if (registrationRetry_.valid()) sim_.cancel(registrationRetry_);
        registrationRetry_ = sim_.schedule(retry, [this] {
            registrationRetry_ = {};
            if (registration_ != RegistrationState::registered_home) startRegistration();
        });
    });
}

void UmtsModem::watchDetach() {
    if (!network_) return;
    network_->onUeDetached(config_.imsi, [this] {
        // Network-initiated detach (injected fault or coverage loss):
        // the card loses registration and starts scanning again.
        if (registration_ == RegistrationState::not_registered) return;
        log_.warn() << "network-initiated detach; rescanning";
        registration_ = RegistrationState::not_registered;
        obs::Registry::instance().counter("recovery.modem.reregistrations").inc();
        if (registrationRetry_.valid()) sim_.cancel(registrationRetry_);
        registrationRetry_ = sim_.schedule(kDetachRescanDelay, [this] {
            registrationRetry_ = {};
            if (registration_ != RegistrationState::registered_home) startRegistration();
        });
    });
}

void UmtsModem::hangup(bool notifyNoCarrier) {
    if (session_) {
        session_->onTeardown = nullptr;
        umts::UmtsSession* session = session_;
        session_ = nullptr;
        if (network_) network_->deactivatePdp(session);
    }
    if (engine_.inDataMode()) engine_.leaveDataMode();
    if (notifyNoCarrier) engine_.unsolicited("NO CARRIER");
}

void UmtsModem::bridgeDataMode() {
    if (!session_) return;
    // Host -> bearer uplink: the pooled slice that arrived on the TTY
    // is queued into the RLC buffer without a copy.
    engine_.enterDataMode([this](util::SharedBytes data) {
        if (session_) session_->ueChannel().write(data);
    });
    // Bearer downlink -> host (only while online; a suspended call
    // discards downlink bytes like a real modem's overflowing buffer).
    session_->ueChannel().onData([this](util::SharedBytes data) {
        if (engine_.inDataMode()) engine_.sendToHost(data);
    });
    session_->onTeardown = [this] {
        session_ = nullptr;
        engine_.leaveDataMode();
        engine_.unsolicited("NO CARRIER");
        if (onCarrierLost) onCarrierLost();  // DCD drops
    };
}

void UmtsModem::dial(const std::string& dialString) {
    if (!network_ || registration_ != RegistrationState::registered_home) {
        engine_.final("NO CARRIER");
        return;
    }
    // GPRS/UMTS data call: *99# or *99***<cid>#.
    if (!util::startsWith(dialString, "*99")) {
        engine_.final("NO CARRIER");  // voice calls unsupported on data cards
        return;
    }
    int cid = 1;
    const auto starPos = dialString.find("***");
    if (starPos != std::string::npos) {
        const auto hashPos = dialString.find('#', starPos);
        if (hashPos != std::string::npos) {
            const auto parsed =
                util::parseInt(dialString.substr(starPos + 3, hashPos - starPos - 3));
            if (parsed.ok()) cid = int(parsed.value());
        }
    }
    const auto context = pdpContexts_.find(cid);
    if (context == pdpContexts_.end()) {
        log_.warn() << "dial with undefined PDP context " << cid;
        engine_.final("ERROR");
        return;
    }
    network_->activatePdp(config_.imsi, context->second.apn,
                          [this](util::Result<umts::UmtsSession*> result) {
                              if (!result.ok()) {
                                  log_.warn() << "PDP activation failed: "
                                              << result.error().message;
                                  engine_.final("NO CARRIER");
                                  return;
                              }
                              session_ = result.value();
                              engine_.final("CONNECT 3600000");
                              bridgeDataMode();
                          });
}

void UmtsModem::installStandardCommands() {
    auto ok = [this](const std::string&, const std::string&) { engine_.final("OK"); };

    // Basic commands every chat script throws at a modem.
    engine_.registerCommand("Z", [this](const std::string&, const std::string&) {
        engine_.setEcho(true);
        engine_.final("OK");
    });
    engine_.registerCommand("E", [this](const std::string&, const std::string& tail) {
        engine_.setEcho(tail != "0");
        engine_.final("OK");
    });
    for (const char* stub : {"&F", "&C", "&D", "&K", "Q", "V", "X", "S", "+FCLASS", "+CMEE",
                             "+IFC", "+IPR", "L", "M"})
        engine_.registerCommand(stub, ok);

    engine_.registerCommand("I", [this](const std::string&, const std::string&) {
        engine_.reply(identity_.manufacturer);
        engine_.reply(identity_.model);
        engine_.reply("Revision: " + identity_.revision);
        engine_.final("OK");
    });
    engine_.registerCommand("+CGMI", [this](const std::string&, const std::string&) {
        engine_.reply(identity_.manufacturer);
        engine_.final("OK");
    });
    engine_.registerCommand("+CGMM", [this](const std::string&, const std::string&) {
        engine_.reply(identity_.model);
        engine_.final("OK");
    });
    engine_.registerCommand("+CGMR", [this](const std::string&, const std::string&) {
        engine_.reply(identity_.revision);
        engine_.final("OK");
    });
    engine_.registerCommand("+CGSN", [this](const std::string&, const std::string&) {
        engine_.reply(config_.imei);
        engine_.final("OK");
    });
    engine_.registerCommand("+CIMI", [this](const std::string&, const std::string&) {
        engine_.reply(config_.imsi);
        engine_.final("OK");
    });

    // SIM / PIN.
    engine_.registerCommand("+CPIN", [this](const std::string&, const std::string& tail) {
        if (tail == "?") {
            if (simBlocked())
                engine_.reply("+CPIN: SIM PUK");
            else
                engine_.reply(pinUnlocked_ ? "+CPIN: READY" : "+CPIN: SIM PIN");
            engine_.final("OK");
            return;
        }
        if (util::startsWith(tail, "=")) {
            if (simBlocked()) {
                engine_.final("+CME ERROR: SIM PUK required");
                return;
            }
            if (pinUnlocked_) {
                engine_.final("OK");
                return;
            }
            const std::string pin = unquote(util::trim(tail.substr(1)));
            if (pin == config_.pin) {
                pinUnlocked_ = true;
                pinAttemptsLeft_ = config_.pinAttemptsAllowed;
                engine_.final("OK");
                startRegistration();
            } else {
                --pinAttemptsLeft_;
                engine_.final("+CME ERROR: incorrect password");
            }
            return;
        }
        engine_.final("ERROR");
    });

    // Registration and operator info.
    engine_.registerCommand("+CREG", [this](const std::string&, const std::string& tail) {
        if (tail == "?") {
            engine_.reply("+CREG: 0," + std::to_string(int(registration_)));
            engine_.final("OK");
        } else {
            engine_.final("OK");
        }
    });
    engine_.registerCommand("+COPS", [this](const std::string&, const std::string& tail) {
        if (tail == "?") {
            if (registration_ == RegistrationState::registered_home && network_)
                engine_.reply("+COPS: 0,0,\"" + network_->profile().displayName + "\",2");
            else
                engine_.reply("+COPS: 0");
            engine_.final("OK");
        } else {
            engine_.final("OK");
        }
    });
    engine_.registerCommand("+CSQ", [this](const std::string&, const std::string&) {
        const int csq = network_ ? network_->signalQuality() : 99;
        engine_.reply("+CSQ: " + std::to_string(csq) + ",99");
        engine_.final("OK");
    });

    // PDP context management.
    engine_.registerCommand("+CGDCONT", [this](const std::string&, const std::string& tail) {
        if (tail == "?") {
            for (const auto& [cid, def] : pdpContexts_)
                engine_.reply(util::format("+CGDCONT: %d,\"%s\",\"%s\",\"0.0.0.0\",0,0", cid,
                                           def.type.c_str(), def.apn.c_str()));
            engine_.final("OK");
            return;
        }
        if (util::startsWith(tail, "=")) {
            const auto parts = util::split(tail.substr(1), ',');
            if (parts.empty()) {
                engine_.final("ERROR");
                return;
            }
            const auto cid = util::parseInt(parts[0]);
            if (!cid.ok()) {
                engine_.final("ERROR");
                return;
            }
            PdpDefinition def;
            if (parts.size() > 1) def.type = unquote(util::trim(parts[1]));
            if (parts.size() > 2) def.apn = unquote(util::trim(parts[2]));
            pdpContexts_[int(cid.value())] = def;
            engine_.final("OK");
            return;
        }
        engine_.final("ERROR");
    });
    engine_.registerCommand("+CGATT", [this](const std::string&, const std::string& tail) {
        if (tail == "?") {
            const bool attached =
                network_ && registration_ == RegistrationState::registered_home &&
                network_->isAttached(config_.imsi);
            engine_.reply(std::string("+CGATT: ") + (attached ? "1" : "0"));
            engine_.final("OK");
            return;
        }
        if (tail == "=1") {
            if (!network_) {
                engine_.final("ERROR");
                return;
            }
            network_->attachUe(config_.imsi, [this](util::Result<void> result) {
                if (result.ok()) registration_ = RegistrationState::registered_home;
                engine_.final(result.ok() ? "OK" : "ERROR");
            });
            return;
        }
        if (tail == "=0") {
            if (network_) network_->detachUe(config_.imsi);
            registration_ = RegistrationState::not_registered;
            engine_.final("OK");
            return;
        }
        engine_.final("ERROR");
    });

    // Dialing and call control.
    engine_.registerCommand("D", [this](const std::string&, const std::string& tail) {
        std::string number = util::trim(tail);
        if (!number.empty() && (number[0] == 'T' || number[0] == 'P'))
            number = number.substr(1);  // tone/pulse prefix
        dial(number);
    });
    engine_.registerCommand("H", [this](const std::string&, const std::string&) {
        hangup(false);
        engine_.final("OK");
    });
    engine_.registerCommand("O", [this](const std::string&, const std::string&) {
        if (!session_) {
            engine_.final("NO CARRIER");
            return;
        }
        engine_.final("CONNECT 3600000");
        bridgeDataMode();
    });
}

}  // namespace onelab::modem
