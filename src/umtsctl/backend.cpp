#include "umtsctl/backend.hpp"

#include <algorithm>

#include "modem/at_engine.hpp"
#include "obs/registry.hpp"
#include "util/strings.hpp"

namespace onelab::umtsctl {

UmtsBackend::UmtsBackend(sim::Simulator& simulator, pl::NodeOs& node,
                         sim::ByteChannel& modemTty, UmtsBackendConfig config)
    : sim_(simulator), node_(node), modemTty_(modemTty), config_(std::move(config)) {}

UmtsBackend::~UmtsBackend() { cancelRedial(); }

tools::RootShell& UmtsBackend::shell() {
    // The backend runs in the root context by construction.
    return *node_.shell(node_.rootContext()).value();
}

void UmtsBackend::reply(pl::Vsys::Completion& done, int code, std::vector<std::string> lines) {
    if (done) done(pl::VsysResult{code, std::move(lines)});
}

util::Result<std::string> UmtsBackend::destinationRule(const char* verb,
                                                       const std::string& destination) {
    return shell().exec(util::format("ip rule %s prio %d fwmark 0x%x to %s lookup %d", verb,
                                     config_.destinationRulePriority, mark(),
                                     destination.c_str(), config_.routingTable));
}

void UmtsBackend::installVsys() {
    node_.vsys().install(
        "umts", [this](const pl::Slice& caller, const std::vector<std::string>& args,
                       pl::Vsys::Completion done) { dispatch(caller, args, done); });
}

void UmtsBackend::dispatch(const pl::Slice& caller, const std::vector<std::string>& args,
                           pl::Vsys::Completion done) {
    if (args.empty()) {
        reply(done, exit_code::inval,
              {"usage: umts start|stop|status|stats|add destination <dst>|del destination "
               "<dst>"});
        return;
    }
    const std::string& verb = args[0];
    if (verb == "start") return cmdStart(caller, std::move(done));
    if (verb == "stop") return cmdStop(caller, std::move(done));
    if (verb == "status") return cmdStatus(caller, std::move(done));
    if (verb == "stats") {
        bool includeAll = args.size() >= 2 && args[1] == "all";
        // Backend-side ACL for the unscoped dump: the frontend only
        // sends "all" for the owning slice, but a hostile slice can
        // speak the raw FIFO protocol directly — scope it back to its
        // own session instead of leaking other sessions' families.
        if (includeAll && caller.name != config_.statsAllSlice) {
            obs::Registry::instance().counter("guard.umtsctl.stats_denied").inc();
            log_.warn() << "slice '" << caller.name
                        << "' denied 'stats all'; scoping to own session";
            includeAll = false;
        }
        return cmdStats(caller, std::move(done), includeAll);
    }
    if ((verb == "add" || verb == "del") && args.size() == 3 && args[1] == "destination") {
        if (verb == "add") return cmdAddDestination(caller, args[2], std::move(done));
        return cmdDelDestination(caller, args[2], std::move(done));
    }
    reply(done, exit_code::inval, {"error=unknown command '" + verb + "'"});
}

void UmtsBackend::cmdStart(const pl::Slice& caller, pl::Vsys::Completion done) {
    if (busy_) {
        reply(done, exit_code::busy, {"error=operation in progress"});
        return;
    }
    if (state_.locked) {
        if (state_.owner == caller.name && state_.connected) {
            reply(done, exit_code::ok, {"status=already-connected", "ip=" + state_.address.str()});
        } else {
            reply(done, exit_code::busy, {"error=interface locked by slice " + state_.owner});
        }
        return;
    }

    // Root-side dial-string validation: the number handed to wvdial
    // reaches ATD verbatim, so reject malformed/oversized strings here
    // before any hardware is touched (the AT engine would bounce them
    // anyway; this answers EINVAL instead of a failed dial).
    if (!modem::AtEngine::validDialString(config_.dialer.phone)) {
        obs::Registry::instance().counter("guard.umtsctl.dial_rejected").inc();
        state_.lastError = "invalid dial string";
        reply(done, exit_code::inval,
              {"error=invalid dial string '" + config_.dialer.phone + "'"});
        return;
    }

    // The drivers must be loadable before anything else (§2.3's module
    // integration step) — shelled out like the real backend script.
    for (const std::string& module : config_.requiredModules) {
        const auto loaded = shell().exec("modprobe " + module);
        if (!loaded.ok()) {
            state_.lastError = loaded.error().message;
            reply(done, exit_code::error, {"error=modprobe: " + loaded.error().message});
            return;
        }
    }

    // Lock first (check-and-lock, §2.3 "check and lock the UMTS
    // interface"), so a concurrent start from another slice fails fast.
    state_ = UmtsState{};
    state_.locked = true;
    state_.owner = caller.name;
    ownerXid_ = caller.xid;
    ownerMark_ = caller.defaultMark();
    busy_ = true;
    destinations_.clear();
    parkedDestinations_.clear();
    routesParked_ = false;
    log_.info() << "start requested by slice '" << caller.name << "' (xid " << caller.xid << ")";

    startConnection([this, done = std::move(done)](
                        util::Result<ppp::IpcpResult> addresses) mutable {
        busy_ = false;
        if (!addresses.ok()) {
            state_.locked = false;
            state_.lastError = addresses.error().message;
            reply(done, exit_code::error, {"error=" + addresses.error().message});
            return;
        }
        reply(done, exit_code::ok,
              {"status=connected", "ip=" + state_.address.str(),
               "operator=" + state_.operatorName,
               "csq=" + std::to_string(state_.signalQuality)});
    });
}

void UmtsBackend::startConnection(std::function<void(util::Result<ppp::IpcpResult>)> done) {
    comgt_ = std::make_unique<tools::Comgt>(sim_, modemTty_, config_.comgt);
    comgt_->run([this, done = std::move(done)](util::Result<tools::ComgtReport> report) mutable {
        if (!report.ok()) {
            state_.lastError = report.error().message;
            done(util::err(report.error().code,
                           "registration: " + report.error().message));
            return;
        }
        state_.operatorName = report.value().operatorName;
        state_.signalQuality = report.value().signalQuality;

        wvdial_ = std::make_unique<tools::WvDial>(sim_, modemTty_, config_.dialer);
        wvdial_->dropDtr = [this] {
            if (dropDtr) dropDtr();
        };
        wvdial_->onDisconnected = [this](const std::string& reason) { onLinkLost(reason); };
        wvdial_->dial([this, done = std::move(done)](
                          util::Result<ppp::IpcpResult> addresses) mutable {
            if (!addresses.ok()) {
                state_.lastError = addresses.error().message;
                if (dropDtr) dropDtr();
                wvdial_.reset();
                done(util::err(addresses.error().code,
                               "dial: " + addresses.error().message));
                return;
            }
            setupDataPlane(addresses.value());
            done(addresses.value());
        });
    });
}

void UmtsBackend::setupDataPlane(const ppp::IpcpResult& addresses) {
    net::NetworkStack& stack = node_.stack();
    const std::string& ifname = config_.pppInterface;

    // Bring up ppp0 and splice it to the pppd's IP plane.
    net::Interface& iface = stack.addInterface(ifname);
    iface.setAddress(addresses.localAddress);
    iface.setPeerAddress(addresses.peerAddress);
    iface.setMtu(1500);
    iface.setUp(true);
    ppp::Pppd* pppd = wvdial_->pppd();
    iface.setTxHandler([pppd](net::Packet pkt) {
        const util::Bytes wire = pkt.serialize();
        (void)pppd->sendIpDatagram({wire.data(), wire.size()});
    });
    pppd->onIpDatagram = [this, &stack](util::ByteView datagram) {
        auto parsed = net::Packet::parse(datagram);
        if (!parsed.ok()) return;
        net::Interface* ppp = stack.findInterface(config_.pppInterface);
        if (ppp) ppp->deliver(std::move(parsed.value()));
    };

    // The routing/firewall policy from §2.3, issued through the same
    // user-space tools the real backend shells out to. The default
    // route stays on eth0; only marked traffic consults table 100.
    tools::RootShell& sh = shell();
    const std::string markText = util::format("0x%x", mark());
    auto run = [&](const std::string& cmd) {
        const auto result = sh.exec(cmd);
        if (!result.ok())
            log_.error() << "setup command failed: '" << cmd << "': " << result.error().message;
    };
    run(util::format("ip route add default dev %s table %d", ifname.c_str(),
                     config_.routingTable));
    run(util::format("ip rule add prio %d fwmark %s from %s/32 lookup %d",
                     config_.addressRulePriority, markText.c_str(),
                     addresses.localAddress.str().c_str(), config_.routingTable));
    run(util::format("iptables -t mangle -A OUTPUT -m slice --xid %d -j MARK --set-mark %s",
                     ownerXid_, markText.c_str()));
    run(util::format("iptables -A OUTPUT -o %s -m slice ! --xid %d -j DROP", ifname.c_str(),
                     ownerXid_));

    state_.connected = true;
    state_.address = addresses.localAddress;
    log_.info() << "UMTS connection up: " << addresses.localAddress.str() << " on " << ifname;
    if (onConnectionEstablished) onConnectionEstablished();
}

void UmtsBackend::teardownDataPlane() {
    tools::RootShell& sh = shell();
    const std::string& ifname = config_.pppInterface;
    const std::string markText = util::format("0x%x", mark());
    auto run = [&](const std::string& cmd) { (void)sh.exec(cmd); };

    for (const std::string& destination : destinations_) (void)destinationRule("del", destination);
    destinations_.clear();
    if (state_.connected) {
        run(util::format("ip rule del prio %d fwmark %s from %s/32 lookup %d",
                         config_.addressRulePriority, markText.c_str(),
                         state_.address.str().c_str(), config_.routingTable));
    }
    run(util::format("ip route flush table %d", config_.routingTable));
    run(util::format("iptables -t mangle -D OUTPUT -m slice --xid %d -j MARK --set-mark %s",
                     ownerXid_, markText.c_str()));
    run(util::format("iptables -D OUTPUT -o %s -m slice ! --xid %d -j DROP", ifname.c_str(),
                     ownerXid_));
    (void)node_.stack().removeInterface(ifname);
    state_.connected = false;
}

void UmtsBackend::notifyCarrierLost() {
    if (wvdial_) wvdial_->carrierLost();
}

void UmtsBackend::onLinkLost(const std::string& reason) {
    if (!state_.connected) return;
    log_.warn() << "connection lost: " << reason;
    obs::Registry::instance().counter("fault.umtsctl.link_losses").inc();
    // A recovery driver keeps the slice's lock and parks its
    // destination rules: its flows resolve via the wired main table
    // until failbackRoutes().
    const bool recovering = onConnectionLost || config_.autoRedial.enable;
    if (recovering) failoverRoutes();
    teardownDataPlane();
    if (dropDtr) dropDtr();
    // This callback can arrive from deep inside the dialer's own pppd
    // (e.g. a Terminate-Ack being dispatched); destroy it only after
    // the current event unwinds.
    sim_.schedule(sim::millis(1), [dead = std::shared_ptr<tools::WvDial>(std::move(wvdial_))] {
    });
    state_.lastError = reason;
    if (!recovering) {
        state_.locked = false;
        return;
    }
    routesParked_ = true;
    if (onConnectionLost) return onConnectionLost(reason);
    redialAttempt_ = 0;
    redialBackoff_.emplace(util::BackoffConfig{
        .initialSeconds = 2.0, .maxSeconds = 60.0, .jitterFraction = 0.2,
        .seed = config_.autoRedial.jitterSeed});
    scheduleRedial();
}

void UmtsBackend::scheduleRedial() {
    if (redialTimer_.valid()) sim_.cancel(redialTimer_);
    const sim::SimTime delay = sim::seconds(redialBackoff_->nextSeconds());
    log_.info() << "auto-redial in " << sim::toSeconds(delay) << "s";
    redialTimer_ = sim_.schedule(delay, [this] {
        redialTimer_ = {};
        if (!state_.locked || state_.connected || busy_) return;
        ++redialAttempt_;
        log_.info() << "auto-redial attempt " << redialAttempt_ << "/"
                    << config_.autoRedial.maxAttempts;
        redial([this](util::Result<void> result) {
            if (result.ok()) {
                log_.info() << "auto-redial succeeded: " << state_.address.str();
                failbackRoutes();
            } else if (redialAttempt_ >= config_.autoRedial.maxAttempts) {
                // Terminal: surface the error, release the lock and
                // forget the parked rules so the slice can decide what
                // to do.
                obs::Registry::instance().counter("recovery.redial.exhausted").inc();
                log_.error() << "auto-redial exhausted after " << redialAttempt_
                             << " attempts: " << state_.lastError;
                state_.locked = false;
                parkedDestinations_.clear();
                routesParked_ = false;
            } else {
                scheduleRedial();
            }
        });
    });
}

void UmtsBackend::redial(std::function<void(util::Result<void>)> done) {
    if (busy_ || !state_.locked || state_.connected) {
        if (done)
            done(util::err(util::Error::Code::state,
                           busy_ ? "operation in progress"
                                 : state_.connected ? "already connected" : "not locked"));
        return;
    }
    obs::Registry::instance().counter("recovery.redial.attempts").inc();
    busy_ = true;
    startConnection([this, done = std::move(done)](util::Result<ppp::IpcpResult> result) mutable {
        busy_ = false;
        if (!result.ok()) {
            state_.lastError = result.error().message;
            if (done) done(util::err(result.error().code, result.error().message));
            return;
        }
        obs::Registry::instance().counter("recovery.redial.successes").inc();
        // Parked destination rules stay parked: the caller fails
        // traffic back (the supervisor only after its stability window).
        if (done) done(util::Result<void>{});
    });
}

void UmtsBackend::failoverRoutes() {
    for (const std::string& destination : destinations_) {
        (void)destinationRule("del", destination);
        parkedDestinations_.insert(destination);
    }
    destinations_.clear();
    routesParked_ = !parkedDestinations_.empty() || routesParked_;
    if (routesParked_) log_.info() << "destination rules parked: traffic on wired path";
}

void UmtsBackend::failbackRoutes() {
    if (!state_.connected) {
        log_.warn() << "failbackRoutes() while not connected";
        return;
    }
    for (const std::string& destination : parkedDestinations_) {
        const auto result = destinationRule("add", destination);
        if (result.ok())
            destinations_.insert(destination);
        else
            log_.error() << "failed to fail back destination " << destination << ": "
                         << result.error().message;
    }
    parkedDestinations_.clear();
    routesParked_ = false;
    log_.info() << "destination rules restored: traffic back on " << config_.pppInterface;
}

void UmtsBackend::cancelRedial() {
    if (redialTimer_.valid()) sim_.cancel(redialTimer_);
    redialTimer_ = {};
}

void UmtsBackend::cmdStop(const pl::Slice& caller, pl::Vsys::Completion done) {
    if (!state_.locked) {
        reply(done, exit_code::ok, {"status=not-started"});
        return;
    }
    if (state_.owner != caller.name) {
        reply(done, exit_code::perm, {"error=locked by slice " + state_.owner});
        return;
    }
    if (busy_) {
        reply(done, exit_code::busy, {"error=operation in progress"});
        return;
    }
    log_.info() << "stop requested by slice '" << caller.name << "'";
    cancelRedial();
    parkedDestinations_.clear();
    routesParked_ = false;
    teardownDataPlane();
    if (wvdial_) {
        wvdial_->onDisconnected = nullptr;  // expected teardown
        wvdial_->hangup();
        // Release the dialer once the DTR drop has gone through.
        busy_ = true;
        sim_.schedule(sim::millis(600), [this, done = std::move(done)]() mutable {
            wvdial_.reset();
            busy_ = false;
            state_.locked = false;
            reply(done, exit_code::ok, {"status=stopped"});
        });
        return;
    }
    state_.locked = false;
    reply(done, exit_code::ok, {"status=stopped"});
}

void UmtsBackend::cmdStatus(const pl::Slice& caller, pl::Vsys::Completion done) {
    (void)caller;  // any ACL'ed slice may query status
    std::vector<std::string> lines;
    lines.push_back(std::string("locked=") + (state_.locked ? "1" : "0"));
    if (state_.locked) lines.push_back("owner=" + state_.owner);
    lines.push_back(std::string("connected=") + (state_.connected ? "1" : "0"));
    if (state_.connected) {
        lines.push_back("ip=" + state_.address.str());
        lines.push_back("operator=" + state_.operatorName);
        lines.push_back("csq=" + std::to_string(state_.signalQuality));
    }
    for (const std::string& destination : destinations_)
        lines.push_back("destination=" + destination);
    if (routesParked_) lines.push_back("failover=wired");
    for (const std::string& destination : parkedDestinations_)
        lines.push_back("parked_destination=" + destination);
    if (!state_.lastError.empty()) lines.push_back("last_error=" + state_.lastError);
    if (statusExtra) {
        for (std::string& line : statusExtra()) lines.push_back(std::move(line));
    }
    reply(done, exit_code::ok, std::move(lines));
}

namespace {

/// True when `name` is a per-session bearer metric belonging to a
/// session other than `ownImsi`: "umts.bearer.<token>.*" with an
/// all-digit token (an IMSI). Every other name is node-wide.
bool belongsToOtherSession(const std::string& name, const std::string& ownImsi) {
    constexpr const char* prefix = "umts.bearer.";
    constexpr std::size_t prefixLen = 12;
    if (name.compare(0, prefixLen, prefix) != 0) return false;
    const std::size_t dot = name.find('.', prefixLen);
    if (dot == std::string::npos) return false;
    const std::string token = name.substr(prefixLen, dot - prefixLen);
    if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos)
        return false;
    return token != ownImsi;
}

}  // namespace

void UmtsBackend::cmdStats(const pl::Slice& caller, pl::Vsys::Completion done,
                           bool includeAll) {
    (void)caller;  // any ACL'ed slice may read the node metrics
    std::vector<std::string> lines;
    for (const obs::MetricSample& sample : obs::Registry::instance().snapshot()) {
        if (!includeAll && !config_.statsScopeImsi.empty() &&
            belongsToOtherSession(sample.name, config_.statsScopeImsi))
            continue;
        std::string value;
        switch (sample.kind) {
            case obs::MetricKind::counter:
                value = std::to_string(sample.counterValue);
                break;
            case obs::MetricKind::gauge:
                value = std::to_string(sample.gaugeValue);
                break;
            case obs::MetricKind::histogram:
                value = util::format(
                    "count=%llu sum=%.3f mean=%.3f", (unsigned long long)sample.count,
                    sample.sum, sample.count ? sample.sum / double(sample.count) : 0.0);
                break;
        }
        lines.push_back(sample.name + "=" + metricKindName(sample.kind) + ":" + value);
    }
    reply(done, exit_code::ok, std::move(lines));
}

void UmtsBackend::cmdAddDestination(const pl::Slice& caller, const std::string& destination,
                                    pl::Vsys::Completion done) {
    if (!state_.locked || state_.owner != caller.name) {
        reply(done, exit_code::perm, {"error=not the owner of the UMTS connection"});
        return;
    }
    if (!state_.connected && !routesParked_) {
        reply(done, exit_code::error, {"error=not connected"});
        return;
    }
    const auto prefix = net::Prefix::parse(destination);
    if (!prefix.ok()) {
        reply(done, exit_code::inval, {"error=bad destination '" + destination + "'"});
        return;
    }
    const std::string canonical = prefix.value().str();
    if (destinations_.count(canonical) || parkedDestinations_.count(canonical)) {
        reply(done, exit_code::inval, {"error=destination already present"});
        return;
    }
    if (routesParked_) {
        // Failed over: remember the destination and install its rule
        // when traffic fails back to the UMTS path.
        parkedDestinations_.insert(canonical);
        reply(done, exit_code::ok, {"destination=" + canonical, "failover=wired"});
        return;
    }
    const auto result = destinationRule("add", canonical);
    if (!result.ok()) {
        reply(done, exit_code::error, {"error=" + result.error().message});
        return;
    }
    destinations_.insert(canonical);
    reply(done, exit_code::ok, {"destination=" + canonical});
}

void UmtsBackend::cmdDelDestination(const pl::Slice& caller, const std::string& destination,
                                    pl::Vsys::Completion done) {
    if (!state_.locked || state_.owner != caller.name) {
        reply(done, exit_code::perm, {"error=not the owner of the UMTS connection"});
        return;
    }
    const auto prefix = net::Prefix::parse(destination);
    if (!prefix.ok()) {
        reply(done, exit_code::inval, {"error=bad destination '" + destination + "'"});
        return;
    }
    const std::string canonical = prefix.value().str();
    if (parkedDestinations_.erase(canonical)) {
        reply(done, exit_code::ok, {"deleted=" + canonical});
        return;
    }
    if (!destinations_.count(canonical)) {
        reply(done, exit_code::noent, {"error=no such destination"});
        return;
    }
    (void)destinationRule("del", canonical);
    destinations_.erase(canonical);
    reply(done, exit_code::ok, {"deleted=" + canonical});
}

}  // namespace onelab::umtsctl
