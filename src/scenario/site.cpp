#include "scenario/site.hpp"

namespace onelab::scenario {

net::Interface& wireEthernet(pl::NodeOs& node, net::Internet& internet,
                             net::Ipv4Address address, const EthernetParams& params) {
    net::Interface& eth = node.stack().addInterface("eth0");
    eth.setAddress(address);
    eth.setUp(true);
    net::AccessLink link;
    link.rateBitsPerSecond = params.accessRateBps;
    link.baseDelay = sim::micros(200);
    link.jitterStddevMillis = params.jitterStddevMillis;
    internet.attach(eth, link);
    node.stack().router().table(net::PolicyRouter::kMainTable)
        .addRoute(net::Route{net::Prefix::any(), "eth0", std::nullopt, 0});
    return eth;
}

// --------------------------------------------------------- wired site

WiredSite::WiredSite(sim::Simulator& simulator, net::Internet& internet,
                     WiredSiteConfig config)
    : config_(std::move(config)) {
    node_ = std::make_unique<pl::NodeOs>(simulator, config_.hostname);
    eth_ = &wireEthernet(*node_, internet, config_.address, config_.ethernet);
    for (const std::string& name : config_.sliceNames)
        slices_.push_back(&node_->createSlice(name));
}

pl::Slice* WiredSite::slice(const std::string& name) noexcept {
    for (pl::Slice* s : slices_)
        if (s->name == name) return s;
    return nullptr;
}

// ---------------------------------------------------- UMTS node site

UmtsNodeSite::UmtsNodeSite(sim::Simulator& simulator, net::Internet& internet,
                           umts::UmtsNetwork& operatorNetwork,
                           const util::RandomStream& rootRng, UmtsNodeSiteConfig config)
    : config_(std::move(config)), sim_(simulator) {
    node_ = std::make_unique<pl::NodeOs>(simulator, config_.hostname);
    eth_ = &wireEthernet(*node_, internet, config_.ethAddress, config_.ethernet);

    // --- slices ---
    umtsSlice_ = &node_->createSlice(config_.umtsSliceName);
    for (const std::string& name : config_.extraSliceNames)
        extraSlices_.push_back(&node_->createSlice(name));

    // --- the UMTS card on its TTY (/dev/ttyUSB0 in the paper) ---
    tty_ = std::make_unique<sim::Pipe>(simulator);
    modem::ModemConfig modemConfig;
    modemConfig.pin = config_.simPin;
    modemConfig.imsi = config_.imsi;
    std::vector<std::string> cardInit;
    if (config_.card == CardKind::globetrotter) {
        modem_ = std::make_unique<modem::GlobetrotterModem>(simulator, &operatorNetwork,
                                                            modemConfig);
        cardInit = {"AT_OPSYS=3"};  // prefer 3G
    } else {
        modem_ = std::make_unique<modem::HuaweiE620Modem>(simulator, &operatorNetwork,
                                                          modemConfig);
        cardInit = {"AT^CURC=0"};  // silence ^RSSI chatter
    }
    modem_->attachTty(tty_->b());

    // --- the umts backend (root context) + vsys wiring ---
    umtsctl::UmtsBackendConfig backendConfig;
    backendConfig.comgt.pin =
        config_.backendPinOverride.empty() ? config_.simPin : config_.backendPinOverride;
    backendConfig.comgt.extraInit = cardInit;
    // The card's driver, on top of the PPP stack. The vanilla `nozomi`
    // does not build for the PlanetLab kernel; the OneLab patch does.
    backendConfig.requiredModules.push_back(
        config_.card == CardKind::globetrotter ? "nozomi_onelab" : "pl2303");
    for (const std::string& module : config_.extraRequiredModules)
        backendConfig.requiredModules.push_back(module);
    backendConfig.dialer.apn = operatorNetwork.profile().apn;
    backendConfig.dialer.username = "onelab";
    backendConfig.dialer.password = "onelab";
    backendConfig.dialer.ccp.enable = config_.dialerCompression;
    backendConfig.dialer.seed = rootRng.derive(config_.dialerSeedTag).seed();
    if (config_.supervise.enable) {
        // The supervisor needs the keepalive as its health signal;
        // adaptive mode keeps a loaded link free of echo traffic (the
        // wire — and thus every figure CSV — stays identical while
        // the link is healthy and carrying flows).
        backendConfig.dialer.lcpEcho = true;
        backendConfig.dialer.lcpEchoAdaptive = true;
        backendConfig.dialer.lcpEchoInterval = config_.supervise.echoInterval;
        backendConfig.dialer.lcpEchoFailure = config_.supervise.echoFailureLimit;
    }
    // `umts stats` on this node reports this node's radio session, not
    // every bearer camping on the shared cell; only the experiment
    // slice may ask for the unscoped `stats all` dump.
    backendConfig.statsScopeImsi = config_.imsi;
    backendConfig.statsAllSlice = config_.umtsSliceName;
    backendConfig.autoRedial = config_.autoRedial;
    if (backendConfig.autoRedial.jitterSeed == 0)
        backendConfig.autoRedial.jitterSeed =
            rootRng.derive(config_.dialerSeedTag + "/redial").seed();
    backend_ = std::make_unique<umtsctl::UmtsBackend>(simulator, *node_, tty_->a(),
                                                      backendConfig);
    backend_->dropDtr = [this] { modem_->dropDtr(); };
    modem_->onCarrierLost = [this] { backend_->notifyCarrierLost(); };
    backend_->installVsys();
    node_->vsys().allow("umts", config_.umtsSliceName);
    // Admission control at the trust boundary: every request line a
    // slice pushes down the umts FIFO passes the per-slice token
    // bucket + bounded queue depth before reaching the backend.
    fifoGuard_ = std::make_unique<guard::SliceFifoGuard>(simulator, config_.fifoGuard);
    node_->vsys().setGuard("umts", fifoGuard_.get());

    frontend_ = std::make_unique<umtsctl::UmtsFrontend>(*node_, *umtsSlice_);

    if (config_.supervise.enable) {
        supervise::SupervisorConfig supConfig = config_.supervise.config;
        const supervise::SupervisorConfig defaults;
        if (supConfig.name == defaults.name) supConfig.name = config_.imsi;
        if (supConfig.seed == defaults.seed)
            supConfig.seed = rootRng.derive(config_.dialerSeedTag + "/supervise").seed();
        supervisor_ = std::make_unique<supervise::LinkSupervisor>(
            simulator, *backend_, *modem_, tty_->a(), supConfig);
        // Surface ladder state through `umts status` so a slice sees
        // what the supervisor is doing to its link.
        backend_->statusExtra = [this]() {
            std::vector<std::string> lines;
            lines.push_back(std::string("supervise_state=") +
                            supervise::healthName(supervisor_->health()));
            lines.push_back(
                "supervise_time_in_state_ms=" +
                std::to_string(long(
                    sim::toMillis(sim_.now() - supervisor_->stateSince()))));
            if (const auto latency = supervisor_->lastRecoveryLatency())
                lines.push_back("supervise_last_recovery_ms=" +
                                std::to_string(long(sim::toMillis(*latency))));
            return lines;
        };
    }
}

UmtsNodeSite::~UmtsNodeSite() = default;

pl::Slice* UmtsNodeSite::slice(const std::string& name) noexcept {
    if (umtsSlice_ && umtsSlice_->name == name) return umtsSlice_;
    for (pl::Slice* s : extraSlices_)
        if (s->name == name) return s;
    return nullptr;
}

util::Result<umtsctl::UmtsReport> UmtsNodeSite::startUmts(sim::SimTime timeout) {
    std::optional<util::Result<umtsctl::UmtsReport>> outcome;
    frontend_->start(
        [&](util::Result<umtsctl::UmtsReport> result) { outcome = std::move(result); });
    const sim::SimTime deadline = sim_.now() + timeout;
    while (!outcome && sim_.now() < deadline) sim_.runUntil(sim_.now() + sim::millis(100));
    if (!outcome) return util::err(util::Error::Code::timeout, "umts start timed out");
    return std::move(*outcome);
}

util::Result<void> UmtsNodeSite::addUmtsDestination(const std::string& destination,
                                                    sim::SimTime timeout) {
    std::optional<util::Result<void>> outcome;
    frontend_->addDestination(destination,
                              [&](util::Result<void> result) { outcome = std::move(result); });
    const sim::SimTime deadline = sim_.now() + timeout;
    while (!outcome && sim_.now() < deadline) sim_.runUntil(sim_.now() + sim::millis(10));
    if (!outcome) return util::err(util::Error::Code::timeout, "add destination timed out");
    return std::move(*outcome);
}

util::Result<void> UmtsNodeSite::stopUmts(sim::SimTime timeout) {
    std::optional<util::Result<void>> outcome;
    frontend_->stop([&](util::Result<void> result) { outcome = std::move(result); });
    const sim::SimTime deadline = sim_.now() + timeout;
    while (!outcome && sim_.now() < deadline) sim_.runUntil(sim_.now() + sim::millis(10));
    if (!outcome) return util::err(util::Error::Code::timeout, "umts stop timed out");
    return std::move(*outcome);
}

}  // namespace onelab::scenario
