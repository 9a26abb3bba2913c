#include "supervise/supervisor.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace onelab::supervise {

namespace {

/// Seconds-scale buckets (0.25 s .. ~2 h) shared by the time-in-state
/// and recovery-latency histograms. The spec is fixed by the first
/// registration, so observation sites must use the same one.
constexpr obs::HistogramSpec kSecondsSpec{0.25, 2.0, 16};

constexpr const char* kStateNames[] = {"healthy", "degraded", "recovering", "failed_over"};

std::string gaugeName(Health health) {
    return std::string("supervise.links.") + kStateNames[std::size_t(health)];
}

/// Touch every supervise.* family so a run's telemetry export carries
/// the full set (zeros included) regardless of which paths fired —
/// same byte-identity argument as registerFaultMetricFamilies().
void registerSuperviseMetricFamilies() {
    auto& registry = obs::Registry::instance();
    for (const char* name : {
             "supervise.incidents", "supervise.recovered", "supervise.failovers",
             "supervise.failbacks", "supervise.echo.degraded", "supervise.breaker.trips",
             "supervise.breaker.cooldown_retries", "supervise.ladder.renegotiate",
             "supervise.ladder.redial", "supervise.ladder.modem_reset",
             "supervise.ladder.reattach", "supervise.probe.at_ok", "supervise.probe.at_dead",
             "supervise.transitions.healthy", "supervise.transitions.degraded",
             "supervise.transitions.recovering", "supervise.transitions.failed_over",
         })
        (void)registry.counter(name);
    for (const char* state : kStateNames) {
        (void)registry.gauge(std::string("supervise.links.") + state);
        (void)registry.histogram(std::string("supervise.time_in_state.") + state,
                                 kSecondsSpec);
    }
    (void)registry.histogram("supervise.recovery_latency_seconds", kSecondsSpec);
}

}  // namespace

const char* healthName(Health health) noexcept {
    return kStateNames[std::size_t(health)];
}

LinkSupervisor::LinkSupervisor(sim::Simulator& simulator, umtsctl::UmtsBackend& backend,
                               modem::UmtsModem& modem, sim::ByteChannel& tty,
                               SupervisorConfig config)
    : sim_(simulator),
      backend_(backend),
      modem_(modem),
      tty_(tty),
      config_(std::move(config)),
      log_("supervise." + config_.name),
      breaker_(config_.breaker),
      backoff_(util::BackoffConfig{
          .initialSeconds = sim::toSeconds(config_.redialInitialBackoff),
          .maxSeconds = sim::toSeconds(config_.redialMaxBackoff),
          .jitterFraction = config_.backoffJitter,
          .seed = config_.seed,
      }) {
    registerSuperviseMetricFamilies();
    stateSince_ = sim_.now();
    obs::Registry::instance().gauge(gaugeName(health_)).add(1);
    backend_.onConnectionLost = [this](const std::string& reason) { onLinkLost(reason); };
    backend_.onConnectionEstablished = [this] { onLinkEstablished(); };
}

LinkSupervisor::~LinkSupervisor() {
    *alive_ = false;
    if (actionTimer_.valid()) sim_.cancel(actionTimer_);
    if (stabilityTimer_.valid()) sim_.cancel(stabilityTimer_);
    backend_.onConnectionLost = nullptr;
    backend_.onConnectionEstablished = nullptr;
    if (ppp::Pppd* pppd = backend_.livePppd()) pppd->onEchoStatus = nullptr;
    obs::Registry::instance().gauge(gaugeName(health_)).add(-1);
}

void LinkSupervisor::enterState(Health next) {
    if (next == health_) return;
    const sim::SimTime now = sim_.now();
    auto& registry = obs::Registry::instance();
    registry.histogram("supervise.time_in_state." + std::string(healthName(health_)),
                       kSecondsSpec)
        .observe(sim::toSeconds(now - stateSince_));
    registry.gauge(gaugeName(health_)).add(-1);
    registry.gauge(gaugeName(next)).add(1);
    registry.counter("supervise.transitions." + std::string(healthName(next))).inc();
    const std::string edge =
        std::string(healthName(health_)) + " -> " + healthName(next);
    obs::Tracer::instance().transition("supervise", config_.name, edge);
    log_.info() << healthName(health_) << " -> " << healthName(next);
    health_ = next;
    stateSince_ = now;
}

void LinkSupervisor::startIncident() {
    if (incidentOpen_) return;
    incidentOpen_ = true;
    incidentStart_ = sim_.now();
    ++incidentCount_;
    attempts_ = 0;
    backoff_.reset();
    obs::Registry::instance().counter("supervise.incidents").inc();
    obs::Tracer::instance().begin("supervise", config_.name + ".incident");
}

void LinkSupervisor::noteFailover() {
    if (wiredActive_ || !backend_.routesParked()) return;
    wiredActive_ = true;
    obs::Registry::instance().counter("supervise.failovers").inc();
    log_.warn() << "flows steered to the wired path";
}

void LinkSupervisor::onLinkEstablished() {
    if (ppp::Pppd* pppd = backend_.livePppd()) {
        std::weak_ptr<bool> alive = alive_;
        pppd->onEchoStatus = [this, alive](int missed) {
            if (alive.expired()) return;
            onEchoStatus(missed);
        };
    }
    renegotiated_ = false;
    if (health_ == Health::recovering || health_ == Health::failed_over) {
        // Probation: the link must hold for the stability window (the
        // adaptive keepalive reports in below) before flows fail back.
        enterState(Health::degraded);
        armStabilityWindow();
    }
}

void LinkSupervisor::onLinkLost(const std::string& reason) {
    const sim::SimTime now = sim_.now();
    if (stabilityTimer_.valid()) {
        sim_.cancel(stabilityTimer_);
        stabilityTimer_ = {};
    }
    const bool tripped = breaker_.recordFlap(now);
    if (tripped) {
        obs::Registry::instance().counter("supervise.breaker.trips").inc();
        log_.warn() << "breaker tripped: " << breaker_.config().flapThreshold
                    << " flaps within " << sim::toSeconds(breaker_.config().window)
                    << "s — cooling down";
    }
    startIncident();
    noteFailover();
    log_.warn() << "link lost (" << reason << "), incident attempt " << attempts_ << "/"
                << config_.maxAttemptsPerIncident;
    if (tripped || breaker_.open(now)) {
        parkInCooldown();
        return;
    }
    enterState(Health::recovering);
    scheduleLadderStep();
}

void LinkSupervisor::onEchoStatus(int missed) {
    if (health_ == Health::healthy) {
        if (missed < config_.degradeAfterMisses) return;
        obs::Registry::instance().counter("supervise.echo.degraded").inc();
        log_.warn() << missed << " LCP echo(es) unanswered — degrading";
        startIncident();
        enterState(Health::degraded);
        // Move flows to wired while the link is probed, and give the
        // cheapest ladder rung a chance: one transparent LCP
        // renegotiation per degradation.
        backend_.failoverRoutes();
        noteFailover();
        if (!renegotiated_) {
            renegotiated_ = true;
            obs::Registry::instance().counter("supervise.ladder.renegotiate").inc();
            obs::Tracer::instance().instant("supervise", config_.name + ".renegotiate");
            if (ppp::Pppd* pppd = backend_.livePppd()) pppd->renegotiateLcp();
        }
        return;
    }
    if (health_ != Health::degraded) return;
    if (missed == 0) {
        // Proof of life. Arm (but never postpone) the fail-back
        // window: a steady stream of good reports must not keep
        // pushing the fail-back into the future.
        if (!stabilityTimer_.valid()) armStabilityWindow();
    } else if (stabilityTimer_.valid()) {
        // Still shaky — the probation clock restarts on the next good
        // report.
        sim_.cancel(stabilityTimer_);
        stabilityTimer_ = {};
    }
}

void LinkSupervisor::scheduleLadderStep() {
    if (attempts_ >= config_.maxAttemptsPerIncident) {
        log_.error() << "ladder exhausted after " << attempts_ << " attempts";
        parkInCooldown();
        return;
    }
    const sim::SimTime delay = sim::seconds(backoff_.nextSeconds());
    if (actionTimer_.valid()) sim_.cancel(actionTimer_);
    actionTimer_ = sim_.schedule(delay, [this] {
        actionTimer_ = {};
        ladderStep();
    });
}

void LinkSupervisor::ladderStep() {
    obs::ProfileScope scope(obs::ProfileCategory::supervise);
    if (!backend_.state().locked) {
        // Administrative stop while we were recovering: stand down.
        log_.info() << "backend unlocked — supervisor standing down";
        incidentOpen_ = false;
        obs::Tracer::instance().end("supervise", config_.name + ".incident");
        enterState(Health::healthy);
        return;
    }
    if (backend_.busy()) {
        // A start/stop is mid-flight; look again shortly.
        actionTimer_ = sim_.schedule(sim::seconds(1.0), [this] {
            actionTimer_ = {};
            ladderStep();
        });
        return;
    }
    if (backend_.state().connected) return;  // recovered underneath us
    ++attempts_;
    auto& registry = obs::Registry::instance();
    if (attempts_ == config_.redialsBeforeReset + 1) {
        // Deep rung: let an AT liveness probe pick the reset depth.
        probeModem();
        return;
    }
    if (attempts_ == config_.redialsBeforeReattach + 1) {
        // Deepest rung: deliberate detach + re-attach.
        registry.counter("supervise.ladder.reattach").inc();
        obs::Tracer::instance().instant("supervise", config_.name + ".reattach");
        log_.warn() << "ladder: detach/re-attach (attempt " << attempts_ << ")";
        modem_.reattach();
        scheduleLadderStep();
        return;
    }
    registry.counter("supervise.ladder.redial").inc();
    obs::Tracer::instance().instant("supervise", config_.name + ".redial",
                                    "attempt " + std::to_string(attempts_));
    log_.info() << "ladder: redial (attempt " << attempts_ << "/"
                << config_.maxAttemptsPerIncident << ")";
    backend_.redial([this, alive = std::weak_ptr<bool>(alive_)](util::Result<void> result) {
        if (alive.expired()) return;
        if (result.ok()) return;  // onLinkEstablished starts probation
        log_.warn() << "redial failed: " << result.error().message;
        scheduleLadderStep();
    });
}

void LinkSupervisor::probeModem() {
    obs::Tracer::instance().begin("supervise", config_.name + ".probe");
    probeChat_ = std::make_unique<tools::AtChat>(sim_, tty_, config_.name + ".probe");
    probeChat_->send("AT", config_.atProbeTimeout,
                     [this, alive = std::weak_ptr<bool>(alive_)](
                         util::Result<tools::ChatResponse> response) {
                         if (alive.expired()) return;
                         finishProbe(response.ok());
                     });
}

void LinkSupervisor::finishProbe(bool modemAlive) {
    obs::Tracer::instance().end("supervise", config_.name + ".probe");
    if (probeChat_) {
        probeChat_->release();
        probeChat_.reset();
    }
    auto& registry = obs::Registry::instance();
    if (modemAlive) {
        // The card answers AT: the radio side is stuck, not the card.
        // A detach/re-attach keeps its volatile state and skips the
        // boot delay.
        registry.counter("supervise.probe.at_ok").inc();
        registry.counter("supervise.ladder.reattach").inc();
        obs::Tracer::instance().instant("supervise", config_.name + ".reattach");
        log_.warn() << "ladder: modem alive, detach/re-attach (attempt " << attempts_ << ")";
        modem_.reattach();
    } else {
        registry.counter("supervise.probe.at_dead").inc();
        registry.counter("supervise.ladder.modem_reset").inc();
        obs::Tracer::instance().instant("supervise", config_.name + ".modem_reset");
        log_.warn() << "ladder: modem mute, hard reset (attempt " << attempts_ << ")";
        modem_.hardReset();
    }
    scheduleLadderStep();
}

void LinkSupervisor::parkInCooldown() {
    const sim::SimTime now = sim_.now();
    enterState(Health::failed_over);
    noteFailover();
    const sim::SimTime wait =
        breaker_.open(now) ? breaker_.openUntil() - now : config_.breaker.cooldown;
    log_.warn() << "parked on wired path for " << sim::toSeconds(wait) << "s";
    // A parked link is the terminal outcome of an incident: freeze the
    // black box now so the ladder/fault sequence that led here is on
    // disk even if the run carries on for hours.
    obs::Tracer::instance().requestDump("supervisor " + config_.name + " parked (failed_over)");
    if (actionTimer_.valid()) sim_.cancel(actionTimer_);
    actionTimer_ = sim_.schedule(wait, [this] {
        actionTimer_ = {};
        cooldownRetry();
    });
}

void LinkSupervisor::cooldownRetry() {
    if (!backend_.state().locked || backend_.state().connected) return;
    obs::Registry::instance().counter("supervise.breaker.cooldown_retries").inc();
    log_.info() << "cooldown over — retrying recovery";
    // A fresh ladder round inside the same incident: the flap history
    // was cleared when the breaker tripped.
    attempts_ = 0;
    backoff_.reset();
    enterState(Health::recovering);
    scheduleLadderStep();
}

void LinkSupervisor::armStabilityWindow() {
    if (stabilityTimer_.valid()) sim_.cancel(stabilityTimer_);
    stabilityTimer_ = sim_.schedule(config_.stabilityWindow, [this] {
        stabilityTimer_ = {};
        onStable();
    });
}

void LinkSupervisor::onStable() {
    if (health_ != Health::degraded) return;
    auto& registry = obs::Registry::instance();
    if (backend_.routesParked() && backend_.state().connected) {
        backend_.failbackRoutes();
        registry.counter("supervise.failbacks").inc();
        log_.info() << "flows steered back to the UMTS path";
    }
    wiredActive_ = false;
    if (incidentOpen_) {
        incidentOpen_ = false;
        lastRecoveryLatency_ = sim_.now() - incidentStart_;
        hasRecovered_ = true;
        registry
            .histogram("supervise.recovery_latency_seconds", kSecondsSpec)
            .observe(sim::toSeconds(lastRecoveryLatency_));
        registry.counter("supervise.recovered").inc();
        obs::Tracer::instance().end("supervise", config_.name + ".incident");
    }
    renegotiated_ = false;
    enterState(Health::healthy);
}

}  // namespace onelab::supervise
