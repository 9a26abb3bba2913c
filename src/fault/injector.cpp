#include "fault/injector.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace onelab::fault {

namespace {

/// Touch every fault.* / recovery.* counter the stack can emit, so a
/// chaos run's telemetry export carries the full family set (zeros
/// included) no matter which kinds actually fired. Without this the
/// exported byte stream would depend on which metrics happened to be
/// created first inside one process — breaking same-seed byte
/// identity across runs that share a registry.
void registerFaultMetricFamilies() {
    auto& registry = obs::Registry::instance();
    for (const char* name : {
             "fault.cancelled", "fault.injected", "fault.skipped",
             "fault.modem.at_forced", "fault.modem.hard_resets",
             "fault.ppp.lcp_renegotiations", "fault.umts.bearer_drops",
             "fault.umts.cell_squeezes", "fault.umts.coverage_outages",
             "fault.umts.detaches", "fault.umts.loss_bursts",
             "fault.umts.rlc_outages", "fault.umtsctl.link_losses",
             "recovery.modem.reattaches", "recovery.modem.registration_retries",
             "recovery.modem.reinits", "recovery.modem.reregistrations",
             "recovery.redial.attempts", "recovery.redial.exhausted",
             "recovery.redial.successes",
         })
        (void)registry.counter(name);
    for (std::size_t kind = 0; kind < kFaultKindCount; ++kind)
        (void)registry.counter(std::string("fault.injected.") + kindName(FaultKind(kind)));
}

}  // namespace

FaultInjector::FaultInjector(scenario::Fleet& fleet, FaultPlan plan)
    : fleet_(&fleet), plan_(std::move(plan)) {
    registerFaultMetricFamilies();
    // The fleet outliving the injector and the injector outliving the
    // fleet must both be safe: the hook checks our liveness token, and
    // cancelAll() checks fleet_.
    std::weak_ptr<bool> alive = alive_;
    fleet.addTeardownHook([this, alive] {
        if (alive.expired()) return;
        cancelAll();
        fleet_ = nullptr;
    });
}

FaultInjector::~FaultInjector() { cancelAll(); }

void FaultInjector::arm() {
    if (!fleet_) return;
    sim::Simulator& sim = fleet_->sim();
    armed_.resize(plan_.size());
    for (std::size_t i = 0; i < plan_.size(); ++i) {
        const FaultEvent& event = plan_.events()[i];
        if (armed_[i].fired || armed_[i].handle.valid()) continue;  // re-arm is a no-op
        if (event.at < sim.now()) {
            armed_[i].fired = true;
            ++stats_.skipped;
            obs::Registry::instance().counter("fault.skipped").inc();
            continue;
        }
        armed_[i].handle = sim.scheduleAt(event.at, [this, i] { fire(i); });
        ++stats_.scheduled;
    }
    log_.info() << "armed " << stats_.scheduled << " of " << plan_.size() << " fault events";
}

void FaultInjector::cancelAll() {
    const auto cancelList = [this](std::vector<Armed>& list) {
        for (Armed& entry : list) {
            if (entry.fired || !entry.handle.valid()) continue;
            if (fleet_) fleet_->sim().cancel(entry.handle);
            entry.fired = true;
            ++stats_.cancelled;
            obs::Registry::instance().counter("fault.cancelled").inc();
        }
    };
    cancelList(restores_);
    cancelList(armed_);
}

scenario::UmtsNodeSite* FaultInjector::site(int index) noexcept {
    if (!fleet_ || index < 0 || std::size_t(index) >= fleet_->umtsSiteCount()) return nullptr;
    return &fleet_->umtsSite(std::size_t(index));
}

umts::UmtsSession* FaultInjector::sessionForSite(int index) noexcept {
    scenario::UmtsNodeSite* target = site(index);
    if (!target) return nullptr;
    umts::UmtsNetwork& network = fleet_->operatorNetwork();
    for (std::size_t k = 0; k < network.activeSessions(); ++k) {
        umts::UmtsSession* session = network.sessionAt(k);
        if (session && session->active() && session->imsi() == target->imsi())
            return session;
    }
    return nullptr;
}

void FaultInjector::scheduleRestore(sim::SimTime delay, std::function<void()> restore) {
    if (!fleet_) return;
    restores_.push_back({});
    const std::size_t index = restores_.size() - 1;
    restores_[index].handle = fleet_->sim().schedule(
        delay, [this, index, restore = std::move(restore)] {
            restores_[index].fired = true;
            if (fleet_) restore();
        });
}

void FaultInjector::fire(std::size_t eventIndex) {
    armed_[eventIndex].fired = true;
    if (!fleet_) return;
    const FaultEvent& event = plan_.events()[eventIndex];
    ++stats_.fired;

    umts::UmtsNetwork& network = fleet_->operatorNetwork();
    scenario::UmtsNodeSite* target = site(event.site);
    // Record the plan event before applying it: a fault can cascade
    // synchronously into a breaker park (and the flight dump), and the
    // black box must show the fault ahead of its consequences.
    obs::Tracer::instance().note(obs::RecordKind::event, "fault", kindName(event.kind),
                                 "site=" + std::to_string(event.site),
                                 std::int64_t(event.site));
    bool applied = true;
    switch (event.kind) {
        case FaultKind::bearer_drop:
            applied = target && network.injectBearerDrop(target->imsi());
            break;
        case FaultKind::ue_detach:
            applied = target && network.isAttached(target->imsi());
            if (applied) network.injectDetach(target->imsi());
            break;
        case FaultKind::coverage_outage:
            network.injectCoverageOutage(event.duration);
            break;
        case FaultKind::cell_squeeze:
            network.cell().setCapacityScale(event.magnitude);
            scheduleRestore(event.duration, [this] {
                if (fleet_) fleet_->operatorNetwork().cell().setCapacityScale(1.0);
            });
            break;
        case FaultKind::rlc_outage:
            if (umts::UmtsSession* session = sessionForSite(event.site))
                session->bearer().injectOutage(event.duration);
            else
                applied = false;
            break;
        case FaultKind::rlc_loss_burst:
            if (umts::UmtsSession* session = sessionForSite(event.site))
                session->bearer().injectLossBurst(event.magnitude, event.duration);
            else
                applied = false;
            break;
        case FaultKind::modem_reset:
            if (target)
                target->card().hardReset();
            else
                applied = false;
            break;
        case FaultKind::at_error:
            if (target)
                target->card().injectAtFailure(
                    "ERROR", std::max(1, int(event.magnitude)));
            else
                applied = false;
            break;
        case FaultKind::serial_corrupt:
            if (target) {
                // Deterministic per-event corruption seed so the same
                // plan flips the same bytes on every run.
                const std::uint64_t seed =
                    (std::uint64_t(eventIndex) + 1) * 0x9e3779b97f4a7c15ull;
                target->tty().setCorruption(event.magnitude, seed);
                const int siteIndex = event.site;
                scheduleRestore(event.duration, [this, siteIndex] {
                    if (scenario::UmtsNodeSite* restoreSite = site(siteIndex))
                        restoreSite->tty().setCorruption(0.0, 0);
                });
            } else {
                applied = false;
            }
            break;
        case FaultKind::serial_stall:
            if (target)
                target->tty().injectStall(event.duration);
            else
                applied = false;
            break;
        case FaultKind::lcp_renegotiate:
            if (umts::UmtsSession* session = sessionForSite(event.site))
                session->ggsnPppd().renegotiateLcp();
            else
                applied = false;
            break;
    }

    auto& registry = obs::Registry::instance();
    if (applied) {
        log_.info() << "fired " << kindName(event.kind) << " on site " << event.site;
        registry.counter("fault.injected").inc();
        registry.counter(std::string("fault.injected.") + kindName(event.kind)).inc();
    } else {
        log_.info() << kindName(event.kind) << " on site " << event.site
                    << " had no live target, skipped";
        ++stats_.skipped;
        registry.counter("fault.skipped").inc();
    }
}

}  // namespace onelab::fault
