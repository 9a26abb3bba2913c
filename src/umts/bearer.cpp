#include "umts/bearer.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace onelab::umts {

namespace {

/// Builds "<prefix>.<leaf>" metric names into one reused buffer, so
/// registering a bearer's whole metric family costs a single prefix
/// construction instead of a fresh concatenation per metric — bearer
/// churn under chaos plans (detach/redial cycles re-creating bearers)
/// stays off the allocator.
class MetricNames {
  public:
    explicit MetricNames(std::string prefix) : buffer_(std::move(prefix)) {
        base_ = buffer_.size();
        buffer_.reserve(base_ + 24);
    }

    [[nodiscard]] const std::string& operator()(const char* leaf) {
        buffer_.resize(base_);
        buffer_ += '.';
        buffer_ += leaf;
        return buffer_;
    }

  private:
    std::string buffer_;
    std::size_t base_;
};

/// Record an RRC state edge. The IMSI rides in the record's value, so
/// flight.json says which UE moved while trace.json shows the bare
/// promotion/demotion instant.
void recordRrcEdge(const std::string& imsi, std::string_view name, std::string_view edge) {
    obs::Tracer::instance().note(obs::RecordKind::transition, "umts.rrc", name, edge,
                                 std::strtoll(imsi.c_str(), nullptr, 10));
}

}  // namespace

BearerLink::BearerLink(sim::Simulator& simulator, Params params, util::RandomStream rng,
                       std::string logTag)
    : sim_(simulator),
      params_(params),
      rng_(std::move(rng)),
      log_("umts." + logTag),
      metrics_([&logTag] {
          MetricNames name{"umts." + logTag};
          obs::Registry& registry = obs::Registry::instance();
          return Metrics{registry.counter(name("chunks_in")),
                         registry.counter(name("chunks_delivered")),
                         registry.counter(name("dropped_overflow")),
                         registry.counter(name("dropped_radio")),
                         registry.counter(name("bytes_delivered")),
                         registry.gauge(name("backlog_bytes"))};
      }()) {}

void BearerLink::send(util::SharedBytes chunk) {
    obs::ProfileScope scope(obs::ProfileCategory::rlc_queue);
    if (backlogBytes_ + chunk.size() > params_.bufferBytes) {
        ++stats_.droppedOverflow;
        metrics_.droppedOverflow.inc();
        return;
    }
    ++stats_.chunksIn;
    metrics_.chunksIn.inc();
    backlogBytes_ += chunk.size();
    metrics_.backlogBytes.add(std::int64_t(chunk.size()));
    lastBusy_ = sim_.now();
    queue_.push_back(std::move(chunk));
    if (!serving_) {
        serving_ = true;
        serveNext();
    }
}

void BearerLink::degrade(sim::SimTime duration) {
    degradedUntil_ = std::max(degradedUntil_, sim_.now() + duration);
}

bool BearerLink::isDegraded() const noexcept { return sim_.now() < degradedUntil_; }

void BearerLink::holdService(sim::SimTime until) {
    holdUntil_ = std::max(holdUntil_, until);
}

void BearerLink::boostLoss(double probability, sim::SimTime duration) {
    lossBoostProbability_ = probability;
    lossBoostUntil_ = std::max(lossBoostUntil_, sim_.now() + duration);
}

void BearerLink::serveNext() {
    obs::ProfileScope scope(obs::ProfileCategory::rlc_queue);
    if (queue_.empty()) {
        serving_ = false;
        return;
    }
    const std::weak_ptr<bool> alive = alive_;
    if (sim_.now() < holdUntil_) {
        // RRC promotion in progress: resume when the DCH is up.
        sim_.scheduleAt(holdUntil_, [this, alive] {
            if (!alive.expired()) serveNext();
        });
        return;
    }
    const std::size_t bytes = queue_.front().size();
    // In a bad state the bearer serves at a fraction of the granted
    // rate, so delay builds up gradually across packets.
    const double rate = isDegraded() ? params_.rateBps * params_.degradedRateFactor
                                     : params_.rateBps;
    const sim::SimTime serialization = sim::transmissionTime(bytes, rate);
    sim_.schedule(serialization, [this, alive] {
        if (alive.expired()) return;
        util::SharedBytes chunk = std::move(queue_.front());
        queue_.pop_front();
        backlogBytes_ -= chunk.size();
        metrics_.backlogBytes.add(-std::int64_t(chunk.size()));
        lastBusy_ = sim_.now();

        const double lossProbability =
            params_.residualLossProbability +
            (sim_.now() < lossBoostUntil_ ? lossBoostProbability_ : 0.0);
        if (rng_.chance(std::min(1.0, lossProbability))) {
            ++stats_.droppedRadio;
            metrics_.droppedRadio.inc();
        } else {
            // RAN traversal: base delay + gamma jitter, then alignment
            // to the next TTI boundary; delivery stays in order.
            const double jitterMs =
                rng_.gamma(params_.jitterGammaShape, params_.jitterGammaScaleMs);
            sim::SimTime arrival = sim_.now() + params_.baseDelay + sim::millis(jitterMs);
            const auto tti = params_.ttiQuantum.count();
            if (tti > 0) {
                const auto remainder = arrival.count() % tti;
                if (remainder != 0) arrival += sim::SimTime{tti - remainder};
            }
            arrival = std::max(arrival, lastArrival_);
            lastArrival_ = arrival;
            // The chunk moves straight into the event's inline storage;
            // no shared_ptr box (InplaceAction takes move-only closures).
            sim_.scheduleAt(arrival, [this, alive, chunk = std::move(chunk)]() mutable {
                if (alive.expired()) return;
                ++stats_.chunksDelivered;
                stats_.bytesDelivered += chunk.size();
                metrics_.chunksDelivered.inc();
                metrics_.bytesDelivered.inc(chunk.size());
                if (deliver_) deliver_(std::move(chunk));
            });
        }
        serveNext();
    });
}

void BearerLink::clear() {
    metrics_.backlogBytes.add(-std::int64_t(backlogBytes_));
    queue_.clear();
    backlogBytes_ = 0;
    serving_ = false;
    alive_ = std::make_shared<bool>(true);  // strands every scheduled event
}

RadioBearer::RadioBearer(sim::Simulator& simulator, const OperatorProfile& profile,
                         util::RandomStream rng, std::string imsi, CellCapacity* cell)
    : sim_(simulator),
      profile_(profile),
      rng_(std::move(rng)),
      imsi_(std::move(imsi)),
      cell_(cell),
      family_("umts.bearer." + imsi_),
      nameLease_(obs::Registry::instance(), family_),
      log_(family_),
      uplink_(simulator,
              BearerLink::Params{
                  profile.uplinkRatesBps.at(profile.initialUplinkIndex),
                  profile.rlcUplinkBufferBytes,
                  profile.uplinkBaseDelay,
                  profile.ttiQuantum,
                  profile.jitterGammaShape,
                  profile.jitterGammaScaleMs,
                  profile.residualLossProbability,
                  profile.badStateRateFactor,
              },
              rng_.derive("ul"), "bearer." + imsi_ + ".ul"),
      downlink_(simulator,
                BearerLink::Params{
                    profile.downlinkRateBps,
                    profile.rlcDownlinkBufferBytes,
                    profile.downlinkBaseDelay,
                    profile.ttiQuantum,
                    profile.jitterGammaShape,
                    profile.jitterGammaScaleMs,
                    profile.residualLossProbability,
                    profile.badStateRateFactor,
                },
                rng_.derive("dl"), "bearer." + imsi_ + ".dl"),
      rateIndex_(profile.initialUplinkIndex),
      metrics_([this] {
          MetricNames name{family_};
          obs::Registry& registry = obs::Registry::instance();
          return Metrics{registry.counter(name("upgrades")),
                         registry.counter(name("downgrades")),
                         registry.counter(name("rrc_promotions")),
                         registry.counter(name("denied_upgrades")),
                         registry.counter(name("trimmed_admissions"))};
      }()) {
    if (cell_) {
        // Admission: ask for the profile's initial grant, trimming down
        // the ladder while the pool cannot cover it. The lowest step is
        // always granted (possibly oversubscribing) — a loaded cell
        // degrades, it does not refuse service.
        std::size_t index = profile_.initialUplinkIndex;
        while (index > 0 && profile_.uplinkRatesBps[index] > cell_->uplinkAvailableBps())
            --index;
        grantedUplinkBps_ = profile_.uplinkRatesBps[index];
        cell_->reserveUplink(grantedUplinkBps_);
        if (index < profile_.initialUplinkIndex) {
            admissionTrimmed_ = true;
            metrics_.trimmedAdmissions.inc();
            cell_->countTrimmedAdmission();
            log_.info() << "admission trimmed: "
                        << profile_.uplinkRatesBps[profile_.initialUplinkIndex] / 1e3
                        << " -> " << grantedUplinkBps_ / 1e3 << " kbps uplink";
            rateIndex_ = index;
            uplink_.setRate(grantedUplinkBps_);
        }
        grantedDownlinkBps_ =
            cell_->admitDownlink(profile_.downlinkRateBps, profile_.downlinkFloorBps);
        if (grantedDownlinkBps_ < profile_.downlinkRateBps)
            downlink_.setRate(grantedDownlinkBps_);
        waiterId_ = cell_->addWaiter([this] { onCapacityFreed(); });
    }
    scheduleBadState();
    if (profile_.onDemandAllocation)
        monitorTimer_ = sim_.schedule(sim::millis(200), [this] { monitorTick(); });
    if (profile_.rrcStates) armRrcIdleTimer();
}

void RadioBearer::touchRrc() {
    if (!profile_.rrcStates) return;
    if (rrcState_ == RrcState::cell_fach) {
        // Promotion: the dedicated channel takes a while to come up,
        // holding both directions (the 3G "first-packet lag").
        rrcState_ = RrcState::cell_dch;
        ++rrcPromotions_;
        metrics_.rrcPromotions.inc();
        recordRrcEdge(imsi_, "promotion", "CELL_FACH -> CELL_DCH");
        const sim::SimTime ready = sim_.now() + profile_.fachPromotionDelay;
        uplink_.holdService(ready);
        downlink_.holdService(ready);
        log_.debug() << "CELL_FACH -> CELL_DCH (promotion "
                     << sim::toMillis(profile_.fachPromotionDelay) << "ms)";
    }
    armRrcIdleTimer();
}

void RadioBearer::armRrcIdleTimer() {
    if (rrcIdleTimer_.valid()) sim_.cancel(rrcIdleTimer_);
    rrcIdleTimer_ = sim_.schedule(profile_.dchIdleTimeout, [this] {
        rrcIdleTimer_ = {};
        if (shutdown_ || rrcState_ != RrcState::cell_dch) return;
        // Only demote if genuinely idle (nothing queued either way).
        if (uplink_.backlogBytes() == 0 && downlink_.backlogBytes() == 0) {
            rrcState_ = RrcState::cell_fach;
            recordRrcEdge(imsi_, "demotion", "CELL_DCH -> CELL_FACH");
            log_.debug() << "CELL_DCH -> CELL_FACH (idle)";
        } else {
            armRrcIdleTimer();
        }
    });
}

RadioBearer::~RadioBearer() { shutdown(); }

void RadioBearer::shutdown() {
    if (shutdown_) return;
    shutdown_ = true;
    if (monitorTimer_.valid()) sim_.cancel(monitorTimer_);
    if (badStateTimer_.valid()) sim_.cancel(badStateTimer_);
    if (grantTimer_.valid()) sim_.cancel(grantTimer_);
    if (rrcIdleTimer_.valid()) sim_.cancel(rrcIdleTimer_);
    uplink_.clear();
    downlink_.clear();
    if (cell_) {
        // Leave the waiter list before releasing so our own freed
        // budget is not offered back to us; the release synchronously
        // re-grants waiting bearers (detach-triggered upgrade).
        cell_->removeWaiter(waiterId_);
        cell_->releaseDownlink(grantedDownlinkBps_);
        grantedDownlinkBps_ = 0.0;
        const double freed = grantedUplinkBps_;
        grantedUplinkBps_ = 0.0;
        cell_->releaseUplink(freed);
        cell_ = nullptr;
    }
    nameLease_.release();
}

void RadioBearer::scheduleBadState() {
    if (profile_.badStateRatePerSec <= 0.0) return;
    const double interArrival = rng_.exponential(1.0 / profile_.badStateRatePerSec);
    badStateTimer_ = sim_.schedule(sim::seconds(interArrival), [this] {
        if (shutdown_) return;
        const double meanMs = sim::toMillis(profile_.badStateMeanDuration);
        const double maxMs = sim::toMillis(profile_.badStateMaxDuration);
        const double durationMs = std::min(rng_.exponential(meanMs), maxMs);
        obs::Tracer::instance().instant("umts.radio", "bad_state",
                                        util::format("%.1fms", durationMs));
        log_.debug() << "radio bad state for " << durationMs << "ms";
        uplink_.degrade(sim::millis(durationMs));
        downlink_.degrade(sim::millis(durationMs));
        scheduleBadState();
    });
}

void RadioBearer::applyUplinkRate(std::size_t index) {
    index = std::min(index, profile_.uplinkRatesBps.size() - 1);
    if (index == rateIndex_) return;
    const double oldRate = profile_.uplinkRatesBps[rateIndex_];
    const double newRate = profile_.uplinkRatesBps[index];
    log_.info() << "uplink bearer re-allocated: " << oldRate / 1e3 << " -> " << newRate / 1e3
                << " kbps";
    rateIndex_ = index;
    uplink_.setRate(newRate);
    if (newRate > oldRate) {
        ++upgrades_;
        metrics_.upgrades.inc();
        obs::Tracer::instance().instant(
            "umts.bearer", "umts.bearer.upgrade",
            util::format("%.0f -> %.0f kbps", oldRate / 1e3, newRate / 1e3));
    } else {
        metrics_.downgrades.inc();
        obs::Tracer::instance().instant(
            "umts.bearer", "umts.bearer.downgrade",
            util::format("%.0f -> %.0f kbps", oldRate / 1e3, newRate / 1e3));
    }
    if (onUplinkRateChange) onUplinkRateChange(oldRate, newRate);
}

bool RadioBearer::tryGrantUplinkIndex(std::size_t index) {
    index = std::min(index, profile_.uplinkRatesBps.size() - 1);
    if (!cell_) {
        applyUplinkRate(index);
        return true;
    }
    const double want = profile_.uplinkRatesBps[index];
    if (want > grantedUplinkBps_) {
        // Claimant-aware growth: the cell's fairness clamp can deny a
        // claimant already at its fair share even when headroom
        // exists, and paces each claimant's attempt rate so an
        // upgrade-spammer pins its own budget dry (see CellCapacity).
        if (!cell_->tryGrowUplink(want - grantedUplinkBps_, grantedUplinkBps_, waiterId_,
                                  sim_.now()))
            return false;
        grantedUplinkBps_ = want;
        applyUplinkRate(index);
    } else if (want < grantedUplinkBps_) {
        const double freed = grantedUplinkBps_ - want;
        grantedUplinkBps_ = want;
        applyUplinkRate(index);
        // Released last: the synchronous waiter re-grant may re-enter
        // other bearers, which must observe our settled state.
        cell_->releaseUplink(freed);
    } else {
        applyUplinkRate(index);
    }
    return true;
}

void RadioBearer::onCapacityFreed() {
    if (shutdown_ || !cell_) return;
    // A trimmed admission recovers toward the profile's initial grant
    // before any on-demand upgrade is considered.
    while (rateIndex_ < profile_.initialUplinkIndex) {
        if (!tryGrantUplinkIndex(rateIndex_ + 1)) return;
    }
    if (upgradeWaiting_ && rateIndex_ + 1 < profile_.uplinkRatesBps.size()) {
        // The admission-control delay was already paid when the
        // upgrade was denied; a freed budget re-grants immediately.
        if (tryGrantUplinkIndex(rateIndex_ + 1)) {
            upgradeWaiting_ = false;
            log_.info() << "waiting upgrade re-granted after capacity release";
        }
    }
}

void RadioBearer::injectOutage(sim::SimTime duration) {
    if (shutdown_) return;
    obs::Registry::instance().counter("fault.umts.rlc_outages").inc();
    obs::Tracer::instance().instant("umts.radio", "outage",
                                    util::format("%.0fms", sim::toMillis(duration)));
    log_.warn() << "injected RLC outage for " << sim::toMillis(duration) << "ms";
    const sim::SimTime until = sim_.now() + duration;
    uplink_.holdService(until);
    downlink_.holdService(until);
}

void RadioBearer::injectLossBurst(double probability, sim::SimTime duration) {
    if (shutdown_) return;
    obs::Registry::instance().counter("fault.umts.loss_bursts").inc();
    log_.warn() << "injected loss burst p=" << probability << " for "
                << sim::toMillis(duration) << "ms";
    uplink_.boostLoss(probability, duration);
    downlink_.boostLoss(probability, duration);
}

void RadioBearer::monitorTick() {
    if (shutdown_) return;
    if (greedy_) {
        // Misbehaving-UE personality: hammer the admission path every
        // tick — no saturation evidence, no grant delay — and never
        // volunteer a downgrade. Parking upgradeWaiting_ makes the
        // greedy bearer grab freed capacity the instant it appears.
        //
        // The RNC does not rely on the UE volunteering anything: with
        // the fairness clamp on, an over-fair-share grant whose queue
        // has sat empty for a full downgrade window is reclaimed
        // network-side — the same reallocation an honest bearer
        // performs voluntarily, enforced against one that refuses.
        // The trigger counts empty-queue monitor ticks rather than
        // testing lastBusy, so trickle traffic (LCP echo keepalives)
        // cannot keep a hoarded grant looking busy. Combined with the
        // cell's attempt pacing (a spammer's bucket is pinned dry)
        // the reclaimed capacity stays reclaimed.
        if (cell_ && cell_->fairnessClamp() && rateIndex_ > profile_.initialUplinkIndex &&
            grantedUplinkBps_ > cell_->fairShareUplinkBps() &&
            uplink_.backlogBytes() == 0) {
            const auto reclaimTicks = std::size_t(
                sim::toSeconds(profile_.downgradeIdle) / 0.2);
            if (++idleOverShareTicks_ >= std::max<std::size_t>(1, reclaimTicks)) {
                idleOverShareTicks_ = 0;
                obs::Registry::instance().counter("guard.cell.reclaims").inc();
                log_.info() << "RNC reclaimed idle over-share uplink grant ("
                            << grantedUplinkBps_ / 1e3 << " kbps)";
                tryGrantUplinkIndex(profile_.initialUplinkIndex);
            }
        } else {
            idleOverShareTicks_ = 0;
        }
        if (rateIndex_ + 1 < profile_.uplinkRatesBps.size() &&
            !tryGrantUplinkIndex(rateIndex_ + 1)) {
            ++deniedUpgrades_;
            metrics_.deniedUpgrades.inc();
            if (cell_) cell_->countDeniedUpgrade();
            upgradeWaiting_ = true;
        }
        monitorTimer_ = sim_.schedule(sim::millis(200), [this] { monitorTick(); });
        return;
    }
    const auto threshold =
        std::size_t(profile_.upgradeBacklogFraction * double(profile_.rlcUplinkBufferBytes));
    const bool saturated = uplink_.backlogBytes() >= threshold;

    if (saturated) {
        if (saturationOnset_ < sim::SimTime{0}) saturationOnset_ = sim_.now();
        const bool sustained = sim_.now() - saturationOnset_ >= profile_.upgradeSustain;
        if (sustained && !grantPending_ && !upgradeWaiting_ &&
            rateIndex_ + 1 < profile_.uplinkRatesBps.size()) {
            // The network's admission control takes its time: the new
            // grant arrives a long, operator-dependent delay after the
            // demand first appeared (observed as ~50 s in the paper).
            grantPending_ = true;
            const double grantDelaySec =
                rng_.uniform(sim::toSeconds(profile_.upgradeGrantDelayMin),
                             sim::toSeconds(profile_.upgradeGrantDelayMax));
            const sim::SimTime grantAt = saturationOnset_ + sim::seconds(grantDelaySec);
            log_.info() << "uplink saturated; upgrade grant scheduled at t="
                        << sim::toSeconds(grantAt) << "s";
            // Span covering the admission-control wait: saturation
            // detected -> grant applied (the flat part before the knee).
            obs::Tracer::instance().begin("umts.bearer", "grant_wait",
                                          util::format("grant at t=%.1fs",
                                                       sim::toSeconds(grantAt)));
            grantTimer_ = sim_.scheduleAt(grantAt, [this] {
                if (shutdown_) return;
                grantPending_ = false;
                saturationOnset_ = sim::SimTime{-1};
                obs::Tracer::instance().end("umts.bearer", "grant_wait");
                if (!tryGrantUplinkIndex(rateIndex_ + 1)) {
                    // The cell has no headroom: admission control denies
                    // the upgrade. Park until another UE releases
                    // capacity (downgrade or detach) re-grants us.
                    ++deniedUpgrades_;
                    metrics_.deniedUpgrades.inc();
                    if (cell_) cell_->countDeniedUpgrade();
                    upgradeWaiting_ = true;
                    obs::Tracer::instance().instant("umts.bearer", "upgrade_denied",
                                                    "cell capacity exhausted");
                    log_.info() << "uplink upgrade denied (cell capacity exhausted); "
                                   "waiting for release";
                }
            });
        }
    } else {
        if (!grantPending_) saturationOnset_ = sim::SimTime{-1};
        // Idle long enough: the network reclaims the fat bearer (and a
        // parked upgrade request — the demand is gone).
        if (uplink_.backlogBytes() == 0 &&
            sim_.now() - uplink_.lastBusy() >= profile_.downgradeIdle) {
            upgradeWaiting_ = false;
            if (rateIndex_ > profile_.initialUplinkIndex)
                tryGrantUplinkIndex(profile_.initialUplinkIndex);
        }
    }
    monitorTimer_ = sim_.schedule(sim::millis(200), [this] { monitorTick(); });
}

}  // namespace onelab::umts
