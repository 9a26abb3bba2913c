#include "umts/cell.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace onelab::umts {

CellCapacity::CellCapacity(double uplinkCapacityBps, double downlinkCapacityBps)
    : uplinkCapacityBps_(uplinkCapacityBps),
      downlinkCapacityBps_(downlinkCapacityBps),
      uplinkAllocatedMetric_(obs::Registry::instance().gauge("umts.cell.ul_allocated_bps")),
      downlinkAllocatedMetric_(obs::Registry::instance().gauge("umts.cell.dl_allocated_bps")),
      deniedUpgradesMetric_(obs::Registry::instance().counter("umts.cell.denied_upgrades")),
      trimmedAdmissionsMetric_(
          obs::Registry::instance().counter("umts.cell.trimmed_admissions")),
      regrantsMetric_(obs::Registry::instance().counter("umts.cell.regrants")) {}

double CellCapacity::uplinkAvailableBps() const noexcept {
    return std::max(0.0, uplinkCapacityBps_ * capacityScale_ - uplinkAllocatedBps_);
}

void CellCapacity::reserveUplink(double bps) {
    uplinkAllocatedBps_ += bps;
    uplinkAllocatedMetric_.set(static_cast<std::int64_t>(uplinkAllocatedBps_));
}

bool CellCapacity::tryGrowUplink(double bps) {
    if (bps > uplinkAvailableBps()) return false;
    reserveUplink(bps);
    return true;
}

double CellCapacity::fairShareUplinkBps() const noexcept {
    const double budget = uplinkCapacityBps_ * capacityScale_;
    return waiters_.empty() ? budget : budget / double(waiters_.size());
}

bool CellCapacity::tryGrowUplink(double bps, double currentHoldingBps) {
    // The clamp only bites a claimant already at (or past) its fair
    // share while others share the cell: under-share growth — honest
    // upgrades, trimmed-admission recovery — is decided by headroom
    // exactly as before.
    if (fairnessClamp_ && waiters_.size() > 1 &&
        currentHoldingBps >= fairShareUplinkBps()) {
        ++fairnessDenials_;
        obs::Registry::instance().counter("guard.cell.fairness_denials").inc();
        log_.info() << "fairness clamp denied growth: holding "
                    << currentHoldingBps / 1e3 << " kbps >= fair share "
                    << fairShareUplinkBps() / 1e3 << " kbps over "
                    << waiters_.size() << " claimants";
        return false;
    }
    return tryGrowUplink(bps);
}

bool CellCapacity::tryGrowUplink(double bps, double currentHoldingBps, WaiterId claimant,
                                 sim::SimTime now) {
    if (fairnessClamp_ && claimant != 0 && waiters_.size() > 1) {
        AttemptBucket& bucket = attemptBuckets_[claimant];
        const double elapsed = std::max(0.0, sim::toSeconds(now - bucket.last));
        bucket.tokens =
            std::min(kAttemptBurst, bucket.tokens + kAttemptRefillPerSec * elapsed);
        bucket.last = now;
        if (bucket.tokens < 1.0) {
            // Attempts past the budget still cost (down to the debt
            // floor): hammering keeps the bucket pinned dry, so a
            // spammer cannot collect a grant — not even the instant-
            // snatch retry a capacity release triggers — until it has
            // been quiet long enough to pay the debt off.
            bucket.tokens = std::max(kAttemptDebtFloor, bucket.tokens - 1.0);
            ++fairnessDenials_;
            obs::Registry::instance().counter("guard.cell.fairness_denials").inc();
            log_.debug() << "fairness clamp paced claimant " << claimant
                         << ": growth attempts over budget";
            return false;
        }
        bucket.tokens -= 1.0;
    }
    return tryGrowUplink(bps, currentHoldingBps);
}

void CellCapacity::releaseUplink(double bps) {
    uplinkAllocatedBps_ = std::max(0.0, uplinkAllocatedBps_ - bps);
    uplinkAllocatedMetric_.set(static_cast<std::int64_t>(uplinkAllocatedBps_));
    notifyWaiters();
}

double CellCapacity::downlinkAvailableBps() const noexcept {
    return std::max(0.0, downlinkCapacityBps_ * capacityScale_ - downlinkAllocatedBps_);
}

void CellCapacity::setCapacityScale(double scale) {
    const double clamped = std::clamp(scale, 0.0, 1.0);
    if (clamped == capacityScale_) return;
    const bool restoring = clamped > capacityScale_;
    if (!restoring) obs::Registry::instance().counter("fault.umts.cell_squeezes").inc();
    log_.warn() << "cell capacity scale " << capacityScale_ << " -> " << clamped;
    capacityScale_ = clamped;
    // Restoring budget is a release in disguise: parked upgrades may
    // now fit.
    if (restoring) notifyWaiters();
}

double CellCapacity::admitDownlink(double desiredBps, double floorBps) {
    // A grant trimmed to a squeezed pool's fractional headroom is
    // rounded down to whole bps: sums and differences of whole-bps
    // grants are exact in doubles, so releasing them in any order
    // drains the pool to exactly zero.
    const double headroom = downlinkAvailableBps();
    const double granted =
        std::max(floorBps, desiredBps <= headroom ? desiredBps : std::floor(headroom));
    if (granted < desiredBps) {
        countTrimmedAdmission();
        log_.info() << "downlink admission trimmed: " << desiredBps / 1e3 << " -> "
                    << granted / 1e3 << " kbps";
    }
    downlinkAllocatedBps_ += granted;
    downlinkAllocatedMetric_.set(static_cast<std::int64_t>(downlinkAllocatedBps_));
    return granted;
}

void CellCapacity::releaseDownlink(double bps) {
    downlinkAllocatedBps_ = std::max(0.0, downlinkAllocatedBps_ - bps);
    downlinkAllocatedMetric_.set(static_cast<std::int64_t>(downlinkAllocatedBps_));
}

void CellCapacity::countDeniedUpgrade() noexcept {
    ++deniedUpgrades_;
    deniedUpgradesMetric_.inc();
}

void CellCapacity::countTrimmedAdmission() noexcept {
    ++trimmedAdmissions_;
    trimmedAdmissionsMetric_.inc();
}

CellCapacity::WaiterId CellCapacity::addWaiter(std::function<void()> retry) {
    const WaiterId id = nextWaiterId_++;
    waiters_.emplace(id, std::move(retry));
    return id;
}

void CellCapacity::removeWaiter(WaiterId id) noexcept {
    waiters_.erase(id);
    attemptBuckets_.erase(id);
}

void CellCapacity::notifyWaiters() {
    // A waiter's retry callback may itself release capacity (rate
    // change) — guard against re-entrant notification, and iterate a
    // snapshot of ids so callbacks may add/remove waiters freely.
    if (notifying_ || waiters_.empty()) return;
    notifying_ = true;
    std::vector<WaiterId> ids;
    ids.reserve(waiters_.size());
    for (const auto& [id, retry] : waiters_) ids.push_back(id);
    for (const WaiterId id : ids) {
        const auto it = waiters_.find(id);
        if (it == waiters_.end()) continue;  // removed by an earlier callback
        regrantsMetric_.inc();
        it->second();
    }
    notifying_ = false;
}

}  // namespace onelab::umts
