#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "obs/registry.hpp"
#include "sim/time.hpp"
#include "util/logging.hpp"

namespace onelab::umts {

/// The finite uplink/downlink budget of one cell, shared by every
/// active radio bearer attached to it. The pool is pure accounting —
/// no randomness, no timers — so it never perturbs a solo run: with a
/// single UE every request fits and the bearer behaves exactly as the
/// unshared model did. Under contention the pool is what makes
/// on-demand upgrades deniable, admissions trimmable, and a detach
/// visible to the survivors: releasing capacity synchronously
/// re-offers it to registered waiters in registration order, keeping
/// multi-UE runs deterministic.
class CellCapacity {
  public:
    using WaiterId = std::uint64_t;

    CellCapacity(double uplinkCapacityBps, double downlinkCapacityBps);

    CellCapacity(const CellCapacity&) = delete;
    CellCapacity& operator=(const CellCapacity&) = delete;

    // --- uplink pool ---
    [[nodiscard]] double uplinkCapacityBps() const noexcept { return uplinkCapacityBps_; }
    [[nodiscard]] double uplinkAllocatedBps() const noexcept { return uplinkAllocatedBps_; }
    /// Headroom left for new grants; never negative (the pool can be
    /// oversubscribed by floor-guaranteed admissions).
    [[nodiscard]] double uplinkAvailableBps() const noexcept;

    /// Take `bps` out of the pool unconditionally (the caller decided
    /// the grant — possibly a floor-guaranteed, oversubscribing one).
    void reserveUplink(double bps);
    /// Grow an existing allocation by `bps` if the headroom covers it.
    [[nodiscard]] bool tryGrowUplink(double bps);
    /// Fairness-aware variant: additionally denies the growth when the
    /// requester already holds at least its fair share of the budget
    /// (capacity / registered claimants) and other claimants exist —
    /// the clamp that keeps a greedy upgrade-spammer from re-grabbing
    /// every freed byte ahead of a trimmed victim's recovery. With the
    /// clamp disabled this is exactly tryGrowUplink(bps).
    [[nodiscard]] bool tryGrowUplink(double bps, double currentHoldingBps);
    /// Claimant-aware variant: on top of the fair-share check, each
    /// claimant's growth attempts are paced by a per-claimant token
    /// bucket (burst kAttemptBurst, refill kAttemptRefillPerSec).
    /// Denied attempts still cost a token (down to a bounded debt), so
    /// an upgrade-spammer hammering the admission path pins its own
    /// bucket dry and stays denied for as long as the spam continues —
    /// including the instant-snatch retry when another bearer releases
    /// capacity. Honest claimants attempt growth a few times a minute
    /// and never leave burst territory. `claimant` is the bearer's
    /// waiter id (0 = anonymous, bucket not enforced); `now` is the
    /// caller's sim clock (the pool itself is clockless).
    [[nodiscard]] bool tryGrowUplink(double bps, double currentHoldingBps,
                                     WaiterId claimant, sim::SimTime now);
    /// Return `bps` to the pool and re-offer it to waiting bearers.
    void releaseUplink(double bps);

    // --- downlink pool ---
    [[nodiscard]] double downlinkCapacityBps() const noexcept { return downlinkCapacityBps_; }
    [[nodiscard]] double downlinkAllocatedBps() const noexcept { return downlinkAllocatedBps_; }
    [[nodiscard]] double downlinkAvailableBps() const noexcept;

    /// Admit a downlink bearer: grants min(desired, headroom), with a
    /// trimmed grant rounded down to whole bps, but never less than
    /// `floorBps`. Returns the granted rate.
    [[nodiscard]] double admitDownlink(double desiredBps, double floorBps);
    void releaseDownlink(double bps);

    // --- contention bookkeeping (read by stats/benches) ---
    void countDeniedUpgrade() noexcept;
    void countTrimmedAdmission() noexcept;
    [[nodiscard]] std::uint64_t deniedUpgrades() const noexcept { return deniedUpgrades_; }
    [[nodiscard]] std::uint64_t trimmedAdmissions() const noexcept {
        return trimmedAdmissions_;
    }

    // --- fairness clamp (guard layer) ---
    /// Enable/disable the fair-share clamp checked by the holding-
    /// aware tryGrowUplink overload. Guard counter:
    /// guard.cell.fairness_denials.
    void setFairnessClamp(bool enabled) noexcept { fairnessClamp_ = enabled; }
    [[nodiscard]] bool fairnessClamp() const noexcept { return fairnessClamp_; }
    /// Equal split of the effective uplink budget over the registered
    /// claimants (waiters); the full budget when there are none.
    [[nodiscard]] double fairShareUplinkBps() const noexcept;
    [[nodiscard]] std::uint64_t fairnessDenials() const noexcept { return fairnessDenials_; }

    /// Attempt-pacing bucket parameters (claimant-aware tryGrowUplink).
    static constexpr double kAttemptBurst = 3.0;
    static constexpr double kAttemptRefillPerSec = 0.5;
    static constexpr double kAttemptDebtFloor = -10.0;

    // --- fault hook: capacity squeeze ---
    /// Scale the effective budget of both pools (0..1]. Existing
    /// grants are untouched — the squeeze only starves new growth, as
    /// a congested NodeB does. Raising the scale re-offers the
    /// recovered headroom to registered waiters.
    void setCapacityScale(double scale);
    [[nodiscard]] double capacityScale() const noexcept { return capacityScale_; }

    // --- waiters ---
    /// Bearers blocked on capacity park a callback here; every uplink
    /// release re-offers the freed budget by invoking the callbacks in
    /// registration order. Callbacks must tolerate being invoked when
    /// nothing useful is available (they re-check the pool).
    [[nodiscard]] WaiterId addWaiter(std::function<void()> retry);
    void removeWaiter(WaiterId id) noexcept;

  private:
    void notifyWaiters();

    double uplinkCapacityBps_;
    double downlinkCapacityBps_;
    double uplinkAllocatedBps_ = 0.0;
    double downlinkAllocatedBps_ = 0.0;
    double capacityScale_ = 1.0;
    std::uint64_t deniedUpgrades_ = 0;
    std::uint64_t trimmedAdmissions_ = 0;
    bool fairnessClamp_ = true;
    std::uint64_t fairnessDenials_ = 0;
    /// Per-claimant growth-attempt pacing state (see the claimant-
    /// aware tryGrowUplink). Erased with the waiter registration.
    struct AttemptBucket {
        double tokens = kAttemptBurst;
        sim::SimTime last{0};
    };
    std::map<WaiterId, AttemptBucket> attemptBuckets_;
    std::map<WaiterId, std::function<void()>> waiters_;
    WaiterId nextWaiterId_ = 1;
    bool notifying_ = false;
    util::Logger log_{"umts.cell"};

    // Registry-backed cell-level aggregates (umts.cell.*); shared by
    // name across cells, so they sum over a whole run.
    obs::Gauge& uplinkAllocatedMetric_;
    obs::Gauge& downlinkAllocatedMetric_;
    obs::Counter& deniedUpgradesMetric_;
    obs::Counter& trimmedAdmissionsMetric_;
    obs::Counter& regrantsMetric_;
};

}  // namespace onelab::umts
