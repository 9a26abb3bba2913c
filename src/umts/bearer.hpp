#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "umts/cell.hpp"
#include "umts/profile.hpp"
#include "util/bytes.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"
#include "util/shared_bytes.hpp"

namespace onelab::umts {

/// Per-direction bearer statistics.
struct BearerStats {
    std::uint64_t chunksIn = 0;
    std::uint64_t chunksDelivered = 0;
    std::uint64_t droppedOverflow = 0;  ///< RLC buffer full
    std::uint64_t droppedRadio = 0;     ///< residual radio loss
    std::uint64_t bytesDelivered = 0;
};

/// One direction of the radio access bearer: an RLC-style drop-tail
/// byte buffer serialised at the granted rate, followed by a delay
/// model (base RAN delay, TTI alignment, gamma jitter) with in-order
/// delivery. Serving can be paused ("bad state") and the rate changed
/// at runtime (on-demand allocation).
class BearerLink {
  public:
    struct Params {
        double rateBps;
        std::size_t bufferBytes;
        sim::SimTime baseDelay;
        sim::SimTime ttiQuantum;
        double jitterGammaShape;
        double jitterGammaScaleMs;
        double residualLossProbability;
        double degradedRateFactor;  ///< serving-rate multiplier in bad state
    };

    BearerLink(sim::Simulator& simulator, Params params, util::RandomStream rng,
               std::string logTag);
    ~BearerLink() { *alive_ = false; }

    BearerLink(const BearerLink&) = delete;
    BearerLink& operator=(const BearerLink&) = delete;

    /// Submit a chunk (one PPP frame's bytes) as a refcounted slice —
    /// the RLC queue holds a reference, not a copy. Dropped when the
    /// buffer is full.
    void send(util::SharedBytes chunk);
    /// Convenience for senders holding a plain buffer: adopted without
    /// copying the payload.
    void send(util::Bytes chunk) { send(util::SharedBytes::wrap(std::move(chunk))); }

    /// Delivery callback at the far end. The slice handed out is the
    /// one queued by send() (zero-copy through the bearer).
    void setDeliver(std::function<void(util::SharedBytes)> deliver) {
        deliver_ = std::move(deliver);
    }

    void setRate(double rateBps) noexcept { params_.rateBps = rateBps; }
    [[nodiscard]] double rate() const noexcept { return params_.rateBps; }

    /// Degrade the serving rate for `duration` (extends any current
    /// degradation window) — the radio bad state.
    void degrade(sim::SimTime duration);
    [[nodiscard]] bool isDegraded() const noexcept;

    /// Suspend serving entirely until `until` (RRC promotion hold).
    void holdService(sim::SimTime until);

    /// Fault hook: add `probability` to the residual radio loss for
    /// `duration` (extends any current burst window).
    void boostLoss(double probability, sim::SimTime duration);

    [[nodiscard]] std::size_t backlogBytes() const noexcept { return backlogBytes_; }
    [[nodiscard]] sim::SimTime lastBusy() const noexcept { return lastBusy_; }
    [[nodiscard]] const BearerStats& stats() const noexcept { return stats_; }

    /// Drop everything (session teardown).
    void clear();

  private:
    void serveNext();

    sim::Simulator& sim_;
    /// Guards scheduled service/delivery events against destruction
    /// (a PDP context can be torn down with chunks in flight).
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    Params params_;
    util::RandomStream rng_;
    util::Logger log_;
    std::function<void(util::SharedBytes)> deliver_;
    std::deque<util::SharedBytes> queue_;
    std::size_t backlogBytes_ = 0;
    bool serving_ = false;
    sim::SimTime degradedUntil_{0};
    sim::SimTime holdUntil_{0};
    sim::SimTime lossBoostUntil_{0};
    double lossBoostProbability_ = 0.0;
    sim::SimTime lastArrival_{0};
    sim::SimTime lastBusy_{0};
    std::uint64_t epoch_ = 0;
    BearerStats stats_;

    // Registry-backed mirrors of BearerStats, named "umts.<tag>.*"
    // (e.g. umts.bearer.<imsi>.ul.dropped_overflow); shared by name
    // across link instances with the same tag.
    struct Metrics {
        obs::Counter& chunksIn;
        obs::Counter& chunksDelivered;
        obs::Counter& droppedOverflow;
        obs::Counter& droppedRadio;
        obs::Counter& bytesDelivered;
        obs::Gauge& backlogBytes;
    };
    Metrics metrics_;
};

/// The full radio access bearer for one PDP context: uplink + downlink
/// BearerLinks, a shared bad-state (fading / shared-cell congestion)
/// process that pauses both, and the on-demand uplink rate allocation
/// responsible for the paper's Fig. 4 knee at ~50 s.
///
/// When attached to a CellCapacity pool every grant is an allocation
/// from the shared budget: the admission grant can be trimmed down the
/// ladder (lowest step always granted), an on-demand upgrade can be
/// denied when the pool is dry — the bearer then waits and is
/// re-granted the moment another UE releases capacity (detach or
/// downgrade) — and the downlink is trimmed against a guaranteed
/// floor. All metrics live under the per-instance prefix
/// "umts.bearer.<imsi>.*" and the prefix is exclusively leased for the
/// bearer's lifetime, so two bearers can never silently alias each
/// other's counters.
class RadioBearer {
  public:
    RadioBearer(sim::Simulator& simulator, const OperatorProfile& profile,
                util::RandomStream rng, std::string imsi, CellCapacity* cell = nullptr);
    ~RadioBearer();

    RadioBearer(const RadioBearer&) = delete;
    RadioBearer& operator=(const RadioBearer&) = delete;

    /// RRC connection state (CELL_DCH when active, CELL_FACH after
    /// the idle timeout; the next packet pays the promotion delay).
    enum class RrcState : std::uint8_t { cell_dch, cell_fach };

    // UE-side plane.
    void sendUplink(util::SharedBytes chunk) {
        touchRrc();
        uplink_.send(std::move(chunk));
    }
    void sendUplink(util::Bytes chunk) {
        sendUplink(util::SharedBytes::wrap(std::move(chunk)));
    }
    void setDownlinkSink(std::function<void(util::SharedBytes)> sink) {
        downlink_.setDeliver(std::move(sink));
    }

    // Network-side plane.
    void sendDownlink(util::SharedBytes chunk) {
        touchRrc();
        downlink_.send(std::move(chunk));
    }
    void sendDownlink(util::Bytes chunk) {
        sendDownlink(util::SharedBytes::wrap(std::move(chunk)));
    }
    void setUplinkSink(std::function<void(util::SharedBytes)> sink) {
        uplink_.setDeliver(std::move(sink));
    }

    [[nodiscard]] RrcState rrcState() const noexcept { return rrcState_; }
    [[nodiscard]] int rrcPromotions() const noexcept { return rrcPromotions_; }

    [[nodiscard]] double currentUplinkRateBps() const noexcept { return uplink_.rate(); }
    [[nodiscard]] double downlinkRateBps() const noexcept { return downlink_.rate(); }
    [[nodiscard]] std::size_t uplinkBacklogBytes() const noexcept {
        return uplink_.backlogBytes();
    }
    [[nodiscard]] int upgradeCount() const noexcept { return upgrades_; }
    [[nodiscard]] const BearerStats& uplinkStats() const noexcept { return uplink_.stats(); }
    [[nodiscard]] const BearerStats& downlinkStats() const noexcept { return downlink_.stats(); }

    // --- shared-cell contention (all zero without a pool) ---
    /// Upgrade attempts refused because the cell budget was exhausted.
    [[nodiscard]] int deniedUpgrades() const noexcept { return deniedUpgrades_; }
    /// Whether the admission grant was trimmed below the profile's
    /// initial ladder step.
    [[nodiscard]] bool admissionTrimmed() const noexcept { return admissionTrimmed_; }
    /// Whether a denied upgrade is parked waiting for capacity.
    [[nodiscard]] bool upgradeWaiting() const noexcept { return upgradeWaiting_; }
    [[nodiscard]] const std::string& imsi() const noexcept { return imsi_; }

    /// Fires on every uplink rate change (old, new) — surfaced by
    /// `umts status` and the ablation benches.
    std::function<void(double, double)> onUplinkRateChange;

    // --- adversary hook (driven by adversary::AdversaryDriver) ---
    /// Greedy-UE personality: when set, the monitor hammers on-demand
    /// upgrades every tick (no saturation evidence, no admission
    /// delay) and never volunteers a downgrade. Accounting stays
    /// exact, so the no-capacity-leak invariant holds even for the
    /// attacker; the cell's fairness clamp is what contains it.
    void setGreedy(bool greedy) noexcept { greedy_ = greedy; }
    [[nodiscard]] bool greedy() const noexcept { return greedy_; }

    // --- fault hooks (driven by fault::FaultInjector) ---
    /// RLC outage: both directions stop serving for `duration`; queued
    /// chunks resume (overflow drops accumulate) when it ends.
    void injectOutage(sim::SimTime duration);
    /// Loss burst: add `probability` residual radio loss to both
    /// directions for `duration`.
    void injectLossBurst(double probability, sim::SimTime duration);

    /// Tear down: flush queues and stop internal timers.
    void shutdown();

  private:
    void scheduleBadState();
    void monitorTick();
    void applyUplinkRate(std::size_t index);
    /// Move the pool reservation to ladder step `index` (grow or
    /// shrink) and apply the rate. Returns false when the cell cannot
    /// cover the growth; the reservation is left unchanged.
    bool tryGrantUplinkIndex(std::size_t index);
    /// Cell waiter callback: capacity was released somewhere — recover
    /// a trimmed admission and retry a denied upgrade.
    void onCapacityFreed();
    void touchRrc();
    void armRrcIdleTimer();

    sim::Simulator& sim_;
    OperatorProfile profile_;
    util::RandomStream rng_;
    std::string imsi_;
    CellCapacity* cell_ = nullptr;
    /// Metric family prefix ("umts.bearer.<imsi>"), built once and
    /// reused for the lease, the logger and every counter name.
    std::string family_;
    obs::NameLease nameLease_;
    util::Logger log_{"umts.bearer"};
    BearerLink uplink_;
    BearerLink downlink_;

    std::size_t rateIndex_;
    int upgrades_ = 0;
    bool shutdown_ = false;
    bool greedy_ = false;
    /// Consecutive greedy-mode monitor ticks the uplink queue sat
    /// empty while the grant exceeded its fair share — the RNC-side
    /// reclaim trigger. Tick-counted (not lastBusy-based) so LCP echo
    /// keepalives cannot keep a hoarded idle grant looking busy.
    std::size_t idleOverShareTicks_ = 0;

    // Shared-cell allocation state.
    double grantedUplinkBps_ = 0.0;
    double grantedDownlinkBps_ = 0.0;
    int deniedUpgrades_ = 0;
    bool admissionTrimmed_ = false;
    bool upgradeWaiting_ = false;
    CellCapacity::WaiterId waiterId_ = 0;

    // Saturation tracking for on-demand allocation.
    sim::SimTime saturationOnset_{-1};
    bool grantPending_ = false;
    sim::EventHandle monitorTimer_;
    sim::EventHandle badStateTimer_;
    sim::EventHandle grantTimer_;

    RrcState rrcState_ = RrcState::cell_dch;  ///< PDP activation implies DCH
    int rrcPromotions_ = 0;
    sim::EventHandle rrcIdleTimer_;

    // Registry-backed rate-adaptation / RRC / contention counters,
    // named "umts.bearer.<imsi>.*"; registered as one family off
    // `family_`.
    struct Metrics {
        obs::Counter& upgrades;
        obs::Counter& downgrades;
        obs::Counter& rrcPromotions;
        obs::Counter& deniedUpgrades;
        obs::Counter& trimmedAdmissions;
    };
    Metrics metrics_;
};

}  // namespace onelab::umts
