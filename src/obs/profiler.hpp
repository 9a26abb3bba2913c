#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace onelab::obs {

class Registry;

/// Fixed category set the profiler attributes wall-time to: the event
/// core plus the datapath stages the ROADMAP throughput item needs
/// decomposed (HDLC escape/deframe with the fused FCS, RLC queue,
/// pipe, pppd, the modem's AT engine).
/// Fixed at compile time so scope enter/leave is an array index, the
/// export structure is byte-stable, and hot paths never hash a name.
enum class ProfileCategory : std::uint8_t {
    sim_run,      ///< event-loop machinery (runUntil/run self-time)
    sim_event,    ///< dispatch batches of fired events not claimed by a deeper stage
    hdlc_encode,  ///< PPP frame build + escaping
    hdlc_decode,  ///< PPP deframing/unescaping
    rlc_queue,    ///< RLC enqueue + TTI service
    pipe,         ///< serial byte pipe copy/corrupt/deliver
    pppd,         ///< pppd frame dispatch and control protocols
    supervise,    ///< link-supervisor probes and ladder work
    obs_export,   ///< telemetry serialisation
    ditg_decode,  ///< D-ITG wave bookkeeping: flow setup, log decode
    scenario_harness,  ///< scenario/bench driver work outside deeper scopes
    modem_at,     ///< AT engine: data-mode "+++" scan, command-mode parsing
    count
};

inline constexpr std::size_t kProfileCategoryCount =
    std::size_t(ProfileCategory::count);

[[nodiscard]] const char* profileCategoryName(ProfileCategory category) noexcept;

/// Self-time profiler with RunContext thread-locality. Disabled it
/// costs one thread-local load and a branch per scope; enabled it
/// reads the clock twice per scope and maintains a fixed-depth stack
/// so a nested stage's time is subtracted from its parent (self-time
/// attribution). The clock is injectable: the default is wall time
/// (steady_clock), tests install a deterministic tick so profile.json
/// is byte-identical for the same seed, serial or under --jobs N.
class Profiler {
  public:
    static Profiler& instance();
    /// Install `profiler` as the calling thread's instance() (nullptr
    /// restores the process singleton). Returns the previous override.
    /// Prefer obs::RunContext over calling this directly.
    static Profiler* setCurrent(Profiler* profiler) noexcept;
    /// The calling thread's profiler when enabled, else nullptr.
    static Profiler* currentIfEnabled() noexcept;

    Profiler() = default;
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /// Enabling (re)starts the attribution window; totals are zeroed.
    void setEnabled(bool enabled) noexcept;
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Zero totals and the export/drop counters without touching the
    /// enabled flag — the run-boundary reset (a disabled profiler still
    /// counts exportJson() calls, which must not leak across runs).
    void reset() noexcept;

    /// Override the wall clock (nanoseconds). Null restores
    /// steady_clock. Zeroes nothing; install before setEnabled(true).
    void setClock(std::function<std::int64_t()> clock) { clock_ = std::move(clock); }
    [[nodiscard]] const std::function<std::int64_t()>& clock() const noexcept {
        return clock_;
    }

    [[nodiscard]] std::int64_t clockNowNs() const;

    /// Open a scope; every nanosecond until the matching leave() is
    /// attributed to `category` minus any nested scope's share.
    void enter(ProfileCategory category) noexcept;
    void leave() noexcept;

    [[nodiscard]] std::uint64_t scopeCount(ProfileCategory category) const noexcept {
        return totals_[std::size_t(category)].count;
    }
    [[nodiscard]] std::int64_t selfNs(ProfileCategory category) const noexcept {
        return totals_[std::size_t(category)].selfNs;
    }
    /// Scopes not timed because the stack was full.
    [[nodiscard]] std::uint64_t droppedScopes() const noexcept { return dropped_; }

    /// profile.json: every category (fixed order, zeros included) with
    /// count, self-time and self-fraction, plus the attribution
    /// summary: tracked time vs the enable->export wall window.
    [[nodiscard]] std::string exportJson() const;

    /// Fraction of the enable->now window attributed to categories.
    [[nodiscard]] double attributedFraction() const;

    /// Copy profile.* counters into `registry` (delta-synced).
    void syncMetrics(Registry& registry) const;

  private:
    struct CategoryTotal {
        std::uint64_t count = 0;
        std::int64_t selfNs = 0;
    };
    struct Open {
        ProfileCategory category{};
        std::int64_t startNs = 0;
        std::int64_t childNs = 0;
    };
    static constexpr std::size_t kMaxDepth = 32;

    bool enabled_ = false;
    std::function<std::int64_t()> clock_;
    std::int64_t enabledAtNs_ = 0;
    CategoryTotal totals_[kProfileCategoryCount] = {};
    Open stack_[kMaxDepth] = {};
    std::size_t depth_ = 0;
    std::size_t overflowDepth_ = 0;  ///< scopes past kMaxDepth, untimed
    std::uint64_t dropped_ = 0;
    mutable std::uint64_t exports_ = 0;  ///< bumped by exportJson()
};

/// RAII profiler scope. When the thread's profiler is disabled the
/// constructor is a thread-local load and a branch.
class ProfileScope {
  public:
    explicit ProfileScope(ProfileCategory category) noexcept
        : profiler_(Profiler::currentIfEnabled()) {
        if (profiler_) profiler_->enter(category);
    }
    ~ProfileScope() {
        if (profiler_) profiler_->leave();
    }
    ProfileScope(const ProfileScope&) = delete;
    ProfileScope& operator=(const ProfileScope&) = delete;

  private:
    Profiler* profiler_;
};

}  // namespace onelab::obs
