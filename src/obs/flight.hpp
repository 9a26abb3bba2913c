#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace onelab::obs {

class Registry;

/// What a flight-recorder entry records.
enum class FlightKind : std::uint8_t {
    log,         ///< an emitted log line
    span_begin,  ///< a Tracer span opened
    span_end,    ///< a Tracer span closed
    event,       ///< a point event (fault firing, ladder action)
    transition,  ///< a state-machine edge ("healthy -> recovering")
    metric,      ///< a metric delta worth remembering (value carries it)
};

[[nodiscard]] const char* flightKindName(FlightKind kind) noexcept;

/// One fixed-size flight-recorder record. All text fields are
/// truncating copies into inline storage so recording never allocates.
struct FlightEntry {
    static constexpr std::size_t kCategoryBytes = 24;
    static constexpr std::size_t kNameBytes = 48;
    static constexpr std::size_t kDetailBytes = 104;

    FlightKind kind = FlightKind::event;
    std::int64_t timeNs = 0;  ///< simulated time of the record
    std::int64_t value = 0;   ///< metric delta / free-form payload
    char category[kCategoryBytes] = {};
    char name[kNameBytes] = {};
    char detail[kDetailBytes] = {};

    [[nodiscard]] std::string_view categoryView() const noexcept { return {category}; }
    [[nodiscard]] std::string_view nameView() const noexcept { return {name}; }
    [[nodiscard]] std::string_view detailView() const noexcept { return {detail}; }
};

/// Always-on post-mortem ring: a bounded, allocation-free buffer of
/// the most recent spans, log lines, state-machine transitions and
/// metric deltas, kept cheap enough to leave running on every run.
/// When something goes terminally wrong — a chaos invariant breach, a
/// supervisor parking, a fleet bring-up failure, a fatal signal — the
/// ring is dumped as `flight.json` so the last seconds leading to the
/// failure can be reconstructed offline (see tools/obsq).
///
/// Like Registry/Tracer, `instance()` resolves to the calling thread's
/// current recorder: the process singleton by default, or the private
/// instance an obs::RunContext installs, so parallel sweep workers
/// each keep an independent black box. Single-writer: the owning
/// thread records, other threads must not.
class FlightRecorder {
  public:
    static FlightRecorder& instance();
    /// Install `recorder` as the calling thread's instance() (nullptr
    /// restores the process singleton). Returns the previous override.
    /// Prefer obs::RunContext over calling this directly.
    static FlightRecorder* setCurrent(FlightRecorder* recorder) noexcept;
    /// The calling thread's recorder when it is enabled, else nullptr
    /// — the one-load fast path for feeder call sites.
    static FlightRecorder* currentIfEnabled() noexcept;

    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// Default ring size: enough to hold the full ladder/fault history
    /// of the seconds leading up to a breach without growing the
    /// resident footprint past a few hundred KB.
    static constexpr std::size_t kDefaultCapacity = 4096;

    void setEnabled(bool enabled) noexcept { enabled_ = enabled; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Clock returning current simulated nanoseconds; installed by
    /// Simulator::attachLogClock alongside the log/trace clocks.
    void setClock(std::function<std::int64_t()> clock) { clock_ = std::move(clock); }

    /// Where requestDump() writes flight.json. Setting a path also
    /// registers this recorder as the crash-dump target (last setter
    /// wins) when installCrashDump() has been called.
    void setDumpPath(std::string path);
    [[nodiscard]] const std::string& dumpPath() const noexcept { return dumpPath_; }

    /// Record one entry. Never allocates; text beyond the inline field
    /// widths is truncated. No-op while disabled.
    void note(FlightKind kind, std::string_view category, std::string_view name,
              std::string_view detail = {}, std::int64_t value = 0) noexcept;

    void noteTransition(std::string_view category, std::string_view name,
                        std::string_view fromTo) noexcept {
        note(FlightKind::transition, category, name, fromTo);
    }
    void noteMetric(std::string_view name, std::int64_t delta) noexcept {
        note(FlightKind::metric, "metric", name, {}, delta);
    }

    /// Entries currently buffered, oldest first (copies out).
    [[nodiscard]] std::vector<FlightEntry> entries() const;
    [[nodiscard]] std::size_t entryCount() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
    /// Entries overwritten because the ring was full.
    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
    /// Lifetime entries recorded (recorded = entryCount + dropped).
    [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
    void clear() noexcept;

    /// Serialize the ring as a flight.json document.
    [[nodiscard]] std::string exportJson(std::string_view reason) const;

    /// Write exportJson(reason) to `path` (directories are created).
    util::Result<void> dump(std::string_view reason, const std::string& path);

    /// Dump to the configured dump path; a silent no-op when none is
    /// set. At most one dump per recorder per reason-burst: repeat
    /// requests after the first write are counted but not re-written,
    /// so a parked fleet of N supervisors produces one flight.json,
    /// not N racing writes of the same ring.
    void requestDump(std::string_view reason) noexcept;
    [[nodiscard]] std::uint64_t dumps() const noexcept { return dumps_; }

    /// Copy recorder.* counters into `registry` (delta-synced: safe to
    /// call repeatedly). Called by telemetry export and dump so the
    /// metric families pre-registered at context creation carry live
    /// values without per-note registry traffic.
    void syncMetrics(Registry& registry) const;

  private:
    bool enabled_ = true;
    std::function<std::int64_t()> clock_;
    std::vector<FlightEntry> ring_;
    std::size_t head_ = 0;  ///< next write position
    std::size_t size_ = 0;  ///< live entries (<= ring_.size())
    std::uint64_t dropped_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dumps_ = 0;
    std::uint64_t dumpFailures_ = 0;
    bool dumped_ = false;  ///< requestDump already fired for this run
    std::string dumpPath_;
};

/// Pre-register every recorder.* and profile.* metric family so a
/// telemetry export carries the same key set whether or not a dump (or
/// any profiling) happened — the byte-identity argument fault.* and
/// supervise.* already follow.
void registerFlightAndProfileMetricFamilies(Registry& registry);

/// Install fatal-signal handlers (SIGSEGV/SIGABRT/SIGFPE/SIGBUS/
/// SIGILL) that best-effort dump the most recently registered
/// flight recorder (the last one given a dump path) before re-raising
/// the default disposition. Idempotent.
void installCrashDump();

/// Install the process-wide LogConfig forwarder that shadows every
/// emitted log line into the calling thread's flight recorder.
/// Idempotent; done automatically by obs::RunContext.
void installLogForwarding();

}  // namespace onelab::obs
