#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/result.hpp"

namespace onelab::obs {

class Registry;

/// What a record holds.
enum class RecordKind : std::uint8_t {
    log,         ///< an emitted log line
    span_begin,  ///< a span opened
    span_end,    ///< a span closed
    event,       ///< a point event for the black box (fault firing, start failure)
    transition,  ///< a state-machine edge ("healthy -> recovering")
    metric,      ///< a metric delta worth remembering (value carries it)
    instant,     ///< a trace instant, kept only while tracing is on
};

/// One fixed-size record. Text fields are truncating copies into
/// inline storage, so recording never formats or allocates.
struct TraceRecord {
    static constexpr std::size_t kCategoryBytes = 24;
    static constexpr std::size_t kNameBytes = 48;
    static constexpr std::size_t kDetailBytes = 104;

    RecordKind kind = RecordKind::event;
    std::uint8_t lane = 1;    ///< Chrome-trace tid (one lane per run/path)
    bool traced = false;      ///< recorded while tracing was on: part of trace.json
    std::int64_t timeNs = 0;  ///< simulated time of the record
    std::int64_t value = 0;   ///< metric delta / free-form payload
    char category[kCategoryBytes] = {};
    char name[kNameBytes] = {};
    char detail[kDetailBytes] = {};

    [[nodiscard]] std::string_view categoryView() const noexcept { return {category}; }
    [[nodiscard]] std::string_view nameView() const noexcept { return {name}; }
    [[nodiscard]] std::string_view detailView() const noexcept { return {detail}; }
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(sizeof(TraceRecord) == 200, "lane and traced sit in the padding after kind");

/// The run's event recorder: one single-writer ring of fixed-size
/// records stamped with simulated time, holding spans, trace instants,
/// log lines, state-machine transitions, fault events and metric
/// notes. Two documents come out of it:
///   - trace.json (exportChromeJson): the spans, instants and
///     transitions recorded while tracing was on, as Chrome
///     `trace_event` JSON (chrome://tracing, Perfetto);
///   - flight.json (exportFlightJson, requestDump): the newest
///     kFlightRecords records of every kind, the black box dumped when
///     a run goes terminally wrong (see tools/obsq).
///
/// Tracing (setEnabled) is off by default and gates only instants and
/// the traced bit. Spans, logs, transitions and events are always
/// recorded, so the black box holds the recent past of runs nobody was
/// tracing. The ring grows on demand to kCapacity records, then
/// overwrites the oldest.
///
/// instance() resolves to the calling thread's recorder: the process
/// singleton, or the private one an obs::RunContext installs, so
/// parallel sweep workers keep independent recorders. Only the owning
/// thread records.
class Tracer {
  public:
    /// Records the ring holds before it overwrites the oldest.
    static constexpr std::size_t kCapacity = 65536;
    /// Newest records a flight.json dump holds; also what the ring
    /// reserves up front.
    static constexpr std::size_t kFlightRecords = 4096;

    /// The calling thread's current recorder: the process singleton, or
    /// a thread-local override installed by RunContext.
    static Tracer& instance();
    /// Install `tracer` as the calling thread's instance() (nullptr
    /// restores the process singleton). Returns the previous override.
    /// Prefer obs::RunContext over calling this directly.
    static Tracer* setCurrent(Tracer* tracer) noexcept;

    Tracer();
    ~Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Tracing on: instants are kept, and spans, instants and
    /// transitions recorded from now on join trace.json.
    void setEnabled(bool enabled) noexcept { enabled_ = enabled; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Clock returning current simulated nanoseconds; installed by
    /// Simulator::attachLogClock alongside the log clock.
    void setClock(std::function<std::int64_t()> clock) { clock_ = std::move(clock); }

    /// Chrome-trace lane stamped on subsequent records; lets a driver
    /// put each run/path on its own lane.
    void setLane(std::uint8_t lane) noexcept { lane_ = lane; }

    /// Where requestDump() writes flight.json. Setting a path also
    /// makes this recorder the crash-dump target (last setter wins)
    /// once installCrashDump() has been called.
    void setDumpPath(std::string path);
    [[nodiscard]] const std::string& dumpPath() const noexcept { return dumpPath_; }

    /// Record one entry; text beyond the inline field widths is
    /// truncated. Allocates only while the ring grows to kCapacity.
    /// An instant is dropped while tracing is off; every other kind is
    /// always kept.
    void note(RecordKind kind, std::string_view category, std::string_view name,
              std::string_view detail = {}, std::int64_t value = 0) noexcept;

    void instant(std::string_view category, std::string_view name,
                 std::string_view detail = {}) noexcept {
        note(RecordKind::instant, category, name, detail);
    }
    void begin(std::string_view category, std::string_view name,
               std::string_view detail = {}) noexcept {
        note(RecordKind::span_begin, category, name, detail);
    }
    void end(std::string_view category, std::string_view name) noexcept {
        note(RecordKind::span_end, category, name);
    }
    /// Always kept; trace.json shows it as an instant when tracing is on.
    void transition(std::string_view category, std::string_view name,
                    std::string_view fromTo) noexcept {
        note(RecordKind::transition, category, name, fromTo);
    }

    /// Records currently buffered, oldest first (copies out).
    [[nodiscard]] std::vector<TraceRecord> records() const;
    [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
    /// Records since the last clear() (recorded = size + dropped).
    [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
    /// Records overwritten because the ring was full.
    [[nodiscard]] std::uint64_t dropped() const noexcept { return recorded_ - ring_.size(); }

    /// Drop every record and re-arm the dump; keeps the clock, lane,
    /// tracing switch and dump path.
    void clear() noexcept;

    /// trace.json: deterministic, so the same record sequence exports
    /// byte-identical JSON.
    [[nodiscard]] std::string exportChromeJson() const;
    /// flight.json: the newest kFlightRecords records and the reason;
    /// "dropped" counts the older records the dump leaves out.
    [[nodiscard]] std::string exportFlightJson(std::string_view reason) const;

    /// Write exportFlightJson(reason) to `path` (directories are created).
    util::Result<void> dump(std::string_view reason, const std::string& path);

    /// Dump to the configured dump path; a silent no-op when none is
    /// set. At most one dump per run: repeat requests after the first
    /// write are ignored, so a parked fleet of N supervisors produces
    /// one flight.json, not N writes of the same ring.
    void requestDump(std::string_view reason) noexcept;
    [[nodiscard]] std::uint64_t dumps() const noexcept { return dumps_; }

    /// Copy the recorder.* counters into `registry` (delta-synced:
    /// safe to call repeatedly). Called by telemetry export so the
    /// families pre-registered at run start carry live values without
    /// per-record registry traffic.
    void syncMetrics(Registry& registry) const;

  private:
    /// Visit the buffered records oldest first, skipping the oldest `skip`.
    template <typename Visit>
    void forEach(std::size_t skip, Visit&& visit) const;

    bool enabled_ = false;
    std::uint8_t lane_ = 1;
    std::function<std::int64_t()> clock_;
    std::vector<TraceRecord> ring_;
    std::size_t head_ = 0;  ///< oldest record (and next write) once the ring is full
    std::uint64_t recorded_ = 0;
    std::uint64_t dumps_ = 0;
    std::uint64_t dumpFailures_ = 0;
    bool dumped_ = false;  ///< requestDump already fired for this run
    std::string dumpPath_;
};

/// Pre-register every recorder.* and profile.* metric family so a
/// telemetry export carries the same key set whether or not a dump (or
/// any profiling) happened.
void registerFlightAndProfileMetricFamilies(Registry& registry);

/// Install fatal-signal handlers (SIGSEGV/SIGABRT/SIGFPE/SIGBUS/
/// SIGILL) that best-effort dump the most recent recorder given a dump
/// path before re-raising the default disposition. Idempotent.
void installCrashDump();

/// Install the process-wide LogConfig forwarder that records every
/// emitted log line in the calling thread's recorder. Idempotent;
/// done automatically by obs::RunContext and obs::beginRun.
void installLogForwarding();

}  // namespace onelab::obs
