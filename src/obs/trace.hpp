#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace onelab::obs {

/// One recorded trace event, stamped with simulated time.
struct TraceEvent {
    enum class Phase : std::uint8_t { instant, begin, end };
    Phase phase = Phase::instant;
    std::int64_t timeNs = 0;
    int thread = 1;           ///< Chrome-trace tid (one lane per run/path)
    std::string category;     ///< dotted subsystem ("umts.bearer")
    std::string name;         ///< event/span name ("upgrade")
    std::string detail;       ///< free-form args, pre-formatted
};

/// Process-wide sim-time event tracer: a bounded ring buffer of
/// begin/end spans and instant events, exportable as Chrome
/// `trace_event` JSON (loadable in chrome://tracing and Perfetto).
/// Disabled by default so the datapath pays a single atomic load; the
/// simulator's attachLogClock() installs the clock alongside the log
/// clock.
class Tracer {
  public:
    /// The calling thread's current tracer: the process singleton, or
    /// a thread-local override installed by RunContext.
    static Tracer& instance();

    /// Install `tracer` as the calling thread's instance() (nullptr
    /// restores the process singleton). Returns the previous override.
    /// Prefer obs::RunContext over calling this directly.
    static Tracer* setCurrent(Tracer* tracer) noexcept;

    Tracer() = default;
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    void setEnabled(bool enabled) noexcept {
        enabled_.store(enabled, std::memory_order_relaxed);
    }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Clock returning current simulated nanoseconds (the log clock).
    void setClock(std::function<std::int64_t()> clock);

    /// Ring capacity; shrinking drops the oldest events. The default
    /// comfortably holds a full 120 s paper run (~60k events).
    void setCapacity(std::size_t capacity);

    /// Chrome-trace thread id stamped on subsequent events; lets a
    /// driver put each run/path on its own lane.
    void setThread(int thread);

    void instant(std::string category, std::string name, std::string detail = {});
    void begin(std::string category, std::string name, std::string detail = {});
    void end(std::string category, std::string name);

    /// Drop all recorded events (kept registrations: clock, capacity).
    void clear();

    /// Events currently buffered, oldest first.
    [[nodiscard]] std::vector<TraceEvent> events() const;
    [[nodiscard]] std::size_t eventCount() const;
    /// Events overwritten because the ring was full.
    [[nodiscard]] std::uint64_t dropped() const;

    /// Export as a Chrome trace_event JSON document. Deterministic:
    /// same event sequence in, byte-identical JSON out.
    [[nodiscard]] std::string exportChromeJson() const;

    /// Scoped span: begin on construction, end on destruction.
    class Span {
      public:
        Span(std::string category, std::string name, std::string detail = {});
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

      private:
        std::string category_;
        std::string name_;
        bool recorded_;
    };

  private:
    void record(TraceEvent::Phase phase, std::string category, std::string name,
                std::string detail);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::function<std::int64_t()> clock_;
    std::vector<TraceEvent> ring_;
    std::size_t capacity_ = 262144;
    std::size_t head_ = 0;  ///< index of oldest event when the ring is full
    std::uint64_t droppedEvents_ = 0;
    int thread_ = 1;
};

}  // namespace onelab::obs
