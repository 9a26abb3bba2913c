#include "obs/trace.hpp"

#include <sstream>

#include "obs/flight.hpp"
#include "util/strings.hpp"

namespace onelab::obs {

namespace {

/// Ring storage keeps events in insertion order modulo wraparound:
/// [head_, end) then [0, head_) once full.
constexpr char phaseChar(TraceEvent::Phase phase) noexcept {
    switch (phase) {
        case TraceEvent::Phase::instant: return 'i';
        case TraceEvent::Phase::begin: return 'B';
        case TraceEvent::Phase::end: return 'E';
    }
    return 'i';
}

void appendJsonString(std::ostringstream& out, const std::string& text) {
    out << '"';
    for (const char c : text) {
        switch (c) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\r': out << "\\r"; break;
            case '\t': out << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20)
                    out << util::format("\\u%04x", c);
                else
                    out << c;
        }
    }
    out << '"';
}

}  // namespace

namespace {
thread_local Tracer* currentTracer = nullptr;
}  // namespace

Tracer& Tracer::instance() {
    if (currentTracer) return *currentTracer;
    static Tracer tracer;
    return tracer;
}

Tracer* Tracer::setCurrent(Tracer* tracer) noexcept {
    Tracer* previous = currentTracer;
    currentTracer = tracer;
    return previous;
}

void Tracer::setClock(std::function<std::int64_t()> clock) {
    std::lock_guard<std::mutex> lock(mutex_);
    clock_ = std::move(clock);
}

void Tracer::setCapacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity == 0) capacity = 1;
    if (ring_.size() > capacity) {
        // Keep the newest `capacity` events, oldest first.
        std::vector<TraceEvent> kept;
        kept.reserve(capacity);
        const std::size_t total = ring_.size();
        for (std::size_t i = total - capacity; i < total; ++i)
            kept.push_back(std::move(ring_[(head_ + i) % total]));
        droppedEvents_ += total - capacity;
        ring_ = std::move(kept);
        head_ = 0;
    }
    capacity_ = capacity;
}

void Tracer::setThread(int thread) {
    std::lock_guard<std::mutex> lock(mutex_);
    thread_ = thread;
}

void Tracer::record(TraceEvent::Phase phase, std::string category, std::string name,
                    std::string detail) {
    std::lock_guard<std::mutex> lock(mutex_);
    TraceEvent event;
    event.phase = phase;
    event.timeNs = clock_ ? clock_() : 0;
    event.thread = thread_;
    event.category = std::move(category);
    event.name = std::move(name);
    event.detail = std::move(detail);
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(event));
    } else {
        ring_[head_] = std::move(event);
        head_ = (head_ + 1) % ring_.size();
        ++droppedEvents_;
    }
}

void Tracer::instant(std::string category, std::string name, std::string detail) {
    if (!enabled()) return;
    record(TraceEvent::Phase::instant, std::move(category), std::move(name),
           std::move(detail));
}

void Tracer::begin(std::string category, std::string name, std::string detail) {
    // The flight recorder shadows spans even when tracing is off: the
    // black box must hold the recent past of runs nobody was watching.
    if (FlightRecorder* recorder = FlightRecorder::currentIfEnabled())
        recorder->note(FlightKind::span_begin, category, name, detail);
    if (!enabled()) return;
    record(TraceEvent::Phase::begin, std::move(category), std::move(name), std::move(detail));
}

void Tracer::end(std::string category, std::string name) {
    if (FlightRecorder* recorder = FlightRecorder::currentIfEnabled())
        recorder->note(FlightKind::span_end, category, name, {});
    if (!enabled()) return;
    record(TraceEvent::Phase::end, std::move(category), std::move(name), {});
}

void Tracer::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    head_ = 0;
    droppedEvents_ = 0;
}

std::vector<TraceEvent> Tracer::events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::size_t Tracer::eventCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

std::uint64_t Tracer::dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return droppedEvents_;
}

std::string Tracer::exportChromeJson() const {
    const std::vector<TraceEvent> all = events();
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& event : all) {
        if (!first) out << ',';
        first = false;
        out << "{\"name\":";
        appendJsonString(out, event.name);
        out << ",\"cat\":";
        appendJsonString(out, event.category);
        out << ",\"ph\":\"" << phaseChar(event.phase) << "\"";
        // Chrome trace timestamps are microseconds.
        out << ",\"ts\":" << util::format("%.3f", double(event.timeNs) / 1e3);
        out << ",\"pid\":1,\"tid\":" << event.thread;
        if (event.phase == TraceEvent::Phase::instant) out << ",\"s\":\"g\"";
        if (!event.detail.empty()) {
            out << ",\"args\":{\"detail\":";
            appendJsonString(out, event.detail);
            out << '}';
        }
        out << '}';
    }
    out << "]}\n";
    return out.str();
}

Tracer::Span::Span(std::string category, std::string name, std::string detail)
    : category_(std::move(category)), name_(std::move(name)),
      recorded_(Tracer::instance().enabled() ||
                FlightRecorder::currentIfEnabled() != nullptr) {
    if (recorded_) Tracer::instance().begin(category_, name_, std::move(detail));
}

Tracer::Span::~Span() {
    if (recorded_) Tracer::instance().end(category_, name_);
}

}  // namespace onelab::obs
