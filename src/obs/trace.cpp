#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "obs/registry.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace onelab::obs {

namespace {

thread_local Tracer* currentTracer = nullptr;

/// Crash-dump target: the last recorder that was given a dump path.
/// Plain atomic pointer — the handler can only make a best-effort
/// attempt anyway, and the target outlives any run that set it.
std::atomic<Tracer*> crashTarget{nullptr};

void copyTruncated(char* out, std::size_t capacity, std::string_view text) noexcept {
    const std::size_t n = std::min(text.size(), capacity - 1);
    // An empty view may carry a null data pointer, which memcpy rejects.
    if (n > 0) std::memcpy(out, text.data(), n);
    out[n] = '\0';
}

const char* recordKindName(RecordKind kind) noexcept {
    switch (kind) {
        case RecordKind::log: return "log";
        case RecordKind::span_begin: return "span_begin";
        case RecordKind::span_end: return "span_end";
        case RecordKind::event: return "event";
        case RecordKind::transition: return "transition";
        case RecordKind::metric: return "metric";
        case RecordKind::instant: return "instant";
    }
    return "event";
}

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

template <typename Visit>
void Tracer::forEach(std::size_t skip, Visit&& visit) const {
    for (std::size_t i = skip; i < ring_.size(); ++i) visit(ring_[(head_ + i) % ring_.size()]);
}

Tracer::Tracer() { ring_.reserve(kFlightRecords); }

Tracer::~Tracer() {
    Tracer* self = this;
    crashTarget.compare_exchange_strong(self, nullptr);
    if (currentTracer == this) currentTracer = nullptr;
}

void Tracer::setDumpPath(std::string path) {
    dumpPath_ = std::move(path);
    dumped_ = false;
    if (!dumpPath_.empty()) crashTarget.store(this);
}

void Tracer::note(RecordKind kind, std::string_view category, std::string_view name,
                  std::string_view detail, std::int64_t value) noexcept {
    if (kind == RecordKind::instant && !enabled_) return;
    TraceRecord* record;
    if (ring_.size() < kCapacity) {
        record = &ring_.emplace_back();
    } else {
        record = &ring_[head_];
        head_ = (head_ + 1) % kCapacity;
    }
    record->kind = kind;
    record->lane = lane_;
    // Logs, events and metric notes are for the black box only.
    record->traced = enabled_ && kind != RecordKind::log && kind != RecordKind::event &&
                     kind != RecordKind::metric;
    record->timeNs = clock_ ? clock_() : 0;
    record->value = value;
    copyTruncated(record->category, TraceRecord::kCategoryBytes, category);
    copyTruncated(record->name, TraceRecord::kNameBytes, name);
    copyTruncated(record->detail, TraceRecord::kDetailBytes, detail);
    ++recorded_;
}

std::vector<TraceRecord> Tracer::records() const {
    std::vector<TraceRecord> out;
    out.reserve(ring_.size());
    forEach(0, [&out](const TraceRecord& record) { out.push_back(record); });
    return out;
}

void Tracer::clear() noexcept {
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dumps_ = 0;
    dumpFailures_ = 0;
    dumped_ = false;
}

std::string Tracer::exportChromeJson() const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    forEach(0, [&out, &first](const TraceRecord& record) {
        if (!record.traced) return;
        if (!first) out += ',';
        first = false;
        out += "{\"name\":";
        util::appendJsonQuoted(out, record.nameView());
        out += ",\"cat\":";
        util::appendJsonQuoted(out, record.categoryView());
        // Chrome trace timestamps are microseconds. Transitions show as
        // global instants, like the instants themselves.
        const char phase = record.kind == RecordKind::span_begin ? 'B'
                           : record.kind == RecordKind::span_end ? 'E'
                                                                 : 'i';
        char fields[80];
        std::snprintf(fields, sizeof fields, ",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":%d",
                      phase, double(record.timeNs) / 1e3, int(record.lane));
        out += fields;
        if (phase == 'i') out += ",\"s\":\"g\"";
        if (record.detail[0] != '\0') {
            out += ",\"args\":{\"detail\":";
            util::appendJsonQuoted(out, record.detailView());
            out += '}';
        }
        out += '}';
    });
    out += "]}\n";
    return out;
}

std::string Tracer::exportFlightJson(std::string_view reason) const {
    const std::size_t skip = ring_.size() - std::min(ring_.size(), kFlightRecords);
    std::string out = "{\"reason\":";
    util::appendJsonQuoted(out, reason);
    out += ",\"dropped\":" + std::to_string(recorded_ - (ring_.size() - skip));
    out += ",\"entries\":[";
    bool first = true;
    forEach(skip, [&out, &first](const TraceRecord& record) {
        if (!first) out += ',';
        first = false;
        out += "{\"kind\":\"";
        out += recordKindName(record.kind);
        out += "\",\"t_ns\":" + std::to_string(record.timeNs);
        out += ",\"cat\":";
        util::appendJsonQuoted(out, record.categoryView());
        out += ",\"name\":";
        util::appendJsonQuoted(out, record.nameView());
        if (record.detail[0] != '\0') {
            out += ",\"detail\":";
            util::appendJsonQuoted(out, record.detailView());
        }
        if (record.value != 0) out += ",\"value\":" + std::to_string(record.value);
        out += '}';
    });
    out += "]}\n";
    return out;
}

util::Result<void> Tracer::dump(std::string_view reason, const std::string& path) {
    const std::filesystem::path target{path};
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    const std::string text = exportFlightJson(reason);
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file) {
        ++dumpFailures_;
        return util::Error{util::Error::Code::io, "cannot write " + path};
    }
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
    if (written != text.size()) {
        ++dumpFailures_;
        return util::Error{util::Error::Code::io, "short write to " + path};
    }
    ++dumps_;
    return util::Result<void>{};
}

void Tracer::requestDump(std::string_view reason) noexcept {
    if (dumpPath_.empty() || dumped_) return;
    dumped_ = true;
    try {
        (void)dump(reason, dumpPath_);
    } catch (...) {
        ++dumpFailures_;  // best effort: a post-mortem must not throw
    }
}

void Tracer::syncMetrics(Registry& registry) const {
    const auto syncCounter = [&registry](const char* name, std::uint64_t target) {
        Counter& counter = registry.counter(name);
        if (target > counter.value()) counter.inc(target - counter.value());
    };
    syncCounter("recorder.entries", recorded_);
    syncCounter("recorder.dropped", dropped());
    syncCounter("recorder.dumps", dumps_);
    syncCounter("recorder.dump_failures", dumpFailures_);
    registry.gauge("recorder.buffered").set(std::int64_t(ring_.size()));
}

void registerFlightAndProfileMetricFamilies(Registry& registry) {
    for (const char* name : {"recorder.entries", "recorder.dropped", "recorder.dumps",
                             "recorder.dump_failures", "profile.exports",
                             "profile.scopes_dropped"})
        (void)registry.counter(name);
    (void)registry.gauge("recorder.buffered");
    (void)registry.gauge("profile.enabled");
}

// ------------------------------------------------------- crash dumps

namespace {

void crashHandler(int signal) {
    // Best effort, knowingly not async-signal-pure: the process is
    // already dying and the alternative is losing the black box. The
    // only allocation is the JSON string.
    if (Tracer* tracer = crashTarget.load()) {
        std::string reason = "fatal signal ";
        reason += std::to_string(signal);
        (void)tracer->dump(reason, tracer->dumpPath());
    }
    std::signal(signal, SIG_DFL);
    std::raise(signal);
}

}  // namespace

void installCrashDump() {
    static std::once_flag once;
    std::call_once(once, [] {
        for (const int sig : {SIGSEGV, SIGABRT, SIGFPE, SIGBUS, SIGILL})
            std::signal(sig, crashHandler);
    });
}

void installLogForwarding() {
    static std::once_flag once;
    std::call_once(once, [] {
        util::LogConfig::setForwarder([](util::LogLevel level, std::string_view component,
                                         std::string_view message) {
            Tracer::instance().note(RecordKind::log, util::logLevelName(level), component,
                                    message);
        });
    });
}

}  // namespace onelab::obs
