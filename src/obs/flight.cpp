#include "obs/flight.hpp"

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

thread_local FlightRecorder* currentRecorder = nullptr;

/// Crash-dump target: the last recorder that was given a dump path.
/// Plain atomic pointer — the handler can only make a best-effort
/// attempt anyway, and the target outlives any run that set it.
std::atomic<FlightRecorder*> crashTarget{nullptr};

void copyTruncated(char* out, std::size_t capacity, std::string_view text) noexcept {
    const std::size_t n = std::min(text.size(), capacity - 1);
    // An empty view may carry a null data pointer, which memcpy rejects.
    if (n > 0) std::memcpy(out, text.data(), n);
    out[n] = '\0';
}

}  // namespace

const char* flightKindName(FlightKind kind) noexcept {
    switch (kind) {
        case FlightKind::log: return "log";
        case FlightKind::span_begin: return "span_begin";
        case FlightKind::span_end: return "span_end";
        case FlightKind::event: return "event";
        case FlightKind::transition: return "transition";
        case FlightKind::metric: return "metric";
    }
    return "event";
}

FlightRecorder& FlightRecorder::instance() {
    if (currentRecorder) return *currentRecorder;
    static FlightRecorder recorder;
    return recorder;
}

FlightRecorder* FlightRecorder::setCurrent(FlightRecorder* recorder) noexcept {
    FlightRecorder* previous = currentRecorder;
    currentRecorder = recorder;
    return previous;
}

FlightRecorder* FlightRecorder::currentIfEnabled() noexcept {
    FlightRecorder& recorder = instance();
    return recorder.enabled_ ? &recorder : nullptr;
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
    ring_.resize(std::max<std::size_t>(capacity, 1));
}

FlightRecorder::~FlightRecorder() {
    FlightRecorder* self = this;
    crashTarget.compare_exchange_strong(self, nullptr);
    if (currentRecorder == this) currentRecorder = nullptr;
}

void FlightRecorder::setDumpPath(std::string path) {
    dumpPath_ = std::move(path);
    dumped_ = false;
    if (!dumpPath_.empty()) crashTarget.store(this);
}

void FlightRecorder::note(FlightKind kind, std::string_view category,
                          std::string_view name, std::string_view detail,
                          std::int64_t value) noexcept {
    if (!enabled_) return;
    FlightEntry& entry = ring_[head_];
    entry.kind = kind;
    entry.timeNs = clock_ ? clock_() : 0;
    entry.value = value;
    copyTruncated(entry.category, FlightEntry::kCategoryBytes, category);
    copyTruncated(entry.name, FlightEntry::kNameBytes, name);
    copyTruncated(entry.detail, FlightEntry::kDetailBytes, detail);
    head_ = (head_ + 1) % ring_.size();
    ++recorded_;
    if (size_ < ring_.size())
        ++size_;
    else
        ++dropped_;
}

std::vector<FlightEntry> FlightRecorder::entries() const {
    std::vector<FlightEntry> out;
    out.reserve(size_);
    // Oldest entry sits at head_ once the ring has wrapped, else at 0.
    const std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

void FlightRecorder::clear() noexcept {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
    recorded_ = 0;
    dumps_ = 0;
    dumpFailures_ = 0;
    dumped_ = false;
}

std::string FlightRecorder::exportJson(std::string_view reason) const {
    std::string out = "{\"reason\":";
    util::appendJsonQuoted(out, reason);
    out += ",\"dropped\":" + std::to_string(dropped_);
    out += ",\"entries\":[";
    const std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i) {
        const FlightEntry& entry = ring_[(start + i) % ring_.size()];
        if (i) out += ',';
        out += "{\"kind\":\"";
        out += flightKindName(entry.kind);
        out += "\",\"t_ns\":" + std::to_string(entry.timeNs);
        out += ",\"cat\":";
        util::appendJsonQuoted(out, entry.categoryView());
        out += ",\"name\":";
        util::appendJsonQuoted(out, entry.nameView());
        if (entry.detail[0] != '\0') {
            out += ",\"detail\":";
            util::appendJsonQuoted(out, entry.detailView());
        }
        if (entry.value != 0) out += ",\"value\":" + std::to_string(entry.value);
        out += '}';
    }
    out += "]}\n";
    return out;
}

util::Result<void> FlightRecorder::dump(std::string_view reason, const std::string& path) {
    const std::filesystem::path target{path};
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    const std::string text = exportJson(reason);
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

void FlightRecorder::requestDump(std::string_view reason) noexcept {
    if (dumpPath_.empty() || dumped_) return;
    dumped_ = true;
    try {
        (void)dump(reason, dumpPath_);
    } catch (...) {
        ++dumpFailures_;  // best effort: a post-mortem must not throw
    }
}

void FlightRecorder::syncMetrics(Registry& registry) const {
    const auto syncCounter = [&registry](const char* name, std::uint64_t target) {
        Counter& counter = registry.counter(name);
        if (target > counter.value()) counter.inc(target - counter.value());
    };
    syncCounter("recorder.entries", recorded_);
    syncCounter("recorder.dropped", dropped_);
    syncCounter("recorder.dumps", dumps_);
    syncCounter("recorder.dump_failures", dumpFailures_);
    registry.gauge("recorder.buffered").set(std::int64_t(size_));
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
    // ring itself is preallocated, so the only allocation risk is the
    // JSON string.
    if (FlightRecorder* recorder = crashTarget.load()) {
        std::string reason = "fatal signal ";
        reason += std::to_string(signal);
        (void)recorder->dump(reason, recorder->dumpPath());
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
        util::LogConfig::setForwarder(
            [](util::LogLevel level, std::string_view component,
               std::string_view message) {
                if (FlightRecorder* recorder = FlightRecorder::currentIfEnabled())
                    recorder->note(FlightKind::log, util::logLevelName(level),
                                   component, message);
            });
    });
}

}  // namespace onelab::obs
