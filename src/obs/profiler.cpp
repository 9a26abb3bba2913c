#include "obs/profiler.hpp"

#include <chrono>

#include "obs/registry.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace onelab::obs {

namespace {

thread_local Profiler* currentProfiler = nullptr;

constexpr const char* kCategoryNames[kProfileCategoryCount] = {
    "sim.run",  "sim.event", "ppp.hdlc_encode", "ppp.hdlc_decode", "umts.rlc_queue",
    "sim.pipe", "ppp.pppd",  "supervise",       "obs.export",      "ditg.decode",
    "scenario.harness", "modem.at",
};

std::int64_t steadyNowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

const char* profileCategoryName(ProfileCategory category) noexcept {
    const auto index = std::size_t(category);
    return index < kProfileCategoryCount ? kCategoryNames[index] : "unknown";
}

Profiler& Profiler::instance() {
    if (currentProfiler) return *currentProfiler;
    static Profiler profiler;
    return profiler;
}

Profiler* Profiler::setCurrent(Profiler* profiler) noexcept {
    Profiler* previous = currentProfiler;
    currentProfiler = profiler;
    return previous;
}

Profiler* Profiler::currentIfEnabled() noexcept {
    Profiler& profiler = instance();
    return profiler.enabled_ ? &profiler : nullptr;
}

std::int64_t Profiler::clockNowNs() const {
    return clock_ ? clock_() : steadyNowNs();
}

void Profiler::setEnabled(bool enabled) noexcept {
    enabled_ = enabled;
    if (!enabled) return;
    reset();
}

void Profiler::reset() noexcept {
    for (auto& total : totals_) total = {};
    depth_ = 0;
    overflowDepth_ = 0;
    dropped_ = 0;
    exports_ = 0;
    enabledAtNs_ = clockNowNs();
}

void Profiler::enter(ProfileCategory category) noexcept {
    if (depth_ >= kMaxDepth) {
        ++overflowDepth_;
        ++dropped_;
        return;
    }
    Open& open = stack_[depth_++];
    open.category = category;
    open.childNs = 0;
    open.startNs = clockNowNs();
}

void Profiler::leave() noexcept {
    if (overflowDepth_ > 0) {
        --overflowDepth_;
        return;
    }
    if (depth_ == 0) return;  // unbalanced leave; ignore
    const Open& open = stack_[--depth_];
    const std::int64_t total = clockNowNs() - open.startNs;
    CategoryTotal& bucket = totals_[std::size_t(open.category)];
    ++bucket.count;
    bucket.selfNs += total - open.childNs;
    if (depth_ > 0) stack_[depth_ - 1].childNs += total;
}

double Profiler::attributedFraction() const {
    const std::int64_t window = clockNowNs() - enabledAtNs_;
    if (window <= 0) return 0.0;
    std::int64_t tracked = 0;
    for (const auto& total : totals_) tracked += total.selfNs;
    return double(tracked) / double(window);
}

std::string Profiler::exportJson() const {
    const std::int64_t window = enabled_ ? clockNowNs() - enabledAtNs_ : 0;
    std::int64_t tracked = 0;
    for (const auto& total : totals_) tracked += total.selfNs;

    std::string out = "{\"enabled\":";
    out += enabled_ ? "true" : "false";
    out += ",\"window_ns\":" + std::to_string(window);
    out += ",\"attributed_ns\":" + std::to_string(tracked);
    out += ",\"attributed_fraction\":";
    out += util::format(
        "%.6f", window > 0 ? double(tracked) / double(window) : 0.0);
    out += ",\"dropped_scopes\":" + std::to_string(dropped_);
    out += ",\"categories\":[";
    for (std::size_t i = 0; i < kProfileCategoryCount; ++i) {
        if (i) out += ',';
        out += "{\"name\":\"";
        out += kCategoryNames[i];
        out += "\",\"count\":" + std::to_string(totals_[i].count);
        out += ",\"self_ns\":" + std::to_string(totals_[i].selfNs);
        out += ",\"fraction\":";
        out += util::format(
            "%.6f", tracked > 0 ? double(totals_[i].selfNs) / double(tracked) : 0.0);
        out += '}';
    }
    out += "]}\n";
    ++exports_;
    return out;
}

void Profiler::syncMetrics(Registry& registry) const {
    const auto syncCounter = [&registry](const char* name, std::uint64_t target) {
        Counter& counter = registry.counter(name);
        if (target > counter.value()) counter.inc(target - counter.value());
    };
    syncCounter("profile.exports", exports_);
    syncCounter("profile.scopes_dropped", dropped_);
    registry.gauge("profile.enabled").set(enabled_ ? 1 : 0);
}

}  // namespace onelab::obs
