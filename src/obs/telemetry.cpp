#include "obs/telemetry.hpp"

#include <cstdio>
#include <filesystem>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace onelab::obs {

namespace {

util::Result<void> writeFile(const std::filesystem::path& path, const std::string& text) {
    std::FILE* file = std::fopen(path.string().c_str(), "w");
    if (!file)
        return util::Error{util::Error::Code::io, "cannot write " + path.string()};
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
    if (written != text.size())
        return util::Error{util::Error::Code::io, "short write to " + path.string()};
    return util::Result<void>{};
}

}  // namespace

util::Result<void> writeTelemetry(const std::string& directory) {
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec)
        return util::Error{util::Error::Code::io,
                           "cannot create " + directory + ": " + ec.message()};
    const std::filesystem::path dir{directory};
    Profiler& profiler = Profiler::instance();
    {
        // Close this scope before exportJson() reads the totals: the
        // metrics + trace serialization below is the bulk of export
        // cost, and it must land in obs.export rather than slip into
        // the unattributed remainder of the profile window.
        ProfileScope exportScope(ProfileCategory::obs_export);
        Registry& registry = Registry::instance();
        Tracer& tracer = Tracer::instance();
        tracer.syncMetrics(registry);
        profiler.syncMetrics(registry);
        auto metrics = writeFile(dir / kMetricsFile, registry.snapshotJson());
        if (!metrics.ok()) return metrics;
        auto trace = writeFile(dir / kTraceFile, tracer.exportChromeJson());
        if (!trace.ok()) return trace;
    }
    return writeFile(dir / kProfileFile, profiler.exportJson());
}

void beginRun() {
    registerFlightAndProfileMetricFamilies(Registry::instance());
    installLogForwarding();
    Registry::instance().reset();
    Tracer& tracer = Tracer::instance();
    tracer.clear();
    tracer.setLane(1);
    tracer.setEnabled(true);
    // Restart the attribution window and export counters at the run
    // boundary (even disabled profilers count exports).
    Profiler::instance().reset();
}

}  // namespace onelab::obs
