#include "obs/run_context.hpp"

namespace onelab::obs {

RunContext::RunContext(std::uint64_t seed)
    : seed_(seed), rng_(seed) {
    // Read the inherited level before installing the override — after
    // installation instance() would resolve to our own config.
    log_.setLevel(util::LogConfig::instance().level());
    // Workers also inherit the driver's profiling decision (and clock)
    // so a profiled sweep profiles every point, serial or --jobs N.
    const Profiler& inheritedProfiler = Profiler::instance();
    profiler_.setClock(inheritedProfiler.clock());
    if (inheritedProfiler.enabled()) profiler_.setEnabled(true);
    // Pre-register the recorder./profile. families so metrics.json
    // carries an identical key set whether or not a dump ever fires.
    registerFlightAndProfileMetricFamilies(registry_);
    installLogForwarding();
    previousRegistry_ = Registry::setCurrent(&registry_);
    previousTracer_ = Tracer::setCurrent(&tracer_);
    previousLog_ = util::LogConfig::setCurrent(&log_);
    previousProfiler_ = Profiler::setCurrent(&profiler_);
}

RunContext::~RunContext() {
    Profiler::setCurrent(previousProfiler_);
    util::LogConfig::setCurrent(previousLog_);
    Tracer::setCurrent(previousTracer_);
    Registry::setCurrent(previousRegistry_);
}

}  // namespace onelab::obs
