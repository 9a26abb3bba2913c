#pragma once

#include <cstdint>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"

namespace onelab::obs {

/// RAII scope giving the calling thread a private observability world:
/// its own metric Registry, Tracer (the event recorder), LogConfig and
/// Profiler, plus the root random stream for the run, installed as the
/// thread's `instance()`s for the scope's lifetime and restored on
/// destruction (scopes nest).
///
/// This is what makes sweep points independent: a worker thread enters
/// a RunContext, builds a Simulator and scenario inside it, and every
/// counter registration, trace event and log line lands in the
/// context's objects instead of the process singletons — with zero
/// changes at the thousands of `instance()` call sites. The owned
/// objects are only touched from the owning thread; cross-thread use
/// of a context's registry is a bug.
///
/// The log level (and nothing else) is inherited from the previously
/// current LogConfig, so a driver's --verbose applies inside workers.
class RunContext {
  public:
    explicit RunContext(std::uint64_t seed = 0);
    ~RunContext();

    RunContext(const RunContext&) = delete;
    RunContext& operator=(const RunContext&) = delete;

    [[nodiscard]] Registry& registry() noexcept { return registry_; }
    [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
    [[nodiscard]] util::LogConfig& logConfig() noexcept { return log_; }
    [[nodiscard]] Profiler& profiler() noexcept { return profiler_; }

    /// The run's seed and root random stream. Components that need
    /// reproducible sub-streams should derive() from this root.
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    [[nodiscard]] util::RandomStream& rng() noexcept { return rng_; }

  private:
    Registry registry_;
    Tracer tracer_;
    util::LogConfig log_;
    Profiler profiler_;
    std::uint64_t seed_;
    util::RandomStream rng_;
    Registry* previousRegistry_;
    Tracer* previousTracer_;
    util::LogConfig* previousLog_;
    Profiler* previousProfiler_;
};

}  // namespace onelab::obs
