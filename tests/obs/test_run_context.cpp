// obs::RunContext: the RAII scope that gives a thread its own
// Registry/Tracer/LogConfig plus the run's root RNG. These tests pin
// the install/restore discipline (including nesting), cross-thread
// isolation — the property SweepRunner workers rely on — and seed
// determinism.
#include "obs/run_context.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace onelab::obs {
namespace {

TEST(RunContext, InstallsOwnInstancesAndRestores) {
    Registry& outer = Registry::instance();
    Tracer& outerTracer = Tracer::instance();
    const std::uint64_t before = outer.counter("runctx.test.marker").value();
    {
        RunContext context;
        EXPECT_NE(&Registry::instance(), &outer);
        EXPECT_EQ(&Registry::instance(), &context.registry());
        EXPECT_EQ(&Tracer::instance(), &context.tracer());
        EXPECT_EQ(&util::LogConfig::instance(), &context.logConfig());
        Registry::instance().counter("runctx.test.marker").inc();
        EXPECT_EQ(Registry::instance().counter("runctx.test.marker").value(), 1u);
    }
    EXPECT_EQ(&Registry::instance(), &outer);
    EXPECT_EQ(&Tracer::instance(), &outerTracer);
    // The context's counter died with it; the outer one never moved.
    EXPECT_EQ(outer.counter("runctx.test.marker").value(), before);
}

TEST(RunContext, ScopesNest) {
    Registry& outer = Registry::instance();
    RunContext first;
    Registry& firstRegistry = Registry::instance();
    {
        RunContext second;
        EXPECT_NE(&Registry::instance(), &firstRegistry);
        EXPECT_EQ(&Registry::instance(), &second.registry());
    }
    EXPECT_EQ(&Registry::instance(), &firstRegistry);
    EXPECT_NE(&firstRegistry, &outer);
}

TEST(RunContext, ThreadsAreIsolated) {
    // Two workers bump the SAME metric name in their own contexts —
    // each must see exactly its own increments. This is the property
    // that lets SweepRunner run sweep points concurrently without any
    // call-site changes.
    constexpr int kIncrements = 10000;
    std::uint64_t observed[2] = {0, 0};
    std::vector<std::thread> workers;
    workers.reserve(2);
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([w, &observed] {
            RunContext context{std::uint64_t(w)};
            auto& counter = Registry::instance().counter("runctx.test.shared_name");
            for (int i = 0; i < kIncrements; ++i) counter.inc();
            observed[w] = counter.value();
        });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(observed[0], std::uint64_t(kIncrements));
    EXPECT_EQ(observed[1], std::uint64_t(kIncrements));
}

TEST(RunContext, SeedDeterminesRngSequence) {
    std::vector<double> first;
    std::vector<double> second;
    {
        RunContext context(1234);
        EXPECT_EQ(context.seed(), 1234u);
        for (int i = 0; i < 5; ++i) first.push_back(context.rng().uniform01());
    }
    {
        RunContext context(1234);
        for (int i = 0; i < 5; ++i) second.push_back(context.rng().uniform01());
    }
    EXPECT_EQ(first, second);
    {
        RunContext context(1235);
        EXPECT_NE(context.rng().uniform01(), first[0]);
    }
}

TEST(RunContext, InheritsLogLevelFromEnclosingConfig) {
    const util::LogLevel saved = util::LogConfig::instance().level();
    util::LogConfig::instance().setLevel(util::LogLevel::debug);
    {
        RunContext context;
        // A driver's --verbose applies inside workers…
        EXPECT_EQ(util::LogConfig::instance().level(), util::LogLevel::debug);
        // …but a level change inside the context stays inside it.
        util::LogConfig::instance().setLevel(util::LogLevel::error);
    }
    EXPECT_EQ(util::LogConfig::instance().level(), util::LogLevel::debug);
    util::LogConfig::instance().setLevel(saved);
}

}  // namespace
}  // namespace onelab::obs
