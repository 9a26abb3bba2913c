#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/experiment.hpp"

namespace onelab::obs {
namespace {

std::string readFile(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

std::size_t countOccurrences(const std::string& haystack, const std::string& needle) {
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/// Registry/tracer are process-wide; leave them quiet for later tests.
struct TelemetryTest : ::testing::Test {
    void TearDown() override {
        Tracer::instance().setEnabled(false);
        Tracer::instance().setClock(nullptr);
        Tracer::instance().clear();
    }
    std::filesystem::path tempDir(const std::string& leaf) const {
        return std::filesystem::path{::testing::TempDir()} / leaf;
    }
};

TEST_F(TelemetryTest, WriteTelemetryCreatesDirectoryAndFiles) {
    const auto dir = tempDir("obs-plain");
    std::filesystem::remove_all(dir);
    beginRun();
    Registry::instance().counter("telemetry.test.events").inc(3);
    Tracer::instance().instant("test", "hello");
    const auto written = writeTelemetry(dir.string());
    ASSERT_TRUE(written.ok()) << written.error().message;
    EXPECT_NE(readFile(dir / kMetricsFile).find("telemetry.test.events"),
              std::string::npos);
    EXPECT_NE(readFile(dir / kTraceFile).find("\"name\":\"hello\""), std::string::npos);
}

TEST_F(TelemetryTest, WriteTelemetryFailsOnUnwritableTarget) {
    // A path whose parent is a regular file cannot be created.
    const auto file = tempDir("obs-blocker");
    std::ofstream{file} << "x";
    const auto written = writeTelemetry((file / "sub").string());
    EXPECT_FALSE(written.ok());
}

/// The Fig. 4 regression: a full CBR run must emit exactly one
/// umts.bearer.upgrade trace event (the ~50 s knee) and populate the
/// umts.bearer.* and ditg.flow.* metrics.
TEST_F(TelemetryTest, CbrRunEmitsUpgradeEventAndMetrics) {
    const auto dir = tempDir("obs-cbr");
    std::filesystem::remove_all(dir);
    scenario::ExperimentOptions options;
    options.workload = scenario::Workload::cbr_1mbps;
    options.durationSeconds = 120.0;
    options.seed = 42;
    options.telemetryDir = dir.string();
    const auto result = scenario::runExperiment(options);
    ASSERT_EQ(result.umts.bearerUpgrades, 1);

    const std::string metrics = readFile(dir / kMetricsFile);
    ASSERT_FALSE(metrics.empty());
    // Exactly the one upgrade the knee produces, mirrored in the
    // (per-IMSI) counter...
    EXPECT_NE(metrics.find("\"name\":\"umts.bearer.222880000000001.upgrades\","
                           "\"type\":\"counter\",\"value\":1"),
              std::string::npos);
    // ...and non-zero datapath metrics on both layers.
    EXPECT_EQ(metrics.find("\"name\":\"ditg.flow.packets_sent\",\"type\":\"counter\","
                           "\"value\":0"),
              std::string::npos);
    EXPECT_NE(metrics.find("\"name\":\"ditg.flow.packets_sent\""), std::string::npos);
    EXPECT_NE(metrics.find("\"name\":\"ditg.flow.rtt_us\""), std::string::npos);
    EXPECT_GT(Registry::instance().counter("ditg.flow.packets_sent").value(), 0u);
    EXPECT_GT(
        Registry::instance().counter("umts.bearer.222880000000001.ul.chunks_delivered").value(),
        0u);
    EXPECT_GT(Registry::instance().histogram("ditg.flow.rtt_us").count(), 0u);

    const std::string trace = readFile(dir / kTraceFile);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(countOccurrences(trace, "\"name\":\"umts.bearer.upgrade\""), 1u);
    // The wait for the operator's grant is visible as a span.
    EXPECT_NE(trace.find("\"name\":\"grant_wait\",\"cat\":\"umts.bearer\",\"ph\":\"B\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"grant_wait\",\"cat\":\"umts.bearer\",\"ph\":\"E\""),
              std::string::npos);
    // The UMTS path traces on lane 1. The Ethernet path (lane 2) has no
    // modem, PPP or bearer: its only trace events were the per-packet
    // D-ITG instants, so its lane is now empty.
    EXPECT_NE(trace.find("\"tid\":1"), std::string::npos);
    EXPECT_EQ(trace.find("\"tid\":2"), std::string::npos);
    // Per-packet happenings live in counters, not the trace: what is
    // left is the control-plane history (82 events for this seed).
    EXPECT_EQ(trace.find("\"cat\":\"ditg\""), std::string::npos);
    EXPECT_EQ(trace.find("\"cat\":\"umts.rlc\""), std::string::npos);
    EXPECT_LE(countOccurrences(trace, "\"ph\":"), 300u);
}

TEST_F(TelemetryTest, SameSeedRunsProduceByteIdenticalTelemetry) {
    const auto dirA = tempDir("obs-run-a");
    const auto dirB = tempDir("obs-run-b");
    std::filesystem::remove_all(dirA);
    std::filesystem::remove_all(dirB);
    scenario::ExperimentOptions options;
    options.workload = scenario::Workload::voip_g711;
    options.durationSeconds = 30.0;
    options.seed = 7;
    options.telemetryDir = dirA.string();
    (void)scenario::runExperiment(options);
    options.telemetryDir = dirB.string();
    (void)scenario::runExperiment(options);

    const std::string metricsA = readFile(dirA / kMetricsFile);
    ASSERT_FALSE(metricsA.empty());
    EXPECT_EQ(metricsA, readFile(dirB / kMetricsFile));
    const std::string traceA = readFile(dirA / kTraceFile);
    ASSERT_FALSE(traceA.empty());
    EXPECT_EQ(traceA, readFile(dirB / kTraceFile));
}

TEST_F(TelemetryTest, TelemetryOffLeavesTracerDisabled) {
    Tracer::instance().clear();
    scenario::ExperimentOptions options;
    options.workload = scenario::Workload::voip_g711;
    options.durationSeconds = 5.0;
    (void)scenario::runExperiment(options);
    EXPECT_FALSE(Tracer::instance().enabled());
    // Nothing was traced (spans and logs still reach the black box).
    EXPECT_EQ(Tracer::instance().exportChromeJson(), "{\"traceEvents\":[]}\n");
}

}  // namespace
}  // namespace onelab::obs
