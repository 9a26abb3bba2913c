// obsq golden-output tests: the query formatters are run over the
// committed fixture documents in tests/data/obsq/ and compared byte
// for byte against the committed golden renderings. A formatting
// change is fine — but it must be deliberate: regenerate with
//   OBSQ_REGEN=1 ./test_obs --gtest_filter='ObsqGolden.*'
// and review the golden diff like any other output change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/query.hpp"
#include "util/json.hpp"

#ifndef OBSQ_FIXTURE_DIR
#error "OBSQ_FIXTURE_DIR must point at tests/data/obsq"
#endif

namespace onelab::obs::query {
namespace {

util::JsonValue fixture(const std::string& name) {
    auto doc = util::JsonValue::parseFile(std::string(OBSQ_FIXTURE_DIR) + "/" + name);
    EXPECT_TRUE(doc.ok()) << name << ": " << doc.error().message;
    return doc.ok() ? std::move(doc).take() : util::JsonValue{};
}

/// Compare `actual` against the committed golden file, or rewrite the
/// golden when OBSQ_REGEN is set in the environment.
void expectGolden(const std::string& goldenName, const std::string& actual) {
    const std::string path = std::string(OBSQ_FIXTURE_DIR) + "/" + goldenName;
    if (std::getenv("OBSQ_REGEN")) {
        std::ofstream out{path, std::ios::trunc | std::ios::binary};
        out << actual;
        ASSERT_TRUE(bool(out)) << "cannot regenerate " << path;
        return;
    }
    std::ifstream in{path, std::ios::binary};
    ASSERT_TRUE(bool(in)) << "missing golden " << path
                          << " (regenerate with OBSQ_REGEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str()) << "output drifted from " << goldenName;
}

TEST(ObsqGolden, FlightDefaultView) {
    expectGolden("golden_flight.txt", formatFlight(fixture("flight.json"), Filter{}));
}

TEST(ObsqGolden, FlightFaultEventsOnly) {
    Filter filter;
    filter.kind = "event";
    filter.category = "fault";
    expectGolden("golden_flight_faults.txt",
                 formatFlight(fixture("flight.json"), filter));
}

TEST(ObsqGolden, FlightTailWindow) {
    Filter filter;
    filter.fromSeconds = 60.0;  // the second incident only
    filter.tail = 3;
    expectGolden("golden_flight_tail.txt", formatFlight(fixture("flight.json"), filter));
}

TEST(ObsqGolden, TraceDefaultView) {
    expectGolden("golden_trace.txt", formatTrace(fixture("trace.json"), Filter{}));
}

TEST(ObsqGolden, MetricsSupervisePrefix) {
    Filter filter;
    filter.name = "supervise.";
    expectGolden("golden_metrics_supervise.txt",
                 formatMetrics(fixture("metrics.json"), filter));
}

TEST(ObsqGolden, TopSelfFromTraceSpans) {
    expectGolden("golden_top.txt", formatTopSelf(fixture("trace.json"), 5));
}

TEST(ObsqGolden, DiffOfARunAgainstItselfIsClean) {
    const util::JsonValue trace = fixture("trace.json");
    const util::JsonValue metrics = fixture("metrics.json");
    const std::string out = formatDiff(&trace, &trace, &metrics, &metrics);
    EXPECT_NE(out.find("timelines identical"), std::string::npos) << out;
    EXPECT_NE(out.find("metrics: 0 differ"), std::string::npos) << out;
}

TEST(ObsqGolden, MergeAssignsOneLanePerInput) {
    const util::JsonValue trace = fixture("trace.json");
    const auto merged = util::JsonValue::parse(mergeTraces({trace, trace}));
    ASSERT_TRUE(merged.ok()) << merged.error().message;
    const util::JsonValue* events = merged.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array().size(), 10u);
    EXPECT_DOUBLE_EQ(events->array().front().numberOr("tid", 0.0), 1.0);
    EXPECT_DOUBLE_EQ(events->array().back().numberOr("tid", 0.0), 2.0);
}

TEST(ObsqGolden, SelfCheckPasses) {
    EXPECT_EQ(selfCheck(), std::string{});
}

}  // namespace
}  // namespace onelab::obs::query
