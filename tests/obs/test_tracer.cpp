// obs::Tracer, the run's one event recorder. TracerTest pins the
// trace.json side (tracing switch, clock, Chrome shape, lanes, ring
// wrap); FlightRecorder pins the black-box side (record layout,
// truncation, the flight.json window and dump-once contract, the
// fatal-signal dump) and how spans recorded with tracing off reach
// flight.json but not trace.json.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/registry.hpp"
#include "util/json.hpp"

namespace onelab::obs {
namespace {

constexpr const char* kEmptyTrace = "{\"traceEvents\":[]}\n";

util::JsonValue parsedJson(const std::string& text) {
    auto doc = util::JsonValue::parse(text);
    EXPECT_TRUE(doc.ok()) << doc.error().message;
    return doc.ok() ? std::move(doc).take() : util::JsonValue{};
}

TEST(TracerTest, DisabledRecordsNothing) {
    Tracer tracer;
    tracer.instant("cat", "nope");
    tracer.begin("cat", "nope");
    tracer.end("cat", "nope");
    // The instant is gone; the span is kept for flight.json only.
    EXPECT_EQ(tracer.size(), 2u);
    EXPECT_EQ(tracer.exportChromeJson(), kEmptyTrace);
}

TEST(TracerTest, ClockStampsSimTime) {
    Tracer tracer;
    tracer.setEnabled(true);
    std::int64_t now = 5'000'000;
    tracer.setClock([&now] { return now; });
    tracer.instant("cat", "a");
    now = 7'000'000;
    tracer.instant("cat", "b");
    const auto records = tracer.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].timeNs, 5'000'000);
    EXPECT_EQ(records[1].timeNs, 7'000'000);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
    Tracer tracer;
    tracer.setEnabled(true);
    for (std::size_t i = 0; i < Tracer::kCapacity + 2; ++i)
        tracer.instant("cat", std::to_string(i));
    EXPECT_EQ(tracer.size(), Tracer::kCapacity);
    EXPECT_EQ(tracer.dropped(), 2u);
    const auto records = tracer.records();  // oldest first
    ASSERT_EQ(records.size(), Tracer::kCapacity);
    EXPECT_EQ(records.front().nameView(), "2");
    EXPECT_EQ(records.back().nameView(), std::to_string(Tracer::kCapacity + 1));
    // trace.json follows the ring: the overwritten instants are gone.
    const util::JsonValue trace = parsedJson(tracer.exportChromeJson());
    const auto& events = trace.find("traceEvents")->array();
    ASSERT_EQ(events.size(), Tracer::kCapacity);
    EXPECT_EQ(events.front().stringOr("name", ""), "2");
}

TEST(TracerTest, ChromeJsonShape) {
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.setClock([] { return std::int64_t(1'234'000); });
    tracer.setLane(2);
    tracer.begin("umts.bearer", "grant_wait");
    tracer.instant("umts.bearer", "upgrade", "64 -> 384 kbps");
    tracer.end("umts.bearer", "grant_wait");
    const std::string json = tracer.exportChromeJson();
    EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"g\""), std::string::npos);  // global instant
    EXPECT_NE(json.find("\"ts\":1234.000"), std::string::npos);  // us, 3 decimals
    EXPECT_NE(json.find("\"pid\":1,\"tid\":2"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"detail\":\"64 -> 384 kbps\"}"), std::string::npos);
}

TEST(TracerTest, JsonStringsAreEscaped) {
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.instant("cat", "quote\"back\\slash", "line\nbreak");
    const std::string json = tracer.exportChromeJson();
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
    EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

TEST(TracerTest, IdenticalSequencesExportIdenticalJson) {
    const auto run = [] {
        Tracer tracer;
        tracer.setEnabled(true);
        std::int64_t now = 0;
        tracer.setClock([&now] { return now; });
        for (int i = 0; i < 50; ++i) {
            now += 1'000'000;
            tracer.begin("cat", "op" + std::to_string(i));
            tracer.instant("cat", "tick", "i=" + std::to_string(i));
            tracer.end("cat", "op" + std::to_string(i));
        }
        return tracer.exportChromeJson() + tracer.exportFlightJson("replay");
    };
    EXPECT_EQ(run(), run());
}

TEST(TracerTest, ClearDropsEventsKeepsConfiguration) {
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.setClock([] { return std::int64_t(42); });
    tracer.instant("cat", "x");
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    tracer.instant("cat", "y");  // clock and tracing survive the clear
    ASSERT_EQ(tracer.size(), 1u);
    EXPECT_EQ(tracer.records()[0].timeNs, 42);
}

TEST(TracerTest, SpanRecordsBeginEndPair) {
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.setClock([] { return std::int64_t(1'000); });
    tracer.begin("modem.at", "ATD*99#", "dial");
    tracer.instant("modem.at", "final", "CONNECT");
    tracer.end("modem.at", "ATD*99#");
    const auto records = tracer.records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].kind, RecordKind::span_begin);
    EXPECT_EQ(records[0].nameView(), "ATD*99#");
    EXPECT_EQ(records[0].detailView(), "dial");
    EXPECT_EQ(records[1].kind, RecordKind::instant);
    EXPECT_EQ(records[2].kind, RecordKind::span_end);
    EXPECT_EQ(records[2].nameView(), "ATD*99#");
    for (const TraceRecord& record : records) EXPECT_TRUE(record.traced);
}

TEST(TracerTest, ThreadLaneIsStamped) {
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.instant("cat", "lane1");
    tracer.setLane(2);
    tracer.instant("cat", "lane2");
    const auto records = tracer.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].lane, 1);
    EXPECT_EQ(records[1].lane, 2);
}

TEST(TracerTest, SpanWithTracingOffReachesFlightButNotTrace) {
    Tracer tracer;
    tracer.begin("umts.bearer", "grant_wait", "grant at t=50.0s");
    tracer.end("umts.bearer", "grant_wait");
    EXPECT_EQ(tracer.exportChromeJson(), kEmptyTrace);
    const util::JsonValue flight = parsedJson(tracer.exportFlightJson("untraced"));
    const auto& entries = flight.find("entries")->array();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].stringOr("kind", ""), "span_begin");
    EXPECT_EQ(entries[0].stringOr("detail", ""), "grant at t=50.0s");
    EXPECT_EQ(entries[1].stringOr("kind", ""), "span_end");
    EXPECT_EQ(entries[1].stringOr("name", ""), "grant_wait");
}

TEST(TracerTest, TransitionIsAlwaysKeptAndTracedOnlyWhileTracing) {
    Tracer tracer;
    tracer.transition("supervise", "ue1", "healthy -> recovering");
    tracer.setEnabled(true);
    tracer.transition("supervise", "ue1", "recovering -> healthy");
    tracer.note(RecordKind::log, "WARN", "pppd", "not a trace event");
    // One record per edge serves both documents: the traced edge is a
    // global instant in trace.json...
    const util::JsonValue trace = parsedJson(tracer.exportChromeJson());
    const auto& events = trace.find("traceEvents")->array();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].stringOr("ph", ""), "i");
    EXPECT_EQ(events[0].stringOr("name", ""), "ue1");
    EXPECT_EQ(events[0].find("args")->stringOr("detail", ""), "recovering -> healthy");
    // ...and both edges are transitions in flight.json.
    const util::JsonValue flight = parsedJson(tracer.exportFlightJson("edges"));
    const auto& entries = flight.find("entries")->array();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].stringOr("kind", ""), "transition");
    EXPECT_EQ(entries[1].stringOr("kind", ""), "transition");
    EXPECT_EQ(entries[2].stringOr("kind", ""), "log");
}

TEST(FlightRecorder, CapacityAndEntryLayoutArePinned) {
    // The budget: fixed-size records, text truncated into inline
    // fields so recording never allocates once the ring has grown;
    // flight.json holds the newest 4096. Changing any of these changes
    // the resident footprint and what a dump can hold — do it
    // deliberately.
    EXPECT_EQ(Tracer::kFlightRecords, 4096u);
    EXPECT_EQ(Tracer::kCapacity, 65536u);
    EXPECT_EQ(TraceRecord::kCategoryBytes, 24u);
    EXPECT_EQ(TraceRecord::kNameBytes, 48u);
    EXPECT_EQ(TraceRecord::kDetailBytes, 104u);
    EXPECT_EQ(sizeof(TraceRecord), 200u);
    Tracer recorder;
    EXPECT_FALSE(recorder.enabled()) << "tracing is off by default";
    recorder.begin("test", "span");
    EXPECT_EQ(recorder.size(), 1u) << "the black box must be on by default";
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestEntries) {
    Tracer recorder;
    const std::size_t total = Tracer::kCapacity + 12;
    for (std::size_t i = 0; i < total; ++i)
        recorder.note(RecordKind::event, "test", "entry", "", std::int64_t(i));
    EXPECT_EQ(recorder.size(), Tracer::kCapacity);
    EXPECT_EQ(recorder.dropped(), 12u);
    EXPECT_EQ(recorder.recorded(), total);
    const std::vector<TraceRecord> records = recorder.records();
    ASSERT_EQ(records.size(), Tracer::kCapacity);
    // Oldest first: values 12.. survive.
    for (std::size_t i = 0; i < records.size(); ++i)
        ASSERT_EQ(records[i].value, std::int64_t(12 + i));
    // flight.json is the newest kFlightRecords of them.
    const util::JsonValue flight = parsedJson(recorder.exportFlightJson("wrap"));
    const auto& entries = flight.find("entries")->array();
    ASSERT_EQ(entries.size(), Tracer::kFlightRecords);
    EXPECT_DOUBLE_EQ(flight.numberOr("dropped", -1.0), double(total - Tracer::kFlightRecords));
    EXPECT_DOUBLE_EQ(entries.front().numberOr("value", -1.0),
                     double(total - Tracer::kFlightRecords));
    EXPECT_DOUBLE_EQ(entries.back().numberOr("value", -1.0), double(total - 1));
}

TEST(FlightRecorder, TruncatesTextIntoInlineFieldsWithoutAllocating) {
    Tracer recorder;
    const std::string longText(300, 'x');
    recorder.note(RecordKind::log, longText, longText, longText);
    const TraceRecord record = recorder.records().at(0);
    EXPECT_EQ(record.categoryView().size(), TraceRecord::kCategoryBytes - 1);
    EXPECT_EQ(record.nameView().size(), TraceRecord::kNameBytes - 1);
    EXPECT_EQ(record.detailView().size(), TraceRecord::kDetailBytes - 1);
    EXPECT_EQ(record.categoryView(), std::string(TraceRecord::kCategoryBytes - 1, 'x'));
}

TEST(FlightRecorder, ExportJsonParsesAndCarriesClockedEntries) {
    Tracer recorder;
    std::int64_t simNowNs = 0;
    recorder.setClock([&simNowNs] { return simNowNs; });
    simNowNs = 1500000;
    recorder.transition("supervise", "222880000000001", "healthy -> recovering");
    simNowNs = 2000000;
    recorder.note(RecordKind::metric, "metric", "fault.injected", {}, 3);

    const auto doc = util::JsonValue::parse(recorder.exportFlightJson("unit test"));
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_EQ(doc.value().stringOr("reason", ""), "unit test");
    EXPECT_DOUBLE_EQ(doc.value().numberOr("dropped", -1.0), 0.0);
    const util::JsonValue* entries = doc.value().find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->array().size(), 2u);
    const util::JsonValue& first = entries->array()[0];
    EXPECT_EQ(first.stringOr("kind", ""), "transition");
    EXPECT_DOUBLE_EQ(first.numberOr("t_ns", 0.0), 1500000.0);
    EXPECT_EQ(first.stringOr("cat", ""), "supervise");
    EXPECT_EQ(first.stringOr("detail", ""), "healthy -> recovering");
    const util::JsonValue& second = entries->array()[1];
    EXPECT_EQ(second.stringOr("kind", ""), "metric");
    EXPECT_DOUBLE_EQ(second.numberOr("value", 0.0), 3.0);
}

TEST(FlightRecorder, RequestDumpFiresOncePerRun) {
    Tracer recorder;
    recorder.note(RecordKind::event, "test", "breach");
    const std::string path = testing::TempDir() + "onelab_flight_once.json";
    std::remove(path.c_str());

    recorder.requestDump("before a path is set: silent no-op");
    EXPECT_EQ(recorder.dumps(), 0u);

    recorder.setDumpPath(path);
    recorder.requestDump("first breach");
    recorder.requestDump("second breach (same run)");
    EXPECT_EQ(recorder.dumps(), 1u) << "repeat triggers must not re-write the dump";

    const auto doc = util::JsonValue::parseFile(path);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_EQ(doc.value().stringOr("reason", ""), "first breach");

    // clear() re-arms the dump for the next run on the same recorder.
    recorder.clear();
    recorder.setDumpPath(path);
    recorder.note(RecordKind::event, "test", "breach2");
    recorder.requestDump("next run");
    EXPECT_EQ(recorder.dumps(), 1u);  // clear() zeroed the counter too
    const auto next = util::JsonValue::parseFile(path);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.value().stringOr("reason", ""), "next run");
    std::remove(path.c_str());
}

TEST(FlightRecorder, SyncMetricsDeltaSyncsIntoRegistry) {
    Tracer recorder;
    Registry registry;
    registerFlightAndProfileMetricFamilies(registry);
    for (std::size_t i = 0; i < Tracer::kCapacity + 3; ++i)
        recorder.note(RecordKind::event, "test", "n");
    recorder.syncMetrics(registry);
    EXPECT_EQ(registry.counter("recorder.entries").value(), Tracer::kCapacity + 3);
    EXPECT_EQ(registry.counter("recorder.dropped").value(), 3u);
    EXPECT_EQ(registry.gauge("recorder.buffered").value(), std::int64_t(Tracer::kCapacity));
    // Re-syncing the same state must not double-count.
    recorder.syncMetrics(registry);
    EXPECT_EQ(registry.counter("recorder.entries").value(), Tracer::kCapacity + 3);
}

using FlightRecorderDeathTest = ::testing::Test;

TEST(FlightRecorderDeathTest, FatalSignalDumpsTheBlackBox) {
    const std::string path = testing::TempDir() + "onelab_flight_crash.json";
    std::remove(path.c_str());
    installCrashDump();
    Tracer& recorder = Tracer::instance();
    recorder.clear();
    recorder.setDumpPath(path);
    recorder.note(RecordKind::event, "test", "about_to_crash", "last words");

    // The death-test child inherits the recorder and the signal
    // handlers; its abort must leave flight.json behind for the
    // parent to read.
    EXPECT_DEATH(std::abort(), "");

    const auto doc = util::JsonValue::parseFile(path);
    ASSERT_TRUE(doc.ok()) << "crash dump missing or unreadable: " << doc.error().message;
    EXPECT_NE(doc.value().stringOr("reason", "").find("fatal signal"), std::string::npos);
    const util::JsonValue* entries = doc.value().find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->array().size(), 1u);
    EXPECT_EQ(entries->array()[0].stringOr("name", ""), "about_to_crash");
    std::remove(path.c_str());
    recorder.setDumpPath("");
    recorder.clear();
}

}  // namespace
}  // namespace onelab::obs
