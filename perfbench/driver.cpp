// Benchmark driver: runs one workload of the repository benchmark
// through the libraries' public entry points and writes its raw
// measurements as JSON. run.py builds this program, runs it once per
// benchmark run in a fresh process and turns the JSON into metrics.
//
//   paper_figs       the paper's §3 experiment (scenario::runPath):
//                    VoIP and CBR, each over UMTS and over Ethernet;
//   fleet_soak       32 UEs on one cell under a seeded fault plan,
//                    supervised recovery, CBR/TCP waves, full export;
//   adversary_sweep  the five adversary personalities, guards off and
//                    on, one fresh fleet per cell.
//
// usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                         --out DIR [--spawn-ns T] [--setup-only]
//        perfbench_driver --build-info
//
// Repetitions run until the time budget would be exceeded. Each
// repetition has its own seed derived from --seed (paper_figs always
// starts with the paper seed 42, whose fig CSVs run.py compares with
// the golden digests). With --trace 1, repetitions come in pairs on
// the same seed: one untraced, one traced. The traced one enables the
// program's obs::Profiler and records a span around every public call
// the driver makes. --setup-only builds the first repetition's worlds
// and exits, reporting the time from --spawn-ns to that point.
// --build-info prints the build type, flags and compiler.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/adversary.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "figure_common.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "perfbench_build.hpp"
#include "ppp/lcp.hpp"
#include "scenario/experiment.hpp"
#include "scenario/fleet.hpp"

using namespace onelab;

namespace {

std::int64_t monoNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double seconds(std::int64_t ns) { return double(ns) / 1e9; }

/// splitmix64 of (seed, index), folded into [1, 2^31): the seed of
/// repetition `index`.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t index) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return 1 + z % 2147483647ull;
}

std::string jsonString(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/// Fixed work timed at call boundaries: heap churn, a pointer chase
/// through 1 MiB and a strided read-modify-write over 2 MiB, like the
/// simulator's event queue, its node-based tables (the firewall's flow
/// map) and its packet buffers. Contention from other tenants of the
/// host slows this kernel and the simulator alike, so each stretch of
/// window time is scaled by the kernel's slowdown around it (see
/// Context).
volatile std::uint64_t referenceSink = 0;

/// A single random cycle through `size` slots: chasing it visits
/// every slot in an order the prefetcher cannot follow.
std::vector<std::uint32_t> randomCycle(std::size_t size) {
    std::vector<std::uint32_t> order(size);
    for (std::size_t i = 0; i < size; ++i) order[i] = std::uint32_t(i);
    std::uint64_t y = 0x2545f4914f6cdd1dull;
    for (std::size_t i = size - 1; i > 0; --i) {
        y = y * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(order[i], order[(y >> 33) % (i + 1)]);
    }
    std::vector<std::uint32_t> next(size);
    for (std::size_t i = 0; i < size; ++i) next[order[i]] = order[(i + 1) % size];
    return next;
}

double referenceKernelSeconds() {
    static std::vector<std::uint64_t> heap;
    static std::vector<std::uint64_t> buffer(std::size_t(1) << 18);
    static const std::vector<std::uint32_t> cycle = randomCycle(std::size_t(1) << 18);
    const std::int64_t start = monoNs();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 11;
    };
    heap.clear();
    for (int i = 0; i < 32768; ++i) {
        heap.push_back(next());
        std::push_heap(heap.begin(), heap.end());
    }
    for (int i = 0; i < 65536; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = next();
        std::push_heap(heap.begin(), heap.end());
    }
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < cycle.size() / 2; ++i) at = cycle[at];
    for (int pass = 0; pass < 2; ++pass)
        for (std::size_t i = 0; i < buffer.size(); ++i) {
            x ^= buffer[(i * 7919) & (buffer.size() - 1)] + i;
            buffer[i] = x;
        }
    referenceSink = referenceSink + heap.front() + x + at;
    return seconds(monoNs() - start);
}

std::uint64_t fileBytes(const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : std::uint64_t(size);
}

// ---------------------------------------------------------------------------
// Meter: monotonic readings across obs::beginRun() resets.

/// Registry counters the driver reports. Every world starts with
/// obs::beginRun(), which zeroes the registry and the profiler, so the
/// meter folds the live values into running totals before each reset.
constexpr const char* kCounters[] = {
    "sim.events_executed",       "sim.pool.buffers_allocated", "sim.pool.buffers_reused",
    "umts.cell.denied_upgrades", "guard.firewall.evicted",     "net.queue.dropped",
    "modem.at.commands",         "fleet.start_failures",       "recovery.redial.attempts",
    "supervise.ladder.redial",   "supervise.incidents",
};
constexpr std::size_t kCounterCount = std::size(kCounters);
constexpr std::size_t kEventsCounter = 0;
constexpr std::size_t kStartFailuresCounter = 7;
static_assert(std::string_view(kCounters[kEventsCounter]) == "sim.events_executed");
static_assert(std::string_view(kCounters[kStartFailuresCounter]) == "fleet.start_failures");

/// Counter values and profiler self time / scope counts per category.
struct Totals {
    std::array<std::uint64_t, kCounterCount> counters{};
    std::array<std::int64_t, obs::kProfileCategoryCount> selfNs{};
    std::array<std::uint64_t, obs::kProfileCategoryCount> scopes{};

    /// Add the difference `after - before`.
    void addDelta(const Totals& after, const Totals& before) {
        for (std::size_t i = 0; i < kCounterCount; ++i)
            counters[i] += after.counters[i] - before.counters[i];
        for (std::size_t c = 0; c < obs::kProfileCategoryCount; ++c) {
            selfNs[c] += after.selfNs[c] - before.selfNs[c];
            scopes[c] += after.scopes[c] - before.scopes[c];
        }
    }
};

class Meter {
  public:
    /// Fold, then arm telemetry for a fresh world.
    void beginWorld(bool profile) {
        fold();
        obs::beginRun();
        obs::Profiler::instance().setEnabled(profile);
    }
    /// Move the live values into the totals and zero them.
    void fold() {
        obs::Registry& registry = obs::Registry::instance();
        for (std::size_t i = 0; i < kCounterCount; ++i)
            folded_.counters[i] += registry.counter(kCounters[i]).value();
        obs::Profiler& profiler = obs::Profiler::instance();
        for (std::size_t c = 0; c < obs::kProfileCategoryCount; ++c) {
            const auto category = obs::ProfileCategory(c);
            folded_.selfNs[c] += profiler.selfNs(category);
            folded_.scopes[c] += profiler.scopeCount(category);
        }
        registry.reset();
        profiler.reset();
    }
    /// Totals up to the last fold.
    [[nodiscard]] const Totals& folded() const noexcept { return folded_; }
    [[nodiscard]] std::uint64_t counter(std::size_t index) const {
        return folded_.counters[index] +
               obs::Registry::instance().counter(kCounters[index]).value();
    }
    [[nodiscard]] std::int64_t profiledNs() const {
        std::int64_t total = 0;
        const obs::Profiler& profiler = obs::Profiler::instance();
        for (std::size_t c = 0; c < obs::kProfileCategoryCount; ++c)
            total += folded_.selfNs[c] + profiler.selfNs(obs::ProfileCategory(c));
        return total;
    }

  private:
    Totals folded_;
};

// ---------------------------------------------------------------------------
// Spans recorded by the driver around its own calls into the program.

struct Span {
    std::string name;
    int parent = -1;
    std::int64_t t0 = 0, t1 = 0;
    std::uint64_t ev0 = 0, ev1 = 0;
    std::int64_t prof0 = 0, prof1 = 0;
    double sim0 = -1.0, sim1 = -1.0;  ///< -1: no fleet simulator to read
};

/// Reference samples at most this often inside an untraced repetition.
constexpr std::int64_t kSampleEveryNs = 500'000'000;
/// Longest advance of simulated time between two call boundaries, so
/// that long advances are cut into segments the samples can follow.
constexpr double kAdvanceChunkS = 1.0;

/// Everything one process measures, shared by the workloads.
struct Context {
    std::string workload;
    std::string outDir;
    std::int64_t originNs = 0;
    Meter meter;
    Totals traced;  ///< counters and profile of the traced repetitions

    bool tracing = false;  ///< the current repetition is traced
    std::vector<Span> spans;
    std::vector<int> openSpans;
    scenario::Fleet* fleet = nullptr;  ///< the current world, if it is a fleet

    // The window of a world runs from its first simulated event to its
    // last artifact. Reference samples cut window time into segments;
    // each segment is divided by the mean of the samples at its ends.
    // Kernel time itself is outside every window.
    std::vector<double> referenceS;  ///< samples of the current repetition
    double lastReferenceS = 0.0;
    std::int64_t lastSampleNs = 0;
    bool inWindow = false;
    std::int64_t segmentStartNs = 0;
    double segmentS = 0.0;            ///< window time since the last sample
    double windowS = 0.0;             ///< window time of the current repetition
    double windowPerReference = 0.0;  ///< sum over segments of segment / reference

    // Repetition accounting.
    std::size_t ops = 0;
    std::size_t failedOps = 0;
    std::vector<std::string> failures;

    // Layer observations from traced repetitions.
    std::uint64_t tcpRetransmissions = 0;
    std::uint64_t tcpTimeouts = 0;
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsReceived = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t metricsBytes = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsSkipped = 0;
    std::uint64_t startFailures = 0;
    std::size_t firewallFlowsPeak = 0;

    void op(bool ok, const std::string& what) {
        ++ops;
        if (ok) return;
        ++failedOps;
        if (failures.size() < 20) failures.push_back(workload + ": " + what);
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }

    double simNow() const { return fleet ? sim::toSeconds(fleet->now()) : -1.0; }

    void accrueWindow() {
        if (!inWindow) return;
        const std::int64_t now = monoNs();
        segmentS += seconds(now - segmentStartNs);
        windowS += seconds(now - segmentStartNs);
        segmentStartNs = now;
    }
    void beginWindow() {
        inWindow = true;
        segmentStartNs = monoNs();
    }
    void endWindow() {
        accrueWindow();
        inWindow = false;
    }
    void sampleReference() {
        accrueWindow();
        const double reference = referenceKernelSeconds();
        if (lastReferenceS > 0.0)
            windowPerReference += 2.0 * segmentS / (lastReferenceS + reference);
        segmentS = 0.0;
        lastReferenceS = reference;
        referenceS.push_back(reference);
        lastSampleNs = segmentStartNs = monoNs();
    }
    /// Called at every public call boundary.
    void boundary() {
        if (!tracing && monoNs() - lastSampleNs >= kSampleEveryNs) sampleReference();
    }

    int open(const std::string& name) {
        boundary();
        if (!tracing) return -1;
        Span span;
        span.name = name;
        span.parent = openSpans.empty() ? -1 : openSpans.back();
        span.sim0 = simNow();
        span.ev0 = meter.counter(kEventsCounter);
        span.prof0 = meter.profiledNs();
        span.t0 = monoNs() - originNs;
        spans.push_back(std::move(span));
        openSpans.push_back(int(spans.size()) - 1);
        return openSpans.back();
    }
    void close(int index) {
        if (index < 0) return;
        const std::int64_t t1 = monoNs() - originNs;
        Span& span = spans[std::size_t(index)];
        span.t1 = t1;
        span.ev1 = meter.counter(kEventsCounter);
        span.prof1 = meter.profiledNs();
        span.sim1 = simNow();
        if (fleet)
            firewallFlowsPeak =
                std::max(firewallFlowsPeak, fleet->operatorNetwork().firewallFlowCount());
        openSpans.pop_back();
    }
};

/// RAII scope around one public call: a call boundary (where reference
/// samples are taken), and a recorded span when the repetition is traced.
class SpanScope {
  public:
    SpanScope(Context& ctx, const std::string& name) : ctx_(ctx), index_(ctx.open(name)) {}
    ~SpanScope() { ctx_.close(index_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Context& ctx_;
    int index_;
};

/// One repetition's end-to-end figures. The window runs from the first
/// simulated event of each world to the last artifact it writes.
struct Rep {
    std::uint64_t seed = 0;
    bool traced = false;
    double windowS = 0.0;
    double windowPerReference = 0.0;  ///< untraced only, see Context
    double simS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t artifactBytes = 0;
    std::vector<double> referenceS;  ///< reference kernel samples, untraced only
};

// ---------------------------------------------------------------------------
// paper_figs

struct FigureOutput {
    const char* id;
    scenario::Workload workload;
    bench::Metric metric;
};

constexpr FigureOutput kFigures[] = {
    {"fig1_voip_bitrate", scenario::Workload::voip_g711, bench::Metric::bitrate_kbps},
    {"fig2_voip_jitter", scenario::Workload::voip_g711, bench::Metric::jitter_seconds},
    {"fig3_voip_rtt", scenario::Workload::voip_g711, bench::Metric::rtt_seconds},
    {"fig4_cbr_bitrate", scenario::Workload::cbr_1mbps, bench::Metric::bitrate_kbps},
    {"fig5_cbr_jitter", scenario::Workload::cbr_1mbps, bench::Metric::jitter_seconds},
    {"fig6_cbr_loss", scenario::Workload::cbr_1mbps, bench::Metric::loss_packets},
    {"fig7_cbr_rtt", scenario::Workload::cbr_1mbps, bench::Metric::rtt_seconds},
};

constexpr double kFlowSeconds = 120.0;
/// runPath runs the flow plus a 10 s drain tail after the UMTS dial;
/// the dial itself is not visible from outside runPath.
constexpr double kPathSimSeconds = kFlowSeconds + 10.0;

double meanBitrate(const util::Series& series, double from, double to) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const util::SeriesPoint& point : series)
        if (point.timeSeconds >= from && point.timeSeconds < to) {
            sum += point.value;
            ++n;
        }
    return n ? sum / double(n) : 0.0;
}

/// The EXPERIMENTS.md shape claims for one experiment.
void checkShape(Context& ctx, const scenario::ExperimentResult& result, std::uint64_t seed) {
    SpanScope span{ctx, "bench.check"};
    const std::string tag = std::string(scenario::workloadName(result.workload)) +
                            " seed " + std::to_string(seed) + ": ";
    ctx.op(result.ethernet.summary.sent > 0 && result.ethernet.summary.lost == 0,
           tag + "Ethernet path lost packets");
    if (result.workload == scenario::Workload::voip_g711) {
        ctx.op(result.umts.summary.sent > 0 && result.umts.summary.lost == 0,
               tag + "VoIP lost packets over UMTS");
        return;
    }
    const scenario::PathRun& umts = result.umts;
    const double knee = umts.upgradeTimeSeconds;
    bool kneeOk = umts.bearerUpgrades >= 1 && knee >= 20.0 && knee <= 90.0;
    if (kneeOk) {
        const double before = meanBitrate(umts.series.bitrateKbps, 5.0, knee - 5.0);
        const double after = meanBitrate(umts.series.bitrateKbps, knee + 10.0, kFlowSeconds - 5.0);
        kneeOk = before > 0.0 && after >= 1.5 * before;
    }
    ctx.op(kneeOk, tag + "no CBR bitrate knee (upgrades " +
                       std::to_string(umts.bearerUpgrades) + ", at " + std::to_string(knee) +
                       " s)");
}

void paperFigsRep(Context& ctx, Rep& rep) {
    const int root = ctx.open("rep");
    ctx.meter.beginWorld(rep.traced);
    obs::Tracer::instance().setEnabled(false);  // the fig runs export no telemetry
    ctx.beginWindow();
    const bool golden = rep.seed == 42;
    const std::string figDir = ctx.outDir + (golden ? "/golden" : "/figs");
    std::filesystem::create_directories(figDir);
    for (const scenario::Workload workload :
         {scenario::Workload::voip_g711, scenario::Workload::cbr_1mbps}) {
        // A fig binary runs each workload in a fresh process.
        ppp::resetMagicEntropy();
        scenario::ExperimentOptions options;
        options.workload = workload;
        options.durationSeconds = kFlowSeconds;
        options.seed = rep.seed;
        scenario::ExperimentResult result;
        result.workload = workload;
        result.durationSeconds = kFlowSeconds;
        bool ran = true;
        for (const scenario::PathKind path :
             {scenario::PathKind::umts_to_ethernet, scenario::PathKind::ethernet_to_ethernet}) {
            const bool umts = path == scenario::PathKind::umts_to_ethernet;
            SpanScope span{ctx, umts ? "path.umts" : "path.eth"};
            try {
                (umts ? result.umts : result.ethernet) = scenario::runPath(path, options);
                ctx.op(true, "");
                if (umts) ctx.op(true, "");  // the path's `umts start`
            } catch (const std::exception& error) {
                ctx.op(false, std::string(scenario::pathName(path)) + ": " + error.what());
                ran = false;
            }
            rep.simS += kPathSimSeconds;
        }
        if (!ran) continue;
        if (rep.traced)
            for (const scenario::PathRun* run : {&result.umts, &result.ethernet}) {
                ctx.packetsSent += run->packetsSent;
                ctx.packetsReceived += run->packetsReceived;
            }
        checkShape(ctx, result, rep.seed);
        SpanScope span{ctx, "fig.csv_export"};
        for (const FigureOutput& figure : kFigures) {
            if (figure.workload != workload) continue;
            const std::string text = bench::figureCsv(result, figure.metric);
            const std::string path = figDir + "/" + figure.id + ".csv";
            std::FILE* file = std::fopen(path.c_str(), "w");
            const bool written =
                file && std::fwrite(text.data(), 1, text.size(), file) == text.size();
            if (file) std::fclose(file);
            ctx.op(written, "cannot write " + path);
            rep.artifactBytes += text.size();
        }
    }
    ctx.endWindow();
    ctx.close(root);
}

// ---------------------------------------------------------------------------
// Fleet helpers shared by fleet_soak and adversary_sweep.

/// Build one fleet world: telemetry armed, fleet constructed. Returns
/// the construction time.
double buildFleet(Context& ctx, const scenario::FleetConfig& config, bool profile,
                  std::unique_ptr<scenario::Fleet>& fleet) {
    ctx.meter.beginWorld(profile);
    ppp::resetMagicEntropy();
    SpanScope span{ctx, "scenario.build"};
    const std::int64_t start = monoNs();
    fleet = std::make_unique<scenario::Fleet>(config);
    fleet->sim().attachLogClock();
    return seconds(monoNs() - start);
}

void startAll(Context& ctx, scenario::Fleet& fleet) {
    SpanScope span{ctx, "ctl.start"};
    const std::uint64_t before = ctx.meter.counter(kStartFailuresCounter);
    const auto started = fleet.startAll();
    std::uint64_t failed = ctx.meter.counter(kStartFailuresCounter) - before;
    if (!started.ok() && failed == 0) failed = 1;
    for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i)
        ctx.op(i >= failed, "umts start: " + (started.ok() ? "" : started.error().message));
    if (ctx.tracing) ctx.startFailures += failed;
}

bool startOne(Context& ctx, scenario::Fleet& fleet, std::size_t index, sim::SimTime timeout) {
    SpanScope span{ctx, "ctl.start"};
    const auto started = fleet.startUmts(index, timeout);
    ctx.op(started.ok(), "umts start: " + (started.ok() ? "" : started.error().message));
    if (!started.ok() && ctx.tracing) ++ctx.startFailures;
    return started.ok();
}

void runFor(Context& ctx, scenario::Fleet& fleet, double secondsToRun) {
    SpanScope span{ctx, "sim.advance"};
    const sim::SimTime until = fleet.now() + sim::seconds(secondsToRun);
    while (fleet.now() < until) {
        fleet.runUntil(std::min(until, fleet.now() + sim::seconds(kAdvanceChunkS)));
        ctx.boundary();
    }
}

std::vector<scenario::FleetCbrRun> cbrWave(Context& ctx, scenario::Fleet& fleet,
                                           double secondsToRun) {
    SpanScope span{ctx, "wave.cbr"};
    std::vector<scenario::FleetCbrRun> runs = fleet.runCbrAll(secondsToRun);
    ctx.op(!runs.empty(), "CBR wave produced no flows");
    if (ctx.tracing)
        for (const scenario::FleetCbrRun& run : runs) {
            ctx.packetsSent += run.packetsSent;
            ctx.packetsReceived += run.packetsReceived;
        }
    return runs;
}

void countTcp(Context& ctx, const scenario::FleetTcpRun& run) {
    if (!ctx.tracing) return;
    ctx.tcpRetransmissions += run.tcp.retransmissions;
    ctx.tcpTimeouts += run.tcp.timeouts;
}

/// Stop every site, let the stops settle, demand a drained cell pool
/// and no site holding the lock while disconnected.
void stopAndCheck(Context& ctx, scenario::Fleet& fleet, const std::string& tag) {
    {
        SpanScope span{ctx, "ctl.stop"};
        for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i)
            (void)fleet.stopUmts(i);  // already-down sites report an error; fine
    }
    runFor(ctx, fleet, 30.0);
    SpanScope span{ctx, "bench.check"};
    // The pool sums grants in double, so releases in another order than
    // the grants can leave a residue far below one bps; a leaked grant
    // is at least a bearer's rate.
    const umts::CellCapacity& cell = fleet.operatorNetwork().cell();
    const double uplink = cell.uplinkAllocatedBps();
    const double downlink = cell.downlinkAllocatedBps();
    char detail[96];
    std::snprintf(detail, sizeof detail, ": capacity leak, %g bps up and %g bps down", uplink,
                  downlink);
    ctx.op(std::abs(uplink) < 1.0 && std::abs(downlink) < 1.0,
           tag + detail + " still allocated after full stop");
}

/// Export telemetry (the tracer stops first, as the soak benches do)
/// and add the artifacts' sizes.
void exportTelemetry(Context& ctx, scenario::Fleet& fleet, const std::string& directory,
                     Rep& rep) {
    {
        SpanScope span{ctx, "obs.export"};
        obs::Tracer::instance().setEnabled(false);
        const auto written = fleet.writeTelemetry(directory);
        ctx.op(written.ok(), "telemetry export: " +
                                 (written.ok() ? std::string() : written.error().message));
    }
    const std::uint64_t metrics = fileBytes(directory + "/" + obs::kMetricsFile);
    const std::uint64_t trace = fileBytes(directory + "/" + obs::kTraceFile);
    rep.artifactBytes += metrics + trace + fileBytes(directory + "/" + obs::kProfileFile);
    if (ctx.tracing) {
        ctx.metricsBytes += metrics;
        ctx.traceBytes += trace;
    }
}

// ---------------------------------------------------------------------------
// fleet_soak: the ext_chaos_soak pr shape at 32 UEs, supervised.

constexpr std::size_t kSoakUes = 32;
constexpr double kSoakSeconds = 300.0;

scenario::FleetConfig soakConfig(std::uint64_t seed) {
    scenario::FleetConfig config = scenario::makeUniformFleet(kSoakUes, seed);
    for (auto& site : config.umtsSites) site.supervise.enable = true;
    return config;
}

void fleetSoakRep(Context& ctx, Rep& rep) {
    const int root = ctx.open("rep");
    std::unique_ptr<scenario::Fleet> fleet;
    (void)buildFleet(ctx, soakConfig(rep.seed), rep.traced, fleet);
    ctx.beginWindow();
    ctx.fleet = fleet.get();
    const std::string tag = "soak seed " + std::to_string(rep.seed);

    startAll(ctx, *fleet);
    {
        SpanScope span{ctx, "ctl.route"};
        const auto routed = fleet->addDestinationAll();
        ctx.op(routed.ok(), tag + ": routing: " +
                                (routed.ok() ? std::string() : routed.error().message));
    }
    fault::FaultPlan plan;
    std::unique_ptr<fault::FaultInjector> injector;
    {
        SpanScope span{ctx, "fault.arm"};
        fault::RandomPlanConfig planConfig;
        planConfig.seed = rep.seed;
        planConfig.siteCount = kSoakUes;
        planConfig.start = fleet->now() + sim::seconds(10.0);
        planConfig.horizon = fleet->now() + sim::seconds(kSoakSeconds);
        planConfig.meanGap = sim::seconds(kSoakSeconds / 12.0);
        plan = fault::FaultPlan::random(planConfig);
        injector = std::make_unique<fault::FaultInjector>(*fleet, plan);
        injector->arm();
    }
    // CBR waves with every third on TCP until the fault horizon, then a
    // settle tail for every windowed fault to restore.
    const sim::SimTime horizon = fleet->now() + sim::seconds(kSoakSeconds);
    for (std::size_t wave = 0; fleet->now() < horizon; ++wave) {
        if (wave % 3 == 2) {
            SpanScope span{ctx, "net.tcp.wave"};
            const std::vector<scenario::FleetTcpRun> runs = fleet->runTcpAll(20.0);
            ctx.op(!runs.empty(), tag + ": TCP wave produced no flows");
            for (const scenario::FleetTcpRun& run : runs) countTcp(ctx, run);
        } else {
            (void)cbrWave(ctx, *fleet, 20.0);
        }
    }
    runFor(ctx, *fleet, 240.0);

    const fault::InjectorStats& stats = injector->stats();
    if (ctx.tracing) {
        ctx.faultsInjected += stats.fired - stats.skipped;
        ctx.faultsSkipped += stats.skipped;
    }
    {
        SpanScope span{ctx, "bench.check"};
        ctx.op(stats.fired > stats.skipped, tag + ": no fault was injected");
    }
    // Every supervisor reaches HEALTHY or FAILED_OVER; none is wedged
    // without pending recovery work.
    const auto settled = [&fleet] {
        for (std::size_t i = 0; i < fleet->umtsSiteCount(); ++i) {
            const supervise::Health health = fleet->umtsSite(i).supervisor()->health();
            if (health != supervise::Health::healthy &&
                health != supervise::Health::failed_over)
                return false;
        }
        return true;
    };
    const sim::SimTime settleDeadline = fleet->now() + sim::seconds(600.0);
    while (!settled() && fleet->now() < settleDeadline) runFor(ctx, *fleet, 5.0);
    {
        SpanScope span{ctx, "bench.check"};
        bool wedged = false;
        for (std::size_t i = 0; i < fleet->umtsSiteCount(); ++i) {
            scenario::UmtsNodeSite& site = fleet->umtsSite(i);
            const supervise::LinkSupervisor& sup = *site.supervisor();
            const umtsctl::UmtsState& state = site.backend().state();
            const bool healthyUp = sup.health() == supervise::Health::healthy &&
                                   (state.connected || !state.locked);
            const bool parked = sup.health() == supervise::Health::failed_over;
            if (!healthyUp && !parked && !sup.hasPendingWork()) {
                wedged = true;
                ctx.op(false, tag + ": " + site.hostname() + " wedged in " +
                                  supervise::healthName(sup.health()));
            }
        }
        if (!wedged) ctx.op(true, "");
        const std::uint64_t losses =
            obs::Registry::instance().counter("fault.umtsctl.link_losses").value();
        const std::uint64_t incidents =
            obs::Registry::instance().counter("supervise.incidents").value();
        ctx.op(losses == 0 || incidents > 0, tag + ": supervisor missed every link loss");
    }
    stopAndCheck(ctx, *fleet, tag);
    exportTelemetry(ctx, *fleet, ctx.outDir + "/soak", rep);
    ctx.endWindow();
    rep.simS += sim::toSeconds(fleet->now());
    ctx.close(root);
    ctx.fleet = nullptr;
}

// ---------------------------------------------------------------------------
// adversary_sweep: ext_adversary's pr sweep without the replay leg.

constexpr std::size_t kAdversaryUes = 3;
constexpr double kWaveSeconds = 12.0;
using Kind = adversary::PersonalityKind;

std::uint64_t counterValue(const char* name) {
    return obs::Registry::instance().counter(name).value();
}

/// Guard detection counters relevant to one personality.
std::uint64_t detectionCount(Kind kind) {
    switch (kind) {
        case Kind::fifo_flooder:
            return counterValue("guard.vsys.throttled") + counterValue("guard.vsys.queue_full") +
                   counterValue("guard.umtsctl.stats_denied");
        case Kind::at_abuser:
            return counterValue("guard.at.dial_rejected") +
                   counterValue("guard.at.line_overflow") + counterValue("guard.at.escape_spam");
        case Kind::signaling_storm:
            return counterValue("guard.umts.attach_throttled") +
                   counterValue("guard.umts.attach_delayed");
        case Kind::greedy_ue:
            return counterValue("guard.cell.fairness_denials") +
                   counterValue("guard.cell.reclaims");
        case Kind::nat_churner:
            return counterValue("guard.firewall.quota_denied") +
                   counterValue("guard.nat.quota_denied") +
                   counterValue("guard.firewall.evicted") + counterValue("guard.nat.evicted");
    }
    return 0;
}

scenario::FleetConfig cellConfig(Kind kind, bool guardsOn, std::uint64_t seed) {
    scenario::FleetConfig config = scenario::makeUniformFleet(kAdversaryUes, seed);
    // The churner needs the NAT leg of the GGSN up to attack it.
    if (kind == Kind::nat_churner) config.operatorProfile.natSubscribers = true;
    if (!guardsOn) {
        config.operatorProfile.signalingGuard.enabled = false;
        config.operatorProfile.natGuard.perSubscriberQuota = 0;
        config.operatorProfile.cellFairnessClamp = false;
    }
    // ext_adversary's recovery: backend auto-redial. With the link
    // supervisor instead, the greedy UE's upgrades never meet the
    // fairness clamp, so that containment check would be vacuous.
    for (auto& site : config.umtsSites) {
        site.autoRedial.enable = true;
        site.autoRedial.maxAttempts = 8;
        site.fifoGuard.enabled = guardsOn;
    }
    return config;
}

double buildCell(Context& ctx, Kind kind, bool guardsOn, std::uint64_t seed, bool profile,
                 std::unique_ptr<scenario::Fleet>& fleet) {
    const double built = buildFleet(ctx, cellConfig(kind, guardsOn, seed), profile, fleet);
    if (!guardsOn) {
        // The unhardened firmware: no dial validation, no line cap.
        const std::int64_t start = monoNs();
        for (std::size_t i = 0; i < fleet->umtsSiteCount(); ++i) {
            modem::AtEngine& engine = fleet->umtsSite(i).card().atEngine();
            engine.setDialValidation(false);
            engine.setMaxLineLength(std::size_t(1) << 20);
        }
        return built + seconds(monoNs() - start);
    }
    return built;
}

umts::UmtsSession* victimSession(scenario::Fleet& fleet) {
    umts::UmtsNetwork& network = fleet.operatorNetwork();
    const std::string& imsi = fleet.umtsSite(0).imsi();
    for (std::size_t k = 0; k < network.activeSessions(); ++k) {
        umts::UmtsSession* session = network.sessionAt(k);
        if (session && session->active() && session->imsi() == imsi) return session;
    }
    return nullptr;
}

double victimCbrKbps(Context& ctx, scenario::Fleet& fleet, double secondsToRun) {
    const std::string& imsi = fleet.umtsSite(0).imsi();
    for (const scenario::FleetCbrRun& run : cbrWave(ctx, fleet, secondsToRun))
        if (run.imsi == imsi) return run.summary.meanBitrateKbps;
    return 0.0;
}

double victimSoloCbrKbps(Context& ctx, scenario::Fleet& fleet, double secondsToRun) {
    SpanScope span{ctx, "wave.cbr"};
    const scenario::FleetCbrRun run = fleet.runCbr(0, secondsToRun);
    ctx.op(true, "");
    if (ctx.tracing) {
        ctx.packetsSent += run.packetsSent;
        ctx.packetsReceived += run.packetsReceived;
    }
    return run.summary.meanBitrateKbps;
}

double victimTcpKbps(Context& ctx, scenario::Fleet& fleet, double secondsToRun) {
    SpanScope span{ctx, "net.tcp.wave"};
    const scenario::FleetTcpRun run = fleet.runTcp(0, secondsToRun);
    ctx.op(true, "");
    countTcp(ctx, run);
    return run.summary.meanBitrateKbps;
}

/// Tear the victim's link down, force the card to drop its
/// registration, and time the re-register + dial. -1 on failure.
double measuredRedialSeconds(Context& ctx, scenario::Fleet& fleet, sim::SimTime timeout) {
    const sim::SimTime t0 = fleet.now();
    {
        SpanScope span{ctx, "ctl.stop"};
        (void)fleet.stopUmts(0);
        fleet.umtsSite(0).card().reattach();
    }
    if (!startOne(ctx, fleet, 0, timeout)) return -1.0;
    return sim::toSeconds(fleet.now() - t0);
}

/// One sweep cell: fresh fleet, one attacker, guards on or off. The
/// common invariants hold in every cell; the containment invariants
/// are checked with guards on.
void runCell(Context& ctx, Kind kind, bool guardsOn, Rep& rep) {
    const std::string tag = std::string(adversary::kindName(kind)) +
                            (guardsOn ? "/guarded" : "/open") + " seed " +
                            std::to_string(rep.seed);
    SpanScope cellSpan{ctx, std::string("adversary.cell.") + adversary::kindName(kind)};
    std::unique_ptr<scenario::Fleet> fleet;
    (void)buildCell(ctx, kind, guardsOn, rep.seed, rep.traced, fleet);
    ctx.beginWindow();
    ctx.fleet = fleet.get();

    startAll(ctx, *fleet);
    {
        SpanScope span{ctx, "ctl.route"};
        const auto routed = fleet->addDestinationAll();
        ctx.op(routed.ok(), tag + ": routing");
    }
    // Greedy waves must outlast the 40-52 s upgrade grant delay.
    const double greedyWave = 80.0;
    double baselineKbps = 0.0;
    double baselineRedialS = 0.0;
    if (kind == Kind::signaling_storm) {
        baselineRedialS = measuredRedialSeconds(ctx, *fleet, sim::seconds(300.0));
    } else if (kind == Kind::greedy_ue) {
        baselineKbps = victimSoloCbrKbps(ctx, *fleet, greedyWave);
        // Bounce the victim so its wave grant returns to the pool, then
        // re-pin its flow to the UMTS leg.
        {
            SpanScope span{ctx, "ctl.stop"};
            (void)fleet->stopUmts(0);
        }
        if (startOne(ctx, *fleet, 0, sim::seconds(120.0))) {
            SpanScope span{ctx, "ctl.route"};
            const auto rerouted = fleet->addUmtsDestination(
                0, fleet->wiredSite(0).address().str() + "/32", sim::seconds(5.0));
            ctx.op(rerouted.ok(), tag + ": victim reroute");
        }
    } else if (kind == Kind::nat_churner) {
        baselineKbps = victimTcpKbps(ctx, *fleet, kWaveSeconds);
        // Two quiet victim flows the churn must not be able to evict.
        SpanScope span{ctx, "umts.flow_churn"};
        if (umts::UmtsSession* victim = victimSession(*fleet))
            (void)fleet->operatorNetwork().injectFlowChurn(
                victim->subscriberAddress(), net::Ipv4Address{192, 0, 2, 1}, 7000, 2);
    } else {
        baselineKbps = victimCbrKbps(ctx, *fleet, kWaveSeconds);
    }

    std::unique_ptr<adversary::AdversaryDriver> driver;
    const sim::SimTime armAt = fleet->now();
    {
        SpanScope span{ctx, "adversary.arm"};
        adversary::AdversaryConfig attacker;
        attacker.kind = kind;
        attacker.start = fleet->now() + sim::seconds(2.0);
        attacker.duration = sim::seconds(600.0);  // closed by cancelAll below
        attacker.seed = rep.seed * 1000;
        switch (kind) {
            case Kind::fifo_flooder:
            case Kind::at_abuser: attacker.site = 0; break;  // the victim's own node
            case Kind::greedy_ue: attacker.site = 1; break;  // a neighbour in the cell
            case Kind::signaling_storm:
            case Kind::nat_churner: attacker.site = 0; break;  // namespace tag only
        }
        if (kind == Kind::nat_churner) attacker.intensity = 4.0;
        driver = std::make_unique<adversary::AdversaryDriver>(
            *fleet, std::vector<adversary::AdversaryConfig>{attacker});
        driver->arm();
    }

    double victimKbps = 0.0;
    double stormRedialS = 0.0;
    std::size_t attachBacklog = 0;
    bool victimStateSurvived = true;
    if (kind == Kind::signaling_storm) {
        runFor(ctx, *fleet, 15.0);  // let the attach backlog build
        attachBacklog = fleet->operatorNetwork().attachBacklog();
        stormRedialS = measuredRedialSeconds(ctx, *fleet, sim::seconds(600.0));
    } else if (kind == Kind::nat_churner) {
        runFor(ctx, *fleet, 45.0);  // churn against an idle victim
        if (umts::UmtsSession* victim = victimSession(*fleet))
            victimStateSurvived =
                fleet->operatorNetwork().hasFlowStateFor(victim->subscriberAddress());
        victimKbps = victimTcpKbps(ctx, *fleet, kWaveSeconds);
    } else if (kind == Kind::greedy_ue) {
        runFor(ctx, *fleet, 3.0);
        victimKbps = victimSoloCbrKbps(ctx, *fleet, greedyWave);
    } else {
        runFor(ctx, *fleet, 3.0);
        victimKbps = victimCbrKbps(ctx, *fleet, kWaveSeconds);
        runFor(ctx, *fleet, 10.0);  // sustained abuse past the wave
    }
    {
        SpanScope span{ctx, "adversary.cancel"};
        driver->cancelAll();
    }
    const double attackWindowS = sim::toSeconds(fleet->now() - armAt);
    runFor(ctx, *fleet, 10.0);
    const adversary::AttackerStats totals = driver->totals();
    const std::uint64_t detections = detectionCount(kind);

    stopAndCheck(ctx, *fleet, tag);
    {
        SpanScope span{ctx, "bench.check"};
        bool wedged = false;
        for (std::size_t i = 0; i < fleet->umtsSiteCount(); ++i) {
            const umtsctl::UmtsState& state = fleet->umtsSite(i).backend().state();
            if (state.locked && !state.connected) {
                wedged = true;
                ctx.op(false, tag + ": " + fleet->umtsSite(i).hostname() +
                                  " wedged: lock held while disconnected");
            }
        }
        if (!wedged) ctx.op(true, "");
        ctx.op(totals.actions > 0, tag + ": adversary performed no actions");
        if (guardsOn) {
            // ext_adversary's containment invariants.
            const double window = std::max(0.0, attackWindowS - 2.0);
            const std::size_t barringLimit =
                fleet->config().operatorProfile.signalingGuard.barringLimit;
            switch (kind) {
                case Kind::fifo_flooder: {
                    const std::size_t admitted = totals.actions - totals.denied;
                    ctx.op(totals.denied > 0, tag + ": flooder never throttled");
                    ctx.op(double(admitted) <= 10.0 * window + 80.0,
                           tag + ": flooder admitted " + std::to_string(admitted));
                    break;
                }
                case Kind::at_abuser:
                    ctx.op(detections > 0, tag + ": no guard.at.* detection fired");
                    ctx.op(victimKbps >= 0.35 * baselineKbps,
                           tag + ": victim goodput collapsed under AT abuse");
                    break;
                case Kind::signaling_storm:
                    ctx.op(attachBacklog <= barringLimit + 2,
                           tag + ": attach backlog " + std::to_string(attachBacklog) +
                               " exceeds the barring limit");
                    ctx.op(detections > 0, tag + ": signaling guard never fired");
                    ctx.op(stormRedialS >= 0.0 && stormRedialS <= 90.0,
                           tag + ": storm redial took " + std::to_string(stormRedialS) +
                               " s (baseline " + std::to_string(baselineRedialS) + " s)");
                    break;
                case Kind::greedy_ue:
                    ctx.op(detections > 0, tag + ": fairness clamp never fired");
                    ctx.op(victimKbps >= 0.5 * baselineKbps,
                           tag + ": victim goodput under greedy UE below floor");
                    break;
                case Kind::nat_churner:
                    ctx.op(victimStateSurvived, tag + ": victim state evicted despite quota");
                    ctx.op(detections > 0, tag + ": no NAT/firewall guard fired");
                    ctx.op(victimKbps >= 0.5 * baselineKbps,
                           tag + ": victim TCP goodput under churn below floor");
                    break;
            }
        }
    }
    const std::string directory = ctx.outDir + "/adversary_" + adversary::kindName(kind) +
                                  (guardsOn ? "_on" : "_off");
    exportTelemetry(ctx, *fleet, directory, rep);
    ctx.endWindow();
    rep.simS += sim::toSeconds(fleet->now());
    ctx.fleet = nullptr;
}

void adversarySweepRep(Context& ctx, Rep& rep) {
    const int root = ctx.open("rep");
    for (std::size_t kind = 0; kind < adversary::kPersonalityKindCount; ++kind)
        for (const bool guardsOn : {false, true}) runCell(ctx, Kind(kind), guardsOn, rep);
    ctx.close(root);
}

// ---------------------------------------------------------------------------

using RepFn = void (*)(Context&, Rep&);

RepFn repFunction(const std::string& workload) {
    if (workload == "paper_figs") return paperFigsRep;
    if (workload == "fleet_soak") return fleetSoakRep;
    if (workload == "adversary_sweep") return adversarySweepRep;
    return nullptr;
}

std::uint64_t repSeed(const std::string& workload, std::uint64_t seed, std::size_t index) {
    if (workload == "paper_figs" && index == 0) return 42;  // the paper seed
    return deriveSeed(seed, index);
}

/// Build the worlds of the first repetition without running them.
double setupOnly(Context& ctx, std::uint64_t seed) {
    const std::uint64_t first = repSeed(ctx.workload, seed, 0);
    double built = 0.0;
    if (ctx.workload == "fleet_soak") {
        std::unique_ptr<scenario::Fleet> fleet;
        built += buildFleet(ctx, soakConfig(first), false, fleet);
    } else if (ctx.workload == "adversary_sweep") {
        for (std::size_t kind = 0; kind < adversary::kPersonalityKindCount; ++kind)
            for (const bool guardsOn : {false, true}) {
                std::unique_ptr<scenario::Fleet> fleet;
                built += buildCell(ctx, Kind(kind), guardsOn, first, false, fleet);
            }
    }
    return built;
}

/// The build type, flags and compiler this driver was built with.
std::string buildJson() {
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const bool sanitized = true;
#else
    const bool sanitized = false;
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    return "{\"type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"flags\":" + jsonString(PERFBENCH_CXX_FLAGS) +
           ",\"compiler\":" + jsonString(__VERSION__) +
           ",\"ndebug\":" + (ndebug ? "true" : "false") +
           ",\"optimized\":" + (optimized ? "true" : "false") +
           ",\"sanitized\":" + (sanitized ? "true" : "false") + "}";
}

void writeResults(std::FILE* out, const Context& ctx, const std::vector<Rep>& reps,
                  std::uint64_t seed, bool trace) {
    std::fprintf(out, "{\"workload\":%s,\"seed\":%llu,\"trace\":%s,\"build\":%s,",
                 jsonString(ctx.workload).c_str(), static_cast<unsigned long long>(seed),
                 trace ? "true" : "false", buildJson().c_str());
    std::fprintf(out, "\"ops\":%zu,\"failed_ops\":%zu,\"failures\":[", ctx.ops, ctx.failedOps);
    for (std::size_t i = 0; i < ctx.failures.size(); ++i)
        std::fprintf(out, "%s%s", i ? "," : "", jsonString(ctx.failures[i]).c_str());
    std::fprintf(out, "],\"reps\":[");
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep& rep = reps[i];
        std::fprintf(out,
                     "%s{\"seed\":%llu,\"traced\":%s,\"window_s\":%.9f,"
                     "\"window_per_reference\":%.6f,\"sim_s\":%.6f,\"events\":%llu,"
                     "\"artifact_bytes\":%llu,\"reference_s\":[",
                     i ? "," : "", static_cast<unsigned long long>(rep.seed),
                     rep.traced ? "true" : "false", rep.windowS,
                     rep.windowPerReference, rep.simS,
                     static_cast<unsigned long long>(rep.events),
                     static_cast<unsigned long long>(rep.artifactBytes));
        for (std::size_t k = 0; k < rep.referenceS.size(); ++k)
            std::fprintf(out, "%s%.9f", k ? "," : "", rep.referenceS[k]);
        std::fprintf(out, "]}");
    }
    std::fprintf(out, "],\"spans\":[");
    for (std::size_t i = 0; i < ctx.spans.size(); ++i) {
        const Span& span = ctx.spans[i];
        std::fprintf(out,
                     "%s{\"name\":%s,\"parent\":%d,\"t0\":%lld,\"t1\":%lld,\"ev0\":%llu,"
                     "\"ev1\":%llu,\"prof0\":%lld,\"prof1\":%lld,\"sim0\":%.6f,\"sim1\":%.6f}",
                     i ? "," : "", jsonString(span.name).c_str(), span.parent,
                     static_cast<long long>(span.t0), static_cast<long long>(span.t1),
                     static_cast<unsigned long long>(span.ev0),
                     static_cast<unsigned long long>(span.ev1),
                     static_cast<long long>(span.prof0), static_cast<long long>(span.prof1),
                     span.sim0, span.sim1);
    }
    std::fprintf(out, "],\"profile\":{");
    for (std::size_t c = 0; c < obs::kProfileCategoryCount; ++c)
        std::fprintf(out, "%s%s:{\"self_ns\":%lld,\"calls\":%llu}", c ? "," : "",
                     jsonString(obs::profileCategoryName(obs::ProfileCategory(c))).c_str(),
                     static_cast<long long>(ctx.traced.selfNs[c]),
                     static_cast<unsigned long long>(ctx.traced.scopes[c]));
    std::fprintf(out, "},\"counters\":{");
    for (std::size_t i = 0; i < kCounterCount; ++i)
        std::fprintf(out, "%s%s:%llu", i ? "," : "", jsonString(kCounters[i]).c_str(),
                     static_cast<unsigned long long>(ctx.traced.counters[i]));
    std::fprintf(out,
                 "},\"observed\":{\"tcp_retransmissions\":%llu,\"tcp_timeouts\":%llu,"
                 "\"packets_sent\":%llu,\"packets_received\":%llu,\"trace_bytes\":%llu,"
                 "\"metrics_bytes\":%llu,\"faults_injected\":%llu,\"faults_skipped\":%llu,"
                 "\"start_failures\":%llu,\"firewall_flows_peak\":%zu}}\n",
                 static_cast<unsigned long long>(ctx.tcpRetransmissions),
                 static_cast<unsigned long long>(ctx.tcpTimeouts),
                 static_cast<unsigned long long>(ctx.packetsSent),
                 static_cast<unsigned long long>(ctx.packetsReceived),
                 static_cast<unsigned long long>(ctx.traceBytes),
                 static_cast<unsigned long long>(ctx.metricsBytes),
                 static_cast<unsigned long long>(ctx.faultsInjected),
                 static_cast<unsigned long long>(ctx.faultsSkipped),
                 static_cast<unsigned long long>(ctx.startFailures), ctx.firewallFlowsPeak);
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload paper_figs|fleet_soak|adversary_sweep\n"
                 "       --seed N --seconds S --trace 0|1 --out DIR [--spawn-ns T]"
                 " [--setup-only]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    const std::int64_t mainNs = monoNs();
    Context ctx;
    std::uint64_t seed = 0;
    double budgetS = 0.0;
    bool trace = false;
    bool setup = false;
    std::int64_t spawnNs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--build-info") {
            std::printf("%s\n", buildJson().c_str());
            return 0;
        }
        if (arg == "--setup-only") {
            setup = true;
            continue;
        }
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        if (arg == "--workload")
            ctx.workload = value;
        else if (arg == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            budgetS = std::atof(value.c_str());
        else if (arg == "--trace")
            trace = value == "1";
        else if (arg == "--out")
            ctx.outDir = value;
        else if (arg == "--spawn-ns")
            spawnNs = std::strtoll(value.c_str(), nullptr, 10);
        else
            return usage();
    }
    const RepFn repFn = repFunction(ctx.workload);
    if (!repFn || ctx.outDir.empty() || (!setup && budgetS <= 0.0)) return usage();

    if (setup) {
        const double spawnToMainS = spawnNs > 0 ? seconds(mainNs - spawnNs) : 0.0;
        const double built = setupOnly(ctx, seed);
        (void)referenceKernelSeconds();  // the first call also faults its pages in
        std::printf("{\"setup_s\":%.9f,\"reference_s\":%.9f}\n", spawnToMainS + built,
                    referenceKernelSeconds());
        return 0;
    }

    std::filesystem::create_directories(ctx.outDir);
    ctx.originNs = monoNs();
    std::vector<Rep> reps;
    double repsS = 0.0;
    for (std::size_t index = 0;; ++index) {
        Rep rep;
        rep.traced = trace && index % 2 == 1;
        rep.seed = repSeed(ctx.workload, seed, trace ? index / 2 : index);
        ctx.tracing = rep.traced;
        ctx.referenceS.clear();
        ctx.segmentS = ctx.windowS = ctx.windowPerReference = 0.0;
        ctx.boundary();
        const std::int64_t repStart = monoNs();
        const Totals before = ctx.meter.folded();
        repFn(ctx, rep);
        ctx.meter.fold();
        obs::Profiler::instance().setEnabled(false);
        rep.events = ctx.meter.folded().counters[kEventsCounter] - before.counters[kEventsCounter];
        if (rep.traced) ctx.traced.addDelta(ctx.meter.folded(), before);
        if (!rep.traced) ctx.sampleReference();  // closes the last segment
        rep.windowS = ctx.windowS;
        rep.windowPerReference = ctx.windowPerReference;
        rep.referenceS = ctx.referenceS;
        reps.push_back(rep);
        repsS += seconds(monoNs() - repStart);
        if (trace && !rep.traced) continue;  // finish the pair
        // Stop when one more repetition (pair) of average length would
        // end past the budget.
        const double elapsedS = seconds(monoNs() - ctx.originNs);
        if (elapsedS + repsS / double(reps.size()) * (trace ? 2.0 : 1.0) > budgetS) break;
    }

    const std::string path = ctx.outDir + "/driver.json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    writeResults(out, ctx, reps, seed, trace);
    std::fclose(out);
    return 0;
}
