// §3.1: "each measurement experiment was executed 20 times and very
// similar results were obtained." This bench repeats the (shortened)
// experiments across 20 seeds and reports mean ± stddev of the
// headline metrics, quantifying that claim for this reproduction.
//
// Usage: repeatability [--jobs N]   (0 = all hardware threads)
// Seeds are independent sweep points; aggregation order is fixed, so
// the report is byte-identical at any job count.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "ppp/lcp.hpp"
#include "scenario/experiment.hpp"
#include "scenario/fleet.hpp"
#include "sweep_runner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace onelab;
using namespace onelab::scenario;

namespace {

struct Aggregate {
    util::OnlineStats bitrate;
    util::OnlineStats rttMs;
    util::OnlineStats jitterMs;
    util::OnlineStats lossPct;
};

/// One seed's headline numbers (what the Aggregate folds over).
struct RunMetrics {
    double bitrate = 0.0;
    double rttMs = 0.0;
    double jitterMs = 0.0;
    double lossPct = 0.0;
};

Aggregate sweep(Workload workload, double duration, int runs,
                bench::SweepRunner& runner) {
    const std::vector<RunMetrics> points =
        runner.map<RunMetrics>(std::size_t(runs), [&](std::size_t index) {
            ExperimentOptions options;
            options.workload = workload;
            options.durationSeconds = duration;
            options.seed = std::uint64_t(index + 1);
            const PathRun run = runPath(PathKind::umts_to_ethernet, options);
            return RunMetrics{
                util::meanInWindow(run.series.bitrateKbps, 2, duration - 2),
                run.summary.meanRttSeconds * 1e3,
                run.summary.meanJitterSeconds * 1e3,
                run.summary.lossRate * 100.0,
            };
        });
    // Fold in seed order whatever order the points finished in, so the
    // running mean/stddev come out bit-identical to the serial sweep.
    Aggregate aggregate;
    for (const RunMetrics& point : points) {
        aggregate.bitrate.add(point.bitrate);
        aggregate.rttMs.add(point.rttMs);
        aggregate.jitterMs.add(point.jitterMs);
        aggregate.lossPct.add(point.lossPct);
    }
    return aggregate;
}

std::string cell(const util::OnlineStats& stats) {
    return util::format("%.1f ± %.1f", stats.mean(), stats.stddev());
}

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void runFleetTelemetry(const std::string& directory) {
    obs::beginRun();
    ppp::resetMagicEntropy();
    scenario::Fleet fleet{scenario::makeUniformFleet(3, 7)};
    if (!fleet.startAll().ok()) throw std::runtime_error("fleet start failed");
    if (!fleet.addDestinationAll().ok()) throw std::runtime_error("fleet routing failed");
    fleet.runCbrAll(30.0);
    obs::Tracer::instance().setEnabled(false);
    const auto written = obs::writeTelemetry(directory);
    if (!written.ok())
        throw std::runtime_error("telemetry export failed: " + written.error().message);
}

/// Same-seed fleet runs must be reproducible down to the exported
/// bytes: a 3-UE shared-cell run is re-executed in a fresh registry
/// and the two telemetry exports (which include the per-IMSI
/// `umts.bearer.<imsi>.*` metric families) are compared byte for byte.
bool fleetTelemetryIdentical(bench::SweepRunner& runner) {
    const char* const dirs[] = {"out/onelab_repeat_fleet_a", "out/onelab_repeat_fleet_b"};
    (void)runner.map<int>(2, [&](std::size_t index) {
        runFleetTelemetry(dirs[index]);
        return 0;
    });
    const std::string metricsA = slurp("out/onelab_repeat_fleet_a/metrics.json");
    const std::string metricsB = slurp("out/onelab_repeat_fleet_b/metrics.json");
    const std::string traceA = slurp("out/onelab_repeat_fleet_a/trace.json");
    const std::string traceB = slurp("out/onelab_repeat_fleet_b/trace.json");
    const bool perImsi =
        metricsA.find("umts.bearer.222880000000001.") != std::string::npos &&
        metricsA.find("umts.bearer.222880000000002.") != std::string::npos &&
        metricsA.find("umts.bearer.222880000000003.") != std::string::npos;
    std::printf("3-UE fleet telemetry: metrics %s (%zu bytes), trace %s (%zu bytes),\n"
                "per-IMSI metric families %s\n",
                metricsA == metricsB ? "identical" : "DIFFER", metricsA.size(),
                traceA == traceB ? "identical" : "DIFFER", traceA.size(),
                perImsi ? "present" : "MISSING");
    return !metricsA.empty() && metricsA == metricsB && traceA == traceB && perImsi;
}

void runFaultedFleetTelemetry(const std::string& directory) {
    obs::beginRun();
    ppp::resetMagicEntropy();
    scenario::FleetConfig config = scenario::makeUniformFleet(3, 7);
    for (auto& site : config.umtsSites) site.autoRedial.enable = true;
    scenario::Fleet fleet{config};
    if (!fleet.startAll().ok()) throw std::runtime_error("fleet start failed");
    if (!fleet.addDestinationAll().ok()) throw std::runtime_error("fleet routing failed");

    fault::RandomPlanConfig planConfig;
    planConfig.seed = 7;
    planConfig.siteCount = 3;
    planConfig.start = fleet.sim().now() + sim::seconds(5.0);
    planConfig.horizon = fleet.sim().now() + sim::seconds(60.0);
    planConfig.meanGap = sim::seconds(8.0);
    fault::FaultInjector injector{fleet, fault::FaultPlan::random(planConfig)};
    injector.arm();

    fleet.runCbrAll(30.0);
    fleet.runCbrAll(30.0);
    fleet.sim().runUntil(fleet.sim().now() + sim::seconds(120.0));
    obs::Tracer::instance().setEnabled(false);
    const auto written = obs::writeTelemetry(directory);
    if (!written.ok())
        throw std::runtime_error("telemetry export failed: " + written.error().message);
}

/// Same seed + same FaultPlan must also reproduce byte for byte: the
/// chaos path (injections, recoveries, redials) is part of the
/// deterministic surface, not an excuse to diverge.
bool faultedTelemetryIdentical(bench::SweepRunner& runner) {
    const char* const dirs[] = {"out/onelab_repeat_fault_a", "out/onelab_repeat_fault_b"};
    (void)runner.map<int>(2, [&](std::size_t index) {
        runFaultedFleetTelemetry(dirs[index]);
        return 0;
    });
    const std::string metricsA = slurp("out/onelab_repeat_fault_a/metrics.json");
    const std::string metricsB = slurp("out/onelab_repeat_fault_b/metrics.json");
    const std::string traceA = slurp("out/onelab_repeat_fault_a/trace.json");
    const std::string traceB = slurp("out/onelab_repeat_fault_b/trace.json");
    const bool faulted = metricsA.find("\"fault.injected\"") != std::string::npos;
    std::printf("3-UE faulted fleet telemetry: metrics %s (%zu bytes), trace %s,\n"
                "fault.* metric families %s\n",
                metricsA == metricsB ? "identical" : "DIFFER", metricsA.size(),
                traceA == traceB ? "identical" : "DIFFER",
                faulted ? "present" : "MISSING");
    return !metricsA.empty() && metricsA == metricsB && traceA == traceB && faulted;
}

void usage(const char* argv0) {
    std::printf("usage: %s [--jobs N]   (0 = all hardware threads)\n", argv0);
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t jobs = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            jobs = bench::SweepRunner::parseJobsValue(argv[++i]);
        } else {
            usage(argv[0]);
            return arg == "--help" ? 0 : 2;
        }
    }
    bench::SweepRunner runner{jobs};

    constexpr int kRuns = 20;
    std::printf("=== Repeatability: %d seeded runs per experiment (paper §3.1), "
                "%zu job%s ===\n\n",
                kRuns, jobs, jobs == 1 ? "" : "s");
    util::Table table({"experiment (UMTS path)", "bitrate [kbps]", "RTT [ms]",
                       "jitter [ms]", "loss [%]"});
    const Aggregate voip = sweep(Workload::voip_g711, 30.0, kRuns, runner);
    table.addRow({"VoIP 72 kbps, 30 s", cell(voip.bitrate), cell(voip.rttMs),
                  cell(voip.jitterMs), cell(voip.lossPct)});
    const Aggregate cbr = sweep(Workload::cbr_1mbps, 30.0, kRuns, runner);
    table.addRow({"CBR 1 Mbps, 30 s", cell(cbr.bitrate), cell(cbr.rttMs),
                  cell(cbr.jitterMs), cell(cbr.lossPct)});
    std::printf("%s\n", table.render().c_str());
    const double spread = voip.bitrate.stddev() / voip.bitrate.mean();
    std::printf("run-to-run spread of the VoIP bitrate mean: %.1f%% — \"very similar\n"
                "results\", as the paper reports for its 20 repetitions.\n\n",
                spread * 100.0);
    const bool fleetOk = fleetTelemetryIdentical(runner);
    const bool faultOk = faultedTelemetryIdentical(runner);
    return (spread < 0.05 && fleetOk && faultOk) ? 0 : 1;
}
