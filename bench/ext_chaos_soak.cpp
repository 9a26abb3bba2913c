// Chaos/soak harness: an N-UE shared-cell fleet runs CBR traffic for
// long sim-hours while a seeded FaultPlan injects radio drops, detach
// storms, coverage holes, capacity squeezes, RLC outages and loss
// bursts, modem resets, AT failures, serial corruption/stalls and LCP
// renegotiations. Auto-redial recovery is ON, so the run measures the
// stack's ability to come back — and the harness asserts invariants a
// survivable deployment must hold:
//
//   1. no capacity leak: once every site is stopped, the cell pool's
//      allocated budget is exactly zero;
//   2. every drop recovers or surfaces: at soak end each site is
//      either connected again or reports a terminal error (lock
//      released, lastError set) — nobody is stuck half-dead;
//   3. determinism: the same seed + the same plan reproduces the
//      exported telemetry byte for byte (checked for the first seed).
//
// Profiles: --profile pr (short, CI-blocking) or nightly (sim-hour
// soaks). A scripted plan can replace the seeded one: --faults p.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "ppp/lcp.hpp"
#include "scenario/fleet.hpp"
#include "sweep_runner.hpp"
#include "util/strings.hpp"

using namespace onelab;

namespace {

struct SoakOptions {
    std::string profile = "pr";
    std::size_t ues = 3;
    double soakSeconds = 180.0;       // per seed, after bring-up
    std::vector<std::uint64_t> seeds{1, 2, 3};
    std::string faultsFile;           // scripted plan overrides seeding
    std::string exportDir = "out/onelab_chaos";  // relative: concurrent trees never share it
    bool checkDeterminism = true;
    std::size_t jobs = 1;             // seeds run on this many workers
    /// Supervised leg: the LinkSupervisor owns recovery (in place of
    /// the backend's auto-redial) and the wedge invariant becomes
    /// "every supervisor reaches HEALTHY or FAILED_OVER".
    bool supervise = false;
};

struct SoakOutcome {
    bool ok = true;
    std::size_t injected = 0;
    std::size_t skipped = 0;
    std::string failure;
    double simSeconds = 0.0;   ///< simulated time covered by the soak
    double wallSeconds = 0.0;  ///< wall time the worker spent on it
};

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// One full soak: bring the fleet up, arm the plan, push traffic past
/// the fault horizon, then check the invariants. Telemetry lands in
/// `directory`.
SoakOutcome runSoak(const SoakOptions& options, std::uint64_t seed,
                    const std::string& directory) {
    SoakOutcome outcome;
    const auto wallStart = std::chrono::steady_clock::now();
    sim::Simulator* simPtr = nullptr;
    const auto stamp = [&outcome, wallStart, &simPtr] {
        outcome.wallSeconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - wallStart)
                                  .count();
        if (simPtr) outcome.simSeconds = sim::toSeconds(simPtr->now());
    };
    const auto fail = [&outcome, &stamp](std::string what) {
        outcome.ok = false;
        outcome.failure = std::move(what);
        // Freeze the black box with the breach on record (once per
        // run; repeat triggers are no-ops).
        obs::Tracer::instance().requestDump("invariant breach: " + outcome.failure);
        stamp();
        return outcome;
    };

    obs::beginRun();
    obs::Tracer::instance().setDumpPath(directory + "/" + obs::kFlightFile);
    obs::Profiler::instance().setEnabled(true);
    ppp::resetMagicEntropy();
    if (options.profile == "nightly") obs::Tracer::instance().setEnabled(false);

    // Root scope: fleet construction, plan generation and invariant
    // checks land here as self-time (deeper scopes subtract), so the
    // exported profile attributes (nearly) the whole window. Closed
    // before the export reads the totals.
    std::optional<obs::ProfileScope> harnessScope;
    harnessScope.emplace(obs::ProfileCategory::scenario_harness);

    scenario::FleetConfig config = scenario::makeUniformFleet(options.ues, seed);
    for (auto& site : config.umtsSites) {
        if (options.supervise) {
            site.supervise.enable = true;
        } else {
            site.autoRedial.enable = true;
            site.autoRedial.maxAttempts = 8;
        }
    }
    scenario::Fleet fleet{config};
    simPtr = &fleet.sim();
    // Stamp trace + flight entries with simulated time (the clocks
    // land in this point's RunContext-private instances).
    fleet.sim().attachLogClock();

    const auto started = fleet.startAll();
    if (!started.ok()) return fail("fleet start: " + started.error().message);
    const auto routed = fleet.addDestinationAll();
    if (!routed.ok()) return fail("fleet routing: " + routed.error().message);

    // The plan covers [now+10s, now+soak]; a scripted plan keeps its
    // absolute times (events already past are skipped at arm time).
    fault::FaultPlan plan;
    if (!options.faultsFile.empty()) {
        auto loaded = fault::FaultPlan::loadFile(options.faultsFile);
        if (!loaded.ok()) return fail("fault plan: " + loaded.error().message);
        plan = std::move(loaded).take();
    } else {
        fault::RandomPlanConfig planConfig;
        planConfig.seed = seed;
        planConfig.siteCount = options.ues;
        planConfig.start = fleet.now() + sim::seconds(10.0);
        planConfig.horizon = fleet.now() + sim::seconds(options.soakSeconds);
        planConfig.meanGap = sim::seconds(options.soakSeconds / 12.0);
        plan = fault::FaultPlan::random(planConfig);
    }
    fault::FaultInjector injector{fleet, plan};
    injector.arm();

    // Traffic in waves until the fault horizon passes, then a settle
    // tail long enough for every windowed fault to restore and every
    // redial backoff to either reconnect or exhaust. Every third wave
    // rides the byte-accurate TCP stack instead of UDP CBR, so the
    // fault plan lands on both datapaths: CBR exercises the
    // bearer/queue shapes, TCP exercises retransmission/RTO recovery
    // and connection teardown through the same injected faults. The
    // cadence is position-based, so a given seed replays the same
    // CBR/TCP interleaving byte for byte.
    const sim::SimTime horizon = fleet.now() + sim::seconds(options.soakSeconds);
    for (std::size_t wave = 0; fleet.now() < horizon; ++wave) {
        if (wave % 3 == 2)
            fleet.runTcpAll(20.0);
        else
            fleet.runCbrAll(20.0);
    }
    fleet.runFor(sim::seconds(240.0));

    outcome.injected = injector.stats().fired - injector.stats().skipped;
    outcome.skipped = injector.stats().skipped;
    if (plan.size() > 0 && outcome.injected == 0)
        return fail("plan had events but nothing was injected");

    // Invariant 2 (unsupervised): connected again, or terminally down
    // with a reason. Supervised: every supervisor reaches a terminal
    // state — HEALTHY (link recovered, flows failed back) or
    // FAILED_OVER (parked on wired, cooldown retry armed) — and no UE
    // is wedged without pending recovery work.
    if (options.supervise) {
        const sim::SimTime settleDeadline = fleet.now() + sim::seconds(600.0);
        const auto settled = [&fleet] {
            for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i) {
                const supervise::Health health = fleet.umtsSite(i).supervisor()->health();
                if (health != supervise::Health::healthy &&
                    health != supervise::Health::failed_over)
                    return false;
            }
            return true;
        };
        while (!settled() && fleet.now() < settleDeadline)
            fleet.runFor(sim::seconds(5.0));
        for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i) {
            scenario::UmtsNodeSite& site = fleet.umtsSite(i);
            const supervise::LinkSupervisor& sup = *site.supervisor();
            const umtsctl::UmtsState& state = site.backend().state();
            const bool healthyUp =
                sup.health() == supervise::Health::healthy && (state.connected || !state.locked);
            const bool parked = sup.health() == supervise::Health::failed_over;
            if (!healthyUp && !parked && !sup.hasPendingWork())
                return fail(site.hostname() + " is wedged: supervisor in " +
                            supervise::healthName(sup.health()) +
                            " with no pending recovery work");
        }
        // Every link loss the backend saw must have opened a
        // supervisor incident — the detection path is alive.
        const std::uint64_t losses =
            obs::Registry::instance().counter("fault.umtsctl.link_losses").value();
        const std::uint64_t incidents =
            obs::Registry::instance().counter("supervise.incidents").value();
        if (losses > 0 && incidents == 0)
            return fail("supervisor missed every link loss (losses=" +
                        std::to_string(losses) + ", incidents=0)");
    } else {
        for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i) {
            const umtsctl::UmtsState& state = fleet.umtsSite(i).backend().state();
            const bool recovered = state.connected;
            const bool surfaced = !state.locked && !state.lastError.empty();
            const bool untouched = !state.locked && state.lastError.empty();
            if (!recovered && !surfaced && !untouched)
                return fail(fleet.umtsSite(i).hostname() +
                            " is stuck: not connected, lock held, no terminal error");
        }
    }

    // Invariant 1: stop every site and demand a drained pool.
    for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i)
        (void)fleet.stopUmts(i);  // already-down sites report an error; fine
    fleet.runFor(sim::seconds(30.0));
    umts::CellCapacity& cell = fleet.operatorNetwork().cell();
    if (cell.uplinkAllocatedBps() != 0.0 || cell.downlinkAllocatedBps() != 0.0)
        return fail(util::format("capacity leak: uplink %g bps, downlink %g bps still "
                                 "allocated after full stop",
                                 cell.uplinkAllocatedBps(), cell.downlinkAllocatedBps()));

    harnessScope.reset();
    obs::Tracer::instance().setEnabled(false);
    const auto written = fleet.writeTelemetry(directory);
    if (!written.ok()) return fail("telemetry export: " + written.error().message);
    stamp();
    return outcome;
}

void usage(const char* argv0) {
    std::printf(
        "usage: %s [--profile pr|nightly] [--ues N] [--seconds S]\n"
        "          [--seeds a,b,c] [--faults plan.json] [--export dir]\n"
        "          [--supervise]  (LinkSupervisor owns recovery instead\n"
        "                          of backend auto-redial)\n"
        "          [--jobs N]   (0 = all hardware threads; per-seed\n"
        "                        outcomes and telemetry are identical\n"
        "                        to a serial run)\n"
        "          [--json path] (machine-readable results incl.\n"
        "                         sim-seconds-per-wall-second per seed)\n",
        argv0);
}

/// BENCH_chaos.json: per-seed outcomes plus the soak throughput figure
/// (simulated seconds per wall second), tracked over time.
bool writeResultsJson(const std::string& path, const SoakOptions& options,
                      const std::vector<SoakOutcome>& outcomes) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file) return false;
    double simTotal = 0.0;
    double wallTotal = 0.0;
    std::fprintf(file,
                 "{\"bench\":\"ext_chaos_soak\",\"profile\":\"%s\",\"ues\":%zu,"
                 "\"supervised\":%s,\"jobs\":%zu,\"seeds\":[",
                 options.profile.c_str(), options.ues,
                 options.supervise ? "true" : "false", options.jobs);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SoakOutcome& outcome = outcomes[i];
        simTotal += outcome.simSeconds;
        wallTotal += outcome.wallSeconds;
        std::fprintf(file,
                     "%s{\"seed\":%llu,\"ok\":%s,\"injected\":%zu,\"skipped\":%zu,"
                     "\"sim_seconds\":%.3f,\"wall_seconds\":%.3f,"
                     "\"sim_per_wall\":%.2f}",
                     i ? "," : "",
                     static_cast<unsigned long long>(options.seeds[i]),
                     outcome.ok ? "true" : "false", outcome.injected, outcome.skipped,
                     outcome.simSeconds, outcome.wallSeconds,
                     outcome.wallSeconds > 0.0 ? outcome.simSeconds / outcome.wallSeconds
                                               : 0.0);
    }
    std::fprintf(file,
                 "],\"total_sim_seconds\":%.3f,\"total_wall_seconds\":%.3f,"
                 "\"sim_per_wall\":%.2f}\n",
                 simTotal, wallTotal, wallTotal > 0.0 ? simTotal / wallTotal : 0.0);
    std::fclose(file);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    // A crashing soak should leave its black box behind.
    obs::installCrashDump();
    SoakOptions options;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--profile") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.profile = value;
            if (options.profile == "nightly") {
                options.soakSeconds = 3600.0;
                options.checkDeterminism = false;  // sim-hour runs; once is enough
            }
        } else if (arg == "--ues") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.ues = std::size_t(std::atoi(value));
        } else if (arg == "--seconds") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.soakSeconds = std::atof(value);
        } else if (arg == "--seeds") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.seeds.clear();
            std::stringstream list{value};
            std::string token;
            while (std::getline(list, token, ','))
                options.seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
        } else if (arg == "--faults") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.faultsFile = value;
        } else if (arg == "--export") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.exportDir = value;
        } else if (arg == "--jobs") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.jobs = bench::SweepRunner::parseJobsValue(value);
        } else if (arg == "--json") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            jsonPath = value;
        } else if (arg == "--supervise") {
            options.supervise = true;
        } else {
            usage(argv[0]);
            return arg == "--help" ? 0 : 2;
        }
    }
    if (options.seeds.empty()) { usage(argv[0]); return 2; }

    std::printf("=== Chaos soak: %zu-UE fleet, %s profile%s, %.0f s per seed, "
                "%zu job%s ===\n\n",
                options.ues, options.profile.c_str(),
                options.supervise ? " (supervised)" : "", options.soakSeconds, options.jobs,
                options.jobs == 1 ? "" : "s");

    // Seeds are independent soaks; run them as sweep points (each in
    // its own RunContext) and report in seed order once all are done.
    bench::SweepRunner runner{options.jobs};
    const std::vector<SoakOutcome> outcomes =
        runner.map<SoakOutcome>(options.seeds.size(), [&](std::size_t index) {
            const std::uint64_t seed = options.seeds[index];
            return runSoak(options, seed,
                           options.exportDir + "_seed" + std::to_string(seed));
        });

    bool allOk = true;
    for (std::size_t i = 0; i < options.seeds.size(); ++i) {
        const std::uint64_t seed = options.seeds[i];
        const SoakOutcome& outcome = outcomes[i];
        if (outcome.ok)
            std::printf("seed %llu: OK — %zu faults injected, %zu skipped "
                        "(no live target), invariants hold "
                        "(%.0f sim-s in %.1f wall-s, %.0fx)\n",
                        static_cast<unsigned long long>(seed), outcome.injected,
                        outcome.skipped, outcome.simSeconds, outcome.wallSeconds,
                        outcome.wallSeconds > 0.0
                            ? outcome.simSeconds / outcome.wallSeconds
                            : 0.0);
        else
            std::printf("seed %llu: FAIL — %s\n", static_cast<unsigned long long>(seed),
                        outcome.failure.c_str());
        allOk = allOk && outcome.ok;
    }

    if (!jsonPath.empty()) {
        if (writeResultsJson(jsonPath, options, outcomes))
            std::printf("results JSON: %s\n", jsonPath.c_str());
        else
            std::printf("WARNING: could not write %s\n", jsonPath.c_str());
    }

    if (allOk && options.checkDeterminism) {
        // Invariant 3: re-run the first seed and diff the exports.
        const std::uint64_t seed = options.seeds.front();
        const std::string dirA = options.exportDir + "_seed" + std::to_string(seed);
        const std::string dirB = dirA + "_repeat";
        // Replay through a one-job runner: the repeat sees the same
        // isolated RunContext a worker would, so this diff also pins
        // serial-equals-parallel telemetry.
        const SoakOutcome repeat = bench::SweepRunner{1}.map<SoakOutcome>(
            1, [&](std::size_t) { return runSoak(options, seed, dirB); })[0];
        if (!repeat.ok) {
            std::printf("determinism re-run FAILED: %s\n", repeat.failure.c_str());
            allOk = false;
        } else {
            const std::string metricsA = slurp(dirA + "/metrics.json");
            const std::string metricsB = slurp(dirB + "/metrics.json");
            const std::string traceA = slurp(dirA + "/trace.json");
            const std::string traceB = slurp(dirB + "/trace.json");
            const bool identical = !metricsA.empty() && metricsA == metricsB &&
                                   traceA == traceB;
            std::printf("determinism: seed %llu telemetry %s (%zu bytes)\n",
                        static_cast<unsigned long long>(seed),
                        identical ? "byte-identical" : "DIFFERS", metricsA.size());
            allOk = allOk && identical;
        }
    }

    std::printf("\nchaos soak: %s\n", allOk ? "PASS" : "FAIL");
    return allOk ? 0 : 1;
}
