// Adversary/isolation bench: seeded misbehaving-slice/UE
// personalities (src/adversary) attack an N-UE shared-cell fleet,
// once with the guard layer at its defaults and once with every guard
// knob off (the historic unguarded stack). Each cell measures both
// sides of the trust boundary:
//
//   damage  (guards off): the personality measurably degrades a
//           victim — FIFO saturation, storm-inflated re-registration,
//           goodput theft, evicted return-path state;
//   containment (guards on): the detection metric fires, the victim's
//           goodput/bring-up floor holds, no capacity leaks, no
//           backend wedges, and a same-seed replay reproduces the
//           exported telemetry byte for byte.
//
// Sweep: personality x guards on/off x attacker count. Emits a CSV
// row per cell and BENCH_adversary.json for CI trend tracking.
// Profiles: --profile pr (short, CI-blocking) or nightly.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "ppp/lcp.hpp"
#include "scenario/fleet.hpp"
#include "sweep_runner.hpp"
#include "util/strings.hpp"

using namespace onelab;

namespace {

struct AdvOptions {
    std::string profile = "pr";
    std::size_t ues = 3;
    std::uint64_t seed = 7;
    std::vector<std::size_t> attackerCounts{1};
    double waveSeconds = 12.0;  ///< per measurement wave
    std::string exportDir = "out/onelab_adversary";  // relative: concurrent trees never share it
    std::string csvPath;
    std::string jsonPath;
    bool checkDeterminism = true;
    std::size_t jobs = 1;
};

struct CellResult {
    adversary::PersonalityKind kind = adversary::PersonalityKind::fifo_flooder;
    bool guardsOn = true;
    std::size_t attackers = 1;
    bool ok = true;
    std::string failure;

    std::size_t actions = 0;  ///< hostile actions the driver performed
    std::size_t denied = 0;   ///< actions a guard measurably bounced

    double baselineKbps = 0.0;  ///< victim goodput before the attack
    double victimKbps = 0.0;    ///< victim goodput under attack
    double baselineRedialS = 0.0;  ///< storm: unloaded re-register+dial time
    double stormRedialS = 0.0;     ///< storm: re-register+dial under storm
    std::size_t attachBacklog = 0;    ///< storm: in-flight registrations sampled mid-storm
    bool victimStateSurvived = true;  ///< churner: idle return-path state
    std::size_t flowCount = 0;        ///< firewall table occupancy peak
    double attackWindowS = 0.0;       ///< arm -> cancel, sim seconds

    long long detections = 0;  ///< guard counters the personality tripped

    double simSeconds = 0.0;
    double wallSeconds = 0.0;
};

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::uint64_t counterValue(const char* name) {
    return obs::Registry::instance().counter(name).value();
}

/// Sum of the guard detection counters relevant to one personality.
std::uint64_t detectionCount(adversary::PersonalityKind kind) {
    using Kind = adversary::PersonalityKind;
    switch (kind) {
        case Kind::fifo_flooder:
            return counterValue("guard.vsys.throttled") +
                   counterValue("guard.vsys.queue_full") +
                   counterValue("guard.umtsctl.stats_denied");
        case Kind::at_abuser:
            return counterValue("guard.at.dial_rejected") +
                   counterValue("guard.at.line_overflow") +
                   counterValue("guard.at.escape_spam");
        case Kind::signaling_storm:
            return counterValue("guard.umts.attach_throttled") +
                   counterValue("guard.umts.attach_delayed");
        case Kind::greedy_ue:
            return counterValue("guard.cell.fairness_denials") +
                   counterValue("guard.cell.reclaims");
        case Kind::nat_churner:
            return counterValue("guard.firewall.quota_denied") +
                   counterValue("guard.nat.quota_denied") +
                   counterValue("guard.firewall.evicted") +
                   counterValue("guard.nat.evicted");
    }
    return 0;
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

double victimCbrKbps(scenario::Fleet& fleet, double seconds) {
    const std::vector<scenario::FleetCbrRun> runs = fleet.runCbrAll(seconds);
    const std::string& imsi = fleet.umtsSite(0).imsi();
    for (const scenario::FleetCbrRun& run : runs)
        if (run.imsi == imsi) return run.summary.meanBitrateKbps;
    return 0.0;
}

/// Victim-only CBR wave (the greedy-UE cell): with nobody else
/// pushing traffic, the honest victim earns the cell's one 384 kbps
/// upgrade after the grant delay — exactly the capacity a greedy
/// neighbour steals.
double victimSoloCbrKbps(scenario::Fleet& fleet, double seconds) {
    return fleet.runCbr(0, seconds).summary.meanBitrateKbps;
}

/// Storm measurement: tear the victim's supervisor down AND force the
/// card to drop its registration (stop alone keeps the modem camped —
/// a redial then never touches the attach path the storm congests).
double measuredRedialSeconds(scenario::Fleet& fleet, sim::SimTime timeout,
                             std::string& error) {
    const sim::SimTime t0 = fleet.now();
    (void)fleet.stopUmts(0);
    fleet.umtsSite(0).card().reattach();
    const auto restarted = fleet.startUmts(0, timeout);
    if (!restarted.ok()) {
        error = restarted.error().message;
        return -1.0;
    }
    return sim::toSeconds(fleet.now() - t0);
}

double victimTcpKbps(scenario::Fleet& fleet, double seconds) {
    const scenario::FleetTcpRun run = fleet.runTcp(0, seconds);
    return run.summary.meanBitrateKbps;
}

/// One sweep cell: a fresh fleet, one personality (x attackerCount),
/// guards on or off, measured against a same-cell baseline.
CellResult runCell(const AdvOptions& options, adversary::PersonalityKind kind,
                   bool guardsOn, std::size_t attackerCount, const std::string& directory) {
    using Kind = adversary::PersonalityKind;
    CellResult cell;
    cell.kind = kind;
    cell.guardsOn = guardsOn;
    cell.attackers = attackerCount;
    const auto wallStart = std::chrono::steady_clock::now();
    sim::Simulator* simPtr = nullptr;
    const auto stamp = [&cell, wallStart, &simPtr] {
        cell.wallSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wallStart)
                               .count();
        if (simPtr) cell.simSeconds = sim::toSeconds(simPtr->now());
    };
    const auto fail = [&cell, &stamp](std::string what) {
        cell.ok = false;
        cell.failure = std::move(what);
        obs::Tracer::instance().requestDump("adversary breach: " + cell.failure);
        stamp();
        return cell;
    };

    obs::beginRun();
    obs::Tracer::instance().setDumpPath(directory + "/" + obs::kFlightFile);
    ppp::resetMagicEntropy();
    if (options.profile == "nightly") obs::Tracer::instance().setEnabled(false);

    scenario::FleetConfig config = scenario::makeUniformFleet(options.ues, options.seed);
    // The churner needs the NAT leg of the GGSN up to attack it.
    if (kind == Kind::nat_churner) config.operatorProfile.natSubscribers = true;
    if (!guardsOn) {
        config.operatorProfile.signalingGuard.enabled = false;
        config.operatorProfile.natGuard.perSubscriberQuota = 0;
        config.operatorProfile.cellFairnessClamp = false;
    }
    for (auto& site : config.umtsSites) {
        site.autoRedial.enable = true;
        site.autoRedial.maxAttempts = 8;
        site.fifoGuard.enabled = guardsOn;
    }
    scenario::Fleet fleet{config};
    simPtr = &fleet.sim();
    fleet.sim().attachLogClock();
    if (!guardsOn) {
        // The historic unhardened firmware: no dial validation, no
        // line cap (pushed out of reach).
        for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i) {
            modem::AtEngine& engine = fleet.umtsSite(i).card().atEngine();
            engine.setDialValidation(false);
            engine.setMaxLineLength(std::size_t(1) << 20);
        }
    }

    const auto started = fleet.startAll();
    if (!started.ok()) return fail("fleet start: " + started.error().message);
    const auto routed = fleet.addDestinationAll();
    if (!routed.ok()) return fail("fleet routing: " + routed.error().message);

    // The greedy cell needs waves longer than the upgrade grant delay
    // (40-52 s): the victim's honest upgrade must land inside the wave
    // for the theft of it to show up in goodput.
    const double greedyWave = std::max(options.waveSeconds, 80.0);

    // --- same-cell baseline, before any attacker is armed ---
    if (kind == Kind::signaling_storm) {
        std::string redialError;
        cell.baselineRedialS =
            measuredRedialSeconds(fleet, sim::seconds(300.0), redialError);
        if (cell.baselineRedialS < 0.0)
            return fail("baseline redial: " + redialError);
    } else if (kind == Kind::greedy_ue) {
        cell.baselineKbps = victimSoloCbrKbps(fleet, greedyWave);
        // Bounce the victim's session so its fat wave grant returns to
        // the pool: the capacity at stake must be up for grabs when
        // the greedy neighbour arrives, exactly as it is for any UE
        // bringing a fresh PDP context up.
        (void)fleet.stopUmts(0);
        const auto rebuilt = fleet.startUmts(0, sim::seconds(120.0));
        if (!rebuilt.ok()) return fail("victim rebuild: " + rebuilt.error().message);
        // The bounce dropped the ppp route; re-pin the measurement
        // flow to the UMTS leg (otherwise it silently rides Ethernet).
        const auto rerouted = fleet.addUmtsDestination(
            0, fleet.wiredSite(0).address().str() + "/32", sim::seconds(5.0));
        if (!rerouted.ok()) return fail("victim reroute: " + rerouted.error().message);
    } else if (kind == Kind::nat_churner) {
        cell.baselineKbps = victimTcpKbps(fleet, options.waveSeconds);
        // Park two quiet victim flows: established state a well-behaved
        // subscriber holds while idle (a control connection). The churn
        // must not be able to evict them.
        if (umts::UmtsSession* victim = victimSession(fleet))
            (void)fleet.operatorNetwork().injectFlowChurn(victim->subscriberAddress(),
                                                          net::Ipv4Address{192, 0, 2, 1},
                                                          7000, 2);
    } else {
        cell.baselineKbps = victimCbrKbps(fleet, options.waveSeconds);
    }

    // --- arm the personalities ---
    std::vector<adversary::AdversaryConfig> attackers;
    for (std::size_t k = 0; k < attackerCount; ++k) {
        adversary::AdversaryConfig attacker;
        attacker.kind = kind;
        attacker.start = fleet.now() + sim::seconds(2.0);
        attacker.duration = sim::seconds(600.0);  // closed via cancelAll below
        attacker.seed = options.seed * 1000 + k;
        switch (kind) {
            case Kind::fifo_flooder:
            case Kind::at_abuser:
                attacker.site = 0;  // the victim's own node
                break;
            case Kind::greedy_ue:
                // Greedy UEs are other sites sharing the victim's cell.
                attacker.site = int(1 + (k % std::max<std::size_t>(1, options.ues - 1)));
                break;
            case Kind::signaling_storm:
            case Kind::nat_churner:
                attacker.site = int(k);  // namespace tag only
                break;
        }
        if (kind == Kind::nat_churner) attacker.intensity = 4.0;
        attackers.push_back(attacker);
    }
    adversary::AdversaryDriver driver{fleet, attackers};
    const sim::SimTime armAt = fleet.now();
    driver.arm();

    // --- measurement under attack ---
    if (kind == Kind::signaling_storm) {
        fleet.runFor(sim::seconds(15.0));  // let the attach backlog build
        cell.attachBacklog = fleet.operatorNetwork().attachBacklog();
        std::string redialError;
        cell.stormRedialS =
            measuredRedialSeconds(fleet, sim::seconds(600.0), redialError);
        if (cell.stormRedialS < 0.0) return fail("storm redial: " + redialError);
    } else if (kind == Kind::nat_churner) {
        fleet.runFor(sim::seconds(45.0));  // churn against an idle victim
        cell.flowCount = fleet.operatorNetwork().firewallFlowCount();
        if (umts::UmtsSession* victim = victimSession(fleet))
            cell.victimStateSurvived =
                fleet.operatorNetwork().hasFlowStateFor(victim->subscriberAddress());
        cell.victimKbps = victimTcpKbps(fleet, options.waveSeconds);
    } else if (kind == Kind::greedy_ue) {
        fleet.runFor(sim::seconds(3.0));  // greedy grabs (or gets paced) now
        cell.victimKbps = victimSoloCbrKbps(fleet, greedyWave);
    } else {
        fleet.runFor(sim::seconds(3.0));  // window opens
        cell.victimKbps = victimCbrKbps(fleet, options.waveSeconds);
        if (kind == Kind::fifo_flooder || kind == Kind::at_abuser)
            fleet.runFor(sim::seconds(10.0));  // sustained abuse past the wave
    }

    driver.cancelAll();
    cell.attackWindowS = sim::toSeconds(fleet.now() - armAt);
    fleet.runFor(sim::seconds(10.0));

    const adversary::AttackerStats totals = driver.totals();
    cell.actions = totals.actions;
    cell.denied = totals.denied;
    cell.detections = (long long)(detectionCount(kind));

    // --- invariants every cell must hold ---
    for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i)
        (void)fleet.stopUmts(i);
    fleet.runFor(sim::seconds(30.0));
    umts::CellCapacity& cellPool = fleet.operatorNetwork().cell();
    if (cellPool.uplinkAllocatedBps() != 0.0 || cellPool.downlinkAllocatedBps() != 0.0)
        return fail(util::format("capacity leak after full stop: uplink %g bps, downlink %g bps",
                                 cellPool.uplinkAllocatedBps(),
                                 cellPool.downlinkAllocatedBps()));
    for (std::size_t i = 0; i < fleet.umtsSiteCount(); ++i) {
        const umtsctl::UmtsState& state = fleet.umtsSite(i).backend().state();
        if (state.locked && !state.connected)
            return fail(fleet.umtsSite(i).hostname() +
                        " wedged: lock held while disconnected");
    }
    if (cell.actions == 0) return fail("adversary performed no actions");

    // --- personality-specific assertions ---
    // The attackers run from `start` (arm + 2 s) until cancelAll.
    const double window = std::max(0.0, cell.attackWindowS - 2.0);
    const std::size_t barringLimit = config.operatorProfile.signalingGuard.barringLimit;
    if (guardsOn) {
        switch (kind) {
            case Kind::fifo_flooder: {
                // Admitted hostile rate must be pinned near the token
                // budget while the flood ran far above it.
                const std::size_t admitted = cell.actions - cell.denied;
                const double budget = 10.0 * window + 30.0 + 50.0;
                if (cell.denied == 0)
                    return fail("flooder was never throttled with guards on");
                if (double(admitted) > budget)
                    return fail("flooder admitted " + std::to_string(admitted) +
                                " requests, budget " + std::to_string(budget));
                break;
            }
            case Kind::at_abuser:
                if (cell.detections <= 0)
                    return fail("AT abuse ran but no guard.at.* detection fired");
                if (cell.victimKbps < 0.35 * cell.baselineKbps)
                    return fail("victim goodput collapsed under AT abuse with guards on: " +
                                std::to_string(cell.victimKbps) + " vs baseline " +
                                std::to_string(cell.baselineKbps));
                break;
            case Kind::signaling_storm:
                // Barring bounds the backlog; the victim's re-attach
                // may lose a few barred retries to the storm but must
                // complete within a bounded window.
                if (cell.attachBacklog > barringLimit + 2)
                    return fail("attach backlog " + std::to_string(cell.attachBacklog) +
                                " exceeds barring limit " + std::to_string(barringLimit));
                if (cell.detections <= 0)
                    return fail("storm ran but the signaling guard never fired");
                if (cell.stormRedialS > 90.0)
                    return fail("storm redial took " + std::to_string(cell.stormRedialS) +
                                " s despite barring (baseline " +
                                std::to_string(cell.baselineRedialS) + " s)");
                break;
            case Kind::greedy_ue:
                if (cell.detections <= 0)
                    return fail("greedy UE ran but the fairness clamp never fired");
                if (cell.victimKbps < 0.5 * cell.baselineKbps)
                    return fail("victim goodput under greedy UE fell below floor: " +
                                std::to_string(cell.victimKbps) + " vs baseline " +
                                std::to_string(cell.baselineKbps));
                break;
            case Kind::nat_churner:
                if (!cell.victimStateSurvived)
                    return fail("victim return-path state evicted despite quota");
                if (cell.detections <= 0)
                    return fail("churn ran but no NAT/firewall guard fired");
                if (cell.victimKbps < 0.5 * cell.baselineKbps)
                    return fail("victim TCP goodput under churn fell below floor");
                break;
        }
    } else {
        // Guards off: the personality must measurably degrade its
        // victim — otherwise the guard would be protecting against
        // nothing and the whole cell is vacuous.
        switch (kind) {
            case Kind::fifo_flooder: {
                const std::size_t admitted = cell.actions - cell.denied;
                if (double(admitted) < 3.0 * (10.0 * window + 30.0))
                    return fail("unguarded flooder failed to saturate the FIFO (" +
                                std::to_string(admitted) + " admitted)");
                break;
            }
            case Kind::at_abuser: {
                // The mitigation knobs are off, so nothing may have
                // blocked the hostile lines (the always-on escape-spam
                // *detector* still counts — detection without teeth).
                const std::uint64_t mitigated = counterValue("guard.at.dial_rejected") +
                                                counterValue("guard.at.line_overflow");
                if (mitigated != 0)
                    return fail("guards off but AT mitigations fired");
                break;
            }
            case Kind::signaling_storm:
                if (cell.attachBacklog <= barringLimit)
                    return fail("unguarded storm backlog stayed at " +
                                std::to_string(cell.attachBacklog) +
                                " (no unbounded growth)");
                if (cell.stormRedialS < 2.0 * cell.baselineRedialS)
                    return fail("unguarded storm did not slow the victim's redial (" +
                                std::to_string(cell.stormRedialS) + " s vs baseline " +
                                std::to_string(cell.baselineRedialS) + " s)");
                break;
            case Kind::greedy_ue:
                if (cell.victimKbps > 0.9 * cell.baselineKbps)
                    return fail("unguarded greedy UE did not dent the victim (" +
                                std::to_string(cell.victimKbps) + " vs baseline " +
                                std::to_string(cell.baselineKbps) + " kbps)");
                break;
            case Kind::nat_churner:
                if (cell.victimStateSurvived)
                    return fail("unguarded churn failed to evict the victim's state");
                break;
        }
    }

    obs::Tracer::instance().setEnabled(false);
    const auto written = fleet.writeTelemetry(directory);
    if (!written.ok()) return fail("telemetry export: " + written.error().message);
    stamp();
    return cell;
}

void usage(const char* argv0) {
    std::printf(
        "usage: %s [--profile pr|nightly] [--ues N] [--seed S]\n"
        "          [--attackers a,b,c] (attacker-count sweep values)\n"
        "          [--wave-seconds S]  (per measurement wave)\n"
        "          [--export dir] [--csv path] [--json path]\n"
        "          [--jobs N] [--no-determinism]\n",
        argv0);
}

const char* cellLabel(const CellResult& cell, std::string& storage) {
    storage = std::string(adversary::kindName(cell.kind)) +
              (cell.guardsOn ? "/guarded" : "/open") + "/x" +
              std::to_string(cell.attackers);
    return storage.c_str();
}

bool writeCsv(const std::string& path, const std::vector<CellResult>& cells) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file) return false;
    std::fprintf(file,
                 "personality,guards,attackers,ok,actions,denied,baseline_kbps,"
                 "victim_kbps,baseline_redial_s,storm_redial_s,attach_backlog,"
                 "victim_state_survived,flow_count,detections,attack_window_s,"
                 "sim_seconds,wall_seconds\n");
    for (const CellResult& cell : cells)
        std::fprintf(file,
                     "%s,%s,%zu,%d,%zu,%zu,%.2f,%.2f,%.2f,%.2f,%zu,%d,%zu,%lld,%.1f,%.1f,"
                     "%.2f\n",
                     adversary::kindName(cell.kind), cell.guardsOn ? "on" : "off",
                     cell.attackers, cell.ok ? 1 : 0, cell.actions, cell.denied,
                     cell.baselineKbps, cell.victimKbps, cell.baselineRedialS,
                     cell.stormRedialS, cell.attachBacklog,
                     cell.victimStateSurvived ? 1 : 0, cell.flowCount, cell.detections,
                     cell.attackWindowS, cell.simSeconds, cell.wallSeconds);
    std::fclose(file);
    return true;
}

bool writeResultsJson(const std::string& path, const AdvOptions& options,
                      const std::vector<CellResult>& cells, bool allOk) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file) return false;
    std::fprintf(file, "{\"bench\":\"ext_adversary\",\"profile\":\"%s\",\"ues\":%zu,"
                       "\"seed\":%llu,\"cells\":[",
                 options.profile.c_str(), options.ues,
                 static_cast<unsigned long long>(options.seed));
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult& cell = cells[i];
        std::fprintf(
            file,
            "%s{\"personality\":\"%s\",\"guards\":%s,\"attackers\":%zu,\"ok\":%s,"
            "\"actions\":%zu,\"denied\":%zu,\"baseline_kbps\":%.2f,"
            "\"victim_kbps\":%.2f,\"baseline_redial_s\":%.2f,\"storm_redial_s\":%.2f,"
            "\"attach_backlog\":%zu,\"victim_state_survived\":%s,\"flow_count\":%zu,"
            "\"detections\":%lld,\"attack_window_s\":%.1f,"
            "\"failure\":\"%s\",\"sim_seconds\":%.1f,\"wall_seconds\":%.2f}",
            i ? "," : "", adversary::kindName(cell.kind), cell.guardsOn ? "true" : "false",
            cell.attackers, cell.ok ? "true" : "false", cell.actions, cell.denied,
            cell.baselineKbps, cell.victimKbps, cell.baselineRedialS, cell.stormRedialS,
            cell.attachBacklog, cell.victimStateSurvived ? "true" : "false", cell.flowCount,
            cell.detections, cell.attackWindowS, cell.failure.c_str(), cell.simSeconds,
            cell.wallSeconds);
    }
    std::fprintf(file, "],\"all_ok\":%s}\n", allOk ? "true" : "false");
    std::fclose(file);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    obs::installCrashDump();
    AdvOptions options;
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
                options.attackerCounts = {1, 2};
                options.waveSeconds = 30.0;
            }
        } else if (arg == "--ues") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.ues = std::size_t(std::atoi(value));
        } else if (arg == "--seed") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--attackers") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.attackerCounts.clear();
            std::stringstream list{value};
            std::string token;
            while (std::getline(list, token, ','))
                options.attackerCounts.push_back(std::size_t(std::atoi(token.c_str())));
        } else if (arg == "--wave-seconds") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.waveSeconds = std::atof(value);
        } else if (arg == "--export") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.exportDir = value;
        } else if (arg == "--csv") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.csvPath = value;
        } else if (arg == "--json") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.jsonPath = value;
        } else if (arg == "--jobs") {
            const char* value = next();
            if (!value) { usage(argv[0]); return 2; }
            options.jobs = bench::SweepRunner::parseJobsValue(value);
        } else if (arg == "--no-determinism") {
            options.checkDeterminism = false;
        } else {
            usage(argv[0]);
            return arg == "--help" ? 0 : 2;
        }
    }

    struct Cell {
        adversary::PersonalityKind kind;
        bool guardsOn;
        std::size_t attackers;
    };
    std::vector<Cell> plan;
    for (std::size_t kind = 0; kind < adversary::kPersonalityKindCount; ++kind)
        for (const std::size_t count : options.attackerCounts)
            for (const bool guardsOn : {false, true})
                plan.push_back({adversary::PersonalityKind(kind), guardsOn, count});

    std::printf("=== Adversary bench: %zu-UE fleet, %s profile, %zu cells, "
                "%zu job%s ===\n\n",
                options.ues, options.profile.c_str(), plan.size(), options.jobs,
                options.jobs == 1 ? "" : "s");

    bench::SweepRunner runner{options.jobs};
    const std::vector<CellResult> cells =
        runner.map<CellResult>(plan.size(), [&](std::size_t index) {
            const Cell& cell = plan[index];
            const std::string directory =
                options.exportDir + "_" + adversary::kindName(cell.kind) +
                (cell.guardsOn ? "_on" : "_off") + "_x" + std::to_string(cell.attackers);
            return runCell(options, cell.kind, cell.guardsOn, cell.attackers, directory);
        });

    bool allOk = true;
    std::string label;
    for (const CellResult& cell : cells) {
        if (cell.ok)
            std::printf("%-28s OK — %zu actions, %zu denied, victim %.0f/%.0f kbps, "
                        "redial %.1f/%.1f s (%.0f sim-s in %.1f wall-s)\n",
                        cellLabel(cell, label), cell.actions, cell.denied, cell.victimKbps,
                        cell.baselineKbps, cell.stormRedialS, cell.baselineRedialS,
                        cell.simSeconds, cell.wallSeconds);
        else
            std::printf("%-28s FAIL — %s\n", cellLabel(cell, label), cell.failure.c_str());
        allOk = allOk && cell.ok;
    }

    if (!options.csvPath.empty()) {
        if (writeCsv(options.csvPath, cells))
            std::printf("CSV: %s\n", options.csvPath.c_str());
        else
            std::printf("WARNING: could not write %s\n", options.csvPath.c_str());
    }
    if (!options.jsonPath.empty()) {
        if (writeResultsJson(options.jsonPath, options, cells, allOk))
            std::printf("results JSON: %s\n", options.jsonPath.c_str());
        else
            std::printf("WARNING: could not write %s\n", options.jsonPath.c_str());
    }

    if (allOk && options.checkDeterminism) {
        // Same-seed replay of one guarded cell must reproduce the
        // exported telemetry byte for byte — with adversaries armed.
        const adversary::PersonalityKind kind = adversary::PersonalityKind::greedy_ue;
        const std::string dirA = options.exportDir + "_greedy_ue_on_x" +
                                 std::to_string(options.attackerCounts.front());
        const std::string dirB = dirA + "_repeat";
        const CellResult repeat = bench::SweepRunner{1}.map<CellResult>(
            1, [&](std::size_t) {
                return runCell(options, kind, true, options.attackerCounts.front(), dirB);
            })[0];
        if (!repeat.ok) {
            std::printf("determinism re-run FAILED: %s\n", repeat.failure.c_str());
            allOk = false;
        } else {
            std::string differing;
            for (const char* file : {obs::kMetricsFile, obs::kTraceFile}) {
                const std::string a = slurp(dirA + "/" + file);
                if (!a.empty() && a == slurp(dirB + "/" + file)) continue;
                differing += differing.empty() ? "" : ", ";
                differing += file;
            }
            if (differing.empty())
                std::printf("determinism: greedy_ue guarded replay byte-identical (%s, %s)\n",
                            obs::kMetricsFile, obs::kTraceFile);
            else
                std::printf("determinism: greedy_ue guarded replay DIFFERS in %s\n",
                            differing.c_str());
            allOk = allOk && differing.empty();
        }
    }

    std::printf("\nadversary bench: %s\n", allOk ? "PASS" : "FAIL");
    return allOk ? 0 : 1;
}
