#!/usr/bin/env python3
"""The repository benchmark.

Runs one workload of BENCHMARK.json from the root of a checkout:

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 35 --trace 0

It builds perfbench_driver (a Release build of ../src plus driver.cpp)
under .bench_build/, refuses to time a Debug or sanitizer build, runs
the workload for --seconds in one fresh driver process, checks the
program's outputs and prints every metric with its unit. The last line
of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are BENCHMARK.json's
end_to_end set, with --trace 1 its per_layer set. Any failed output
check makes the command exit non-zero.

--workload all runs every workload, untraced and then traced.

Repetitions. The driver repeats the workload with seeds derived from
--seed until --seconds would be exceeded (paper_figs starts with the
paper seed 42, whose fig CSVs must match the golden digests in
tests/bench/test_fig_golden.cpp). The traced run (--trace 1) alternates
an untraced and a traced repetition on the same seed; the traced one
enables the program's obs::Profiler and records a span around each
public call the driver makes, from which the per-layer self times come.

Host contention. Other tenants of a shared host slow this program by up
to ~1.5x for seconds at a time. The driver times a fixed reference
kernel at call boundaries (at most every 0.5 s); each stretch of window
time between two samples is divided by their mean, and
REFERENCE_NOMINAL_S (the kernel on the uncontended reference box) turns
the sum back into seconds. sim_per_wall and setup_s are reported on
that scale; the unscaled figures are printed above the result.

Layers and the end-to-end metric each should move are in layers.json.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
GOLDEN_SOURCE = os.path.join(ROOT, "tests", "bench", "test_fig_golden.cpp")

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIMED_BUILD_TYPES = ("Release", "RelWithDebInfo")
SETUP_PROBES = 11
# The driver's reference kernel on the 4-vCPU reference box, uncontended.
REFERENCE_NOMINAL_S = 0.009
DRIVER_LIMIT_S = 170.0  # the whole command must end within 180 s

PERSONALITIES = ("fifo_flooder", "at_abuser", "signaling_storm", "greedy_ue", "nat_churner")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# --- statistics ---------------------------------------------------------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


# --- metric definitions -------------------------------------------------


def valid_name(name):
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit):
    return bool(UNIT_RE.fullmatch(unit))


def load_definition(path):
    """BENCHMARK.json, with every metric name and unit validated."""
    with open(path) as handle:
        definition = json.load(handle)
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in definition[section]:
            name = entry["name"]
            if not valid_name(name) or name in names:
                raise BenchError("invalid or repeated name in BENCHMARK.json: %r" % name)
            names.add(name)
            if "unit" in entry and not valid_unit(entry["unit"]):
                raise BenchError("invalid unit for %s: %r" % (name, entry["unit"]))
    return definition


# --- spans --------------------------------------------------------------


def self_times(spans):
    """Self time (ns) of each span: its duration minus the time its child
    spans cover, minus the program's profiled time inside it that no child
    span already holds."""
    child_wall = [0] * len(spans)
    child_prof = [0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            child_wall[parent] += span["t1"] - span["t0"]
            child_prof[parent] += span["prof1"] - span["prof0"]
    out = []
    for i, span in enumerate(spans):
        wall = span["t1"] - span["t0"] - child_wall[i]
        profiled = span["prof1"] - span["prof0"] - child_prof[i]
        out.append(wall - profiled)
    return out


def span_totals(spans, key):
    """Sum of key(span) per span name."""
    totals = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0) + key(span)
    return totals


def self_time_ledger(result):
    """Seconds of traced wall time per layer: the program's profiler
    categories plus the self time of each span name. The 'rep' spans'
    self time is benchmark glue between calls: unattributed."""
    spans = result["spans"]
    ledger = {}
    for category, value in result["profile"].items():
        ledger[category] = value["self_ns"] / 1e9
    for span, own in zip(spans, self_times(spans)):
        name = "unattributed" if span["name"] == "rep" else "call." + span["name"]
        ledger[name] = ledger.get(name, 0.0) + own / 1e9
    return ledger


def traced_wall_s(result):
    return sum(s["t1"] - s["t0"] for s in result["spans"] if s["parent"] < 0) / 1e9


# --- metrics ------------------------------------------------------------


def sim_per_wall(reps):
    window = sum(r["window_s"] for r in reps)
    return sum(r["sim_s"] for r in reps) / window if window > 0 else 0.0


def reference_scale(samples):
    """Host slowdown the reference kernel saw: 1.0 on the uncontended box."""
    return median(samples) / REFERENCE_NOMINAL_S


def normalized_sim_per_wall(reps):
    """sim_per_wall on the uncontended reference box: the driver divides
    each stretch of window time between two reference samples by the
    samples' mean (window_per_reference); REFERENCE_NOMINAL_S turns that
    back into seconds."""
    window = REFERENCE_NOMINAL_S * sum(r["window_per_reference"] for r in reps)
    return sum(r["sim_s"] for r in reps) / window if window > 0 else 0.0


def end_to_end_metrics(result, setup_samples, peak_rss_kb):
    """setup_samples: (setup seconds, reference kernel seconds) per probe."""
    reps = [r for r in result["reps"] if not r["traced"]]
    return {
        "sim_per_wall": normalized_sim_per_wall(reps),
        "setup_s": median([setup / reference_scale([ref]) for setup, ref in setup_samples]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "artifact_mb": median([r["artifact_bytes"] for r in reps]) / 1e6,
    }


def per_layer_metrics(result):
    traced = [r for r in result["reps"] if r["traced"]]
    untraced = [r for r in result["reps"] if not r["traced"]]
    n = float(len(traced))
    spans = result["spans"]
    profile = result["profile"]
    counters = result["counters"]
    observed = result["observed"]
    wall_ns = traced_wall_s(result) * 1e9
    durations = span_totals(spans, lambda s: s["t1"] - s["t0"])
    span_events = span_totals(spans, lambda s: s["ev1"] - s["ev0"])
    span_sim = span_totals(spans, lambda s: s["sim1"] - s["sim0"] if s["sim0"] >= 0 else 0.0)

    def span_s(name):
        return durations.get(name, 0) / 1e9 / n

    def self_s(category):
        return profile[category]["self_ns"] / 1e9 / n

    def calls(category):
        return profile[category]["calls"] / n

    pooled = counters["sim.pool.buffers_allocated"] + counters["sim.pool.buffers_reused"]
    untraced_events = sum(r["events"] for r in untraced)
    ledger = self_time_ledger(result)
    outside = ledger.get("unattributed", 0.0) + sum(
        v for k, v in ledger.items() if k.startswith("call.bench."))
    metrics = {
        "sim.events": counters["sim.events_executed"] / n,
        "sim.ns_per_event": (sum(r["window_s"] for r in untraced) * 1e9 / untraced_events
                             if untraced_events else 0.0),
        "sim.event.self_s": self_s("sim.event"),
        "sim.event.self_frac": profile["sim.event"]["self_ns"] / wall_ns,
        "sim.run.self_s": self_s("sim.run"),
        "sim.pipe.self_s": self_s("sim.pipe"),
        "sim.pipe.calls": calls("sim.pipe"),
        "sim.pool.reuse_ratio": counters["sim.pool.buffers_reused"] / pooled if pooled else 0.0,
        "umts.cell.denied_upgrades": counters["umts.cell.denied_upgrades"] / n,
        "umts.firewall.evictions": counters["guard.firewall.evicted"] / n,
        "umts.firewall.flows_peak": float(observed["firewall_flows_peak"]),
        "net.tcp.wave_s": span_s("net.tcp.wave"),
        "net.tcp.retransmissions": observed["tcp_retransmissions"] / n,
        "net.tcp.timeouts": observed["tcp_timeouts"] / n,
        "net.queue.dropped": counters["net.queue.dropped"] / n,
        "ctl.start.wall_s": span_s("ctl.start"),
        "ctl.start.sim_s": span_sim.get("ctl.start", 0.0) / n,
        "ctl.start.events": span_events.get("ctl.start", 0) / n,
        "modem.at.commands": counters["modem.at.commands"] / n,
        "ctl.redials": (counters["recovery.redial.attempts"] +
                        counters["supervise.ladder.redial"]) / n,
        "ctl.start_failures": observed["start_failures"] / n,
        "ditg.decode.self_s": self_s("ditg.decode"),
        "ditg.delivered_ratio": (observed["packets_received"] / observed["packets_sent"]
                                 if observed["packets_sent"] else 0.0),
        "obs.export.wall_s": span_s("obs.export"),
        "obs.trace_bytes": observed["trace_bytes"] / n,
        "obs.metrics_bytes": observed["metrics_bytes"] / n,
        "fault.injected": observed["faults_injected"] / n,
        "fault.skipped": observed["faults_skipped"] / n,
        "supervise.self_s": self_s("supervise"),
        "supervise.incidents": counters["supervise.incidents"] / n,
        "scenario.build_s": span_s("scenario.build"),
        "wave.cbr.wall_s": span_s("wave.cbr"),
        "path.umts.wall_s": span_s("path.umts"),
        "path.eth.wall_s": span_s("path.eth"),
        "trace.overhead_frac": 1.0 - sim_per_wall(traced) / sim_per_wall(untraced),
        "trace.attributed_frac": 1.0 - outside * 1e9 / wall_ns,
    }
    for stage in ("ppp.hdlc_encode", "ppp.hdlc_decode", "ppp.pppd", "umts.rlc_queue"):
        metrics[stage + ".self_s"] = self_s(stage)
        metrics[stage + ".calls"] = calls(stage)
    for personality in PERSONALITIES:
        metrics["adversary.cell.%s.wall_s" % personality] = span_s(
            "adversary.cell." + personality)
    return metrics


# --- output checks ------------------------------------------------------


def golden_digests(path):
    """fig id -> MD5 from the golden-figure test's kGoldenFigures table."""
    with open(path) as handle:
        text = handle.read()
    return dict(re.findall(r'\{"(fig\d_\w+)",[^{}]*?"([0-9a-f]{32})"\}', text))


def check_goldens(run_dir, goldens):
    """Failures among the seed-42 fig CSVs compared with their digests."""
    failures = []
    if len(goldens) != 7:
        return ["expected 7 golden fig digests in %s, found %d" % (GOLDEN_SOURCE, len(goldens))]
    for fig, digest in sorted(goldens.items()):
        path = os.path.join(run_dir, "golden", fig + ".csv")
        try:
            with open(path, "rb") as handle:
                actual = hashlib.md5(handle.read()).hexdigest()
        except OSError:
            actual = "missing"
        if actual != digest:
            failures.append("%s at seed 42: CSV MD5 %s, golden %s" % (fig, actual, digest))
    return failures


def check_build(build):
    if build["type"] not in TIMED_BUILD_TYPES or not build["optimized"]:
        raise BenchError("refusing to time a %r build (flags %r)" % (build["type"], build["flags"]))
    if build["sanitized"] or "-fsanitize" in build["flags"] or not build["ndebug"]:
        raise BenchError("refusing to time a sanitizer or assertion build (flags %r)"
                         % build["flags"])


# --- build and run ------------------------------------------------------


def build_driver():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                raise BenchError("build failed: %s (see %s)" % (" ".join(step), log_path))


def driver_args(args, run_dir):
    return [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", run_dir]


def setup_samples(args, run_dir):
    """Process start plus world construction, measured in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        command = driver_args(args, run_dir) + ["--setup-only", "--spawn-ns",
                                                str(time.monotonic_ns())]
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=30, check=False)
        if done.returncode != 0:
            raise BenchError("setup probe exited with %d" % done.returncode)
        probe = json.loads(done.stdout.decode().strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["reference_s"]))
    return samples


def run_driver(args, run_dir):
    """Run the workload in a fresh process; returns (result, peak RSS in KiB)."""
    log_path = os.path.join(run_dir, "driver.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(driver_args(args, run_dir), stdout=log, stderr=log)
        deadline = time.monotonic() + DRIVER_LIMIT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise BenchError("driver exceeded %.0f s" % DRIVER_LIMIT_S)
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("driver exited with %d (see %s)" % (proc.returncode, log_path))
    with open(os.path.join(run_dir, "driver.json")) as handle:
        return json.load(handle), usage.ru_maxrss


def clean(run_dir):
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)


def format_result(definition, trace, values, attempted, failed, correct):
    """The result line: exactly the metrics BENCHMARK.json lists for the mode."""
    section = definition["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in section:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_workload(definition, args):
    """One benchmark run: prints the report and returns whether every
    output check passed."""
    run_dir = os.path.join(RUNS_DIR, "%s-trace%d" % (args.workload, args.trace))
    clean(run_dir)

    setup = setup_samples(args, run_dir) if not args.trace else []
    result, peak_rss_kb = run_driver(args, run_dir)
    failures = list(result["failures"])
    attempted = result["ops"]
    failed = result["failed_ops"]
    if args.workload == "paper_figs":
        golden_failures = check_goldens(run_dir, golden_digests(GOLDEN_SOURCE))
        attempted += 7
        failed += len(golden_failures)
        failures += golden_failures

    build = result["build"]
    print("build: %s, flags '%s', gcc %s" % (build["type"], build["flags"], build["compiler"]))
    reps = [r for r in result["reps"] if not r["traced"]]
    per_rep = [r["sim_s"] / r["window_s"] for r in reps if r["window_s"] > 0]
    q1, q2, q3 = quartiles(per_rep)
    print("workload %s, seed %d: %d repetitions (%d traced); per-repetition sim_per_wall "
          "median %.1f, quartiles %.1f..%.1f, unscaled total %.1f"
          % (args.workload, args.seed, len(result["reps"]),
             len(result["reps"]) - len(reps), q2, q1, q3, sim_per_wall(reps)))
    samples = [x for r in reps for x in r["reference_s"]]
    print("reference kernel: median %.3f ms over %d samples, host slowdown %.3f"
          % (1e3 * median(samples), len(samples), reference_scale(samples)))
    if setup:
        print("setup probes: unscaled median %.6f s over %d processes"
              % (median([s for s, _ in setup]), len(setup)))
    units = {e["name"]: e["unit"] for e in definition["end_to_end"] + definition["per_layer"]}
    if args.trace:
        values = per_layer_metrics(result)
        wall = traced_wall_s(result)
        print("self time over %.3f s of traced wall time:" % wall)
        for layer, seconds in sorted(self_time_ledger(result).items(), key=lambda kv: -kv[1]):
            print("  %-34s %9.4f s %6.2f%%" % (layer, seconds, 100.0 * seconds / wall))
    else:
        values = end_to_end_metrics(result, setup, peak_rss_kb)
    for name in sorted(values):
        print("%-34s %.6g %s" % (name, values[name], units.get(name, "")))
    print("%-34s %.6g ratio (%d failed of %d operations)"
          % ("fail_share", failed / attempted if attempted else 1.0, failed, attempted))
    for failure in failures:
        print("FAILED: " + failure)
    correct = failed == 0
    print(format_result(definition, args.trace, values, attempted, failed, correct))
    return correct


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for every workload, "
                             "untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    definition = load_definition(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in definition["workloads"]]
    if args.workload == "all":
        runs = [(name, trace) for name in names for trace in (0, 1)]
    elif args.workload in names:
        runs = [(args.workload, args.trace)]
    else:
        raise BenchError("unknown workload %r" % args.workload)
    build_driver()
    check_build(json.loads(subprocess.check_output([DRIVER, "--build-info"])))
    correct = True
    for workload, trace in runs:
        run_args = argparse.Namespace(workload=workload, seed=args.seed, seconds=args.seconds,
                                      trace=trace)
        correct = run_workload(definition, run_args) and correct
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, KeyError, ValueError, subprocess.SubprocessError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        sys.exit(1)
