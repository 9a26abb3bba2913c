"""Tests for the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, parent, t0, t1, prof0=0, prof1=0, ev0=0, ev1=0, sim0=-1.0, sim1=-1.0):
    return {"name": name, "parent": parent, "t0": t0, "t1": t1, "prof0": prof0,
            "prof1": prof1, "ev0": ev0, "ev1": ev1, "sim0": sim0, "sim1": sim1}


def fake_result():
    """A driver result with one untraced and one traced repetition."""
    spans = [
        span("rep", -1, 0, 1000, 0, 600, 0, 50),
        span("scenario.build", 0, 10, 60),
        span("ctl.start", 0, 60, 300, 0, 200, 0, 20, 0.0, 4.0),
        span("wave.cbr", 0, 300, 900, 200, 600, 20, 50),
        span("bench.check", 0, 900, 950),
    ]
    profile = {c: {"self_ns": 0, "calls": 0} for c in (
        "sim.run", "sim.event", "ppp.hdlc_encode", "ppp.hdlc_decode", "ppp.fcs16",
        "umts.rlc_queue", "sim.pipe", "ppp.pppd", "supervise", "obs.export", "ditg.decode",
        "scenario.harness")}
    profile["sim.event"] = {"self_ns": 500, "calls": 7}
    profile["sim.run"] = {"self_ns": 100, "calls": 2}
    counters = {name: 0 for name in (
        "sim.events_executed", "sim.pool.buffers_allocated", "sim.pool.buffers_reused",
        "umts.cell.denied_upgrades", "guard.firewall.evicted", "net.queue.dropped",
        "modem.at.commands", "fleet.start_failures", "recovery.redial.attempts",
        "supervise.ladder.redial", "supervise.incidents")}
    counters.update({"sim.events_executed": 50, "sim.pool.buffers_allocated": 1,
                     "sim.pool.buffers_reused": 3})
    observed = {"tcp_retransmissions": 0, "tcp_timeouts": 0, "packets_sent": 10,
                "packets_received": 9, "trace_bytes": 0, "metrics_bytes": 0,
                "faults_injected": 0, "faults_skipped": 0, "start_failures": 0,
                "firewall_flows_peak": 3}
    reps = [
        {"seed": 5, "traced": False, "setup_s": 0.01, "window_s": 1.0, "sim_s": 100.0,
         "window_per_reference": 1.0 / run.REFERENCE_NOMINAL_S, "events": 50,
         "artifact_bytes": 2000000, "reference_s": [run.REFERENCE_NOMINAL_S]},
        {"seed": 5, "traced": True, "setup_s": 0.01, "window_s": 1.25, "sim_s": 100.0,
         "window_per_reference": 0.0, "events": 50, "artifact_bytes": 2000000,
         "reference_s": []},
    ]
    return {"reps": reps, "spans": spans, "profile": profile, "counters": counters,
            "observed": observed, "ops": 4, "failed_ops": 0, "failures": []}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_children_and_profiled_time(self):
        spans = [
            span("root", -1, 0, 100, prof0=0, prof1=30),
            span("a", 0, 10, 60, prof0=0, prof1=20),
            span("a.inner", 1, 20, 40, prof0=5, prof1=15),
            span("b", 0, 70, 90, prof0=20, prof1=30),
        ]
        self.assertEqual(run.self_times(spans), [
            100 - (50 + 20) - (30 - 20 - 10),  # root: 30 wall left, no own profiled time
            50 - 20 - (20 - 10),               # a: 30 left, 10 profiled outside a.inner
            20 - 10,                           # a.inner: leaf, 10 profiled
            20 - 10,                           # b
        ])

    def test_self_times_and_profile_partition_the_traced_wall(self):
        result = fake_result()
        ledger = run.self_time_ledger(result)
        self.assertAlmostEqual(sum(ledger.values()), run.traced_wall_s(result))
        self.assertAlmostEqual(ledger["unattributed"], (1000 - 50 - 240 - 600 - 50) / 1e9)
        self.assertAlmostEqual(ledger["call.ctl.start"], (240 - 200) / 1e9)
        self.assertAlmostEqual(ledger["sim.event"], 500 / 1e9)


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q1, q2, q3))
        self.assertEqual(run.median(values), statistics.median(values))

    def test_single_sample_quartiles(self):
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_sim_per_wall_is_a_ratio_of_sums(self):
        reps = [{"sim_s": 100.0, "window_s": 1.0}, {"sim_s": 300.0, "window_s": 1.0}]
        self.assertEqual(run.sim_per_wall(reps), 200.0)

    def test_wall_time_is_scaled_by_the_reference_slowdown(self):
        nominal = run.REFERENCE_NOMINAL_S
        reps = [
            # 2 s of wall time while the kernel ran at half speed, then 1 s
            # at nominal speed: 2 s of nominal time for 200 sim-s.
            {"sim_s": 100.0, "window_s": 2.0, "window_per_reference": 2.0 / (2 * nominal)},
            {"sim_s": 100.0, "window_s": 1.0, "window_per_reference": 1.0 / nominal},
        ]
        self.assertAlmostEqual(run.normalized_sim_per_wall(reps), 100.0)
        self.assertAlmostEqual(run.sim_per_wall(reps), 200.0 / 3.0)


class NameValidationTest(unittest.TestCase):
    def test_names(self):
        for good in ("sim_per_wall", "sim.event.self_frac", "a-b", "9lives", "x" * 64):
            self.assertTrue(run.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "slash/no", "x" * 65, "né"):
            self.assertFalse(run.valid_name(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "sim-s/wall-s"):
            self.assertTrue(run.valid_unit(good), good)
        for bad in ("", "two words", "x" * 17):
            self.assertFalse(run.valid_unit(bad), bad)


class DefinitionTest(unittest.TestCase):
    def setUp(self):
        self.definition = run.load_definition(os.path.join(run.ROOT, "BENCHMARK.json"))
        nominal = run.REFERENCE_NOMINAL_S
        self.setup_samples = [(0.002, nominal), (0.006, 2 * nominal), (0.004, nominal)]

    def test_printed_metric_sets_match_benchmark_json(self):
        result = fake_result()
        for trace, values in (
                (0, run.end_to_end_metrics(result, self.setup_samples, 20480)),
                (1, run.per_layer_metrics(result))):
            section = self.definition["per_layer" if trace else "end_to_end"]
            self.assertEqual(set(values), {e["name"] for e in section})
            line = json.loads(run.format_result(self.definition, trace, values, 4, 0, True))
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            for entry in section:
                self.assertEqual(line["metrics"][entry["name"]]["unit"], entry["unit"])

    def test_end_to_end_values(self):
        values = run.end_to_end_metrics(fake_result(), self.setup_samples, 20480)
        self.assertAlmostEqual(values["sim_per_wall"], 100.0)  # untraced repetitions only
        self.assertAlmostEqual(values["setup_s"], 0.003)  # median of 0.002, 0.003, 0.004
        self.assertEqual(values["peak_rss_mb"], 20.0)
        self.assertEqual(values["artifact_mb"], 2.0)

    def test_trace_overhead_compares_paired_repetitions(self):
        values = run.per_layer_metrics(fake_result())
        self.assertAlmostEqual(values["trace.overhead_frac"], 1.0 - 80.0 / 100.0)
        self.assertAlmostEqual(values["sim.event.self_frac"], 0.5)
        self.assertAlmostEqual(values["ctl.start.sim_s"], 4.0)
        self.assertAlmostEqual(values["trace.attributed_frac"], 1.0 - (1000 - 940 + 50) / 1000)

    def test_every_per_layer_metric_belongs_to_one_layer(self):
        with open(os.path.join(HERE, "layers.json")) as handle:
            layers = json.load(handle)["layers"]
        listed = [m for layer in layers for m in layer["metrics"]]
        self.assertEqual(sorted(listed), sorted(e["name"] for e in self.definition["per_layer"]))
        end_to_end = {e["name"] for e in self.definition["end_to_end"]} | {"fail_share"}
        workloads = {w["name"] for w in self.definition["workloads"]}
        for layer in layers:
            self.assertLessEqual(set(layer["moves"]), end_to_end, layer["layer"])
            self.assertLessEqual(set(layer["on"]) | set(layer["flat_on"]), workloads)

    def test_golden_digests_parse(self):
        goldens = run.golden_digests(run.GOLDEN_SOURCE)
        self.assertEqual(sorted(goldens), ["fig%d_%s" % (i, n) for i, n in enumerate(
            ("voip_bitrate", "voip_jitter", "voip_rtt", "cbr_bitrate", "cbr_jitter",
             "cbr_loss", "cbr_rtt"), start=1)])

    def test_debug_and_sanitizer_builds_are_refused(self):
        release = {"type": "Release", "flags": "-O3 -DNDEBUG", "optimized": True,
                   "sanitized": False, "ndebug": True}
        run.check_build(release)
        for change in ({"type": "Debug", "optimized": False, "ndebug": False},
                       {"type": ""},
                       {"flags": "-O3 -DNDEBUG -fsanitize=address"},
                       {"sanitized": True}):
            with self.assertRaises(run.BenchError):
                run.check_build(dict(release, **change))


if __name__ == "__main__":
    unittest.main()
