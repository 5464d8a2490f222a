"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Covers the tail-percentile rule, the reference-speed scaling, self time
from nested spans, the tracer's accounting on a real op, deterministic
workload inputs, the import-time parser, and that every output check rejects
a fabricated bad result.
"""

import copy
import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import refclock  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

DL = run.load_program()


class TailRule(unittest.TestCase):
    def test_eleventh_largest_has_ten_beyond(self):
        for n in (20, 21, 100, 1000, 1234):
            p, k = run.tail_rank(n)
            self.assertEqual(n - k, 10)
            self.assertAlmostEqual(p, 100.0 * (n - 10) / n)

    def test_few_samples_fall_back_to_upper_median(self):
        self.assertEqual(run.tail_rank(19), (100.0 * 10 / 19, 10))
        self.assertEqual(run.tail_rank(18), (100.0 * 10 / 18, 10))
        self.assertEqual(run.tail_rank(1), (100.0, 1))

    def test_summary_on_known_latencies(self):
        lat = run.latency_summary([i / 1000.0 for i in range(100, 0, -1)])
        self.assertEqual(lat["tail_percentile"], 90.0)
        self.assertAlmostEqual(lat["tail_ms"], 90.0)
        self.assertEqual(lat["samples_beyond_tail"], 10)
        self.assertAlmostEqual(lat["p50_ms"], 50.5)
        self.assertAlmostEqual(lat["ops_per_s"], 100 / sum(range(1, 101)) * 1000)


class ReferenceSpeed(unittest.TestCase):
    def test_setup_timing_starts_before_numpy_loads(self):
        code = ("import sys; sys.path.insert(0, {!r}); import run; "
                "print('numpy' in sys.modules)").format(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, check=True)
        self.assertEqual(out.stdout.strip(), "False")

    def test_speed_is_nominal_over_median_since_mark(self):
        clock = refclock.RefClock()
        clock.times = [0.02, 0.01, 0.04]
        self.assertAlmostEqual(clock.speed(), refclock.REF_NOMINAL_S / 0.02)
        self.assertAlmostEqual(clock.speed(1), refclock.REF_NOMINAL_S / 0.025)
        self.assertEqual(clock.summary(2)["runs"], 1)
        with self.assertRaises(RuntimeError):
            clock.speed(3)

    def test_keep_up_runs_the_kernel_for_its_share(self):
        clock = refclock.RefClock()
        clock.keep_up(0.0)
        self.assertEqual(clock.times, [])
        busy = 0.3
        clock.keep_up(busy)
        self.assertGreaterEqual(sum(clock.times), refclock.SHARE * busy)
        self.assertLess(sum(clock.times) - clock.times[-1], refclock.SHARE * busy)

    def test_summary_scales_times(self):
        lat = run.latency_summary([0.1, 0.3, 0.2], speed=2.0)
        self.assertAlmostEqual(lat["p50_ms"], 400.0)
        self.assertAlmostEqual(lat["total_s"], 1.2)
        self.assertAlmostEqual(lat["ops_per_s"], 2.5)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # root [0,10]; a [1,4] holds g [2,3]; b [5,9] and c [8,9.5] overlap
        starts = [0.0, 1.0, 2.0, 5.0, 8.0]
        ends = [10.0, 4.0, 3.0, 9.0, 9.5]
        parents = [-1, 0, 1, 0, 0]
        selfs = tr.self_times(starts, ends, parents)
        self.assertEqual(selfs, [2.5, 2.0, 1.0, 4.0, 1.5])

    def test_children_sticking_out_are_clipped(self):
        self.assertEqual(tr.self_times([0.0, 1.0], [2.0, 3.0], [-1, 0]), [1.0, 2.0])

    def test_traced_op_accounts_for_its_wall_time(self):
        t = tr.Tracer()
        original = DL.bounds.upper_full
        w = wl.LawMix(3)
        t.install(DL)
        try:
            root = t.begin_op(0)
            w.run_op(DL, 0)
            t.end_op(root)
        finally:
            t.uninstall()
        self.assertIs(DL.bounds.upper_full, original)
        spans = t.summary()
        total_self = sum(v["self_s"] for v in spans.values())
        self.assertAlmostEqual(total_self, spans["op"]["total_s"], delta=1e-9)
        for name in ("bounds.upper_full", "bounds.lower_main", "bounds.high_snr_limit",
                     "policy.calibrate", "fading.joint_grid", "rates.per_state_rates"):
            self.assertGreater(spans[name]["calls"], 0, name)
        self.assertTrue(all(p >= 0 for p in t.parent[1:]))
        self.assertGreater(t.counters["policy.calibrate.distinct"], 0)


class Determinism(unittest.TestCase):
    def inputs(self, cls, seed, n):
        w = cls(seed)
        return [w.op_input(i) for i in range(n)]

    def test_same_seed_same_inputs(self):
        for cls in wl.WORKLOADS.values():
            self.assertEqual(self.inputs(cls, 7, 200), self.inputs(cls, 7, 200), cls.name)

    def test_other_seed_other_inputs(self):
        for cls in (wl.LawMix, wl.Ledger):
            self.assertNotEqual(self.inputs(cls, 7, 50), self.inputs(cls, 8, 50), cls.name)
        starts = {wl.Sweep(s).op_input(0)["snr_db"] for s in range(40)}
        self.assertGreater(len(starts), 1)

    def test_lawmix_pairs_never_repeat(self):
        pairs = [(i["dist_m"], i["dist_e"]) for i in self.inputs(wl.LawMix, 1, 500)]
        self.assertEqual(len(set(pairs)), len(pairs))
        self.assertGreater(len(pairs), wl.JOINT_GRID_LRU)
        kinds = {p.split(":")[0] for pair in pairs for p in pair}
        self.assertEqual(kinds, {"gamma", "chisq", "exp", "const"})

    def test_ledger_alternates_schemes(self):
        self.assertEqual([i["scheme"] for i in self.inputs(wl.Ledger, 1, 4)],
                         ["full", "main", "full", "main"])


GOOD_BOUNDS = {"upper_full": 1.0, "lower_full": 0.5, "upper_main": 0.8,
               "lower_main": 0.4, "high_snr_limit": 0.7}


class BoundsCheck(unittest.TestCase):
    def test_good_values_pass(self):
        self.assertEqual(wl.check_bounds(GOOD_BOUNDS), [])
        ties = dict(GOOD_BOUNDS, lower_main=GOOD_BOUNDS["upper_main"] + 5e-10)
        self.assertEqual(wl.check_bounds(ties), [])

    def test_bad_values_fail(self):
        for key in wl.BoundsOut.KEYS:
            for bad in (math.nan, math.inf, -1e-3, None):
                self.assertTrue(wl.check_bounds(dict(GOOD_BOUNDS, **{key: bad})), (key, bad))

    def test_inverted_order_fails(self):
        self.assertTrue(wl.check_bounds(dict(GOOD_BOUNDS, lower_full=1.0 + 2e-9)))
        self.assertTrue(wl.check_bounds(dict(GOOD_BOUNDS, lower_main=0.8 + 2e-9)))


class LedgerCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for scheme in ("full", "main"):
            d = DL.fading.parse_distribution("chisq:4")
            report = DL.protocol.simulate(DL.protocol.SimConfig(
                scheme=scheme, dist_m=d, dist_e=d, p_bar=100.0, a=20, b=4, n1=1000,
                seed=DL.numerics.RngSeed(5)))
            cls.runs[scheme] = (report.to_json(), report.csv_text())

    def check(self, scheme, roundtrip=True, doc=None, csv_text=None):
        json_text, good_csv = self.runs[scheme]
        if doc is not None:
            json_text = json.dumps(doc)
        return wl.check_ledger(roundtrip, json_text, good_csv if csv_text is None else csv_text)

    def doc(self, scheme):
        return copy.deepcopy(json.loads(self.runs[scheme][0]))

    def test_real_runs_pass(self):
        for scheme in self.runs:
            self.assertEqual(self.check(scheme), [], scheme)

    def test_failed_roundtrip(self):
        self.assertTrue(self.check("full", roundtrip=False))
        doc = self.doc("full")
        doc["roundtrip_ok"] = False
        self.assertTrue(self.check("full", doc=doc))

    def test_json_that_does_not_parse(self):
        self.assertTrue(wl.check_ledger(True, self.runs["full"][0][:-10], self.runs["full"][1]))

    def test_unreadable_output_fails_the_op(self):
        class Broken(wl.Ledger):
            def run_op(self, dl, i):
                out = super().run_op(dl, i)
                out.csv_text = "m,l\n1,1\n"
                return out

        w = Broken(1)
        w.op_input = lambda i: {"scheme": "full", "dist_m": "chisq:4", "dist_e": "chisq:4",
                                "pbar_db": 20.0, "a": 5, "b": 2, "n1": 100, "delta": 0.05,
                                "sim_seed": 1}
        log = run.OpLog(w, DL)
        self.assertIsNone(log.attempt(0))
        self.assertEqual(len(log.failures), 1)
        self.assertIn("raised", str(log.failures[0]["error"]))

    def test_csv_missing_a_row(self):
        lines = self.runs["full"][1].splitlines(keepends=True)
        self.assertTrue(self.check("full", csv_text="".join(lines[:-1])))

    def test_totals_off_by_one(self):
        doc = self.doc("main")
        doc["totals"]["data_delivered"] += 1
        self.assertTrue(self.check("main", doc=doc))

    def overdraw(self, scheme, block):
        """Move key consumption so block ``block`` spends more than was
        committed before it, keeping every total unchanged."""
        doc = self.doc(scheme)
        cons = doc["records"]["key_consumed"]
        donor = next(k for k in range(len(cons) - 1, block, -1) if cons[k] > 0)
        extra = 10 ** 9
        cons[block] += extra
        cons[donor] -= extra
        return self.check(scheme, doc=doc)

    def test_overdraw_in_full(self):
        errors = self.overdraw("full", block=20)  # first block of super-block 2
        self.assertTrue(any("committed" in e for e in errors), errors)

    def test_main_cannot_spend_its_own_super_block(self):
        doc = self.doc("main")
        m, gen, cons = (doc["records"][k] for k in ("m", "key_generated", "key_consumed"))
        # spend, in the last block of super-block 2, all of super-block 1 and 2's key
        last = max(k for k in range(len(m)) if m[k] == 2)
        first2 = m.index(2)
        gen1 = sum(g for g, mm in zip(gen, m) if mm == 1)
        room = gen1 - sum(cons[first2:last])
        cons[last] = room + 1
        errors = self.check("main", doc=doc)
        self.assertTrue(any("committed" in e for e in errors), errors)


class AccuracySummary(unittest.TestCase):
    def test_rule_and_zero_stderr_guard(self):
        checks = [("ok", 1.0, 1.0 + 3e-3, 1e-3),
                  ("far", 1.0, 1.1, 1e-3),
                  ("zero-agree", 0.0, 0.0, 0.0),
                  ("zero-miss", 3e-8, 0.0, 0.0)]
        s = wl.accuracy_summary(checks)
        self.assertEqual(s["failed"], 2)
        self.assertEqual(s["accuracy_fail_frac"], 0.5)
        self.assertEqual(s["worst"]["check"], "far")
        self.assertAlmostEqual(s["worst"]["sigmas"], 100.0)
        self.assertEqual(s["worst_zero_stderr"]["check"], "zero-miss")
        self.assertIsNone(wl.accuracy_summary(None))


class ImportTime(unittest.TestCase):
    LOG = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        10 |         10 |         scipy.special._x",
        "import time:        20 |         30 |       scipy.stats._a",
        "import time:         5 |          5 |       scipy.stats._b",
        "import time:        50 |        500 |     dlsec.fading",
        "import time:         7 |        607 |   dlsec",
    ])

    def test_lazy_scipy_stats_and_own_time(self):
        self.assertEqual(run.parse_importtime(self.LOG),
                         {"scipy_stats_ms": 0.035, "dlsec_own_ms": 0.057})


if __name__ == "__main__":
    unittest.main()
