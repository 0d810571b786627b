"""Self-tests of the benchmark (not of the package).

    python3 perfbench/selftest.py

Covers generator determinism, oracle agreement at fixed points, the
tracer's self-time arithmetic on a synthetic nest, missing trace targets,
failure counting on out-of-domain inputs and the host-speed clock.  The file name keeps it out
of the package's pytest collection.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import subexp  # noqa: E402

import hostspeed  # noqa: E402
import reports  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, self_times_from_spans  # noqa: E402

PARAMS = subexp.ModelParams()


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(W.far_windows_ops(7, PARAMS), W.far_windows_ops(7, PARAMS))
        self.assertEqual(W.mixtures_ops(7, PARAMS, 5), W.mixtures_ops(7, PARAMS, 5))
        self.assertEqual(reports.report_order(7), reports.report_order(7))

    def test_other_seed_other_inputs_same_strata(self):
        a, b = W.far_windows_ops(7, PARAMS), W.far_windows_ops(8, PARAMS)
        self.assertNotEqual(a, b)
        self.assertEqual(W.property_shares(a)["mantissa=anchor"],
                         W.property_shares(b)["mantissa=anchor"])
        key = lambda op: (op.kind, op.mantissa)  # noqa: E731
        self.assertEqual(sorted(map(key, a)), sorted(map(key, b)))
        self.assertEqual(sorted(reports.report_order(1)), sorted(reports.NAMES))

    def test_tails_stay_float_representable(self):
        for op in W.far_windows_ops(3, PARAMS):
            if op.kind == "tail":
                self.assertTrue(math.isfinite(subexp.ScaledSum.scaled(*op.args[:2]).value()))


class OracleTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.prog = W.Program("mixtures")
        cls.oracle = W.Oracle(PARAMS, cls.prog.k_atoms)
        cls.tol = run.ORACLE_TOL_FACTOR * cls.prog.quad.rel_tol

    def agree(self, op):
        got = self.prog.run(op)
        want = self.oracle.expected(op)
        for g, w in zip(got, want):
            w = float(w)
            if math.isinf(w):
                self.assertEqual(g, w, op)
            else:
                self.assertLessEqual(abs(g - w), self.tol, op)

    def test_dip_windows_at_fixed_points(self):
        for args in ((6, 3.0, 0.0, 1.0), (6, 2.0, 0.0, 1.0), (1024, 2.0, -37.5, 0.5),
                     (700, 2.0001, 0.0, 4.0 ** -6), (1, 3.9, 0.0, 2.0)):
            self.agree(W.Op("mass", args, "none", False, False, False))
        self.agree(W.Op("shift", (256, 2.0, 3.0, 1.0), "lambda", False, False, False))
        self.agree(W.Op("tail", (100, 2.0, 3.0), "lambda", False, False, False))

    def test_mixture_pieces_at_fixed_points(self):
        for kind, args in (("rho2_mass", (2, -0.25, 0.5)), ("rho2_mass", (5, 0.25, 0.5)),
                           ("rho2_tail", (3, 1.0)), ("conv_mu_mu1", ((16, 2.0, 0.0), 1.0)),
                           ("rho1_mass", ((0, 1.0, -0.4), 2.0)),
                           ("rho1_mass", ((0, 1.0, 0.3), 1.0)),
                           ("p_density", (1, (0, 1.0, 0.3))), ("tp_mass", (1.0, 3.0, 0.5)),
                           ("moment", ("mix", 1.0)), ("tm_mass", (-1.0, 0.2, 1.5)),
                           ("tilt_identity", (0.5, 20.0, 0.1)),
                           ("conv_u_pareto", (2.5, 3.0, 1.0)),
                           ("conv_u_mu", ((6, 2.0, 0.0), 1.0))):
            self.agree(W.Op(kind, args, "none", False, False, False))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerTests(unittest.TestCase):
    def nest(self, span_limit):
        clock = FakeClock()
        t = Tracer(span_limit=span_limit, clock=clock)

        def leaf():
            clock.now += 2.0

        leaf_t = t.traced("leaf", leaf)

        def mid():
            clock.now += 1.0
            leaf_t()
            clock.now += 1.0
            leaf_t()

        mid_t = t.traced("mid", mid)

        def top():
            clock.now += 3.0
            mid_t()
            clock.now += 0.5

        t.traced("top", top)()
        return t

    def test_self_time_is_span_minus_children(self):
        t = self.nest(span_limit=100)
        self.assertEqual(t.self_s, {"leaf": 4.0, "mid": 2.0, "top": 3.5})
        self.assertEqual(t.incl_s["top"], 9.5)
        self.assertEqual(t.count, {"leaf": 2, "mid": 1, "top": 1})
        self.assertEqual(self_times_from_spans(t), t.self_s)
        names = [t.names[i] for i in t.sp_name]
        self.assertEqual(names, ["top", "mid", "leaf", "leaf"])
        self.assertEqual(list(t.sp_parent), [-1, 0, 1, 1])

    def test_aggregates_stay_exact_past_span_limit(self):
        t = self.nest(span_limit=2)
        self.assertEqual(t.self_s, {"leaf": 4.0, "mid": 2.0, "top": 3.5})
        self.assertEqual(len(t.sp_start), 2)
        self.assertEqual(t.dropped, 2)

    def test_missing_target_is_reported_not_fatal(self):
        t = Tracer()
        self.assertFalse(t.patch("subexp.scaledcore:no_such_function", lambda fn: fn))
        self.assertFalse(t.patch("subexp.no_such_module:f", lambda fn: fn))
        self.assertEqual(len(t.missing), 2)
        t.missing.append("subexp.convolve:conv_local_mass")
        m = t.metrics()
        self.assertNotIn("convolve.conv.calls", m)
        self.assertIn("quadrature.calls", m)

    def test_install_and_uninstall_restore_the_package(self):
        before = (subexp.local_mass, subexp.ScaledSum.normalize,
                  subexp.gallery.REPORTS["tilt"], subexp.measures.integrate_log)
        t = Tracer()
        t.install()
        self.assertEqual(t.missing, [])
        self.assertIsNot(subexp.measures.integrate_log, before[3])
        t.uninstall()
        after = (subexp.local_mass, subexp.ScaledSum.normalize,
                 subexp.gallery.REPORTS["tilt"], subexp.measures.integrate_log)
        self.assertEqual(before, after)

    def test_metric_names_match_benchmark_json(self):
        import json
        spec_path = HERE.parent / "BENCHMARK.json"
        if not spec_path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        produced = {k: unit for k, (v, unit) in Tracer().metrics().items()}
        produced["trace.overhead_frac"] = "ratio"
        self.assertEqual(declared, produced)

    def test_counts_repeat_across_traced_runs(self):
        runner = run.QueryRun("far-windows", 5)
        prog = runner.build()
        ops = runner.generate(prog)[:200]
        counts = []
        for _ in range(2):
            t = Tracer()
            t.install()
            try:
                runner.passes(runner.build(), ops, 0, tracer=t)
            finally:
                t.uninstall()
            counts.append({k: v for k, (v, unit) in t.metrics().items() if unit == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["quadrature.evals"], 0)


class FailureCountingTests(unittest.TestCase):
    def test_out_of_domain_operation_counts_as_failed(self):
        runner = run.QueryRun("far-windows", 1)
        prog = runner.build()
        ops = [W.Op("mass", (6, 3.0, 0.0, 1.0), "plateau", False, False, False),
               # tail needs a float-representable point; 4^1000 is not one
               W.Op("tail", (1000, 3.0, 0.0), "plateau", True, False, False)]
        state = runner.passes(prog, ops, 0)
        self.assertEqual(state["bad"], {1})
        self.assertEqual(run.count_failures(state, set(), len(ops)), 1)
        self.assertEqual(state["attempted"], 2)

    def test_wrong_value_counts_as_oracle_miss(self):
        runner = run.QueryRun("far-windows", 1)
        prog = runner.build()
        ops = [W.Op("mass", (6, 3.0, 0.0, 1.0), "plateau", False, False, False)]
        first = [(prog.run(ops[0])[0] + 1e-3,)]
        self.assertEqual(runner.oracle_failures(prog, ops, first), {0})

    def test_raising_report_fails_all_its_rows(self):
        ref = reports.load_reference()
        self.assertEqual(reports.check("lem32", None, ref, 1e-7),
                         reports.reference_size(ref["lem32"]))

    def test_reference_check_accepts_tighter_bracket_and_rejects_disjoint(self):
        ref = reports.load_reference()
        row = next(r for r in ref["thm12"]["rows"] if r["flag"] == "bracketed")
        lo, hi = row["p2_fail_lo"], row["p2_fail_hi"]
        tighter = dict(row, p2_fail_lo=lo + 0.25 * (hi - lo), p2_fail_hi=hi - 0.25 * (hi - lo))
        self.assertTrue(reports.row_ok(tighter, row, 1e-5))
        disjoint = dict(row, p2_fail_lo=hi * 1.1, p2_fail_hi=hi * 1.2)
        self.assertFalse(reports.row_ok(disjoint, row, 1e-5))
        moved = dict(row, p1_sd_lo=row["p1_sd_hi"] * 1.01, p1_sd_hi=row["p1_sd_hi"] * 1.02)
        self.assertFalse(reports.row_ok(moved, row, 1e-5))
        self.assertFalse(reports.row_ok(dict(row, flag=""), row, 1e-5))



class HostClockTests(unittest.TestCase):
    def busy(self, seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def test_chunks_run_and_are_taken_off_the_stretch(self):
        with hostspeed.HostClock(0.01) as clock:
            m0 = clock.mark()
            self.busy(0.3)
            m1 = clock.mark()
        self.assertGreater(m1.chunks - m0.chunks, 5)
        wall = m1.wall - m0.wall
        self.assertAlmostEqual(clock.program_s(m0, m1), wall - (m1.paused - m0.paused))
        self.assertLess(clock.program_s(m0, m1), wall)
        slow = clock.slowness(m0, m1)
        self.assertGreater(slow, 0.0)
        self.assertAlmostEqual(clock.ref_s(m0, m1), clock.program_s(m0, m1) / slow)

    def test_clock_stops_and_restores_the_handler(self):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        with hostspeed.HostClock(0.01) as clock:
            self.busy(0.05)
        n = clock.chunks
        self.busy(0.05)
        self.assertEqual(clock.chunks, n)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)

    def test_stretch_without_chunks_is_an_error(self):
        clock = hostspeed.HostClock()
        m = clock.mark()
        with self.assertRaises(ValueError):
            clock.slowness(m, m)

    def test_wall_clock_is_plain_wall_time(self):
        clock = hostspeed.WallClock()
        m0 = clock.mark()
        self.busy(0.01)
        m1 = clock.mark()
        self.assertEqual(clock.slowness(m0, m1), 1.0)
        self.assertEqual(clock.ref_s(m0, m1), m1.wall - m0.wall)

    def test_import_probe_prints_raw_and_reference_seconds(self):
        out = subprocess.run([sys.executable, "-c", run._IMPORT_PROBE, str(HERE),
                              str(HERE.parent / "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        raw, ref = map(float, out.stdout.split())
        self.assertGreater(raw, 0.0)
        self.assertGreater(ref, 0.0)

    def test_passes_report_reference_times(self):
        runner = run.QueryRun("far-windows", 1)
        prog = runner.build()
        ops = runner.generate(prog)[:300]
        with hostspeed.HostClock(0.01) as clock:
            state = runner.passes(prog, ops, 0, clock=clock)
        slow = state["slowness"][0]
        self.assertAlmostEqual(state["pass_s"][0], state["raw_pass_s"][0] / slow)
        self.assertEqual(len(state["lat"]), len(ops))
        self.assertLess(sum(state["lat"]), state["pass_s"][0] * (1 + 1e-9))


if __name__ == "__main__":
    unittest.main()
