"""Benchmark of the subexp laboratory.

    python3 perfbench/run.py --workload {reports,far-windows,mixtures} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.

Workloads (inputs come from the seed alone; see ``workloads.py``):

* ``reports``: the five packaged reports at the default ``GallerySpec``,
  rendered to CSV; the seed sets the order they run in.  This is the job
  users run, and nested convolution dominates it.
* ``far-windows``: single-level window masses, shift pairs, window densities
  and tails of ``mu`` at ``4^n y + t``, n in 1..1024; no convolution.
* ``mixtures``: every other construction (atoms, mixtures, smoothed
  densities, tilts, non-dip convolution pairs).

A run repeats whole passes over its inputs until ``--seconds`` have passed
(at least one pass) and reports medians.  On ``reports`` one operation is a
whole pass (the five reports); per-report times are in the traced run.

End-to-end times are in reference seconds: ``hostspeed.py`` times a fixed
calibration kernel alongside the program (every 20 ms during the passes,
back to back around each set-up step) and scales each measured time by the
host's speed while it was measured, so that the drift of a shared host does
not read as a change of the program.  The raw wall times are printed too.

With ``--trace 0`` a run prints the end-to-end metrics.  With ``--trace 1``
it first times untraced passes for half the time, then runs one pass with
every layer wrapped by ``tracer.py`` and prints the per-layer metrics and
the tracing overhead.  Outputs are
checked against ``reference/reports.json`` (reports) or against
``oracles.py`` on a seeded sample outside the timed region (the others).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from hostspeed import HostClock, WallClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reports", "far-windows", "mixtures")
SETUP_REPEATS = 5
# oracle-checked operations per (kind, mantissa class) group and run
ORACLE_PER_GROUP = 2
ORACLE_TOL_FACTOR = 20.0

# times ``import subexp`` in a fresh interpreter, calibration chunks interleaved
_IMPORT_PROBE = "\n".join((
    "import sys",
    "sys.path[:0] = sys.argv[1:3]",
    "import hostspeed",
    "hostspeed.burst(1, 20)",
    "with hostspeed.HostClock(0.01) as c:",
    "    m0 = c.mark()",
    "    import subexp",
    "    m1 = c.mark()",
    "print(c.program_s(m0, m1), c.ref_s(m0, m1))"))


def log(msg: str) -> None:
    print(msg, flush=True)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    i = int(math.floor(pos))
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (pos - i)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _ref(seconds: float, chunk_before: float, chunk_after: float) -> float:
    """Seconds measured between two calibration bursts, in reference seconds."""
    return seconds * hostspeed.REF_CHUNK_S / (0.5 * (chunk_before + chunk_after))


def measure_setup(build) -> tuple:
    """Median import time (fresh interpreters) plus median build time.

    Returns (reference seconds, raw seconds, the last build).  The import
    runs with chunks every 10 ms; a build takes milliseconds, so it is
    calibrated by bursts of chunks right before and after it.
    """
    imports, raw_imports = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        raw, ref = map(float, out.stdout.split()[-2:])
        raw_imports.append(raw)
        imports.append(ref)
    builds, raw_builds = [], []
    built = None
    for _ in range(SETUP_REPEATS):
        f0 = hostspeed.burst()
        t0 = time.perf_counter()
        built = build()
        dt = time.perf_counter() - t0
        raw_builds.append(dt)
        builds.append(_ref(dt, f0, hostspeed.burst()))
    return (statistics.median(imports) + statistics.median(builds),
            statistics.median(raw_imports) + statistics.median(raw_builds), built)


# ---------------------------------------------------------------------------
# query workloads
# ---------------------------------------------------------------------------

class QueryRun:
    """Passes over the seeded operations of ``far-windows`` or ``mixtures``."""

    def __init__(self, workload: str, seed: int):
        import workloads as W

        self.W = W
        self.workload = workload
        self.seed = seed

    def build(self):
        return self.W.Program(self.workload)

    def generate(self, prog) -> list:
        if self.workload == "far-windows":
            return self.W.far_windows_ops(self.seed, prog.params)
        return self.W.mixtures_ops(self.seed, prog.params, prog.k_atoms)

    def passes(self, prog, ops, seconds: float, tracer=None, state=None, clock=None) -> dict:
        """Run whole passes until ``seconds`` elapse; one pass when tracing.

        Times go to ``state`` in the reference seconds of ``clock`` (a
        ``HostClock``), or in wall seconds without one.
        """
        clock = clock or WallClock()
        state = state or {"first": None, "bad": set(), "attempted": 0}
        for key in ("pass_s", "raw_pass_s", "slowness", "lat"):
            state.setdefault(key, [])
        t_start = time.perf_counter()
        while True:
            results = []
            lat = []
            m_pass = clock.mark()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op_id = i
                m0 = clock.mark()
                try:
                    value = prog.run(op)
                except Exception:  # a failed operation is counted, not fatal
                    value = None
                    if i not in state["bad"]:
                        print(f"operation {i} {op} raised:\n{traceback.format_exc()}",
                              file=sys.stderr)
                lat.append(clock.program_s(m0, clock.mark()))
                results.append(value)
            m_end = clock.mark()
            slow = clock.slowness(m_pass, m_end)
            raw = clock.program_s(m_pass, m_end)
            state["slowness"].append(slow)
            state["raw_pass_s"].append(raw)
            state["pass_s"].append(raw / slow)
            state["lat"].extend(v / slow for v in lat)
            state["attempted"] += len(ops)
            if state["first"] is None:
                state["first"] = results
                state["rss_mb"] = peak_rss_mb()
            for i, value in enumerate(results):
                if value is None or value != state["first"][i]:
                    state["bad"].add(i)
            if tracer is not None or time.perf_counter() - t_start >= seconds:
                return state

    def oracle_failures(self, prog, ops, first) -> set:
        """Indices of sampled operations whose values miss the oracle."""
        oracle = self.W.Oracle(prog.params, getattr(prog, "k_atoms", 5))
        tol = ORACLE_TOL_FACTOR * prog.quad.rel_tol
        taken: dict = {}
        bad = set()
        checked = 0
        for i, op in enumerate(ops):
            group = (op.kind, op.mantissa)
            if taken.get(group, 0) >= ORACLE_PER_GROUP or first[i] is None:
                continue
            taken[group] = taken.get(group, 0) + 1
            checked += 1
            want = oracle.expected(op)
            for got, exp in zip(first[i], want):
                exp = float(exp)
                same = (got == exp) if math.isinf(exp) else abs(got - exp) <= tol
                if not same:
                    bad.add(i)
                    print(f"oracle mismatch: {op} program={first[i]} oracle={want}",
                          file=sys.stderr)
        log(f"oracle: {checked} operations checked, {len(bad)} mismatches "
            f"(tolerance {tol:g} in log)")
        return bad


def count_failures(state, bad_oracle, n_ops) -> int:
    bad = state["bad"] | bad_oracle
    passes = state["attempted"] // n_ops
    return len(bad) * passes


# ---------------------------------------------------------------------------
# reports workload
# ---------------------------------------------------------------------------

class ReportsRun:
    def __init__(self, seed: int):
        import reports as R

        import subexp

        self.R = R
        self.sx = subexp
        self.order = R.report_order(seed)
        self.ref = R.load_reference()
        self.out_dir = str(OUT / "reports")
        os.makedirs(self.out_dir, exist_ok=True)

    def build(self):
        spec = self.sx.GallerySpec()
        self.sx.build_mu(spec)
        return spec

    def passes(self, spec, seconds: float, tracer=None, state=None, clock=None) -> dict:
        """Run whole passes until ``seconds`` elapse; times as in ``QueryRun.passes``."""
        clock = clock or WallClock()
        state = state or {"attempted": 0, "failed": 0, "pass_s": [], "raw_pass_s": [],
                          "slowness": [], "report_s": {}, "widths": []}
        t_start = time.perf_counter()
        while True:
            m_pass = clock.mark()
            results = {}
            report_s = {}
            for i, name in enumerate(self.order):
                if tracer is not None:
                    tracer.op_id = i
                m0 = clock.mark()
                try:
                    results[name] = self.R.run_report(name, spec, self.out_dir)
                except Exception:  # the report's rows count as failed
                    results[name] = None
                    print(f"report {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                report_s[name] = clock.program_s(m0, clock.mark())
            m_end = clock.mark()
            slow = clock.slowness(m_pass, m_end)
            raw = clock.program_s(m_pass, m_end)
            state["slowness"].append(slow)
            state["raw_pass_s"].append(raw)
            state["pass_s"].append(raw / slow)
            for name, v in report_s.items():
                state["report_s"].setdefault(name, []).append(v / slow)
            state.setdefault("rss_mb", peak_rss_mb())
            for name, res in results.items():
                state["attempted"] += self.R.reference_size(self.ref[name])
                state["failed"] += self.R.check(name, res, self.ref, spec.quad.rel_tol)
                if res is not None:
                    state["widths"].extend(self.R.bracket_widths(res["rows"]))
            if tracer is not None or time.perf_counter() - t_start >= seconds:
                return state


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    if workload == "reports":
        runner = ReportsRun(seed)
        setup_s, raw_setup_s, spec = measure_setup(runner.build)
        log(f"report order: {', '.join(runner.order)}")
        log("shares of report rows: " + _fmt_shares(runner.R.property_shares(runner.ref)))
        with HostClock() as clock:
            state = runner.passes(spec, seconds, clock=clock)
        attempted, failed = state["attempted"], state["failed"]
        widths = state["widths"]
        log(f"bracket_width_log.p50 = {statistics.median(widths):.6g} log "
            f"(n={len(widths)} brackets)" if widths else "bracket_width_log.p50: no brackets")
        log("report times (median over passes): " + ", ".join(
            f"{name} {statistics.median(ts):.4g} s" for name, ts in state["report_s"].items()))
        # the user's job is the five reports, so one operation is one pass
        lat = state["pass_s"]
        op_unit = "passes"
    else:
        runner = QueryRun(workload, seed)
        setup_s, raw_setup_s, prog = measure_setup(runner.build)
        ops = runner.generate(prog)
        log(f"shares of {len(ops)} operations: " + _fmt_shares(runner.W.property_shares(ops)))
        with HostClock() as clock:
            state = runner.passes(prog, ops, seconds, clock=clock)
        bad_oracle = runner.oracle_failures(prog, ops, state["first"])
        attempted = state["attempted"]
        failed = count_failures(state, bad_oracle, len(ops))
        lat = state["lat"]
        op_unit = "operations"
    lat_ms = [1e3 * v for v in lat]
    n_pass = len(state["pass_s"])
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(state["pass_s"]), "s"),
        "op_ms.p50": metric(quantile(lat_ms, 0.50), "ms"),
        "op_ms.p99": metric(quantile(lat_ms, 0.99), "ms"),
        "peak_rss_mb": metric(state["rss_mb"], "MB"),
    }
    samples = {"setup_s": f"median of {SETUP_REPEATS} imports + {SETUP_REPEATS} builds",
               "wall_s": f"median of {n_pass} passes",
               "op_ms.p50": f"n={len(lat_ms)} {op_unit}",
               "op_ms.p99": f"n={len(lat_ms)} {op_unit}",
               "peak_rss_mb": "after the first pass"}
    log(f"host slowness (mean chunk time / {hostspeed.REF_CHUNK_S:g} s): median "
        f"{statistics.median(state['slowness']):.4g} over passes "
        f"{', '.join(f'{v:.3f}' for v in state['slowness'])}; "
        f"{clock.chunks} chunks took {clock.paused:.3g} s off the passes")
    log(f"raw wall seconds: setup_s {raw_setup_s:.6g}, "
        f"wall_s {statistics.median(state['raw_pass_s']):.6g}")
    log("times below are reference seconds (see hostspeed.py)")
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']} ({samples[name]})")
    log(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    if workload == "reports":
        runner = ReportsRun(seed)
        log("shares of report rows: " + _fmt_shares(runner.R.property_shares(runner.ref)))
        spec = runner.build()
        plain = runner.passes(spec, seconds / 2)
        tracer.install()
        spec = runner.build()
        t0 = time.perf_counter()
        traced = runner.passes(spec, 0, tracer=tracer)
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    else:
        runner = QueryRun(workload, seed)
        prog = runner.build()
        ops = runner.generate(prog)
        log(f"shares of {len(ops)} operations: " + _fmt_shares(runner.W.property_shares(ops)))
        plain = runner.passes(prog, ops, seconds / 2)
        tracer.install()
        prog = runner.build()
        t0 = time.perf_counter()
        state = runner.passes(prog, ops, 0, tracer=tracer,
                              state=dict(plain, pass_s=[], raw_pass_s=[], slowness=[], lat=[]))
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
        bad_oracle = runner.oracle_failures(prog, ops, plain["first"])
        attempted = state["attempted"]
        failed = count_failures(state, bad_oracle, len(ops))
    plain_s = statistics.median(plain["pass_s"])
    metrics = {name: metric(v, u) for name, (v, u) in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = metric(traced_s / plain_s - 1.0, "ratio")
    for target in tracer.missing:
        print(f"missing trace target {target}: its metrics are not reported", file=sys.stderr)
    log(f"tracing overhead: traced pass {traced_s:.4g} s vs untraced median "
        f"{plain_s:.4g} s over {len(plain['pass_s'])} passes")
    path = OUT / f"trace-{workload}-seed{seed}.npz"
    tracer.save(str(path))
    log(f"{len(tracer.sp_start)} spans written to {path.relative_to(ROOT)} "
        f"({tracer.dropped} beyond the span limit were aggregated only)")
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt_shares(shares: dict) -> str:
    return ", ".join(f"{k} {v:.3f}" for k, v in shares.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "subexp" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'subexp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
