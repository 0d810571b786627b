"""Outside-in layer tracer: wraps the package's entry points from the benchmark.

Every target is named ``module:attribute`` (``Class.method`` for methods).
Installing replaces the function in each ``subexp`` module namespace that
holds it, and methods on their class, so calls from inside the package are
traced too.  A target that no longer exists is recorded in ``missing`` and
its metrics are reported as missing instead of failing the run.

Each wrapped call is a span (name, start, end, parent span, operation id).
Spans stay in memory, up to ``span_limit``, and are written out by
:meth:`Tracer.save`.  Counts and self times are aggregated online for every
call, so they stay exact past the span limit.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time
from array import array

SCALEDCORE = "subexp.scaledcore"
QUADRATURE = "subexp.quadrature"
MEASURES = "subexp.measures"
CONVOLVE = "subexp.convolve"
PROBES = "subexp.probes"
GALLERY = "subexp.gallery"
CLI = "subexp.cli"

COMPONENT_KINDS = ("PhiAC", "UniformAC", "ParetoAC", "PointMass", "AtomSeries",
                   "KernelAC", "Tilted")
REPORT_NAMES = ("thm11", "thm12", "lem32", "prop11", "tilt")
PROBE_FUNCS = ("long_tail_probe", "sd_probe", "uniformity_probe", "sandwich_probe",
               "tilt_identity_probe", "scaling_probe")


class Tracer:
    def __init__(self, span_limit: int = 1_000_000, clock=time.perf_counter):
        self.clock = clock
        self.span_limit = span_limit
        self.names: list = []
        self._name_ids: dict = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.dropped = 0
        self.op_id = -1
        self._stack: list = []  # frames: [start, child_time, span_index]
        self.count: dict = {}
        self.self_s: dict = {}
        self.incl_s: dict = {}
        self.errors: dict = {}
        self.counters: dict = {}
        self.samples: dict = {}
        self.missing: list = []
        self._restore: list = []
        self._quad_counts: list = []  # eval counters of the open integrals

    # -- spans -----------------------------------------------------------------

    def enter(self, name: str) -> None:
        idx = -1
        if len(self.sp_start) < self.span_limit:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.sp_start)
            self.sp_name.append(nid)
            self.sp_parent.append(self._stack[-1][2] if self._stack else -1)
            self.sp_op.append(self.op_id)
            self.sp_end.append(math.nan)
            start = self.clock()
            self.sp_start.append(start)
        else:
            self.dropped += 1
            start = self.clock()
        self._stack.append([start, 0.0, idx])

    def exit(self, name: str, error: BaseException | None = None) -> None:
        end = self.clock()
        start, child, idx = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.sp_end[idx] = end
        if self._stack:
            self._stack[-1][1] += dur
        self.count[name] = self.count.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)
        self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        if error is not None:
            key = (name, type(error).__name__)
            self.errors[key] = self.errors.get(key, 0) + 1

    def bump(self, key: str, by=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def traced(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before`` may replace the arguments and
        ``after(args, kwargs, result)`` records counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(name, exc)
                raise
            tracer.exit(name)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def patch(self, target: str, make) -> bool:
        """Replace ``module:attr`` (or ``module:Class.method``) by ``make(original)``."""
        mod_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(mod_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        wrapped = make(original)
        if isinstance(owner, type):
            self._set(owner, parts[-1], wrapped)
            return True
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "subexp" or name.startswith("subexp.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapped)
        return True

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            elif value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the entry points of every layer (see ``metrics`` for what each yields)."""
        t = self

        # scaledcore
        self.patch(f"{SCALEDCORE}:ScaledSum.normalize",
                   lambda fn: t.traced("scaledcore.normalize", fn))

        def evaluator(fn):
            inner = t.traced("scaledcore.evaluator", fn)

            @functools.wraps(fn)
            def build(*args, **kwargs):
                ev = inner(*args, **kwargs)
                counter = t.counters

                def counted(x):
                    counter["scaledcore.phi.evals"] = counter.get("scaledcore.phi.evals", 0) + 1
                    return ev(x)

                return counted

            return build

        self.patch(f"{SCALEDCORE}:phi_window_log_eval", evaluator)

        # quadrature
        def quad_before(args, kwargs):
            n = [0]
            f = args[0]

            def f_counted(x):
                n[0] += 1
                return f(x)

            t._quad_counts.append(n)
            t.counters["quadrature.nest_depth.max"] = max(
                t.counters.get("quadrature.nest_depth.max", 0), len(t._quad_counts))
            return (f_counted,) + tuple(args[1:]), kwargs

        def integrate(fn):
            inner = t.traced("quadrature", fn, before=quad_before)

            @functools.wraps(fn)
            def run(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                finally:
                    n = t._quad_counts.pop()[0]
                    t.bump("quadrature.evals", n)
                    t.sample("quadrature.evals_per_call", n)

            return run

        self.patch(f"{QUADRATURE}:integrate_log", integrate)

        # measures
        for kind in COMPONENT_KINDS:
            self.patch(f"{MEASURES}:{kind}.log_window_mass",
                       lambda fn, k=kind: t.traced(f"measures.window.{k}", fn))
            self.patch(f"{MEASURES}:{kind}.log_tail",
                       lambda fn, k=kind: t.traced(f"measures.tail.{k}", fn))
        for fn_name in ("normalizer_M", "tilt"):
            self.patch(f"{MEASURES}:{fn_name}",
                       lambda fn: t.traced("measures.normalizer", fn))

        # convolve
        def conv_after(args, kwargs, result):
            from subexp.convolve import ConvPlan, LogBracket
            from subexp.measures import PhiAC
            from subexp.scaledcore import ScaledSum

            d1, d2, x = args[0], args[1], args[2]
            plan = args[5] if len(args) > 5 else kwargs.get("plan")
            phi_pair = all(any(isinstance(c, PhiAC) for _w, c in d.components)
                           for d in (d1, d2))
            if phi_pair:
                if not isinstance(x, ScaledSum):
                    x = ScaledSum.from_float(float(x), d1.base)
                params = next(c.params for _w, c in d1.components if isinstance(c, PhiAC))
                threshold = (plan or ConvPlan(params)).split_threshold
                beyond = x.sign() > 0 and x.log_abs() > math.log(threshold)
                split = beyond or isinstance(result, LogBracket)
                t.bump("convolve.conv.split_calls" if split
                       else "convolve.conv.full_numeric_calls")
            record_bracket(result)

        def record_bracket(result):
            from subexp.convolve import LogBracket
            t.bump("convolve.results")
            if isinstance(result, LogBracket):
                t.bump("convolve.brackets")
                t.sample("convolve.bracket_width_log", result.width)

        self.patch(f"{CONVOLVE}:conv_local_mass",
                   lambda fn: t.traced("convolve.conv", fn, after=conv_after))
        self.patch(f"{CONVOLVE}:phi_self_conv_at",
                   lambda fn: t.traced("convolve.self_conv", fn,
                                       after=lambda a, k, r: record_bracket(r)))

        # probes
        def probe_after(args, kwargs, result):
            entries = result if isinstance(result, list) else result.entries
            t.bump("probes.entries", len(entries))
            t.bump("probes.flagged", sum(1 for e in entries
                                         if getattr(e, "flagged", False)
                                         or not getattr(e, "ordered", True)))

        for fn_name in PROBE_FUNCS:
            self.patch(f"{PROBES}:{fn_name}",
                       lambda fn: t.traced("probes", fn, after=probe_after))

        # gallery
        gallery = sys.modules.get(GALLERY)
        reports = getattr(gallery, "REPORTS", None)
        for name in REPORT_NAMES:
            if not isinstance(reports, dict) or name not in reports:
                self.missing.append(f"{GALLERY}:REPORTS[{name}]")
                continue
            self._restore.append((reports, name, reports[name]))
            reports[name] = t.traced(f"gallery.report.{name}", reports[name])
        self.patch(f"{GALLERY}:Report.rows",
                   lambda fn: t.traced("gallery.rows", fn,
                                       after=lambda a, k, r: t.bump("gallery.rows", len(r))))

        # cli
        def write_after(args, kwargs, result):
            out_path = args[3] if len(args) > 3 else kwargs.get("out_path")
            if out_path and os.path.exists(out_path):
                t.bump("cli.bytes", os.path.getsize(out_path))

        self.patch(f"{CLI}:write_rows",
                   lambda fn: t.traced("cli.write", fn, after=write_after))

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name; a metric whose target is missing is absent."""
        c, s, i, k = self.count, self.self_s, self.incl_s, self.counters
        out = {}

        def put(name, value, unit, target=None):
            if target not in self.missing:
                out[name] = (value, unit)

        put("scaledcore.normalize.calls", c.get("scaledcore.normalize", 0), "count",
            f"{SCALEDCORE}:ScaledSum.normalize")
        put("scaledcore.normalize.self_s", s.get("scaledcore.normalize", 0.0), "s",
            f"{SCALEDCORE}:ScaledSum.normalize")
        ev = f"{SCALEDCORE}:phi_window_log_eval"
        put("scaledcore.evaluator.builds", c.get("scaledcore.evaluator", 0), "count", ev)
        put("scaledcore.evaluator.self_s", s.get("scaledcore.evaluator", 0.0), "s", ev)
        put("scaledcore.phi.evals", k.get("scaledcore.phi.evals", 0), "count", ev)

        q = f"{QUADRATURE}:integrate_log"
        per_call = self.samples.get("quadrature.evals_per_call", [])
        put("quadrature.calls", c.get("quadrature", 0), "count", q)
        put("quadrature.evals", k.get("quadrature.evals", 0), "count", q)
        put("quadrature.evals_per_call.p50",
            statistics.median(per_call) if per_call else 0, "count", q)
        put("quadrature.evals_per_call.max", max(per_call, default=0), "count", q)
        put("quadrature.nest_depth.max", k.get("quadrature.nest_depth.max", 0), "count", q)
        put("quadrature.self_s", s.get("quadrature", 0.0), "s", q)
        put("quadrature.errors", self.errors.get(("quadrature", "QuadratureError"), 0),
            "count", q)

        for kind in COMPONENT_KINDS:
            put(f"measures.window.calls.{kind}", c.get(f"measures.window.{kind}", 0),
                "count", f"{MEASURES}:{kind}.log_window_mass")
        put("measures.window.self_s",
            sum(s.get(f"measures.window.{kind}", 0.0) for kind in COMPONENT_KINDS), "s")
        put("measures.tail.calls",
            sum(c.get(f"measures.tail.{kind}", 0) for kind in COMPONENT_KINDS), "count")
        put("measures.normalizer_s", i.get("measures.normalizer", 0.0), "s",
            f"{MEASURES}:normalizer_M")

        conv = f"{CONVOLVE}:conv_local_mass"
        widths = self.samples.get("convolve.bracket_width_log", [])
        results = k.get("convolve.results", 0)
        put("convolve.conv.calls", c.get("convolve.conv", 0), "count", conv)
        put("convolve.conv.full_numeric_calls", k.get("convolve.conv.full_numeric_calls", 0),
            "count", conv)
        put("convolve.conv.split_calls", k.get("convolve.conv.split_calls", 0), "count", conv)
        put("convolve.self_conv.calls", c.get("convolve.self_conv", 0), "count",
            f"{CONVOLVE}:phi_self_conv_at")
        put("convolve.self_s", s.get("convolve.conv", 0.0) + s.get("convolve.self_conv", 0.0),
            "s")
        put("convolve.bracket_frac", k.get("convolve.brackets", 0) / results if results else 0.0,
            "ratio")
        put("convolve.bracket_width_log.p50", statistics.median(widths) if widths else 0.0,
            "log")
        put("convolve.bracket_width_log.max", max(widths, default=0.0), "log")

        put("probes.calls", c.get("probes", 0), "count")
        put("probes.entries", k.get("probes.entries", 0), "count")
        put("probes.flagged", k.get("probes.flagged", 0), "count")
        put("probes.self_s", s.get("probes", 0.0), "s")

        for name in REPORT_NAMES:
            put(f"gallery.report_s.{name}", i.get(f"gallery.report.{name}", 0.0), "s",
                f"{GALLERY}:REPORTS[{name}]")
        put("gallery.rows", k.get("gallery.rows", 0), "count", f"{GALLERY}:Report.rows")

        put("cli.write_s", i.get("cli.write", 0.0), "s", f"{CLI}:write_rows")
        put("cli.bytes", k.get("cli.bytes", 0), "bytes", f"{CLI}:write_rows")
        return out

    def save(self, path: str) -> None:
        """Write the spans as arrays (name ids index ``names``; parent -1 is a root)."""
        import numpy as np

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=object).astype(str),
                 name=np.frombuffer(self.sp_name, dtype=np.int32),
                 start=np.frombuffer(self.sp_start, dtype=np.float64),
                 end=np.frombuffer(self.sp_end, dtype=np.float64),
                 parent=np.frombuffer(self.sp_parent, dtype=np.int32),
                 op=np.frombuffer(self.sp_op, dtype=np.int32))


_ABSENT = object()


def self_times_from_spans(tracer: Tracer) -> dict:
    """Self time per name recomputed from the stored spans (for checking)."""
    child = [0.0] * len(tracer.sp_start)
    for idx, parent in enumerate(tracer.sp_parent):
        if parent >= 0:
            child[parent] += tracer.sp_end[idx] - tracer.sp_start[idx]
    out: dict = {}
    for idx, nid in enumerate(tracer.sp_name):
        name = tracer.names[nid]
        dur = tracer.sp_end[idx] - tracer.sp_start[idx]
        out[name] = out.get(name, 0.0) + dur - child[idx]
    return out
