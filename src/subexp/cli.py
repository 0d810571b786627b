"""Command-line front end: configuration, report execution, CSV/JSON output.

Usage:
    subexp eval    --x 3 --x "4^8*2+1" [--window 1.0]
    subexp probe   NAME [probe flags]
    subexp gallery REPORT [--out DIR]
    subexp oracle  CASE

Common flags: [--config PATH] [--out PATH] [--format csv|json].

Exit codes: 0 success, 2 configuration/usage error, 3 quadrature failure
(partial rows are still written, flagged in the ``flag`` column).  A given
configuration always produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import DivergentMomentError, ParameterError, QuadratureError
from .logsum import log_add
from .quadrature import QuadratureSpec
from .scaledcore import ModelParams, PeriodicProfile, ScaledSum, SequenceSpec
from .measures import MixtureDistribution, phi_integral_log
from .convolve import (
    oracle_conv_density_at,
    oracle_window_mass,
    phi_self_conv_at,
    phi_values,
)
from . import probes as probes_mod
from .gallery import (
    _COLUMNS,
    REPORTS,
    GallerySpec,
    PhiDensityHandle,
    build_mu,
    series_rows,
)

COLUMNS = _COLUMNS + tuple(f.name for f in fields(ModelParams))


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (JSON document with embedded defaults)."""

    params: ModelParams = field(default_factory=ModelParams)
    quad: QuadratureSpec = field(default_factory=lambda: QuadratureSpec(rel_tol=1e-7))
    probe: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "csv"

    @classmethod
    def load(cls, path: str | None, out=None, fmt=None,
             reads_quadrature: bool = True) -> "RunConfig":
        """Read the JSON document at ``path``; a command that runs its own
        tolerance (``reads_quadrature`` false) rejects a quadrature section
        rather than ignore it."""
        doc = {}
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ParameterError("config document must be a JSON object")
        unknown = set(doc) - {"model", "quadrature", "probe", "output"}
        if unknown:
            raise ParameterError(f"unknown config sections: {sorted(unknown)}")
        if "quadrature" in doc and not reads_quadrature:
            raise ParameterError("this command runs its own rel_tol and reads no "
                                 "quadrature section")
        params = ModelParams(**doc.get("model", {}))
        qdoc = dict(doc.get("quadrature", {}))
        unknown = set(qdoc) - {"rel_tol", "abs_floor", "max_depth"}
        if unknown:
            raise ParameterError(f"unknown quadrature keys: {sorted(unknown)}")
        qdoc.setdefault("rel_tol", 1e-7)
        quad = QuadratureSpec(**qdoc)
        odoc = doc.get("output", {})
        return cls(
            params=params, quad=quad, probe=doc.get("probe", {}),
            out=out if out is not None else odoc.get("path"),
            fmt=fmt if fmt is not None else odoc.get("format", "csv"),
        )

    def gallery_spec(self) -> GallerySpec:
        kwargs = {}
        if "k_max" in self.probe:
            kwargs["k_max"] = int(self.probe["k_max"])
        if "n_range" in self.probe:
            kwargs["n_range"] = tuple(int(n) for n in self.probe["n_range"])
        return GallerySpec(params=self.params, quad=self.quad, **kwargs)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if v != v:
            return "nan"
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
        return repr(v)
    return str(v)


def _clip_ratio(row: dict) -> dict:
    out = dict(row)
    for key in ("ratio", "bracket_lo", "bracket_hi"):
        v = out.get(key)
        if isinstance(v, float) and math.isfinite(v):
            out[key] = max(min(v, probes_mod.CLIP), -probes_mod.CLIP)
    return out


def _exp_clipped(v: float) -> float:
    return math.exp(v) if v < math.log(probes_mod.CLIP) else probes_mod.CLIP


def write_rows(rows, columns, fmt: str, out_path: str | None, params: ModelParams):
    rows = [_clip_ratio(r) for r in rows]
    if fmt == "csv":
        lines = [",".join(columns)]
        for r in rows:
            lines.append(",".join(_fmt(r.get(col)) for col in columns))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "model": asdict(params),
            "rows": [{col: r.get(col) for col in columns} for r in rows],
        }
        text = json.dumps(doc, indent=1, allow_nan=True) + "\n"
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# point parsing:  "4^8*2+1"  |  "4^8*2-0.5"  |  plain float
# ---------------------------------------------------------------------------

_POINT_RE = re.compile(
    r"^(?P<base>\d+(?:\.\d+)?)\^(?P<m>-?\d+)\*(?P<y>\d+(?:\.\d+)?)"
    r"(?P<off>[+-]\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?$")


def parse_point(text: str, b: float) -> ScaledSum:
    m = _POINT_RE.match(text.strip())
    if m:
        base = float(m.group("base"))
        if abs(base - b) > 1e-12:
            raise ParameterError(f"point base {base} does not match model base {b}")
        off = float(m.group("off")) if m.group("off") else 0.0
        return ScaledSum.scaled(int(m.group("m")), float(m.group("y")), b=b, offset=off)
    try:
        return ScaledSum.from_float(float(text), b)
    except ValueError as exc:
        raise ParameterError(f"cannot parse point {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(cfg: RunConfig, args) -> int:
    profile = PeriodicProfile(cfg.params)
    spec = cfg.gallery_spec()
    mu = build_mu(spec)
    handle = PhiDensityHandle(spec, mu)
    rows = []
    for text in args.x:
        x = parse_point(text, cfg.params.b)
        h = profile.value(x)
        log_phi = handle.log_value(x) + handle.component.m_log
        row = {"probe": "eval", "n": None, "m": None, "c": args.window,
               "log_num": log_phi, "log_den": 0.0,
               "log_ratio": log_phi, "ratio": h,
               "bracket_lo": None, "bracket_hi": None, "flag": "",
               **asdict(cfg.params)}
        if args.window:
            row["log_num"] = mu.log_window_mass(x, args.window)
            row["log_ratio"] = row["log_num"]
            row["flag"] = "window-mass"
        rows.append(row)
    write_rows(rows, COLUMNS, cfg.fmt, cfg.out, cfg.params)
    return 0


_PROBES = ("long_tail", "sd", "scaling", "uniformity", "sandwich", "tilt",
           "truncated_density", "truncated_local")


def cmd_probe(cfg: RunConfig, args) -> int:
    spec = cfg.gallery_spec()
    mu = build_mu(spec)
    p = cfg.params
    ns = tuple(range(args.n_lo, args.n_hi + 1))
    seq = SequenceSpec(args.regime, args.target, ns, side=args.side)
    quad = cfg.quad
    rows: list
    if args.name == "long_tail":
        s = probes_mod.long_tail_probe(mu, args.a, seq, params=p, c=args.c[0])
        rows = series_rows(s, p)
    elif args.name == "sd":
        handle = PhiDensityHandle(spec, mu)
        rows = series_rows(probes_mod.sd_probe(handle, seq, params=p), p)
    elif args.name == "scaling":
        rows = series_rows(probes_mod.scaling_probe(mu, args.c, seq, params=p), p)
    elif args.name == "uniformity":
        s = probes_mod.uniformity_probe(mu, ns, tuple(int(round(c)) for c in args.c)
                                        or (2,), params=p)
        rows = series_rows(s, p)
    elif args.name == "sandwich":
        entries = probes_mod.sandwich_probe(mu, args.c[0], args.c1, args.a, seq,
                                            params=p)
        rows = [{"probe": f"sandwich[j1={e.j1!r}]", "n": e.n, "m": None, "c": args.c[0],
                 "log_num": math.log(e.j1), "log_den": math.log(e.j2),
                 "log_ratio": math.log(e.mid), "ratio": e.mid,
                 "bracket_lo": e.j1, "bracket_hi": e.j2,
                 "flag": "" if e.ordered else "order-violation",
                 **asdict(p)} for e in entries]
    elif args.name == "tilt":
        from .measures import ParetoAC, tilt as tilt_op
        rho = tilt_op(MixtureDistribution.single(ParetoAC(1.0)), -args.gamma)
        s = probes_mod.tilt_identity_probe(rho, args.gamma, args.c,
                                           tuple(float(x) for x in (args.x_grid or
                                                                    range(20, 61, 10))))
        rows = series_rows(s, p)
    elif args.name == "truncated_density":
        handle = PhiDensityHandle(spec, mu)
        rows = []
        for n in ns:
            x = ScaledSum.scaled(n, 3.0, b=p.b)
            for a_cut in args.A:
                val, flagged = probes_mod.truncated_tail_density(handle, a_cut, x, quad)
                rows.append({"probe": "truncated_density", "n": n, "m": None,
                             "c": a_cut, "log_num": None, "log_den": None,
                             "log_ratio": None, "ratio": val,
                             "bracket_lo": None, "bracket_hi": None,
                             "flag": "flagged" if flagged else "",
                             **asdict(p)})
    else:  # truncated_local
        rows = []
        for n in ns:
            x = ScaledSum.scaled(n, 3.0, b=p.b)
            for a_cut in args.A:
                val = probes_mod.truncated_tail_local(mu, a_cut, x, args.c[0], quad)
                rows.append({"probe": "truncated_local", "n": n, "m": None,
                             "c": a_cut, "log_num": None, "log_den": None,
                             "log_ratio": None, "ratio": val,
                             "bracket_lo": None, "bracket_hi": None, "flag": "",
                             **asdict(p)})
    write_rows(rows, COLUMNS, cfg.fmt, cfg.out, cfg.params)
    return 0


def cmd_gallery(cfg: RunConfig, args) -> int:
    spec = cfg.gallery_spec()
    report = REPORTS[args.report](spec)
    rows = report.rows()
    extra_cols = sorted({k for r in rows for k in r} - set(COLUMNS))
    columns = COLUMNS + tuple(extra_cols)
    out = cfg.out
    if out:
        out_dir = Path(out)
        out_path = str(out_dir / f"{args.report}.{cfg.fmt}")
    else:
        out_path = None
    write_rows(rows, columns, cfg.fmt, out_path, cfg.params)
    for note in report.notes:
        print(f"# {note}", file=sys.stderr)
    return 0


_ORACLE_CASES = ("uniform-conv", "phi-conv", "mu-local", "normalizer")


def cmd_oracle(cfg: RunConfig, args) -> int:
    p = cfg.params
    profile = PeriodicProfile(p)
    quad = QuadratureSpec(rel_tol=1e-9)
    rows = []
    if args.case == "uniform-conv":
        from .measures import UniformAC
        from .convolve import conv_local_mass
        uni = MixtureDistribution.single(UniformAC(0.0, 1.0))
        for x in (0.0, 0.5, 1.0):
            adaptive = math.exp(conv_local_mass(uni, uni, x, 0.5, quad))
            tri = lambda u: (u if u <= 1.0 else 2.0 - u) if 0.0 <= u <= 2.0 else 0.0
            exact = _simpson_exact(tri, max(x, 0.0), min(x + 0.5, 2.0))
            rows.append(_oracle_row(p, "uniform-conv", x, adaptive, exact))
    elif args.case == "phi-conv":
        g = lambda u: phi_values(profile, u)
        for x in (10.0, 100.0, 1000.0):
            adaptive = math.exp(phi_self_conv_at(profile, x, quad))
            oracle = oracle_conv_density_at(g, g, x, 1.0, x - 1.0, 1e-4)
            rows.append(_oracle_row(p, "phi-conv", x, adaptive, oracle))
    elif args.case == "mu-local":
        spec = cfg.gallery_spec()
        mu = build_mu(spec)
        m_val = math.exp(mu.components[0][1].m_log)
        grid = lambda u: phi_values(profile, u) / m_val
        for x in (32.0, 100.0, 8192.0):
            adaptive = math.exp(mu.log_window_mass(ScaledSum.from_float(x, p.b), 1.0))
            oracle = oracle_window_mass(grid, x, x + 1.0, 1e-6)
            rows.append(_oracle_row(p, "mu-local", x, adaptive, oracle))
    else:  # normalizer
        adaptive = math.exp(phi_integral_log(profile, 1.0, 1e4, quad)) \
            + profile.plateau * 1e-4 ** p.alpha / p.alpha
        grid = lambda u: phi_values(profile, u)
        oracle = _periodic_riemann_normalizer(profile, p) \
            + profile.plateau * 1e-4 ** p.alpha / p.alpha
        rows.append(_oracle_row(p, "normalizer", 1e4, adaptive, oracle))
    write_rows(rows, COLUMNS + ("oracle", "rel_err"), cfg.fmt, cfg.out, cfg.params)
    return 0


def _simpson_exact(f, lo, hi):
    if hi <= lo:
        return 0.0
    cuts = sorted({lo, hi, *(k for k in (1.0,) if lo < k < hi)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = 0.5 * (a + b)
        total += (b - a) * (f(a) + 4 * f(m) + f(b)) / 6.0
    return total


def _periodic_riemann_normalizer(profile, p, step=1e-6):
    grid = lambda u: phi_values(profile, u)
    cell = oracle_window_mass(grid, 1.0, p.b, step)
    m_cells = int(math.floor(math.log(1e4) / p.log_b))
    total = sum(p.b ** (-p.alpha * m) * cell for m in range(m_cells))
    lo = p.b ** m_cells
    total += p.b ** (-p.alpha * m_cells) * oracle_window_mass(
        grid, 1.0, 1e4 / lo, step)
    return total


def _oracle_row(p, case, x, adaptive, oracle):
    rel = abs(adaptive / oracle - 1.0) if oracle else math.inf
    return {"probe": case, "n": None, "m": None, "c": x,
            "log_num": math.log(adaptive) if adaptive > 0 else None,
            "log_den": math.log(oracle) if oracle > 0 else None,
            "log_ratio": None, "ratio": adaptive,
            "bracket_lo": None, "bracket_hi": None, "flag": "",
            "oracle": oracle, "rel_err": rel, **asdict(p)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="subexp",
                                 description="numerical laboratory for log-periodic "
                                             "heavy-tailed densities")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)

    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", parents=[common], help="profile/density values at points")
    ev.add_argument("--x", action="append", required=True,
                    help="point, e.g. 3.5 or 4^64*2+1 (repeatable)")
    ev.add_argument("--window", type=float, default=None)

    pr = sub.add_parser("probe", parents=[common], help="run a single ratio probe")
    pr.add_argument("name", choices=_PROBES)
    pr.add_argument("--a", type=float, default=1.0)
    pr.add_argument("--c", type=float, action="append", default=None)
    pr.add_argument("--c1", type=float, default=1.0)
    pr.add_argument("--gamma", type=float, default=1.0)
    pr.add_argument("--regime", choices=("fixed-y", "lambda", "gamma"), default="fixed-y")
    pr.add_argument("--target", type=float, default=3.0)
    pr.add_argument("--side", type=int, choices=(1, -1), default=1)
    pr.add_argument("--n-lo", type=int, default=4)
    pr.add_argument("--n-hi", type=int, default=8)
    pr.add_argument("--A", type=float, action="append", default=None)
    pr.add_argument("--x-grid", type=float, action="append", default=None)

    ga = sub.add_parser("gallery", parents=[common], help="run a packaged report")
    ga.add_argument("report", choices=sorted(REPORTS))

    orc = sub.add_parser("oracle", parents=[common], help="adaptive vs brute-force table")
    orc.add_argument("case", choices=_ORACLE_CASES)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig.load(args.config, out=args.out, fmt=args.fmt,
                             reads_quadrature=args.command != "oracle")
    except (ParameterError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "probe":
        if args.c is None:
            args.c = [1.0]
        if args.A is None:
            args.A = [4.0, 16.0, 64.0]
    try:
        if args.command == "eval":
            return cmd_eval(cfg, args)
        if args.command == "probe":
            return cmd_probe(cfg, args)
        if args.command == "gallery":
            return cmd_gallery(cfg, args)
        if args.command == "oracle":
            return cmd_oracle(cfg, args)
    except QuadratureError as exc:
        # partial results: the accumulated value and, in the linear bracket
        # columns, [partial, partial + error bound], flagged
        row = {"probe": "partial", "flag": "partial", "log_num": exc.partial_log,
               "bracket_lo": _exp_clipped(exc.partial_log),
               "bracket_hi": _exp_clipped(log_add(exc.partial_log, exc.bound_log)),
               **asdict(cfg.params)}
        out_path = cfg.out
        if out_path and args.command == "gallery":
            out_path = str(Path(out_path) / f"{args.report}.partial.{cfg.fmt}")
        write_rows([row], COLUMNS, cfg.fmt, out_path, cfg.params)
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, DivergentMomentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
