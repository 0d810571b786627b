"""The ``reports`` workload: the five packaged reports, rendered to CSV.

Each report runs at the default ``GallerySpec`` through ``gallery.REPORTS``
and is written with ``cli.write_rows``, as ``subexp gallery NAME --out DIR``
would.  The rows are then checked against ``reference/reports.json``,
generated by ``make_reference.py``:

* row keys, the text columns (probe, flag) and verdict classes match exactly;
* unbracketed numbers match within ``TOL_FACTOR * rel_tol`` (absolute for
  log columns, relative otherwise);
* certified brackets must overlap the reference bracket, so a tighter
  correct bracket passes and a disjoint one fails;
* a report that raises counts all of its reference rows as failed.
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

from subexp import cli, gallery

REFERENCE = Path(__file__).resolve().parent / "reference" / "reports.json"
NAMES = ("thm11", "thm12", "lem32", "prop11", "tilt")
TOL_FACTOR = 100.0
# (lo, hi) column pairs that hold certified brackets
BRACKET_PAIRS = (("bracket_lo", "bracket_hi"), ("p2_fail_lo", "p2_fail_hi"),
                 ("p1_sd_lo", "p1_sd_hi"))
# columns that are midpoints of a bracket when the row has one
BRACKET_MIDPOINTS = ("log_num", "log_ratio", "ratio")


def report_order(seed: int) -> list:
    """The order the reports run in; the seed sets nothing else."""
    order = list(NAMES)
    random.Random(f"reports:{seed}").shuffle(order)
    return order


def run_report(name: str, spec, out_dir: str) -> dict:
    """Run one report and render it; returns its rows and verdict classes."""
    report = gallery.REPORTS[name](spec)
    rows = report.rows()
    extra = sorted({k for r in rows for k in r} - set(cli.COLUMNS))
    out_path = os.path.join(out_dir, f"{name}.csv")
    cli.write_rows(rows, cli.COLUMNS + tuple(extra), "csv", out_path, spec.params)
    return {"rows": rows,
            "verdicts": {k: v.classification for k, v in report.verdicts.items()}}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_size(ref: dict) -> int:
    return len(ref["rows"]) + len(ref["verdicts"])


def _log(v: float) -> float:
    return math.log(v) if v > 0 else -math.inf


def _close(key: str, got, want, tol: float) -> bool:
    if isinstance(want, str) or want is None or isinstance(want, bool):
        return got == want
    if isinstance(want, int) and not isinstance(want, bool):
        return got == want
    if not isinstance(got, (int, float)):
        return False
    if math.isnan(want) or math.isinf(want):
        return (math.isnan(got) and math.isnan(want)) or got == want
    if key.startswith("log_") or key.endswith("_log_err"):
        return abs(got - want) <= tol
    return abs(got - want) <= tol * max(abs(want), 1e-300)


def _overlaps(lo, hi, ref_lo, ref_hi, tol: float) -> bool:
    return (_log(lo) <= _log(ref_hi) + tol and _log(ref_lo) <= _log(hi) + tol
            and lo <= hi * (1 + tol))


def row_ok(got: dict, want: dict, tol: float) -> bool:
    if set(got) != set(want):
        return False
    skip = set()
    for lo_key, hi_key in BRACKET_PAIRS:
        if want.get(lo_key) is None or got.get(lo_key) is None:
            continue
        skip |= {lo_key, hi_key}
        if not _overlaps(got[lo_key], got[hi_key], want[lo_key], want[hi_key], tol):
            return False
        if lo_key == "bracket_lo":
            skip |= set(BRACKET_MIDPOINTS)
            lo, hi = _log(got[lo_key]), _log(got[hi_key])
            if not (lo - tol <= _log(got["ratio"]) <= hi + tol):
                return False
    return all(_close(k, got[k], want[k], tol) for k in want if k not in skip)


def check(name: str, result: dict | None, ref: dict, rel_tol: float) -> int:
    """Number of failed reference rows and verdicts of one report."""
    want = ref[name]
    if result is None:
        return reference_size(want)
    tol = TOL_FACTOR * rel_tol
    got_rows = result["rows"]
    failed = abs(len(got_rows) - len(want["rows"]))
    failed += sum(not row_ok(g, w, tol) for g, w in zip(got_rows, want["rows"]))
    for key, cls in want["verdicts"].items():
        failed += result["verdicts"].get(key) != cls
    return failed


def bracket_widths(rows) -> list:
    """Log-widths of the certified brackets among the rows."""
    out = []
    for r in rows:
        for lo_key, hi_key in BRACKET_PAIRS:
            lo, hi = r.get(lo_key), r.get(hi_key)
            if lo is not None and hi is not None and lo > 0 and hi > 0 and hi > lo:
                out.append(math.log(hi) - math.log(lo))
    return out


_MANTISSA_OF_PROBE = (("y=3", "plateau"), ("fixed-y", "plateau"), ("window_conv2", "plateau"),
                      ("bridge_sd", "plateau"), ("smoothing", "plateau"), ("sandwich", "plateau"),
                      ("lam=0", "anchor"), ("uniformity", "anchor"), ("mixed_mass", "anchor"),
                      ("smoothed_pair", "anchor"), ("lam=inf", "lambda"), ("gam", "lambda"),
                      ("denominator[gamma", "lambda"))
_NESTED_PROBES = ("conv2", "sd", "mixed_mass", "smoothed_pair", "smoothing", "sandwich")


def property_shares(ref: dict) -> dict:
    """Share of report rows by property, read from the probe names and columns."""
    rows = [r for name in NAMES for r in ref[name]["rows"]]
    n = len(rows)
    out = {}
    classes = []
    for r in rows:
        probe = r["probe"]
        classes.append(next((c for key, c in _MANTISSA_OF_PROBE if key in probe), "none"))
    for cls in sorted(set(classes)):
        out[f"mantissa={cls}"] = classes.count(cls) / n
    out["beyond_float"] = 0.0  # report scales stay below b^256
    out["narrow"] = sum(isinstance(r.get("c"), float) and r["c"] < 1.0 for r in rows) / n
    out["nested"] = sum(any(k in r["probe"] for k in _NESTED_PROBES) for r in rows) / n
    return out
