"""Regenerate ``reference/reports.json`` from the current program.

Run from the repository root:  python3 perfbench/make_reference.py

Only do this at a commit whose report rows are known to be right: the
``reports`` workload accepts later rows only when they agree with this file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import subexp  # noqa: E402

import reports  # noqa: E402


def main() -> int:
    spec = subexp.GallerySpec()
    out = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in reports.NAMES:
            out[name] = reports.run_report(name, spec, tmp)
    reports.REFERENCE.parent.mkdir(exist_ok=True)
    with open(reports.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {reports.REFERENCE} ({sum(len(v['rows']) for v in out.values())} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
