"""Rebuild ``expected.json``, the digests the workload checks compare with.

    python3 bench/make_expected.py

Run it only on a commit whose outputs are trusted: every digest is taken
from the program as it stands.  Formula values are cross-checked before
their digest is stored, and listings are checked for count, order and
validity first, so a wrong value is refused rather than recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tilingkit import tables  # noqa: E402

import workloads as wl  # noqa: E402

FORMULA_SEEDS = range(16)  # seeds whose formula-scale output is stored whole


def main() -> int:
    expected = {
        "verify-default": "",
        "tables": {t: wl.digest(repr(tables.build_table(t).cells))
                   for t in tables.TABLE_IDS},
        "triple-agreement-cells": 0,
        "formula-scale": {},
        "listing": {},
    }
    tally = wl.Tally()
    verify = wl.WORKLOADS["verify-default"]
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        report = verify.make_inputs(0, Path(tmp))
        code = verify.run(report)
        expected["verify-default"] = wl.digest(report.read_text())
        verify.check(tally, report, code, 0, expected)  # exit code and all_match

    triple = wl.WORKLOADS["triple-agreement"]
    bound = triple.make_inputs(0, ROOT)
    cells = triple.run(bound)
    expected["triple-agreement-cells"] = len(cells)
    triple.check(tally, bound, cells, 0, expected)

    formula = wl.WORKLOADS["formula-scale"]
    for seed in FORMULA_SEEDS:
        points = formula.make_inputs(seed, ROOT)
        out = formula.run(points)
        formula.check(tally, points, out, seed, expected)
        expected["formula-scale"][str(seed)] = wl.formula_digest(out)

    listing = wl.WORKLOADS["oracle-listing"]
    points = [(kind, p) for kind, pool in wl.LISTING_POOLS.items() for p in pool]
    outputs = listing.run(points)
    for (kind, point), objects in zip(points, outputs):
        keys = wl.listing_keys(kind, objects)
        expected["listing"][wl.listing_key(kind, point)] = wl.listing_digest(keys)
    listing.check(tally, points, outputs, 0, expected)  # count, order, validity

    if tally.failures:
        print("refusing to store digests; failed checks:", *tally.failures, sep="\n  ",
              file=sys.stderr)
        return 1
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.EXPECTED_PATH.name}: {tally.attempted} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
