#!/usr/bin/env python3
"""Compare two ``bosonhopf run`` JSON reports row by row.

Usage:
    python3 scripts/compare_reports.py BASE.json NEW.json

Rows are matched by identity, family, params, dim and suite; rows sharing
that key are paired in report order.  The script prints the row counts, the
rows present in only one report, every verdict flip (passed or skipped
changed) and the largest absolute and the largest relative residual change,
each with its row key and the two residuals, so that a large relative
change on a rounding-level residual shows as such.  It exits 1
on any flip, any unmatched row or any residual change above RESIDUAL_TOL,
and 0 otherwise.  Residuals are already normalised, so the bound is absolute.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict

RESIDUAL_TOL = 1e-12


def row_key(row: dict) -> tuple:
    return (row["identity"], row["family"],
            json.dumps(row["params"], sort_keys=True), row["dim"], row["suite"])


def keyed_rows(path: str) -> dict:
    with open(path) as fh:
        rows = json.load(fh)["reports"]
    out = defaultdict(list)
    for row in rows:
        out[row_key(row)].append(row)
    return out


def residual_change(a, b) -> float:
    """|a - b|, with equal non-finite residuals (nan, inf) counting as 0."""
    a, b = float(a), float(b)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare(base: dict, new: dict) -> tuple:
    """(unmatched keys with their side, flips, largest absolute change,
    largest relative change); each largest change is a tuple
    (change, key, base residual, new residual), or None when no residual moved.
    """
    unmatched, flips = [], []
    largest_abs = largest_rel = None
    for key in sorted(set(base) | set(new)):
        rows_a, rows_b = base.get(key, []), new.get(key, [])
        for side, extra in (("base", rows_a[len(rows_b):]), ("new", rows_b[len(rows_a):])):
            unmatched.extend((side, key) for _ in extra)
        for a, b in zip(rows_a, rows_b):
            verdicts = [(r["passed"], r["skipped"]) for r in (a, b)]
            if verdicts[0] != verdicts[1]:
                flips.append((key, *verdicts))
            change = residual_change(a["residual"], b["residual"])
            if change:
                scale = abs(float(a["residual"]))
                rel = change / scale if 0 < scale < math.inf else math.inf
                row = (key, a["residual"], b["residual"])
                if largest_abs is None or change > largest_abs[0]:
                    largest_abs = (change, *row)
                if largest_rel is None or rel > largest_rel[0]:
                    largest_rel = (rel, *row)
    return unmatched, flips, largest_abs, largest_rel


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = keyed_rows(argv[0]), keyed_rows(argv[1])
    unmatched, flips, largest_abs, largest_rel = compare(base, new)
    print(f"rows: base {sum(map(len, base.values()))}, "
          f"new {sum(map(len, new.values()))}")
    for side, key in unmatched:
        print(f"only in {side}: {key}")
    for key, was, now in flips:
        print(f"verdict flip: {key} (passed, skipped) {was} -> {now}")
    print(f"verdict flips: {len(flips)}, unmatched rows: {len(unmatched)}")
    for kind, largest in (("absolute", largest_abs), ("relative", largest_rel)):
        if largest is None:
            print(f"largest {kind} residual change: 0")
        else:
            change, key, was, now = largest
            print(f"largest {kind} residual change: {change:.3e} at {key} "
                  f"({was!r} -> {now!r})")
    max_abs = largest_abs[0] if largest_abs else 0.0
    return 1 if unmatched or flips or max_abs > RESIDUAL_TOL else 0


if __name__ == "__main__":
    sys.exit(main())
