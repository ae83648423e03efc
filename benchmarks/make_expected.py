"""Regenerate expected_search.json, the answer table of the search workload.

    python3 benchmarks/make_expected.py

Minimal lengths come from gaptiles' oracle; every witness is checked with the
benchmark's own checker, and every minimal length up to NAIVE_MAX_LENGTH is
confirmed with the slower test oracle in tests/naive_oracle.py (the length is
tilable and no shorter admissible length is). f(k, l, m) values come from
min_height_rect, with each witness checked the same way.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAIVE_MAX_LENGTH = 12


def search_instances(max_kl: int = 8) -> list[tuple[int, int, int]]:
    """(k, l, m) with k + l <= max_kl whose minimal height needs a search
    (m = k + l + 1 is the staircase and is answered without one)."""
    return [
        (k, l, m)
        for k in range(1, max_kl)
        for l in range(1, max_kl - k + 1)
        for m in range(k + 1, k + l + 1)
    ]


def naive_confirms(gaps: tuple[int, ...], n: int) -> bool:
    """n is the least length the naive test oracle finds tilable."""
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    from naive_oracle import naive_tilable

    step = len(gaps) + 1
    return naive_tilable(gaps, n) and not any(naive_tilable(gaps, s) for s in range(step, n, step))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import checker
    from gaptiles.catalog import enumerate_gap_sets
    from gaptiles.grid import HeightTable, min_height_rect
    from gaptiles.oracle import min_interval

    min_length = {}
    for gs in enumerate_gap_sets(6, 4):
        found = min_interval(gs, 120)
        min_length[str(gs)] = found[0] if found else None
        if found:
            n, wit = found
            offsets, values = checker.csr_from_rows(t.points for t in wit.tiles)
            if checker.check_interval(n, offsets, values, np.array(gs.expand())):
                raise SystemExit(f"witness for {{{gs}}} fails the checker")
            if n <= NAIVE_MAX_LENGTH and not naive_confirms(gs.expand(), n):
                raise SystemExit(f"naive oracle disagrees on {{{gs}}}")
    table = HeightTable()
    fvalues = {}
    for k, l, m in search_instances():
        f, wit = min_height_rect(k, l, m, table=table)
        if checker.check_rectangle(m, f, [p.points for p in wit.paths], k, l):
            raise SystemExit(f"witness for f({k},{l},{m}) fails the checker")
        fvalues[f"{k},{l},{m}"] = f
    out = {"min_length": min_length, "fvalues": fvalues}
    (HERE / "expected_search.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(min_length)} gap sets, {sum(v is None for v in min_length.values())} with no tiling "
          f"<= 120; {len(fvalues)} rectangle instances")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
