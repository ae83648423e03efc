"""Verifiers for interval tilings, homogeneous tilings, and rectangle tilings.

Verifiers are pure functions of their inputs and trust nothing about how a
tiling was built: coverage is re-derived from the point arrays alone, and
every check is an array pass over the CSR layout, so memory is linear in the
number of points whatever length the tiling declares.

Violations come in a fixed order: OutOfRange below 0, Overlap, Hole,
OutOfRange above the range, then the per-tile or per-path mismatches by index.
Interval checks locate a point by its value; lattice-path checks locate it by
its (x, y) cell, with Overlap and Hole in row-major order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .types import (
    DEFAULT_VIOLATION_CAP,
    GapSet,
    IntervalTiling,
    Paths,
    RectangleTiling,
    ReportBuilder,
    StepType,
    Tile,
    Tiles,
    VerificationReport,
    as_int64,
    offsets_from_sizes,
)


def _first_holes(present: np.ndarray, n: int, limit: int) -> np.ndarray:
    """The first `limit` points of [0, n) missing from the sorted distinct `present`.

    Gap i runs from starts[i] to ends[i] (exclusive); both stay within
    [0, n], so no difference overflows int64 whatever n is.
    """
    starts = np.concatenate(([0], present + 1))
    ends = np.concatenate((present, [n]))
    out: list[int] = []
    for g in np.flatnonzero(ends > starts)[:limit].tolist():
        lo = int(starts[g])
        out.extend(range(lo, min(int(ends[g]), lo + limit - len(out))))
        if len(out) >= limit:
            break
    return np.array(out, dtype=np.int64)


def _cover(
    points: np.ndarray,
    n: int,
    rep: ReportBuilder,
    locate: Callable[[np.ndarray], np.ndarray] | None = None,
) -> None:
    """Report every way the points fail to partition {0..n-1}.

    ``locate`` maps the points of Overlap and Hole to the locations reported
    for them; by default a point is its own location.

    Points are range-checked first. The in-range ones are counted over
    [0, n) when n is at most their number; otherwise overlaps come from the
    sorted distinct points and only the first holes are listed, so memory
    stays linear in the number of points. Counting is kept for the dense
    case because it is faster and smaller there: sorting alone made the
    headline construct about 17% slower and its peak memory 26% higher.
    """
    n = max(n, 0)
    below = points < 0
    above = points >= n
    outside = below | above
    inside = points[~outside] if outside.any() else points
    if below.any():
        rep.add_all("OutOfRange", np.unique(points[below]), "point below 0")
    if n <= inside.size:
        counts = np.bincount(inside, minlength=n)
        over = np.flatnonzero(counts > 1)
        over_counts = counts[over]
        holes = np.flatnonzero(counts == 0)
        n_holes = holes.size
    else:
        present, counts = np.unique(inside, return_counts=True)
        over = present[counts > 1]
        over_counts = counts[counts > 1]
        holes = _first_holes(present, n, rep.cap)
        n_holes = n - present.size
    if locate is not None:
        over, holes = locate(over), locate(holes)
    rep.add_all("Overlap", over, lambda i: f"point covered {int(over_counts[i])} times")
    rep.add_all("Hole", holes, "point not covered by any block", n_holes)
    if above.any():
        rep.add_all("OutOfRange", np.unique(points[above]), f"point outside [0, {n - 1}]")


def _sorted_windows_differ(
    steps: np.ndarray, starts: np.ndarray, expected: np.ndarray, width: int
) -> np.ndarray:
    """Whether steps[s : s + width], sorted, differs from expected, per start s.

    Windows of another length than expected differ by definition.
    """
    if width != expected.size:
        return np.ones(starts.size, dtype=bool)
    windows = steps[starts[:, None] + np.arange(width)]
    windows.sort(axis=1)
    return (windows != expected).any(axis=1)


def _row_mismatches(offsets: np.ndarray, steps: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Rows whose sorted steps differ from expected, rows of another length included.

    steps[j] is the step from point j to point j+1 of the flat point array.
    """
    bad = np.diff(offsets) - 1 != expected.size
    fit = np.flatnonzero(~bad)
    bad[fit] = _sorted_windows_differ(steps, offsets[fit], expected, expected.size)
    return np.flatnonzero(bad)


def _window_mismatches(
    offsets: np.ndarray, steps: np.ndarray, expected: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """(row, offset) of every window of `width` consecutive steps within a row
    whose sorted steps differ from expected, in row then offset order."""
    per_row = np.maximum(np.diff(offsets) - width, 0)
    row = np.repeat(np.arange(per_row.size), per_row)
    off = np.arange(row.size) - np.repeat(offsets_from_sizes(per_row)[:-1], per_row)
    bad = _sorted_windows_differ(steps, offsets[row] + off, expected, width)
    return row[bad], off[bad]


def _step_codes(paths: Paths, step_type: StepType) -> tuple[np.ndarray, np.ndarray]:
    """Each step's index in step_type (-1 if undeclared), and the sorted
    indices one path of the declared type has."""
    dx, dy = np.diff(paths.xs), np.diff(paths.ys)
    codes = np.full(dx.size, -1, dtype=np.int64)
    for code, ((vx, vy), _) in enumerate(step_type):
        codes[(dx == vx) & (dy == vy)] = code
    expected = np.repeat(np.arange(len(step_type)), [mult for _, mult in step_type])
    return codes, expected


def verify_interval_tiling(
    tiling: IntervalTiling,
    gap_set: GapSet,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> VerificationReport:
    """ok iff the tiles partition {0..length-1} and every tile's gaps equal gap_set."""
    rep = ReportBuilder(max_violations)
    tiles = tiling.tiles
    _cover(tiles.values, tiling.length, rep)
    bad = _row_mismatches(tiles.offsets, np.diff(tiles.values), as_int64(gap_set.expand()))
    rep.add_all("GapMismatch", bad, "tile gap multiset differs from the target gap set")
    return rep.build()


def verify_boundary_prefix(
    tiling: IntervalTiling,
    d1: int,
    count: int,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> VerificationReport:
    """ok iff every tile ending in the last d1 points starts with `count` gaps equal to d1.

    Assumes the tiling itself is valid (run verify_interval_tiling separately).
    """
    if d1 < 1 or count < 0:
        raise PreconditionError("d1 must be >= 1 and count >= 0")
    rep = ReportBuilder(max_violations)
    tiles = tiling.tiles
    for idx in np.flatnonzero(tiles.ends() >= tiling.length - d1).tolist():
        gaps = np.diff(tiles.row(idx)).tolist()
        if count > len(gaps):
            rep.add("BoundaryPrefixViolation", (idx, len(gaps)), f"tile has fewer than {count} gaps")
            continue
        for gi in range(count):
            if gaps[gi] != d1:
                rep.add("BoundaryPrefixViolation", (idx, gi), f"gap {gi} is {gaps[gi]}, expected {d1}")
    return rep.build()


def verify_homogeneous(
    seqs: Tiles | Sequence[Tile],
    n_points: int,
    gap_set: GapSet,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> VerificationReport:
    """ok iff seqs partition {0..n_points-1} and every window of size()+1
    consecutive points of every sequence has gap multiset equal to gap_set.

    Sequences shorter than one window are vacuously homogeneous.
    """
    rep = ReportBuilder(max_violations)
    seqs = Tiles.of(seqs)
    _cover(seqs.values, n_points, rep)
    expected = as_int64(gap_set.expand())
    row, off = _window_mismatches(seqs.offsets, np.diff(seqs.values), expected, expected.size)
    rep.add_all(
        "WindowMismatch",
        np.column_stack((row, off)),
        lambda i: f"window at point offset {off[i]} has wrong gap multiset",
    )
    return rep.build()


def verify_rectangle_tiling(
    rect: RectangleTiling,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> VerificationReport:
    """ok iff the paths partition the rectangle's points and match the declared type.

    Every violation of the cover is located at its (x, y) cell. Uniform mode
    (window None) compares each path's full step multiset; windowed mode
    compares every window of `window` consecutive steps.
    """
    rep = ReportBuilder(max_violations)
    paths, width, height, window = rect.paths, rect.width, rect.height, rect.window
    xs, ys = paths.xs, paths.ys
    inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    out = np.flatnonzero(~inside)
    rep.add_all("OutOfRange", np.column_stack((xs[out], ys[out])), "path point outside the rectangle")

    def cell(p: np.ndarray) -> np.ndarray:
        return np.column_stack((p % width, p // width))

    _cover(xs[inside] + ys[inside] * width, width * height, rep, cell)
    codes, expected = _step_codes(paths, rect.step_type)
    if window is None:
        bad = _row_mismatches(paths.offsets, codes, expected)
        rep.add_all("TypeMismatch", bad, "path step multiset differs from declared type")
        return rep.build()
    short = np.flatnonzero(paths.sizes() - 1 < window)
    row, off = _window_mismatches(paths.offsets, codes, expected, window)
    rows = np.concatenate((short, row))
    # A short path has no windows, so sorting by path keeps each path's entries together.
    order = np.argsort(rows, kind="stable")
    loc = np.column_stack((rows, np.concatenate((np.zeros_like(short), off))))[order]
    rep.add_all(
        "WindowMismatch",
        loc,
        lambda i: (
            f"path has fewer than {window} steps"
            if order[i] < short.size
            else f"window of {window} steps at offset {loc[i, 1]} differs from declared type"
        ),
    )
    return rep.build()
