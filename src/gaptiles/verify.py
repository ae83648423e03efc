"""Verifiers for interval tilings, homogeneous tilings, and rectangle tilings.

Verifiers are pure functions of their inputs and trust nothing about how a
tiling was built: coverage is re-derived from the point arrays alone, and
every check is an array pass over the CSR layout, so memory is linear in the
number of points whatever length the tiling declares. A partition passes the
cover check with one boolean mark per point; only a failing cover is sorted,
to report it. The gap and window checks run in blocks, one after another
in the calling thread, and take each block's steps as differences of its
own points, so the step arrays are bounded by the block, not the tiling.
The window check does hold a row, an offset and a start for every window
of every row. A rectangle's "points" for them are the prefix sums of its
step codes. The checks start no thread, so their time does not hang on
how many CPUs the host leaves free; with the steps gathered a column at a
time, one thread runs them about as fast as two did the row-wise way.

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


def _is_partition(points: np.ndarray, n: int) -> bool:
    """Whether the points, n of them, are each point of [0, n) once: then
    they lie in [0, n) and leave no point of it unmarked."""
    if n == 0:
        return True
    if points.min() < 0 or points.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[points] = True
    return bool(seen.all())


def _cover(
    points: np.ndarray,
    n: int,
    rep: ReportBuilder,
    locate: Callable[[np.ndarray], np.ndarray] | None = None,
) -> None:
    """Report every way the points fail to partition {0..n-1}.

    ``locate`` maps the points of Overlap and Hole to the locations reported
    for them; by default a point is its own location.

    A partition passes with one range check and one boolean mark per point
    (_is_partition). A failing cover is sorted once: its distinct points
    come in report order, those below 0, those in [0, n), those above. The
    counts give the overlaps, and only the first holes are listed, so
    memory stays linear in the number of points.
    """
    n = max(n, 0)
    if points.size == n and _is_partition(points, n):
        return
    present, counts = np.unique(points, return_counts=True)
    lo, hi = np.searchsorted(present, [0, n]).tolist()
    inside, inside_counts = present[lo:hi], counts[lo:hi]
    rep.add_all("OutOfRange", present[:lo], "point below 0")
    many = inside_counts > 1
    over, over_counts = inside[many], inside_counts[many]
    holes = _first_holes(inside, n, rep.cap)
    if locate is not None:
        over, holes = locate(over), locate(holes)
    rep.add_all("Overlap", over, lambda i: f"point covered {int(over_counts[i])} times")
    rep.add_all("Hole", holes, "point not covered by any block", n - inside.size)
    rep.add_all("OutOfRange", present[hi:], f"point outside [0, {n - 1}]")


# Window starts, or rows, checked per block: a block's windows are the
# check's only scratch that grows with the tiling.
_WINDOW_BLOCK = 1 << 15


def _in_blocks(differ: Callable[[int], np.ndarray], count: int) -> np.ndarray:
    """differ(a) for the blocks of _WINDOW_BLOCK items from each a, joined in order."""
    if count <= _WINDOW_BLOCK:
        return differ(0)
    return np.concatenate([differ(a) for a in range(0, count, _WINDOW_BLOCK)])


def _windows_differ(seq: np.ndarray, starts: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Whether the steps from each start s, the differences of
    seq[s : s + expected.size + 1], sorted, differ from expected.

    The steps are gathered, and compared with expected, a column at a time:
    numpy's gathers, differences and reductions along rows of a few steps
    each took 1.7 times as long in all.
    """
    width = expected.size
    windows = np.empty((starts.size, width), dtype=seq.dtype)
    ahead = seq[starts]
    for j in range(width):
        behind, ahead = ahead, seq[starts + (j + 1)]
        np.subtract(ahead, behind, out=windows[:, j])
    windows.sort(axis=1)
    bad = np.zeros(starts.size, dtype=bool)
    for j in range(width):
        bad |= windows[:, j] != expected[j]
    return bad


def _row_mismatches(offsets: np.ndarray, seq: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Rows whose sorted steps differ from expected, rows of another length included.

    A row's steps are the differences seq[j + 1] - seq[j] for each of its
    points j but the last. The rows are checked _WINDOW_BLOCK at a time.
    """

    def differ(a: int) -> np.ndarray:
        bounds = offsets[a : a + _WINDOW_BLOCK + 1]
        bad = np.diff(bounds) != expected.size + 1
        fit = ~bad
        bad[fit] = _windows_differ(seq, bounds[:-1][fit], expected)
        return bad

    return np.flatnonzero(_in_blocks(differ, offsets.size - 1))


def _window_mismatches(
    offsets: np.ndarray, seq: np.ndarray, expected: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(row, offset) of every window of expected.size consecutive steps
    within a row whose sorted steps differ from expected, in row then offset
    order; the steps are as for _row_mismatches. The window starts are
    checked _WINDOW_BLOCK at a time; every block size gives the same answer.
    """
    per_row = np.maximum(np.diff(offsets) - expected.size, 0)
    row = np.repeat(np.arange(per_row.size), per_row)
    off = np.arange(row.size) - np.repeat(offsets_from_sizes(per_row)[:-1], per_row)
    starts = offsets[row] + off

    def differ(a: int) -> np.ndarray:
        return _windows_differ(seq, starts[a : a + _WINDOW_BLOCK], expected)

    bad = _in_blocks(differ, starts.size)
    return row[bad], off[bad]


def _step_codes(paths: Paths, step_type: StepType) -> tuple[np.ndarray, np.ndarray]:
    """The prefix sums of each step's index in step_type (-1 if undeclared),
    one per point with a leading 0, so that a step's index is the difference
    of its ends' sums; and the sorted indices one path of the declared type
    has. The sums stay within the number of points times the type's size.
    """
    dx, dy = np.diff(paths.xs), np.diff(paths.ys)
    codes = np.full(dx.size + 1, -1, dtype=np.int64)
    codes[0] = 0
    steps = codes[1:]
    for code, ((vx, vy), _) in enumerate(step_type):
        steps[(dx == vx) & (dy == vy)] = code
    np.cumsum(codes, out=codes)
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
    bad = _row_mismatches(tiles.offsets, tiles.values, as_int64(gap_set.expand()))
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
    row, off = _window_mismatches(seqs.offsets, seqs.values, expected)
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
    row, off = _window_mismatches(paths.offsets, codes, expected)
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
