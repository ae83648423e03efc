"""Verifiers for interval tilings, homogeneous tilings, and rectangle tilings.

Verifiers are pure functions of their inputs and trust nothing about how a
tiling was built: coverage is re-derived from the point arrays alone, and
every check is an array pass over the CSR layout, so memory is linear in the
number of points whatever length the tiling declares. A partition passes the
cover check with one boolean mark per point; only a failing cover is sorted,
to report it. The gap and window checks run in blocks, one after another
in the calling thread, and take each block's steps as differences of its
own points, so the step arrays are bounded by the block, not the tiling.
They count, for each distinct target value, the steps of a window equal
to it, and compare the counts with the target's multiplicities, which is
exact as the values are distinct (_steps_differ). The gap check reads a
block of rows that all have one point more than the gap set has gaps (as
the view's recorded size says) as one (rows, width + 1) view of the
points; rows of mixed sizes are gathered a column at a time, as the
window check gathers its windows (_windows_differ). The window check holds
the starts of one block of windows, and a row and an offset only for a
failing window. A rectangle's "points" for them are the prefix sums of its
step codes. The checks start no thread, so their time does not hang on free
CPUs.

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
    block_spans,
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


def _counted(entries: Sequence[tuple[int, int]], points: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The distinct values of (value, count) entries, as an int64 column,
    their counts as a column, and the steps in a window of them. Counts
    adding up to `points` or more fit no row: `points` stands in for them."""
    counts = [k for _, k in entries]
    values = as_int64([v for v, _ in entries]).reshape(-1, 1)
    return values, np.array(counts).reshape(-1, 1), min(sum(counts), points)


def _steps_differ(
    column: Callable[[int], np.ndarray], count: int, values: np.ndarray, counts: np.ndarray, width: int
) -> np.ndarray:
    """Whether the `width` steps of each of `count` windows, the differences
    column(j + 1) - column(j) of its points j, differ as a multiset from the
    distinct values taken their counts times (columns from _counted).

    Each column of steps is compared with every value, and the matches are
    tallied per value and window in the least unsigned type that holds
    width. This is exact: the values are distinct, so a step adds to one
    tally at most and the tallies add up to width at most; they equal the
    counts, which add up to width, only when every step matched a value. A
    step that wraps around int64 is compared as it wrapped.
    """
    tallies = np.zeros((values.size, count), dtype=np.min_scalar_type(width))
    match = np.empty(tallies.shape, dtype=bool)
    hits = match.view(np.uint8)  # added to the tallies without a cast
    ahead = column(0)
    for j in range(width):
        behind, ahead = ahead, column(j + 1)
        np.equal(ahead - behind, values, out=match)
        tallies += hits
    return (tallies != counts).any(axis=0)


def _windows_differ(
    seq: np.ndarray, starts: np.ndarray, values: np.ndarray, counts: np.ndarray, width: int
) -> np.ndarray:
    """Whether the `width` steps from each start s, the differences of
    seq[s : s + width + 1], differ as a multiset from the distinct values
    taken their counts times (_steps_differ); the points are gathered a
    column at a time."""
    if not starts.size:
        return np.zeros(0, dtype=bool)
    return _steps_differ(lambda j: seq[starts + j], starts.size, values, counts, width)


def _row_mismatches(
    offsets: np.ndarray, seq: np.ndarray, entries: Sequence[tuple[int, int]], size: int | None
) -> np.ndarray:
    """Rows whose steps differ as a multiset from the (value, count) entries,
    rows of another length included; `size` is the rows' common number of
    points, or None (as Tiles.size and Paths.size).

    A row's steps are the differences seq[j + 1] - seq[j] for each of its
    points j but the last. The rows are checked a block at a time. When
    every row has one point more than the entries have steps, a block's
    points are one contiguous slice of seq, read as a (rows, width + 1)
    view; otherwise the points of the rows that fit are gathered.
    """
    values, counts, width = _counted(entries, seq.size)
    bad = [np.zeros(0, dtype=np.int64)]
    for a, b in block_spans(offsets.size - 1):
        if size == width + 1:
            block = seq[offsets[a] : offsets[b]].reshape(b - a, width + 1)
            wrong = _steps_differ(lambda j: block[:, j], b - a, values, counts, width)
        else:
            bounds = offsets[a : b + 1]
            wrong = np.diff(bounds) != width + 1
            fit = ~wrong
            wrong[fit] = _windows_differ(seq, bounds[:-1][fit], values, counts, width)
        bad.append(np.flatnonzero(wrong) + a)
    return np.concatenate(bad)


def _window_mismatches(
    offsets: np.ndarray, seq: np.ndarray, entries: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """(row, offset) of every window of consecutive steps within a row, as
    many as the entries' counts add up to, whose steps differ as a multiset
    from the entries, in row then offset order (steps as for _row_mismatches).

    The rows are taken a block at a time, and their windows, numbered row
    after row from `first`, a block of windows at a time, so one long row is
    split too; every block size gives the same answer.
    """
    values, counts, width = _counted(entries, seq.size)
    rows, offs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for i, j in block_spans(offsets.size - 1):
        bounds = offsets[i : j + 1]
        first = offsets_from_sizes(np.maximum(np.diff(bounds) - width, 0))
        for a, b in block_spans(int(first[-1])):
            # the rows holding windows a..b-1, and how many of them each holds
            lo = np.searchsorted(first, a, "right") - 1
            hi = np.searchsorted(first, b, "left")
            held = np.minimum(first[lo + 1 : hi + 1], b) - np.maximum(first[lo:hi], a)
            starts = np.repeat(bounds[lo:hi] - first[lo:hi], held)
            starts += np.arange(a, b)
            bad = np.flatnonzero(_windows_differ(seq, starts, values, counts, width)) + a
            row = np.searchsorted(first, bad, "right") - 1
            rows.append(row + i)
            offs.append(bad - first[row])
    return np.concatenate(rows), np.concatenate(offs)


def _step_codes(paths: Paths, step_type: StepType) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The prefix sums of each step's index in step_type (-1 if undeclared),
    one per point with a leading 0, so that a step's index is the difference
    of its ends' sums; and each index with the step's multiplicity. The sums
    stay within the number of points times the type's size.
    """
    dx, dy = np.diff(paths.xs), np.diff(paths.ys)
    codes = np.full(dx.size + 1, -1, dtype=np.int64)
    codes[0] = 0
    steps = codes[1:]
    for code, ((vx, vy), _) in enumerate(step_type):
        steps[(dx == vx) & (dy == vy)] = code
    np.cumsum(codes, out=codes)
    return codes, [(code, mult) for code, (_, mult) in enumerate(step_type)]


def verify_interval_tiling(
    tiling: IntervalTiling,
    gap_set: GapSet,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> VerificationReport:
    """ok iff the tiles partition {0..length-1} and every tile's gaps equal gap_set."""
    rep = ReportBuilder(max_violations)
    tiles = tiling.tiles
    _cover(tiles.values, tiling.length, rep)
    bad = _row_mismatches(tiles.offsets, tiles.values, gap_set.entries, tiles.size)
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
    for idx in tiles.ending_from(tiling.length - d1).tolist():
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
    row, off = _window_mismatches(seqs.offsets, seqs.values, gap_set.entries)
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
    codes, entries = _step_codes(paths, rect.step_type)
    if window is None:
        bad = _row_mismatches(paths.offsets, codes, entries, paths.size)
        rep.add_all("TypeMismatch", bad, "path step multiset differs from declared type")
        return rep.build()
    short = np.flatnonzero(paths.sizes() - 1 < window)
    row, off = _window_mismatches(paths.offsets, codes, entries)
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
