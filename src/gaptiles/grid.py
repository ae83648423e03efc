"""Rectangle-tiling constructions and the geometric transforms the pipeline composes.

The pipeline places a rectangle witness along a sequence of points by
lifting it: column x goes to the sequence's point x (lift_over_points). Its
column blocks are those lifts, repeats stacked up (stack_to_height) and laid
side by side (concat_columns, residue_interleave), and a stage flattens its
blocks into one interval tiling (flatten).
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from itertools import groupby
from math import gcd
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import PreconditionError, SearchExhausted
from .oracle import SearchStatus, solve_rectangle
from .serialize import dumps_canonical  # noqa: F401  benchmarks/tracing.py patches it here
from .serialize import read_json, rectangle_to_obj, tiling_from_obj, write_json
from .types import (
    INT64_MAX,
    IntervalTiling,
    Paths,
    RectangleTiling,
    StepType,
    Tiles,
    as_int64,
    block_spans,
    normalize_steps,
    offsets_from_sizes,
)
from .verify import verify_rectangle_tiling

# names benchmarks/tracing.py still patches here; nothing calls them (ROADMAP item 7)
merge_ragged = dilate_x = translate_x = as_rectangle = None


# ---------------------------------------------------------------------------
# Constructions


def stair_tiling(k: int, l: int) -> RectangleTiling:
    """The explicit staircase tiling of [0,k+l] x [0,l] by l+1 paths with k
    unit-right and l unit-up steps each.

    Path i runs (i,0) -> (i,l-i) -> (k+i,l-i) -> (k+i,l); the path ending in the
    top-right corner (k+l,l) takes its first k steps to the right.
    """
    if k < 1 or l < 1:
        raise PreconditionError("k and l must be >= 1")
    paths = []
    for i in range(l + 1):
        pts = [(i, y) for y in range(l - i + 1)]
        pts += [(x, l - i) for x in range(i + 1, k + i + 1)]
        pts += [(k + i, y) for y in range(l - i + 1, l + 1)]
        paths.append(pts)
    return RectangleTiling(
        width=k + l + 1,
        height=l + 1,
        paths=Paths.from_rows(paths),
        step_type=normalize_steps({(1, 0): k, (0, 1): l}),
    )


_ENTRY_NAME = "f_{}_{}_{}.json"  # of the file holding the witness of (k, l, m)


def _key(witness: RectangleTiling) -> tuple[int, int, int]:
    """(k, l, m) of a height witness: its counts of (1, 0) and (0, 1) steps
    and its width. PreconditionError for another step or a window."""
    steps = dict(witness.step_type)
    if witness.window is not None or steps.keys() != {(1, 0), (0, 1)}:
        raise PreconditionError(f"not a height witness: {witness.step_type}, window {witness.window}")
    return steps[(1, 0)], steps[(0, 1)], witness.width


class HeightTable:
    """Memoized map (k, l, m) -> witness of f(k, l, m), persisted to disk
    when given a directory; get returns (f, witness), f its height.

    Each entry is its witness alone, the rectangle-tiling file
    f_{k}_{l}_{m}.json, written with ``write_json`` through a temporary file
    and a rename. On load a file is kept only when its witness verifies and
    its name is the one that witness's steps and width give; any other file
    is skipped and recomputed on demand. A kept height is trusted minimal.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self._mem: dict[tuple[int, int, int], RectangleTiling] = {}
        self._lock = threading.Lock()
        self._dir = Path(cache_dir) if cache_dir else None
        if self._dir:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._load()

    def _load(self) -> None:
        for path in self._dir.glob(_ENTRY_NAME.format("*", "*", "*")):
            try:
                _, witness, _ = tiling_from_obj(read_json(path))
                key = _key(witness)
                if path.name == _ENTRY_NAME.format(*key) and verify_rectangle_tiling(witness).ok:
                    self._mem[key] = witness
            except Exception:
                continue  # a file that is not a height witness is recomputed on demand

    def get(self, k: int, l: int, m: int) -> tuple[int, RectangleTiling] | None:
        with self._lock:
            witness = self._mem.get((k, l, m))
        return None if witness is None else (witness.height, witness)

    def put(self, witness: RectangleTiling) -> None:
        key = _key(witness)
        with self._lock:
            self._mem[key] = witness
            if self._dir:
                write_json(self._dir / _ENTRY_NAME.format(*key), rectangle_to_obj(witness))


_default_tables: dict[str | None, HeightTable] = {}
_default_tables_lock = threading.Lock()


def default_height_table() -> HeightTable:
    """The process-wide table for the current $GAPTILES_CACHE: persisted in
    that directory when it is set, in memory only when not."""
    cache = os.environ.get("GAPTILES_CACHE") or None
    with _default_tables_lock:
        if cache not in _default_tables:
            _default_tables[cache] = HeightTable(cache)
        return _default_tables[cache]


def min_height_rect(
    k: int,
    l: int,
    m: int,
    table: HeightTable | None = None,
) -> tuple[int, RectangleTiling]:
    """Least height f such that [0,m-1] x [0,f-1] is tiled by paths with k
    unit-right and l unit-up steps, plus a witness.

    Heights are searched in increasing order over the admissible values
    (m*f divisible by k+l+1, and f >= l+1 since each path rises by l). For
    m = k+l+1 the staircase gives f = l+1 directly, with no search.
    """
    if k < 1 or l < 1:
        raise PreconditionError("k and l must be >= 1")
    if not (k + 1 <= m <= k + l + 1):
        raise PreconditionError(f"width {m} outside [{k + 1}, {k + l + 1}]")
    if m == k + l + 1:
        stair = stair_tiling(k, l)
        return l + 1, stair
    table = table or default_height_table()
    hit = table.get(k, l, m)
    if hit is not None:
        return hit
    ppp = k + l + 1
    step = ppp // gcd(m, ppp)
    f = ((l + 1 + step - 1) // step) * step
    bound = max(64, 8 * ppp * ppp)
    while f <= bound:
        outcome = solve_rectangle({(1, 0): k, (0, 1): l}, m, f)
        if outcome.status is SearchStatus.FOUND:
            witness = outcome.witnesses[0]
            table.put(witness)
            return f, witness
        if outcome.status is SearchStatus.BUDGET_EXCEEDED:
            raise SearchExhausted(f"height search budget exceeded at f={f} for ({k},{l},{m})")
        f += step
    raise SearchExhausted(f"no admissible height <= {bound} for ({k},{l},{m})")


def diagonal_stripe_tiling(n: int, kv: int, m: int) -> RectangleTiling:
    """Tile [0,m] x [0,m+kv] by paths alternating runs of n unit-right and kv
    unit-up steps, cut by the diagonal line families x+y = m (mod n+kv) and
    x+y = m+kv (mod n+kv). Requires n < m < 2n.

    Every window of n+kv consecutive steps has exactly kv vertical steps. All
    paths except (m-n,0)->(m,0)->(m,kv) and (0,m)->(0,m+kv)->(n,m+kv) have
    strictly more than n+kv steps, and no path exceeds m+2kv steps.
    """
    if n < 1 or kv < 1:
        raise PreconditionError("n and kv must be >= 1")
    if not (n < m < 2 * n):
        raise PreconditionError(f"m={m} violates n < m < 2n for n={n}")
    period = n + kv
    width, height = m + 1, m + kv + 1

    def goes_up(c: int) -> bool:
        return (c - m) % period < kv

    def succ(x: int, y: int) -> tuple[int, int]:
        return (x, y + 1) if goes_up(x + y) else (x + 1, y)

    def pred(x: int, y: int) -> tuple[int, int]:
        return (x, y - 1) if goes_up(x + y - 1) else (x - 1, y)

    def inside(x: int, y: int) -> bool:
        return 0 <= x < width and 0 <= y < height

    paths = []
    for y in range(height):
        for x in range(width):
            if inside(*pred(x, y)):
                continue
            pts = [(x, y)]
            while inside(*succ(*pts[-1])):
                pts.append(succ(*pts[-1]))
            paths.append(pts)
    paths.sort(key=lambda pts: (pts[0][1], pts[0][0]))
    return RectangleTiling(
        width=width,
        height=height,
        paths=Paths.from_rows(paths),
        step_type=normalize_steps({(1, 0): n, (0, 1): kv}),
        window=period,
    )


# ---------------------------------------------------------------------------
# Transforms


def _repeat(paths: Paths, copies: int, dy: int) -> Paths:
    """`copies` copies of the paths, one after another; copy j is shifted up
    by j*dy."""
    j = np.arange(copies)[:, None]
    n = paths.xs.size
    offsets = np.append((paths.offsets[:-1] + n * j).ravel(), copies * n)
    return Paths(offsets, np.tile(paths.xs, copies), (paths.ys + dy * j).ravel())


def lift_over_points(
    pieces: Sequence[tuple[RectangleTiling, Sequence[int]]], step_type: StepType, window: int | None
) -> RectangleTiling:
    """One rectangle of every piece (r, points)'s paths, each mapped by
    (x, y) -> (points[x], y), in piece order; its width is the total number
    of points and the caller declares its step type and window.

    Each piece gives one point per column of r. That the points of all
    pieces partition [0, width) is not checked: flatten's bounds check and a
    verification of the output refuse points that collide or leave a gap.
    """
    if not pieces:
        raise PreconditionError("need at least one piece")
    h = pieces[0][0].height
    xs, ys, sizes = [], [], []
    for r, points in pieces:
        if r.width != len(points):
            raise PreconditionError(f"a piece has {r.width} columns and {len(points)} points")
        if r.height != h:
            raise PreconditionError("pieces must share a height")
        xs.append(as_int64(points)[r.paths.xs])
        ys.append(r.paths.ys)
        sizes.append(r.paths.sizes())
    paths = Paths(offsets_from_sizes(np.concatenate(sizes)), np.concatenate(xs), np.concatenate(ys))
    return RectangleTiling(sum(len(points) for _, points in pieces), h, paths, step_type, window)


def stack_to_height(r: RectangleTiling, height: int) -> RectangleTiling:
    """Repeat a block vertically to the requested height (a multiple of the period)."""
    period = r.height
    if height % period != 0:
        raise PreconditionError(f"height {height} is not a multiple of the period {period}")
    return replace(r, height=height, paths=_repeat(r.paths, height // period, period))


def concat_columns(blocks: Sequence[RectangleTiling]) -> RectangleTiling:
    """Concatenate rectangle blocks left to right with cumulative x-offsets.

    A run of the same block object repeated is written by one broadcast
    straight into the result's arrays.
    """
    if not blocks:
        raise PreconditionError("need at least one block")
    h = blocks[0].height
    st, win = blocks[0].step_type, blocks[0].window
    for b in blocks[1:]:
        if b.height != h:
            raise PreconditionError("blocks must share a height")
        if b.step_type != st or b.window != win:
            raise PreconditionError("blocks must share a declared step type")
    runs = []
    for _, run in groupby(blocks, key=id):
        run = list(run)
        runs.append((run[0], len(run)))
    n_points = sum(b.paths.xs.size * copies for b, copies in runs)
    n_paths = sum(len(b.paths) * copies for b, copies in runs)
    xs = np.empty(n_points, dtype=np.int64)
    ys = np.empty(n_points, dtype=np.int64)
    offsets = np.empty(n_paths + 1, dtype=np.int64)
    point = path = x0 = 0
    for b, copies in runs:
        p = b.paths
        n, k = p.xs.size, len(p)
        j = np.arange(copies)[:, None]
        # copy j of the run is shifted right by j block widths
        np.add(p.xs, x0 + b.width * j, out=xs[point : point + copies * n].reshape(copies, n))
        ys[point : point + copies * n].reshape(copies, n)[:] = p.ys
        np.add(p.offsets[:-1], point + n * j, out=offsets[path : path + copies * k].reshape(copies, k))
        point += copies * n
        path += copies * k
        x0 += b.width * copies
    offsets[-1] = point
    return RectangleTiling(x0, h, Paths(offsets, xs, ys), st, win)


def residue_interleave(
    col_a: RectangleTiling, col_b: RectangleTiling, d1: int, t: int
) -> RectangleTiling:
    """Interleave t copies of col_a (residues 0..t-1) and d1-t copies of
    col_b (residues t..d1-1) into one rectangle of width a*d1 + t, col_b
    being a columns wide and col_a one wider.

    The copy of residue i lifts column x to i + d1*x, so the copies fill the
    width exactly and every horizontal step is scaled by d1.
    """
    if not (0 <= t < d1):
        raise PreconditionError("need 0 <= t < d1")
    a = col_b.width
    if col_a.width != a + 1:
        raise PreconditionError("col_a must be exactly one column wider than col_b")
    if col_a.step_type != col_b.step_type or col_a.window != col_b.window:
        raise PreconditionError("columns must share a declared step type")
    pieces = [(col_a, i + d1 * np.arange(a + 1)) for i in range(t)]
    pieces += [(col_b, i + d1 * np.arange(a)) for i in range(t, d1)]
    step_type = normalize_steps({(dx * d1, dy): mult for (dx, dy), mult in col_a.step_type})
    return lift_over_points(pieces, step_type, col_a.window)


def _sorted_block(b: RectangleTiling, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block's paths stably sorted by first point and flattened at the
    output width, with no x shift: (offsets, values, rows). Row y's paths
    are paths rows[y]:rows[y+1] of the sorted order."""
    p = b.paths
    starts = p.offsets[:-1]
    firsts = p.ys[starts] * b.width
    firsts += p.xs[starts]
    order = np.argsort(firsts, kind="stable")
    rows = np.searchsorted(firsts[order], b.width * np.arange(b.height + 1))
    offsets = offsets_from_sizes(p.sizes()[order])
    # sorted path i starts at path order[i]'s first point
    shift = starts[order]
    del firsts, order
    shift -= offsets[:-1]
    values = np.empty(p.xs.size, dtype=np.int64)
    # a span's gather index and point copies are the only scratch that grows with b
    for a, z in block_spans(len(shift)):
        lo, hi = offsets[a], offsets[z]
        src = np.repeat(shift[a:z], np.diff(offsets[a : z + 1]))
        src += np.arange(lo, hi)
        out = values[lo:hi]
        np.multiply(p.ys[src], width, out=out)
        out += p.xs[src]
    return offsets, values, rows


def _check_bounds(b: RectangleTiling, i: int) -> None:
    """PreconditionError naming block i and its first point outside
    [0, width) x [0, height)."""
    p = b.paths
    xs, ys = p.xs, p.ys
    if xs.size and (xs.min() < 0 or xs.max() >= b.width or ys.min() < 0 or ys.max() >= b.height):
        j = int(np.flatnonzero((xs < 0) | (xs >= b.width) | (ys < 0) | (ys >= b.height))[0])
        path = int(np.searchsorted(p.offsets, j, side="right")) - 1
        raise PreconditionError(
            f"block {i}: point ({xs[j]}, {ys[j]}) of path {path} lies outside "
            f"[0, {b.width}) x [0, {b.height})"
        )


def _copies_into(out: np.ndarray, row: np.ndarray, first: int, step: int) -> None:
    """out[j] = row + first + j*step for every row j of out.

    Each pass adds to the rows written so far to write as many again, so no
    array with one entry per row of out is made.
    """
    np.add(row, first, out=out[0])
    done = 1
    while done < len(out):
        m = min(done, len(out) - done)
        np.add(out[:m], done * step, out=out[done : done + m])
        done += m


def flatten(blocks: RectangleTiling | Sequence[RectangleTiling], width: int) -> IntervalTiling:
    """Lay the blocks left to right and map (x, y) -> x + y*width, turning
    each path into a tile. A single rectangle is one block.

    The blocks must share a height h and their widths must sum to width.
    Every point must lie in its own block's [0, block width) x [0, h);
    PreconditionError names the first block and point that do not. Within
    those bounds the map is one-to-one onto [0, width*h), so the tiles
    partition that interval exactly when each block's paths partition the
    block, and no point can alias one of another block or copy. Monotone
    steps flatten to strictly increasing points, so each path's point order
    is preserved. Tiles are emitted stably sorted by their first point, as
    if the blocks had been concatenated first.

    That order is (row of the first point, block, first x in the block), so
    the concatenated rectangle is never built. Each distinct block object is
    checked, sorted and flattened once. A run of one object repeated is then
    written row by row straight into the output, every copy of the row's
    tiles at once (_copies_into). Besides the output, flatten holds one
    sorted copy of each distinct block, gathered a span of paths at a time
    (types.block_spans), and nothing that grows with the copies; a single
    block is sorted into the output itself.
    """
    if isinstance(blocks, RectangleTiling):
        blocks = [blocks]
    if not blocks:
        raise PreconditionError("need at least one block")
    runs = []  # (block, copies) for each run of one block object
    for _, run in groupby(blocks, key=id):
        b = next(run)
        runs.append((b, 1 + sum(1 for _ in run)))
    h = blocks[0].height
    if any(b.height != h for b, _ in runs):
        raise PreconditionError("blocks must share a height")
    total = sum(b.width * copies for b, copies in runs)
    if width != total:
        raise PreconditionError(f"width {width} does not match the rectangle width {total}")
    if width * h > INT64_MAX:
        raise PreconditionError("the rectangle must have fewer than 2**63 points")
    sorted_blocks, i = {}, 0  # i: the index of the run's first block
    for b, copies in runs:
        if id(b) not in sorted_blocks:
            _check_bounds(b, i)
            sorted_blocks[id(b)] = _sorted_block(b, width)
        i += copies
    if len(blocks) == 1:
        offsets, values, _ = sorted_blocks.pop(id(blocks[0]))
        return IntervalTiling(width * h, Tiles(offsets, values))
    values = np.empty(sum(b.paths.xs.size * copies for b, copies in runs), dtype=np.int64)
    offsets = np.empty(sum(len(b.paths) * copies for b, copies in runs) + 1, dtype=np.int64)
    layout, x0 = [], 0  # each run's sorted block, copies, block width and x shift
    for b, copies in runs:
        layout.append((sorted_blocks[id(b)], copies, b.width, x0))
        x0 += b.width * copies
    point = path = 0
    for y in range(h):
        for (b_offsets, b_values, rows), copies, bw, x0 in layout:
            lo, hi = rows[y], rows[y + 1]
            a, z = b_offsets[lo], b_offsets[hi]
            n, k = z - a, hi - lo
            # copy j of the row's tiles: the block's, shifted right by x0 + j*bw
            out = values[point : point + copies * n].reshape(copies, n)
            _copies_into(out, b_values[a:z], x0, bw)
            out = offsets[path : path + copies * k].reshape(copies, k)
            _copies_into(out, b_offsets[lo:hi], point - a, n)
            point += copies * n
            path += copies * k
    offsets[-1] = point
    return IntervalTiling(width * h, Tiles(offsets, values))
