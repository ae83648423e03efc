"""Rectangle-tiling constructions and the geometric transforms the pipeline composes.

A "ragged" tiling is a rectangle tiling whose x-coordinates live on an explicit
strictly increasing support instead of 0..W-1; the pipeline's lifts produce
ragged intermediates whose supports are later merged back into true rectangles.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from itertools import chain, groupby
from math import gcd
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConstructionError, PreconditionError, SearchExhausted
from .oracle import SearchStatus, solve_rectangle
from .serialize import dumps_canonical  # noqa: F401  benchmarks/tracing.py patches it here
from .serialize import read_json, rectangle_to_obj, tiling_from_obj, write_json
from .types import (
    IntervalTiling,
    Paths,
    RectangleTiling,
    StepType,
    Tiles,
    as_int64,
    normalize_steps,
    offsets_from_sizes,
)
from .verify import verify_rectangle_tiling


@dataclass(frozen=True)
class RaggedTiling:
    """Paths over support x [0, height-1] for an explicit x-support.

    ``paths`` may be given as any sequence of ``LatticePath``; it is stored as
    a ``Paths`` view.
    """

    support: tuple[int, ...]
    height: int
    paths: Paths
    step_type: StepType | None = None
    window: int | None = None

    def __post_init__(self):
        if self.height < 1:
            raise PreconditionError("height must be positive")
        if not self.support:
            raise PreconditionError("support must be non-empty")
        for a, b in zip(self.support, self.support[1:]):
            if b <= a:
                raise PreconditionError("support must be strictly increasing")
        object.__setattr__(self, "paths", Paths.of(self.paths))

    @property
    def width(self) -> int:
        return len(self.support)


def as_ragged(r: RectangleTiling | RaggedTiling) -> RaggedTiling:
    if isinstance(r, RaggedTiling):
        return r
    return RaggedTiling(tuple(range(r.width)), r.height, r.paths, r.step_type, r.window)


def as_rectangle(r: RaggedTiling | RectangleTiling) -> RectangleTiling:
    if isinstance(r, RectangleTiling):
        return r
    if r.support != tuple(range(len(r.support))):
        raise PreconditionError("support is not contiguous from 0; not a rectangle")
    if r.step_type is None:
        raise PreconditionError("rectangle tilings need a declared step type")
    return RectangleTiling(len(r.support), r.height, r.paths, r.step_type, r.window)


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


class HeightTable:
    """Memoized map (k, l, m) -> (f, witness), optionally persisted to disk.

    The on-disk layout is an ``index.json`` mapping "k,l,m" to {"f", "witness_path"}
    plus one rectangle-tiling JSON file per witness. Every file is written
    with ``write_json``, through a temporary file and a rename, so readers
    never observe a partial index or witness.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self._mem: dict[tuple[int, int, int], tuple[int, RectangleTiling]] = {}
        self._lock = threading.Lock()
        self._dir = Path(cache_dir) if cache_dir else None
        if self._dir:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._load()

    def _index_path(self) -> Path:
        return self._dir / "index.json"

    def _load(self) -> None:
        if not self._index_path().exists():
            return
        try:
            index = read_json(self._index_path())
        except Exception:
            return
        for key, entry in index.items():
            try:
                k, l, m = (int(x) for x in key.split(","))
                _, rect, _ = tiling_from_obj(read_json(self._dir / entry["witness_path"]))
                if verify_rectangle_tiling(rect).ok:
                    self._mem[(k, l, m)] = (int(entry["f"]), rect)
            except Exception:
                continue  # corrupt entries are recomputed on demand

    def get(self, k: int, l: int, m: int) -> tuple[int, RectangleTiling] | None:
        with self._lock:
            return self._mem.get((k, l, m))

    def put(self, k: int, l: int, m: int, f: int, witness: RectangleTiling) -> None:
        with self._lock:
            self._mem[(k, l, m)] = (f, witness)
            if self._dir:
                name = f"f_{k}_{l}_{m}.json"
                write_json(self._dir / name, rectangle_to_obj(witness))
                index = {
                    ",".join(str(x) for x in key): {
                        "f": fv,
                        "witness_path": f"f_{key[0]}_{key[1]}_{key[2]}.json",
                    }
                    for key, (fv, _) in sorted(self._mem.items())
                }
                write_json(self._index_path(), index)


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
            table.put(k, l, m, f, witness)
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


def _concat(parts: Sequence[Paths]) -> Paths:
    """The paths of every part, in order."""
    return Paths(
        offsets_from_sizes(np.concatenate([p.sizes() for p in parts])),
        np.concatenate([p.xs for p in parts]),
        np.concatenate([p.ys for p in parts]),
    )


def lift_over_points(
    r: RectangleTiling | RaggedTiling,
    xs: Sequence[int],
    step_type: StepType | None = None,
    window: int | None = None,
) -> RaggedTiling:
    """Apply (x, y) -> (xs[rank(x)], y) to every path point.

    xs must be strictly increasing with one entry per source column. The output
    records xs as its support; the caller declares the lifted step type (it is
    not derivable from the geometry for a general support).
    """
    src = as_ragged(r)
    if len(xs) != len(src.support):
        raise PreconditionError(f"support has {len(src.support)} columns, xs has {len(xs)}")
    xs = as_int64(xs)
    support = as_int64(src.support)
    rank = np.searchsorted(support, src.paths.xs)
    if np.any(support[np.minimum(rank, support.size - 1)] != src.paths.xs):
        raise PreconditionError("a path point lies outside the support")
    paths = Paths(src.paths.offsets, xs[rank], src.paths.ys)
    return RaggedTiling(tuple(xs.tolist()), src.height, paths, step_type, window)


def dilate_x(
    r: RectangleTiling | RaggedTiling, d: int, offset: int = 0
) -> RaggedTiling:
    """Stretch the x-axis by d with a residue offset: column i -> offset + d*i.

    Horizontal steps scale uniformly, so the declared step type carries over
    with (dx, dy) -> (d*dx, dy).
    """
    if d < 1:
        raise PreconditionError("dilation ratio must be >= 1")
    if not (0 <= offset < d):
        raise PreconditionError("offset must satisfy 0 <= offset < d")
    src = as_ragged(r)
    xs = offset + d * np.arange(len(src.support))
    st = None
    if src.step_type is not None:
        st = normalize_steps({(dx * d, dy): mult for (dx, dy), mult in src.step_type})
    return lift_over_points(src, xs, st, src.window)


def translate_x(r: RaggedTiling, delta: int) -> RaggedTiling:
    xs = as_int64(r.support) + delta
    return lift_over_points(r, xs, r.step_type, r.window)


def stack_to_height(r: RectangleTiling | RaggedTiling, height: int):
    """Repeat a block vertically to the requested height (a multiple of the period)."""
    period = r.height
    if height % period != 0:
        raise PreconditionError(f"height {height} is not a multiple of the period {period}")
    paths = _repeat(r.paths, height // period, period)
    if isinstance(r, RaggedTiling):
        return RaggedTiling(r.support, height, paths, r.step_type, r.window)
    return replace(r, height=height, paths=paths)


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


def merge_ragged(pieces: Sequence[RaggedTiling]) -> RaggedTiling:
    """Union of ragged tilings with pairwise disjoint supports and equal heights."""
    if not pieces:
        raise PreconditionError("need at least one piece")
    h = pieces[0].height
    st, win = pieces[0].step_type, pieces[0].window
    for piece in pieces:
        if piece.height != h:
            raise PreconditionError("pieces must share a height")
        if piece.step_type != st or piece.window != win:
            raise PreconditionError("pieces must share a declared step type")
    merged = np.sort(as_int64(list(chain.from_iterable(p.support for p in pieces))))
    collide = np.flatnonzero(merged[1:] == merged[:-1])
    if collide.size:
        raise ConstructionError(f"supports collide at x={merged[collide[0]]}")
    return RaggedTiling(tuple(merged.tolist()), h, _concat([p.paths for p in pieces]), st, win)


def residue_interleave(
    col_a: RaggedTiling, col_b: RaggedTiling, d1: int, t: int
) -> RectangleTiling:
    """Overlay t offset-copies of col_a (offsets 0..t-1) and d1-t offset-copies
    of col_b (offsets t..d1-1) into one true rectangle of width a*d1 + t.

    col_a and col_b must be x-dilations by d1 (supports 0, d1, 2*d1, ...) with
    col_a one column wider; distinct residues keep the copies disjoint.
    """
    if not (0 <= t < d1):
        raise PreconditionError("need 0 <= t < d1")
    a = len(col_b.support)
    if len(col_a.support) != a + 1:
        raise PreconditionError("col_a must be exactly one column wider than col_b")
    if col_a.height != col_b.height:
        raise PreconditionError("columns must share a height")
    for col in (col_a, col_b):
        if col.support != tuple(range(0, d1 * len(col.support), d1)):
            raise PreconditionError("columns must be dilations by d1 starting at 0")
    pieces = [translate_x(col_a, i) for i in range(t)]
    pieces += [translate_x(col_b, i) for i in range(t, d1)]
    merged = merge_ragged(pieces)
    width = a * d1 + t
    if merged.support != tuple(range(width)):
        raise ConstructionError("interleaved supports do not fill the rectangle")
    return as_rectangle(merged)


def flatten(r: RectangleTiling, width: int) -> IntervalTiling:
    """Map (x, y) -> x + y*width, turning each path into a tile.

    Every point must lie in [0, width) x [0, height); PreconditionError names
    the first one that does not. Within those bounds the map is one-to-one
    onto [0, width*height), so the tiles partition that interval exactly when
    the paths partition the rectangle, and no point outside can alias one
    inside. Monotone steps flatten to strictly increasing points, so each
    path's point order is preserved. Tiles are emitted stably sorted by their
    first point.
    """
    if width != r.width:
        raise PreconditionError(f"width {width} does not match the rectangle width {r.width}")
    p = r.paths
    xs, ys = p.xs, p.ys
    if xs.size and (xs.min() < 0 or xs.max() >= width or ys.min() < 0 or ys.max() >= r.height):
        i = int(np.flatnonzero((xs < 0) | (xs >= width) | (ys < 0) | (ys >= r.height))[0])
        path = int(np.searchsorted(p.offsets, i, side="right")) - 1
        raise PreconditionError(
            f"point ({xs[i]}, {ys[i]}) of path {path} lies outside [0, {width}) x [0, {r.height})"
        )
    # Arrays are built in place and dropped once spent: flatten sets the peak
    # memory of a large construct.
    values = ys * width
    values += xs
    order = np.argsort(values[p.offsets[:-1]], kind="stable")
    sizes = p.sizes()[order]
    offsets = offsets_from_sizes(sizes)
    source = np.repeat(p.offsets[:-1][order] - offsets[:-1], sizes)
    del order, sizes
    source += np.arange(values.size)
    values = values[source]
    del source
    return IntervalTiling(width * r.height, Tiles(offsets, values))
