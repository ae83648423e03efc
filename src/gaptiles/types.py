"""Core domain types: gap multisets, tiles, tilings, and verification reports.

All types are immutable after construction and safe to share across threads.
Constructors enforce cheap local invariants (sortedness, positivity); global
properties such as "tiles partition the interval" are the verifiers' job, so
verification never trusts construction metadata.

Tilings store their points as int64 CSR arrays: one ``offsets`` array of
length T+1 plus flat ``values`` (tiles) or ``xs``/``ys`` (paths), where
element i spans ``offsets[i]:offsets[i+1]``. ``Tiles`` and ``Paths`` are
read-only sequence views over them that build a ``Tile``/``LatticePath`` only
when an element is read.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import PreconditionError

DEFAULT_VIOLATION_CAP = 32
INT64_MAX = int(np.iinfo(np.int64).max)

StepType = tuple[tuple[tuple[int, int], int], ...]


def normalize_steps(steps: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]]) -> StepType:
    """Normalize a step multiset to a sorted ((dx, dy), multiplicity) tuple."""
    if isinstance(steps, Mapping):
        items = steps.items()
    else:
        items = steps
    merged: dict[tuple[int, int], int] = {}
    for vec, mult in items:
        vec = (int(vec[0]), int(vec[1]))
        if vec[0] < 0 or vec[1] < 0 or vec == (0, 0):
            raise PreconditionError(f"step {vec} must be nonzero with nonnegative coordinates")
        if mult < 1:
            raise PreconditionError("step multiplicities must be >= 1")
        merged[vec] = merged.get(vec, 0) + int(mult)
    return tuple(sorted(merged.items()))


def expand_steps(step_type: StepType) -> tuple[tuple[int, int], ...]:
    return tuple(vec for vec, mult in step_type for _ in range(mult))


@dataclass(frozen=True)
class GapSet:
    """Multiset of gap lengths, stored as sorted (distance, multiplicity) pairs."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise PreconditionError("gap set must be non-empty")
        prev = 0
        for d, k in self.entries:
            if not isinstance(d, int) or not isinstance(k, int):
                raise PreconditionError("gap set entries must be integers")
            if d <= prev:
                raise PreconditionError("distances must be strictly increasing and >= 1")
            if k < 1:
                raise PreconditionError("multiplicities must be >= 1")
            prev = d

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "GapSet":
        """Build from (distance, multiplicity) pairs, merging equal distances."""
        merged: dict[int, int] = {}
        for d, k in pairs:
            merged[int(d)] = merged.get(int(d), 0) + int(k)
        return cls(tuple(sorted(merged.items())))

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> "GapSet":
        return cls.from_pairs((g, 1) for g in gaps)

    def size(self) -> int:
        """Total number of gaps (sum of multiplicities)."""
        return sum(k for _, k in self.entries)

    def points_per_tile(self) -> int:
        return self.size() + 1

    def distances(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.entries)

    def expand(self) -> tuple[int, ...]:
        """All gaps with repetition, ascending."""
        return tuple(d for d, k in self.entries for _ in range(k))

    def with_entry(self, distance: int, multiplicity: int) -> "GapSet":
        if distance in dict(self.entries):
            raise PreconditionError(f"distance {distance} already present")
        return GapSet(tuple(sorted(self.entries + ((distance, multiplicity),))))

    def __str__(self) -> str:
        return ",".join(f"{d}:{k}" for d, k in self.entries)


@dataclass(frozen=True)
class SplitSpec:
    """Split of a gap set's distinct distances into a head of s and a tail of p."""

    s: int
    p: int

    def __post_init__(self):
        if self.s < 2:
            raise PreconditionError("split requires s >= 2")
        if self.p < 0:
            raise PreconditionError("split requires p >= 0")


@dataclass(frozen=True)
class Tile:
    """A strictly increasing integer sequence; one placed copy of a tile."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = self.points
        if len(pts) < 2:
            raise PreconditionError("a tile needs at least 2 points")
        for a, b in zip(pts, pts[1:]):
            if b <= a:
                raise PreconditionError("tile points must be strictly increasing")

    def gaps(self) -> tuple[int, ...]:
        pts = self.points
        return tuple(b - a for a, b in zip(pts, pts[1:]))


def gap_multiset(tile: Tile) -> GapSet:
    """The multiset of consecutive differences of a tile, normalized."""
    return GapSet.from_gaps(tile.gaps())


@dataclass(frozen=True)
class LatticePath:
    """A sequence of 2D integer points with coordinatewise nondecreasing steps."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.points:
            raise PreconditionError("a path needs at least one point")
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if x1 < x0 or y1 < y0 or (x1 == x0 and y1 == y0):
                raise PreconditionError("path steps must be nonzero and nondecreasing in both coordinates")

    def steps(self) -> tuple[tuple[int, int], ...]:
        pts = self.points
        return tuple((x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:]))


def _frozen(a) -> np.ndarray:
    """A read-only contiguous int64 view of a."""
    view = np.ascontiguousarray(a, dtype=np.int64).view()
    view.flags.writeable = False
    return view


def offsets_from_sizes(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets (length len(sizes)+1) of rows with the given sizes."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def as_int64(values) -> np.ndarray:
    """values as a new int64 array; PreconditionError if one is not an
    integer (a bool is not) or does not fit in a signed 64-bit integer.

    An array is judged by its dtype alone. Numpy infers an integer dtype for
    a mix of bools and integers, so the values of a list that infers one are
    also tested for bools, one type lookup per value; only a rejected input
    is searched for the value to name.
    """
    a = np.array(values)
    if a.size == 0 or a.dtype.kind == "i" and not _holds_bool(values, a.ndim):
        return a.astype(np.int64, copy=False)
    for v in np.array(values, dtype=object).flat:
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
            raise PreconditionError(f"value {v!r} is not an integer")
        if not -INT64_MAX - 1 <= v <= INT64_MAX:
            raise PreconditionError("a value does not fit in a signed 64-bit integer")
    return a.astype(np.int64)


def _holds_bool(values, ndim: int) -> bool:
    """Whether nested sequences of values, ndim levels deep, hold a bool."""
    if isinstance(values, np.ndarray) or ndim == 0:
        return False
    for _ in range(ndim - 1):
        values = chain.from_iterable(values)
    types = set(map(type, values))
    return bool in types or np.bool_ in types


def _concat(rows: list[Sequence]) -> list:
    """All items of all rows in one list (list += row extends in C, about a
    third faster than chain.from_iterable on a 300k-row tiling file)."""
    return functools.reduce(operator.iadd, rows, [])


def _first_non_pair(rows: Sequence[Sequence]) -> str:
    """Names the first point of the first path that is not an [x, y] pair of numbers."""
    for i, row in enumerate(rows):
        for point in row:
            if not (
                isinstance(point, (list, tuple))
                and len(point) == 2
                and all(isinstance(v, (int, float)) for v in point)
            ):
                return f"path {i}: point {point!r} is not an [x, y] pair"
    return "path points must be [x, y] pairs"


class _Rows(Sequence):
    """Read-only sequence over the rows of a CSR layout.

    Row i of every column array spans ``offsets[i]:offsets[i+1]``. Equality
    and hashing compare contents.
    """

    __slots__ = ("offsets",)

    def _init_offsets(self, offsets, n_values: int) -> None:
        self.offsets = _frozen(offsets)
        o = self.offsets
        if o.ndim != 1 or o.size == 0 or o[0] != 0 or o[-1] != n_values or np.any(o[1:] < o[:-1]):
            raise PreconditionError("offsets must rise from 0 to the number of points")

    def _columns(self) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _element(self, cols: tuple, a: int, b: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return self.offsets.size - 1

    def sizes(self) -> np.ndarray:
        """Number of points of each element."""
        return np.diff(self.offsets)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = operator.index(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("index out of range")
        i %= n
        a, b = int(self.offsets[i]), int(self.offsets[i + 1])
        return self._element(tuple(c[a:b].tolist() for c in self._columns()), 0, b - a)

    def __iter__(self):
        cols = tuple(c.tolist() for c in self._columns())
        offs = self.offsets.tolist()
        for a, b in zip(offs, offs[1:]):
            yield self._element(cols, a, b)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in zip((self.offsets, *self._columns()), (other.offsets, *other._columns()))
        )

    def __hash__(self) -> int:
        return hash(tuple(a.tobytes() for a in (self.offsets, *self._columns())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} elements, {self.offsets[-1]} points>)"


class Tiles(_Rows):
    """Tiles as CSR: tile i is ``values[offsets[i]:offsets[i+1]]``.

    Every tile has at least 2 points, strictly increasing.
    """

    __slots__ = ("values",)

    def __init__(self, offsets, values):
        self.values = _frozen(values)
        self._init_offsets(offsets, self.values.size)
        if len(self) and self.sizes().min() < 2:
            raise PreconditionError("a tile needs at least 2 points")
        v = self.values
        rising = v[1:] > v[:-1]
        rising[self.offsets[1:-1] - 1] = True  # pairs that straddle two tiles
        if not rising.all():
            raise PreconditionError("tile points must be strictly increasing")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "Tiles":
        """Tiles from sequences of points, one per tile."""
        rows = list(rows)
        offsets = offsets_from_sizes(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)))
        return cls(offsets, as_int64(_concat(rows)))

    @classmethod
    def of(cls, tiles: "Tiles | Iterable[Tile]") -> "Tiles":
        """The tiles as a CSR view; a view is returned as is."""
        if isinstance(tiles, Tiles):
            return tiles
        return cls.from_rows(t.points for t in tiles)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.values,)

    def _element(self, cols: tuple, a: int, b: int) -> Tile:
        return Tile(tuple(cols[0][a:b]))

    def row(self, i: int) -> np.ndarray:
        """The points of tile i as a read-only array."""
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def ends(self) -> np.ndarray:
        """The last point of each tile."""
        return self.values[self.offsets[1:] - 1]

    def with_row(self, i: int, points: Sequence[int]) -> "Tiles":
        """A copy with tile i replaced by the given points."""
        a, b = int(self.offsets[i]), int(self.offsets[i + 1])
        values = np.concatenate((self.values[:a], as_int64(list(points)), self.values[b:]))
        offsets = self.offsets.copy()
        offsets[i + 1 :] += len(points) - (b - a)
        return Tiles(offsets, values)


class Paths(_Rows):
    """Lattice paths as CSR: path i is ``zip(xs, ys)[offsets[i]:offsets[i+1]]``.

    Every path has at least one point, and its steps are nonzero and
    nondecreasing in both coordinates.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, offsets, xs, ys):
        self.xs = _frozen(xs)
        self.ys = _frozen(ys)
        if self.xs.shape != self.ys.shape:
            raise PreconditionError("xs and ys must have the same length")
        self._init_offsets(offsets, self.xs.size)
        if len(self) and self.sizes().min() < 1:
            raise PreconditionError("a path needs at least one point")
        x0, x1, y0, y1 = self.xs[:-1], self.xs[1:], self.ys[:-1], self.ys[1:]
        monotone = (x1 >= x0) & (y1 >= y0) & ((x1 != x0) | (y1 != y0))
        monotone[self.offsets[1:-1] - 1] = True  # pairs that straddle two paths
        if not monotone.all():
            raise PreconditionError("path steps must be nonzero and nondecreasing in both coordinates")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[tuple[int, int]]]) -> "Paths":
        """Paths from sequences of (x, y) points, one per path."""
        rows = list(rows)
        offsets = offsets_from_sizes(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)))
        try:
            pts = as_int64(_concat(rows))
        except PreconditionError:
            raise
        except ValueError:  # ragged or non-numeric points
            pts = None
        if pts is not None and pts.shape == (0,):
            pts = pts.reshape(0, 2)
        if pts is None or pts.ndim != 2 or pts.shape[1] != 2:
            raise PreconditionError(_first_non_pair(rows))
        return cls(offsets, pts[:, 0], pts[:, 1])

    @classmethod
    def of(cls, paths: "Paths | Iterable[LatticePath]") -> "Paths":
        """The paths as a CSR view; a view is returned as is."""
        if isinstance(paths, Paths):
            return paths
        return cls.from_rows(p.points for p in paths)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.xs, self.ys

    def _element(self, cols: tuple, a: int, b: int) -> LatticePath:
        return LatticePath(tuple(zip(cols[0][a:b], cols[1][a:b])))

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The last point of each path, as x and y arrays."""
        last = self.offsets[1:] - 1
        return self.xs[last], self.ys[last]


@dataclass(frozen=True)
class TilingAnnotations:
    boundary_prefix_count: int | None = None
    homogeneous_for: GapSet | None = None


@dataclass(frozen=True)
class IntervalTiling:
    """A set of tiles intended to partition {0..length-1}.

    The partition property itself is checked by ``verify_interval_tiling``,
    not enforced here. ``tiles`` may be given as any sequence of ``Tile``; it
    is stored as a ``Tiles`` view.
    """

    length: int
    tiles: Tiles
    annotations: TilingAnnotations = field(default_factory=TilingAnnotations)

    def __post_init__(self):
        if self.length < 1:
            raise PreconditionError("length must be positive")
        if self.length > INT64_MAX:
            raise PreconditionError("length must fit in a signed 64-bit integer")
        object.__setattr__(self, "tiles", Tiles.of(self.tiles))

    def with_annotations(self, **kwargs) -> "IntervalTiling":
        return replace(self, annotations=replace(self.annotations, **kwargs))


@dataclass(frozen=True)
class RectangleTiling:
    """Paths intended to partition the points of [0,width-1] x [0,height-1].

    ``window`` selects the verification mode: ``None`` means every path's full
    step multiset must equal ``step_type`` (uniform mode); an integer w means
    every window of w consecutive steps of every path must equal ``step_type``
    (windowed mode, in which paths may be longer than one window). ``paths``
    may be given as any sequence of ``LatticePath``; it is stored as a
    ``Paths`` view.
    """

    width: int
    height: int
    paths: Paths
    step_type: StepType
    window: int | None = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise PreconditionError("width and height must be positive")
        if self.width * self.height > INT64_MAX:
            raise PreconditionError("the rectangle must have fewer than 2**63 points")
        if not self.step_type:
            raise PreconditionError("step_type must be non-empty")
        if self.window is not None:
            total = sum(k for _, k in self.step_type)
            if self.window != total:
                raise PreconditionError("window must equal the declared steps per window")
        object.__setattr__(self, "paths", Paths.of(self.paths))


@dataclass(frozen=True)
class Violation:
    kind: str
    location: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verifier run. ok is exact even when violations are capped."""

    ok: bool
    violations: tuple[Violation, ...]
    truncated: bool = False


class ReportBuilder:
    """Collects violations up to a cap while keeping the exact ok flag."""

    def __init__(self, cap: int = DEFAULT_VIOLATION_CAP):
        self.cap = cap
        self._stored: list[Violation] = []
        self._count = 0

    def add(self, kind: str, location: tuple[int, ...], detail: str) -> None:
        self._count += 1
        if len(self._stored) < self.cap:
            self._stored.append(Violation(kind, tuple(int(x) for x in location), detail))

    def add_all(
        self,
        kind: str,
        locations: np.ndarray,
        detail: str | Callable[[int], str],
        count: int | None = None,
    ) -> None:
        """Record `count` violations (default: one per row of `locations`), of
        which the stored ones are the leading rows. `detail` is a string or a
        function of the row index."""
        locations = np.asarray(locations)
        if locations.ndim == 1:
            locations = locations[:, None]
        room = max(self.cap - len(self._stored), 0)
        for i, loc in enumerate(locations[:room].tolist()):
            self._stored.append(Violation(kind, tuple(loc), detail if isinstance(detail, str) else detail(i)))
        self._count += len(locations) if count is None else count

    @property
    def count(self) -> int:
        return self._count

    def build(self) -> VerificationReport:
        return VerificationReport(
            ok=self._count == 0,
            violations=tuple(self._stored),
            truncated=self._count > len(self._stored),
        )
