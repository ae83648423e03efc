"""Property tests: on random single-point corruptions of small constructed
tilings, the array verifiers give the same report as the set-based
reference verifiers in naive_verify.py (same violations in the same order,
the same cap and truncation, and an exact ok flag). The interval and
rectangle cases keep their rows of one size or give one row another size,
so both the one-size view and the gather of the row check run, at every
block size; Tiles.size and Paths.size are checked against the rows."""

from functools import lru_cache
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from naive_verify import homogeneous_violations, interval_violations, rectangle_violations

from gaptiles import (
    GapSet,
    IntervalTiling,
    LatticePath,
    RectangleTiling,
    Tile,
    boundary_base,
    diagonal_stripe_tiling,
    flatten,
    homogeneous_base,
    min_height_rect,
    stair_tiling,
    types,
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)
from gaptiles.types import Paths, Tiles, expand_steps

CAPS = st.sampled_from([1, 3, 32, 10_000])
BLOCKS = st.sampled_from([1, 2, 3, 64, 1 << 62])  # types._BLOCK
SETTINGS = settings(max_examples=150, deadline=None)


@lru_cache(maxsize=None)
def interval_cases():
    stair = flatten(stair_tiling(2, 1), 4)
    return (
        (boundary_base(1, 9, 1, 1).tiling, GapSet.from_pairs([(1, 1), (9, 1)])),
        (boundary_base(2, 19, 1, 1).tiling, GapSet.from_pairs([(2, 1), (19, 1)])),
        (stair, GapSet.from_gaps(stair.tiles[0].gaps())),
    )


@lru_cache(maxsize=None)
def rectangle_cases():
    return (
        stair_tiling(3, 4),
        min_height_rect(3, 2, 4)[1],
        diagonal_stripe_tiling(6, 2, 11),
        diagonal_stripe_tiling(3, 2, 4),
    )


def common_size(rows):
    """The number of points of every row if all have the same, else None
    (also for no rows)."""
    sizes = set(map(len, rows))
    return sizes.pop() if len(sizes) == 1 else None


def assert_same(report, expected, cap):
    got = [(v.kind, v.location, v.detail) for v in report.violations]
    assert got == expected[:cap]
    assert report.ok == (not expected)
    assert report.truncated == (len(expected) > cap)


@st.composite
def moved_point(draw, rows, length):
    """rows with one point of one row moved anywhere near [0, length), the
    row re-sorted; plus a declared length that may differ from the true one."""
    rows = [list(r) for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    rows[i][j] = draw(st.integers(-3, length + 3))
    assume(len(set(rows[i])) == len(rows[i]))
    rows[i].sort()
    return rows, length + draw(st.sampled_from([0, 0, -2, 1, 40]))


@st.composite
def resized(draw, rows, length):
    """rows as they are, or with one row given a point fewer or one more
    near [0, length), so that its size differs from the others'."""
    rows = [list(r) for r in rows]
    kind = draw(st.sampled_from(["keep", "keep", "drop", "add"]))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "drop":
        assume(len(rows[i]) > 2)
        del rows[i][draw(st.integers(0, len(rows[i]) - 1))]
    elif kind == "add":
        point = draw(st.integers(-3, length + 3))
        assume(point not in rows[i])
        rows[i] = sorted(rows[i] + [point])
    return rows


@SETTINGS
@given(data=st.data(), case=st.integers(0, 2), cap=CAPS, block=BLOCKS)
def test_interval_verifier_matches_reference(data, case, cap, block):
    tiling, gaps = interval_cases()[case]
    rows, length = data.draw(moved_point([t.points for t in tiling.tiles], tiling.length))
    rows = data.draw(resized(rows, length))
    with mock.patch.object(types, "_BLOCK", block):
        broken = IntervalTiling(length, tuple(Tile(tuple(r)) for r in rows))
        report = verify_interval_tiling(broken, gaps, cap)
    assert broken.tiles.size == common_size(rows)
    assert_same(report, interval_violations(rows, length, gaps.expand()), cap)


@SETTINGS
@given(data=st.data(), cap=CAPS)
def test_homogeneous_verifier_matches_reference(data, cap):
    state = homogeneous_base(boundary_base(1, 9, 1, 1))
    gaps = state.gap_prefix
    rows, length = data.draw(moved_point([t.points for t in state.tiling.tiles], state.tiling.length))
    seqs = tuple(Tile(tuple(r)) for r in rows)
    assert_same(
        verify_homogeneous(seqs, length, gaps, cap), homogeneous_violations(rows, length, gaps.expand()), cap
    )


@SETTINGS
@given(
    data=st.data(),
    case=st.integers(0, 3),
    cap=CAPS,
    full_window=st.booleans(),
    block=BLOCKS,
)
def test_rectangle_verifier_matches_reference(data, case, cap, full_window, block):
    """Cases 0 and 1 are uniform rectangles whose paths have one size, kept
    by the edits "none" and "move-*"; cases 2 and 3 are windowed stripes."""
    rect = rectangle_cases()[case]
    paths = [list(p.points) for p in rect.paths]
    i = data.draw(st.integers(0, len(paths) - 1))
    kind = data.draw(st.sampled_from(["none", "drop-last", "extend", "move-last", "move-first"]))
    dx, dy = data.draw(st.sampled_from([(1, 0), (0, 1), (2, 0), (0, 3), (1, 1)]))
    (fx, fy), (lx, ly) = paths[i][0], paths[i][-1]
    if kind == "drop-last":
        assume(len(paths[i]) > 1)
        paths[i].pop()
    elif kind == "extend":
        paths[i].append((lx + dx, ly + dy))
    elif kind == "move-last":
        paths[i][-1] = (lx + dx, ly + dy)
    elif kind == "move-first":
        paths[i][0] = (fx - dx, fy - dy)
    steps = expand_steps(rect.step_type)
    # Uniform stairs and witnesses can also be checked in windowed mode with
    # one window per path; stripes are windowed by construction.
    window = len(steps) if full_window else rect.window
    with mock.patch.object(types, "_BLOCK", block):
        broken = RectangleTiling(
            rect.width, rect.height, tuple(LatticePath(tuple(p)) for p in paths), rect.step_type, window
        )
        report = verify_rectangle_tiling(broken, cap)
    assert broken.paths.size == common_size(paths)
    assert_same(report, rectangle_violations(paths, rect.width, rect.height, steps, window), cap)


@st.composite
def same_count_edit(draw, rows, length):
    """rows with one edit that keeps the number of points, so that the cover
    check's partition test runs: two points of two rows swapped (still a
    partition), one point replaced by a point of another row (a duplicate
    and a hole), or by a point outside [0, length)."""
    rows = [list(r) for r in rows]
    i, k = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    j = draw(st.integers(0, len(rows[i]) - 1))
    m = draw(st.integers(0, len(rows[k]) - 1))
    kind = draw(st.sampled_from(["swap", "duplicate", "outside"]))
    if kind == "swap":
        rows[i][j], rows[k][m] = rows[k][m], rows[i][j]
    elif kind == "duplicate":
        rows[i][j] = rows[k][m]
    else:
        rows[i][j] = draw(st.one_of(st.integers(-3, -1), st.integers(length, length + 3)))
    assume(all(len(set(r)) == len(r) for r in rows))
    return [sorted(r) for r in rows]


@SETTINGS
@given(data=st.data(), case=st.integers(0, 2), cap=CAPS)
def test_covers_of_the_right_size_match_reference(data, case, cap):
    tiling, gaps = interval_cases()[case]
    rows = data.draw(same_count_edit([t.points for t in tiling.tiles], tiling.length))
    broken = IntervalTiling(tiling.length, tuple(Tile(tuple(r)) for r in rows))
    assert sum(map(len, rows)) == tiling.length
    assert_same(
        verify_interval_tiling(broken, gaps, cap),
        interval_violations(rows, tiling.length, gaps.expand()),
        cap,
    )


@SETTINGS
@given(
    rows=st.lists(st.lists(st.integers(-2, 6), min_size=2, max_size=3, unique=True).map(sorted), max_size=3),
    n=st.integers(0, 6),
    cap=CAPS,
)
def test_small_and_empty_covers_match_reference(rows, n, cap):
    """Covers of [0, n) for n = 0 and up by no rows or a few: some with as
    many points as n, some partitions among them."""
    gaps = GapSet.from_gaps([1])
    seqs = tuple(Tile(tuple(r)) for r in rows)
    assert Tiles.of(seqs).size == common_size(rows)
    assert Paths.from_rows([[(p, 0) for p in r] for r in rows]).size == common_size(rows)
    assert_same(verify_homogeneous(seqs, n, gaps, cap), homogeneous_violations(rows, n, gaps.expand()), cap)
    if n:
        assert_same(
            verify_interval_tiling(IntervalTiling(n, seqs), gaps, cap),
            interval_violations(rows, n, gaps.expand()),
            cap,
        )
