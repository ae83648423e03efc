"""Property tests: on random single-point corruptions of small constructed
tilings, the array verifiers give the same report as the set-based
reference verifiers in naive_verify.py (same violations in the same order,
the same cap and truncation, and an exact ok flag)."""

from functools import lru_cache

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
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)
from gaptiles.types import expand_steps

CAPS = st.sampled_from([1, 3, 32, 10_000])
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


@SETTINGS
@given(data=st.data(), case=st.integers(0, 2), cap=CAPS)
def test_interval_verifier_matches_reference(data, case, cap):
    tiling, gaps = interval_cases()[case]
    rows, length = data.draw(moved_point([t.points for t in tiling.tiles], tiling.length))
    broken = IntervalTiling(length, tuple(Tile(tuple(r)) for r in rows))
    assert_same(
        verify_interval_tiling(broken, gaps, cap), interval_violations(rows, length, gaps.expand()), cap
    )


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
)
def test_rectangle_verifier_matches_reference(data, case, cap, full_window):
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
    broken = RectangleTiling(
        rect.width, rect.height, tuple(LatticePath(tuple(p)) for p in paths), rect.step_type, window
    )
    assert_same(
        verify_rectangle_tiling(broken, cap),
        rectangle_violations(paths, rect.width, rect.height, steps, window),
        cap,
    )
