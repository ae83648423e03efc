"""Property tests: the exact-cover search agrees with naive_oracle.py on
tilability, and its exhaustive solution lists hold every tiling exactly once
(counted here by a set-based cover over all placements). min_interval's
frontier sweep finds the length that searching every length in turn finds.
The interval search, with its memo, agrees with the memo-free rectangle
search on the same interval as one row."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_oracle import naive_tilable

from gaptiles import (
    GapSet,
    SearchConfig,
    SearchStatus,
    min_interval,
    solve_interval,
    solve_rectangle,
    verify_interval_tiling,
    verify_rectangle_tiling,
)

SETTINGS = settings(max_examples=150, deadline=None)
ALL = SearchConfig(max_solutions=10**6)


def count_covers(size: int, placements) -> int:
    """Exact covers of {0..size-1}: the least uncovered point is covered by
    any placement that contains it and misses every covered point."""
    by_point = {p: [pl for pl in placements if p in pl] for p in range(size)}

    def count(covered: frozenset) -> int:
        if len(covered) == size:
            return 1
        p = min(set(range(size)) - covered)
        return sum(count(covered | pl) for pl in by_point[p] if not pl & covered)

    return count(frozenset())


def interval_placements(gaps, n):
    out = []
    for perm in set(itertools.permutations(gaps)):
        offs = list(itertools.accumulate(perm, initial=0))
        out += [frozenset(s + o for o in offs) for s in range(n - offs[-1])]
    return out


def rectangle_placements(steps, width, height):
    out = []
    for perm in set(itertools.permutations(steps)):
        walk = list(itertools.accumulate(perm, lambda p, s: (p[0] + s[0], p[1] + s[1]), initial=(0, 0)))
        for x0, y0 in itertools.product(range(width), range(height)):
            pts = [(x0 + x, y0 + y) for x, y in walk]
            if all(x < width and y < height for x, y in pts):
                out.append(frozenset(x + y * width for x, y in pts))
    return out


@st.composite
def interval_cases(draw):
    gaps = tuple(sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    ppt = len(gaps) + 1
    return gaps, ppt * draw(st.integers(1, 24 // ppt))


@SETTINGS
@given(interval_cases())
def test_interval_status_agrees_with_naive(case):
    gaps, n = case
    out = solve_interval(GapSet.from_gaps(gaps), n)
    assert out.status is not SearchStatus.BUDGET_EXCEEDED
    assert (out.status is SearchStatus.FOUND) == naive_tilable(gaps, n)


@SETTINGS
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(1, 40))
def test_min_interval_matches_a_search_at_every_length(gaps, n_max):
    gaps = tuple(sorted(gaps))
    gs = GapSet.from_gaps(gaps)
    lengths = range(len(gaps) + 1, n_max + 1, len(gaps) + 1)
    want = None
    for n in lengths:
        out = solve_interval(gs, n)
        assert out.status is not SearchStatus.BUDGET_EXCEEDED
        if out.status is SearchStatus.FOUND:
            want = (n, out.witnesses[0])
            break
    assert min_interval(gs, n_max) == want
    least = next((n for n in lengths if naive_tilable(gaps, n)), None)
    assert (want and want[0]) == least


@pytest.mark.parametrize("gaps", [(5, 6, 6, 6), (5, 5, 5, 6)])
def test_min_interval_finds_no_length_for_catalog_untilable_sets(gaps):
    assert min_interval(GapSet.from_gaps(gaps), 120) is None


@SETTINGS
@given(interval_cases())
def test_interval_solution_list_is_every_tiling_once(case):
    gaps, n = case
    gs = GapSet.from_gaps(gaps)
    out = solve_interval(gs, n, ALL)
    assert len(set(out.witnesses)) == len(out.witnesses) == count_covers(n, interval_placements(gaps, n))
    assert all(verify_interval_tiling(w, gs).ok for w in out.witnesses)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6))
def test_rectangle_solution_list_is_every_tiling_once(k, l, width, height):
    steps = ((0, 1),) * l + ((1, 0),) * k
    out = solve_rectangle({(1, 0): k, (0, 1): l}, width, height, ALL)
    divisible = width * height % (k + l + 1) == 0
    expected = count_covers(width * height, rectangle_placements(steps, width, height)) if divisible else 0
    assert len(set(out.witnesses)) == len(out.witnesses) == expected
    assert (out.status is SearchStatus.FOUND) == (expected > 0)
    assert all(verify_rectangle_tiling(w).ok for w in out.witnesses)


@SETTINGS
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(1, 30))
def test_interval_memo_agrees_with_the_memo_free_rectangle_search(gaps, n):
    # An interval is a one-row rectangle tiled by paths of steps (g, 0); only
    # the interval search keeps a memo of dead frontiers, which may only prune.
    gs = GapSet.from_gaps(gaps)
    interval = solve_interval(gs, n)
    rectangle = solve_rectangle({(d, 0): k for d, k in gs.entries}, n, 1)
    assert interval.status is rectangle.status is not SearchStatus.BUDGET_EXCEEDED
    assert [[t.points for t in w.tiles] for w in interval.witnesses] == [
        [tuple(x for x, _ in p.points) for p in w.paths] for w in rectangle.witnesses
    ]
    assert interval.nodes_explored <= rectangle.nodes_explored


@pytest.mark.parametrize("gaps, n", [((1, 1, 3), 24), ((1, 2, 3), 8)])
def test_parallel_solution_list_matches_sequential(gaps, n):
    # At length 8 the first root of each worker's bucket has no solution but
    # later roots of the same bucket do: a worker's dead-frontier memo must
    # not record its roots.
    gs = GapSet.from_gaps(gaps)
    seq = solve_interval(gs, n, ALL)
    par = solve_interval(gs, n, SearchConfig(max_solutions=10**6, parallel_width=2))
    assert len(seq.witnesses) > 1
    assert par.witnesses == seq.witnesses
