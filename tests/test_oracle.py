import itertools
import re

import pytest
from naive_oracle import naive_tilable

from gaptiles import (
    GapSet,
    SearchConfig,
    SearchExhausted,
    SearchStatus,
    min_interval,
    multiset_permutations,
    solve_interval,
    solve_rectangle,
    verify_interval_tiling,
)


def T(*gaps):
    return GapSet.from_gaps(gaps)


class TestPermutations:
    def test_lexicographic_and_distinct(self):
        assert multiset_permutations([2, 1]) == [(1, 2), (2, 1)]
        assert multiset_permutations([1, 1, 2]) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_counts_match_multinomial(self):
        assert len(multiset_permutations([1] * 3 + [2] * 2)) == 10
        assert len(multiset_permutations(list(range(5)))) == 120


class TestSolveInterval:
    def test_first_witness(self):
        out = solve_interval(T(1, 2), 6)
        assert out.status is SearchStatus.FOUND
        assert [t.points for t in out.witnesses[0].tiles] == [(0, 1, 3), (2, 4, 5)]

    def test_single_gap(self):
        out = solve_interval(T(1), 2)
        assert out.status is SearchStatus.FOUND
        assert out.witnesses[0].tiles[0].points == (0, 1)

    def test_divisibility_rejected_before_search(self):
        out = solve_interval(T(1, 2), 4)
        assert out.status is SearchStatus.EXHAUSTED_NO_SOLUTION
        assert out.nodes_explored == 0

    def test_exhaustion_is_a_proof(self):
        out = solve_interval(T(1, 2), 3)
        assert out.status is SearchStatus.EXHAUSTED_NO_SOLUTION
        assert not naive_tilable((1, 2), 3)

    @pytest.mark.parametrize("width", [0, 2])
    def test_budget_status(self, width):
        out = solve_interval(T(2, 3, 7), 36, SearchConfig(max_nodes=2, parallel_width=width))
        assert out.status is SearchStatus.BUDGET_EXCEEDED

    def test_deterministic_sequential(self):
        a = solve_interval(T(1, 1, 3), 15)
        b = solve_interval(T(1, 1, 3), 15)
        assert a == b

    def test_exhaustive_solutions_verify(self):
        out = solve_interval(T(1, 2), 12, SearchConfig(max_solutions=1000))
        assert out.status is SearchStatus.FOUND
        for wit in out.witnesses:
            assert verify_interval_tiling(wit, T(1, 2)).ok
        # leftmost-point branching reaches each unordered tiling exactly once
        assert len(set(out.witnesses)) == len(out.witnesses)

    def test_parallel_agrees_with_sequential(self):
        seq = solve_interval(T(1, 2), 6)
        par = solve_interval(T(1, 2), 6, SearchConfig(parallel_width=2))
        assert par.status is SearchStatus.FOUND
        assert par.witnesses[0] == seq.witnesses[0]
        none_seq = solve_interval(T(2, 2), 12)
        none_par = solve_interval(T(2, 2), 12, SearchConfig(parallel_width=2))
        assert none_seq.status == none_par.status
        # several tilings each, whose roots can finish out of order
        for gaps, n in [((1, 1, 2, 3), 10), ((1, 2, 2, 3), 10), ((1, 1, 3, 6), 20), ((2, 3, 5, 6), 20)]:
            seq = solve_interval(T(*gaps), n)
            assert seq.status is SearchStatus.FOUND
            for _ in range(8):
                par = solve_interval(T(*gaps), n, SearchConfig(parallel_width=2))
                assert par.witnesses == seq.witnesses, (gaps, n)


class TestMinInterval:
    def test_smallest_two_gap(self):
        n, wit = min_interval(T(1, 2), 30)
        assert n == 6
        assert solve_interval(T(1, 2), 3).status is SearchStatus.EXHAUSTED_NO_SOLUTION

    def test_repeated_gap(self):
        n, wit = min_interval(T(1, 1), 30)
        assert n == 3
        assert wit.tiles[0].points == (0, 1, 2)

    def test_every_three_point_tile_tiles_an_interval(self):
        for p in range(1, 6):
            for q in range(p, 6):
                found = min_interval(T(p, q), 200)
                assert found is not None, (p, q)

    def test_not_found_within_bound(self):
        assert min_interval(T(2, 3), 12) is None

    def test_budget_exhaustion_is_not_untilability(self):
        # {3,4,5,5} first tiles at length 70; a budget that runs out at a
        # shorter length must not let the sweep move on to longer lengths
        assert min_interval(T(3, 4, 5, 5), 120)[0] == 70
        with pytest.raises(SearchExhausted, match=r"budget exceeded at length \d+ for \{3:1,4:1,5:2\}"):
            min_interval(T(3, 4, 5, 5), 120, SearchConfig(max_nodes=100))

    def test_sweep_budget_names_an_undecided_length(self):
        # the sweep settles about 5,000 frontiers before it reaches 70; a
        # budget that stops it first names the least admissible length it
        # has not yet decided
        with pytest.raises(SearchExhausted) as exc:
            min_interval(T(3, 4, 5, 5), 120, SearchConfig(max_nodes=1000))
        n = int(re.search(r"budget exceeded at length (\d+) ", str(exc.value)).group(1))
        assert n % 5 == 0 and n <= 70

    def test_search_budget_names_the_least_length(self):
        # {1,4,5,6} first tiles at length 20: the sweep settles 252 frontiers
        # to prove it, the search at 20 enters 504 states to find a witness
        gs = T(1, 4, 5, 6)
        assert min_interval(gs, 120)[0] == 20
        with pytest.raises(SearchExhausted, match=r"budget exceeded at length 20 for \{1:1,4:1,5:1,6:1\}"):
            min_interval(gs, 120, SearchConfig(max_nodes=300))


class TestNaiveAgreement:
    def test_exhaustive_agreement_small(self):
        gap_sets = []
        for size in range(1, 4):
            gap_sets.extend(itertools.combinations_with_replacement(range(1, 5), size))
        for gaps in gap_sets:
            gs = T(*gaps)
            for n in range(gs.points_per_tile(), 25, gs.points_per_tile()):
                ours = solve_interval(gs, n).status is SearchStatus.FOUND
                assert ours == naive_tilable(gaps, n), (gaps, n)


class TestSolveRectangle:
    def test_small_found(self):
        out = solve_rectangle({(1, 0): 1, (0, 1): 1}, 2, 3)
        assert out.status is SearchStatus.FOUND

    def test_stair_shape_always_found(self):
        for k, l in [(1, 1), (2, 1), (1, 3), (3, 2)]:
            out = solve_rectangle({(1, 0): k, (0, 1): l}, k + l + 1, l + 1)
            assert out.status is SearchStatus.FOUND

    def test_divisibility(self):
        out = solve_rectangle({(1, 0): 1, (0, 1): 1}, 2, 2)
        assert out.status is SearchStatus.EXHAUSTED_NO_SOLUTION
        assert out.nodes_explored == 0
