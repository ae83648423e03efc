import gc
import itertools
import math
import re
import sys
import tracemalloc

import pytest
from naive_oracle import naive_tilable

from gaptiles import (
    GapSet,
    SearchConfig,
    SearchExhausted,
    SearchOutcome,
    SearchStatus,
    min_height_rect,
    min_interval,
    solve_interval,
    solve_rectangle,
    verify_interval_tiling,
)
from gaptiles.errors import PreconditionError
from gaptiles.oracle import _orders, _too_many_orders


def T(*gaps):
    return GapSet.from_gaps(gaps)


def order_masks(steps, width=1) -> list[int]:
    """The masks of _orders(steps, width), in the order the search tries them."""
    return [mask for _, masks in _orders(tuple(steps), width) for mask in masks]


def mask_of(order, width=1) -> int:
    """The bits of an order's points, flattened at row width."""
    at, mask = 0, 1
    for dx, dy in order:
        at += dx + dy * width
        mask |= 1 << at
    return mask


def peak_of(fn) -> int:
    """The tracemalloc peak of fn() above what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestOrders:
    def test_lexicographic_and_distinct(self):
        assert order_masks([(2, 0), (1, 0)]) == [0b1011, 0b1101]  # orders 1,2 and 2,1
        assert order_masks([(1, 0), (1, 0), (2, 0)]) == [0b10111, 0b11011, 0b11101]
        steps = [(1, 0)] * 3 + [(0, 1)] * 2 + [(2, 1)]
        expected = [mask_of(order, 7) for order in sorted(set(itertools.permutations(steps)))]
        assert order_masks(steps, 7) == expected
        assert len(set(expected)) == len(expected)

    def test_runs_group_the_orders_by_first_step(self):
        for bit, masks in _orders(((0, 1), (0, 1), (1, 0), (1, 0)), 5):
            assert all((mask ^ 1) & -(mask ^ 1) == bit for mask in masks)

    def test_counts_match_multinomial(self):
        assert len(order_masks([(1, 0)] * 3 + [(2, 0)] * 2)) == 10
        assert len(order_masks([(g, 0) for g in range(1, 6)])) == 120
        assert len(order_masks([(1, 0)] * 6 + [(0, 1)] * 5, 9)) == math.comb(11, 5)

    def test_a_table_holds_one_mask_per_order(self):
        # the 48,620 orders of 9 right and 9 up steps: about 3 MiB as masks
        # alone, 26 MiB when each order also kept its steps and its offsets
        steps = ((1, 0),) * 9 + ((0, 1),) * 9
        assert peak_of(lambda: _orders.__wrapped__(steps, 18)) < 8 << 20


class TestOrderCap:
    def test_twelve_and_twelve_steps_list_and_thirteen_do_not(self):
        assert not _too_many_orders(((1, 0),) * 12 + ((0, 1),) * 12)  # 2,704,156 orders
        assert _too_many_orders(((1, 0),) * 13 + ((0, 1),) * 13)  # 10,400,600 orders

    def test_a_rectangle_with_too_many_orders_is_refused_before_listing_them(self):
        # 16 x 29 holds 16 paths of 29 points, so the area check passes
        before = _orders.cache_info()
        out = solve_rectangle({(1, 0): 14, (0, 1): 14}, 16, 29)
        assert out == SearchOutcome(SearchStatus.BUDGET_EXCEEDED, (), 0)
        assert _orders.cache_info() == before

    def test_a_height_search_with_too_many_orders_names_the_shape(self):
        with pytest.raises(SearchExhausted, match=r"budget exceeded at f=29 for \(14,14,16\)"):
            min_height_rect(14, 14, 16)

    def test_a_sweep_with_too_many_orders_names_the_gap_set(self):
        gs = GapSet.from_gaps(range(1, 13))  # 12! orders
        with pytest.raises(SearchExhausted, match=re.escape(f"budget exceeded at length 91 for {{{gs}}}")):
            min_interval(gs, 1000)


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

    @pytest.mark.parametrize("length", [0, -2])
    def test_an_empty_interval_is_refused_not_proved_untilable(self, length):
        with pytest.raises(PreconditionError, match=f"length must be >= 1, got {length}"):
            solve_interval(T(1, 1), length)

    def test_budget_status(self):
        out = solve_interval(T(2, 3, 7), 36, SearchConfig(max_nodes=2))
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

    def test_memo_holds_less_than_an_empty_set_per_point(self):
        # the memo of dead frontiers gets a set only where one dies, not one
        # per position before the first state
        solve_interval(T(1, 2), 6)  # lists and caches the orders
        n = 2400
        assert peak_of(lambda: solve_interval(T(1, 2), n)) < n * sys.getsizeof(set())

    def test_the_search_depth_is_not_bound_by_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        out = solve_interval(T(1, 2), 6 * limit)
        assert out.status is SearchStatus.FOUND
        assert len(out.witnesses[0].tiles) == 2 * limit
        assert sys.getrecursionlimit() == limit


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

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_a_bound_below_one_is_refused(self, n_max):
        with pytest.raises(PreconditionError, match=f"n_max must be >= 1, got {n_max}"):
            min_interval(T(1, 1), n_max)

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
