from math import gcd

import pytest

from gaptiles import (
    ColumnTiling,
    GapSet,
    Paths,
    RectangleTiling,
    as_rectangle,
    concat_columns,
    diagonal_stripe_tiling,
    dilate_x,
    flatten,
    lift_over_points,
    merge_ragged,
    min_height_rect,
    residue_interleave,
    solve_rectangle,
    stack_to_height,
    stair_tiling,
    unflatten,
    verify_interval_tiling,
    verify_ragged_tiling,
    verify_rectangle_tiling,
)
from gaptiles.errors import PreconditionError
from gaptiles.grid import HeightTable, RaggedTiling
from gaptiles.oracle import SearchStatus
from gaptiles.types import normalize_steps


def expected_stair_paths(k, l):
    paths = []
    for i in range(l + 1):
        pts = [(i, y) for y in range(l - i + 1)]
        pts += [(x, l - i) for x in range(i + 1, k + i + 1)]
        pts += [(k + i, y) for y in range(l - i + 1, l + 1)]
        paths.append(tuple(pts))
    return paths


class TestStair:
    def test_figure_instance(self):
        rect = stair_tiling(3, 4)
        assert rect.width == 8 and rect.height == 5
        assert [p.points for p in rect.paths] == expected_stair_paths(3, 4)
        assert verify_rectangle_tiling(rect).ok

    def test_minimal_instance(self):
        rect = stair_tiling(1, 1)
        assert [p.points for p in rect.paths] == [
            ((0, 0), (0, 1), (1, 1)),
            ((1, 0), (2, 0), (2, 1)),
        ]

    def test_all_small_sizes_verify(self):
        for k in range(1, 9):
            for l in range(1, 9):
                rect = stair_tiling(k, l)
                assert len(rect.paths) == l + 1
                for i, p in enumerate(rect.paths):
                    assert p.points[0] == (i, 0)
                assert verify_rectangle_tiling(rect).ok
        # the corner path takes its first k steps to the right
        rect = stair_tiling(5, 3)
        corner = rect.paths[-1]
        assert corner.points[-1] == (5 + 3, 3)
        assert corner.steps()[:5] == ((1, 0),) * 5


class TestMinHeightRect:
    def test_smallest_instance_exact_witness(self):
        f, wit = min_height_rect(1, 1, 2)
        assert f == 3
        assert [p.points for p in wit.paths] == [
            ((0, 0), (1, 0), (1, 1)),
            ((0, 1), (0, 2), (1, 2)),
        ]

    def test_full_width_uses_stair(self):
        for k, l in [(1, 1), (2, 3), (4, 2)]:
            f, wit = min_height_rect(k, l, k + l + 1)
            assert f == l + 1
            assert wit == stair_tiling(k, l)

    def test_range_error(self):
        with pytest.raises(PreconditionError):
            min_height_rect(1, 1, 4)
        with pytest.raises(PreconditionError):
            min_height_rect(2, 1, 2)

    def test_sweep_verifies_and_is_minimal(self, table):
        # every admissible smaller height is exhaustively refuted
        for k in range(1, 6):
            for l in range(1, 7 - k):
                for m in range(k + 1, k + l + 2):
                    f, wit = min_height_rect(k, l, m, table=table)
                    assert verify_rectangle_tiling(wit).ok
                    assert (m * f) % (k + l + 1) == 0
                    ppp = k + l + 1
                    step = ppp // gcd(m, ppp)
                    cand = ((l + 1 + step - 1) // step) * step
                    while cand < f:
                        out = solve_rectangle({(1, 0): k, (0, 1): l}, m, cand)
                        assert out.status is SearchStatus.EXHAUSTED_NO_SOLUTION
                        cand += step

    def test_persistent_table_round_trip(self, tmp_path):
        t1 = HeightTable(tmp_path)
        f, wit = min_height_rect(1, 2, 3, table=t1)
        t2 = HeightTable(tmp_path)
        hit = t2.get(1, 2, 3)
        assert hit is not None
        assert hit[0] == f
        assert hit[1] == wit


    def test_persistent_table_leaves_no_temporary_files(self, tmp_path):
        table = HeightTable(tmp_path)
        min_height_rect(1, 2, 3, table=table)
        min_height_rect(2, 2, 3, table=table)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["f_1_2_3.json", "f_2_2_3.json", "index.json"]

class TestDiagonalStripes:
    def test_figure_instance(self):
        rect = diagonal_stripe_tiling(6, 2, 11)
        assert rect.width == 12 and rect.height == 14
        assert verify_rectangle_tiling(rect).ok
        pts = {p.points for p in rect.paths}
        short_a = tuple([(x, 0) for x in range(5, 12)] + [(11, 1), (11, 2)])
        short_b = tuple([(0, 11), (0, 12), (0, 13)] + [(x, 13) for x in range(1, 7)])
        assert short_a in pts and short_b in pts

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            diagonal_stripe_tiling(6, 2, 6)
        with pytest.raises(PreconditionError):
            diagonal_stripe_tiling(6, 2, 12)

    def test_length_bounds_small_range(self):
        for n in range(2, 9):
            for kv in range(1, 5):
                for m in range(n + 1, 2 * n):
                    rect = diagonal_stripe_tiling(n, kv, m)
                    assert verify_rectangle_tiling(rect).ok
                    short_a = tuple(
                        [(x, 0) for x in range(m - n, m + 1)] + [(m, y) for y in range(1, kv + 1)]
                    )
                    short_b = tuple(
                        [(0, y) for y in range(m, m + kv + 1)] + [(x, m + kv) for x in range(1, n + 1)]
                    )
                    for p in rect.paths:
                        steps = len(p.points) - 1
                        assert steps <= m + 2 * kv
                        if p.points in (short_a, short_b):
                            assert steps == n + kv
                        else:
                            assert steps > n + kv
                        if p.points[-1] == (m, m + kv):
                            assert steps > n + kv


class TestTransforms:
    def test_lift_identity(self):
        rect = stair_tiling(2, 2)
        lifted = lift_over_points(rect, range(rect.width), rect.step_type, rect.window)
        assert as_rectangle(lifted) == rect

    def test_lift_figure_gaps(self):
        f, wit = min_height_rect(3, 2, 4)
        lifted = lift_over_points(wit, (0, 1, 3, 7))
        assert lifted.support == (0, 1, 3, 7)
        for p in lifted.paths:
            xs = sorted({x for x, _ in p.points})
            # a path's x-projection is a run of consecutive support entries
            i = (0, 1, 3, 7).index(xs[0])
            assert tuple(xs) == (0, 1, 3, 7)[i : i + len(xs)]
        assert verify_ragged_tiling(lifted).ok

    @pytest.mark.parametrize("window", [4, 6])
    def test_ragged_window_other_than_step_total_mismatches(self, window):
        # stair_tiling(3, 2): three paths of 5 steps each.
        rect = stair_tiling(3, 2)
        ragged = RaggedTiling(tuple(range(rect.width)), rect.height, rect.paths, rect.step_type, window)
        rep = verify_ragged_tiling(ragged)
        assert not rep.ok
        if window == 4:
            assert [v.location for v in rep.violations] == [(i, o) for i in range(3) for o in range(2)]
        else:
            assert [v.detail for v in rep.violations] == ["path has fewer than 6 steps"] * 3

    def test_ragged_cover_faults_name_the_support_value(self):
        # Column 3 of support (0, 1, 3, 7) covered twice, column 7 not at all.
        paths = Paths.from_rows([[(0, 0), (1, 0)], [(3, 0)], [(3, 0)]])
        rep = verify_ragged_tiling(RaggedTiling((0, 1, 3, 7), 1, paths))
        assert [(v.kind, v.location) for v in rep.violations] == [("Overlap", (3, 0)), ("Hole", (7, 0))]

    def test_lift_width_mismatch(self):
        with pytest.raises(PreconditionError):
            lift_over_points(stair_tiling(1, 1), (0, 1))

    def test_dilate_identity_and_offsets(self):
        rect = stair_tiling(1, 2)
        same = dilate_x(rect, 1, 0)
        assert same.support == tuple(range(rect.width))
        shifted = dilate_x(rect, 3, 1)
        assert shifted.support == (1, 4, 7, 10)
        with pytest.raises(PreconditionError):
            dilate_x(rect, 3, 3)

    def test_dilate_scales_horizontal_steps(self):
        rect = stair_tiling(2, 3)
        for d in (2, 5):
            lifted = dilate_x(rect, d, 0)
            for orig, new in zip(rect.paths, lifted.paths):
                for (dx, dy), (ex, ey) in zip(orig.steps(), new.steps()):
                    assert (ex, ey) == (dx * d, dy)
            assert lifted.step_type == normalize_steps({(d, 0): 2, (0, 1): 3})

    def test_stack(self):
        rect = stair_tiling(1, 2)  # height 3
        assert stack_to_height(rect, 3) == rect
        doubled = stack_to_height(rect, 6)
        assert doubled.height == 6 and len(doubled.paths) == 2 * len(rect.paths)
        assert verify_rectangle_tiling(doubled).ok
        with pytest.raises(PreconditionError):
            stack_to_height(rect, 4)

    def test_column_tiling_wrapper(self):
        rect = stair_tiling(1, 2)
        col = ColumnTiling(rect, rect.height)
        assert stack_to_height(col, 6) == stack_to_height(rect, 6)
        with pytest.raises(PreconditionError):
            ColumnTiling(rect, rect.height + 1)

    def test_concat(self):
        a = stair_tiling(1, 1)
        assert concat_columns([a]) == a
        two = concat_columns([a, a])
        assert two.width == 2 * a.width
        assert verify_rectangle_tiling(two).ok
        b = stack_to_height(stair_tiling(1, 1), 4)
        with pytest.raises(PreconditionError):
            concat_columns([a, b])

    def test_residue_interleave_single_class(self):
        col_b = dilate_x(stair_tiling(1, 1), 1, 0)  # width 3
        col_a = dilate_x(stack_to_height(stair_tiling(2, 1), 2), 1, 0)  # width 4
        rect = residue_interleave(col_a, col_b, 1, 0)
        assert rect.width == 3
        assert verify_rectangle_tiling(rect).ok

    def test_residue_interleave_two_classes(self):
        # width-2 and width-3 unit blocks of the same height, dilated by 2
        f, narrow = min_height_rect(1, 1, 2)  # 2 x 3
        wide = stack_to_height(stair_tiling(1, 1), 6)  # 3 x 6
        narrow = stack_to_height(narrow, 6)
        col_b = dilate_x(narrow, 2, 0)
        col_a = dilate_x(wide, 2, 0)
        rect = residue_interleave(col_a, col_b, 2, 1)
        assert rect.width == 2 * 2 + 1
        assert verify_rectangle_tiling(rect).ok
        with pytest.raises(PreconditionError):
            residue_interleave(col_a, col_b, 2, 2)

    def test_merge_ragged_detects_collision(self):
        a = lift_over_points(stair_tiling(1, 1), (0, 1, 2))
        b = lift_over_points(stair_tiling(1, 1), (2, 3, 4))
        from gaptiles.errors import ConstructionError

        with pytest.raises(ConstructionError):
            merge_ragged([a, b])

    def test_flatten_arithmetic(self):
        rect = stair_tiling(1, 1)  # 3 x 2
        t = flatten(rect, 3)
        assert t.length == 6
        assert [tile.points for tile in t.tiles] == [(0, 3, 4), (1, 2, 5)]
        assert verify_interval_tiling(t, GapSet.from_gaps([1, 3])).ok
        with pytest.raises(PreconditionError):
            flatten(rect, 4)

    def test_flatten_rejects_a_point_outside_the_rectangle(self):
        # (2, 0) in a 2 x 2 rectangle flattens to 2, the value of (0, 1): without
        # the bounds check this invalid rectangle became a valid tiling of [0, 4).
        rect = RectangleTiling(
            2, 2, Paths.from_rows([[(0, 0), (2, 0)], [(1, 0), (1, 1)]]), normalize_steps({(0, 1): 1})
        )
        assert not verify_rectangle_tiling(rect).ok
        with pytest.raises(PreconditionError, match=r"\(2, 0\) of path 0 lies outside"):
            flatten(rect, 2)

    def test_flatten_unflatten_round_trip(self):
        rect = stair_tiling(2, 3)
        t = flatten(rect, rect.width)
        back = unflatten(t, rect.width)
        original = sorted(tuple(p.points) for p in rect.paths)
        assert sorted(tuple(pts) for pts in back) == original

    def test_flatten_preserves_counts(self):
        for k, l in [(1, 1), (2, 2), (3, 1)]:
            rect = stair_tiling(k, l)
            t = flatten(rect, rect.width)
            assert len(t.tiles) == len(rect.paths)
            assert {len(tile.points) for tile in t.tiles} == {k + l + 1}
            assert t.tiles[-1].points[-1] == t.length - 1
