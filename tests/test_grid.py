import tracemalloc
from math import gcd
from unittest import mock

import numpy as np
import pytest

from gaptiles import (
    GapSet,
    Paths,
    RectangleTiling,
    SplitSpec,
    boundary_base,
    concat_columns,
    construct,
    diagonal_stripe_tiling,
    flatten,
    homogeneous_base,
    homogeneous_step,
    lift_over_points,
    min_height_rect,
    residue_interleave,
    solve_rectangle,
    stack_to_height,
    stair_tiling,
    verify_interval_tiling,
    verify_rectangle_tiling,
)
from gaptiles import grid, pipeline, types
from gaptiles.errors import PreconditionError
from gaptiles.grid import HeightTable
from gaptiles.oracle import SearchStatus
from gaptiles.types import normalize_steps, offsets_from_sizes


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

    @pytest.mark.parametrize("k, l", [(k, l) for k in range(1, 8) for l in range(1, 9 - k)])
    def test_transposed_staircase_bounds_the_height_at_width_k_plus_1(self, table, k, l):
        # the staircase for (l, k), its axes swapped, tiles width k+1 at height k+l+1
        stair = stair_tiling(l, k).paths
        rect = RectangleTiling(
            width=k + 1,
            height=k + l + 1,
            paths=Paths(stair.offsets, stair.ys, stair.xs),
            step_type=normalize_steps({(1, 0): k, (0, 1): l}),
        )
        assert verify_rectangle_tiling(rect).ok
        assert min_height_rect(k, l, k + 1, table=table)[0] <= k + l + 1

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
        assert sorted(f.name for f in tmp_path.iterdir()) == ["f_1_2_3.json", "f_2_2_3.json"]

    def test_swapped_witness_files_are_not_served(self, tmp_path):
        # each file's witness verifies, but under the other shape's name
        table = HeightTable(tmp_path)
        assert min_height_rect(1, 2, 3, table=table)[0] == 8
        assert min_height_rect(2, 2, 3, table=table)[0] == 5
        a, b = tmp_path / "f_1_2_3.json", tmp_path / "f_2_2_3.json"
        a_bytes = a.read_bytes()
        a.write_bytes(b.read_bytes())
        b.write_bytes(a_bytes)
        table = HeightTable(tmp_path)
        assert table.get(1, 2, 3) is None and table.get(2, 2, 3) is None
        f, wit = min_height_rect(1, 2, 3, table=table)
        assert (f, wit.height, wit.width) == (8, 8, 3)
        assert wit.step_type == normalize_steps({(1, 0): 1, (0, 1): 2})
        assert HeightTable(tmp_path).get(1, 2, 3) == (8, wit)

    def test_files_that_are_not_height_witnesses_are_skipped(self, tmp_path):
        min_height_rect(1, 2, 3, table=HeightTable(tmp_path))
        wit = HeightTable(tmp_path).get(1, 2, 3)[1]
        (tmp_path / "f_1_2_3.json").write_text("{")
        (tmp_path / "f_1_1_2.json").write_bytes(b"")
        windowed = diagonal_stripe_tiling(2, 1, 3)
        grid.write_json(tmp_path / "f_2_1_4.json", grid.rectangle_to_obj(windowed))
        table = HeightTable(tmp_path)
        assert [table.get(*key) for key in [(1, 2, 3), (1, 1, 2), (2, 1, 4)]] == [None] * 3
        with pytest.raises(PreconditionError):
            table.put(windowed)
        grid.write_json(tmp_path / "f_1_2_3.json", grid.rectangle_to_obj(wit))
        assert HeightTable(tmp_path).get(1, 2, 3) == (8, wit)

    def test_a_directory_with_an_index_loads_and_keeps_it(self, tmp_path):
        # the layout of earlier versions: an index of f and file names beside
        # the witness files; the witnesses alone are read
        table = HeightTable(tmp_path)
        entries = {key: min_height_rect(*key, table=table) for key in [(1, 2, 3), (2, 2, 3)]}
        index = b'{"1,2,3":{"f":8,"witness_path":"f_1_2_3.json"},"2,2,3":{"f":5,"witness_path":"f_2_2_3.json"}}\n'
        (tmp_path / "index.json").write_bytes(index)
        table = HeightTable(tmp_path)
        assert {key: table.get(*key) for key in entries} == entries
        assert min_height_rect(1, 1, 2, table=table)[0] == 3
        assert (tmp_path / "index.json").read_bytes() == index

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
        assert lift_over_points([(rect, range(rect.width))], rect.step_type, rect.window) == rect

    def test_lift_figure_gaps(self):
        f, wit = min_height_rect(3, 2, 4)
        gapped, rest = (0, 1, 3, 7), (2, 4, 5, 6)
        lifted = lift_over_points([(wit, gapped), (wit, rest)], wit.step_type, None)
        assert (lifted.width, lifted.height) == (8, f)
        # every (x, y) goes to (points[x], y); path sizes and order are kept, piece by piece
        assert np.array_equal(lifted.paths.sizes(), np.tile(wit.paths.sizes(), 2))
        expected = [[(pts[x], y) for x, y in p.points] for pts in (gapped, rest) for p in wit.paths]
        assert [list(p.points) for p in lifted.paths] == expected
        # the two lifts cover x [0, 8) x [0, f) exactly once
        points = sorted(pt for p in lifted.paths for pt in p.points)
        assert points == sorted((x, y) for x in range(8) for y in range(f))

    def test_lift_width_mismatch(self):
        rect = stair_tiling(1, 1)
        with pytest.raises(PreconditionError):
            lift_over_points([(rect, (0, 1))], rect.step_type, None)
        with pytest.raises(PreconditionError):
            lift_over_points([(rect, (0, 1, 2)), (stack_to_height(rect, 4), (3, 4, 5))], rect.step_type, None)

    def test_stack(self):
        rect = stair_tiling(1, 2)  # height 3
        assert stack_to_height(rect, 3) == rect
        doubled = stack_to_height(rect, 6)
        assert doubled.height == 6 and len(doubled.paths) == 2 * len(rect.paths)
        assert verify_rectangle_tiling(doubled).ok
        with pytest.raises(PreconditionError):
            stack_to_height(rect, 4)

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
        col_b = stack_to_height(stair_tiling(1, 1), 6)  # width 3
        narrow = stack_to_height(min_height_rect(1, 1, 2)[1], 6)
        col_a = concat_columns([narrow, narrow])  # width 4
        rect = residue_interleave(col_a, col_b, 1, 0)
        assert rect == col_b
        assert verify_rectangle_tiling(rect).ok

    def test_residue_interleave_two_classes(self):
        # width-2 and width-3 unit blocks of the same height, interleaved mod 2
        f, narrow = min_height_rect(1, 1, 2)  # 2 x 3
        col_a = stack_to_height(stair_tiling(1, 1), 6)  # 3 x 6
        col_b = stack_to_height(narrow, 6)
        rect = residue_interleave(col_a, col_b, 2, 1)
        assert rect.width == 2 * 2 + 1
        assert verify_rectangle_tiling(rect).ok
        # the copy of residue i takes column x to i + 2x, col_a's paths first
        expected = [[(i + 2 * x, y) for x, y in p.points] for col, i in ((col_a, 0), (col_b, 1))
                    for p in col.paths]
        assert [list(p.points) for p in rect.paths] == expected
        with pytest.raises(PreconditionError):
            residue_interleave(col_a, col_b, 2, 2)
        with pytest.raises(PreconditionError):
            residue_interleave(col_b, col_b, 2, 1)
        windowed = RectangleTiling(col_b.width, col_b.height, col_b.paths, col_b.step_type, 2)
        with pytest.raises(PreconditionError, match="share a declared step type"):
            residue_interleave(col_a, windowed, 2, 1)

    def test_residue_interleave_scales_horizontal_steps(self):
        f, wit = min_height_rect(2, 3, 5)
        h = f * 4 // gcd(f, 4)
        col_a, col_b = stack_to_height(stair_tiling(2, 3), h), stack_to_height(wit, h)  # widths 6 and 5
        for d in (2, 5):
            rect = residue_interleave(col_a, col_b, d, 1)
            assert rect.step_type == normalize_steps({(d, 0): 2, (0, 1): 3})
            orig = [*col_a.paths, *[p for _ in range(1, d) for p in col_b.paths]]
            for old, new in zip(orig, rect.paths, strict=True):
                assert new.steps() == tuple((dx * d, dy) for dx, dy in old.steps())
            assert verify_rectangle_tiling(rect).ok

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
        back = [[(p % rect.width, p // rect.width) for p in tile.points] for tile in t.tiles]
        original = sorted(tuple(p.points) for p in rect.paths)
        assert sorted(tuple(pts) for pts in back) == original

    def test_flatten_preserves_counts(self):
        for k, l in [(1, 1), (2, 2), (3, 1)]:
            rect = stair_tiling(k, l)
            t = flatten(rect, rect.width)
            assert len(t.tiles) == len(rect.paths)
            assert {len(tile.points) for tile in t.tiles} == {k + l + 1}
            assert t.tiles[-1].points[-1] == t.length - 1


def flatten_by_argsort(rect, width):
    """(offsets, values) of flatten's output by the one-pass formula it used
    before it gathered a slice of tiles at a time."""
    p = rect.paths
    values = p.ys * width + p.xs
    order = np.argsort(values[p.offsets[:-1]], kind="stable")
    sizes = p.sizes()[order]
    offsets = offsets_from_sizes(sizes)
    source = np.repeat(p.offsets[:-1][order] - offsets[:-1], sizes) + np.arange(values.size)
    return offsets, values[source]


def stage_blocks(run):
    """The block lists the pipeline flattens while run() builds."""
    lists = []
    real = pipeline.flatten

    def capture(blocks, width):
        lists.append(blocks)
        return real(blocks, width)

    with mock.patch.object(pipeline, "flatten", capture):
        run()
    return lists


@pytest.fixture(scope="module")
def seam_blocks():
    """The block list of every stage of a small construct, and of the
    windowed last stage of a homogeneous step, whose paths differ in length."""
    lists = stage_blocks(lambda: construct(GapSet.from_gaps([1, 9, 2970]), SplitSpec(2, 1)))
    step = stage_blocks(lambda: homogeneous_step(homogeneous_base(boundary_base(1, 9, 1, 1)), 3025, 1))
    return lists + step[-1:]


class TestFlattenSlices:
    @pytest.mark.parametrize("tiles", [1, 2, 3, 7, 1 << 30])
    def test_every_slice_size_flattens_alike(self, seam_blocks, tiles):
        ragged = seam_blocks[-1][0]
        assert ragged.window is not None and len(set(ragged.paths.sizes().tolist())) > 1
        assert max(len(blocks) for blocks in seam_blocks) > 1
        for blocks in seam_blocks:
            rect = concat_columns(blocks)
            offsets, values = flatten_by_argsort(rect, rect.width)
            # the stage's block list, and the rectangle they concatenate to
            with mock.patch.object(types, "_BLOCK", tiles):
                got = flatten(blocks, rect.width), flatten(rect, rect.width)
            for t in got:
                assert t.length == rect.width * rect.height
                assert np.array_equal(t.tiles.offsets, offsets)
                assert np.array_equal(t.tiles.values, values)

    @pytest.mark.parametrize("slices", [1, 4])
    def test_scratch_memory_is_bounded_by_the_slice(self, monkeypatch, slices):
        lists = stage_blocks(lambda: construct(GapSet.from_gaps([1, 9, 30011]), SplitSpec(2, 1)))
        rect = concat_columns(lists[-1])
        assert rect.paths.xs.size >= 100_000
        monkeypatch.setattr(types, "_BLOCK", len(rect.paths) // (16 * slices))
        tracemalloc.start()
        try:
            t = flatten(rect, rect.width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = t.tiles.values.nbytes + t.tiles.offsets.nbytes
        # the one-pass formula held four arrays as long as the output: about 2.6 times it
        assert peak < 2 * output


class TestFlattenBlocks:
    def test_scratch_is_bounded_by_the_distinct_blocks(self, monkeypatch):
        lists = stage_blocks(lambda: construct(GapSet.from_gaps([1, 9, 2970]), SplitSpec(2, 1)))
        block = lists[-1][-1]
        blocks = [block] * 5000
        # the peak once the output is written, before Tiles checks its invariants
        real, peaks = grid.Tiles, []

        def tiles(offsets, values):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return real(offsets, values)

        monkeypatch.setattr(grid, "Tiles", tiles)
        tracemalloc.start()
        try:
            t = flatten(blocks, block.width * len(blocks))
        finally:
            tracemalloc.stop()
        output = t.tiles.values.nbytes + t.tiles.offsets.nbytes
        p = block.paths
        block_bytes = p.xs.nbytes + p.ys.nbytes + p.offsets.nbytes
        assert output > 1000 * block_bytes
        # the concatenated rectangle alone was twice the output's values
        assert peaks[0] - output < 4 * block_bytes
