import random
import tracemalloc

import pytest
from naive_verify import homogeneous_violations, interval_violations

from gaptiles import (
    GapSet,
    IntervalTiling,
    LatticePath,
    RectangleTiling,
    SplitSpec,
    Tile,
    boundary_base,
    construct,
    stair_tiling,
    verify_boundary_prefix,
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)
from gaptiles import types
from gaptiles.errors import PreconditionError
from gaptiles.serialize import dumps_canonical, report_to_obj
from gaptiles.types import Tiles, normalize_steps


def T(*gaps):
    return GapSet.from_gaps(gaps)


def tiling(n, *tiles):
    return IntervalTiling(n, tuple(Tile(t) for t in tiles))


def kinds_at(report, kind):
    return [v.location for v in report.violations if v.kind == kind]


class TestIntervalTiling:
    def test_good_partition(self):
        rep = verify_interval_tiling(tiling(6, (0, 1, 3), (2, 4, 5)), T(1, 2))
        assert rep.ok and not rep.violations

    def test_overlap(self):
        rep = verify_interval_tiling(tiling(4, (0, 1), (1, 2, 3)), T(1))
        assert not rep.ok
        assert (1,) in kinds_at(rep, "Overlap")

    def test_gap_mismatch_reports_tile_index(self):
        rep = verify_interval_tiling(tiling(3, (0, 1, 2)), T(1, 2))
        assert not rep.ok
        assert (0,) in kinds_at(rep, "GapMismatch")

    def test_hole_and_out_of_range(self):
        rep = verify_interval_tiling(tiling(4, (0, 1), (2, 5)), T(1))
        assert not rep.ok
        assert (3,) in kinds_at(rep, "Hole")
        assert (5,) in kinds_at(rep, "OutOfRange")
        rep2 = verify_interval_tiling(tiling(2, (-1, 0), (1, 2)), T(1))
        assert (-1,) in kinds_at(rep2, "OutOfRange")

    def test_ok_implies_point_count_and_divisibility(self):
        st = boundary_base(1, 9, 1, 1)
        rep = verify_interval_tiling(st.tiling, st.gap_prefix)
        assert rep.ok
        total = sum(len(t.points) for t in st.tiling.tiles)
        assert total == st.tiling.length
        assert st.tiling.length % st.gap_prefix.points_per_tile() == 0

    def test_violation_cap_keeps_exact_ok(self):
        tiles = tuple(Tile((i, i + 1)) for i in range(0, 200, 2))  # all even starts
        bad = IntervalTiling(400, tiles)  # second half all holes
        rep = verify_interval_tiling(bad, T(1), max_violations=5)
        assert not rep.ok
        assert len(rep.violations) == 5
        assert rep.truncated

    def test_reports_are_pure_and_byte_identical(self):
        t = tiling(6, (0, 1, 3), (2, 4, 5))
        a = verify_interval_tiling(t, T(1, 2))
        b = verify_interval_tiling(t, T(1, 2))
        assert a == b
        assert dumps_canonical(report_to_obj(a)) == dumps_canonical(report_to_obj(b))

    def test_single_corruption_found_in_large_tiling(self):
        from gaptiles import boundary_step

        st = boundary_step(boundary_base(1, 16, 2, 1), 4225, 1)
        tiles = list(st.tiling.tiles)
        mid = len(tiles) // 2
        pts = list(tiles[mid].points)
        pts[0] -= 1  # creates one hole and one overlap far from the stream edges
        tiles[mid] = Tile(tuple(pts))
        broken = IntervalTiling(st.tiling.length, tuple(tiles))
        rep = verify_interval_tiling(broken, st.gap_prefix)
        assert not rep.ok
        kinds = {v.kind for v in rep.violations}
        assert "Hole" in kinds and "Overlap" in kinds


@pytest.mark.parametrize("blocks", [1, 4])
def test_interval_scratch_memory_is_bounded_by_the_blocks(monkeypatch, blocks):
    gs = T(1, 9, 30011)
    t = construct(gs, SplitSpec(2, 1)).tiling
    assert t.tiles.values.size >= 100_000
    monkeypatch.setattr(types, "_BLOCK", len(t.tiles) // (64 * blocks))
    tracemalloc.start()
    try:
        rep = verify_interval_tiling(t, gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    # int64 point counts and a step array, each as long as the values, took twice them
    assert peak < 0.5 * t.tiles.values.nbytes


@pytest.fixture(scope="module")
def constructed_rows():
    gs = T(1, 9, 2970)
    t = construct(gs, SplitSpec(2, 1)).tiling
    return gs, t.length, [t.tiles.row(i).tolist() for i in range(len(t.tiles))]


@pytest.mark.parametrize("cap", [1, 32, 10**6])
@pytest.mark.parametrize("variant", ["duplicated", "dropped", "strays"])
def test_large_failing_covers_match_reference(constructed_rows, variant, cap):
    """A constructed tiling with one tile twice, 40 tiles missing, or points
    on both sides of the range gets the reference report from both checks."""
    gs, length, rows = constructed_rows
    if variant == "duplicated":
        rows = rows + [rows[len(rows) // 2]]
    elif variant == "dropped":
        rows = [r for i, r in enumerate(rows) if i % 73 or i >= 73 * 40]
    else:
        rows = rows + [[-2, length + 5]]
    tiles, gaps = Tiles.from_rows(rows), gs.expand()
    for report, want in (
        (verify_interval_tiling(IntervalTiling(length, tiles), gs, cap), interval_violations(rows, length, gaps)),
        (verify_homogeneous(tiles, length, gs, cap), homogeneous_violations(rows, length, gaps)),
    ):
        assert [(v.kind, v.location, v.detail) for v in report.violations] == want[:cap]
        assert not report.ok and report.truncated == (len(want) > cap)


class TestBoundaryPrefix:
    def test_constructed_base_passes(self):
        st = boundary_base(1, 9, 1, 1)
        assert verify_boundary_prefix(st.tiling, 1, 1).ok

    def test_count_zero_is_vacuous(self):
        rep = verify_boundary_prefix(tiling(6, (0, 2, 3), (1, 4, 5)), 1, 0)
        assert rep.ok

    def test_violation_detected(self):
        rep = verify_boundary_prefix(tiling(6, (0, 2, 3), (1, 4, 5)), 1, 1)
        assert not rep.ok
        assert (1, 0) in kinds_at(rep, "BoundaryPrefixViolation")

    @pytest.mark.parametrize("d1, count", [(0, 1), (1, -1)])
    def test_out_of_range_arguments_are_refused(self, d1, count):
        with pytest.raises(PreconditionError, match="d1 must be >= 1 and count >= 0"):
            verify_boundary_prefix(tiling(6, (0, 2, 3), (1, 4, 5)), d1, count)


class TestHomogeneous:
    def test_single_sequence_windows(self):
        seqs = (Tile((0, 1, 3, 4)), Tile((2, 5)))
        rep = verify_homogeneous(seqs, 6, T(1, 2))
        # windows (0,1,3) and (1,3,4) both have gaps {1,2}; (2,5) is vacuous
        assert not [v for v in rep.violations if v.kind == "WindowMismatch"]

    def test_window_mismatch(self):
        rep = verify_homogeneous((Tile((0, 1, 3, 5)),), 6, T(1, 2))
        assert (0, 1) in kinds_at(rep, "WindowMismatch")

    def test_sequence_of_window_size_is_a_tile_check(self):
        good = verify_homogeneous((Tile((0, 1, 3)), Tile((2, 4, 5))), 6, T(1, 2))
        assert good.ok
        bad = verify_homogeneous((Tile((0, 1, 2)), Tile((3, 4, 5))), 6, T(1, 2))
        assert kinds_at(bad, "WindowMismatch") == [(0, 0), (1, 0)]


class TestRectangle:
    def test_stair_ok(self):
        assert verify_rectangle_tiling(stair_tiling(3, 4)).ok

    def test_single_path_ok(self):
        rect = RectangleTiling(
            2, 1, (LatticePath(((0, 0), (1, 0))),), normalize_steps({(1, 0): 1})
        )
        assert verify_rectangle_tiling(rect).ok

    def test_hole_detected(self):
        rect = RectangleTiling(
            2, 1, (LatticePath(((0, 0),)),), normalize_steps({(1, 0): 1})
        )
        rep = verify_rectangle_tiling(rect)
        assert not rep.ok
        assert (1, 0) in kinds_at(rep, "Hole")
        assert (0,) in kinds_at(rep, "TypeMismatch")

    def test_out_of_rectangle_point(self):
        rect = RectangleTiling(
            2, 1, (LatticePath(((0, 0), (1, 0), (2, 0))),), normalize_steps({(1, 0): 2})
        )
        rep = verify_rectangle_tiling(rect)
        assert (2, 0) in kinds_at(rep, "OutOfRange")

    def test_windowed_equals_uniform_at_full_window(self):
        # On tilings whose paths have exactly one window, both modes agree.
        rng = random.Random(7)
        for _ in range(12):
            k = rng.randint(1, 4)
            l = rng.randint(1, 4)
            rect = stair_tiling(k, l)
            windowed = RectangleTiling(
                rect.width, rect.height, rect.paths, rect.step_type, window=k + l
            )
            assert verify_rectangle_tiling(rect).ok == verify_rectangle_tiling(windowed).ok
            # corrupt one path: drop its last point, cover it with a fake extra path
            paths = list(rect.paths)
            dropped = paths[0].points[-1]
            paths[0] = LatticePath(paths[0].points[:-1])
            paths.append(LatticePath((dropped,)))
            broken_uniform = RectangleTiling(
                rect.width, rect.height, tuple(paths), rect.step_type
            )
            broken_windowed = RectangleTiling(
                rect.width, rect.height, tuple(paths), rect.step_type, window=k + l
            )
            u = verify_rectangle_tiling(broken_uniform)
            w = verify_rectangle_tiling(broken_windowed)
            assert not u.ok and not w.ok
