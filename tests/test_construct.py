from dataclasses import replace

import pytest

from gaptiles import pipeline
from gaptiles import (
    GapSet,
    SearchStatus,
    SplitSpec,
    Tile,
    auto_split,
    base_decomposition,
    boundary_base,
    boundary_step,
    construct,
    final_stage,
    homogeneous_base,
    homogeneous_step,
    represent_two_coins,
    solve_interval,
    thresholds,
    verify_boundary_prefix,
    verify_homogeneous,
    verify_interval_tiling,
)
from gaptiles.pipeline import StageState
from gaptiles.errors import (
    CardinalityViolation,
    ConstructionError,
    GrowthViolation,
    MultiplicityViolation,
    NoFeasibleSplit,
    NoRepresentation,
    PreconditionError,
    VerificationFailed,
)


def gs(*pairs):
    return GapSet.from_pairs(pairs)


class TestTwoCoins:
    def test_examples(self):
        assert represent_two_coins(9, 2, 3, True) == (3, 0)
        assert represent_two_coins(10, 2, 3, True) == (2, 2)
        with pytest.raises(NoRepresentation):
            represent_two_coins(2, 2, 3, True)

    def test_minimal_c_by_scan(self):
        for w1 in range(1, 7):
            w2 = w1 + 1
            for a in range(0, 80):
                for positive in (False, True):
                    best = None
                    for c in range(a // w1 + 1 if w1 else 1):
                        rem = a - c * w1
                        if rem >= 0 and rem % w2 == 0 and rem // w2 >= (1 if positive else 0):
                            best = (rem // w2, c)
                            break
                    if best is None:
                        with pytest.raises(NoRepresentation):
                            represent_two_coins(a, w1, w2, positive)
                    else:
                        assert represent_two_coins(a, w1, w2, positive) == best

    def test_non_consecutive_coins_rejected(self):
        with pytest.raises(PreconditionError):
            represent_two_coins(9, 2, 4, True)


class TestBoundaryBase:
    def test_smallest_instance(self):
        st = boundary_base(1, 9, 1, 1)
        assert st.tiling.length == 54  # lcm(2, 3) * 9
        assert st.L == 53
        assert st.boundary_prefix_count == 1
        assert verify_interval_tiling(st.tiling, gs((1, 1), (9, 1))).ok
        assert verify_boundary_prefix(st.tiling, 1, 1).ok
        dec = base_decomposition(1, 9, 1, 1)
        assert (dec.a, dec.t) == (9, 0)

    def test_growth_violation(self):
        with pytest.raises(GrowthViolation) as err:
            boundary_base(1, 8, 1, 1)
        assert err.value.required == 9 and err.value.achieved == 8

    def test_nonzero_residue_branch(self):
        st = boundary_base(2, 19, 1, 1)
        dec = base_decomposition(2, 19, 1, 1)
        assert (dec.a, dec.t) == (9, 1)
        assert verify_interval_tiling(st.tiling, gs((2, 1), (19, 1))).ok
        assert verify_boundary_prefix(st.tiling, 2, 1).ok

    def test_endpoint_index_covers_last_d1_points(self):
        st = boundary_base(3, 48, 1, 1)
        ends = dict(st.endpoint_index)
        n = st.tiling.length
        assert sorted(ends) == [n - 3, n - 2, n - 1]
        for point, idx in ends.items():
            assert st.tiling.tiles[idx].points[-1] == point

    def test_parameter_sweep_verifies(self):
        # varied multiplicities, residues, and coin representations; d2 jitter
        # exercises mixed narrow/wide block columns (c > 0 representations)
        for d1 in (1, 2):
            for k1, k2 in [(1, 1), (2, 1), (1, 2), (2, 2)]:
                base = d1 * (k1 + k2 + 1) ** 2
                for d2 in (base, base + 1, base + 7):
                    st = boundary_base(d1, d2, k1, k2)
                    target = gs((d1, k1), (d2, k2))
                    assert verify_interval_tiling(st.tiling, target).ok, (d1, d2, k1, k2)
                    assert verify_boundary_prefix(st.tiling, d1, k1).ok, (d1, d2, k1, k2)
                    assert st.tiling.length == st.h * d2


class TestBoundaryStep:
    def test_threshold_instance(self):
        st = boundary_base(1, 16, 2, 1)
        assert st.tiling.length == 64
        st3 = boundary_step(st, 4225, 1)
        assert st3.boundary_prefix_count == 1
        assert st3.tiling.length == 4225 * st3.h
        assert verify_interval_tiling(st3.tiling, gs((1, 2), (16, 1), (4225, 1))).ok
        assert verify_boundary_prefix(st3.tiling, 1, 1).ok

    def test_multiplicity_violation(self):
        st = boundary_base(1, 9, 1, 1)  # budget 1
        with pytest.raises(MultiplicityViolation):
            boundary_step(st, 10**6, 1)

    def test_growth_violation(self):
        st = boundary_base(1, 16, 2, 1)
        with pytest.raises(GrowthViolation) as err:
            boundary_step(st, 4224, 1)
        assert err.value.required == 4225

    def test_wider_d1_exercises_all_anchor_tiles(self):
        st = boundary_base(2, 33, 2, 1)
        nxt = thresholds(gs((2, 2), (33, 1))).rows[-1].required
        st3 = boundary_step(st, nxt, 1)
        assert verify_interval_tiling(st3.tiling, gs((2, 2), (33, 1), (nxt, 1))).ok
        assert verify_boundary_prefix(st3.tiling, 2, 1).ok

    def test_multiplicity_two_step(self):
        st = boundary_base(1, 25, 3, 1)
        st2 = boundary_step(st, 63002, 2)
        assert st2.boundary_prefix_count == 1
        assert verify_interval_tiling(st2.tiling, gs((1, 3), (25, 1), (63002, 2))).ok
        assert verify_boundary_prefix(st2.tiling, 1, 1).ok

    def test_step_with_mixed_block_widths(self):
        # one past the threshold forces a representation with both coin kinds,
        # so the narrow (width L+1) blocks appear in the assembly
        st = boundary_base(1, 16, 2, 1)
        st3 = boundary_step(st, 4226, 1)
        assert st3.stage_trace["blocks"]["narrow_blocks"] > 0
        assert verify_interval_tiling(st3.tiling, gs((1, 2), (16, 1), (4226, 1))).ok
        assert verify_boundary_prefix(st3.tiling, 1, 1).ok


class TestHomogeneousBase:
    def test_one_long_sequence(self):
        st = homogeneous_base(boundary_base(1, 9, 1, 1))
        assert st.tiling.length == 55
        assert verify_homogeneous(st.tiling.tiles, 55, gs((1, 1), (9, 1))).ok
        cards = dict(st.card_counts)
        assert cards == {3: 17, 4: 1}
        # the extended sequence ends at the last point, with last gap d1
        ends = dict(st.endpoint_index)
        seq = st.tiling.tiles[ends[54]]
        assert len(seq.points) == 4
        assert seq.points[-1] - seq.points[-2] == 1
        assert len(seq.points) - gs((1, 1), (9, 1)).size() == 2  # two windows


class TestHomogeneousStep:
    def test_threshold_instance(self):
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        st = homogeneous_step(prev, 3025, 1)
        t1 = gs((1, 1), (9, 1), (3025, 1))
        assert verify_homogeneous(st.tiling.tiles, st.tiling.length, t1).ok
        assert max(c for c, _ in st.card_counts) <= t1.size() + 1 + 2
        assert st.last_card > t1.size() + 1
        # removing the last point of the input leaves a valid homogeneous tiling
        ends = dict(prev.endpoint_index)
        tiles = list(prev.tiling.tiles)
        idx = ends[prev.L]
        tiles[idx] = Tile(tiles[idx].points[:-1])
        assert verify_homogeneous(tuple(tiles), prev.L, prev.gap_prefix).ok

    def test_growth_violation(self):
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        with pytest.raises(GrowthViolation):
            homogeneous_step(prev, 3024, 1)

    def test_multiplicity_two_step(self):
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        st = homogeneous_step(prev, 3025, 2)
        t1 = gs((1, 1), (9, 1), (3025, 2))
        assert verify_homogeneous(st.tiling.tiles, st.tiling.length, t1).ok
        assert st.last_card > t1.size() + 1

    def test_built_histogram_must_match_the_plan(self):
        # The plan reads the histogram prev declares; this one claims two long
        # sequences where the tiling has one, so the built step differs from it.
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        bad = replace(prev, card_counts=((3, 16), (4, 2)))
        with pytest.raises(ConstructionError, match="stage-3 homogeneous-step: built cardinalities"):
            homogeneous_step(bad, 3025, 1)

    def test_step_uses_remove_point_blocks(self):
        # a representation with width-L blocks materializes the remove-point
        # variant and mixes two block heights via their lcm
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        st = homogeneous_step(prev, 3026, 1)
        assert st.stage_trace["blocks"]["removed_blocks"] > 0
        t1 = gs((1, 1), (9, 1), (3026, 1))
        assert verify_homogeneous(st.tiling.tiles, st.tiling.length, t1).ok


class TestFinalStage:
    def test_smallest_pipeline(self):
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        tiling = final_stage(prev, 2970, 1)
        assert verify_interval_tiling(tiling, gs((1, 1), (9, 1), (2970, 1))).ok

    def test_growth_violation(self):
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        with pytest.raises(GrowthViolation):
            final_stage(prev, 2969, 1)

    def test_multiplicity_two_final(self):
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        tiling = final_stage(prev, 2970, 2)
        assert verify_interval_tiling(tiling, gs((1, 1), (9, 1), (2970, 2))).ok

    def test_final_uses_remove_point_blocks(self):
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        tiling = final_stage(prev, 2971, 1)
        assert verify_interval_tiling(tiling, gs((1, 1), (9, 1), (2971, 1))).ok

    def test_cardinality_violation(self):
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        # a fake long sequence: cardinality > n + k + 1 for k = 1
        bad = StageState(
            kind=prev.kind,
            tiling=prev.tiling,
            L=prev.L,
            gap_prefix=prev.gap_prefix,
            d1=prev.d1,
            boundary_prefix_count=None,
            endpoint_index=prev.endpoint_index,
            h=prev.h,
            card_counts=((3, 17), (5, 1)),
            last_card=5,
            stage_trace={},
        )
        with pytest.raises(CardinalityViolation):
            final_stage(bad, 10**7, 1)


class TestConstruct:
    def test_p0_equals_base(self):
        res = construct(gs((1, 1), (9, 1)), SplitSpec(2, 0))
        assert res.tiling.length == 54
        assert res.trace[-1]["mode"] == "boundary-only"

    def test_growth_violation_names_stage(self):
        with pytest.raises(GrowthViolation) as err:
            construct(gs((1, 1), (8, 1)), SplitSpec(2, 0))
        assert "stage-2" in err.value.stage

    def test_split_must_cover(self):
        with pytest.raises(PreconditionError):
            construct(gs((1, 1), (9, 1)), SplitSpec(2, 1))

    def test_full_three_distance_pipeline(self):
        res = construct(gs((1, 1), (9, 1), (2970, 1)), SplitSpec(2, 1))
        assert verify_interval_tiling(res.tiling, res.gap_set).ok
        assert [r.required for r in res.thresholds.rows] == [9, 2970]
        assert all(r.achieved >= r.required for r in res.thresholds.rows)
        # stage length bookkeeping: every stage's output length is d * h
        for row in res.trace:
            if row.get("d_used"):
                assert row["L_out"] + 1 == row["d_used"] * row["h"]

    def test_three_distance_boundary_only(self):
        res = construct(gs((1, 2), (16, 1), (4225, 1)), SplitSpec(3, 0))
        assert verify_interval_tiling(res.tiling, res.gap_set).ok
        assert verify_boundary_prefix(res.tiling, 1, 1).ok

    def test_determinism(self):
        a = construct(gs((1, 1), (9, 1), (2970, 1)), SplitSpec(2, 1))
        b = construct(gs((1, 1), (9, 1), (2970, 1)), SplitSpec(2, 1))
        assert a.tiling == b.tiling
        assert a.trace == b.trace

    def test_monotone_growth_asserted(self):
        rows = construct(gs((1, 1), (9, 1), (2970, 1)), SplitSpec(2, 1)).thresholds.rows
        ds = [r.achieved for r in rows]
        assert ds == sorted(ds)

    @pytest.mark.parametrize(
        "stage, split",
        [("boundary_base", SplitSpec(2, 0)), ("_final_stage_impl", SplitSpec(2, 1))],
    )
    def test_last_stage_must_verify_the_requested_gap_set(self, monkeypatch, stage, split):
        # The last stage builds and verifies a tiling for a neighbouring
        # distance; construct must not hand it out as one for the gap set asked.
        real = getattr(pipeline, stage)
        if stage == "boundary_base":
            monkeypatch.setattr(pipeline, stage, lambda d1, d2, k1, k2, t: real(d1, d2 + 1, k1, k2, t))
        else:
            monkeypatch.setattr(pipeline, stage, lambda prev, d, k, t: real(prev, d + 1, k, t))
        gaps = gs((1, 1), (9, 1), (2970, 1))
        with pytest.raises(VerificationFailed, match="not for the requested"):
            construct(GapSet(gaps.entries[: split.s + split.p]), split)

    def test_small_outputs_cross_checked_by_search(self):
        res = construct(gs((1, 1), (9, 1)), SplitSpec(2, 0))
        assert res.tiling.length <= 60
        out = solve_interval(res.gap_set, res.tiling.length)
        assert out.status is SearchStatus.FOUND


class TestAutoSplit:
    def test_three_unit_multiplicities(self):
        # s=3 fails the head inequality, so only (2, 1) remains
        assert auto_split(gs((1, 1), (2, 1), (3, 1))) == [SplitSpec(2, 1)]

    def test_five_distances(self):
        splits = auto_split(gs((1, 5), (2, 1), (3, 1), (4, 1), (5, 5)))
        assert splits[0] == SplitSpec(4, 1)
        assert SplitSpec(3, 2) in splits and SplitSpec(2, 3) in splits

    def test_two_distances(self):
        assert auto_split(gs((1, 1), (2, 1))) == [SplitSpec(2, 0)]

    def test_no_feasible_split(self):
        with pytest.raises(NoFeasibleSplit):
            auto_split(gs((1, 1),))


class TestThresholds:
    def test_base_requirement(self):
        rows = thresholds(gs((1, 1), (9, 1))).rows
        assert rows[0].stage == "stage-2 boundary-base"
        assert rows[0].required == 9 and rows[0].achieved == 9

    def test_next_boundary_requirement_after_base(self):
        rows = thresholds(gs((1, 1), (9, 1))).rows
        assert rows[-1].required == 54 * 55 + 53 + 1 + 1  # 3025
        assert rows[-1].achieved is None

    def test_final_requirement_for_tail_one(self):
        rows = thresholds(gs((1, 1), (9, 1)), SplitSpec(2, 1)).rows
        assert rows[-1].stage == "stage-3 final"
        assert rows[-1].required == 54 * 55  # 2970

    def test_dry_run_matches_materialized_chain(self):
        report = thresholds(gs((1, 2), (16, 1), (4225, 1)), SplitSpec(3, 0))
        res = construct(gs((1, 2), (16, 1), (4225, 1)), SplitSpec(3, 0))
        assert report.rows == res.thresholds.rows

    def test_dry_run_matches_materialized_homogeneous(self):
        # card counters propagate structurally: check against a materialized step
        prev = homogeneous_base(boundary_base(1, 9, 1, 1))
        st = homogeneous_step(prev, 3025, 1)
        rows = thresholds(gs((1, 1), (9, 1), (3025, 1)), SplitSpec(2, 2)).rows
        assert rows[-1].stage == "stage-4 final"
        assert rows[-1].required == st.L * (st.L + 1)

    def test_final_stage_heights_are_not_searched(self, monkeypatch):
        # the final stage lifts (8, 8, c) rectangles, and (8, 8, 10) alone
        # takes seconds to search; a dry run reports the row without them
        calls = []
        real = pipeline.min_height_rect

        def spy(k, l, m, table=None):
            calls.append((k, l, m))
            return real(k, l, m, table=table)

        monkeypatch.setattr(pipeline, "min_height_rect", spy)
        rows = thresholds(gs((1, 7), (225, 1), (10**9, 8)), SplitSpec(2, 1)).rows
        assert [r.stage for r in rows] == ["stage-2 boundary-base", "stage-3 final"]
        assert rows[-1].required == 16406550 and rows[-1].achieved == 10**9
        assert calls == [(7, 1, 8)]

    def test_prefix_too_small(self):
        with pytest.raises(PreconditionError):
            thresholds(gs((1, 1),))
