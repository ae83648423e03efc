"""Property tests of the stage plans.

Each buildable stage succeeds at its growth bound, with an output that
verifies, and raises GrowthViolation naming the stage one below it. One
above the bound, the homogeneous and final stages also use their blocks
with the last point removed. A plan is
the built stage without its tiling and endpoints, cardinality histogram
included. thresholds() reports the rows construct() does, and raises the
same error class and message where construct() fails.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles import (
    GapSet,
    SplitSpec,
    boundary_base,
    boundary_step,
    construct,
    final_stage,
    homogeneous_base,
    homogeneous_step,
    thresholds,
    verify_boundary_prefix,
    verify_homogeneous,
    verify_interval_tiling,
)
from gaptiles.errors import GrowthViolation, MultiplicityViolation, TilingError
from gaptiles.pipeline import (
    plan_boundary_base,
    plan_boundary_step,
    plan_final,
    plan_homogeneous_base,
    plan_homogeneous_step,
)

SETTINGS = settings(max_examples=16, deadline=None)


def as_plan(state):
    return replace(state, tiling=None, endpoint_index=())


def below_bound(run, stage: str, bound: int) -> None:
    with pytest.raises(GrowthViolation) as err:
        run(bound - 1)
    assert (err.value.stage, err.value.required, err.value.achieved) == (stage, bound, bound - 1)


@SETTINGS
@given(d1=st.integers(1, 3), k1=st.integers(1, 2), k2=st.integers(1, 2))
def test_boundary_base_at_its_bound(d1, k1, k2):
    bound = d1 * (k1 + k2 + 1) ** 2
    below_bound(lambda d2: boundary_base(d1, d2, k1, k2), "stage-2 boundary-base", bound)
    built = boundary_base(d1, bound, k1, k2)
    assert verify_interval_tiling(built.tiling, GapSet.from_pairs([(d1, k1), (bound, k2)])).ok
    assert verify_boundary_prefix(built.tiling, d1, k1).ok
    assert as_plan(built) == plan_boundary_base(d1, bound, k1, k2)


@SETTINGS
@given(d1=st.integers(1, 2), extra=st.integers(0, 1))
def test_boundary_step_at_its_bound(d1, extra):
    # a {1:2, 16:1}-sized base: boundary budget 2, so the step takes k = 1
    base = boundary_base(d1, 16 * d1 + extra, 2, 1)
    L = base.L
    bound = (L + 1) * (L + 2) + (L + d1 + 1)
    below_bound(lambda d: boundary_step(base, d, 1), "stage-3 boundary-step", bound)
    built = boundary_step(base, bound, 1)
    assert verify_interval_tiling(built.tiling, base.gap_prefix.with_entry(bound, 1)).ok
    assert verify_boundary_prefix(built.tiling, d1, 1).ok
    assert as_plan(built) == plan_boundary_step(base, bound, 1)


@SETTINGS
@given(d1=st.integers(1, 2), k=st.integers(1, 2), extra=st.integers(0, 1))
def test_homogeneous_step_at_its_bound(d1, k, extra):
    prev = homogeneous_base(boundary_base(d1, 9 * d1, 1, 1))
    bound = (prev.L + 1) ** 2
    below_bound(lambda d: homogeneous_step(prev, d, k), "stage-3 homogeneous-step", bound)
    d = bound + extra
    built = homogeneous_step(prev, d, k)
    assert (built.stage_trace["blocks"]["removed_blocks"] > 0) == bool(extra)
    gaps = prev.gap_prefix.with_entry(d, k)
    assert verify_homogeneous(built.tiling.tiles, built.tiling.length, gaps).ok
    assert as_plan(built) == plan_homogeneous_step(prev, d, k)


@SETTINGS
@given(d1=st.integers(1, 2), k1=st.integers(1, 2), k=st.integers(1, 2), extra=st.integers(0, 1))
def test_final_stage_after_a_homogeneous_base_at_its_bound(d1, k1, k, extra):
    base = boundary_base(d1, d1 * (k1 + 2) ** 2, k1, 1)
    prev = homogeneous_base(base)
    # the extended sequence's index is the one thing only the build knows
    assert as_plan(prev) == replace(plan_homogeneous_base(base), stage_trace=prev.stage_trace)
    bound = prev.L * (prev.L + 1)
    below_bound(lambda d: final_stage(prev, d, k), "stage-3 final", bound)
    d = bound + extra
    built = final_stage(prev, d, k)
    assert (built.stage_trace["blocks"]["removed_blocks"] > 0) == bool(extra)
    assert verify_interval_tiling(built.tiling, prev.gap_prefix.with_entry(d, k)).ok
    assert as_plan(built) == plan_final(prev, d, k)


@st.composite
def gap_sets_near_the_bounds(draw):
    """(gap set, split) for splits (2, 0), (2, 1) and (3, 0), each distance
    drawn from one below to one above the bound the stages before it set."""
    split = draw(st.sampled_from([SplitSpec(2, 0), SplitSpec(2, 1), SplitSpec(3, 0)]))
    d1 = 1 if split.s == 3 else draw(st.integers(1, 2))
    k1 = draw(st.integers(1, 2))
    k2 = 1 if split != SplitSpec(2, 0) else draw(st.integers(1, 2))
    near = st.integers(-1, 1)
    pairs = [(d1, k1), (d1 * (k1 + k2 + 1) ** 2 + draw(near), k2)]
    if split != SplitSpec(2, 0):
        try:
            bound = thresholds(GapSet.from_pairs(pairs), split).rows[-1].required
        except TilingError:
            bound = 2 * pairs[1][0]  # the prefix already fails
        pairs.append((bound + draw(near), draw(st.integers(1, 2))))
    return GapSet.from_pairs(pairs), split


def assert_thresholds_match_construct(gaps: GapSet, split: SplitSpec) -> None:
    try:
        built = construct(gaps, split)
    except TilingError as exc:
        with pytest.raises(TilingError) as err:
            thresholds(gaps, split)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
    else:
        assert thresholds(gaps, split).rows == built.thresholds.rows


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_thresholds_report_what_construct_does(data):
    gaps, split = data.draw(gap_sets_near_the_bounds())
    assert_thresholds_match_construct(gaps, split)


@pytest.mark.parametrize(
    "pairs, split",
    [
        ([(1, 1), (9, 1), (3025, 1), (10**12, 1)], SplitSpec(2, 2)),
        ([(1, 1), (9, 1), (30000, 1)], SplitSpec(3, 0)),
    ],
)
def test_thresholds_fail_like_construct_where_they_once_differed(pairs, split):
    gaps = GapSet.from_pairs(pairs)
    with pytest.raises(MultiplicityViolation, match="^hypotheses: "):
        construct(gaps, split)
    assert_thresholds_match_construct(gaps, split)
