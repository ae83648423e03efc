import pytest

from gaptiles import GapSet, SplitSpec
from gaptiles.conditions import (
    NOT_APPLICABLE,
    NOT_SATISFIED,
    SATISFIED,
    check_sufficient_conditions,
    check_three_gap_quadratic,
    check_two_value_cases,
    check_two_value_representation,
    _representable,
)


def gs(*pairs):
    return GapSet.from_pairs(pairs)


def by_name(results, name):
    return next(r for r in results if r.name == name)


class TestThreeGapQuadratic:
    def test_not_satisfied_example(self):
        res = check_three_gap_quadratic(gs((1, 1), (2, 1), (63, 1)))
        assert res.status != SATISFIED
        assert res.witness["bound"] == 63 * 4

    def test_satisfied_example(self):
        res = check_three_gap_quadratic(gs((1, 2), (63, 1)))
        assert res.status == SATISFIED
        assert res.witness == {"p": 1, "q": 1, "r": 63, "bound": 63}

    def test_predicate_exact_on_grid(self):
        for p in range(1, 4):
            for q in range(p, 4):
                for r in (1, 62, 63, 252, 1000, 63 * max(p, q) ** 2):
                    res = check_three_gap_quadratic(GapSet.from_gaps([p, q, r]))
                    gaps = sorted([p, q, r])
                    expect = gaps[2] >= 63 * max(gaps[0], gaps[1]) ** 2
                    assert (res.status == SATISFIED) == expect

    def test_not_applicable(self):
        assert check_three_gap_quadratic(gs((1, 2),)).status == NOT_APPLICABLE


class TestTwoValueCases:
    def test_case1_all_unit_head(self):
        for p in range(1, 5):
            for q in range(1, 5):
                if p == q:
                    continue
                for l in range(1, 4):
                    res = by_name(
                        check_two_value_cases(GapSet.from_pairs([(p, 1), (q, l)])),
                        "two-value-case-1",
                    )
                    assert res.status == SATISFIED

    def test_case2(self):
        res = by_name(check_two_value_cases(gs((1, 2), (6, 1))), "two-value-case-2")
        assert res.status == SATISFIED  # k(k+1)p = 6 <= 6
        res = by_name(check_two_value_cases(gs((1, 2), (5, 2))), "two-value-case-2")
        assert res.status != SATISFIED

    def test_case3(self):
        res = by_name(check_two_value_cases(gs((1, 2), (3, 2))), "two-value-case-3")
        assert res.status == SATISFIED  # k=2 <= l=2 and 3p=3 <= q=3
        res = by_name(check_two_value_cases(gs((1, 3), (3, 2))), "two-value-case-3")
        assert res.status != SATISFIED

    def test_not_applicable(self):
        for r in check_two_value_cases(gs((1, 1), (2, 1), (3, 1))):
            assert r.status == NOT_APPLICABLE


def brute_force_sums(k: int, l: int, up_to: int) -> list[bool]:
    """Whether each integer 0..up_to is a sum of the coins k+1..k+l+1 (dynamic program)."""
    reach = [True] + [False] * up_to
    for v in range(1, up_to + 1):
        reach[v] = any(reach[v - c] for c in range(k + 1, k + l + 2) if c <= v)
    return reach


class TestRepresentation:
    def test_closed_form_matches_the_dynamic_program(self):
        for k in range(1, 8):
            for l in range(1, 8):
                reach = brute_force_sums(k, l, 400)
                assert [_representable(a, k, l) for a in range(401)] == reach, (k, l)

    def test_coins_dp(self):
        # coins 2 and 3 write every a >= 0 but 1, so every a = q // p from 2 on
        # has both a and a+1 written
        found = [
            a
            for a in range(1, 11)
            if check_two_value_representation(gs((10, 1), (10 * a + 1, 1))).status == SATISFIED
        ]
        assert found == [2, 3, 4, 5, 6, 7, 8, 9, 10]

    def test_window_includes_a_equals_two(self):
        assert check_two_value_representation(gs((10, 1), (21, 1))).witness["a"] == 2
        res = check_two_value_representation(gs((3, 1), (7, 1)))
        assert res.status == SATISFIED  # a=2: 6 <= 7 <= 9
        assert res.witness["a"] == 2
        assert res.witness["window"] == [6, 9]

    def test_not_satisfied_below_window(self):
        # q < 2p and a=1 is not representable over coins {2, 3}
        res = check_two_value_representation(gs((3, 1), (4, 1)))
        assert res.status != SATISFIED


class TestStagedGrowth:
    def test_satisfied_pipeline(self):
        results = check_sufficient_conditions(gs((1, 1), (9, 1), (2970, 1)))
        res = by_name(results, "staged-growth(s=2,p=1)")
        assert res.status == SATISFIED
        stages = res.witness["stages"]
        assert stages[0]["required"] == 9
        assert stages[-1]["required"] == 2970

    def test_unsatisfied_distance(self):
        results = check_sufficient_conditions(gs((1, 1), (8, 1)), SplitSpec(2, 0))
        res = by_name(results, "staged-growth(s=2,p=0)")
        assert res.status != SATISFIED
        assert "stage-2" in res.witness["reason"]

    @pytest.mark.parametrize("split", [SplitSpec(5, 0), SplitSpec(2, 1)])
    def test_a_split_over_more_distances_than_the_set_is_not_satisfied(self, split):
        # construct refuses such a split; a dry run over a prefix accepts it
        results = check_sufficient_conditions(gs((1, 1), (9, 1)), split)
        res = by_name(results, f"staged-growth(s={split.s},p={split.p})")
        assert res.status == NOT_SATISFIED
        assert res.witness == {
            "reason": f"split (s={split.s}, p={split.p}) does not cover 2 distinct distances"
        }

    def test_infeasible_multiplicities(self):
        results = check_sufficient_conditions(gs((1, 1),))
        res = by_name(results, "staged-growth")
        assert res.status == NOT_APPLICABLE


def test_full_report_shape():
    results = check_sufficient_conditions(gs((1, 1), (9, 1)))
    names = [r.name for r in results]
    assert "three-gap-quadratic" in names
    assert "two-value-case-1" in names
    assert "two-value-representation" in names
    assert any(n.startswith("staged-growth") for n in names)
    for r in results:
        assert r.status in (SATISFIED, "not-satisfied", NOT_APPLICABLE)
