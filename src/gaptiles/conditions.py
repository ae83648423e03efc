"""Checkers for the known sufficient conditions under which a gap set tiles an interval.

Each checker reports satisfied / not-satisfied / not-applicable together with a
witness dictionary explaining the evaluation; inapplicable shapes are never
errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pipeline import auto_split, check_split, thresholds
from .errors import NoFeasibleSplit, SearchExhausted, TilingError
from .types import GapSet, SplitSpec

SATISFIED = "satisfied"
NOT_SATISFIED = "not-satisfied"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ConditionResult:
    name: str
    status: str
    witness: dict


def check_three_gap_quadratic(gap_set: GapSet) -> ConditionResult:
    """Three-gap test: with r the largest gap and p, q the other two, the set
    tiles when r >= 63 * max(p, q)^2."""
    name = "three-gap-quadratic"
    if gap_set.size() != 3:
        return ConditionResult(name, NOT_APPLICABLE, {"reason": "needs exactly 3 gaps"})
    p, q, r = gap_set.expand()
    bound = 63 * max(p, q) ** 2
    status = SATISFIED if r >= bound else NOT_SATISFIED
    return ConditionResult(name, status, {"p": p, "q": q, "r": r, "bound": bound})


def _two_value_labelings(gap_set: GapSet):
    (pd, pk), (qd, qk) = gap_set.entries
    yield pd, pk, qd, qk
    yield qd, qk, pd, pk


def check_two_value_cases(gap_set: GapSet) -> list[ConditionResult]:
    """The three two-distance tests for {p^(k), q^(l)}: (1) k = 1;
    (2) k(k+1)p <= q; (3) k <= l and (k+1)p <= q. Either labeling of (p, q)
    may satisfy a case."""
    names = ["two-value-case-1", "two-value-case-2", "two-value-case-3"]
    if len(gap_set.entries) != 2:
        return [
            ConditionResult(n, NOT_APPLICABLE, {"reason": "needs exactly 2 distinct distances"})
            for n in names
        ]
    results = []
    checks = [
        lambda p, k, q, l: k == 1,
        lambda p, k, q, l: k * (k + 1) * p <= q,
        lambda p, k, q, l: k <= l and (k + 1) * p <= q,
    ]
    for name, check in zip(names, checks):
        witness: dict = {}
        good = False
        for p, k, q, l in _two_value_labelings(gap_set):
            if check(p, k, q, l):
                good = True
                witness = {"p": p, "k": k, "q": q, "l": l}
                break
        results.append(ConditionResult(name, SATISFIED if good else NOT_SATISFIED, witness))
    return results


def _representable(a: int, k: int, l: int) -> bool:
    """Whether a >= 0 is a sum of the coins k+1, ..., k+l+1.

    n such coins sum to exactly the integers in [n*(k+1), n*(k+l+1)], as the
    coins are consecutive; the fewest coins that can reach a are
    ceil(a / (k+l+1)), so a is a sum exactly when that many can stay as low.
    """
    lo, hi = k + 1, k + l + 1
    return -(-a // hi) * lo <= a


def check_two_value_representation(gap_set: GapSet) -> ConditionResult:
    """Representation test for {p^(k), q^(l)}, p < q: the set tiles when some a
    with both a and a+1 representable over the coins k+1..k+l+1 satisfies
    a*p <= q <= (a+1)*p."""
    name = "two-value-representation"
    if len(gap_set.entries) != 2:
        return ConditionResult(name, NOT_APPLICABLE, {"reason": "needs exactly 2 distinct distances"})
    (p, k), (q, l) = gap_set.entries
    candidates = [q // p]
    if q % p == 0 and q // p >= 1:
        candidates.append(q // p - 1)
    for a in candidates:
        if a >= 1 and _representable(a, k, l) and _representable(a + 1, k, l):
            return ConditionResult(
                name,
                SATISFIED,
                {"a": a, "window": [a * p, (a + 1) * p], "q": q, "coins": [k + 1, k + l + 1]},
            )
    return ConditionResult(
        name, NOT_SATISFIED, {"candidates": candidates, "q": q, "coins": [k + 1, k + l + 1]}
    )


def check_staged_growth(gap_set: GapSet, split: SplitSpec | None = None) -> list[ConditionResult]:
    """This package's own pipeline hypotheses: the multiplicity inequalities
    plus every per-stage distance threshold, evaluated per feasible split.
    A given split must cover the gap set's distances, as construct requires.
    A height search that runs out of budget decides nothing, so its
    SearchExhausted propagates."""
    if len(gap_set.entries) < 2:
        return [
            ConditionResult(
                "staged-growth", NOT_APPLICABLE, {"reason": "needs at least 2 distinct distances"}
            )
        ]
    if split is not None:
        splits = [split]
    else:
        try:
            splits = auto_split(gap_set)
        except NoFeasibleSplit:
            return [
                ConditionResult(
                    "staged-growth",
                    NOT_SATISFIED,
                    {"reason": "no split satisfies the multiplicity inequalities"},
                )
            ]
    results = []
    for sp in splits:
        name = f"staged-growth(s={sp.s},p={sp.p})"
        try:
            check_split(gap_set, sp)
            report = thresholds(gap_set, sp)
        except SearchExhausted:
            raise
        except TilingError as exc:
            results.append(ConditionResult(name, NOT_SATISFIED, {"reason": str(exc)}))
            continue
        results.append(
            ConditionResult(name, SATISFIED, {"stages": report.to_obj()})
        )
    return results


def check_sufficient_conditions(
    gap_set: GapSet, split: SplitSpec | None = None
) -> list[ConditionResult]:
    """Evaluate every condition whose shape requirements the gap set meets."""
    out = [check_three_gap_quadratic(gap_set)]
    out.extend(check_two_value_cases(gap_set))
    out.append(check_two_value_representation(gap_set))
    out.extend(check_staged_growth(gap_set, split))
    return out
