"""The staged construction pipeline.

Two stage families feed a final assembly:

* boundary stages build interval tilings in which every tile ending in one of
  the last d1 points starts with a prescribed count of gaps equal to d1 (the
  boundary-prefix property); the count shrinks as stages consume it.
* homogeneous stages build tilings by sequences in which every window of
  size()+1 consecutive points is a tile for the stage's gap set.

Each stage is a plan, then a build checked against that plan. A plan is a
StageState without a tiling, computed from the previous stage's shape and
the new distance and multiplicity alone: it checks the stage's growth,
multiplicity and cardinality hypotheses and fixes the output length, height,
block counts and cardinality histogram. Each bound on the next distance is
computed from the actual dimensions (L, h) of the preceding stage.
``thresholds`` folds the plans alone, so a dry run reports the bounds and
raises the errors ``construct`` would. Of the final stage it runs only the
checks (_check_final), not the minimal-height searches only the build needs.

A build assembles what its plan says and verifies its output once before
returning, so a constructed tiling is never trusted without verification. A
stage that assembles a rectangle flattens its column blocks, each checked
against its own bounds, straight into the tiling and verifies that; the
rectangle is built and checked only to say where a failed output went
wrong. The built tiling's cardinality histogram must equal the plan's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from math import lcm
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CardinalityViolation,
    ConstructionError,
    GrowthViolation,
    MultiplicityViolation,
    NoFeasibleSplit,
    NoRepresentation,
    PreconditionError,
    VerificationFailed,
)
from .grid import (
    HeightTable,
    RaggedTiling,
    as_rectangle,
    concat_columns,
    diagonal_stripe_tiling,
    dilate_x,
    flatten,
    lift_over_points,
    merge_ragged,
    min_height_rect,
    residue_interleave,
    stack_to_height,
    stair_tiling,
)
from .types import (
    INT64_MAX,
    GapSet,
    IntervalTiling,
    Paths,
    RectangleTiling,
    SplitSpec,
    StepType,
    Tiles,
    TilingAnnotations,
    VerificationReport,
    normalize_steps,
)
from .verify import (
    verify_boundary_prefix,
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)


@dataclass(frozen=True)
class BaseDecomposition:
    """d2 = a*d1 + t with both a and a+1 written over the coins (w, w+1)."""

    a: int
    t: int
    rep_a: tuple[int, int]
    rep_a_plus_1: tuple[int, int]


@dataclass(frozen=True)
class ThresholdRow:
    stage: str
    required: int
    achieved: int | None


@dataclass(frozen=True)
class ThresholdReport:
    rows: tuple[ThresholdRow, ...]

    def to_obj(self) -> list[dict]:
        return [
            {"stage": r.stage, "required": r.required, "achieved": r.achieved}
            for r in self.rows
        ]


@dataclass(frozen=True)
class StageState:
    """Running construction state after one stage.

    endpoint_index maps each of the interval's trailing anchor points to the
    index of the tile/sequence ending there (the last d1 points for boundary
    stages, the last point for the others). A plan is a StageState with
    tiling None and no endpoints; every other field is the built stage's.
    card_counts is the sorted cardinality histogram of the sequences and
    last_card the cardinality of the one ending at the last point (None for
    boundary stages).
    """

    kind: str  # "boundary" | "homogeneous" | "final"
    tiling: IntervalTiling | None
    L: int
    gap_prefix: GapSet
    d1: int
    boundary_prefix_count: int | None
    endpoint_index: tuple[tuple[int, int], ...]
    h: int
    card_counts: tuple[tuple[int, int], ...] | None
    last_card: int | None
    stage_trace: dict


def _require_ok(report: VerificationReport, what: str) -> None:
    if not report.ok:
        first = report.violations[0] if report.violations else None
        raise VerificationFailed(f"{what} failed verification: {first}")


def _checked_output(blocks: Sequence[RectangleTiling], plan: StageState) -> StageState:
    """Flatten a stage's column blocks, laid left to right, by the stage's
    distance d, verify the tiling once, and return the plan built with it
    (see _built).

    The check is verify_homogeneous for the plan's gap set on homogeneous
    stages (the tiling is then annotated homogeneous for it), else
    verify_interval_tiling; boundary stages add verify_boundary_prefix and
    the count's annotation. Flatten checks each block's bounds and maps the
    blocks' [0, d) x [0, h) one-to-one onto [0, d*h), so a clean output shows
    the blocks tile that rectangle exactly too. The concatenated rectangle
    is never built: only after a failure is it rebuilt from the tiling and
    verified, to locate the fault. Pass the list as a temporary: this call
    then holds its only reference and frees the blocks before the check. Any
    failure raises VerificationFailed.
    """
    d, stage, gaps = plan.stage_trace["d_used"], plan.stage_trace["stage"], plan.gap_prefix
    height, step_type, window = blocks[0].height, blocks[0].step_type, blocks[0].window
    try:
        tiling = flatten(blocks, d)
    except PreconditionError as exc:
        raise VerificationFailed(f"{stage} rectangle does not flatten: {exc}") from None
    del blocks
    if plan.kind == "homogeneous":
        tiling = tiling.with_annotations(homogeneous_for=gaps)
        report = verify_homogeneous(tiling.tiles, tiling.length, gaps)
    else:
        report = verify_interval_tiling(tiling, gaps)
    if plan.kind == "boundary":
        count = plan.boundary_prefix_count
        tiling = tiling.with_annotations(boundary_prefix_count=count)
        if report.ok:
            report = verify_boundary_prefix(tiling, plan.d1, count)
    if not report.ok:
        ys, xs = np.divmod(tiling.tiles.values, d)
        rebuilt = RectangleTiling(d, height, Paths(tiling.tiles.offsets, xs, ys), step_type, window)
        output = f"{stage} output failed verification: {report.violations[0]}; its rectangle"
        _require_ok(verify_rectangle_tiling(rebuilt), output)
        _require_ok(report, f"{stage} output")
    return _built(plan, tiling)


def _lifted_type(gaps: GapSet, k: int) -> StepType:
    steps = {(dist, 0): mult for dist, mult in gaps.entries}
    steps[(0, 1)] = k
    return normalize_steps(steps)


def _endpoints(tiling: IntervalTiling, span: int) -> tuple[tuple[int, int], ...]:
    """Map each of the last `span` points to the index of the tile ending there."""
    found: dict[int, int] = {}
    ends = tiling.tiles.ends()
    for i in np.flatnonzero(ends >= tiling.length - span).tolist():
        found[int(ends[i])] = i
    if len(found) != span:
        raise ConstructionError("each trailing anchor point must end a tile")
    return tuple(sorted(found.items()))


def _buildable(plan: StageState, prev: StageState | None = None) -> None:
    """Refuse to build over a plan, or an interval whose points int64 cannot hold."""
    if prev is not None and prev.tiling is None:
        raise PreconditionError("the previous stage is a plan; build it first")
    if plan.L + 1 > INT64_MAX:
        raise PreconditionError(
            f"{plan.stage_trace['stage']}: interval length {plan.L + 1} exceeds "
            f"the signed 64-bit point range (at most {INT64_MAX})"
        )


def _built(plan: StageState, tiling: IntervalTiling) -> StageState:
    """The plan with its verified tiling and its endpoints filled in.

    Raises ConstructionError when the tiling's cardinality histogram, or the
    cardinality of the sequence ending at its last point, is not the plan's.
    """
    endpoint_index = _endpoints(tiling, plan.d1 if plan.kind == "boundary" else 1)
    if plan.card_counts is not None:
        sizes = tiling.tiles.sizes()
        per_card = np.bincount(sizes)
        cards = np.flatnonzero(per_card)
        counts = tuple(zip(cards.tolist(), per_card[cards].tolist()))
        last = int(sizes[endpoint_index[-1][1]])
        if counts != plan.card_counts or last != plan.last_card:
            raise ConstructionError(
                f"{plan.stage_trace['stage']}: built cardinalities {counts} (last {last}) "
                f"differ from the plan's {plan.card_counts} (last {plan.last_card})"
            )
    return replace(plan, tiling=tiling, endpoint_index=endpoint_index)


def _stage_name(prev: StageState, kind: str, k: int = 1) -> str:
    """The name of the stage `kind` after prev; checks that it may follow prev
    and that its multiplicity k is positive."""
    after = "boundary" if kind == "boundary-step" else "homogeneous"
    if prev.kind != after:
        raise PreconditionError(f"previous stage must be a {after} stage")
    if k < 1:
        raise PreconditionError("multiplicity must be >= 1")
    return f"stage-{len(prev.gap_prefix.entries) + 1} {kind}"


def _next_bound(prev: StageState, kind: str, k: int = 1) -> int:
    """The least distance a stage of `kind` accepts after prev, with multiplicity k."""
    L = prev.L
    if kind == "boundary-step":
        return (L + 1) * (L + 2) + (L + k * prev.d1 + 1)
    if kind == "homogeneous-step":
        return (L + 1) ** 2
    return L * (L + 1)


def _trace(stage: str, L_in: int | None, L_out: int, h: int, required, d, blocks: dict) -> dict:
    """A stage's trace entry; required and d are None for the homogeneous base."""
    return {
        "stage": stage,
        "L_in": L_in,
        "L_out": L_out,
        "h": h,
        "threshold_required": required,
        "d_used": d,
        "blocks": blocks,
    }


def represent_two_coins(
    a: int, w1: int, w2: int, require_positive_b: bool
) -> tuple[int, int]:
    """Write a = b*w2 + c*w1 with c >= 0 and b >= 1 (or b >= 0), minimizing c.

    w1, w2 must be consecutive, hence coprime; c is then unique mod w2, so the
    minimal c also maximizes b.
    """
    if w1 < 1 or w2 != w1 + 1:
        raise PreconditionError("coins must be consecutive positive integers")
    if a < 0:
        raise NoRepresentation(f"{a} is negative")
    c = (-a) % w2
    num = a - c * w1
    if num < 0:
        raise NoRepresentation(f"{a} has no nonnegative representation over ({w1}, {w2})")
    b = num // w2
    if require_positive_b and b < 1:
        raise NoRepresentation(
            f"{a} has no representation over ({w1}, {w2}) with a positive {w2}-count"
        )
    return b, c


def base_decomposition(d1: int, d2: int, k1: int, k2: int) -> BaseDecomposition:
    w = k1 + k2
    a, t = divmod(d2, d1)
    return BaseDecomposition(
        a=a,
        t=t,
        rep_a=represent_two_coins(a, w, w + 1, True),
        rep_a_plus_1=represent_two_coins(a + 1, w, w + 1, True),
    )


# ---------------------------------------------------------------------------
# Boundary stages


def plan_boundary_base(
    d1: int, d2: int, k1: int, k2: int, table: HeightTable | None = None
) -> StageState:
    """The plan of boundary_base: checks d2 >= d1*(k1+k2+1)^2."""
    stage = "stage-2 boundary-base"
    if min(d1, d2, k1, k2) < 1:
        raise PreconditionError("all arguments must be >= 1")
    required = d1 * (k1 + k2 + 1) ** 2
    if d2 < required:
        raise GrowthViolation(stage, required, d2)
    dec = base_decomposition(d1, d2, k1, k2)
    f, _ = min_height_rect(k1, k2, k1 + k2, table=table)
    h = lcm(k2 + 1, f)
    blocks = {
        "a": dec.a,
        "t": dec.t,
        "rep_a": list(dec.rep_a),
        "rep_a_plus_1": list(dec.rep_a_plus_1),
        "f": f,
    }
    return StageState(
        kind="boundary",
        tiling=None,
        L=h * d2 - 1,
        gap_prefix=GapSet.from_pairs([(d1, k1), (d2, k2)]),
        d1=d1,
        boundary_prefix_count=k1,
        endpoint_index=(),
        h=h,
        card_counts=None,
        last_card=None,
        stage_trace=_trace(stage, None, h * d2 - 1, h, required, d2, blocks),
    )


def boundary_base(
    d1: int, d2: int, k1: int, k2: int, table: HeightTable | None = None
) -> StageState:
    """First stage: tile [0, h*d2 - 1] for the gap set {d1^(k1), d2^(k2)} with
    boundary prefix count k1. Requires d2 >= d1*(k1+k2+1)^2.
    """
    plan = plan_boundary_base(d1, d2, k1, k2, table)
    _buildable(plan)
    blocks = plan.stage_trace["blocks"]
    b1, c1 = blocks["rep_a"]
    b2, c2 = blocks["rep_a_plus_1"]
    _, f_wit = min_height_rect(k1, k2, k1 + k2, table=table)
    first = stack_to_height(f_wit, plan.h)
    second = stack_to_height(stair_tiling(k1, k2), plan.h)

    # Narrow blocks left, wide (staircase) blocks right: the top-right corner
    # path of the rightmost staircase carries the boundary-prefix property.
    def column(narrow: int, wide: int):
        return dilate_x(concat_columns([first] * narrow + [second] * wide), d1, 0)

    return _checked_output([residue_interleave(column(c2, b2), column(c1, b1), d1, blocks["t"])], plan)


def _extension_block(
    points: Sequence[int], d1: int, k: int, step_type: StepType
) -> RaggedTiling:
    """Staircase-like block over a tile extended by k extra points spaced d1.

    Path i climbs i, crosses all n original gap positions at height i, then
    climbs the remaining k - i; together the k+1 paths tile the extended
    support times [0, k].
    """
    v = [int(p) for p in points]
    n = len(v) - 1
    ext = v + [v[-1] + d1 * j for j in range(1, k + 1)]
    paths = []
    for i in range(k + 1):
        pts = [(ext[k - i], y) for y in range(i + 1)]
        pts += [(ext[x], i) for x in range(k - i + 1, k - i + n + 1)]
        pts += [(ext[k - i + n], y) for y in range(i + 1, k + 1)]
        paths.append(pts)
    return RaggedTiling(tuple(ext), k + 1, Paths.from_rows(paths), step_type, None)


def plan_boundary_step(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> StageState:
    """The plan of boundary_step: checks k <= budget - 1 and the growth bound."""
    stage = _stage_name(prev, "boundary-step", k)
    budget = prev.boundary_prefix_count or 0
    if k >= budget:
        raise MultiplicityViolation(
            stage, f"multiplicity {k} exceeds boundary budget (needs k <= {budget - 1})"
        )
    required = _next_bound(prev, "boundary-step", k)
    if d < required:
        raise GrowthViolation(stage, required, d)
    L, n = prev.L, prev.gap_prefix.size()
    f1, _ = min_height_rect(n, k, n + 1, table=table)
    f2, _ = min_height_rect(n, k, n + 2, table=table)
    h = lcm(k + 1, f1, f2)
    extended = L + k * prev.d1 + 1
    b, c = represent_two_coins(d - extended, L + 1, L + 2, False)
    blocks = {
        "f_narrow": f1,
        "f_widened": f2,
        "narrow_blocks": c,
        "widened_blocks": b,
        "extended_width": extended,
    }
    return replace(
        prev,
        tiling=None,
        L=d * h - 1,
        gap_prefix=prev.gap_prefix.with_entry(d, k),
        boundary_prefix_count=budget - k,
        endpoint_index=(),
        h=h,
        stage_trace=_trace(stage, L, d * h - 1, h, required, d, blocks),
    )


def boundary_step(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> StageState:
    """Extend a boundary stage by a new distance d with multiplicity k.

    Requires k <= boundary budget - 1 and
    d >= (L+1)(L+2) + (L + k*d1 + 1), computed from the previous stage.
    """
    plan = plan_boundary_step(prev, d, k, table)
    _buildable(plan, prev)
    L, d1, h = prev.L, prev.d1, plan.h
    n = prev.gap_prefix.size()
    _, wit1 = min_height_rect(n, k, n + 1, table=table)
    _, wit2 = min_height_rect(n, k, n + 2, table=table)
    step_type = _lifted_type(prev.gap_prefix, k)
    tiles = prev.tiling.tiles
    ends = dict(prev.endpoint_index)

    def column(base: RectangleTiling, points) -> RaggedTiling:
        return stack_to_height(lift_over_points(base, points, step_type), h)

    plain_cols = [column(wit1, tiles.row(i)) for i in range(len(tiles))]
    rect_narrow = as_rectangle(merge_ragged(plain_cols))  # width L+1

    widened_cols = list(plain_cols)
    i = ends[L - d1 + 1]
    widened_cols[i] = column(wit2, np.append(tiles.row(i), L + 1))
    rect_widened = as_rectangle(merge_ragged(widened_cols))  # width L+2

    ext_cols = list(plain_cols)
    for t in range(d1):
        i = ends[L - t]
        ext_cols[i] = stack_to_height(_extension_block(tiles.row(i), d1, k, step_type), h)
    rect_extended = as_rectangle(merge_ragged(ext_cols))  # width L + k*d1 + 1

    blocks = plan.stage_trace["blocks"]
    return _checked_output(
        [rect_narrow] * blocks["narrow_blocks"]
        + [rect_widened] * blocks["widened_blocks"]
        + [rect_extended],
        plan,
    )


# ---------------------------------------------------------------------------
# Homogeneous stages


def plan_homogeneous_base(prev: StageState) -> StageState:
    """The plan of homogeneous_base: prev's tiles of n+1 points, one of them
    extended to n+2; the index of that one is known only once built."""
    if prev.kind != "boundary":
        raise PreconditionError("previous stage must be a boundary stage")
    if (prev.boundary_prefix_count or 0) < 1:
        raise PreconditionError("boundary prefix count must be >= 1")
    n = prev.gap_prefix.size()
    tiles = (prev.L + 1) // (n + 1)
    return replace(
        prev,
        kind="homogeneous",
        tiling=None,
        L=prev.L + 1,
        boundary_prefix_count=None,
        endpoint_index=(),
        card_counts=((n + 1, tiles - 1), (n + 2, 1)),
        last_card=n + 2,
        stage_trace=_trace("homogeneous-base", prev.L, prev.L + 1, prev.h, None, None, {}),
    )


def homogeneous_base(prev: StageState) -> StageState:
    """Turn a boundary stage into a homogeneous tiling of [0, L+1].

    The tile ending at L - d1 + 1 (whose first gap is d1) is extended by the
    point L+1; the result is one sequence of size()+2 points among unchanged
    tiles, and the sequence ending at the last point is the extended one.
    """
    plan = plan_homogeneous_base(prev)
    _buildable(plan, prev)
    L, d1 = prev.L, prev.d1
    idx = dict(prev.endpoint_index)[L - d1 + 1]
    seq = prev.tiling.tiles[idx]
    if seq.gaps()[0] != d1:
        raise ConstructionError("anchor tile does not start with a d1 gap")
    tiles = prev.tiling.tiles.with_row(idx, seq.points + (L + 1,))
    gaps = prev.gap_prefix
    tiling = IntervalTiling(L + 2, tiles, TilingAnnotations(homogeneous_for=gaps))
    _require_ok(verify_homogeneous(tiling.tiles, L + 2, gaps), "homogeneous base tiling")
    trace = {**plan.stage_trace, "blocks": {"extended_sequence": idx}}
    return _built(replace(plan, stage_trace=trace), tiling)


def _without_last_point(prev: StageState) -> Counter:
    """prev's cardinality histogram once the last point leaves the sequence ending there.

    Sound because that sequence has more than n+1 points, so it stays
    homogeneous and keeps at least one full window.
    """
    last = prev.last_card or 0
    if last <= prev.gap_prefix.size() + 1:
        raise ConstructionError("last sequence too short for the remove-point step")
    cards = Counter(dict(prev.card_counts or ()))
    cards[last] -= 1
    cards[last - 1] += 1
    return +cards  # without cardinalities left with no sequence


def block_counter(
    card_counts: Mapping[int, int], n: int, k: int, f1: int, height: int, blocks: int
) -> Counter:
    """Cardinality histogram of `blocks` homogeneous-step blocks of the given height.

    card_counts is the histogram of the sequences the block lifts over. A
    sequence of n+1 points carries the f1-high minimal-height witness, whose
    (n+1)*f1 points lie on paths of n+k+1 points each; a sequence of m+1 > n+1
    points carries the (m+k+1)-high diagonal stripe tiling of width m+1.
    """
    out: Counter = Counter()
    for c, count in card_counts.items():
        if c - 1 == n:
            out[n + k + 1] += blocks * count * (height // f1) * ((n + 1) * f1 // (n + k + 1))
        else:
            sizes = diagonal_stripe_tiling(n, k, c - 1).paths.sizes().tolist()
            for size, paths in Counter(sizes).items():
                out[size] += blocks * count * (height // (c + k)) * paths
    return out


def _stripe_corner_card(n: int, k: int, m: int) -> int:
    """Points on the stripe path that ends at the top-right corner (m, m+k)."""
    paths = diagonal_stripe_tiling(n, k, m).paths
    xs, ys = paths.ends()
    # the corner has no successor inside the rectangle, so the path through it ends there
    return int(paths.sizes()[np.flatnonzero((xs == m) & (ys == m + k))[0]])


def plan_homogeneous_step(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> StageState:
    """The plan of homogeneous_step: checks d >= (L+1)^2 and every sequence
    of m+1 points for n <= m and (m = n or m < 2n)."""
    stage = _stage_name(prev, "homogeneous-step", k)
    L, n = prev.L, prev.gap_prefix.size()
    required = _next_bound(prev, "homogeneous-step")
    if d < required:
        raise GrowthViolation(stage, required, d)
    cards = dict(prev.card_counts or ())
    for c in sorted(cards):
        m = c - 1
        if m < n:
            raise CardinalityViolation(f"{stage}: sequence of {c} points is shorter than a tile")
        if m > n and m >= 2 * n:
            raise CardinalityViolation(
                f"{stage}: sequence of {c} points too long for stripes (needs {c - 1} < {2 * n})"
            )
    cards_removed = _without_last_point(prev)
    f1, _ = min_height_rect(n, k, n + 1, table=table)
    # a sequence of c > n+1 points carries a stripe of period m+k+1 = c+k
    h = lcm(f1, *[c + k for c in sorted(cards) if c - 1 > n])
    h_removed = lcm(f1, *[c + k for c in sorted(cards_removed) if c - 1 > n])
    b, c_cnt = represent_two_coins(d, L, L + 1, True)
    total_h = lcm(h, h_removed) if c_cnt > 0 else h
    counts = block_counter(cards, n, k, f1, total_h, b)
    if c_cnt > 0:
        counts.update(block_counter(cards_removed, n, k, f1, total_h, c_cnt))
    last_card = _stripe_corner_card(n, k, prev.last_card - 1)
    if last_card <= n + k + 1:
        raise ConstructionError("last sequence lost the long-sequence property")
    if max(counts) > max(cards) - 1 + 2 * k + 1:
        raise ConstructionError("a sequence exceeds the stripe length bound")
    blocks = {"h_full": h, "h_removed": h_removed, "full_blocks": b, "removed_blocks": c_cnt}
    return replace(
        prev,
        tiling=None,
        L=d * total_h - 1,
        gap_prefix=prev.gap_prefix.with_entry(d, k),
        endpoint_index=(),
        h=total_h,
        card_counts=tuple(sorted(counts.items())),
        last_card=last_card,
        stage_trace=_trace(stage, L, d * total_h - 1, total_h, required, d, blocks),
    )


def _lifted_blocks(
    prev: StageState, plan: StageState, k: int, base, window: int | None
) -> list[RectangleTiling]:
    """The column blocks of a homogeneous step or final stage, left to right.

    `removed_blocks` copies of one block over prev's sequences with the last
    point removed (width L), then `full_blocks` copies of one block over all
    of them (width L+1). The list repeats those two block objects, so flatten
    sorts each once and writes its copies straight into the output. In each
    block, a sequence of c points carries base(c) lifted over its points with
    the window given and stacked to the plan's height.
    """
    step_type = _lifted_type(prev.gap_prefix, k)
    base = cache(base)

    def block(seqs: Tiles) -> RectangleTiling:
        cols = [
            stack_to_height(lift_over_points(base(card), seqs.row(i), step_type, window), plan.h)
            for i, card in enumerate(seqs.sizes().tolist())
        ]
        return as_rectangle(merge_ragged(cols))

    blocks = plan.stage_trace["blocks"]
    c = blocks["removed_blocks"]
    tiles = prev.tiling.tiles
    full = block(tiles)
    removed = []
    if c > 0:
        idx = dict(prev.endpoint_index)[prev.L]
        removed = [block(tiles.with_row(idx, tiles[idx].points[:-1]))] * c
    return removed + [full] * blocks["full_blocks"]


def homogeneous_step(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> StageState:
    """Extend a homogeneous stage by a new distance d with multiplicity k.

    Requires d >= (L+1)^2 and every sequence of m+1 > n+1 points to satisfy
    m < 2n (which the multiplicity hypotheses guarantee along the pipeline).
    """
    plan = plan_homogeneous_step(prev, d, k, table)
    _buildable(plan, prev)
    n = prev.gap_prefix.size()
    _, wit1 = min_height_rect(n, k, n + 1, table=table)

    def base(card: int) -> RectangleTiling:
        # n+1 points: the minimal-height witness; longer: the diagonal stripes
        return wit1 if card - 1 == n else diagonal_stripe_tiling(n, k, card - 1)

    return _checked_output(_lifted_blocks(prev, plan, k, base, n + k), plan)


def _check_final(prev: StageState, d: int, k: int) -> tuple[str, int, Counter]:
    """The final stage's name, its bound on d and prev's histogram without
    the last point; checks every sequence cardinality within [n+1, n+k+1],
    d >= L(L+1) and that the last sequence can lose its last point."""
    stage = _stage_name(prev, "final", k)
    n = prev.gap_prefix.size()
    for c in sorted(dict(prev.card_counts or ())):
        if not (n + 1 <= c <= n + k + 1):
            raise CardinalityViolation(
                f"{stage}: sequence of {c} points outside [{n + 1}, {n + k + 1}]"
            )
    required = _next_bound(prev, "final")
    if d < required:
        raise GrowthViolation(stage, required, d)
    return stage, required, _without_last_point(prev)


def plan_final(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> StageState:
    """The plan of final_stage: _check_final, then the minimal heights."""
    stage, required, cards_removed = _check_final(prev, d, k)
    L, n = prev.L, prev.gap_prefix.size()
    cards = dict(prev.card_counts or ())
    fs = {c: min_height_rect(n, k, c, table=table)[0] for c in sorted({*cards, *cards_removed})}
    h = lcm(*[fs[c] for c in cards])
    h_removed = lcm(*[fs[c] for c in cards_removed])
    b, c_cnt = represent_two_coins(d, L, L + 1, True)
    total_h = lcm(h, h_removed) if c_cnt > 0 else h
    # every path of every witness has n+k+1 points
    tiles = d * total_h // (n + k + 1)
    blocks = {
        "heights": {str(c): f for c, f in fs.items()},
        "full_blocks": b,
        "removed_blocks": c_cnt,
    }
    return replace(
        prev,
        kind="final",
        tiling=None,
        L=d * total_h - 1,
        gap_prefix=prev.gap_prefix.with_entry(d, k),
        endpoint_index=(),
        h=total_h,
        card_counts=((n + k + 1, tiles),),
        last_card=n + k + 1,
        stage_trace=_trace(stage, L, d * total_h - 1, total_h, required, d, blocks),
    )


def _final_stage_impl(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> StageState:
    """The built final stage: its tiling, the gap set it was verified against
    (gap_prefix), and its trace."""
    plan = plan_final(prev, d, k, table)
    _buildable(plan, prev)
    n = prev.gap_prefix.size()

    def base(card: int) -> RectangleTiling:
        return min_height_rect(n, k, card, table=table)[1]

    return _checked_output(_lifted_blocks(prev, plan, k, base, None), plan)


def final_stage(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> IntervalTiling:
    """Consume the last distance: lift minimal-height rectangles over every
    sequence and assemble the tiling of the full gap set. Requires d >= L(L+1)
    and every sequence cardinality within [n+1, n+k+1].
    """
    return _final_stage_impl(prev, d, k, table).tiling


# ---------------------------------------------------------------------------
# Orchestration


@dataclass(frozen=True)
class ConstructResult:
    tiling: IntervalTiling
    gap_set: GapSet
    thresholds: ThresholdReport
    trace: tuple[dict, ...]


def _check_hypotheses(ks: Sequence[int], s: int, p: int) -> None:
    head = sum(ks[2:s]) + 1
    if head > ks[0]:
        raise MultiplicityViolation(
            "hypotheses",
            f"multiplicities 3..{s} sum to {head - 1}, leaving no boundary budget "
            f"(needs sum + 1 <= {ks[0]})",
        )
    if p >= 1:
        tail = sum(ks[s : s + p - 1]) + 1
        if tail > ks[s + p - 1]:
            raise MultiplicityViolation(
                "hypotheses",
                f"multiplicities {s + 1}..{s + p - 1} sum to {tail - 1}, exceeding the "
                f"final multiplicity budget (needs sum + 1 <= {ks[s + p - 1]})",
            )


def _schedule(s: int, p: int) -> list[tuple[str, int | None]]:
    """The stages after the boundary base under the split (s, p), each with the
    index of the distance it consumes (None for the homogeneous base)."""
    out: list[tuple[str, int | None]] = [("boundary-step", i) for i in range(2, s)]
    if p >= 1:
        out.append(("homogeneous-base", None))
        out += [("homogeneous-step", i) for i in range(s, s + p - 1)]
        out.append(("final", s + p - 1))
    return out


def _rows(trace: Sequence[dict]) -> list[ThresholdRow]:
    """One row for each stage that consumed a distance."""
    return [
        ThresholdRow(t["stage"], t["threshold_required"], t["d_used"])
        for t in trace
        if t.get("d_used") is not None
    ]


def construct(
    gap_set: GapSet, split: SplitSpec, table: HeightTable | None = None
) -> ConstructResult:
    """Run the full pipeline for the gap set under the given split.

    Chains the boundary base, boundary steps for distances 3..s, then (when
    p >= 1) the homogeneous base, homogeneous steps, and the final stage.
    With p = 0 the last boundary stage's tiling is returned directly, flagged
    "boundary-only" in the trace.
    """
    ds = gap_set.distances()
    ks = gap_set.multiplicities()
    s, p = split.s, split.p
    if s + p != len(ds):
        raise PreconditionError(
            f"split (s={s}, p={p}) does not cover {len(ds)} distinct distances"
        )
    _check_hypotheses(ks, s, p)
    # Looked up at call time, so a patched module global is the one run.
    stages = {
        "boundary-step": boundary_step,
        "homogeneous-step": homogeneous_step,
        "final": _final_stage_impl,
    }
    state = boundary_base(ds[0], ds[1], ks[0], ks[1], table)
    trace = [state.stage_trace]
    for kind, i in _schedule(s, p):
        state = homogeneous_base(state) if i is None else stages[kind](state, ds[i], ks[i], table)
        trace.append(state.stage_trace)
    if p == 0:
        trace.append({"stage": "result", "mode": "boundary-only"})
    # The stages verify against the gap set they rebuild; the result must be
    # certified for the one asked for.
    if state.gap_prefix != gap_set:
        raise VerificationFailed(
            f"the last stage verified its tiling for {state.gap_prefix}, not for the requested {gap_set}"
        )
    report = ThresholdReport(tuple(_rows(trace)))
    return ConstructResult(state.tiling, gap_set, report, tuple(trace))


def auto_split(gap_set: GapSet) -> list[SplitSpec]:
    """All (s, p) splits with s >= 2 and s + p = distinct distances that satisfy
    the multiplicity inequalities, ordered by s descending."""
    m = len(gap_set.entries)
    ks = gap_set.multiplicities()
    out = []
    for s in range(m, 1, -1):
        p = m - s
        try:
            _check_hypotheses(ks, s, p)
        except MultiplicityViolation:
            continue
        out.append(SplitSpec(s, p))
    if not out:
        raise NoFeasibleSplit(f"no feasible split for multiplicities {list(ks)}")
    return out


def thresholds(
    prefix: GapSet,
    split: SplitSpec | None = None,
    table: HeightTable | None = None,
) -> ThresholdReport:
    """Report each stage's required and achieved distance for a (possibly
    partial) gap set by folding the stage plans, without materializing the
    tilings; the final stage is checked, not planned. A prefix that covers
    the whole split is checked against the multiplicity hypotheses first, as
    construct checks it.

    When the prefix ends before the pipeline does, one extra row carries the
    requirement for the next distance (achieved None); a boundary-track
    requirement depends on the next multiplicity and is reported for k=1.
    Without a split the prefix runs the boundary track alone.
    """
    ds = prefix.distances()
    ks = prefix.multiplicities()
    j = len(ds)
    if j < 2:
        raise PreconditionError("prefix needs at least two distances")
    if split is not None and split.s + split.p < j:
        raise PreconditionError("prefix has more distances than the split covers")
    s, p = (split.s, split.p) if split is not None else (j + 1, 0)
    if s + p == j:
        _check_hypotheses(ks, s, p)
    plans = {"boundary-step": plan_boundary_step, "homogeneous-step": plan_homogeneous_step}
    state = plan_boundary_base(ds[0], ds[1], ks[0], ks[1], table)
    rows = _rows([state.stage_trace])
    for kind, i in _schedule(s, p):
        if i is not None and i >= j:
            stage = _stage_name(state, kind)
            if kind == "boundary-step":
                stage += " (k=1 assumed)"
            rows.append(ThresholdRow(stage, _next_bound(state, kind), None))
            break
        if kind == "final":
            # the last stage: only its build needs the minimal heights
            stage, required, _ = _check_final(state, ds[i], ks[i])
            rows.append(ThresholdRow(stage, required, ds[i]))
            break
        state = plan_homogeneous_base(state) if i is None else plans[kind](state, ds[i], ks[i], table)
        rows += _rows([state.stage_trace])
    return ThresholdReport(tuple(rows))
