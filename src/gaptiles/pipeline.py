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

Three stages lift rectangle witnesses over the previous stage's tiles or
sequences: a boundary step, a homogeneous step and the final stage. Each
names once its witness for c points (_final_witnesses, which the boundary
step shares with the final stage, or _stripe_witnesses), and one builder,
_block, makes every column block one lift (grid.lift_over_points): column x
of the witness over a sequence goes to the sequence's point x. The lift
does not check that the sequences partition the block; the stage's output
checks refuse a block where they do not. _lift reads the homogeneous
step's and final stage's heights, block counts, histogram and last
cardinality off the same witnesses.

One walk over the stage schedule (_walk) serves ``construct``, which builds
each stage, and ``thresholds``, which plans them alone, so a dry run reports
the bounds and raises the errors ``construct`` would. Of the final stage it
runs only the checks (_check_final), not the minimal-height searches only the
build needs. The stages take their minimal heights from the process-wide
height table (grid.default_height_table), persisted under $GAPTILES_CACHE.

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
from functools import cache, partial
from math import lcm
from typing import Callable, Sequence

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
    concat_columns,
    diagonal_stripe_tiling,
    flatten,
    lift_over_points,
    min_height_rect,
    residue_interleave,
    stack_to_height,
    stair_tiling,
)
from .grid import as_rectangle, dilate_x, merge_ragged  # noqa: F401  benchmarks/tracing.py patches them here
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
    block_spans,
    normalize_steps,
)
from .verify import (
    verify_boundary_prefix,
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)


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


def _block(
    seqs: Tiles, base, step_type: StepType, window: int | None, h: int, replaced: dict | None = None
) -> RectangleTiling:
    """One column block of a lifted stage, as wide as seqs' points: each
    sequence of c points, or the points `replaced` gives for its index in
    its place, carries base(c) stacked to height h (once for each c), its
    column x lifted to the sequence's point x, with the step type and window
    given. The block's paths are the sequences' in order. That the sequences
    partition the block's width is left to the stage's output checks."""
    stacked = cache(lambda c: stack_to_height(base(c), h))
    replaced = replaced or {}
    rows = (replaced.get(i, seqs.row(i)) for i in range(len(seqs)))
    return lift_over_points([(stacked(len(r)), r) for r in rows], step_type, window)


def _final_witnesses(n: int, k: int) -> Callable[[int], RectangleTiling]:
    """The final stage's witness for c points: the minimal-height rectangle of
    width c, every path of n+k+1 points."""
    return cache(lambda c: min_height_rect(n, k, c)[1])


def _endpoints(tiling: IntervalTiling, span: int) -> tuple[tuple[int, int], ...]:
    """Map each of the last `span` points to the index of the tile ending there."""
    tiles = tiling.tiles
    idx = tiles.ending_from(tiling.length - span)
    found = dict(zip(tiles.values[tiles.offsets[idx + 1] - 1].tolist(), idx.tolist()))
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
    Sequences of one size make a histogram of one entry; any others are
    counted a block of sequences at a time.
    """
    endpoint_index = _endpoints(tiling, plan.d1 if plan.kind == "boundary" else 1)
    if plan.card_counts is not None:
        tiles = tiling.tiles
        if tiles.size is not None:
            counts = ((tiles.size, len(tiles)),)
        else:
            per_card: Counter = Counter()
            for a, b in block_spans(len(tiles)):
                part = np.bincount(np.diff(tiles.offsets[a : b + 1]))
                cards = np.flatnonzero(part)
                per_card.update(dict(zip(cards.tolist(), part[cards].tolist())))
            counts = tuple(sorted(per_card.items()))
        last = tiles.row(endpoint_index[-1][1]).size
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


def _next_plan(
    prev: StageState, stage: str, required: int, d: int, k: int, h: int, blocks: dict, **fields
) -> StageState:
    """The plan of a stage after prev that consumes distance d with
    multiplicity k at height h; fields sets what else the stage changes."""
    return replace(
        prev,
        tiling=None,
        L=d * h - 1,
        gap_prefix=prev.gap_prefix.with_entry(d, k),
        endpoint_index=(),
        h=h,
        stage_trace=_trace(stage, prev.L, d * h - 1, h, required, d, blocks),
        **fields,
    )


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


# ---------------------------------------------------------------------------
# Boundary stages


def plan_boundary_base(d1: int, d2: int, k1: int, k2: int) -> StageState:
    """The plan of boundary_base: checks d2 >= d1*(k1+k2+1)^2."""
    stage = "stage-2 boundary-base"
    if min(d1, d2, k1, k2) < 1:
        raise PreconditionError("all arguments must be >= 1")
    required = d1 * (k1 + k2 + 1) ** 2
    if d2 < required:
        raise GrowthViolation(stage, required, d2)
    # d2 = a*d1 + t with both a and a+1 written over the coins (w, w+1)
    w = k1 + k2
    a, t = divmod(d2, d1)
    blocks = {
        "a": a,
        "t": t,
        "rep_a": list(represent_two_coins(a, w, w + 1, True)),
        "rep_a_plus_1": list(represent_two_coins(a + 1, w, w + 1, True)),
    }
    f, _ = min_height_rect(k1, k2, w)
    blocks["f"] = f
    h = lcm(k2 + 1, f)
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


def boundary_base(d1: int, d2: int, k1: int, k2: int) -> StageState:
    """First stage: tile [0, h*d2 - 1] for the gap set {d1^(k1), d2^(k2)} with
    boundary prefix count k1. Requires d2 >= d1*(k1+k2+1)^2.
    """
    plan = plan_boundary_base(d1, d2, k1, k2)
    _buildable(plan)
    blocks = plan.stage_trace["blocks"]
    b1, c1 = blocks["rep_a"]
    b2, c2 = blocks["rep_a_plus_1"]
    _, f_wit = min_height_rect(k1, k2, k1 + k2)
    first = stack_to_height(f_wit, plan.h)
    second = stack_to_height(stair_tiling(k1, k2), plan.h)

    # Narrow blocks left, wide (staircase) blocks right: the top-right corner
    # path of the rightmost staircase carries the boundary-prefix property.
    def column(narrow: int, wide: int):
        return concat_columns([first] * narrow + [second] * wide)

    return _checked_output([residue_interleave(column(c2, b2), column(c1, b1), d1, blocks["t"])], plan)


def plan_boundary_step(prev: StageState, d: int, k: int) -> StageState:
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
    base = _final_witnesses(n, k)
    f1, f2 = base(n + 1).height, base(n + 2).height
    h = lcm(base(n + k + 1).height, f1, f2)
    width = L + k * prev.d1 + 1
    b, c = represent_two_coins(d - width, L + 1, L + 2, False)
    blocks = dict(f_narrow=f1, f_widened=f2, narrow_blocks=c, widened_blocks=b, extended_width=width)
    return _next_plan(prev, stage, required, d, k, h, blocks, boundary_prefix_count=budget - k)


def boundary_step(prev: StageState, d: int, k: int) -> StageState:
    """Extend a boundary stage by a new distance d with multiplicity k.

    Requires k <= boundary budget - 1 and
    d >= (L+1)(L+2) + (L + k*d1 + 1), computed from the previous stage.

    Its blocks lift the final stage's witnesses over prev's tiles as they
    are (width L+1), with the tile ending at L-d1+1 widened by L+1 (width
    L+2), and with each tile ending in the last d1 points extended by k
    points spaced d1 (width L+k*d1+1). An extended tile carries the
    staircase, whose top-right path starts k points into the tile and so
    keeps all but k of its leading d1 gaps.
    """
    plan = plan_boundary_step(prev, d, k)
    _buildable(plan, prev)
    L, d1, n = prev.L, prev.d1, prev.gap_prefix.size()
    tiles, ends = prev.tiling.tiles, dict(prev.endpoint_index)
    block = partial(_block, tiles, _final_witnesses(n, k), _lifted_type(prev.gap_prefix, k), None, plan.h)
    i = ends[L - d1 + 1]
    widened = {i: np.append(tiles.row(i), L + 1)}
    added = {ends[L - t]: L - t + d1 * np.arange(1, k + 1) for t in range(d1)}
    extended = {j: np.append(tiles.row(j), points) for j, points in added.items()}
    blocks = plan.stage_trace["blocks"]
    c = blocks["narrow_blocks"]
    narrow = [block()] * c if c > 0 else []
    return _checked_output(narrow + [block(widened)] * blocks["widened_blocks"] + [block(extended)], plan)


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
    tiles = prev.tiling.tiles
    row = tiles.row(idx)
    if row[1] - row[0] != d1:
        raise ConstructionError("anchor tile does not start with a d1 gap")
    tiles = tiles.with_row(idx, np.append(row, L + 1))
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


def _lift(prev: StageState, d: int, base: Callable[[int], RectangleTiling]) -> tuple[dict, int, dict]:
    """What a homogeneous step or the final stage reads off its witnesses,
    base(c) being the rectangle it lifts over each sequence of c points.

    Returns the trace values, the stage's height and its plan's card_counts
    and last_card. The trace values are each witness height by cardinality,
    the lcms h_full over prev's sequences and h_removed over them without the
    last point, and the b full_blocks and c removed_blocks of d = b*(L+1) +
    c*L. The histogram counts each witness's path sizes once for each copy
    stacked in each block over each sequence; the stage's last point is the
    top-right corner of the witness over prev's last sequence.
    """
    cards = dict(prev.card_counts or ())
    removed = _without_last_point(prev)
    heights = {c: base(c).height for c in sorted({*cards, *removed})}
    h_full = lcm(*[heights[c] for c in cards])
    h_removed = lcm(*[heights[c] for c in removed])
    b, c_cnt = represent_two_coins(d, prev.L, prev.L + 1, True)
    h = lcm(h_full, h_removed) if c_cnt > 0 else h_full
    counts: Counter = Counter()
    for blocks, hist in ((b, cards), (c_cnt, removed)):
        for c, seqs in hist.items():
            sizes, paths = np.unique(base(c).paths.sizes(), return_counts=True)
            for size, n_paths in zip(sizes.tolist(), paths.tolist()):
                counts[size] += blocks * seqs * (h // heights[c]) * n_paths
    last = base(prev.last_card)
    xs, ys = last.paths.ends()
    last_card = int(last.paths.sizes()[(xs == last.width - 1) & (ys == last.height - 1)][0])
    trace = {
        "heights": {str(c): f for c, f in heights.items()},
        "h_full": h_full,
        "h_removed": h_removed,
        "full_blocks": b,
        "removed_blocks": c_cnt,
    }
    return trace, h, {"card_counts": tuple(sorted((+counts).items())), "last_card": last_card}


def _stripe_witnesses(n: int, k: int) -> Callable[[int], RectangleTiling]:
    """The homogeneous step's witness for c points: the final stage's for
    c = n+1, else the diagonal stripes of width c and height c+k."""
    first = _final_witnesses(n, k)
    return cache(lambda c: first(c) if c == n + 1 else diagonal_stripe_tiling(n, k, c - 1))


def plan_homogeneous_step(prev: StageState, d: int, k: int) -> StageState:
    """The plan of homogeneous_step: checks d >= (L+1)^2 and every sequence
    of m+1 points for n <= m and (m = n or m < 2n)."""
    stage = _stage_name(prev, "homogeneous-step", k)
    n = prev.gap_prefix.size()
    required = _next_bound(prev, "homogeneous-step")
    if d < required:
        raise GrowthViolation(stage, required, d)
    for c, _ in prev.card_counts or ():
        if c <= n:
            raise CardinalityViolation(f"{stage}: sequence of {c} points is shorter than a tile")
        if c > 2 * n:
            raise CardinalityViolation(
                f"{stage}: sequence of {c} points too long for stripes (needs {c - 1} < {2 * n})"
            )
    trace, h, lifted = _lift(prev, d, _stripe_witnesses(n, k))
    if lifted["last_card"] <= n + k + 1:
        raise ConstructionError("last sequence lost the long-sequence property")
    if lifted["card_counts"][-1][0] > prev.card_counts[-1][0] - 1 + 2 * k + 1:
        raise ConstructionError("a sequence exceeds the stripe length bound")
    blocks = {key: trace[key] for key in ("h_full", "h_removed", "full_blocks", "removed_blocks")}
    return _next_plan(prev, stage, required, d, k, h, blocks, **lifted)


def _lifted_blocks(
    prev: StageState, plan: StageState, k: int, base, window: int | None
) -> list[RectangleTiling]:
    """The column blocks of a homogeneous step or final stage, left to right:
    `removed_blocks` copies of one block over prev's sequences with the last
    point removed (width L), then `full_blocks` copies of one over all of
    them (width L+1), each lifting base, the witnesses the plan was read off
    (_lift). Repeating the two block objects lets flatten sort each once and
    write its copies straight into the output.
    """
    tiles, blocks = prev.tiling.tiles, plan.stage_trace["blocks"]
    block = partial(_block, tiles, base, _lifted_type(prev.gap_prefix, k), window, plan.h)
    last, c = dict(prev.endpoint_index)[prev.L], blocks["removed_blocks"]
    removed = [block({last: tiles.row(last)[:-1]})] * c if c > 0 else []
    return removed + [block()] * blocks["full_blocks"]


def homogeneous_step(prev: StageState, d: int, k: int) -> StageState:
    """Extend a homogeneous stage by a new distance d with multiplicity k.

    Requires d >= (L+1)^2 and every sequence of m+1 > n+1 points to satisfy
    m < 2n (which the multiplicity hypotheses guarantee along the pipeline).
    """
    plan = plan_homogeneous_step(prev, d, k)
    _buildable(plan, prev)
    n = prev.gap_prefix.size()
    return _checked_output(_lifted_blocks(prev, plan, k, _stripe_witnesses(n, k), n + k), plan)


def _check_final(prev: StageState, d: int, k: int) -> tuple[str, int]:
    """The final stage's name and its bound on d; checks every sequence
    cardinality within [n+1, n+k+1], d >= L(L+1) and that the last sequence
    can lose its last point."""
    stage = _stage_name(prev, "final", k)
    n = prev.gap_prefix.size()
    for c, _ in prev.card_counts or ():
        if not (n + 1 <= c <= n + k + 1):
            raise CardinalityViolation(
                f"{stage}: sequence of {c} points outside [{n + 1}, {n + k + 1}]"
            )
    required = _next_bound(prev, "final")
    if d < required:
        raise GrowthViolation(stage, required, d)
    _without_last_point(prev)
    return stage, required


def plan_final(prev: StageState, d: int, k: int) -> StageState:
    """The plan of final_stage: _check_final, then the minimal heights."""
    stage, required = _check_final(prev, d, k)
    trace, h, lifted = _lift(prev, d, _final_witnesses(prev.gap_prefix.size(), k))
    blocks = {key: trace[key] for key in ("heights", "full_blocks", "removed_blocks")}
    return _next_plan(prev, stage, required, d, k, h, blocks, kind="final", **lifted)


def final_stage(prev: StageState, d: int, k: int) -> StageState:
    """Consume the last distance: lift minimal-height rectangles over every
    sequence and assemble the tiling of the full gap set. Requires d >= L(L+1)
    and every sequence cardinality within [n+1, n+k+1].
    """
    plan = plan_final(prev, d, k)
    _buildable(plan, prev)
    base = _final_witnesses(prev.gap_prefix.size(), k)
    return _checked_output(_lifted_blocks(prev, plan, k, base, None), plan)


# ---------------------------------------------------------------------------
# Orchestration


@dataclass(frozen=True)
class ConstructResult:
    tiling: IntervalTiling
    gap_set: GapSet
    thresholds: ThresholdReport
    trace: tuple[dict, ...]


def check_split(gap_set: GapSet, split: SplitSpec) -> None:
    """PreconditionError unless the split's s + p distances are the gap set's."""
    if split.s + split.p != len(gap_set.entries):
        raise PreconditionError(
            f"split (s={split.s}, p={split.p}) does not cover {len(gap_set.entries)} distinct distances"
        )


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


def _walk(gaps: GapSet, s: int, p: int, build: bool) -> tuple[StageState, list[dict]]:
    """Build (construct) or plan (thresholds) the boundary base and each stage
    of _schedule(s, p) in turn; return the last state and the stage traces.

    A plan stops at the final stage after its checks alone (only the build
    needs the minimal heights), or at the first distance gaps does not have,
    with an entry carrying that distance's bound. A boundary step's bound
    depends on its multiplicity and is given for k=1. Stage functions are
    looked up at call time, so a patched module global is the one run.
    """
    ds, ks = gaps.distances(), gaps.multiplicities()
    state = (boundary_base if build else plan_boundary_base)(ds[0], ds[1], ks[0], ks[1])
    trace = [state.stage_trace]
    for kind, i in _schedule(s, p):
        if i is not None and i >= len(ds):
            stage = _stage_name(state, kind) + (" (k=1 assumed)" if kind == "boundary-step" else "")
            trace.append({"stage": stage, "threshold_required": _next_bound(state, kind), "d_used": None})
            break
        if kind == "homogeneous-base":
            state = (homogeneous_base if build else plan_homogeneous_base)(state)
        elif kind == "boundary-step":
            state = (boundary_step if build else plan_boundary_step)(state, ds[i], ks[i])
        elif kind == "homogeneous-step":
            state = (homogeneous_step if build else plan_homogeneous_step)(state, ds[i], ks[i])
        elif build:
            state = final_stage(state, ds[i], ks[i])
        else:
            stage, required = _check_final(state, ds[i], ks[i])
            trace.append({"stage": stage, "threshold_required": required, "d_used": ds[i]})
            break
        trace.append(state.stage_trace)
    return state, trace


def _report(trace: Sequence[dict]) -> ThresholdReport:
    """One row for each stage with a bound on the distance it consumes."""
    return ThresholdReport(
        tuple(
            ThresholdRow(t["stage"], t["threshold_required"], t["d_used"])
            for t in trace
            if t.get("threshold_required") is not None
        )
    )


def construct(gap_set: GapSet, split: SplitSpec) -> ConstructResult:
    """Run the full pipeline for the gap set under the given split.

    Chains the boundary base, boundary steps for distances 3..s, then (when
    p >= 1) the homogeneous base, homogeneous steps, and the final stage.
    With p = 0 the last boundary stage's tiling is returned directly, flagged
    "boundary-only" in the trace.
    """
    check_split(gap_set, split)
    s, p = split.s, split.p
    _check_hypotheses(gap_set.multiplicities(), s, p)
    state, trace = _walk(gap_set, s, p, build=True)
    if p == 0:
        trace.append({"stage": "result", "mode": "boundary-only"})
    # The stages verify against the gap set they rebuild; the result must be
    # certified for the one asked for.
    if state.gap_prefix != gap_set:
        raise VerificationFailed(
            f"the last stage verified its tiling for {state.gap_prefix}, not for the requested {gap_set}"
        )
    return ConstructResult(state.tiling, gap_set, _report(trace), tuple(trace))


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


def thresholds(prefix: GapSet, split: SplitSpec | None = None) -> ThresholdReport:
    """Report each stage's required and achieved distance for a (possibly
    partial) gap set by walking the stage plans, without materializing the
    tilings; the final stage is checked, not planned. A prefix that covers
    the whole split is checked against the multiplicity hypotheses first, as
    construct checks it.

    When the prefix ends before the pipeline does, one extra row carries the
    requirement for the next distance (achieved None); a boundary-track
    requirement depends on the next multiplicity and is reported for k=1.
    Without a split the prefix runs the boundary track alone.
    """
    j = len(prefix.entries)
    if j < 2:
        raise PreconditionError("prefix needs at least two distances")
    if split is not None and split.s + split.p < j:
        raise PreconditionError("prefix has more distances than the split covers")
    s, p = (split.s, split.p) if split is not None else (j + 1, 0)
    if s + p == j:
        _check_hypotheses(prefix.multiplicities(), s, p)
    return _report(_walk(prefix, s, p, build=False)[1])
