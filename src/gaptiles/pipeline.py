"""The staged construction pipeline.

Two stage families feed a final assembly:

* boundary stages build interval tilings in which every tile ending in one of
  the last d1 points starts with a prescribed count of gaps equal to d1 (the
  boundary-prefix property); the count shrinks as stages consume it.
* homogeneous stages build tilings by sequences in which every window of
  size()+1 consecutive points is a tile for the stage's gap set.

Every stage verifies its output once before returning, so a constructed
tiling is never trusted without verification. A stage that assembles a
rectangle flattens it with a bounds check and verifies the flattened tiling;
the rectangle itself is checked only to say where a failed output went wrong.
Thresholds are operational: each stage's lower bound on the next distance is
computed from the actual dimensions (L, h) of the preceding stage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
    stages, the last point for homogeneous stages).
    """

    kind: str  # "boundary" | "homogeneous"
    tiling: IntervalTiling
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


def _checked_output(
    rect: RectangleTiling,
    d: int,
    stage: str,
    gaps: GapSet,
    homogeneous: bool = False,
    boundary: tuple[int, int] | None = None,
) -> IntervalTiling:
    """Flatten a stage's rectangle by width d and verify the tiling once.

    The check is verify_homogeneous for gaps when `homogeneous` (the tiling
    is then annotated homogeneous for gaps), else verify_interval_tiling;
    `boundary` = (d1, count) adds verify_boundary_prefix and the count's
    annotation. Flatten is bounds-checked and maps [0, d) x [0, h)
    one-to-one onto [0, d*h), so a clean output shows the rectangle is tiled
    exactly too. Pass the rectangle as a temporary: this call then holds its
    only reference and frees it before the check. Only after a failure is
    the rectangle rebuilt from the tiling and verified, to locate the fault.
    Any failure raises VerificationFailed.
    """
    height, step_type, window = rect.height, rect.step_type, rect.window
    try:
        tiling = flatten(rect, d)
    except PreconditionError as exc:
        raise VerificationFailed(f"{stage} rectangle does not flatten: {exc}") from None
    del rect
    if homogeneous:
        tiling = tiling.with_annotations(homogeneous_for=gaps)
        report = verify_homogeneous(tiling.tiles, tiling.length, gaps)
    else:
        report = verify_interval_tiling(tiling, gaps)
    if boundary is not None:
        d1, count = boundary
        tiling = tiling.with_annotations(boundary_prefix_count=count)
        if report.ok:
            report = verify_boundary_prefix(tiling, d1, count)
    if not report.ok:
        ys, xs = np.divmod(tiling.tiles.values, d)
        rebuilt = RectangleTiling(d, height, Paths(tiling.tiles.offsets, xs, ys), step_type, window)
        output = f"{stage} output failed verification: {report.violations[0]}; its rectangle"
        _require_ok(verify_rectangle_tiling(rebuilt), output)
        _require_ok(report, f"{stage} output")
    return tiling


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


def boundary_base(
    d1: int, d2: int, k1: int, k2: int, table: HeightTable | None = None
) -> StageState:
    """First stage: tile [0, h*d2 - 1] for the gap set {d1^(k1), d2^(k2)} with
    boundary prefix count k1. Requires d2 >= d1*(k1+k2+1)^2.
    """
    stage = "stage-2 boundary-base"
    if min(d1, d2, k1, k2) < 1:
        raise PreconditionError("all arguments must be >= 1")
    required = d1 * (k1 + k2 + 1) ** 2
    if d2 < required:
        raise GrowthViolation(stage, required, d2)
    w = k1 + k2
    dec = base_decomposition(d1, d2, k1, k2)
    b1, c1 = dec.rep_a
    b2, c2 = dec.rep_a_plus_1
    f, f_wit = min_height_rect(k1, k2, w, table=table)
    h = lcm(k2 + 1, f)
    first = stack_to_height(f_wit, h)
    second = stack_to_height(stair_tiling(k1, k2), h)

    # Narrow blocks left, wide (staircase) blocks right: the top-right corner
    # path of the rightmost staircase carries the boundary-prefix property.
    def column(narrow: int, wide: int):
        return dilate_x(concat_columns([first] * narrow + [second] * wide), d1, 0)

    gap_set = GapSet.from_pairs([(d1, k1), (d2, k2)])
    tiling = _checked_output(
        residue_interleave(column(c2, b2), column(c1, b1), d1, dec.t),
        d2,
        stage,
        gap_set,
        boundary=(d1, k1),
    )
    trace = {
        "stage": stage,
        "L_in": None,
        "L_out": h * d2 - 1,
        "h": h,
        "threshold_required": required,
        "d_used": d2,
        "blocks": {
            "a": dec.a,
            "t": dec.t,
            "rep_a": list(dec.rep_a),
            "rep_a_plus_1": list(dec.rep_a_plus_1),
            "f": f,
        },
    }
    return StageState(
        kind="boundary",
        tiling=tiling,
        L=h * d2 - 1,
        gap_prefix=gap_set,
        d1=d1,
        boundary_prefix_count=k1,
        endpoint_index=_endpoints(tiling, d1),
        h=h,
        card_counts=None,
        last_card=None,
        stage_trace=trace,
    )


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


def boundary_step(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> StageState:
    """Extend a boundary stage by a new distance d with multiplicity k.

    Requires k <= boundary budget - 1 and
    d >= (L+1)(L+2) + (L + k*d1 + 1), computed from the previous stage.
    """
    stage = f"stage-{len(prev.gap_prefix.entries) + 1} boundary-step"
    if prev.kind != "boundary":
        raise PreconditionError("previous stage must be a boundary stage")
    if k < 1:
        raise PreconditionError("multiplicity must be >= 1")
    budget = prev.boundary_prefix_count or 0
    if k >= budget:
        raise MultiplicityViolation(
            stage, f"multiplicity {k} exceeds boundary budget (needs k <= {budget - 1})"
        )
    L, d1 = prev.L, prev.d1
    required = (L + 1) * (L + 2) + (L + k * d1 + 1)
    if d < required:
        raise GrowthViolation(stage, required, d)
    n = prev.gap_prefix.size()
    f1, wit1 = min_height_rect(n, k, n + 1, table=table)
    f2, wit2 = min_height_rect(n, k, n + 2, table=table)
    h = lcm(k + 1, f1, f2)
    step_type = _lifted_type(prev.gap_prefix, k)
    tiles = prev.tiling.tiles
    ends = dict(prev.endpoint_index)

    plain_cols = [
        stack_to_height(lift_over_points(wit1, tiles.row(i), step_type), h)
        for i in range(len(tiles))
    ]
    rect_narrow = as_rectangle(merge_ragged(plain_cols))  # width L+1

    widened_idx = ends[L - d1 + 1]
    widened_col = stack_to_height(
        lift_over_points(wit2, np.append(tiles.row(widened_idx), L + 1), step_type), h
    )
    rect_widened = as_rectangle(
        merge_ragged(
            [widened_col if i == widened_idx else plain_cols[i] for i in range(len(tiles))]
        )
    )  # width L+2

    ext_cols = {
        ends[L - t]: stack_to_height(
            _extension_block(tiles.row(ends[L - t]), d1, k, step_type), h
        )
        for t in range(d1)
    }
    rect_extended = as_rectangle(
        merge_ragged([ext_cols.get(i, plain_cols[i]) for i in range(len(tiles))])
    )  # width L + k*d1 + 1

    b, c = represent_two_coins(d - (L + k * d1 + 1), L + 1, L + 2, False)
    new_gaps = prev.gap_prefix.with_entry(d, k)
    tiling = _checked_output(
        concat_columns([rect_narrow] * c + [rect_widened] * b + [rect_extended]),
        d,
        stage,
        new_gaps,
        boundary=(d1, budget - k),
    )
    trace = {
        "stage": stage,
        "L_in": L,
        "L_out": d * h - 1,
        "h": h,
        "threshold_required": required,
        "d_used": d,
        "blocks": {
            "f_narrow": f1,
            "f_widened": f2,
            "narrow_blocks": c,
            "widened_blocks": b,
            "extended_width": L + k * d1 + 1,
        },
    }
    return StageState(
        kind="boundary",
        tiling=tiling,
        L=d * h - 1,
        gap_prefix=new_gaps,
        d1=d1,
        boundary_prefix_count=budget - k,
        endpoint_index=_endpoints(tiling, d1),
        h=h,
        card_counts=None,
        last_card=None,
        stage_trace=trace,
    )


# ---------------------------------------------------------------------------
# Homogeneous stages


def _card_counter(tiles: Tiles) -> tuple[tuple[int, int], ...]:
    cards, counts = np.unique(tiles.sizes(), return_counts=True)
    return tuple(zip(cards.tolist(), counts.tolist()))


def homogeneous_base(prev: StageState) -> StageState:
    """Turn a boundary stage into a homogeneous tiling of [0, L+1].

    The tile ending at L - d1 + 1 (whose first gap is d1) is extended by the
    point L+1; the result is one sequence of size()+2 points among unchanged
    tiles, and the sequence ending at the last point is the extended one.
    """
    if prev.kind != "boundary":
        raise PreconditionError("previous stage must be a boundary stage")
    if (prev.boundary_prefix_count or 0) < 1:
        raise PreconditionError("boundary prefix count must be >= 1")
    L, d1 = prev.L, prev.d1
    ends = dict(prev.endpoint_index)
    idx = ends[L - d1 + 1]
    seq = prev.tiling.tiles[idx]
    if seq.gaps()[0] != d1:
        raise ConstructionError("anchor tile does not start with a d1 gap")
    tiles = prev.tiling.tiles.with_row(idx, seq.points + (L + 1,))
    gaps = prev.gap_prefix
    tiling = IntervalTiling(L + 2, tiles, TilingAnnotations(homogeneous_for=gaps))
    _require_ok(verify_homogeneous(tiling.tiles, L + 2, gaps), "homogeneous base tiling")
    n = gaps.size()
    trace = {
        "stage": "homogeneous-base",
        "L_in": L,
        "L_out": L + 1,
        "h": prev.h,
        "threshold_required": None,
        "d_used": None,
        "blocks": {"extended_sequence": idx},
    }
    return StageState(
        kind="homogeneous",
        tiling=tiling,
        L=L + 1,
        gap_prefix=gaps,
        d1=d1,
        boundary_prefix_count=None,
        endpoint_index=((L + 1, idx),),
        h=prev.h,
        card_counts=_card_counter(tiles),
        last_card=n + 2,
        stage_trace=trace,
    )


def _remove_last_point(tiles: Tiles, ends: Mapping[int, int], L: int, n: int) -> Tiles:
    """Drop the interval's last point from the sequence ending there.

    Sound because that sequence has more than n+1 points, so it stays
    homogeneous and keeps at least one full window.
    """
    idx = ends[L]
    seq = tiles[idx]
    if len(seq.points) <= n + 1:
        raise ConstructionError("last sequence too short for the remove-point step")
    return tiles.with_row(idx, seq.points[:-1])


def _stripe_bases(
    n: int, k: int, cards: Sequence[int], table: HeightTable | None
) -> dict[int, tuple[int, object]]:
    """Per-cardinality column bases: (vertical period, base tiling).

    Cardinality n+1 sequences use the minimal-height rectangle witness; longer
    sequences use the diagonal stripe tiling of their own width.
    """
    f1, wit1 = min_height_rect(n, k, n + 1, table=table)
    bases: dict[int, tuple[int, object]] = {}
    for c in sorted(set(cards)):
        m = c - 1
        if m == n:
            bases[c] = (f1, wit1)
        else:
            bases[c] = (m + k + 1, diagonal_stripe_tiling(n, k, m))
    return bases


def _assemble(build_block, tiles: Tiles, tiles_removed: Tiles, b: int, c_cnt: int) -> RectangleTiling:
    """c_cnt blocks over the sequences with the last point removed (width L),
    then b blocks over all sequences (width L+1), left to right."""
    block_full = build_block(tiles)
    removed = [build_block(tiles_removed)] * c_cnt if c_cnt > 0 else []
    return concat_columns(removed + [block_full] * b)


def homogeneous_step(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> StageState:
    """Extend a homogeneous stage by a new distance d with multiplicity k.

    Requires d >= (L+1)^2 and every sequence of m+1 > n+1 points to satisfy
    m < 2n (which the multiplicity hypotheses guarantee along the pipeline).
    """
    stage = f"stage-{len(prev.gap_prefix.entries) + 1} homogeneous-step"
    if prev.kind != "homogeneous":
        raise PreconditionError("previous stage must be a homogeneous stage")
    if k < 1:
        raise PreconditionError("multiplicity must be >= 1")
    L = prev.L
    n = prev.gap_prefix.size()
    required = (L + 1) ** 2
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
    f1, _ = min_height_rect(n, k, n + 1, table=table)
    tiles = prev.tiling.tiles
    ends = dict(prev.endpoint_index)
    tiles_removed = _remove_last_point(tiles, ends, L, n)

    all_cards = tiles.sizes().tolist() + tiles_removed.sizes().tolist()
    bases = _stripe_bases(n, k, all_cards, table)
    h = lcm(f1, *[c - 1 + k + 1 for c in sorted(cards) if c - 1 > n])
    cards_removed = set(tiles_removed.sizes().tolist())
    h_removed = lcm(f1, *[c - 1 + k + 1 for c in sorted(cards_removed) if c - 1 > n])
    b, c_cnt = represent_two_coins(d, L, L + 1, True)
    total_h = lcm(h, h_removed) if c_cnt > 0 else h

    step_type = _lifted_type(prev.gap_prefix, k)
    window = n + k

    def build_block(seqs: Tiles):
        cols = []
        for i, card in enumerate(seqs.sizes().tolist()):
            base = bases[card][1]
            cols.append(
                stack_to_height(lift_over_points(base, seqs.row(i), step_type, window), total_h)
            )
        return as_rectangle(merge_ragged(cols))

    new_gaps = prev.gap_prefix.with_entry(d, k)
    tiling = _checked_output(
        _assemble(build_block, tiles, tiles_removed, b, c_cnt), d, stage, new_gaps, homogeneous=True
    )
    n_new = new_gaps.size()
    new_L = d * total_h - 1
    sizes = tiling.tiles.sizes()
    last_idx = int(np.flatnonzero(tiling.tiles.ends() == new_L)[0])
    last_card = int(sizes[last_idx])
    if last_card <= n_new + 1:
        raise ConstructionError("last sequence lost the long-sequence property")
    max_card = int(sizes.max())
    if max_card > max(cards) - 1 + 2 * k + 1:
        raise ConstructionError("a sequence exceeds the stripe length bound")
    trace = {
        "stage": stage,
        "L_in": L,
        "L_out": new_L,
        "h": total_h,
        "threshold_required": required,
        "d_used": d,
        "blocks": {
            "h_full": h,
            "h_removed": h_removed,
            "full_blocks": b,
            "removed_blocks": c_cnt,
        },
    }
    return StageState(
        kind="homogeneous",
        tiling=tiling,
        L=new_L,
        gap_prefix=new_gaps,
        d1=prev.d1,
        boundary_prefix_count=None,
        endpoint_index=((new_L, last_idx),),
        h=total_h,
        card_counts=_card_counter(tiling.tiles),
        last_card=last_card,
        stage_trace=trace,
    )


def _final_stage_impl(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> tuple[IntervalTiling, GapSet, dict]:
    """The final stage's tiling, the gap set it was verified against, and its trace."""
    stage = f"stage-{len(prev.gap_prefix.entries) + 1} final"
    if prev.kind != "homogeneous":
        raise PreconditionError("previous stage must be a homogeneous stage")
    if k < 1:
        raise PreconditionError("multiplicity must be >= 1")
    L = prev.L
    n = prev.gap_prefix.size()
    cards = dict(prev.card_counts or ())
    for c in sorted(cards):
        if not (n + 1 <= c <= n + k + 1):
            raise CardinalityViolation(
                f"{stage}: sequence of {c} points outside [{n + 1}, {n + k + 1}]"
            )
    required = L * (L + 1)
    if d < required:
        raise GrowthViolation(stage, required, d)
    tiles = prev.tiling.tiles
    ends = dict(prev.endpoint_index)
    tiles_removed = _remove_last_point(tiles, ends, L, n)
    all_cards = sorted(set(tiles.sizes().tolist()) | set(tiles_removed.sizes().tolist()))
    fs = {c: min_height_rect(n, k, c, table=table) for c in all_cards}
    h = lcm(*[fs[c][0] for c in sorted(cards)])
    cards_removed = set(tiles_removed.sizes().tolist())
    h_removed = lcm(*[fs[c][0] for c in sorted(cards_removed)])
    b, c_cnt = represent_two_coins(d, L, L + 1, True)
    total_h = lcm(h, h_removed) if c_cnt > 0 else h
    step_type = _lifted_type(prev.gap_prefix, k)

    def build_block(seqs: Tiles):
        cols = [
            stack_to_height(lift_over_points(fs[card][1], seqs.row(i), step_type), total_h)
            for i, card in enumerate(seqs.sizes().tolist())
        ]
        return as_rectangle(merge_ragged(cols))

    full_gaps = prev.gap_prefix.with_entry(d, k)
    tiling = _checked_output(
        _assemble(build_block, tiles, tiles_removed, b, c_cnt), d, stage, full_gaps
    )
    trace = {
        "stage": stage,
        "L_in": L,
        "L_out": d * total_h - 1,
        "h": total_h,
        "threshold_required": required,
        "d_used": d,
        "blocks": {
            "heights": {str(c): fs[c][0] for c in all_cards},
            "full_blocks": b,
            "removed_blocks": c_cnt,
        },
    }
    return tiling, full_gaps, trace


def final_stage(
    prev: StageState, d: int, k: int, table: HeightTable | None = None
) -> IntervalTiling:
    """Consume the last distance: lift minimal-height rectangles over every
    sequence and assemble the tiling of the full gap set. Requires d >= L(L+1)
    and every sequence cardinality within [n+1, n+k+1].
    """
    return _final_stage_impl(prev, d, k, table)[0]


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
    for a, b in zip(ds, ds[1:]):
        if b <= a:
            raise ConstructionError("distances must grow monotonically")

    trace: list[dict] = []
    rows: list[ThresholdRow] = []
    state = boundary_base(ds[0], ds[1], ks[0], ks[1], table)
    trace.append(state.stage_trace)
    rows.append(ThresholdRow(state.stage_trace["stage"], state.stage_trace["threshold_required"], ds[1]))
    for i in range(2, s):
        state = boundary_step(state, ds[i], ks[i], table)
        trace.append(state.stage_trace)
        rows.append(
            ThresholdRow(state.stage_trace["stage"], state.stage_trace["threshold_required"], ds[i])
        )
    if p == 0:
        trace.append({"stage": "result", "mode": "boundary-only"})
        tiling, verified_for = state.tiling, state.gap_prefix
    else:
        state = homogeneous_base(state)
        trace.append(state.stage_trace)
        for j in range(1, p):
            state = homogeneous_step(state, ds[s + j - 1], ks[s + j - 1], table)
            trace.append(state.stage_trace)
            rows.append(
                ThresholdRow(
                    state.stage_trace["stage"], state.stage_trace["threshold_required"], ds[s + j - 1]
                )
            )
        tiling, verified_for, final_trace = _final_stage_impl(
            state, ds[s + p - 1], ks[s + p - 1], table
        )
        trace.append(final_trace)
        rows.append(
            ThresholdRow(final_trace["stage"], final_trace["threshold_required"], ds[s + p - 1])
        )
    # The stages verify against the gap set they rebuild; the result must be
    # certified for the one asked for.
    if verified_for != gap_set:
        raise VerificationFailed(
            f"the last stage verified its tiling for {verified_for}, not for the requested {gap_set}"
        )
    return ConstructResult(tiling, gap_set, ThresholdReport(tuple(rows)), tuple(trace))


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


# ---------------------------------------------------------------------------
# Structural dry-run (thresholds without materializing)


@dataclass
class _Summary:
    L: int
    n: int
    bpc: int
    cards: Counter | None = None
    last_card: int | None = None


def _stripe_card_counter(n: int, k: int, m: int) -> Counter:
    return Counter(diagonal_stripe_tiling(n, k, m).paths.sizes().tolist())


def _stripe_corner_card(n: int, k: int, m: int) -> int:
    paths = diagonal_stripe_tiling(n, k, m).paths
    xs, ys = paths.ends()
    hit = np.flatnonzero((xs == m) & (ys == m + k))
    if not hit.size:
        raise ConstructionError("no stripe path ends at the top-right corner")
    return int(paths.sizes()[hit[0]])


def thresholds(
    prefix: GapSet,
    split: SplitSpec | None = None,
    table: HeightTable | None = None,
) -> ThresholdReport:
    """Report each stage's required and achieved distance for a (possibly
    partial) gap set, without materializing the tilings.

    When the prefix ends before the pipeline does, one extra row carries the
    requirement for the next distance (achieved None); a boundary-track
    requirement depends on the next multiplicity and is reported for k=1.
    """
    ds = prefix.distances()
    ks = prefix.multiplicities()
    j = len(ds)
    if j < 2:
        raise PreconditionError("prefix needs at least two distances")
    if split is not None and split.s + split.p < j:
        raise PreconditionError("prefix has more distances than the split covers")
    rows: list[ThresholdRow] = []

    d1, k1, k2 = ds[0], ks[0], ks[1]
    req = d1 * (k1 + k2 + 1) ** 2
    rows.append(ThresholdRow("stage-2 boundary-base", req, ds[1]))
    if ds[1] < req:
        raise GrowthViolation("stage-2 boundary-base", req, ds[1])
    f, _ = min_height_rect(k1, k2, k1 + k2, table=table)
    h = lcm(k2 + 1, f)
    state = _Summary(L=ds[1] * h - 1, n=k1 + k2, bpc=k1)

    s = split.s if split is not None else j
    p = split.p if split is not None else 0
    open_ended = split is None

    i = 2
    while i < s:
        stage = f"stage-{i + 1} boundary-step"
        if i >= j:
            req = (state.L + 1) * (state.L + 2) + (state.L + 1 * d1 + 1)
            rows.append(ThresholdRow(f"{stage} (k=1 assumed)", req, None))
            return ThresholdReport(tuple(rows))
        k = ks[i]
        if k >= state.bpc:
            raise MultiplicityViolation(
                stage, f"multiplicity {k} exceeds boundary budget (needs k <= {state.bpc - 1})"
            )
        req = (state.L + 1) * (state.L + 2) + (state.L + k * d1 + 1)
        rows.append(ThresholdRow(stage, req, ds[i]))
        if ds[i] < req:
            raise GrowthViolation(stage, req, ds[i])
        f1, _ = min_height_rect(state.n, k, state.n + 1, table=table)
        f2, _ = min_height_rect(state.n, k, state.n + 2, table=table)
        h = lcm(k + 1, f1, f2)
        state = _Summary(L=ds[i] * h - 1, n=state.n + k, bpc=state.bpc - k)
        i += 1
    if open_ended or p == 0:
        if open_ended:
            req = (state.L + 1) * (state.L + 2) + (state.L + 1 * d1 + 1)
            rows.append(
                ThresholdRow(f"stage-{j + 1} boundary-step (k=1 assumed)", req, None)
            )
        return ThresholdReport(tuple(rows))

    # homogeneous base: consumes no distance
    if state.bpc < 1:
        raise MultiplicityViolation("homogeneous-base", "boundary budget exhausted")
    n = state.n
    tile_count = (state.L + 1) // (n + 1)
    state.cards = Counter({n + 1: tile_count - 1, n + 2: 1})
    state.last_card = n + 2
    state.L += 1

    for step in range(1, p):
        di = s + step - 1
        stage = f"stage-{s + step} homogeneous-step"
        req = (state.L + 1) ** 2
        if di >= j:
            rows.append(ThresholdRow(stage, req, None))
            return ThresholdReport(tuple(rows))
        k = ks[di]
        rows.append(ThresholdRow(stage, req, ds[di]))
        if ds[di] < req:
            raise GrowthViolation(stage, req, ds[di])
        cards = state.cards
        assert cards is not None and state.last_card is not None
        for c in sorted(cards):
            m = c - 1
            if m > n and m >= 2 * n:
                raise CardinalityViolation(
                    f"{stage}: sequence of {c} points too long for stripes"
                )
        f1, _ = min_height_rect(n, k, n + 1, table=table)
        h = lcm(f1, *[c - 1 + k + 1 for c in sorted(cards) if c - 1 > n])
        cards_removed = Counter(cards)
        cards_removed[state.last_card] -= 1
        if cards_removed[state.last_card] == 0:
            del cards_removed[state.last_card]
        cards_removed[state.last_card - 1] += 1
        h_removed = lcm(f1, *[c - 1 + k + 1 for c in sorted(cards_removed) if c - 1 > n])
        b, c_cnt = represent_two_coins(ds[di], state.L, state.L + 1, True)
        total_h = lcm(h, h_removed) if c_cnt > 0 else h

        def block_counter(card_counts: Counter) -> Counter:
            out: Counter = Counter()
            for c, cnt in sorted(card_counts.items()):
                m = c - 1
                if m == n:
                    paths = (n + 1) * f1 // (n + k + 1)
                    out[n + k + 1] += cnt * (total_h // f1) * paths
                else:
                    per = _stripe_card_counter(n, k, m)
                    copies = total_h // (m + k + 1)
                    for length, pcount in per.items():
                        out[length] += cnt * copies * pcount
            return out

        new_cards: Counter = Counter()
        full = block_counter(cards)
        for length, cnt in full.items():
            new_cards[length] += b * cnt
        if c_cnt > 0:
            removed = block_counter(cards_removed)
            for length, cnt in removed.items():
                new_cards[length] += c_cnt * cnt
        state.last_card = _stripe_corner_card(n, k, state.last_card - 1)
        state.cards = new_cards
        state.L = ds[di] * total_h - 1
        n += k

    stage = f"stage-{s + p} final"
    req = state.L * (state.L + 1)
    if s + p - 1 >= j:
        rows.append(ThresholdRow(stage, req, None))
        return ThresholdReport(tuple(rows))
    k = ks[s + p - 1]
    cards = state.cards
    assert cards is not None
    for c in sorted(cards):
        if not (n + 1 <= c <= n + k + 1):
            raise CardinalityViolation(
                f"{stage}: sequence of {c} points outside [{n + 1}, {n + k + 1}]"
            )
    rows.append(ThresholdRow(stage, req, ds[s + p - 1]))
    if ds[s + p - 1] < req:
        raise GrowthViolation(stage, req, ds[s + p - 1])
    return ThresholdReport(tuple(rows))
