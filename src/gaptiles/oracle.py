"""Brute-force exact-cover search over intervals and lattice rectangles.

The branching rule is leftmost-point placement: the least uncovered point (in
ascending order for intervals, row-major order for rectangles) must be the
first point of the next placed tile or path. Monotonicity makes this sound,
so a fully exhausted search is a proof that no tiling of that size exists.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Sequence

from .errors import ConstructionError, SearchExhausted
from .types import (
    GapSet,
    IntervalTiling,
    LatticePath,
    RectangleTiling,
    StepType,
    Tile,
    expand_steps,
    normalize_steps,
)
from .verify import verify_interval_tiling, verify_rectangle_tiling


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NO_SOLUTION = "exhausted-no-solution"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchConfig:
    """Budgets of one search. ``max_nodes`` bounds the DFS states one
    solve_interval or solve_rectangle call enters; min_interval gives the
    same bound to its frontier sweep, which counts settled states, and to the
    search at the length the sweep finds."""

    max_nodes: int = 10_000_000
    max_solutions: int = 1
    parallel_width: int = 0

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_solutions < 1 or self.parallel_width < 0:
            raise ValueError("budgets must be positive and parallel_width >= 0")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search. ``nodes_explored`` counts the DFS states entered
    (a placed-tile configuration, solution leaves included); ``max_nodes``
    bounds the same count."""

    status: SearchStatus
    witnesses: tuple
    nodes_explored: int


def multiset_permutations(items: Sequence) -> list[tuple]:
    """All distinct permutations of a multiset, in lexicographic order."""
    items = sorted(items)
    n = len(items)
    out: list[tuple] = []
    counts: dict = {}
    for it in items:
        counts[it] = counts.get(it, 0) + 1
    keys = sorted(counts)
    prefix: list = []

    def rec():
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                prefix.append(k)
                rec()
                prefix.pop()
                counts[k] += 1

    rec()
    return out


def _first_step_runs(masks: Sequence[int]) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Orders grouped by their second point: ``(bit, ((index, mask), ...))``.

    ``bit`` is the mask's lowest bit above bit 0. Orders are listed
    lexicographically, so the orders that share a first step are contiguous
    and the runs keep the order of the orders.
    """
    runs: list[tuple[int, list[tuple[int, int]]]] = []
    for oi, mask in enumerate(masks):
        bit = (mask ^ 1) & -(mask ^ 1)
        if runs and runs[-1][0] == bit:
            runs[-1][1].append((oi, mask))
        else:
            runs.append((bit, [(oi, mask)]))
    return tuple((bit, tuple(orders)) for bit, orders in runs)


@lru_cache(maxsize=256)
def _gap_orders(gaps: tuple[int, ...]):
    """Offsets (prefix sums from 0) per distinct gap order, and their first-step runs."""
    offsets = []
    for perm in multiset_permutations(gaps):
        offs = [0]
        for g in perm:
            offs.append(offs[-1] + g)
        offsets.append(tuple(offs))
    return tuple(offsets), _first_step_runs([sum(1 << o for o in offs) for offs in offsets])


def _interval_dfs(
    length: int,
    span: int,
    runs,
    occupied: int,
    placements: list[tuple[int, int]],
    budget: list[int],
    solutions: list[tuple[tuple[int, int], ...]],
    max_solutions: int,
    dead: set[int],
) -> bool:
    """Returns True when the search should stop (budget hit or enough solutions).

    ``span`` is the sum of the gaps, the reach of every order. ``dead`` holds
    the frontiers whose subtrees were exhausted without a solution. Below a
    node, the search depends only on ``occupied >> c`` and ``length - c``; the
    tiles placed so far start before ``c``, so that rest is below
    ``2**span`` and the pair packs into one int.
    """
    budget[0] += 1
    if budget[0] > budget[1]:
        budget[2] = 1
        return True
    full = (1 << length) - 1
    if occupied == full:
        solutions.append(tuple(placements))
        return len(solutions) >= max_solutions
    free = ~occupied & full
    c = (free & -free).bit_length() - 1
    if c + span >= length:
        return False
    rest = occupied >> c
    key = rest | (length - c) << span
    if key in dead:
        return False
    found = len(solutions)
    for bit, orders in runs:
        if rest & bit:
            continue
        for oi, mask in orders:
            if rest & mask:
                continue
            placements.append((c, oi))
            if _interval_dfs(
                length, span, runs, occupied | mask << c, placements, budget, solutions,
                max_solutions, dead,
            ):
                return True
            placements.pop()
    if len(solutions) == found:
        dead.add(key)
    return False


def _build_interval_witness(length: int, offsets, placements) -> IntervalTiling:
    tiles = []
    for start, oi in placements:
        offs = offsets[oi]
        tiles.append(Tile(tuple(start + o for o in offs)))
    tiles.sort(key=lambda t: t.points[0])
    return IntervalTiling(length, tuple(tiles))


def _solve_root(gaps: tuple[int, ...], length: int, cfg: SearchConfig, root: int):
    """The serial search below root order ``root`` placed at point 0, with its
    own frontier memo and ``cfg.max_nodes`` budget: (solutions, nodes entered)."""
    offsets, runs = _gap_orders(gaps)
    solutions: list = []
    budget = [0, cfg.max_nodes, 0]
    mask = sum(1 << o for o in offsets[root])
    _interval_dfs(
        length, sum(gaps), runs, mask, [(0, root)], budget, solutions, cfg.max_solutions, set()
    )
    return solutions, budget[0]


def solve_interval(gap_set: GapSet, length: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Exact-cover search for tilings of {0..length-1} by tiles with the given gap set.

    EXHAUSTED_NO_SOLUTION is a proof of untilability at this length; budget
    exhaustion is reported as a status, never an exception.
    """
    cfg = cfg or SearchConfig()
    ppt = gap_set.points_per_tile()
    if length < 1 or length % ppt != 0:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, (), 0)
    gaps = gap_set.expand()
    offsets, runs = _gap_orders(gaps)
    solutions: list = []
    if cfg.parallel_width > 0 and len(offsets) > 1 and sum(gaps) < length:
        # One task per root order (the gap order placed at point 0), taken
        # in serial order: the first root with a solution runs to completion,
        # so the witnesses are the serial search's. Leaving the pool
        # terminates the roots still running. Where no order fits, the serial
        # search below stops at its root.
        nodes = 1  # the root state, as the serial search counts it
        budget_hit = False
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(cfg.parallel_width, len(offsets))) as pool:
            for found, entered in pool.imap(
                partial(_solve_root, gaps, length, cfg), range(len(offsets))
            ):
                solutions += found
                nodes += entered
                if len(solutions) >= cfg.max_solutions:
                    break
                if nodes > cfg.max_nodes:
                    budget_hit = True
                    break
        del solutions[cfg.max_solutions :]
    else:
        budget = [0, cfg.max_nodes, 0]
        _interval_dfs(length, sum(gaps), runs, 0, [], budget, solutions, cfg.max_solutions, set())
        nodes = budget[0]
        budget_hit = bool(budget[2])
    witnesses = tuple(_build_interval_witness(length, offsets, p) for p in solutions)

    if witnesses:
        for wit in witnesses:
            if not verify_interval_tiling(wit, gap_set).ok:
                raise ConstructionError("search produced a witness that fails verification")
        return SearchOutcome(SearchStatus.FOUND, witnesses, nodes)
    if budget_hit:
        return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, (), nodes)
    return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, (), nodes)


def _least_length(gaps: tuple[int, ...], n_max: int, max_nodes: int) -> int | None:
    """Least length <= n_max that the gaps tile, or None, by one shortest-path
    sweep over frontier states (Newman's finite-state view of tilings of Z).

    A state is ``rest = occupied >> c`` at the leftmost free point ``c``, as
    in _interval_dfs; what can follow depends on ``rest`` alone, so each rest
    is settled once, at the least ``c`` that reaches it, with one bucket per
    ``c`` (Dial's algorithm). A tile placed at ``c`` covers ``c + span``, the
    highest point of the next state, so the next state's position is ``c``
    plus a constant of that state: the first time a rest is reached, from the
    least ``c``, is at its least position. A placement that leaves nothing
    occupied ahead completes length ``c + span + 1``, so the first one found
    is the least length. No tile placed at ``c >= n_max - span`` fits.
    Settled states count against ``max_nodes``; when it runs out,
    SearchExhausted names the least admissible length not yet decided.
    """
    span = sum(gaps)
    _, runs = _gap_orders(gaps)
    limit = n_max - span
    buckets: list[list[int]] = [[] for _ in range(max(limit, 0))]
    if buckets:
        buckets[0].append(0)
    # rest -> position. A dict, not a set: on the catalog's largest sweep
    # (20k rests) a set peaked at 3.3 MB, this dict at 1.3 MB.
    reached = {0: 0}
    settled = 0
    for c, bucket in enumerate(buckets):
        for rest in bucket:
            settled += 1
            if settled > max_nodes:
                ppt = len(gaps) + 1
                n = -(-(c + span + 1) // ppt) * ppt
                raise SearchExhausted(
                    f"interval search budget exceeded at length {n} for {{{GapSet.from_gaps(gaps)}}}"
                )
            for bit, orders in runs:
                if rest & bit:
                    continue
                for _, mask in orders:
                    if rest & mask:
                        continue
                    occ = rest | mask
                    step = (~occ & (occ + 1)).bit_length() - 1
                    nxt = occ >> step
                    if not nxt:
                        return c + step
                    if c + step < limit and nxt not in reached:
                        reached[nxt] = c + step
                        buckets[c + step].append(nxt)
        bucket.clear()
    return None


def min_interval(
    gap_set: GapSet, n_max: int, cfg: SearchConfig | None = None
) -> tuple[int, IntervalTiling] | None:
    """Least length <= n_max that the gap set tiles, with a witness; None if
    no length up to n_max tiles.

    One frontier sweep (_least_length) finds the least length and proves
    every shorter one untilable; solve_interval then searches that length
    alone, so the witness is the first one its DFS finds. Both searches get
    ``cfg.max_nodes``: the sweep counts settled frontier states, the DFS the
    states it enters. Either one running out raises SearchExhausted, naming
    the least length not yet decided: a longer tilable length would not be
    the least one.
    """
    cfg = cfg or SearchConfig()
    n = _least_length(gap_set.expand(), n_max, cfg.max_nodes)
    if n is None:
        return None
    outcome = solve_interval(gap_set, n, cfg)
    if outcome.status is SearchStatus.BUDGET_EXCEEDED:
        raise SearchExhausted(f"interval search budget exceeded at length {n} for {{{gap_set}}}")
    if outcome.status is not SearchStatus.FOUND:
        raise ConstructionError(f"the frontier sweep tiles length {n} but the search found no tiling")
    return n, outcome.witnesses[0]


@lru_cache(maxsize=256)
def _step_orders(steps: tuple[tuple[int, int], ...], width: int):
    """Walks per distinct step order, and their first-step runs with masks
    flattened at row width."""
    walks = []
    for perm in multiset_permutations(steps):
        walk = [(0, 0)]
        for dx, dy in perm:
            px, py = walk[-1]
            walk.append((px + dx, py + dy))
        walks.append(tuple(walk))
    masks = [sum(1 << (x + y * width) for x, y in walk) for walk in walks]
    return tuple(walks), _first_step_runs(masks)


def _rect_dfs(width, height, kmax, lmax, runs, occupied, placements, budget, solutions, max_solutions):
    """As _interval_dfs, without the frontier memo. Steps are nonnegative, so
    every path's last point lies kmax columns right of and lmax rows above its
    first, and no point lies farther."""
    budget[0] += 1
    if budget[0] > budget[1]:
        budget[2] = 1
        return True
    full = (1 << width * height) - 1
    if occupied == full:
        solutions.append(tuple(placements))
        return len(solutions) >= max_solutions
    free = ~occupied & full
    c = (free & -free).bit_length() - 1
    cy, cx = divmod(c, width)
    if cx + kmax >= width or cy + lmax >= height:
        return False
    rest = occupied >> c
    for bit, orders in runs:
        if rest & bit:
            continue
        for oi, mask in orders:
            if rest & mask:
                continue
            placements.append((c, oi))
            if _rect_dfs(
                width, height, kmax, lmax, runs, occupied | mask << c, placements, budget,
                solutions, max_solutions,
            ):
                return True
            placements.pop()
    return False


def solve_rectangle(
    step_type: StepType | dict,
    width: int,
    height: int,
    cfg: SearchConfig | None = None,
) -> SearchOutcome:
    """Exact-cover search for tilings of [0,width-1] x [0,height-1] by monotone
    lattice paths with the given step multiset."""
    cfg = cfg or SearchConfig()
    st = normalize_steps(step_type)
    steps = expand_steps(st)
    ppp = len(steps) + 1
    if width < 1 or height < 1 or (width * height) % ppp != 0:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, (), 0)
    walks, runs = _step_orders(steps, width)
    kmax = sum(dx for dx, _ in steps)
    lmax = sum(dy for _, dy in steps)
    solutions: list = []
    budget = [0, cfg.max_nodes, 0]
    _rect_dfs(width, height, kmax, lmax, runs, 0, [], budget, solutions, cfg.max_solutions)
    witnesses = []
    for placements in solutions:
        paths = []
        for c, oi in placements:
            cx, cy = c % width, c // width
            walk = walks[oi]
            paths.append(LatticePath(tuple((cx + x, cy + y) for x, y in walk)))
        witnesses.append(RectangleTiling(width, height, tuple(paths), st))
    if witnesses:
        for wit in witnesses:
            if not verify_rectangle_tiling(wit).ok:
                raise ConstructionError("search produced a witness that fails verification")
        return SearchOutcome(SearchStatus.FOUND, tuple(witnesses), budget[0])
    if budget[2]:
        return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, (), budget[0])
    return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, (), budget[0])
