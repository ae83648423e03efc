"""Brute-force exact-cover search over intervals and lattice rectangles.

The branching rule is leftmost-point placement: the least uncovered point (in
ascending order for intervals, row-major order for rectangles) must be the
first point of the next placed tile or path. Monotonicity makes this sound,
so a fully exhausted search is a proof that no tiling of that size exists.

One search serves both shapes: an interval of length n is a width-n,
height-1 rectangle whose paths take steps (g, 0), one per gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Sequence

from .errors import ConstructionError, PreconditionError, SearchExhausted
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
    solve_interval or solve_rectangle call counts, as SearchOutcome counts
    them; min_interval gives the same bound to its frontier sweep, which
    counts settled states, and to the search at the length the sweep finds.
    A value out of range raises PreconditionError."""

    max_nodes: int = 10_000_000
    max_solutions: int = 1
    parallel_width: int = 0

    def __post_init__(self):
        for name, least in (("max_nodes", 1), ("max_solutions", 1), ("parallel_width", 0)):
            if getattr(self, name) < least:
                raise PreconditionError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search. ``nodes_explored`` counts the DFS states (a
    placed-tile configuration, solution leaves included): those the search
    enters, plus each child its look-ahead skips, as one state, because no
    tile starts at the child's leftmost free point. ``max_nodes`` bounds the
    same count. Intervals and rectangles share the search; only intervals
    keep its memo of dead frontiers."""

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


@lru_cache(maxsize=512)  # room for a catalog's gap sets and the height searches' shapes
def _orders(steps: tuple[tuple[int, int], ...], width: int):
    """Point offsets per distinct step order, flattened at row width, and
    their first-step runs. An interval's orders lie on one row, where any
    width serves."""
    offsets = []
    for perm in multiset_permutations(steps):
        offs = [0]
        for dx, dy in perm:
            offs.append(offs[-1] + dx + dy * width)
        offsets.append(tuple(offs))
    return tuple(offsets), _first_step_runs([sum(1 << o for o in offs) for offs in offsets])


def _interval_orders(gaps: tuple[int, ...], length: int):
    """Offsets and runs of the gap orders as steps ``(g, 0)``, and the startable
    table of ``length``: a tile starts at ``c`` when ``c + span < length``."""
    offsets, runs = _orders(tuple((g, 0) for g in gaps), 1)
    span = sum(gaps)
    return offsets, runs, [c + span < length for c in range(length)] + [True]


def _dfs(total, startable, runs, rest, c, placements, budget, solutions, max_solutions, dead) -> bool:
    """Returns True when the search should stop (budget hit or enough solutions).

    A state is the leftmost free point ``c`` and ``rest``, the occupied points
    from ``c`` on, shifted down by ``c``; ``c == total`` is a full cover.
    ``startable[c]`` says whether a tile fits at ``c`` with the points ahead
    free, and ``startable[total]`` is true. ``dead``, one set of rests per
    ``c`` or None, holds the states whose subtrees held no solution.

    Look-ahead: a child whose leftmost free point is not startable is not
    entered. It counts as one state against the budget, as it would if it
    were entered and cut, so the cut on entry fires only where a search starts.
    """
    budget[0] += 1
    if budget[0] > budget[1]:
        budget[2] = 1
        return True
    if c == total:
        solutions.append(tuple(placements))
        return len(solutions) >= max_solutions
    if not startable[c]:  # only where a search starts; the look-ahead skips the rest
        return False
    if dead is not None and rest in dead[c]:
        return False
    found = len(solutions)
    for bit, orders in runs:
        if rest & bit:
            continue
        for oi, mask in orders:
            if rest & mask:
                continue
            occ = rest | mask
            step = (~occ & (occ + 1)).bit_length() - 1
            if not startable[c + step]:
                budget[0] += 1
                if budget[0] > budget[1]:
                    budget[2] = 1
                    return True
                continue
            placements.append((c, oi))
            if _dfs(
                total, startable, runs, occ >> step, c + step, placements, budget, solutions,
                max_solutions, dead,
            ):
                return True
            placements.pop()
    if dead is not None and len(solutions) == found:
        dead[c].add(rest)
    return False


def _search(startable, runs, occupied: int, placements: list, cfg: SearchConfig, memo: bool):
    """The DFS from the state where ``placements`` cover ``occupied``, from
    point 0 on: (solutions, states counted, whether the budget ran out)."""
    total = len(startable) - 1
    c = (~occupied & (occupied + 1)).bit_length() - 1
    solutions: list = []
    budget = [0, cfg.max_nodes, 0]
    dead = [set() for _ in range(total)] if memo else None
    _dfs(total, startable, runs, occupied >> c, c, placements, budget, solutions, cfg.max_solutions, dead)
    return solutions, budget[0], bool(budget[2])


def _outcome(witnesses: tuple, nodes: int, budget_hit: bool, verify) -> SearchOutcome:
    """Checks every witness with ``verify`` and classifies the search."""
    for wit in witnesses:
        if not verify(wit).ok:
            raise ConstructionError("search produced a witness that fails verification")
    if witnesses:
        return SearchOutcome(SearchStatus.FOUND, witnesses, nodes)
    status = SearchStatus.BUDGET_EXCEEDED if budget_hit else SearchStatus.EXHAUSTED_NO_SOLUTION
    return SearchOutcome(status, (), nodes)


def _solve_root(gaps: tuple[int, ...], length: int, cfg: SearchConfig, root: int):
    """The serial search below root order ``root`` placed at point 0, with its
    own frontier memo and ``cfg.max_nodes`` budget."""
    offsets, runs, startable = _interval_orders(gaps, length)
    mask = sum(1 << o for o in offsets[root])
    return _search(startable, runs, mask, [(0, root)], cfg, True)


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
    offsets, runs, startable = _interval_orders(gaps, length)
    if cfg.parallel_width > 0 and len(offsets) > 1 and startable[0]:
        # One task per root order (the gap order placed at point 0), taken
        # in serial order: the first root with a solution runs to completion,
        # so the witnesses are the serial search's. Leaving the pool
        # terminates the roots still running. Where no order fits, the serial
        # search below stops at its root.
        # nodes starts at 1: the root state, as the serial search counts it
        import multiprocessing

        solutions, nodes, budget_hit = [], 1, False
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(cfg.parallel_width, len(offsets))) as pool:
            for found, entered, _ in pool.imap(
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
        solutions, nodes, budget_hit = _search(startable, runs, 0, [], cfg, True)
    # placements come in order of their first points
    witnesses = tuple(
        IntervalTiling(length, tuple(Tile(tuple(c + o for o in offsets[oi])) for c, oi in p))
        for p in solutions
    )
    return _outcome(witnesses, nodes, budget_hit, lambda wit: verify_interval_tiling(wit, gap_set))


def _least_length(gaps: tuple[int, ...], n_max: int, max_nodes: int) -> int | None:
    """Least length <= n_max that the gaps tile, or None, by one shortest-path
    sweep over frontier states (Newman's finite-state view of tilings of Z).

    A state is ``rest = occupied >> c`` at the leftmost free point ``c``, as
    in _dfs; what can follow depends on ``rest`` alone, so each rest
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
    _, runs = _orders(tuple((g, 0) for g in gaps), 1)
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
    offsets, runs = _orders(steps, width)
    # Steps are nonnegative, so every path's last point lies kmax columns
    # right of and lmax rows above its first, and no point lies farther.
    kmax = sum(dx for dx, _ in steps)
    lmax = sum(dy for _, dy in steps)
    startable = [
        c % width + kmax < width and c // width + lmax < height for c in range(width * height)
    ] + [True]
    # No memo: one on the rectangle states got no hits.
    solutions, nodes, budget_hit = _search(startable, runs, 0, [], cfg, False)
    witnesses = []
    for p in solutions:
        paths = (LatticePath(tuple(((c + o) % width, (c + o) // width) for o in offsets[oi])) for c, oi in p)
        witnesses.append(RectangleTiling(width, height, tuple(paths), st))
    return _outcome(tuple(witnesses), nodes, budget_hit, verify_rectangle_tiling)
