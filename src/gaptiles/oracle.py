"""Brute-force exact-cover search over intervals and lattice rectangles.

The branching rule is leftmost-point placement: the least uncovered point (in
ascending order for intervals, row-major order for rectangles) must be the
first point of the next placed tile or path. Monotonicity makes this sound,
so a fully exhausted search is a proof that no tiling of that size exists.

One search serves both shapes: an interval of length n is a width-n,
height-1 rectangle whose paths take steps (g, 0), one per gap.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import ConstructionError, PreconditionError, SearchExhausted, at_least_one
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
    Every search is one serial DFS in the calling process, so a budget and
    its witnesses do not depend on the host. A value out of range raises
    PreconditionError."""

    max_nodes: int = 10_000_000
    max_solutions: int = 1

    def __post_init__(self):
        for name in ("max_nodes", "max_solutions"):
            at_least_one(getattr(self, name), name)


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


@contextmanager
def _frames(n: int):
    """The recursion limit raised by n frames inside the block, restored
    after it. Python 3.11 keeps Python-to-Python calls off the C stack, so a
    recursion of one frame per step or placed tile may go that deep."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@lru_cache(maxsize=512)  # room for a catalog's gap sets and the height searches' shapes
def _orders(steps: tuple[tuple[int, int], ...], width: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """One mask per distinct step order, in lexicographic order of the step
    sequences, grouped by first step: ``(bit, (mask, ...))``, where ``bit``
    is the second point's. Bit ``o`` of a mask is the order's point at
    offset ``o`` from its first, flattened at row width. Steps are nonzero
    and nonnegative, so an order's offsets are exactly its mask's bits, in
    ascending order. An interval's orders lie on one row, where any width
    serves."""
    keys = sorted(set(steps))
    moves = [dx + dy * width for dx, dy in keys]
    counts = [steps.count(key) for key in keys]
    masks: list[int] = []

    def extend(mask: int, at: int, left: int) -> None:
        if not left:
            masks.append(mask)
            return
        for i, move in enumerate(moves):
            if counts[i]:
                counts[i] -= 1
                extend(mask | 1 << (at + move), at + move, left - 1)
                counts[i] += 1

    runs = []
    with _frames(len(steps)):  # extend recurses once per step
        for i, move in enumerate(moves):
            counts[i] -= 1
            extend(1 | 1 << move, move, len(steps) - 1)
            counts[i] += 1
            runs.append((1 << move, tuple(masks)))
            masks.clear()
    return tuple(runs)


def _offsets(mask: int) -> list[int]:
    """The set bits of ``mask``, in ascending order."""
    return [o for o in range(mask.bit_length()) if mask >> o & 1]


def _dfs(total, startable, runs, rest, c, placements, budget, solutions, max_solutions, dead) -> bool:
    """Returns True when the search should stop (budget hit or enough solutions).

    A state is the leftmost free point ``c`` and ``rest``, the occupied points
    from ``c`` on, shifted down by ``c``; ``c == total`` is a full cover.
    ``startable[c]`` says whether a tile fits at ``c`` with the points ahead
    free, and ``startable[total]`` is true. ``dead``, sets of rests keyed by
    ``c`` (a set is made on the first rest to die at its ``c``) or None,
    holds the states whose subtrees held no solution.

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
    if dead is not None and rest in dead.get(c, ()):
        return False
    found = len(solutions)
    for bit, orders in runs:
        if rest & bit:
            continue
        for mask in orders:
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
            placements.append((c, mask))
            if _dfs(
                total, startable, runs, occ >> step, c + step, placements, budget, solutions,
                max_solutions, dead,
            ):
                return True
            placements.pop()
    if dead is not None and len(solutions) == found:
        dead[c].add(rest)
    return False


def _search(startable, runs, cfg: SearchConfig, memo: bool):
    """The DFS from the empty cover: (solutions, states counted, whether the
    budget ran out).

    _dfs takes one frame per placed tile, so up to ``total + 1`` frames on
    top of the caller's."""
    total = len(startable) - 1
    solutions: list = []
    budget = [0, cfg.max_nodes, 0]
    dead = defaultdict(set) if memo else None
    with _frames(total + 1):
        _dfs(total, startable, runs, 0, 0, [], budget, solutions, cfg.max_solutions, dead)
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


def solve_interval(gap_set: GapSet, length: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Exact-cover search for tilings of {0..length-1} by tiles with the given gap set.

    EXHAUSTED_NO_SOLUTION is a proof of untilability at this length; budget
    exhaustion is reported as a status, never an exception. A length below 1
    raises PreconditionError: the empty interval is tiled by no tiles, so
    no search answers for it.
    """
    at_least_one(length, "length")
    cfg = cfg or SearchConfig()
    ppt = gap_set.points_per_tile()
    if length % ppt != 0:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, (), 0)
    gaps = gap_set.expand()
    span = sum(gaps)
    startable = [c + span < length for c in range(length)] + [True]  # a tile at c ends at c + span
    solutions, nodes, budget_hit = _search(startable, _orders(tuple((g, 0) for g in gaps), 1), cfg, True)
    # placements come in order of their first points
    witnesses = tuple(
        IntervalTiling(length, tuple(Tile(tuple(c + o for o in _offsets(mask))) for c, mask in p))
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
    Only buckets that hold a state are kept, so the memory does not grow
    with ``n_max``, and the sweep stops once none is left.
    Settled states count against ``max_nodes``; when it runs out,
    SearchExhausted names the least admissible length not yet decided.
    """
    span = sum(gaps)
    runs = _orders(tuple((g, 0) for g in gaps), 1)
    limit = n_max - span
    buckets: dict[int, list[int]] = {0: [0]}  # position -> rests not yet settled
    # rest -> position. A dict, not a set: on the catalog's largest sweep
    # (20k rests) a set peaked at 3.3 MB, this dict at 1.3 MB.
    reached = {0: 0}
    settled = 0
    c = 0
    while buckets and c < limit:
        for rest in buckets.pop(c, ()):
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
                for mask in orders:
                    if rest & mask:
                        continue
                    occ = rest | mask
                    step = (~occ & (occ + 1)).bit_length() - 1
                    nxt = occ >> step
                    if not nxt:
                        return c + step
                    if c + step < limit and nxt not in reached:
                        reached[nxt] = c + step
                        buckets.setdefault(c + step, []).append(nxt)
        c += 1
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
    the least one. An n_max below 1 raises PreconditionError, as the
    empty interval is no length to search.
    """
    at_least_one(n_max, "n_max")
    cfg = cfg or SearchConfig()
    if sum(d * k for d, k in gap_set.entries) >= n_max:  # no tile fits; do not expand the gaps
        return None
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
    if not steps:  # as RectangleTiling refuses it; _orders would list no order
        raise PreconditionError("step_type must be non-empty")
    ppp = len(steps) + 1
    if width < 1 or height < 1 or (width * height) % ppp != 0:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, (), 0)
    runs = _orders(steps, width)
    # Steps are nonnegative, so every path's last point lies kmax columns
    # right of and lmax rows above its first, and no point lies farther.
    kmax = sum(dx for dx, _ in steps)
    lmax = sum(dy for _, dy in steps)
    startable = [
        c % width + kmax < width and c // width + lmax < height for c in range(width * height)
    ] + [True]
    # No memo: one on the rectangle states got no hits.
    solutions, nodes, budget_hit = _search(startable, runs, cfg, False)
    witnesses = []
    for p in solutions:
        paths = (LatticePath(tuple(((c + o) % width, (c + o) // width) for o in _offsets(mask))) for c, mask in p)
        witnesses.append(RectangleTiling(width, height, tuple(paths), st))
    return _outcome(tuple(witnesses), nodes, budget_hit, verify_rectangle_tiling)
