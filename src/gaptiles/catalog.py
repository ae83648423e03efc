"""Resumable JSONL catalog of minimal tilable lengths over a family of gap sets.

One record per gap set, appended in canonical enumeration order. A run is
keyed by a hash of its configuration; rerunning with the same configuration
appends only the records that are not already present, so an interrupted run
resumed later produces the same file as an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from itertools import combinations_with_replacement
from pathlib import Path

from .errors import PreconditionError, SearchExhausted
from .oracle import SearchConfig, min_interval
from .serialize import dumps_canonical, gap_set_to_obj, interval_to_obj, write_json
from .types import GapSet


def enumerate_gap_sets(max_distance: int, max_multiplicity: int) -> list[GapSet]:
    """All gap multisets with distances <= max_distance and 1..max_multiplicity
    gaps, ordered by size then lexicographically."""
    out = []
    for size in range(1, max_multiplicity + 1):
        for gaps in combinations_with_replacement(range(1, max_distance + 1), size):
            out.append(GapSet.from_gaps(gaps))
    return out


def config_hash(max_distance: int, max_multiplicity: int, n_max: int, max_nodes: int) -> str:
    payload = dumps_canonical(
        {
            "max_distance": max_distance,
            "max_multiplicity": max_multiplicity,
            "n_max": n_max,
            "max_nodes": max_nodes,
            "format": 1,
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _solve_one(args) -> tuple[str, int | None, dict | str | None, float]:
    """(outcome, min length, witness object or budget message, elapsed seconds)."""
    entries, n_max, max_nodes = args
    t0 = time.perf_counter()
    gs = GapSet(entries)
    try:
        found = min_interval(gs, n_max, SearchConfig(max_nodes=max_nodes))
    except SearchExhausted as exc:
        result = ("budget-exceeded", None, str(exc))
    else:
        if found is None:
            result = ("not-found", None, None)
        else:
            result = ("found", found[0], interval_to_obj(found[1], gs))
    return (*result, time.perf_counter() - t0)


def _load_completed(path: Path, chash: str) -> int:
    """Count of valid leading records matching the config hash; truncates any
    corrupt trailing line left by an interrupted write."""
    if not path.exists():
        return 0
    raw = path.read_bytes().decode("utf-8", errors="replace")
    lines = raw.split("\n")
    good = []
    for line in lines:
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            break
        if rec.get("config_hash") != chash:
            raise ValueError(
                f"existing catalog {path} was built with a different configuration"
            )
        if rec.get("index") != len(good):
            break
        good.append(line)
    keep = "".join(l + "\n" for l in good)
    if keep != raw:
        path.write_text(keep, encoding="utf-8")
    return len(good)


def run_catalog(
    path: str | Path,
    max_distance: int,
    max_multiplicity: int,
    n_max: int,
    workers: int = 0,
    max_nodes: int = 10_000_000,
    timings: bool = False,
) -> dict:
    """Run (or resume) a catalog. Returns a summary dict; records are appended
    to `path` and witnesses written next to it."""
    if workers < 0:
        raise PreconditionError(f"workers must be >= 0, got {workers}")
    SearchConfig(max_nodes=max_nodes)  # refuses a budget below 1 before a file is touched
    path = Path(path)
    gap_sets = enumerate_gap_sets(max_distance, max_multiplicity)
    chash = config_hash(max_distance, max_multiplicity, n_max, max_nodes)
    done = _load_completed(path, chash)
    todo = gap_sets[done:]
    witness_dir = path.parent / (path.stem + "-witnesses")
    not_found: list[str] = []
    budget_exceeded: list[str] = []

    def record_for(index: int, gs: GapSet, result) -> dict:
        outcome, n, payload, elapsed = result
        rec = {
            "index": index,
            "gap_set": gap_set_to_obj(gs),
            "mode": "oracle",
            "config_hash": chash,
            "n_max": n_max,
            "wall_ms": round(elapsed * 1000.0, 3) if timings else None,
            "outcome": outcome,
            "min_length": n,
            "witness": None,
        }
        if outcome == "found":
            witness_dir.mkdir(parents=True, exist_ok=True)
            name = f"{index:05d}_{str(gs).replace(':', '-').replace(',', '_')}.json"
            write_json(witness_dir / name, payload)
            rec["witness"] = f"{witness_dir.name}/{name}"
        elif outcome == "not-found":
            not_found.append(str(gs))
        else:
            budget_exceeded.append(payload)
        return rec

    args = [(gs.entries, n_max, max_nodes) for gs in todo]
    with path.open("a", encoding="utf-8") as fh, ExitStack() as stack:
        if workers and workers > 1 and todo:
            # map yields in submission order as results arrive, so each record
            # is written once it and every earlier one are done.
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_solve_one, args)
        else:
            results = map(_solve_one, args)
        for offset, (gs, result) in enumerate(zip(todo, results)):
            fh.write(dumps_canonical(record_for(done + offset, gs, result)))
            fh.flush()
    return {
        "total": len(gap_sets),
        "resumed_at": done,
        "computed": len(todo),
        "not_found": not_found,
        "budget_exceeded": budget_exceeded,
    }
