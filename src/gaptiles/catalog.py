"""Resumable JSONL catalog of minimal tilable lengths over a family of gap sets.

One record per gap set, appended in canonical enumeration order. A run is
keyed by a hash of its configuration; rerunning with the same configuration
appends only the records that are not already present, so an interrupted run
resumed later produces the same file as an uninterrupted one. The hash leaves
the timings setting out, so a resume also checks that the records it keeps
were timed, or untimed, as the rerun will time its own.
"""

from __future__ import annotations

import hashlib
import json
import time
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


def _load_completed(path: Path, chash: str, timings: bool) -> int:
    """Count of valid leading records matching the config hash; truncates any
    corrupt trailing line left by an interrupted write. A record of another
    configuration, or a kept one timed when `timings` is off or untimed when
    it is on, is a ValueError, with the file left as it was."""
    if not path.exists():
        return 0
    raw = path.read_bytes().decode("utf-8", errors="replace")
    lines = raw.split("\n")
    good = []
    different = f"existing catalog {path} was built with a different configuration"
    for line in lines:
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            break
        if rec.get("config_hash") != chash:
            raise ValueError(different)
        if rec.get("index") != len(good):
            break
        if (rec.get("wall_ms") is None) == timings:
            raise ValueError(different)
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
    max_nodes: int = SearchConfig.max_nodes,
    timings: bool = False,
) -> dict:
    """Run (or resume) a catalog. Returns a summary dict; records are appended
    to `path` and witnesses written next to it. A bound or budget below 1
    is a PreconditionError, raised before a file is touched."""
    bounds = {"max_distance": max_distance, "max_multiplicity": max_multiplicity, "n_max": n_max}
    for name, value in bounds.items():
        if value < 1:
            raise PreconditionError(f"{name} must be >= 1, got {value}")
    SearchConfig(max_nodes=max_nodes)
    path = Path(path)
    gap_sets = enumerate_gap_sets(max_distance, max_multiplicity)
    chash = config_hash(max_distance, max_multiplicity, n_max, max_nodes)
    done = _load_completed(path, chash, timings)
    todo = gap_sets[done:]
    witness_dir = path.parent / (path.stem + "-witnesses")
    not_found: list[str] = []
    budget_exceeded: list[str] = []

    def record_for(index: int, gs: GapSet) -> dict:
        t0 = time.perf_counter()
        try:
            found = min_interval(gs, n_max, SearchConfig(max_nodes=max_nodes))
            outcome = "not-found" if found is None else "found"
        except SearchExhausted as exc:
            found, outcome = None, "budget-exceeded"
            budget_exceeded.append(str(exc))
        witness = None if found is None else interval_to_obj(found[1], gs)
        elapsed = time.perf_counter() - t0
        rec = {
            "index": index,
            "gap_set": gap_set_to_obj(gs),
            "mode": "oracle",
            "config_hash": chash,
            "n_max": n_max,
            "wall_ms": round(elapsed * 1000.0, 3) if timings else None,
            "outcome": outcome,
            "min_length": None if found is None else found[0],
            "witness": None,
        }
        if outcome == "found":
            witness_dir.mkdir(parents=True, exist_ok=True)
            name = f"{index:05d}_{str(gs).replace(':', '-').replace(',', '_')}.json"
            write_json(witness_dir / name, witness)
            rec["witness"] = f"{witness_dir.name}/{name}"
        elif outcome == "not-found":
            not_found.append(str(gs))
        return rec

    with path.open("a", encoding="utf-8") as fh:
        for index, gs in enumerate(todo, done):
            fh.write(dumps_canonical(record_for(index, gs)))
            fh.flush()
    return {
        "total": len(gap_sets),
        "resumed_at": done,
        "computed": len(todo),
        "not_found": not_found,
        "budget_exceeded": budget_exceeded,
    }
