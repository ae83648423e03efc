"""In-memory span tracing around gaptiles' public functions, from outside.

gaptiles modules import each other's functions by name, so a function is
patched at every module where it is looked up. A span records
(name, start, end, parent); self time is a span's duration minus its child
spans. Counters are taken at the same call boundaries. Nothing inside
``src/`` is modified: the patches are installed for one traced iteration and
removed afterwards.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, function name, modules where that name is looked up).
SPAN_SITES = [
    ("cli.main", "main", ["cli"]),
    ("pipeline.construct", "construct", ["pipeline", "cli"]),
    ("pipeline.homogeneous_step", "homogeneous_step", ["pipeline"]),
    ("grid.concat_columns", "concat_columns", ["grid", "pipeline"]),
    ("grid.flatten", "flatten", ["grid", "pipeline"]),
    ("grid.stack_to_height", "stack_to_height", ["grid", "pipeline"]),
    ("grid.lift_over_points", "lift_over_points", ["grid", "pipeline"]),
    ("grid.merge_ragged", "merge_ragged", ["grid", "pipeline"]),
    ("grid.diagonal_stripe_tiling", "diagonal_stripe_tiling", ["grid", "pipeline"]),
    ("grid.min_height_rect", "min_height_rect", ["grid", "pipeline", "cli"]),
    ("grid.other", "dilate_x", ["grid", "pipeline"]),
    ("grid.other", "translate_x", ["grid"]),
    ("grid.other", "residue_interleave", ["grid", "pipeline"]),
    ("grid.other", "as_rectangle", ["grid", "pipeline"]),
    ("grid.other", "stair_tiling", ["grid", "pipeline"]),
    ("verify.rectangle", "verify_rectangle_tiling", ["verify", "grid", "pipeline", "oracle", "cli"]),
    ("verify.interval", "verify_interval_tiling", ["verify", "pipeline", "oracle", "cli"]),
    ("verify.homogeneous", "verify_homogeneous", ["verify", "pipeline", "cli"]),
    ("verify.boundary_prefix", "verify_boundary_prefix", ["verify", "pipeline", "cli"]),
    ("oracle.min_interval", "min_interval", ["oracle", "catalog", "cli"]),
    ("oracle.solve_interval", "solve_interval", ["oracle", "cli"]),
    ("oracle.solve_rectangle", "solve_rectangle", ["oracle", "grid"]),
    ("serialize.write_json", "write_json", ["serialize", "grid", "catalog", "cli"]),
    ("serialize.interval_to_obj", "interval_to_obj", ["serialize", "catalog", "cli"]),
    ("serialize.read_json", "read_json", ["serialize", "grid", "cli"]),
    ("serialize.tiling_from_obj", "tiling_from_obj", ["serialize", "grid", "cli"]),
    ("serialize.other", "dumps_canonical", ["catalog", "grid", "cli"]),
    ("catalog.run_catalog", "run_catalog", ["catalog", "cli"]),
]


def _count_result(counts, name, args, result):
    """Counters read at a span boundary from its arguments and result."""
    if name == "verify.interval":
        counts["verify.points_checked"] += args[0].length
    elif name == "verify.homogeneous":
        counts["verify.points_checked"] += args[1]
    elif name == "verify.rectangle":
        counts["verify.points_checked"] += args[0].width * args[0].height
    elif name in ("oracle.solve_interval", "oracle.solve_rectangle"):
        kind = name.split("_")[-1]
        counts[f"oracle.{kind}_nodes"] += result.nodes_explored
        counts["oracle.calls"] += 1
        counts["oracle.found"] += result.status.value == "found"
    elif name == "grid.concat_columns":
        counts["grid.paths_assembled"] += len(result.paths)
    elif name == "serialize.write_json":
        counts["serialize.bytes_written"] += os.path.getsize(args[0])
    elif name == "catalog.run_catalog":
        counts["catalog.records"] += result["computed"]


class Tracer:
    """Spans and counters of one traced iteration."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            _count_result(self.counts, name, args, result)
            return result

        return traced

    def count_calls(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def count_lookups(self, fn):
        def lookup(*args, **kwargs):
            hit = fn(*args, **kwargs)
            self.counts["grid.height_table_hits" if hit is not None else "grid.height_table_misses"] += 1
            return hit

        return lookup

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    @contextmanager
    def installed(self):
        """Patch every span site, the object counters and the height-table
        lookup; restore the originals on exit."""
        from gaptiles.grid import HeightTable
        from gaptiles.types import LatticePath, Tile

        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for name, attr, modules in SPAN_SITES:
            for mod_name in modules:
                mod = importlib.import_module(f"gaptiles.{mod_name}")
                patch(mod, attr, self.wrap(name, mod.__dict__[attr]))
        patch(Tile, "__post_init__", self.count_calls("types.tiles_built", Tile.__post_init__))
        patch(LatticePath, "__post_init__", self.count_calls("types.paths_built", LatticePath.__post_init__))
        patch(HeightTable, "get", self.count_lookups(HeightTable.get))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def layer_metrics(self, output_points: int) -> dict[str, float]:
        """Per-layer metrics of this iteration, except those that compare it
        with the run's untraced iterations."""
        st = self.self_times()
        inc = self.inclusive_times()
        c = self.counts
        verify_s = sum(v for k, v in st.items() if k.startswith("verify."))
        m = {
            "types.tiles_built": c["types.tiles_built"],
            "types.paths_built": c["types.paths_built"],
            "grid.paths_assembled": c["grid.paths_assembled"],
            "grid.height_table_hits": c["grid.height_table_hits"],
            "grid.height_table_misses": c["grid.height_table_misses"],
            "verify.points_checked": c["verify.points_checked"],
            "verify.points_per_s": c["verify.points_checked"] / verify_s if verify_s else 0.0,
            "verify.passes_per_output_point": c["verify.points_checked"] / output_points,
            "pipeline.construct_s": inc["pipeline.construct"],
            "pipeline.homogeneous_step_s": inc["pipeline.homogeneous_step"],
            "pipeline.self_s": st["pipeline.construct"] + st["pipeline.homogeneous_step"],
            "oracle.solve_interval_s": st["oracle.solve_interval"] + st["oracle.min_interval"],
            "oracle.solve_rectangle_s": st["oracle.solve_rectangle"],
            "oracle.interval_nodes": c["oracle.interval_nodes"],
            "oracle.rectangle_nodes": c["oracle.rectangle_nodes"],
            "oracle.calls": c["oracle.calls"],
            "oracle.found_ratio": c["oracle.found"] / c["oracle.calls"] if c["oracle.calls"] else 0.0,
            "serialize.bytes_written": c["serialize.bytes_written"],
            "catalog.self_s": st["catalog.run_catalog"],
            "catalog.records": c["catalog.records"],
            "cli.self_s": st["cli.main"],
        }
        for kind in ("interval", "rectangle"):
            secs = m[f"oracle.solve_{kind}_s"]
            m[f"oracle.{kind}_nodes_per_s"] = m[f"oracle.{kind}_nodes"] / secs if secs else 0.0
        for key in ("concat_columns", "flatten", "stack_to_height", "lift_over_points", "merge_ragged",
                    "diagonal_stripe_tiling", "min_height_rect", "other"):
            m[f"grid.{key}_s"] = st[f"grid.{key}"]
        for key in ("rectangle", "interval", "homogeneous", "boundary_prefix"):
            m[f"verify.{key}_s"] = st[f"verify.{key}"]
        for key in ("write_json", "interval_to_obj", "read_json", "tiling_from_obj", "other"):
            m[f"serialize.{key}_s"] = st[f"serialize.{key}"]
        m["trace.layer_self_s"] = sum(st.values())
        return m
