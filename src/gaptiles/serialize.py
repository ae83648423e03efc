"""Canonical JSON formats for tilings and reports.

Interval tilings:
  {"kind":"interval","length":N,"gap_set":[[d,k],...],"tiles":[[p0,p1,...],...],"annotations":{...}}
Rectangle tilings:
  {"kind":"rectangle","width":W,"height":H,"step_type":[[[dx,dy],k],...],"paths":[[[x,y],...],...]}
  (plus an optional "window" key for windowed-mode tilings)

Dumps are canonical (sorted keys, fixed separators, trailing newline), so
identical inputs always produce byte-identical files. The dicts that
interval_to_obj and rectangle_to_obj return keep "tiles" or "paths" as the
tiling's CSR view; dumps_canonical prints it as the list of rows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import PreconditionError
from .types import (
    GapSet,
    IntervalTiling,
    Paths,
    RectangleTiling,
    Tiles,
    TilingAnnotations,
    VerificationReport,
    normalize_steps,
)


def _rows_json(rows: Tiles | Paths, chunk: int = 1 << 16) -> str:
    """The rows as json.dumps prints them: [[p,...],...] for tiles,
    [[[x,y],...],...] for paths.

    The text is formatted straight from the CSR arrays, `chunk` points at a
    time, so no list per row is ever built.
    """
    cols = (rows.values,) if isinstance(rows, Tiles) else (rows.xs, rows.ys)
    n = cols[0].size
    if n == 0:
        return "[]"
    last = np.zeros(n, dtype=bool)
    last[rows.offsets[1:] - 1] = True
    parts = []
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        if len(cols) == 1:
            points = list(map(str, cols[0][a:b].tolist()))
        else:
            points = [f"[{x},{y}]" for x, y in zip(cols[0][a:b].tolist(), cols[1][a:b].tolist())]
        tokens = [""] * (2 * (b - a))
        tokens[0::2] = points
        tokens[1::2] = np.where(last[a:b], "],[", ",").tolist()
        parts.append("".join(tokens))
    # Every point is followed by a separator; the final one is "],[".
    return "[[" + "".join(parts)[:-3] + "]]"


def _dumps(obj: Any) -> str:
    if isinstance(obj, (Tiles, Paths)):
        return _rows_json(obj)
    if isinstance(obj, dict) and any(isinstance(v, (Tiles, Paths)) for v in obj.values()):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(obj[k])}" for k in sorted(obj)) + "}"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON text of obj; a Tiles or Paths value prints as its list of rows."""
    return _dumps(obj) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(dumps_canonical(obj), encoding="utf-8")


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def gap_set_to_obj(gs: GapSet) -> list[list[int]]:
    return [[d, k] for d, k in gs.entries]


def gap_set_from_obj(obj: Any) -> GapSet:
    return GapSet.from_pairs((int(d), int(k)) for d, k in obj)


def interval_to_obj(t: IntervalTiling, gap_set: GapSet) -> dict:
    ann: dict[str, Any] = {}
    if t.annotations.boundary_prefix_count is not None:
        ann["boundary_prefix_count"] = t.annotations.boundary_prefix_count
    if t.annotations.homogeneous_for is not None:
        ann["homogeneous_for"] = gap_set_to_obj(t.annotations.homogeneous_for)
    return {
        "kind": "interval",
        "length": t.length,
        "gap_set": gap_set_to_obj(gap_set),
        "tiles": t.tiles,
        "annotations": ann,
    }


def rectangle_to_obj(r: RectangleTiling) -> dict:
    obj = {
        "kind": "rectangle",
        "width": r.width,
        "height": r.height,
        "step_type": [[[dx, dy], k] for (dx, dy), k in r.step_type],
        "paths": r.paths,
    }
    if r.window is not None:
        obj["window"] = r.window
    return obj


def _rows(view: type[Tiles] | type[Paths], rows: Any) -> Tiles | Paths:
    """A CSR view from parsed JSON rows, or the view itself from a *_to_obj dict."""
    return rows if isinstance(rows, view) else view.from_rows(rows)


def tiling_from_obj(obj: Any) -> tuple[str, Any, GapSet | None]:
    """Parse a tiling file object. Returns (kind, tiling, gap_set or None).

    Points go straight into the CSR arrays; a point beyond int64 or a
    non-list where a list belongs is a PreconditionError like any other
    malformed input.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise PreconditionError("not a tiling file: missing 'kind'")
    kind = obj["kind"]
    try:
        if kind == "interval":
            gs = gap_set_from_obj(obj["gap_set"])
            ann_obj = obj.get("annotations") or {}
            ann = TilingAnnotations(
                boundary_prefix_count=ann_obj.get("boundary_prefix_count"),
                homogeneous_for=(
                    gap_set_from_obj(ann_obj["homogeneous_for"])
                    if ann_obj.get("homogeneous_for") is not None
                    else None
                ),
            )
            return kind, IntervalTiling(int(obj["length"]), _rows(Tiles, obj["tiles"]), ann), gs
        if kind == "rectangle":
            step_type = normalize_steps(
                [((int(vec[0]), int(vec[1])), int(k)) for vec, k in obj["step_type"]]
            )
            rect = RectangleTiling(
                width=int(obj["width"]),
                height=int(obj["height"]),
                paths=_rows(Paths, obj["paths"]),
                step_type=step_type,
                window=int(obj["window"]) if obj.get("window") is not None else None,
            )
            return kind, rect, None
    except TypeError as exc:
        raise PreconditionError(f"malformed tiling file: {exc}") from None
    raise PreconditionError(f"unknown tiling kind {kind!r}")


def report_to_obj(rep: VerificationReport) -> dict:
    return {
        "ok": rep.ok,
        "violations": [
            {"kind": v.kind, "location": list(v.location), "detail": v.detail}
            for v in rep.violations
        ],
        "truncated": rep.truncated,
    }
