"""Canonical JSON formats for tilings and reports.

Interval tilings:
  {"kind":"interval","length":N,"gap_set":[[d,k],...],"tiles":[[p0,p1,...],...],"annotations":{...}}
Rectangle tilings:
  {"kind":"rectangle","width":W,"height":H,"step_type":[[[dx,dy],k],...],"paths":[[[x,y],...],...]}
  (plus an optional "window" key for windowed-mode tilings)

Dumps are canonical (sorted keys, fixed separators, trailing newline), so
identical inputs always produce byte-identical files. The dicts that
interval_to_obj and rectangle_to_obj return keep "tiles" or "paths" as the
tiling's CSR view, and the rows are printed as bytes straight from its
arrays, 65,536 points at a time: each number's digits come from a table of
4-digit words, and one keep mask drops the leading zeros and unused
separator bytes. write_json streams those chunks into a temporary file in
the target's directory and renames it over the target, so a failed write
leaves the earlier file as it was and no temporary file behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

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

_CHUNK_POINTS = 1 << 16
# _WORDS[i] holds the four ASCII digits of i, zero-padded, in memory order
# (built in uint16, so that the temporaries stay small).
_PLACES = np.array([1000, 100, 10, 1], dtype=np.uint16)
_WORDS = (
    (np.arange(10_000, dtype=np.uint16)[:, None] // _PLACES % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # 10 .. 10**19


def _magnitude(v: np.ndarray) -> np.ndarray:
    """|v| as uint64, exact for every int64 including its minimum."""
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=v < 0)
    return mag


def _points_bytes(cols: tuple[np.ndarray, ...], last: np.ndarray) -> bytes:
    """Each point followed by its separator: "p," or "p],[" for one column,
    "[x,y]," or "[x,y]],[" for two; "],[" ends a row.

    Every point gets one row of a uint8 matrix: a sign byte, zero-padded
    digits as wide as the chunk's largest magnitude needs, and the
    punctuation; a boolean mask keeps the bytes that belong to the text. A
    digit is kept when the magnitude reaches its place value, or it is the
    units digit.
    """
    n = last.size
    mags = [_magnitude(c) for c in cols]
    words = (len(str(max(int(m.max()) for m in mags))) + 3) // 4
    field = 1 + 4 * words  # sign byte, then the digits
    pair = len(cols) == 2
    width = len(cols) * field + 3 * pair + 3
    text = np.empty((n, width), dtype=np.uint8)
    keep = np.ones((n, width), dtype=bool)
    pos = 0
    if pair:
        text[:, 0] = ord("[")
        pos = 1
    for i, (c, mag) in enumerate(zip(cols, mags)):
        if i:
            text[:, pos] = ord(",")
            pos += 1
        text[:, pos] = ord("-")
        np.less(c, 0, out=keep[:, pos])
        for j, place in enumerate(_POW10[4 * words - 2 :: -1], start=pos + 1):
            np.greater_equal(mag, place, out=keep[:, j])
        w = np.empty((n, words), dtype=np.uint32)
        for j in range(words - 1, -1, -1):
            mag, w[:, j] = np.divmod(mag, 10_000)
        text[:, pos + 1 : pos + field] = _WORDS[w].view(np.uint8)
        pos += field
    if pair:
        text[:, pos] = ord("]")
        pos += 1
    text[:, pos] = np.where(last, ord("]"), ord(","))
    text[:, pos + 1] = ord(",")
    text[:, pos + 2] = ord("[")
    keep[:, pos + 1 :] = last[:, None]
    return text[keep].tobytes()


def _rows_chunks(rows: Tiles | Paths, chunk: int = _CHUNK_POINTS) -> Iterator[bytes]:
    """The rows as json.dumps prints them, [[p,...],...] for tiles and
    [[[x,y],...],...] for paths, in pieces of `chunk` points."""
    cols = (rows.values,) if isinstance(rows, Tiles) else (rows.xs, rows.ys)
    n = cols[0].size
    if n == 0:
        yield b"[]"
        return
    last = np.zeros(n, dtype=bool)
    last[rows.offsets[1:] - 1] = True
    yield b"[["
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        text = _points_bytes(tuple(c[a:b] for c in cols), last[a:b])
        # the final point's separator is "],["; the rows close with "]]"
        yield text if b < n else text[:-3] + b"]]"


def _rows_json(rows: Tiles | Paths, chunk: int = _CHUNK_POINTS) -> str:
    """The rows as json.dumps prints them, formatted `chunk` points at a time."""
    return b"".join(_rows_chunks(rows, chunk)).decode("ascii")


def _chunks(obj: Any) -> Iterator[bytes]:
    """The canonical JSON of obj, without the trailing newline, as ASCII
    bytes in pieces; a dict holding a Tiles or Paths value yields its rows
    chunk by chunk."""
    if isinstance(obj, (Tiles, Paths)):
        yield from _rows_chunks(obj)
    elif isinstance(obj, dict) and any(isinstance(v, (Tiles, Paths)) for v in obj.values()):
        sep = b"{"
        for k in sorted(obj):
            yield sep + json.dumps(k).encode("ascii") + b":"
            yield from _chunks(obj[k])
            sep = b","
        yield b"}"
    else:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON text of obj; a Tiles or Paths value prints as its list of rows."""
    return b"".join(_chunks(obj)).decode("ascii") + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    """Write the canonical JSON of obj to path, atomically.

    The chunks go to a new file beside path as they are made, which then
    replaces path; on any failure the temporary file is removed and path is
    left as it was. The file is not fsynced: the replace is atomic for
    readers and against a failing writer, not against a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for part in _chunks(obj):
                fh.write(part)
            fh.write(b"\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
