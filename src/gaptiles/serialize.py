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
separator bytes. The chunks are printed side by side on the chunk pool
(_chunks.ordered_map) and taken in order, so the bytes are the same for
every pool width. write_json streams them into a temporary file in the
target's directory and renames it over the target, so a failed write
leaves the earlier file as it was and no temporary file behind.

read_json reads that layout back from the bytes: the rows array is cut out
of the file, checked byte by byte against the canonical grammar with a few
array passes, and read into the CSR arrays by np.fromstring, while
json.loads parses the small rest of the object. The array is checked and
read in pieces of about 256 KB, each cut just after a comma, side by side
on the chunk pool: a serial pass over the commas first tells each piece
where its values go, so the pieces run in any order and fill one array.
The scratch memory is bounded by the pieces in flight, not by the file;
the grammar and the result are the same whatever the piece size and the
pool width, and the first failing piece in order declines the file. A file
laid out any other way goes through json.loads whole, so it reads exactly
as before. Either way a point or a header number that is not a JSON integer
is a parse error (PreconditionError), never truncated or read as 0 or 1.
"""

from __future__ import annotations

import errno
import json
import os
import stat
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from ._chunks import ordered_map
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

    def text(a: int) -> bytes:
        return _points_bytes(tuple(c[a : a + chunk] for c in cols), last[a : a + chunk])

    yield b"[["
    starts = range(0, n, chunk)
    for a, part in zip(starts, ordered_map(text, starts)):
        # the final point's separator is "],["; the rows close with "]]"
        yield part if a + chunk < n else part[:-3] + b"]]"


def _rows_json(rows: Tiles | Paths, chunk: int = _CHUNK_POINTS) -> str:
    """The rows as json.dumps prints them, formatted `chunk` points at a time."""
    return b"".join(_rows_chunks(rows, chunk)).decode("ascii")


def _chunks(obj: Any) -> Iterator[bytes]:
    """The canonical JSON of obj, without the trailing newline, as ASCII
    bytes in pieces; a dict holding a Tiles or Paths value yields its rows
    chunk by chunk."""
    if isinstance(obj, (Tiles, Paths)):
        yield from _rows_chunks(obj, _CHUNK_POINTS)
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


def refuse_special_file(path: str | Path) -> None:
    """Raise an OSError naming path if it exists and is not a regular file
    (a device, a FIFO, a directory, or a link to one): writing there would
    replace that entry with a plain file."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    if stat.S_ISDIR(mode):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not stat.S_ISREG(mode):
        raise OSError(errno.EEXIST, "exists and is not a regular file", str(path))


def write_json(path: str | Path, obj: Any) -> None:
    """Write the canonical JSON of obj to path, atomically.

    The chunks go to a new file beside path as they are made, which then
    replaces path; on any failure the temporary file is removed and path is
    left as it was. The file is not fsynced: the replace is atomic for
    readers and against a failing writer, not against a power loss. An
    OSError about the temporary file is raised naming path, and so is one
    for a path that exists and is not a regular file (refuse_special_file),
    before any temporary file is made.
    """
    path = Path(path)
    refuse_special_file(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with fh:
            for part in _chunks(obj):
                fh.write(part)
            fh.write(b"\n")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise _naming(exc, path) from None
        raise


def _naming(exc: OSError, path: Path) -> OSError:
    """exc, raised for the temporary file beside path, as raised for path:
    the user asked for path and never sees the temporary file's name."""
    return type(exc)(exc.errno, exc.strerror, str(path))


def read_json(path: str | Path) -> Any:
    """The JSON value in the file at path.

    The "tiles" of an interval file or the "paths" of a rectangle file, if
    laid out as write_json prints them, are read from the bytes straight
    into a Tiles or Paths view, the CSR view that interval_to_obj and
    rectangle_to_obj return too; only the rest of the object goes through
    json.loads. Any other file or layout is read by json.loads alone, so
    every reader gets the value or the error json.loads gives.
    """
    data = Path(path).read_bytes()
    obj = _read_tiling(data)
    return _read_plain(data) if obj is None else obj


def _read_plain(data: bytes) -> Any:
    """data as json.loads reads it, for every file the byte pass declines."""
    return json.loads(data.decode("utf-8"))


# The key of the rows array of an interval and of a rectangle file, and how
# deep its numbers sit in it.
_ROW_ARRAYS = (("tiles", 2), ("paths", 3))
# Digits and "-" stay, the punctuation ",[]" becomes the space np.fromstring
# splits on, and every other byte becomes "*", which no canonical row holds.
_ROW_BYTES = bytes(
    c if chr(c) in "-0123456789" else ord(" ") if chr(c) in ",[]" else ord("*")
    for c in range(256)
)
_TWO63 = np.frombuffer(str(2**63).encode("ascii"), dtype=np.uint8)  # 19 digits
# Bytes of the rows array checked and read by one task of the chunk pool: the
# most pieces that run at once (_chunks._MAX_WIDTH) hold about the scratch of
# one 1 MB piece.
_PIECE_BYTES = 1 << 18


def _read_tiling(data: bytes) -> dict | None:
    """The tiling file in data with its rows as a CSR view, or None unless
    the rows are laid out as write_json prints them.

    The rows array, from the key to the last "]]" ("]]]" for paths) in the
    file, is cut out and "[]" put in its place. The cut is the top-level
    value of the key: the quoted key occurs once in the file, the rest holds
    no backslash (so no escaped spelling of the key either), and json.loads
    finds the key in the top-level object of the rest. _rows_from_bytes
    accepts the cut only as one complete array, so then the file parses as
    JSON exactly when the rest does, with the same value everywhere else.
    """
    for key, depth in _ROW_ARRAYS:
        name = f'"{key}"'.encode("ascii")
        cut = data.find(name + b":[")
        if cut < 0:
            continue
        a = cut + len(name) + 1  # the array's "["
        end = a + 2 if data.startswith(b"[]", a) else data.rfind(b"]" * depth) + depth
        if end < a + 2:
            return None
        head, tail = data[:a], data[end:]
        if head.count(name) != 1 or name in tail or b"\\" in head or b"\\" in tail:
            return None
        try:
            obj = json.loads((head + b"[]" + tail).decode("utf-8"))
        except ValueError:
            return None
        if not isinstance(obj, dict) or key not in obj:
            return None
        rows = _rows_from_bytes(data, a, end, depth)
        if rows is None:
            return None
        obj[key] = rows
        return obj
    return None


def _rows_from_bytes(
    data: bytes, a: int, end: int, depth: int, piece: int = _PIECE_BYTES
) -> Tiles | Paths | None:
    """The rows array data[a:end], which ends in `depth` "]", as a Tiles
    (depth 2) or Paths (depth 3) view, or None if it is anything but
    canonical rows of int64 values that make a valid view.

    Canonical rows hold numbers -?(0|[1-9][0-9]*) split by "," within a
    point (paths), "," or "],[" between points, and "]],[[" between paths.
    So every bracket inside the array sits next to a comma, the commas give
    the bounds of every number, and np.fromstring reads the values.

    The numbers are checked and read in pieces of about `piece` bytes, each
    cut just after a comma, side by side on the chunk pool. One serial pass
    first fixes the pieces and counts their commas, so each piece knows its
    slice of the values, its parity within a point and where its first
    number starts; then each piece writes its values into its slice and
    returns its row breaks, or None. Only the values and the row breaks
    outlive a piece. The bracket runs beside a comma are read from the whole
    file, so a seam changes nothing: every piece size and pool width gives
    the same view or the same None.
    """
    per_point = depth - 1  # numbers per point
    if end - a == 2:  # "[]"
        return (Tiles if depth == 2 else Paths).from_rows([])
    first, last = a + depth, end - depth  # the numbers and their punctuation
    if not data.startswith(b"[" * depth, a) or first >= last:
        return None
    u = np.frombuffer(data, dtype=np.uint8)
    bounds = [first]  # where each piece starts, then `last`
    commas_before = [0]  # commas before each piece, then all of them
    while bounds[-1] < last:
        s = bounds[-1]
        cut = data.find(b",", s + piece - 1, last)
        bounds.append(last if cut < 0 else cut + 1)
        commas_before.append(commas_before[-1] + np.count_nonzero(u[s : bounds[-1]] == ord(",")))
    if per_point == 2 and commas_before[-1] % 2 == 0:
        return None
    values = np.empty(commas_before[-1] + 1, dtype=np.int64)

    def read(k: int) -> np.ndarray | None:
        """Check piece k, write its values into its slice, and return the
        points before each row it starts, or None."""
        s, e, before = bounds[k], bounds[k + 1], commas_before[k]
        text = data[s:e].translate(_ROW_BYTES)
        if b"*" in text:
            return None
        w = u[s:e]
        commas = np.flatnonzero(w == ord(",")) + s
        # "]" closed just before and "[" opened just after each comma
        shut = np.zeros(commas.size, dtype=np.int8)
        opened = np.zeros(commas.size, dtype=np.int8)
        run_shut = np.ones(commas.size, dtype=bool)
        run_open = np.ones(commas.size, dtype=bool)
        for i in range(1, depth):
            run_shut &= u[commas - i] == ord("]")
            run_open &= u[commas + i] == ord("[")
            shut += run_shut
            opened += run_open
        if not np.array_equal(shut, opened):
            return None
        # within a point (an even comma overall) nothing closes, between points something does
        within = before % 2
        if per_point == 2 and (shut[within::2].any() or not shut[1 - within :: 2].all()):
            return None
        # the first number starts after the "[" run that follows the comma before the piece
        head = data[s : s + per_point]
        start = s if s == first else s + len(head) - len(head.lstrip(b"["))
        starts = np.concatenate(([start], commas + 1 + opened))
        ends = commas - shut
        if e < last:
            starts, after = starts[:-1], int(starts[-1])
        else:
            ends, after = np.append(ends, last), e
        # no other bracket: the piece holds the runs beside its commas, less
        # the "[" run after its last comma and plus the one it starts with
        if np.count_nonzero(w > ord("9")) != 2 * int(shut.sum()) + (start - s) - (after - e):
            return None
        neg = u[starts] == ord("-")
        lead = starts + neg
        digits = ends - lead
        if (
            np.count_nonzero(neg) != np.count_nonzero(w == ord("-"))
            or digits.min() < 1
            or digits.max() > 19
            or ((u[lead] == ord("0")) & (digits > 1)).any()
        ):
            return None
        big = np.flatnonzero(digits == 19)
        if big.size:
            # each 19-digit magnitude against 2**63, which only a negative may reach
            diff = u[lead[big, None] + np.arange(19)].astype(np.int16) - _TWO63
            first_diff = diff[np.arange(big.size), (diff != 0).argmax(axis=1)]
            if ((first_diff > 0) | ((first_diff == 0) & ~neg[big])).any():
                return None
        got = np.fromstring(text, dtype=np.int64, sep=" ")
        if got.size != starts.size:
            return None
        values[before : before + got.size] = got
        return (before + np.flatnonzero(shut == per_point) + 1) // per_point

    breaks = []  # points before each later row, per piece
    for piece_breaks in ordered_map(read, range(len(bounds) - 1)):
        if piece_breaks is None:
            return None
        breaks.append(piece_breaks)
    offsets = np.concatenate(([0], *breaks, [values.size // per_point]))
    breaks.clear()  # a copy of the offsets, dropped before the view's checks
    try:
        return Tiles(offsets, values) if depth == 2 else Paths(offsets, values[::2], values[1::2])
    except PreconditionError:
        return None


def gap_set_to_obj(gs: GapSet) -> list[list[int]]:
    return [[d, k] for d, k in gs.entries]


def _integer(value: Any, what: str) -> int:
    """value, which must be an integer: a bool, float or string is a
    PreconditionError, never rounded or read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionError(f"{what} must be an integer, not {value!r}")
    return int(value)


def gap_set_from_obj(obj: Any) -> GapSet:
    return GapSet.from_pairs(
        (_integer(d, "a gap distance"), _integer(k, "a gap multiplicity")) for d, k in obj
    )


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

    Points go straight into the CSR arrays; a point beyond int64, a
    non-list where a list belongs, or a header number (length, width,
    height, window, a gap_set or step_type entry, an annotation) that is not
    an integer is a PreconditionError like any other malformed input.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise PreconditionError("not a tiling file: missing 'kind'")
    kind = obj["kind"]
    try:
        if kind == "interval":
            gs = gap_set_from_obj(obj["gap_set"])
            ann_obj = obj.get("annotations")
            if ann_obj is None:
                ann_obj = {}
            elif not isinstance(ann_obj, dict):
                raise PreconditionError(f"annotations must be an object, not {ann_obj!r}")
            count = ann_obj.get("boundary_prefix_count")
            ann = TilingAnnotations(
                boundary_prefix_count=None if count is None else _integer(count, "boundary_prefix_count"),
                homogeneous_for=(
                    gap_set_from_obj(ann_obj["homogeneous_for"])
                    if ann_obj.get("homogeneous_for") is not None
                    else None
                ),
            )
            length = _integer(obj["length"], "length")
            return kind, IntervalTiling(length, _rows(Tiles, obj["tiles"]), ann), gs
        if kind == "rectangle":
            step_type = normalize_steps(
                [
                    ((_integer(dx, "a step"), _integer(dy, "a step")), _integer(k, "a step multiplicity"))
                    for (dx, dy), k in obj["step_type"]
                ]
            )
            rect = RectangleTiling(
                width=_integer(obj["width"], "width"),
                height=_integer(obj["height"], "height"),
                paths=_rows(Paths, obj["paths"]),
                step_type=step_type,
                window=_integer(obj["window"], "window") if obj.get("window") is not None else None,
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
