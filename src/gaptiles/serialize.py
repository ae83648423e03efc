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
arrays, 16,384 points at a time in the calling thread: each number becomes
a word holding the text before it and words of eight digits each, split by
multiplying and shifting, and deleting the NUL bytes of those words leaves
the text. write_json streams the chunks into a temporary file in the
target's directory and renames it over the target, so a failed write
leaves the earlier file as it was and no temporary file behind.

read_json reads that layout back from the bytes, in pieces of about 256 KB
side by side on threads that live for the read: a few array passes check
each piece against the canonical grammar and find its numbers' bounds, and
each number is read eight digits per word of the file's bytes straight
into the CSR arrays. The scratch memory is bounded by the pieces in flight,
not by the file, and the result is the same whatever the piece size and the
thread count. json.loads parses the small rest of the object, and the whole
of a file laid out any other way, which so reads exactly as before. Either
way a point or a header number that is not a JSON integer is a parse error
(PreconditionError), never truncated or read as 0 or 1.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import sys
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator

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

_CHUNK_POINTS = 1 << 14
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # 10 .. 10**19
# _HIGH[k] keeps the last k bytes of a little-endian word: those that hold
# a number's last k digits when its digits end with the word.
_HIGH = np.array([(1 << 64) - (1 << 8 * (8 - k)) for k in range(9)], dtype=np.uint64)
_NIBBLES, _THREES, _SIXES = (np.uint64(0x0101010101010101 * b) for b in (0xF0, 0x30, 0x06))


def _text_word(text: str) -> int:
    """text in the last bytes of a little-endian word, NULs before it."""
    return int.from_bytes(text.encode("ascii").rjust(8, b"\0"), "little")


# The text before a number, by its place (see _rows_chunks), then with "-":
# _PREFIX[place + negative], for an even place.
_BEFORE = (",", "],[", "", "],[", "]],[[", "[", ",")
_PREFIX = np.array([_text_word(t + sign) for t in _BEFORE for sign in ("", "-")], dtype=np.uint64)
# _ZONED[k][i] turns the k words of digit values of a number of i + 1 digits
# into ASCII: 0x30 on every digit byte, leading zeros left NUL.
_ZONED = {
    k: np.array(
        [[_THREES & _HIGH[min(max(i + 1 - 8 * (k - 1 - j), 0), 8)] for j in range(k)] for i in range(8 * k)],
        dtype=np.uint64,
    )
    for k in (1, 2, 3)
}
# A word of eight digits is split into lanes twice as narrow three times:
# the high part q = g // d goes to the lower lane and the rest g - q * d to
# the higher, so the word becomes (g << lane) - q * ((d << lane) - 1).
# Halves of 4 digits divide by 10**4; pairs and digits take q as
# (g * mul >> shift) & mask, exact below 10**4 and 10**2, as (mul, shift,
# mask, lane, (d << lane) - 1).
_E8 = np.uint64(10**8)
_SPLIT = [tuple(map(np.uint64, step)) for step in (
    (10_486, 20, 0x0000007F0000007F, 16, (100 << 16) - 1), (103, 10, 0x000F000F000F000F, 8, (10 << 8) - 1))]


def _numbers_bytes(v: np.ndarray, place: np.ndarray) -> bytes:
    """The numbers v as JSON prints them, each after the text of its place,
    an even index of _PREFIX (place is overwritten).

    Each number gets one row of a uint64 matrix: a word holding the text
    before it, then as many words of eight digit values as the chunk's
    largest magnitude needs. Every byte that holds a digit gets 0x30 and
    the leading zeros stay NUL, so deleting the NULs from the matrix's
    bytes leaves the text.
    """
    n = v.size
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # exact for the int64 minimum too
    top = len(str(int(mag.max())))  # the chunk's most digits
    digits = np.zeros(n, dtype=np.uint8)  # one less than the digits
    for p in _POW10[: top - 1]:
        digits += mag >= p
    k = (top + 7) // 8
    words = np.empty((n, k + 1), dtype=np.uint64)
    place += neg
    np.take(_PREFIX, place, out=words[:, 0], mode="wrap")  # in range; "raise" would buffer out
    g = np.empty((n, k), dtype=np.uint64)  # eight digits a word, the first most significant
    for j in range(k - 1, 0, -1):
        np.divmod(mag, _E8, out=(mag, g[:, j]))
    g[:, 0] = mag
    t = g // np.uint64(10_000)
    g <<= np.uint64(32)
    t *= np.uint64((10_000 << 32) - 1)
    g -= t
    for mul, shift, mask, lane, fold in _SPLIT:
        np.multiply(g, mul, out=t)
        t >>= shift
        t &= mask
        g <<= lane
        t *= fold
        g -= t
    np.bitwise_or(g, _ZONED[k].take(digits, axis=0), out=words[:, 1:])
    return words.tobytes().translate(None, b"\0")


def _rows_chunks(rows: Tiles | Paths, chunk: int = _CHUNK_POINTS) -> Iterator[bytes]:
    """The rows as json.dumps prints them, [[p,...],...] for tiles and
    [[[x,y],...],...] for paths, in pieces of `chunk` points, in the
    calling thread.

    A number's place picks the text before it (_BEFORE): a tile's point
    comes within its tile (place 0, ","), first in a later tile (2, "],["),
    or first of all (4, nothing); a path's x likewise (6, "],["; 8,
    "]],[["; 10, "["), and its y after a "," (12).
    """
    cols = (rows.values,) if isinstance(rows, Tiles) else (rows.xs, rows.ys)
    n = cols[0].size
    if n == 0:
        yield b"[]"
        return
    yield b"[["
    within = (0,) if len(cols) == 1 else (6, 12)  # each column's place within a row
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        place = np.empty((b - a, len(cols)), dtype=np.intp)
        place[:] = within
        lo, hi = np.searchsorted(rows.offsets, (a, b))
        place[rows.offsets[lo:hi] - a, 0] = within[0] + 2
        if a == 0:
            place[0, 0] = within[0] + 4
        v = cols[0][a:b] if len(cols) == 1 else np.stack([c[a:b] for c in cols], axis=1).ravel()
        yield _numbers_bytes(v, place.ravel())
    yield b"]" * (len(cols) + 1)


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


def write_atomic(path: str | Path, parts: Iterable[bytes]) -> None:
    """Write the byte parts to path, atomically.

    The parts go to a new file beside path as they are made, which then
    replaces path; on any failure the temporary file is removed and path is
    left as it was. The file is not fsynced: the replace is atomic for
    readers and against a failing writer, not against a power loss. An
    OSError about the temporary file is raised naming path, and so is one
    for a path that exists and is not a regular file (refuse_special_file),
    before any temporary file is made or any part is taken.
    """
    path = Path(path)
    refuse_special_file(path)
    tmp = _temporary(path)
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise _naming(exc, path) from None
        raise


def _temporary(path: Path) -> Path:
    """A new name beside path for the file that replaces it:
    ".{name}.{16 hex digits}.tmp", the name cut short at a character so that
    the whole is no longer than path's name or 42 bytes. So it fits wherever
    path's name fits, up to the longest name the file system takes."""
    name = os.fsencode(path.name)
    stem = name[: max(len(name) - 22, min(len(name), 20))].decode(sys.getfilesystemencoding(), "ignore")
    return path.with_name(f".{stem}.{os.urandom(8).hex()}.tmp")


def write_json(path: str | Path, obj: Any) -> None:
    """Write the canonical JSON of obj to path with write_atomic, the chunks
    printed as the file takes them."""
    write_atomic(path, chain(_chunks(obj), [b"\n"]))


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
# _FILL[k] puts "0" in the bytes before the last k of a word; _COMBINE's
# steps add 8 digits up as 4 pairs, 2 fours, 1 eight.
_FILL = _THREES & ~_HIGH
_COMBINE = [tuple(map(np.uint64, step)) for step in (
    (8, 10, 0x00FF00FF00FF00FF), (16, 100, 0x0000FFFF0000FFFF), (32, 10_000, 0xFFFFFFFF))]
_LEAST = np.array([0, 0, *_POW10[:18]], dtype=np.uint64)  # of d digits, no leading zero
# Bytes of the rows array checked and read by one chunk of ordered_map: the
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
    So every bracket inside the array sits next to a comma, and the commas
    give the bounds of every number. The numbers are read eight digits per
    word of the file's bytes, which checks that every byte after a number's
    "-" is a digit; with the commas and the bracket runs beside them, that
    accounts for every byte.

    The numbers are checked and read in pieces of about `piece` bytes, each
    cut just after a comma, side by side on threads. One serial pass first
    fixes the pieces and counts their commas, so each piece knows its
    slice of the values, its parity within a point and where its first
    number starts; then each piece writes its values into its slice and
    returns its row breaks, or None. Only the values and the row breaks
    outlive a piece. The bracket runs beside a comma are read from the whole
    file, so a seam changes nothing: every piece size and thread count gives
    the same view or the same None.
    """
    per_point = depth - 1  # numbers per point
    if end - a == 2:  # "[]"
        return (Tiles if depth == 2 else Paths).from_rows([])
    first, last = a + depth, end - depth  # the numbers and their punctuation
    if not data.startswith(b"[" * depth, a) or first >= last:
        return None
    u = np.frombuffer(data, dtype=np.uint8)
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))  # no copy
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
        commas = np.flatnonzero(u[s:e] == ord(",")) + s
        # "]" closed just before and "[" opened just after each comma
        shut, opened = np.zeros((2, commas.size), dtype=np.int8)
        run_shut, run_open = np.ones((2, commas.size), dtype=bool)
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
        ends = commas - shut if e < last else np.append(commas - shut, last)  # only the last ends in a number
        starts = np.concatenate(([start], commas + 1 + opened))[: ends.size]
        neg = u[starts] == ord("-")
        digits = ends - starts - neg
        del commas, opened, run_shut, run_open, starts  # less scratch in the pieces in flight
        if digits.min() < 1 or digits.max() > 19:
            return None
        # Word j ends 8j bytes before each number's end, with "0" before its
        # digits. One that holds a digit starts at byte 4 or later, as the rows
        # start after '{"tiles":[['; one that holds none is read at byte 0.
        mag = values[before : before + ends.size].view(np.uint64)
        mag[...], spare = 0, np.empty_like(mag)
        for j in range(-(-int(digits.max()) // 8)):
            k = np.clip(digits - 8 * j, 0, 8)
            t = words[np.maximum(ends - 8 * (j + 1), 0)]
            t &= _HIGH[k]
            t |= _FILL[k]
            # a digit, 0x30-0x39, has a high nibble of 3, and still 3 after adding 6
            np.add(t, _SIXES, out=spare)
            spare ^= _THREES
            t ^= _THREES  # each digit byte now holds its value
            spare |= t
            if np.bitwise_and(spare, _NIBBLES, out=spare).any():
                return None
            for shift, scale, mask in _COMBINE:
                np.right_shift(t, shift, out=spare)
                t *= scale
                t += spare
                t &= mask
            t *= np.uint64(10 ** (8 * j))
            mag += t
        big = digits == 19  # only these reach 2**63, which only a negative may
        if (mag < _LEAST[digits]).any() or (mag[big] > np.uint64(2**63 - 1) + neg[big]).any():
            return None
        np.negative(mag, out=mag, where=neg)
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
