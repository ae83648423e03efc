"""Canonical JSON formats for tilings and reports.

Interval tilings:
  {"kind":"interval","length":N,"gap_set":[[d,k],...],"tiles":[[p0,p1,...],...],"annotations":{...}}
Rectangle tilings:
  {"kind":"rectangle","width":W,"height":H,"step_type":[[[dx,dy],k],...],"paths":[[[x,y],...],...]}
  (plus an optional "window" key for windowed-mode tilings)

Dumps are canonical (sorted keys, fixed separators, trailing newline), so
identical inputs always produce byte-identical files. The dict that
interval_to_obj returns keeps "tiles" as the tiling's CSR view, and the
rows are printed as bytes straight from its arrays, one block of
types._BLOCK (16,384) points at a time in the calling thread: each number
becomes a word holding the text before it and words of eight digits each,
split by multiplying and shifting, and deleting the NUL bytes of those
words leaves the text. rectangle_to_obj returns "paths" as lists, which
json.dumps prints: a rectangle file is a height witness of a few hundred
points at most. write_json streams the chunks into a temporary file in the
target's directory and renames it over the target, so a failed write
leaves the earlier file as it was and no temporary file behind.

read_json reads the "tiles" of an interval file laid out that way, with no
"-", back from the bytes, in pieces of about 16 * types._BLOCK bytes
(256 KB) one after another in the calling thread, after one pass that
counts each piece's commas and row breaks: each piece finds its commas,
tests the bracket byte on each side of each, takes every number's digit
count from the distance between commas, and reads each number from the
word of the file's bytes that ends with it, "0" taken from every byte,
masked to its digits, tested to hold digits only and added up by three
mask, multiply and shift steps straight into the CSR arrays. Second words
and the 2**63 bound are looked at only in a piece that holds a number of
more than 8 digits or one of 19. The scratch memory is bounded by one
piece, not by the file, and the result is the same whatever the piece
size. json.loads parses the small rest of the object, and the whole of any
other file (a rectangle file, rows with a "-", any other layout), which so
reads exactly as before. Either way a point or a header number that is not
a JSON integer is a parse error (PreconditionError), never truncated or
read as 0 or 1.
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

from . import types
from .errors import PreconditionError
from .types import (
    GapSet,
    IntervalTiling,
    Paths,
    RectangleTiling,
    Tiles,
    TilingAnnotations,
    VerificationReport,
    block_spans,
    normalize_steps,
)

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
_BEFORE = (",", "],[", "")
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


def _rows_chunks(tiles: Tiles) -> Iterator[bytes]:
    """The tiles as json.dumps prints them, [[p,...],...], a piece per
    block of points (types.block_spans), in the calling thread.

    A point's place picks the text before it (_BEFORE): it comes within its
    tile (place 0, ","), first in a later tile (2, "],["), or first of all
    (4, nothing).
    """
    n = tiles.values.size
    if n == 0:
        yield b"[]"
        return
    yield b"[["
    for a, b in block_spans(n):
        place = np.zeros(b - a, dtype=np.intp)
        lo, hi = np.searchsorted(tiles.offsets, (a, b))
        place[tiles.offsets[lo:hi] - a] = 2
        if a == 0:
            place[0] = 4
        yield _numbers_bytes(tiles.values[a:b], place)
    yield b"]]"


def _chunks(obj: Any) -> Iterator[bytes]:
    """The canonical JSON of obj, without the trailing newline, as ASCII
    bytes in pieces; a dict holding a Tiles value yields its rows chunk by
    chunk."""
    if isinstance(obj, Tiles):
        yield from _rows_chunks(obj)
    elif isinstance(obj, dict) and any(isinstance(v, Tiles) for v in obj.values()):
        sep = b"{"
        for k in sorted(obj):
            yield sep + json.dumps(k).encode("ascii") + b":"
            yield from _chunks(obj[k])
            sep = b","
        yield b"}"
    else:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON text of obj; a Tiles value prints as its list of rows."""
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

    The "tiles" of an interval file, if laid out as write_json prints them
    with no "-", are read from the bytes straight into a Tiles view, the CSR
    view that interval_to_obj returns too; only the rest of the object goes
    through json.loads. Any other file is read by json.loads alone, a
    rectangle file's "paths" as lists, so every reader gets the value or
    the error json.loads gives.
    """
    data = Path(path).read_bytes()
    obj = _read_tiling(data)
    return _read_plain(data) if obj is None else obj


def _read_plain(data: bytes) -> Any:
    """data as json.loads reads it, for every file the byte pass declines."""
    return json.loads(data.decode("utf-8"))


# A word of eight digit values, the first most significant, is added up in
# lanes twice as wide three times: a multiply by _TENS puts each byte plus
# ten times the byte before it in the byte; a shift, a mask and a multiply
# by _COMBINE's (shift, mask, multiplier) then keep the pairs in every other
# byte and add them into fours, and the fours into the eight, which a last
# shift by 32 leaves in the low half. Every byte of the word must hold a
# digit value or 0.
_TENS, _HALF = np.uint64(10 << 8 | 1), np.uint64(32)
_COMBINE = [tuple(map(np.uint64, step)) for step in (
    (8, 0x00FF00FF00FF00FF, 100 << 16 | 1), (16, 0x0000FFFF0000FFFF, 10_000 << 32 | 1))]
_LEAST = np.array([0, 0, *_POW10[:18]], dtype=np.uint64)  # of d digits, no leading zero


def _read_tiling(data: bytes) -> dict | None:
    """The interval file in data with its "tiles" as a Tiles view, or None
    unless they are laid out as write_json prints them, with no "-".

    The tiles array, from the key to the last "]]" in the file, is cut out
    and "[]" put in its place. The cut is the top-level value of the key:
    the quoted key occurs once in the file, the rest holds no backslash (so
    no escaped spelling of the key either), and json.loads finds the key in
    the top-level object of the rest. _rows_from_bytes accepts the cut only
    as one complete array, so then the file parses as JSON exactly when the
    rest does, with the same value everywhere else.
    """
    name = b'"tiles"'
    cut = data.find(name + b":[")
    if cut < 0:
        return None
    a = cut + len(name) + 1  # the array's "["
    end = a + 2 if data.startswith(b"[]", a) else data.rfind(b"]]") + 2
    if end < a + 2:
        return None
    head, tail = data[:a], data[end:]
    if head.count(name) != 1 or name in tail or b"\\" in head or b"\\" in tail:
        return None
    try:
        obj = json.loads((head + b"[]" + tail).decode("utf-8"))
    except ValueError:
        return None
    if not isinstance(obj, dict) or "tiles" not in obj:
        return None
    rows = _rows_from_bytes(data, a, end)
    if rows is None:
        return None
    obj["tiles"] = rows
    return obj


def _rows_from_bytes(data: bytes, a: int, end: int) -> Tiles | None:
    """The tiles array data[a:end], which ends in "]]", as a Tiles view, or
    None if it is anything but canonical rows of nonnegative int64 values
    that make a valid view.

    Canonical rows hold numbers 0|[1-9][0-9]* split by "," or "],[". So
    every bracket inside the array sits next to a comma, and the commas give
    the bounds of every number. The numbers are read eight digits per word
    of the file's bytes, which checks that every byte of a number is a
    digit; with the commas and the brackets beside them, that accounts for
    every byte, so a "-" anywhere declines the rows.

    The numbers are checked and read in pieces of about 16 * types._BLOCK
    bytes, each cut just after a comma, one after another: the read holds
    one piece's scratch, about 5 times its size, beyond the file and its
    arrays. One pass first fixes the pieces and counts the commas and the
    row breaks ("]" before a comma) of each, which sizes the values and the
    offsets. Then each piece, with a running count of the commas before it:

    - finds its commas;
    - compares the bytes on each side of each comma with "]" and "[", and
      writes its row breaks;
    - takes each number's end from its comma and its digit count from the
      distance to the end before it;
    - reads each number from the word of the file's bytes that ends with
      it: "0" taken from every byte, the bytes before its digits masked
      off, a test that every byte is 0-9, and three mask, multiply and
      shift steps that add the digits up straight into the values. Only a
      piece with a number of more than 8 digits reads a second and third
      word, and only one with a number of 19 checks it against 2**63.

    The bytes beside a comma are read from the whole file, so a seam
    changes nothing: every piece size gives the same view or the same None.
    """
    if end - a == 2:  # "[]"
        return Tiles.from_rows([])
    first, last = a + 2, end - 2  # the numbers and their punctuation
    if not data.startswith(b"[[", a) or first >= last:
        return None
    u = np.frombuffer(data, dtype=np.uint8)
    piece = 16 * types._BLOCK
    pieces = []  # (start, end, commas, row breaks) of each piece
    s = first
    while s < last:
        cut = data.find(b",", s + piece - 1, last)
        e = last if cut < 0 else cut + 1
        pieces.append((s, e, np.count_nonzero(u[s:e] == ord(",")), np.count_nonzero(u[s:e] == ord("]"))))
        s = e
    values = np.empty(sum(p[2] for p in pieces) + 1, dtype=np.int64)
    offsets = np.empty(sum(p[3] for p in pieces) + 2, dtype=np.int64)
    offsets[0], offsets[-1] = 0, values.size
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))  # no copy
    before = rows = 0  # the commas and the row breaks before the piece
    for s, e, count, breaks in pieces:
        c = np.flatnonzero(u[s:e] == ord(","))
        if c.size != count:
            return None
        # "]" closed just before and "[" opened just after each comma
        shut, opened = (u[s + i : e + i].take(c) == ord(b) for i, b in ((-1, "]"), (1, "[")))
        if not np.array_equal(shut, opened):
            return None
        # a row break after each comma that closes a tile
        found = np.flatnonzero(shut)
        if found.size != breaks:
            return None
        np.add(found, before + 1, out=offsets[1 + rows : 1 + rows + breaks])
        rows += breaks
        # each number's end, from s: its comma less the "]" before it, and for the last, `last`
        n = c.size + (e == last)
        x = np.empty(n, dtype=np.int64)
        np.subtract(c, shut, out=x[: c.size])
        if e == last:
            x[-1] = last - s
        # its digits: from the end before it, less the comma and the brackets between
        digits = np.empty_like(x)
        digits[0] = x[0] - (s > first and data[s] == ord("["))  # "[" opens a tile after the piece's seam
        np.subtract(x[1:], x[:-1], out=digits[1:])
        gap = shut[: n - 1] * np.int8(2)
        gap += 1
        digits[1:] -= gap
        if digits.min() < 1:
            return None
        del c, shut, opened, found, gap  # less scratch held by the word loop
        top = int(digits.max())
        if top > 19:
            return None
        mag = values[before : before + n].view(np.uint64)
        if not _read_numbers(words, s, x, digits, top, mag):
            return None
        if (mag < _LEAST.take(digits)).any():
            return None
        if top == 19 and (mag > np.uint64(2**63 - 1)).any():  # only a 19-digit number reaches 2**63
            return None
        del x, digits, mag  # freed before the next piece
        before += count
    try:
        return Tiles(offsets, values)
    except PreconditionError:
        return None


def _read_numbers(
    words: np.ndarray, s: int, x: np.ndarray, digits: np.ndarray, top: int, out: np.ndarray
) -> bool:
    """Reads into out the unsigned numbers of `digits` digits, at most
    `top`, that end at s + x in the file whose little-endian words (words[i]
    the eight bytes from i) are `words`; False if a byte among their digits
    is not a digit.

    Word j of a number ends 8j bytes before it. One that holds a digit
    starts at byte 4 or later, as the rows start after '{"tiles":[['; one
    that holds none is read at byte 0.
    """
    for j in range(-(-top // 8)):
        if top <= 8:
            k, t = digits, words[s - 8 :][x]
        else:
            k = np.clip(digits - 8 * j, 0, 8)
            t = words[np.maximum(x + (s - 8 * (j + 1)), 0)]
        t ^= _THREES  # each digit byte now holds its value
        t &= _HIGH.take(k)  # and each byte before the number's digits 0
        # a byte of 0-9 keeps a high nibble of 0 after adding 6; any other has one before or after
        spare = t + _SIXES
        spare |= t
        if np.bitwise_and(spare, _NIBBLES, out=spare).any():
            return False
        t *= _TENS
        for shift, mask, scale in _COMBINE:
            t >>= shift
            t &= mask
            t *= scale
        np.right_shift(t, _HALF, out=out if j == 0 else t)
        if j > 0:
            t *= np.uint64(10 ** (8 * j))
            out += t
    return True


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
    """The rectangle file's object, its "paths" as lists of [x, y] points."""
    points = np.stack((r.paths.xs, r.paths.ys), axis=1).tolist()
    ends = r.paths.offsets.tolist()
    obj = {
        "kind": "rectangle",
        "width": r.width,
        "height": r.height,
        "step_type": [[[dx, dy], k] for (dx, dy), k in r.step_type],
        "paths": [points[a:b] for a, b in zip(ends, ends[1:])],
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
    non-list where a list belongs, a header number (length, width, height,
    window, a gap_set or step_type entry, an annotation) that is not an
    integer, or a homogeneous_for annotation that is not the gap_set is a
    PreconditionError like any other malformed input.
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
            if count is not None:
                count = _integer(count, "boundary_prefix_count")
                if count < 0:
                    raise PreconditionError(f"boundary_prefix_count must be >= 0, not {count}")
            homogeneous_for = ann_obj.get("homogeneous_for")
            if homogeneous_for is not None:
                homogeneous_for = gap_set_from_obj(homogeneous_for)
                if homogeneous_for != gs:  # verify checks the one gap set
                    raise PreconditionError(
                        f"homogeneous_for {gap_set_to_obj(homogeneous_for)}"
                        f" differs from gap_set {gap_set_to_obj(gs)}"
                    )
            ann = TilingAnnotations(boundary_prefix_count=count, homogeneous_for=homogeneous_for)
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
