"""Property tests: the canonical dump, printed from the CSR arrays chunk by
chunk, is exactly json.dumps of the same rows as lists, for any int64
values and wherever a chunk ends; read_json gives the arrays back by its
byte pass, whatever size the pieces it reads them in and however many
threads of the chunk map read them; and any file, canonical or not, reads
the same by the byte pass as by json.loads alone."""

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles import _chunks, serialize
from gaptiles.cli import main
from gaptiles.serialize import _rows_json, dumps_canonical, read_json, tiling_from_obj, write_json
from gaptiles.types import INT64_MAX, Paths, Tiles

INT64_MIN = -INT64_MAX - 1
SETTINGS = settings(max_examples=150, deadline=None)
# Pool widths the seam properties are read at, whatever CPUs the host has.
WIDTHS = st.sampled_from([1, 2, _chunks._MAX_WIDTH])


def at_width(width: int):
    """Chunk maps on `width` threads, as if the host had that many CPUs."""
    return mock.patch.object(_chunks, "_width", lambda: width)


values = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(-10_001, 10_001),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 9, 10, 9999, 10_000, INT64_MAX]),
)
# magnitudes of 19 digits, the most an int64 has, of either sign
nineteen = st.integers(10**18, INT64_MAX).flatmap(lambda m: st.sampled_from([m, -m]))
wide = st.one_of(values, nineteen, st.sampled_from([INT64_MIN, INT64_MAX]))
tile = st.lists(values, min_size=2, max_size=6, unique=True).map(sorted)
tiles = st.lists(tile, max_size=8)


@st.composite
def paths(draw, coords=values):
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(coords), draw(coords)
        row = [[x, y]]
        for _ in range(draw(st.integers(0, 4))):
            dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (3, 11), (10_000, 0)]))
            if x + dx > INT64_MAX or y + dy > INT64_MAX:
                break
            x, y = x + dx, y + dy
            row.append([x, y])
        rows.append(row)
    return rows


def chunk_sizes(rows):
    """Chunks that end mid-row, at each row's end and at the last point."""
    n = sum(map(len, rows))
    ends = [sum(map(len, rows[: i + 1])) for i in range(len(rows))]
    return sorted({1, 2, 3, max(n, 1), n + 1, 1 << 16, *ends} - {0})


@SETTINGS
@given(tiles)
def test_tiles_print_as_json(rows):
    view = Tiles.from_rows(rows)
    text = json.dumps(rows, separators=(",", ":"))
    for chunk in chunk_sizes(rows):
        assert _rows_json(view, chunk) == text
    obj = {"kind": "interval", "tiles": view, "length": 1}
    plain = dict(obj, tiles=rows)
    assert dumps_canonical(obj) == json.dumps(plain, sort_keys=True, separators=(",", ":")) + "\n"


@SETTINGS
@given(st.one_of(paths(), paths(wide)))
def test_paths_print_as_json(rows):
    view = Paths.from_rows(rows)
    text = json.dumps(rows, separators=(",", ":"))
    for chunk in chunk_sizes(rows):
        assert _rows_json(view, chunk) == text
    obj = {"paths": view, "width": 2, "window": None}
    plain = dict(obj, paths=rows)
    assert dumps_canonical(obj) == json.dumps(plain, sort_keys=True, separators=(",", ":")) + "\n"


def _read_back(obj):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.json"
        write_json(path, obj)
        return read_json(path)


@SETTINGS
@given(tiles)
def test_tiles_read_back_from_bytes(rows):
    view = Tiles.from_rows(rows)
    obj = {"kind": "interval", "length": 1, "gap_set": [[1, 1]], "tiles": view, "annotations": {}}
    back = _read_back(obj)
    assert isinstance(back["tiles"], Tiles)  # the byte pass read it
    assert back == obj


@SETTINGS
@given(paths())
def test_paths_read_back_from_bytes(rows):
    view = Paths.from_rows(rows)
    obj = {"kind": "rectangle", "width": 2, "height": 1, "step_type": [[[1, 0], 1]], "paths": view}
    back = _read_back(obj)
    assert isinstance(back["paths"], Paths)
    assert back == obj


def outcome(path):
    """What tiling_from_obj(read_json(path)) gives (its value or its error
    type), and what `gaptiles verify` returns and prints for the file."""
    try:
        value = tiling_from_obj(read_json(path))
    except Exception as exc:
        value = type(exc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["verify", str(path)])
        except Exception as exc:
            code = type(exc)
    return value, code, out.getvalue(), err.getvalue()


def assert_paths_agree(text: bytes) -> None:
    """The file reads the same by the byte pass as by json.loads alone."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.json"
        path.write_bytes(text)
        byte_pass = outcome(path)
        with mock.patch.object(serialize, "_read_tiling", lambda data: None):
            plain = outcome(path)
    assert byte_pass == plain


INTERVAL = b'{"annotations":{},"gap_set":[[1,1]],"kind":"interval","length":4,"tiles":[[0,1],[2,3]]}\n'
RECTANGLE = b'{"height":2,"kind":"rectangle","paths":[[[0,0],[0,1]],[[1,0],[1,1]]],"step_type":[[[0,1],1]],"width":2}\n'
# Tokens that break the canonical layout in one way or another, and some that do not.
SPLICES = [
    b"-0", b"00", b"01", b"-01", b"1.0", b"1e3", b"null", b'"1"', b"true", b"false", b"-", b"",
    b"9223372036854775807", b"9223372036854775808", b"-9223372036854775808", b"-9223372036854775809",
    b"999999999999999999", b"9999999999999999999", b"10000000000000000000",
    b",", b"[", b"]", b"],[", b"]],[[", b"[]", b"[[]]", b" ", b"\n", b"\\", b'"tiles":[[0,1]],',
    b'"paths":[[[0,0]]],', b'"tiles"', b"}", b"{",
    # the bytes on each side of "0"-"9", a plus sign and a digit that is not ASCII
    b"/", b":", b"+1", "¹".encode(),
]


@st.composite
def spliced(draw):
    """A canonical file with a few bytes replaced by one of SPLICES, or cut short."""
    base = draw(
        st.one_of(
            st.sampled_from([INTERVAL, RECTANGLE]),
            tiles.map(lambda rows: dumps_canonical(
                {"kind": "interval", "length": 8, "gap_set": [[1, 1]], "tiles": Tiles.from_rows(rows)}
            ).encode()),
            paths().map(lambda rows: dumps_canonical(
                {"kind": "rectangle", "width": 2, "height": 2, "step_type": [[[0, 1], 1]],
                 "paths": Paths.from_rows(rows)}
            ).encode()),
        )
    )
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(base)))
        j = draw(st.integers(i, min(i + 3, len(base))))
        base = base[:i] + draw(st.sampled_from(SPLICES)) + base[j:]
    if draw(st.booleans()):
        base = base[: draw(st.integers(0, len(base)))]
    return base


@settings(max_examples=300, deadline=None)
@given(spliced(), WIDTHS, st.sampled_from([1, 2, 5, serialize._PIECE_BYTES]))
def test_spliced_files_read_the_same_on_both_paths(text, width, piece):
    with at_width(width), read_in_pieces_of(piece), switching_often():
        assert_paths_agree(text)


@contextlib.contextmanager
def switching_often():
    """Threads that switch every microsecond, so that pieces read side by
    side interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def rows_reads(text: bytes) -> list[tuple]:
    """The arguments that read_json's byte pass gives _rows_from_bytes for
    the file text: none if it declines the file before the rows."""
    calls = []
    real = serialize._rows_from_bytes

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(serialize, "_rows_from_bytes", spy):
        serialize._read_tiling(text)
    return calls


def assert_pieces_agree(text: bytes, sizes=None) -> None:
    """The rows of the file read to the same view, or the same None, in
    pieces of every size (of each of `sizes`) as in one piece."""
    for data, a, end, depth in rows_reads(text):
        whole = serialize._rows_from_bytes(data, a, end, depth, end - a)
        for piece in sizes or range(1, end - a + 2):
            got = serialize._rows_from_bytes(data, a, end, depth, piece)
            assert type(got) is type(whole) and got == whole, piece


few_tiles = st.lists(st.lists(wide, min_size=2, max_size=4, unique=True).map(sorted), max_size=4)


# bracket runs longer than the rows' depth, and after a bare minus sign
BRACKET_RUNS = [b"]]]", b"[[[", b"]]],[[[", b"-]", b"-]]", b"-]]]", b"-]],[-", b"-]]],[[[-"]


@st.composite
def split_rows(draw):
    """A canonical interval or rectangle file, its rows left whole or with
    one of SPLICES or BRACKET_RUNS put somewhere inside them."""
    if draw(st.booleans()):
        key, view = b'"tiles":', Tiles.from_rows(draw(few_tiles))
        obj = {"kind": "interval", "length": 8, "gap_set": [[1, 1]], "tiles": view}
    else:
        key, view = b'"paths":', Paths.from_rows(draw(paths(wide).filter(lambda rows: len(rows) <= 3)))
        obj = {"kind": "rectangle", "width": 2, "height": 2, "step_type": [[[0, 1], 1]], "paths": view}
    rows = _rows_json(view).encode()
    split = rows
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows)))
        j = draw(st.integers(i, min(i + 3, len(rows))))
        split = rows[:i] + draw(st.sampled_from(SPLICES + BRACKET_RUNS)) + rows[j:]
    return dumps_canonical(obj).encode().replace(key + rows, key + split)


@settings(max_examples=100, deadline=None)
@given(split_rows(), WIDTHS)
def test_every_piece_size_reads_the_rows_as_one_piece(text, width):
    with at_width(width):
        assert_pieces_agree(text)


def read_in_pieces_of(piece: int):
    """read_json with the rows read in pieces of `piece` bytes."""
    real = serialize._rows_from_bytes
    return mock.patch.object(serialize, "_rows_from_bytes", functools.partial(real, piece=piece))


def word_edges() -> list[int]:
    """Numbers of 1, 8, 9, 16, 17 and 19 digits, at the edges of the words
    of eight digits they are read in, of both signs and up to the int64
    bounds."""
    mags = {0}
    for d in (1, 8, 9, 16, 17, 19):
        mags |= {10 ** (d - 1), int("1234567890123456789"[:d]), min(10**d - 1, INT64_MAX - 1)}
    return sorted({sign * m for m in mags for sign in (1, -1)} | {INT64_MIN})


def test_numbers_that_fill_each_word_read_as_json_loads_reads_them(tmp_path):
    path, edges = tmp_path / "t.json", word_edges()
    # each number first in the file, in a piece whose largest number has 19 digits
    for v in edges:
        text = b'{"tiles":[[%d,%d]]}' % (v, INT64_MAX)
        path.write_bytes(text)
        back = read_json(path)["tiles"]
        assert isinstance(back, Tiles) and back == Tiles.from_rows(json.loads(text)["tiles"]), v
    # each number at a piece's start and at its end, at every piece size
    text = dumps_canonical({"tiles": [edges[i : i + 2] for i in range(len(edges) - 1)]}).encode()
    path.write_bytes(text)
    want = Tiles.from_rows(json.loads(text)["tiles"])
    for piece in range(1, len(text)):
        with read_in_pieces_of(piece):
            back = read_json(path)["tiles"]
        assert isinstance(back, Tiles) and back == want, piece


def test_numbers_that_fill_each_word_print_as_json_dumps_prints_them():
    edges = word_edges()
    m = len(edges) - 1
    tiles = [edges[i : i + 2] for i in range(m)]
    # each number as a path's first and later x and y, beside numbers of other widths
    paths = [[[edges[i], edges[m - 1 - i]], [edges[i + 1], edges[m - i]]] for i in range(m)]
    for view, rows in ((Tiles.from_rows(tiles), tiles), (Paths.from_rows(paths), paths)):
        text = json.dumps(rows, separators=(",", ":"))
        for chunk in (1, 2, 3, serialize._CHUNK_POINTS):
            assert _rows_json(view, chunk) == text, chunk


def test_any_byte_in_place_of_a_digit_reads_as_json_loads_reads_it():
    text = b'{"tiles":[[-5,%d]]}' % INT64_MAX
    # the digit of a number in one word, and each digit of one in three
    for i in (text.index(b"5"), *range(text.index(b"922"), text.index(b"]]"))):
        for byte in range(256):
            spliced = text[:i] + bytes([byte]) + text[i + 1 :]
            try:
                want = Tiles.from_rows(json.loads(spliced)["tiles"])
            except ValueError:  # not JSON, or not a tiling's rows
                want = None
            got = serialize._read_tiling(spliced)
            assert got is None or got["tiles"] == want, (i, byte)
