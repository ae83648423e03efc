"""Property tests: the canonical dump, printed from the CSR arrays block by
block, is exactly json.dumps of the same tiles as lists, for any int64
values and wherever a block ends; read_json gives the arrays of an interval
file with no "-" back by its byte pass, whatever size the pieces it reads
them in; and any file, canonical or not, reads the same by the byte pass as
by json.loads alone.
Both sizes follow types._BLOCK (a piece is 16 bytes an item), which the
tests patch."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles import serialize, types
from gaptiles.cli import main
from gaptiles.serialize import dumps_canonical, read_json, tiling_from_obj, write_json
from gaptiles.types import INT64_MAX, Tiles

INT64_MIN = -INT64_MAX - 1
SETTINGS = settings(max_examples=150, deadline=None)

values = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(-10_001, 10_001),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 9, 10, 9999, 10_000, INT64_MAX]),
)
# what the byte pass reads: numbers with no "-"
naturals = values.filter(lambda v: v >= 0)
# numbers of 19 digits, the most an int64 has
nineteen = st.integers(10**18, INT64_MAX)


def tiles_of(points):
    return st.lists(st.lists(points, min_size=2, max_size=6, unique=True).map(sorted), max_size=8)


tiles = tiles_of(values)


@st.composite
def paths(draw):
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(values), draw(values)
        row = [[x, y]]
        for _ in range(draw(st.integers(0, 4))):
            dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (3, 11), (10_000, 0)]))
            if x + dx > INT64_MAX or y + dy > INT64_MAX:
                break
            x, y = x + dx, y + dy
            row.append([x, y])
        rows.append(row)
    return rows


def blocks_of(size: int):
    """Blocks of `size` items for every pass: the printer's chunks of `size`
    points and the reader's pieces of about 16 * `size` bytes."""
    return mock.patch.object(types, "_BLOCK", size)


def chunk_sizes(rows):
    """Blocks that end mid-row, at each row's end and at the last point."""
    n = sum(map(len, rows))
    ends = [sum(map(len, rows[: i + 1])) for i in range(len(rows))]
    return sorted({1, 2, 3, max(n, 1), n + 1, 1 << 16, *ends} - {0})


@SETTINGS
@given(tiles)
def test_tiles_print_as_json(rows):
    view = Tiles.from_rows(rows)
    text = json.dumps(rows, separators=(",", ":"))
    for chunk in chunk_sizes(rows):
        with blocks_of(chunk):
            assert dumps_canonical(view) == text + "\n"
    obj = {"kind": "interval", "tiles": view, "length": 1}
    plain = dict(obj, tiles=rows)
    assert dumps_canonical(obj) == json.dumps(plain, sort_keys=True, separators=(",", ":")) + "\n"


def _read_back(obj):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.json"
        write_json(path, obj)
        return read_json(path)


@SETTINGS
@given(tiles_of(naturals))
def test_tiles_read_back_from_bytes(rows):
    view = Tiles.from_rows(rows)
    obj = {"kind": "interval", "length": 1, "gap_set": [[1, 1]], "tiles": view, "annotations": {}}
    back = _read_back(obj)
    assert isinstance(back["tiles"], Tiles)  # the byte pass read it
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


def assert_paths_agree(text: bytes, byte_pass: bool | None = None) -> None:
    """The file reads the same by the byte pass as by json.loads alone, and
    the byte pass reads it, or declines it, as byte_pass says (if given).
    A reader that wrongly declines a file shows only here: json.loads then
    gives the same outcome."""
    if byte_pass is not None:
        assert (serialize._read_tiling(text) is not None) == byte_pass
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


# canonical files
bases = st.one_of(
    st.sampled_from([INTERVAL, RECTANGLE]),
    st.one_of(tiles, tiles_of(naturals)).map(lambda rows: dumps_canonical(
        {"kind": "interval", "length": 8, "gap_set": [[1, 1]], "tiles": Tiles.from_rows(rows)}
    ).encode()),
    paths().map(lambda rows: dumps_canonical(
        {"kind": "rectangle", "width": 2, "height": 2, "step_type": [[[0, 1], 1]],
         "paths": rows}
    ).encode()),
)


@SETTINGS
@given(bases, st.sampled_from([1, 2, 5, 1 << 62]))
def test_canonical_files_are_read_by_the_byte_pass(text, block):
    # exactly the interval files with no "-"; rectangle files go to json.loads
    with blocks_of(block):
        assert_paths_agree(text, byte_pass=b'"kind":"interval"' in text and b"-" not in text)


@st.composite
def spliced(draw):
    """A canonical file with a few bytes replaced by one of SPLICES, or cut short."""
    base = draw(bases)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(base)))
        j = draw(st.integers(i, min(i + 3, len(base))))
        base = base[:i] + draw(st.sampled_from(SPLICES)) + base[j:]
    if draw(st.booleans()):
        base = base[: draw(st.integers(0, len(base)))]
    return base


@settings(max_examples=300, deadline=None)
@given(spliced(), st.sampled_from([1, 2, 5, 1 << 62]))
def test_spliced_files_read_the_same_on_both_paths(text, block):
    with blocks_of(block):
        assert_paths_agree(text)


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


def assert_pieces_agree(text: bytes, canonical: bool = False) -> None:
    """The rows of the file read to the same view, or the same None, in
    pieces of every size as in one piece; to a view if they are canonical."""
    reads = rows_reads(text)
    assert reads or not canonical
    for data, a, end in reads:
        with blocks_of(1 << 62):
            whole = serialize._rows_from_bytes(data, a, end)
        assert whole is not None or not canonical
        for block in range(1, (end - a) // 16 + 2):
            with blocks_of(block):
                got = serialize._rows_from_bytes(data, a, end)
            assert type(got) is type(whole) and got == whole, block


# bracket runs longer than the rows' depth, and after a bare minus sign
BRACKET_RUNS = [b"]]]", b"[[[", b"]]],[[[", b"-]", b"-]]", b"-]]]", b"-]],[-", b"-]]],[[[-"]


@st.composite
def split_rows(draw):
    """A canonical interval file with no "-", its rows left whole or with
    one of SPLICES or BRACKET_RUNS put somewhere inside them, and whether
    they were left whole. Its numbers are at times all of 19 digits: pieces
    of 16 bytes then cut the rows just after every comma."""
    numbers = draw(st.sampled_from([st.one_of(naturals, nineteen), nineteen]))
    few_tiles = st.lists(st.lists(numbers, min_size=2, max_size=4, unique=True).map(sorted), max_size=4)
    key, view = b'"tiles":', Tiles.from_rows(draw(few_tiles))
    obj = {"kind": "interval", "length": 8, "gap_set": [[1, 1]], "tiles": view}
    rows = dumps_canonical(view).encode()[:-1]
    split = rows
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows)))
        j = draw(st.integers(i, min(i + 3, len(rows))))
        split = rows[:i] + draw(st.sampled_from(SPLICES + BRACKET_RUNS)) + rows[j:]
    return dumps_canonical(obj).encode().replace(key + rows, key + split), split == rows


@settings(max_examples=100, deadline=None)
@given(split_rows())
def test_every_piece_size_reads_the_rows_as_one_piece(file):
    text, whole = file
    assert_pieces_agree(text, canonical=whole)


def word_edges() -> list[int]:
    """Numbers of 1, 8, 9, 16, 17 and 19 digits, at the edges of the words
    of eight digits they are read in, of both signs and up to the int64
    bounds."""
    mags = {0}
    for d in (1, 8, 9, 16, 17, 19):
        mags |= {10 ** (d - 1), int("1234567890123456789"[:d]), min(10**d - 1, INT64_MAX - 1)}
    return sorted({sign * m for m in mags for sign in (1, -1)} | {INT64_MIN})


def test_numbers_that_fill_each_word_read_as_json_loads_reads_them(tmp_path):
    path, edges = tmp_path / "t.json", [v for v in word_edges() if v >= 0]
    # each number first in the file, in a piece whose largest number has 19 digits
    for v in edges:
        text = b'{"tiles":[[%d,%d]]}' % (v, INT64_MAX)
        path.write_bytes(text)
        back = read_json(path)["tiles"]
        assert isinstance(back, Tiles) and back == Tiles.from_rows(json.loads(text)["tiles"]), v
    # the numbers side by side, at every block size
    text = dumps_canonical({"tiles": [edges[i : i + 2] for i in range(len(edges) - 1)]}).encode()
    path.write_bytes(text)
    want = Tiles.from_rows(json.loads(text)["tiles"])
    for block in range(1, len(text) // 16 + 2):
        with blocks_of(block):
            back = read_json(path)["tiles"]
        assert isinstance(back, Tiles) and back == want, block
    # each number beside one of 19 digits, which fills a piece of 16 bytes
    # (a block of 1): the piece before each number ends just before it,
    # after "],[" in rows [v, INT64_MAX] and after "," in rows [10**18, v]
    for rows in ([[v, INT64_MAX] for v in edges], [[10**18, v] for v in edges if v > 10**18]):
        path.write_bytes(dumps_canonical({"tiles": rows}).encode())
        for block in (1, 2, 3):
            with blocks_of(block):
                back = read_json(path)["tiles"]
            assert isinstance(back, Tiles) and back == Tiles.from_rows(rows), block


def test_numbers_that_fill_each_word_print_as_json_dumps_prints_them():
    edges = word_edges()
    rows = [edges[i : i + 2] for i in range(len(edges) - 1)]
    text = json.dumps(rows, separators=(",", ":"))
    for chunk in (1, 2, 3, 5, 1 << 62):
        with blocks_of(chunk):
            assert dumps_canonical(Tiles.from_rows(rows)) == text + "\n", chunk


def test_any_byte_in_place_of_a_digit_reads_as_json_loads_reads_it():
    text = b'{"tiles":[[5,%d]]}' % INT64_MAX
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
