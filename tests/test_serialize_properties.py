"""Property tests: the canonical dump, printed from the CSR arrays chunk by
chunk, is exactly json.dumps of the same rows as lists, for any int64
values and wherever a chunk ends; read_json gives the arrays back by its
byte pass; and any file, canonical or not, reads the same by the byte pass
as by json.loads alone."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles import serialize
from gaptiles.cli import main
from gaptiles.serialize import _rows_json, dumps_canonical, read_json, tiling_from_obj, write_json
from gaptiles.types import INT64_MAX, Paths, Tiles

INT64_MIN = -INT64_MAX - 1
SETTINGS = settings(max_examples=150, deadline=None)

values = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(-10_001, 10_001),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 9, 10, 9999, 10_000, INT64_MAX]),
)
tile = st.lists(values, min_size=2, max_size=6, unique=True).map(sorted)
tiles = st.lists(tile, max_size=8)


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
@given(paths())
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
@given(spliced())
def test_spliced_files_read_the_same_on_both_paths(text):
    assert_paths_agree(text)
