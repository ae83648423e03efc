"""Property tests: the canonical dump, printed from the CSR arrays chunk by
chunk, is exactly json.dumps of the same rows as lists, for any int64
values and wherever a chunk ends."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles.serialize import _rows_json, dumps_canonical
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
