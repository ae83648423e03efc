import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from test_serialize_properties import assert_paths_agree, at_width, read_in_pieces_of

from gaptiles import (
    GapSet,
    boundary_base,
    diagonal_stripe_tiling,
    stair_tiling,
    verify_interval_tiling,
    verify_rectangle_tiling,
)
from gaptiles import _chunks, serialize
from gaptiles.serialize import (
    _rows_json,
    dumps_canonical,
    interval_to_obj,
    read_json,
    rectangle_to_obj,
    tiling_from_obj,
    write_json,
)
from gaptiles.types import Paths, Tiles


def test_interval_round_trip_with_annotations():
    st = boundary_base(1, 9, 1, 1)
    obj = interval_to_obj(st.tiling, st.gap_prefix)
    kind, tiling, gaps = tiling_from_obj(obj)
    assert kind == "interval"
    assert tiling == st.tiling
    assert gaps == st.gap_prefix
    assert tiling.annotations.boundary_prefix_count == 1
    assert verify_interval_tiling(tiling, gaps).ok


def test_rectangle_round_trip_uniform():
    rect = stair_tiling(3, 2)
    kind, back, _ = tiling_from_obj(rectangle_to_obj(rect))
    assert kind == "rectangle"
    assert back == rect
    assert verify_rectangle_tiling(back).ok


def test_rectangle_round_trip_windowed():
    rect = diagonal_stripe_tiling(3, 2, 4)
    obj = rectangle_to_obj(rect)
    assert obj["window"] == 5
    _, back, _ = tiling_from_obj(obj)
    assert back == rect
    assert verify_rectangle_tiling(back).ok


def test_canonical_dump_is_stable():
    rect = stair_tiling(2, 2)
    assert dumps_canonical(rectangle_to_obj(rect)) == dumps_canonical(rectangle_to_obj(rect))


def test_homogeneous_annotation_round_trip():
    from gaptiles import homogeneous_base

    st = homogeneous_base(boundary_base(1, 9, 1, 1))
    obj = interval_to_obj(st.tiling, st.gap_prefix)
    _, tiling, _ = tiling_from_obj(obj)
    assert tiling.annotations.homogeneous_for == GapSet.from_pairs([(1, 1), (9, 1)])


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
def test_rows_print_as_json_lists(chunk):
    # The rows are formatted from the CSR arrays; they must read exactly as
    # json.dumps prints the same rows as lists, wherever a chunk ends.
    st = boundary_base(1, 9, 1, 1)
    for rows, lists in [
        (st.tiling.tiles, [list(t.points) for t in st.tiling.tiles]),
        (Tiles.from_rows([]), []),
        (stair_tiling(3, 2).paths, [[list(pt) for pt in p.points] for p in stair_tiling(3, 2).paths]),
        (Paths.from_rows([[(0, 0)], [(1, 0), (1, 1)]]), [[[0, 0]], [[1, 0], [1, 1]]]),
    ]:
        assert _rows_json(rows, chunk) == json.dumps(lists, separators=(",", ":"))


def test_canonical_dump_matches_json_dumps():
    rect = diagonal_stripe_tiling(3, 2, 4)
    obj = rectangle_to_obj(rect)
    plain = dict(obj, paths=[[list(pt) for pt in p.points] for p in rect.paths])
    assert dumps_canonical(obj) == json.dumps(plain, sort_keys=True, separators=(",", ":")) + "\n"


def test_failed_write_leaves_earlier_file_and_no_temporary(tmp_path):
    # write_json streams the rows before the keys after them; a value that
    # cannot be printed, sorted after "tiles", fails once the tiles are out.
    st = boundary_base(1, 9, 1, 1)
    obj = interval_to_obj(st.tiling, st.gap_prefix)
    path = tmp_path / "t.json"
    write_json(path, obj)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, dict(obj, zz=object()))
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["t.json"]
    write_json(tmp_path / "new.json", obj)  # a fresh target is created too
    assert (tmp_path / "new.json").read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["new.json", "t.json"]


def test_failed_write_names_the_target_not_the_temporary(tmp_path):
    missing = tmp_path / "missing" / "t.json"
    with pytest.raises(FileNotFoundError) as info:
        write_json(missing, INTERVAL)
    assert info.value.filename == str(missing) and str(missing) in str(info.value)
    # the replace fails when the target is a directory
    target = tmp_path / "t.json"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_json(target, INTERVAL)
    assert info.value.filename == str(target) and ".tmp" not in str(info.value)
    assert [f.name for f in tmp_path.iterdir()] == ["t.json"]


def test_canonical_files_take_the_byte_pass(tmp_path, monkeypatch):
    # A fall back to json.loads would still read these files right, only
    # slower; the benchmark alone would show it.
    def no_fallback(data):
        raise AssertionError("a canonical file fell back to json.loads")

    monkeypatch.setattr(serialize, "_read_plain", no_fallback)
    st = boundary_base(1, 9, 1, 1)
    for obj in [
        interval_to_obj(st.tiling, st.gap_prefix),
        {"kind": "interval", "length": 1, "gap_set": [[1, 1]], "tiles": Tiles.from_rows([])},
        rectangle_to_obj(stair_tiling(3, 2)),
        rectangle_to_obj(diagonal_stripe_tiling(3, 2, 4)),
    ]:
        write_json(tmp_path / "t.json", obj)
        back = read_json(tmp_path / "t.json")
        assert back == obj and type(back.get("tiles", back.get("paths"))) in (Tiles, Paths)
        assert tiling_from_obj(back) == tiling_from_obj(obj)


INTERVAL = {"annotations": {}, "gap_set": [[1, 1]], "kind": "interval", "length": 4, "tiles": [[0, 1], [2, 3]]}
CANONICAL = json.dumps(INTERVAL, sort_keys=True, separators=(",", ":"))
ROWS = '"tiles":[[0,1],[2,3]]'


def tiles(text: str) -> str:
    return CANONICAL.replace("[[0,1],[2,3]]", text)


def wrapped(text: str) -> str:
    return CANONICAL.replace(ROWS, text)


INTERVAL_FILES = {
    "indented": json.dumps(INTERVAL, indent=1),
    "spaced": json.dumps(INTERVAL),
    "space-between-rows": tiles("[[0,1], [2,3]]"),
    "space-after-bracket": tiles("[ [0,1],[2,3]]"),
    "key-order": json.dumps(dict(reversed(INTERVAL.items())), separators=(",", ":")),
    "also-in-annotations": CANONICAL.replace('"annotations":{}', '"annotations":{' + ROWS + "}"),
    "only-in-annotations": CANONICAL.replace('"annotations":{}', '"annotations":{' + ROWS + "}").replace(
        "," + ROWS, ""
    ),
    "only-nested-last": wrapped('"z":{' + ROWS + "}"),
    "key-in-a-string": CANONICAL.replace('"annotations":{}', '"annotations":{"x":"\\"tiles\\":"}'),
    "twice-longer-last": wrapped('"tiles":[[0,1]],' + ROWS),
    "twice-last-shorter": wrapped(ROWS + ',"tiles":[[0,1]]'),
    "twice-last-null": wrapped(ROWS + ',"tiles":null'),
    "top-level-null-nested-rows": wrapped('"tiles":null,"z":{' + ROWS + "}"),
    "escaped-key-first": wrapped('"til\\u0065s":[[0,1]],' + ROWS),
    "escaped-key-null-nested-rows": wrapped('"til\\u0065s":null,"z":{' + ROWS + "}"),
    "minus-zero": tiles("[[-0,1],[2,3]]"),
    "double-zero": tiles("[[00,1],[2,3]]"),
    "leading-zero": tiles("[[0,01],[2,3]]"),
    "negative-leading-zero": tiles("[[0,1],[2,-03]]"),
    "int64-max": tiles("[[0,1],[2,9223372036854775807]]"),
    "int64-min": tiles("[[-9223372036854775808,1],[2,3]]"),
    "two-to-63": tiles("[[0,1],[2,9223372036854775808]]"),
    "below-int64-min": tiles("[[-9223372036854775809,1],[2,3]]"),
    "20-digits": tiles("[[0,1],[2,10000000000000000000]]"),
    "float": tiles("[[0,1.0],[2,3]]"),
    "exponent": tiles("[[0,1e3],[2,3]]"),
    "null": tiles("[[0,null],[2,3]]"),
    "string": tiles('[[0,"1"],[2,3]]'),
    "empty-row": tiles("[[0,1],[]]"),
    "empty-last-row": tiles("[[0,1],[2,3],[]]"),
    "trailing-comma-in-row": tiles("[[0,1,],[2,3]]"),
    "trailing-comma-after-rows": tiles("[[0,1],[2,3],]"),
    "empty-number": tiles("[[0,1],[2,,3]]"),
    "bare-minus": tiles("[[0,1],[2,-,3]]"),
    "inner-minus": tiles("[[0,1],[2,3-4]]"),
    "double-minus": tiles("[[0,1],[2,--3]]"),
    "minus-then-brackets": tiles("[[0,-]],[-2,3]]"),
    "minus-then-closing-brackets": tiles("[[0,1],[2,-]]]"),
    "number-between-rows": tiles("[[0,1],2,[3,4]]"),
    "first-row-unopened": tiles("[0,1],[2,3]]"),
    "number-before-first-row": tiles("[5[0,1],[2,3]]"),
    "bad-length-and-bad-row": tiles("[[1,0],[2,3]]").replace('"length":4', '"length":4.5'),
    "row-nested-deeper": tiles("[[0,1],[[2,3]]]"),
    "rows-closed-early": tiles("[[0,1]],[[2,3]]"),
    "no-rows": tiles("[]"),
    "other-kind": CANONICAL.replace('"kind":"interval"', '"kind":"rectangle"'),
    "truncated-in-rows": CANONICAL[:-4],
    "truncated-at-end": CANONICAL[:-1],
    "extra-bracket": CANONICAL + "]",
    "inside-a-list": "[" + CANONICAL + "]",
}


@pytest.mark.parametrize("text", list(INTERVAL_FILES.values()), ids=list(INTERVAL_FILES))
def test_reformatted_and_corrupted_files_read_as_json_loads_reads_them(text):
    assert_paths_agree(text.encode("utf-8"))


def paths(text: str, rest: str = "") -> str:
    return '{"height":2,"kind":"rectangle","paths":' + text + ',"step_type":[[[0,1],1]],"width":2' + rest + "}"


RECTANGLE_FILES = {
    "canonical": paths("[[[0,0],[0,1]],[[1,0],[1,1]]]"),
    "single-point-paths": paths("[[[0,0],[0,1]],[[1,0]],[[1,1]]]"),
    "three-coordinates": paths("[[[0,0],[0,1]],[[1,0],[1,1,2]]]"),
    "one-coordinate": paths("[[[0,0],[0,1]],[[1,0],[1]]]"),
    "one-coordinate-points": paths("[[[0],[0],[1],[0]],[[1,0],[1,1]]]"),
    "scalar-points": paths("[[[0,0],[0,1]],[[1,0],1,1]]"),
    "empty-path": paths("[[[0,0],[0,1]],[]]"),
    "minus-zero": paths("[[[0,0],[0,1]],[[1,-0],[1,1]]]"),
    "float-width": paths("[[[0,0],[0,1]],[[1,0],[1,1]]]").replace('"width":2', '"width":2.0'),
    "tiles-key-too": paths("[[[0,0],[0,1]],[[1,0],[1,1]]]", ',"tiles":[[1,0]]'),
    "window": paths("[[[0,0],[0,1]],[[1,0],[1,1]]]", ',"window":1'),
    "extra-bracket": paths("[[[0,0],[0,1]],[[1,0],[1,1]]]]"),
}


@pytest.mark.parametrize("text", list(RECTANGLE_FILES.values()), ids=list(RECTANGLE_FILES))
def test_rectangle_files_read_as_json_loads_reads_them(text):
    assert_paths_agree(text.encode("utf-8"))


@pytest.mark.parametrize(
    "text",
    [*INTERVAL_FILES.values(), *RECTANGLE_FILES.values()],
    ids=[*(f"interval-{k}" for k in INTERVAL_FILES), *(f"rectangle-{k}" for k in RECTANGLE_FILES)],
)
def test_named_files_read_the_same_in_small_pieces(text):
    # pieces of a few bytes put seams beside every "],[" and "]],[["
    for piece in range(1, 9):
        with read_in_pieces_of(piece):
            assert_paths_agree(text.encode("utf-8"))


def many_pieces_file(path, points=1 << 20):
    """A canonical file of tiles of 4 points with 7-digit values, read in
    many pieces: 2**20 points make an 8 MB file."""
    values = np.arange(points, dtype=np.int64) * 8 + 1_000_000
    tiling = Tiles(np.arange(0, values.size + 1, 4), values)
    write_json(path, {"kind": "interval", "length": 9_400_000, "gap_set": [[8, 3]], "tiles": tiling})
    return tiling


def test_reading_holds_little_beyond_the_file_and_its_arrays(tmp_path):
    path = tmp_path / "t.json"
    tiling = many_pieces_file(path)
    assert path.stat().st_size > 16 * serialize._PIECE_BYTES
    for width in (1, _chunks._MAX_WIDTH):
        with at_width(width):
            tracemalloc.start()
            try:
                back = read_json(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert back["tiles"] == tiling
        arrays = back["tiles"].values.nbytes + back["tiles"].offsets.nbytes
        # Reading the rows in one go took about 4.5 times the file's size on
        # top. A piece's scratch is about 8 times its size, and width + 1
        # pieces may be in flight.
        assert peak < path.stat().st_size + arrays + 8 * (width + 1) * serialize._PIECE_BYTES


def test_writing_holds_one_chunks_scratch_and_starts_no_thread(tmp_path, monkeypatch):
    values = np.arange(1 << 20, dtype=np.int64) * 8 + 1_000_000
    obj = {"kind": "interval", "length": 9_400_000, "tiles": Tiles(np.arange(0, values.size + 1, 4), values)}

    def start(self):
        raise AssertionError("a write started a thread")

    with monkeypatch.context() as patch:
        patch.setattr(_chunks, "_width", lambda: _chunks._MAX_WIDTH)  # CPUs to spare
        patch.setattr(threading.Thread, "start", start)
        tracemalloc.start()
        try:
            write_json(tmp_path / "t.json", obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert read_json(tmp_path / "t.json") == obj
    # A chunk of 16,384 of these points holds about 1.5 MB of scratch (words,
    # their bytes, the text); the write holds less than three at once.
    assert peak < 4 << 20


@pytest.mark.parametrize("name", ["a" * 250 + ".json", "\u00e9" * 125 + ".json"])
def test_a_name_of_255_bytes_is_written_with_no_temporary_left(tmp_path, name):
    assert len(os.fsencode(name)) == 255
    path = tmp_path / name
    write_json(path, INTERVAL)
    assert json.loads(path.read_text()) == INTERVAL
    with pytest.raises(TypeError):
        write_json(path, dict(INTERVAL, zz=object()))
    assert [f.name for f in tmp_path.iterdir()] == [name]


@pytest.fixture(scope="module")
def five_pieces(tmp_path_factory):
    path = tmp_path_factory.mktemp("five") / "t.json"
    many_pieces_file(path, 5 * serialize._PIECE_BYTES // 8)
    return path.read_bytes()


@pytest.mark.parametrize("width", [1, 2, _chunks._MAX_WIDTH])
@pytest.mark.parametrize("bad", [b"*", b"01"])
@pytest.mark.parametrize("where", [0.5, 0.99])
def test_a_bad_byte_in_a_later_piece_reads_as_json_loads_reads_it(tmp_path, five_pieces, width, bad, where):
    # the number that starts after the first comma past `where` of the file
    i = five_pieces.index(b",", int(len(five_pieces) * where)) + 1
    assert i > 2 * serialize._PIECE_BYTES
    data = five_pieces[:i] + bad + five_pieces[i + 1 :]
    path = tmp_path / "t.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as want:
        json.loads(data)
    with at_width(width):
        assert serialize._read_tiling(data) is None
        with pytest.raises(type(want.value)) as got:
            read_json(path)
    assert str(got.value) == str(want.value)


def test_a_target_that_is_not_a_regular_file_is_refused(tmp_path):
    fifo = tmp_path / "t.json"
    os.mkfifo(fifo)
    with pytest.raises(FileExistsError) as info:
        write_json(fifo, INTERVAL)
    assert info.value.filename == str(fifo) and "not a regular file" in str(info.value)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [f.name for f in tmp_path.iterdir()] == ["t.json"]
