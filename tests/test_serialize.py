import json

import pytest

from gaptiles import (
    GapSet,
    boundary_base,
    diagonal_stripe_tiling,
    stair_tiling,
    verify_interval_tiling,
    verify_rectangle_tiling,
)
from gaptiles.serialize import (
    _rows_json,
    dumps_canonical,
    interval_to_obj,
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
