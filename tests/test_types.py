import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gaptiles
from gaptiles import GapSet, LatticePath, SplitSpec, Tile
from gaptiles.errors import PreconditionError


# A tile's gap multiset is GapSet.from_gaps of its consecutive differences.


def test_gap_multiset_direct_differences():
    assert GapSet.from_gaps(Tile((0, 1, 3)).gaps()).entries == ((1, 1), (2, 1))
    assert GapSet.from_gaps(Tile((0, 2, 3, 5)).gaps()).entries == ((1, 1), (2, 2))


def test_gap_multiset_three_distinct():
    # x-projection tile of a homogeneous sequence with gaps 1, 2, 4
    assert GapSet.from_gaps(Tile((0, 1, 3, 7)).gaps()).entries == ((1, 1), (2, 1), (4, 1))


def test_gap_multiset_total_multiplicity_is_points_minus_one():
    for pts in [(0, 1), (0, 5, 6, 11), (3, 4, 8, 9, 17)]:
        t = Tile(pts)
        assert GapSet.from_gaps(t.gaps()).size() == len(pts) - 1


def test_gap_set_normalization_merges_duplicates():
    gs = GapSet.from_pairs([(2, 1), (1, 1), (2, 1)])
    assert gs.entries == ((1, 1), (2, 2))
    assert gs.expand() == (1, 2, 2)
    assert gs.size() == 3
    assert gs.points_per_tile() == 4
    assert str(gs) == "1:1,2:2"


def test_gap_set_rejects_bad_entries():
    with pytest.raises(PreconditionError):
        GapSet(())
    with pytest.raises(PreconditionError):
        GapSet(((0, 1),))
    with pytest.raises(PreconditionError):
        GapSet(((2, 1), (1, 1)))  # unsorted
    with pytest.raises(PreconditionError):
        GapSet(((1, 0),))


def test_gap_set_with_entry_rejects_duplicate_distance():
    gs = GapSet.from_pairs([(1, 1), (9, 1)])
    with pytest.raises(PreconditionError):
        gs.with_entry(9, 2)
    assert gs.with_entry(50, 3).entries == ((1, 1), (9, 1), (50, 3))


def test_tile_invariants():
    with pytest.raises(PreconditionError):
        Tile((5,))
    with pytest.raises(PreconditionError):
        Tile((1, 1))
    with pytest.raises(PreconditionError):
        Tile((3, 2))
    assert Tile((0, 4, 5)).gaps() == (4, 1)


def test_lattice_path_invariants():
    with pytest.raises(PreconditionError):
        LatticePath(((0, 0), (0, 0)))
    with pytest.raises(PreconditionError):
        LatticePath(((1, 1), (0, 2)))
    p = LatticePath(((0, 0), (2, 0), (2, 3)))
    assert p.steps() == ((2, 0), (0, 3))


def test_split_spec_bounds():
    with pytest.raises(PreconditionError):
        SplitSpec(1, 0)
    with pytest.raises(PreconditionError):
        SplitSpec(2, -1)
    assert SplitSpec(2, 0).s == 2


def test_csr_views_build_elements_only_when_read(monkeypatch):
    from gaptiles import concat_columns, flatten, stair_tiling

    built = []
    init = LatticePath.__post_init__
    monkeypatch.setattr(LatticePath, "__post_init__", lambda self: built.append(1) or init(self))
    stair = stair_tiling(3, 4)
    rect = concat_columns([stair] * 1000)
    assert len(rect.paths) == 5000 and built == []
    assert rect.paths[-1].points[-1] == (7999, 4) and built == [1]
    assert rect == concat_columns([stair] * 1000) and rect != concat_columns([stair] * 999)
    tiling = flatten(rect, rect.width)
    assert len(tiling.tiles) == 5000 and tiling.tiles[0] == Tile((0, 8000, 16000, 24000, 32000, 32001, 32002, 32003))


def test_csr_views_reject_what_the_element_types_reject():
    import numpy as np

    from gaptiles.types import Paths, Tiles

    assert list(Tiles(np.array([0, 2, 5]), np.array([0, 3, 1, 2, 4]))) == [Tile((0, 3)), Tile((1, 2, 4))]
    with pytest.raises(PreconditionError):
        Tiles(np.array([0, 1, 3]), np.array([5, 1, 2]))  # a one-point tile
    with pytest.raises(PreconditionError):
        Tiles(np.array([0, 3]), np.array([1, 3, 3]))  # not strictly increasing
    with pytest.raises(PreconditionError):
        Tiles(np.array([0, 2]), np.array([1, 3, 4]))  # offsets do not end at the point count
    with pytest.raises(PreconditionError):
        Tiles.from_rows([[0, 2**63]])
    assert Paths.from_rows([[(0, 0), (1, 0)], [(5, 5)]])[1] == LatticePath(((5, 5),))
    with pytest.raises(PreconditionError):
        Paths.from_rows([[(0, 0), (0, 0)]])
    with pytest.raises(PreconditionError):
        Paths.from_rows([[(1, 1), (0, 2)]])
    with pytest.raises(PreconditionError):
        Paths(np.array([0, 0, 1]), np.array([0]), np.array([0]))  # an empty path


def test_package_names_resolve_on_first_use(tmp_path):
    """Every name in gaptiles.__all__ and every submodule is reachable from
    the package, and reading and checking a file loads no pipeline."""
    code = """
        import sys
        import gaptiles.serialize, gaptiles.verify

        for module in ("pipeline", "grid", "oracle", "conditions"):
            assert f"gaptiles.{module}" not in sys.modules, module
        assert gaptiles.render.__name__ == "gaptiles.render"
        for name in gaptiles.__all__:
            getattr(gaptiles, name)
        assert callable(gaptiles.grid.flatten)
        assert gaptiles.flatten is gaptiles.grid.flatten
        assert not hasattr(gaptiles, "no_such_name")
        namespace = {}
        exec("from gaptiles import *", namespace)
        assert {"construct", "grid", "verify"} <= namespace.keys()
        """
    env = {**os.environ, "PYTHONPATH": str(Path(gaptiles.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
