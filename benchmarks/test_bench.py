"""Tests of the benchmark's own parts: checker, certificate generator,
expected search answers and tracing.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "tests"))

import certgen  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from make_expected import NAIVE_MAX_LENGTH, naive_confirms, search_instances  # noqa: E402

BASE = np.array(certgen.BASE_GAPS)


def _flat(tiles: np.ndarray):
    return np.arange(0, tiles.size + 1, tiles.shape[1]), tiles.ravel()


def test_block_tilings_tile_the_block():
    for tiling in certgen.BLOCK_TILINGS:
        assert checker.check_interval(certgen.BLOCK_LENGTH, *_flat(tiling), BASE) == []
    assert len({t.tobytes() for t in certgen.BLOCK_TILINGS}) == len(certgen.BLOCK_TILINGS)


def test_generated_certificate_is_a_tiling_and_seeded(tmp_path):
    length, pairs, tiles = certgen.generate(5, dilation=300)
    assert length == 4800 and pairs == [[300, 1], [600, 1], [900, 1]]
    assert checker.check_interval(length, *_flat(tiles), checker.expand_gaps(pairs)) == []
    assert np.array_equal(tiles, certgen.generate(5, dilation=300)[2])
    assert not np.array_equal(tiles, certgen.generate(6, dilation=300)[2])
    path = tmp_path / "c.json"
    path.write_bytes(certgen.to_json_bytes(length, pairs, tiles))
    obj = json.loads(path.read_text())
    assert obj["length"] == length and obj["tiles"] == tiles.tolist()
    header, offsets, values = checker.read_interval_file(path)
    assert header == {"annotations": {}, "gap_set": pairs, "kind": "interval", "length": length}
    assert np.array_equal(offsets, _flat(tiles)[0]) and np.array_equal(values, tiles.ravel())


@pytest.mark.parametrize(
    "kind, message",
    [("swap", "wrong gap multiset"), ("overlap", "covered more than once"), ("hole", "uncovered")],
)
def test_checker_rejects_each_corruption(kind, message):
    length, pairs, tiles = certgen.generate(9, dilation=300)
    bad = certgen.corrupt(tiles, kind, 9)
    assert np.all(np.diff(bad, axis=1) > 0)
    problems = checker.check_interval(length, *_flat(bad), checker.expand_gaps(pairs))
    assert problems and all(message in p for p in problems)


def test_read_interval_file_handles_mixed_tile_sizes(tmp_path):
    tiles = [[0, 3, 7], [1, 2], [4, 5, 6, 8, 10], [9]]
    path = tmp_path / "t.json"
    obj = {"kind": "interval", "length": 11, "tiles": tiles, "gap_set": [[1, 1]]}
    path.write_text(json.dumps(obj, separators=(",", ":")))
    header, offsets, values = checker.read_interval_file(path)
    assert header == {"kind": "interval", "length": 11, "gap_set": [[1, 1]]}
    assert offsets.tolist() == [0, 3, 5, 10, 11]
    assert values.tolist() == [p for t in tiles for p in t]


def test_checker_homogeneous_and_rectangle():
    from gaptiles.grid import stair_tiling
    from gaptiles.pipeline import boundary_base, homogeneous_base

    state = homogeneous_base(boundary_base(1, 9, 1, 1))
    rows = [list(t.points) for t in state.tiling.tiles]
    gaps = np.array([1, 9])
    assert checker.check_homogeneous(state.tiling.length, *checker.csr_from_rows(rows), gaps) == []
    long = max(range(len(rows)), key=lambda i: len(rows[i]))
    rows[long][-1] += 1  # the last window of the long sequence gets a wrong gap
    assert checker.check_homogeneous(state.tiling.length, *checker.csr_from_rows(rows), gaps)

    stair = stair_tiling(2, 3)
    paths = [p.points for p in stair.paths]
    assert checker.check_rectangle(stair.width, stair.height, paths, 2, 3) == []
    assert checker.check_rectangle(stair.width, stair.height, paths[1:], 2, 3)
    assert checker.check_rectangle(stair.width, stair.height, paths, 3, 2)


class SmallVerifyFile(workloads.VerifyFile):
    dilation = 300
    output_points = 4800


def test_stub_verifier_makes_verify_file_fail(tmp_path, monkeypatch):
    import gaptiles.verify
    from gaptiles.types import VerificationReport

    clean = run.measure(SmallVerifyFile(), seed=2, seconds=0.1, trace=False, workdir=tmp_path / "a")
    assert clean["failed"] == 0 and clean["attempted"] >= 4
    monkeypatch.setattr(gaptiles.verify, "verify_interval_tiling", lambda *a, **k: VerificationReport(True, ()))
    stub = run.measure(SmallVerifyFile(), seed=2, seconds=0.1, trace=False, workdir=tmp_path / "b")
    assert stub["failed"] == 3 and stub["failed"] / stub["attempted"] > 0


def test_expected_short_lengths_agree_with_naive_oracle():
    expected = json.loads((HERE / "expected_search.json").read_text())
    assert len(expected["min_length"]) == 209
    assert sorted(k for k, v in expected["min_length"].items() if v is None) == ["5:1,6:3", "5:3,6:1"]
    assert sorted(expected["fvalues"]) == sorted(f"{k},{l},{m}" for k, l, m in search_instances())
    short = {k: v for k, v in expected["min_length"].items() if v is not None and v <= NAIVE_MAX_LENGTH}
    assert len(short) > 20
    for name, n in short.items():
        gaps = tuple(d for part in name.split(",") for d, k in [map(int, part.split(":"))] for _ in range(k))
        assert naive_confirms(gaps, n), name


def test_tracing_accounts_for_the_call_and_restores_patches(tmp_path):
    import gaptiles.cli
    import gaptiles.pipeline
    from gaptiles.types import Tile

    original = (gaptiles.pipeline.flatten, Tile.__post_init__)
    tracer = tracing.Tracer()
    with tracer.installed():
        code = gaptiles.cli.main(["construct", "--gaps", "1:1,9:1,2970:1", "--split", "2,1",
                                  "--out", str(tmp_path / "t.json")])
    assert code == 0
    assert (gaptiles.pipeline.flatten, Tile.__post_init__) == original
    m = tracer.layer_metrics(output_points=json.loads((tmp_path / "t.json").read_text())["length"])
    run_level = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.layer_share",
                 "trace.calibration_s"}
    assert set(m) | run_level == set(run.PER_LAYER)
    root = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in root] == ["cli.main"]
    assert m["trace.layer_self_s"] == pytest.approx(root[0][2] - root[0][1])
    assert m["verify.passes_per_output_point"] > 2.9
    assert m["types.tiles_built"] > 0 and m["serialize.bytes_written"] > 0
