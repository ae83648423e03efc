"""The block size (types._BLOCK) changes nothing: a construct, which
flattens, checks and prints in blocks, writes the same bytes for every
block size, which read back in pieces to the same tiling, and the gap and
window checks give the same reports for every block size."""

import hashlib
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles import (
    GapSet,
    IntervalTiling,
    RectangleTiling,
    SplitSpec,
    boundary_base,
    construct,
    homogeneous_base,
    homogeneous_step,
    pipeline,
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)
from gaptiles import grid, serialize, types, verify
from gaptiles.cli import main
from gaptiles.types import Paths, Tiles


@pytest.fixture(params=[1, 2, 4])
def width(request, monkeypatch):
    """Blocks of 5 * width items, small enough that a small tiling spans
    many blocks."""
    monkeypatch.setattr(types, "_BLOCK", 5 * request.param)
    return request.param


@contextmanager
def serial():
    """One block per pass, as if the whole tiling were one."""
    with mock.patch.object(types, "_BLOCK", 1 << 62):
        yield


def sha256s(out):
    return [
        hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (out, out.with_suffix(".trace.json"), out.with_suffix(".thresholds.json"))
    ]


def write_construct(out):
    assert main(["construct", "--gaps", "1:1,9:1,2970:1", "--split", "2,1", "--out", str(out)]) == 0
    return sha256s(out)


def test_construct_writes_the_same_bytes_for_every_width_and_chunk(tmp_path, width):
    got = write_construct(tmp_path / "chunked.json")
    back = serialize.read_json(tmp_path / "chunked.json")
    with serial():
        want = write_construct(tmp_path / "serial.json")
        assert back == serialize.read_json(tmp_path / "serial.json")
    assert got == want


def flattened(run):
    """run()'s result and the rectangles the pipeline flattened for it, each
    its column blocks concatenated."""
    rects = []
    real = pipeline.flatten

    def capture(blocks, width):
        rects.append(grid.concat_columns(blocks))
        return real(rects[-1:], width)

    with mock.patch.object(pipeline, "flatten", capture):
        return run(), rects


def nudged(values, offsets):
    """values with the last point of every 37th row one higher."""
    out = values.copy()
    out[offsets[1::37] - 1] += 1
    return out


def moved(rect):
    p = rect.paths
    paths = Paths(p.offsets, p.xs, nudged(p.ys, p.offsets))
    return RectangleTiling(rect.width, rect.height, paths, rect.step_type, rect.window)


@pytest.fixture(scope="module")
def corrupted():
    """(check, args) for corrupted outputs of every kind of check, each with
    violations in many blocks: a construct's interval tiling and final
    rectangle, and a homogeneous step's sequences and windowed rectangle."""
    gs = GapSet.from_gaps([1, 9, 2970])
    result, rects = flattened(lambda: construct(gs, SplitSpec(2, 1)))
    step, steps = flattened(
        lambda: homogeneous_step(homogeneous_base(boundary_base(1, 9, 1, 1)), 3025, 1)
    )
    assert rects[-1].window is None and steps[-1].window is not None
    tiles, seqs = result.tiling.tiles, step.tiling.tiles
    tiles = Tiles(tiles.offsets, nudged(tiles.values, tiles.offsets))
    return (
        (verify_interval_tiling, (IntervalTiling(result.tiling.length, tiles), gs)),
        (
            verify_homogeneous,
            (
                Tiles(seqs.offsets, nudged(seqs.values, seqs.offsets)),
                step.tiling.length,
                step.tiling.annotations.homogeneous_for,
            ),
        ),
        (verify_rectangle_tiling, (moved(rects[-1]),)),
        (verify_rectangle_tiling, (moved(steps[-1]),)),
    )


def test_reports_are_the_same_for_every_width_and_block(corrupted, width):
    kinds = {"GapMismatch", "WindowMismatch", "TypeMismatch"}
    for check, args in corrupted:
        got = check(*args, max_violations=10**6)
        with serial():
            want = check(*args, max_violations=10**6)
        assert got == want
        mismatches = [v for v in want.violations if v.kind in kinds]
        assert len(mismatches) > 3 * types._BLOCK


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    steps=st.lists(st.integers(0, 3), max_size=60),
    width=st.integers(0, 5),
    block=st.integers(1, 9),
)
def test_window_mismatches_are_blind_to_the_block(data, steps, width, block):
    steps = np.array(steps, dtype=np.int64)
    seq = np.concatenate(([7], 7 + np.cumsum(steps)))
    cuts = sorted(data.draw(st.lists(st.integers(0, seq.size), max_size=12)))
    offsets = np.array([0, *cuts, seq.size], dtype=np.int64)
    expected = sorted(data.draw(st.lists(st.integers(0, 3), min_size=width, max_size=width)))
    entries = sorted(Counter(expected).items())
    with serial():
        whole = verify._window_mismatches(offsets, seq, entries)
    with mock.patch.object(types, "_BLOCK", block):
        blocked = verify._window_mismatches(offsets, seq, entries)
    assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))
    naive = [
        (r, o)
        for r, (a, b) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        for o in range(b - a - width)
        if sorted(np.diff(seq[a:b])[o : o + width].tolist()) != expected
    ]
    assert list(zip(*(x.tolist() for x in whole))) == naive
