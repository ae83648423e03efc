"""The chunk map that the row reader runs on: results in order, errors
where their chunk's result would be, at most width + 1 chunks in flight, no
thread left alive once the map ends; the same bytes for every thread count
and printer chunk size; and the gap and window checks, run in blocks, give
the same reports for every block size and thread count."""

import hashlib
import os
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
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
from gaptiles import _chunks, grid, serialize, verify
from gaptiles.cli import main
from gaptiles.types import Paths, Tiles

WIDTHS = [1, 2, _chunks._MAX_WIDTH]
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(params=WIDTHS)
def width(request, monkeypatch):
    monkeypatch.setattr(_chunks, "_width", lambda: request.param)
    return request.param


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunk sizes small enough that a small tiling spans many chunks."""
    monkeypatch.setattr(verify, "_WINDOW_BLOCK", 5)
    monkeypatch.setattr(serialize, "_CHUNK_POINTS", 97)


@contextmanager
def serial():
    """One thread and one chunk per pass, as before the chunk map."""
    with mock.patch.object(_chunks, "_width", lambda: 1), mock.patch.object(
        verify, "_WINDOW_BLOCK", 1 << 62
    ), mock.patch.object(serialize, "_CHUNK_POINTS", 1 << 62):
        yield


def run_python(code, *args, timeout=120):
    """The stdout of `python -c code args` run against this tree's sources."""
    try:
        child = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code), *args],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"the child hung for {timeout} s")
    assert child.returncode == 0, child.stderr
    return child.stdout


def chunk_threads():
    """The names of the live threads of a chunk map."""
    return [t.name for t in threading.enumerate() if t.name.startswith("gaptiles-chunks")]


class TestOrderedMap:
    def test_results_come_in_order(self, width):
        def slow_first(s):
            time.sleep(0.002 * (s % 4 == 0))
            return s * s

        assert list(_chunks.ordered_map(slow_first, range(20))) == [s * s for s in range(20)]

    def test_at_most_width_plus_one_chunks_are_in_flight(self, width):
        started, gate, seen = [], threading.Event(), []

        def fn(s):
            started.append(s)
            if s == 0:
                assert gate.wait(10)
            return s

        def release():
            time.sleep(0.3)
            seen.append(len(started))
            gate.set()

        opener = threading.Thread(target=release)
        opener.start()
        results = _chunks.ordered_map(fn, range(50))
        assert next(results) == 0
        opener.join(10)
        assert not opener.is_alive()
        assert seen[0] == (1 if width == 1 else width + 1)
        assert list(results) == list(range(1, 50))

    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_an_error_is_raised_in_its_chunks_place(self, width, error):
        running, lock = [0], threading.Lock()

        def fn(s):
            with lock:
                running[0] += 1
            try:
                time.sleep(0.001)
                if s in (3, 5):
                    raise error(f"chunk {s}")
                return s
            finally:
                with lock:
                    running[0] -= 1

        results = _chunks.ordered_map(fn, range(40))
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(error, match="chunk 3"):
            next(results)
        assert running[0] == 0
        assert chunk_threads() == []

    def test_a_caller_that_stops_early_leaves_nothing_running(self, width):
        running, lock = [0], threading.Lock()

        def fn(s):
            with lock:
                running[0] += 1
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return s

        results = _chunks.ordered_map(fn, range(40))
        assert next(results) == 0
        del results
        assert running[0] == 0
        assert chunk_threads() == []

    @pytest.mark.parametrize("cpus, starts", [(1, range(30)), (_chunks._MAX_WIDTH, range(1))])
    def test_one_chunk_or_one_cpu_runs_in_the_calling_thread(self, monkeypatch, cpus, starts):
        monkeypatch.setattr(_chunks, "_width", lambda: cpus)
        results = _chunks.ordered_map(lambda s: threading.get_ident(), starts)
        assert type(results) is map
        assert set(results) == {threading.get_ident()}

    def test_the_width_is_the_usable_cpus_up_to_the_cap(self):
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        assert _chunks._width() == min(cpus, _chunks._MAX_WIDTH)


def test_small_outputs_never_import_the_pool(tmp_path):
    """A construct whose passes each fit one chunk imports no executor."""
    code = """
        import sys
        from gaptiles import GapSet, SplitSpec, construct, verify_interval_tiling
        from gaptiles.serialize import interval_to_obj, read_json, tiling_from_obj, write_json

        gs = GapSet.from_gaps([1, 9, 2970])
        write_json(sys.argv[1], interval_to_obj(construct(gs, SplitSpec(2, 1)).tiling, gs))
        _, tiling, _ = tiling_from_obj(read_json(sys.argv[1]))
        assert verify_interval_tiling(tiling, gs).ok
        assert "concurrent.futures" not in sys.modules
        """
    assert run_python(code, str(tmp_path / "t.json")) == ""


def sha256s(out):
    return [
        hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (out, out.with_suffix(".trace.json"), out.with_suffix(".thresholds.json"))
    ]


def write_construct(out):
    assert main(["construct", "--gaps", "1:1,9:1,2970:1", "--split", "2,1", "--out", str(out)]) == 0
    return sha256s(out)


def test_construct_writes_the_same_bytes_for_every_width_and_chunk(tmp_path, width, small_chunks):
    got = write_construct(tmp_path / "chunked.json")
    with serial():
        want = write_construct(tmp_path / "serial.json")
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


def test_reports_are_the_same_for_every_width_and_block(corrupted, width, small_chunks):
    kinds = {"GapMismatch", "WindowMismatch", "TypeMismatch"}
    for check, args in corrupted:
        got = check(*args, max_violations=10**6)
        with serial():
            want = check(*args, max_violations=10**6)
        assert got == want
        mismatches = [v for v in want.violations if v.kind in kinds]
        assert len(mismatches) > 3 * verify._WINDOW_BLOCK


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    steps=st.lists(st.integers(0, 3), max_size=60),
    width=st.integers(0, 5),
    block=st.integers(1, 9),
    threads=st.sampled_from(WIDTHS),
)
def test_window_mismatches_are_blind_to_the_block(data, steps, width, block, threads):
    steps = np.array(steps, dtype=np.int64)
    seq = np.concatenate(([7], 7 + np.cumsum(steps)))
    cuts = sorted(data.draw(st.lists(st.integers(0, seq.size), max_size=12)))
    offsets = np.array([0, *cuts, seq.size], dtype=np.int64)
    expected = sorted(data.draw(st.lists(st.integers(0, 3), min_size=width, max_size=width)))
    entries = sorted(Counter(expected).items())
    with serial():
        whole = verify._window_mismatches(offsets, seq, entries)
    with mock.patch.object(verify, "_WINDOW_BLOCK", block), mock.patch.object(
        _chunks, "_width", lambda: threads
    ):
        blocked = verify._window_mismatches(offsets, seq, entries)
    assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))
    naive = [
        (r, o)
        for r, (a, b) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        for o in range(b - a - width)
        if sorted(np.diff(seq[a:b])[o : o + width].tolist()) != expected
    ]
    assert list(zip(*(x.tolist() for x in whole))) == naive
