"""Fault injection: a stage whose assembled rectangle is corrupted before it
is flattened raises VerificationFailed and never returns a tiling.

Each stage checks only its flattened output, over a bounds-checked flatten.
These tests show that the corruptions a rectangle check catches are still
caught: a point moved to the position that flattens to the same value, a
point covered twice, a point dropped, and two steps of a path swapped.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaptiles import (
    GapSet,
    Paths,
    RectangleTiling,
    SplitSpec,
    boundary_base,
    boundary_step,
    construct,
    homogeneous_base,
    homogeneous_step,
    pipeline,
    thresholds,
    verify_rectangle_tiling,
)
from gaptiles.errors import VerificationFailed

SETTINGS = settings(max_examples=120, deadline=None)


def _arrays(rect: RectangleTiling):
    p = rect.paths
    return p.offsets.copy(), p.xs.copy(), p.ys.copy()


def _rebuilt(rect: RectangleTiling, offsets, xs, ys) -> RectangleTiling:
    return RectangleTiling(rect.width, rect.height, Paths(offsets, xs, ys), rect.step_type, rect.window)


def _draw_index(data, n: int) -> int:
    assume(n > 0)
    return data.draw(st.integers(0, n - 1))


def alias(rect, data):
    """Move a path's last point (x, y) to (x + d, y - 1), or its first point
    to (x - d, y + 1): outside the rectangle, on the same flattened value."""
    offsets, xs, ys = _arrays(rect)
    first, last = offsets[:-1], offsets[1:] - 1
    long = last > first
    first, last = first[long], last[long]
    downs = last[ys[last] > ys[last - 1]]  # entered by a climbing step
    ups = first[ys[first + 1] > ys[first]]  # left by a climbing step
    moves = [(int(i), rect.width, -1) for i in downs] + [(int(i), -rect.width, 1) for i in ups]
    i, dx, dy = moves[_draw_index(data, len(moves))]
    xs[i] += dx
    ys[i] += dy
    return _rebuilt(rect, offsets, xs, ys)


def duplicate(rect, data):
    """Extend a path by the point right of or above its end, which another
    path covers."""
    offsets, xs, ys = _arrays(rect)
    dx, dy = data.draw(st.sampled_from([(1, 0), (0, 1)]))
    ends = offsets[1:] - 1
    fits = np.flatnonzero((xs[ends] + dx < rect.width) & (ys[ends] + dy < rect.height))
    path = int(fits[_draw_index(data, fits.size)])
    end = int(ends[path])
    xs = np.insert(xs, end + 1, xs[end] + dx)
    ys = np.insert(ys, end + 1, ys[end] + dy)
    offsets[path + 1 :] += 1
    return _rebuilt(rect, offsets, xs, ys)


def drop(rect, data):
    """Remove one point from a path of at least two points."""
    offsets, xs, ys = _arrays(rect)
    i = _draw_index(data, xs.size)
    path = int(np.searchsorted(offsets, i, side="right")) - 1
    assume(offsets[path + 1] - offsets[path] >= 2)
    offsets[path + 1 :] -= 1
    return _rebuilt(rect, offsets, np.delete(xs, i), np.delete(ys, i))


def swap(rect, data):
    """Swap two different steps of one path: its step multiset is kept and
    the points between them move."""
    offsets, xs, ys = _arrays(rect)
    path = _draw_index(data, offsets.size - 1)
    a, b = int(offsets[path]), int(offsets[path + 1])
    steps = np.column_stack((np.diff(xs[a:b]), np.diff(ys[a:b])))
    j = _draw_index(data, len(steps))
    others = np.flatnonzero((steps != steps[j]).any(axis=1))
    k = int(others[_draw_index(data, others.size)])
    steps[[j, k]] = steps[[k, j]]
    xs[a + 1 : b] = xs[a] + np.cumsum(steps[:, 0])
    ys[a + 1 : b] = ys[a] + np.cumsum(steps[:, 1])
    return _rebuilt(rect, offsets, xs, ys)


CORRUPTIONS = {"alias": alias, "duplicate": duplicate, "drop": drop, "swap": swap}


@st.composite
def pipeline_runs(draw, table):
    """(run, flatten calls) for a construct of a small constructible gap set
    at split (2, 0) or (2, 1)."""
    d1, k1 = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    p = draw(st.integers(0, 1))
    k2 = 1 if p else draw(st.integers(1, 3))
    d2 = d1 * (k1 + k2 + 1) ** 2 + draw(st.integers(0, 3))
    pairs = [(d1, k1), (d2, k2)]
    split = SplitSpec(2, p)
    if p:
        prefix = GapSet.from_pairs(pairs)
        required = thresholds(prefix, split, table).rows[-1].required
        pairs.append((required + draw(st.integers(0, 20)), draw(st.integers(1, 2))))
    gaps = GapSet.from_pairs(pairs)
    return (lambda: construct(gaps, split, table)), 1 + p


STEP_RUNS = {
    # boundary_base flattens once, then the step under test
    "boundary-step": lambda d, table: boundary_step(boundary_base(1, 16, 2, 1, table), d, 1, table),
    "homogeneous-step": lambda d, table: homogeneous_step(
        homogeneous_base(boundary_base(1, 9, 1, 1, table)), d, 1, table
    ),
}


def _assert_caught(run, target: int, corrupt, data) -> None:
    real = pipeline.flatten
    calls = []

    def flatten(rect, width):
        if len(calls) == target:
            rect = corrupt(rect, data)
            # the fault is real: the rectangle check would have caught it
            assert not verify_rectangle_tiling(rect).ok
        calls.append(width)
        return real(rect, width)

    with mock.patch.object(pipeline, "flatten", flatten):
        with pytest.raises(VerificationFailed):
            run()
    assert len(calls) == target + 1


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(CORRUPTIONS)))
def test_corrupted_construct_rectangle_never_yields_a_tiling(data, kind, table):
    run, flattens = data.draw(pipeline_runs(table))
    target = data.draw(st.integers(0, flattens - 1))
    _assert_caught(run, target, CORRUPTIONS[kind], data)


@SETTINGS
@given(
    data=st.data(),
    kind=st.sampled_from(sorted(CORRUPTIONS)),
    stage=st.sampled_from(sorted(STEP_RUNS)),
    extra=st.integers(0, 1),
)
def test_corrupted_step_rectangle_never_yields_a_tiling(data, kind, stage, extra, table):
    # extra = 1 puts both block widths into the step's rectangle
    d = {"boundary-step": 4225, "homogeneous-step": 3025}[stage] + extra
    _assert_caught(lambda: STEP_RUNS[stage](d, table), 1, CORRUPTIONS[kind], data)



def test_blocks_out_of_order_break_the_boundary_prefix(monkeypatch):
    # With the staircase blocks left of the narrow ones the rectangle is still
    # tiled, but the tile ending at the last point no longer starts with a d1 gap.
    real = pipeline.concat_columns
    monkeypatch.setattr(pipeline, "concat_columns", lambda blocks: real(blocks[::-1]))
    with pytest.raises(VerificationFailed, match="BoundaryPrefixViolation"):
        boundary_base(1, 10, 1, 1)
