"""flatten of column blocks against a reference written here: the blocks
concatenated with concat_columns, every point mapped to x + y*W, and the
paths stably sorted by first point.

Blocks are drawn from one family that shares a step type and a window (so
that concat_columns takes them): staircases and minimal-height witnesses of
one (k, l), or diagonal stripes of one (n, kv), stacked to a common height.
A draw repeats block objects, in runs and apart, mixes in content-equal
distinct objects, and may add a block whose paths start at one point twice,
which pins the order of tied first points.
"""

from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles import (
    Paths,
    RectangleTiling,
    concat_columns,
    diagonal_stripe_tiling,
    flatten,
    min_height_rect,
    stack_to_height,
    stair_tiling,
)
from gaptiles.errors import PreconditionError
from gaptiles.types import offsets_from_sizes

SETTINGS = settings(max_examples=150, deadline=None)


def reference(blocks, width):
    """(offsets, values) of the concatenated blocks, flattened and stably
    sorted by first point."""
    p = concat_columns(blocks).paths
    values = p.ys * width + p.xs
    order = np.argsort(values[p.offsets[:-1]], kind="stable")
    sizes = p.sizes()[order]
    offsets = offsets_from_sizes(sizes)
    source = np.repeat(p.offsets[:-1][order] - offsets[:-1], sizes) + np.arange(values.size)
    return offsets, values[source]


def _with_paths(block, offsets, xs, ys):
    paths = Paths(offsets, xs, ys)
    return RectangleTiling(block.width, block.height, paths, block.step_type, block.window)


def equal_copy(block):
    """A distinct block object with the same contents."""
    p = block.paths
    return _with_paths(block, p.offsets.copy(), p.xs.copy(), p.ys.copy())


def with_tied_start(block, data):
    """The block with a prefix of one of its paths inserted as another path:
    two paths then start at the same point."""
    p = block.paths
    sizes = p.sizes()
    path = data.draw(st.integers(0, len(p) - 1))
    a = int(p.offsets[path])
    size = data.draw(st.integers(2, int(sizes[path])))
    at = data.draw(st.integers(0, len(p)))
    cut = int(p.offsets[at])
    xs = np.concatenate((p.xs[:cut], p.xs[a : a + size], p.xs[cut:]))
    ys = np.concatenate((p.ys[:cut], p.ys[a : a + size], p.ys[cut:]))
    return _with_paths(block, offsets_from_sizes(np.insert(sizes, at, size)), xs, ys)


@st.composite
def families(draw, table):
    """Blocks of one step type and window, stacked to one height."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        l = draw(st.integers(1, 3))
        blocks = [stair_tiling(k, l)]
        for m in draw(st.lists(st.integers(k + 1, k + l), max_size=2, unique=True)):
            blocks.append(min_height_rect(k, l, m, table=table)[1])
    else:
        n = draw(st.integers(2, 4))
        kv = draw(st.integers(1, 2))
        ms = draw(st.lists(st.integers(n + 1, 2 * n - 1), min_size=1, max_size=2, unique=True))
        blocks = [diagonal_stripe_tiling(n, kv, m) for m in ms]
    height = lcm(*(b.height for b in blocks))
    return [stack_to_height(b, height) for b in blocks]


@st.composite
def block_lists(draw, table, tied=False):
    """A left-to-right block list over a drawn family: runs of one object,
    objects repeated apart, and content-equal distinct objects."""
    pool = draw(families(table))
    pool.append(equal_copy(draw(st.sampled_from(pool))))
    if tied:
        pool.append(with_tied_start(draw(st.sampled_from(pool)), draw(st.data())))
    picks = draw(
        st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 4)), min_size=1, max_size=6)
    )
    return [pool[i] for i, copies in picks for _ in range(copies)]


def _assert_flattens_as_reference(blocks):
    width = sum(b.width for b in blocks)
    t = flatten(blocks, width)
    offsets, values = reference(blocks, width)
    assert t.length == width * blocks[0].height
    assert np.array_equal(t.tiles.offsets, offsets)
    assert np.array_equal(t.tiles.values, values)


@SETTINGS
@given(data=st.data())
def test_block_flatten_is_the_flattened_concatenation(data, table):
    _assert_flattens_as_reference(data.draw(block_lists(table)))


@SETTINGS
@given(data=st.data())
def test_tied_first_points_keep_the_concatenation_order(data, table):
    _assert_flattens_as_reference(data.draw(block_lists(table, tied=True)))


@SETTINGS
@given(data=st.data())
def test_one_block_flattens_as_a_rectangle(data, table):
    block = data.draw(st.sampled_from(data.draw(families(table))))
    _assert_flattens_as_reference([block])
    assert flatten(block, block.width) == flatten([block], block.width)


@SETTINGS
@given(data=st.data())
def test_a_point_outside_its_block_is_named(data, table):
    blocks = data.draw(block_lists(table))
    i = data.draw(st.integers(0, len(blocks) - 1))
    block = blocks[i]
    # move a path's last point right by one block width: past the block's
    # columns, into the next copy's when the concatenation is flattened
    p = block.paths
    end = int(p.offsets[data.draw(st.integers(1, len(p)))]) - 1
    xs = p.xs.copy()
    xs[end] += block.width
    bad = _with_paths(block, p.offsets, xs, p.ys)
    blocks = [bad if b is block else b for b in blocks]
    first = next(j for j, b in enumerate(blocks) if b is bad)
    point = rf"\({xs[end]}, {p.ys[end]}\)"
    with pytest.raises(PreconditionError, match=rf"^block {first}: point {point} of path \d+ lies outside"):
        flatten(blocks, sum(b.width for b in blocks))


def test_blocks_of_other_heights_or_widths_are_refused():
    a, b = stair_tiling(1, 1), stack_to_height(stair_tiling(1, 1), 4)
    with pytest.raises(PreconditionError, match="share a height"):
        flatten([a, b], a.width + b.width)
    with pytest.raises(PreconditionError, match="does not match"):
        flatten([a, a], a.width)
    with pytest.raises(PreconditionError, match="at least one block"):
        flatten([], 0)
    # each block fits int64 points, the four side by side do not
    wide = RectangleTiling(2**61, 2, Paths.from_rows([[(0, 0), (0, 1)]]), a.step_type)
    with pytest.raises(PreconditionError, match=r"fewer than 2\*\*63 points"):
        flatten([wide] * 4, 2**63)
