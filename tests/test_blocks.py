"""The passes that scan a whole tiling without producing it (the CSR checks
of Tiles and Paths, the tile-end scans, a stage's cardinality histogram and
the gap and window checks) work one block of types._BLOCK items at a time:
they give the same values, errors and reports for every block size, and
their scratch memory does not grow with the tiling beyond the cover's one
boolean mark per point. Nor does the scratch of reading a tiling file (one
piece of 16 bytes a block item at a time) beyond the arrays it returns."""

import gc
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles import (
    GapSet,
    IntervalTiling,
    SplitSpec,
    boundary_base,
    boundary_step,
    construct,
    homogeneous_base,
    pipeline,
    serialize,
    types,
    verify,
    verify_boundary_prefix,
    verify_homogeneous,
)
from gaptiles.errors import PreconditionError
from gaptiles.types import Paths, ReportBuilder, Tiles

ONE_BLOCK = 1 << 62


def outcome(build):
    """build()'s result, or the message of the PreconditionError it raises."""
    try:
        return build()
    except PreconditionError as exc:
        return str(exc)


@st.composite
def csr(draw):
    """Offsets (not always rising) over 0 to 12 points, and values that
    mostly rise within each row."""
    n = draw(st.integers(0, 12))
    cuts = draw(st.lists(st.integers(0, n), max_size=6))
    if draw(st.booleans()):
        cuts.sort()
    steps = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    return np.array([0, *cuts, n], dtype=np.int64), np.cumsum(np.array(steps, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(rows=csr(), ys=st.lists(st.integers(-1, 2), min_size=12, max_size=12), block=st.integers(1, 5))
def test_csr_checks_are_blind_to_the_block(rows, ys, block):
    offsets, values = rows
    ys = np.cumsum(np.array(ys[: values.size], dtype=np.int64))

    def built():
        tiles = outcome(lambda: Tiles(offsets, values))
        paths = outcome(lambda: Paths(offsets, values, ys))
        ends = None if isinstance(tiles, str) else [tiles.ending_from(p).tolist() for p in range(-1, 14)]
        return tiles, paths, ends

    with mock.patch.object(types, "_BLOCK", ONE_BLOCK):
        whole = built()
    with mock.patch.object(types, "_BLOCK", block):
        assert built() == whole
    tiles, _, ends = whole
    if ends is not None:
        last = [tile.points[-1] for tile in tiles]
        assert ends == [[i for i, e in enumerate(last) if e >= p] for p in range(-1, 14)]


@pytest.mark.parametrize("block", [1, 3, 64])
def test_stages_and_boundary_reports_are_blind_to_the_block(block):
    def stages():
        boundary = boundary_base(2, 19, 1, 1)
        step = boundary_step(boundary_base(1, 16, 2, 1), 4225, 1)
        # every tile ending in the last 4225 points has one gap of 4225, not two
        report = verify_boundary_prefix(step.tiling, 4225, 2, max_violations=10**6)
        final = construct(GapSet.from_gaps([1, 9, 2970]), SplitSpec(2, 1))
        return boundary, step, report, final.tiling, final.trace

    with mock.patch.object(types, "_BLOCK", ONE_BLOCK):
        whole = stages()
    with mock.patch.object(types, "_BLOCK", block):
        blocked = stages()
    assert blocked == whole
    assert len(whole[0].endpoint_index) == 2 and len(whole[2].violations) > 64


def scratch(fn) -> int:
    """The tracemalloc peak of fn() above what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def passes(n: int) -> dict:
    """Each blocked pass over a tiling of n points in 8-point sequences with
    step 1, all but the last two checked on that tiling, and the bytes of
    the arrays it returns by design: the read's values and offsets, none
    for the rest."""
    values = np.arange(n, dtype=np.int64)
    offsets = np.arange(0, n + 1, 8, dtype=np.int64)
    tiles = Tiles(offsets, values)
    plan = replace(
        homogeneous_base(boundary_base(1, 9, 1, 1)), card_counts=((8, n // 8),), last_card=8
    )

    def homogeneous(seqs):
        assert verify_homogeneous(seqs, n, GapSet(((1, 3),))).ok

    # a file of pairs, which has the most row breaks for its points
    text = serialize.dumps_canonical({"tiles": Tiles(np.arange(0, n + 1, 2), values)}).encode()

    def read():
        rows = serialize._read_tiling(text)["tiles"]
        assert isinstance(rows, Tiles) and len(rows) == n // 2  # by the byte pass

    return {
        "Tiles": (lambda: Tiles(offsets, values), 0),
        "Paths": (lambda: Paths(offsets, values, values), 0),
        "verify_homogeneous": (lambda: homogeneous(tiles), 0),
        "_built": (lambda: pipeline._built(plan, IntervalTiling(n, tiles)), 0),
        "verify_homogeneous, one sequence": (lambda: homogeneous(Tiles([0, n], values)), 0),
        "_read_tiling": (read, values.nbytes + 8 * (n // 2 + 1)),
    }


def cover_scratch(n: int) -> int:
    """The scratch of the cover check alone on n points: one boolean mark
    per point (verify._is_partition)."""
    values = np.arange(n, dtype=np.int64)
    return scratch(lambda: verify._cover(values, n, ReportBuilder()))


@pytest.mark.parametrize("name", list(passes(8)))
def test_scratch_does_not_grow_with_the_tiling(name):
    small, large = (scratch(fn) - kept for fn, kept in (passes(n)[name] for n in (1 << 18, 1 << 20)))
    # A homogeneous check also checks the cover, which grows with the
    # tiling; the peak may be the cover's own, but nothing beyond it.
    cover = cover_scratch(1 << 20) if name.startswith("verify_homogeneous") else 0
    # passes over whole arrays grow about fourfold here (Tiles 0.5 -> 2 MB)
    assert large <= max(small, cover) + (64 << 10), (small, large, cover)
