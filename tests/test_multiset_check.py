"""The gap and window checks count each window's steps per distinct value;
these tests hold the count to the sort it replaced: the same answer for 1
to w distinct values, steps that match no value, negative steps and steps
that wrap around int64, tallies past 255, counts that fit no row, and every
block size."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptiles import GapSet, IntervalTiling, types, verify, verify_homogeneous, verify_interval_tiling
from gaptiles.types import Tiles

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
STEPS = st.one_of(
    st.integers(-3, 3),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
)
SETTINGS = settings(max_examples=200, deadline=None)


def sorted_differ(seq, starts, values, counts):
    """Whether each window's steps, sorted, differ from the values repeated
    their counts: the check as it was before it counted."""
    expected = np.repeat(np.array(values, dtype=np.int64), counts)
    width = expected.size
    if not starts.size:
        return np.zeros(0, dtype=bool)
    windows = np.diff(seq[starts[:, None] + np.arange(width + 1)], axis=1)
    return (np.sort(windows, axis=1) != expected).any(axis=1)


def counted_differ(seq, starts, values, counts):
    """The check under test, on the values and counts as lists."""
    target = verify._counted(list(zip(values, counts)), seq.size)
    return verify._windows_differ(seq, starts, *target)


def sequence(steps):
    """A point sequence with the given steps, wrapped around int64 as they add up."""
    return np.cumsum(np.array([0, *steps], dtype=np.int64))


@st.composite
def target(draw, max_width):
    """(values, counts): 1 to width distinct values whose counts add up to a
    width of 1 to max_width."""
    width = draw(st.integers(1, max_width))
    distinct = draw(st.integers(1, width))
    values = sorted(draw(st.lists(STEPS, min_size=distinct, max_size=distinct, unique=True)))
    cuts = sorted(draw(st.permutations(range(1, width)))[: distinct - 1])
    counts = np.diff([0, *cuts, width]).tolist()
    return values, counts


@st.composite
def windows(draw, max_width=40):
    """A target and a sequence whose steps mostly come from it: shuffled
    whole windows of it, with some steps changed to arbitrary ones."""
    values, counts = draw(target(max_width))
    expanded = np.repeat(values, counts).tolist()
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        steps += draw(st.permutations(expanded))
    for i in draw(st.lists(st.integers(0, len(steps) - 1), max_size=4)):
        steps[i] = draw(STEPS)
    return values, counts, sequence(steps)


@SETTINGS
@given(case=windows())
def test_count_matches_the_sort(case):
    values, counts, seq = case
    width = sum(counts)
    starts = np.arange(seq.size - width, dtype=np.int64)
    got = counted_differ(seq, starts, values, counts)
    np.testing.assert_array_equal(got, sorted_differ(seq, starts, values, counts))


@settings(max_examples=50, deadline=None)
@given(steps=st.lists(STEPS, max_size=20))
def test_a_window_of_no_steps_never_differs(steps):
    seq = sequence(steps)
    starts = np.arange(seq.size, dtype=np.int64)
    assert not counted_differ(seq, starts, [], []).any()


def test_tallies_past_255_do_not_wrap():
    values, counts = [1, 2], [256, 44]
    good = np.repeat(values, counts)
    # A uint8 tally would take the good window's 256 ones for 0.
    short, twos = good.copy(), np.full(300, 2)
    short[0] = 3
    seq = sequence([*good, *short, *twos])
    starts = np.array([0, 300, 600], dtype=np.int64)
    assert counted_differ(seq, starts, values, counts).tolist() == [False, True, True]


def naive_windows(offsets, seq, width, expected):
    return [
        (r, o)
        for r, (a, b) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        for o in range(b - a - width)
        if sorted(np.diff(seq[a:b])[o : o + width].tolist()) != expected
    ]


@SETTINGS
@given(data=st.data(), case=windows(max_width=6), block=st.integers(1, 9))
def test_row_and_window_checks_match_the_sort_for_every_block(data, case, block):
    values, counts, seq = case
    entries = list(zip(values, counts))
    width = sum(counts)
    # rows cut anywhere, or of one size: width + 1 points (read as a view) or another
    size = data.draw(st.sampled_from([None, width + 1, width + 2, width]))
    if size is None:
        cuts = sorted(data.draw(st.lists(st.integers(0, seq.size), max_size=10)))
        offsets = np.array([0, *cuts, seq.size], dtype=np.int64)
        sizes = np.diff(offsets)
        size = int(sizes[0]) if (sizes == sizes[0]).all() else None
    else:
        offsets = np.arange(0, seq.size + 1, size, dtype=np.int64)
    expected = sorted(np.repeat(values, counts).tolist())
    with mock.patch.object(types, "_BLOCK", block):
        row, off = verify._window_mismatches(offsets, seq, entries)
        rows = verify._row_mismatches(offsets, seq, entries, size)
    assert list(zip(row.tolist(), off.tolist())) == naive_windows(offsets, seq, width, expected)
    assert rows.tolist() == [
        r
        for r, (a, b) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        if sorted(np.diff(seq[a:b]).tolist()) != expected
    ]


def test_a_multiplicity_beyond_the_points_fits_no_row():
    tiling = IntervalTiling(4, Tiles.from_rows([[0, 1], [2, 3]]))
    for k in (3, 4, 10**12, 10**30):
        gaps = GapSet(((1, k),))
        mismatches = verify_interval_tiling(tiling, gaps, max_violations=10).violations
        assert [v.location for v in mismatches] == [(0,), (1,)]
        assert verify_homogeneous(tiling.tiles, 4, gaps).ok
