"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import functools
import itertools
import resource
import time
from math import gcd, lcm

from naive_oracle import naive_tilable

from gaptiles import (
    GapSet,
    SearchStatus,
    SplitSpec,
    boundary_base,
    boundary_step,
    construct,
    diagonal_stripe_tiling,
    flatten,
    homogeneous_base,
    min_height_rect,
    min_interval,
    solve_interval,
    solve_rectangle,
    stair_tiling,
    verify_boundary_prefix,
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)
from gaptiles.cli import main as cli_main
from gaptiles.conditions import (
    SATISFIED,
    check_three_gap_quadratic,
    check_two_value_cases,
    check_two_value_representation,
)
from gaptiles.grid import HeightTable


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d}: FAIL — {desc}")
                raise
            print(f"criterion {num:2d}: PASS — {desc}")

        return wrapper

    return deco


def gs(*pairs):
    return GapSet.from_pairs(pairs)


@criterion(1, "staircase reproduction: the 5 displayed paths, verifier-clean, < 1 s")
def test_criterion_1_stair_figure():
    t0 = time.perf_counter()
    rect = stair_tiling(3, 4)
    k, l = 3, 4
    expected = []
    for i in range(l + 1):
        pts = [(i, y) for y in range(l - i + 1)]
        pts += [(x, l - i) for x in range(i + 1, k + i + 1)]
        pts += [(k + i, y) for y in range(l - i + 1, l + 1)]
        expected.append(tuple(pts))
    assert [p.points for p in rect.paths] == expected
    assert len(rect.paths) == 5
    assert verify_rectangle_tiling(rect).ok
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "minimal rectangle heights verify for all k+l <= 6; f(1,1,2) = 3; < 2 min")
def test_criterion_2_min_heights():
    t0 = time.perf_counter()
    table = HeightTable()
    f112, wit = min_height_rect(1, 1, 2, table=table)
    assert f112 == 3
    # exhaustive minimality at (1,1,2): heights 1 and 2 fail 2f % 3 == 0,
    # so 3 is the first admissible height and the witness certifies it.
    assert [f for f in range(1, 3) if (2 * f) % 3 == 0] == []
    for k in range(1, 6):
        for l in range(1, 7 - k):
            for m in range(k + 1, k + l + 2):
                f, wit = min_height_rect(k, l, m, table=table)
                assert verify_rectangle_tiling(wit).ok, (k, l, m)
                assert (m * f) % (k + l + 1) == 0
                ppp = k + l + 1
                step = ppp // gcd(m, ppp)
                cand = ((l + 1 + step - 1) // step) * step
                while cand < f:
                    out = solve_rectangle({(1, 0): k, (0, 1): l}, m, cand)
                    assert out.status is SearchStatus.EXHAUSTED_NO_SOLUTION, (k, l, m, cand)
                    cand += step
    assert time.perf_counter() - t0 < 120.0


@criterion(3, "two-distance base stages (both residue branches) pass both verifiers; < 5 s each")
def test_criterion_3_base_stages():
    t0 = time.perf_counter()
    st = boundary_base(1, 9, 1, 1)
    assert st.tiling.length == 54 == lcm(2, 3) * 9
    assert verify_interval_tiling(st.tiling, gs((1, 1), (9, 1))).ok
    assert verify_boundary_prefix(st.tiling, 1, 1).ok
    assert time.perf_counter() - t0 < 5.0
    t1 = time.perf_counter()
    st2 = boundary_base(2, 19, 1, 1)
    assert verify_interval_tiling(st2.tiling, gs((2, 1), (19, 1))).ok
    assert verify_boundary_prefix(st2.tiling, 2, 1).ok
    assert time.perf_counter() - t1 < 5.0


@criterion(4, "three-distance boundary chain verifies; streaming rate >= 1e6 points/s")
def test_criterion_4_step_and_rate():
    st = boundary_base(1, 16, 2, 1)
    st3 = boundary_step(st, 4225, 1)
    target = gs((1, 2), (16, 1), (4225, 1))
    assert st3.boundary_prefix_count == 1
    assert verify_interval_tiling(st3.tiling, target).ok
    assert verify_boundary_prefix(st3.tiling, 1, 1).ok
    n = st3.tiling.length
    best = float("inf")
    # CPU time of this process, so other load on the host does not count.
    for _ in range(3):
        t0 = time.process_time()
        assert verify_interval_tiling(st3.tiling, target).ok
        best = min(best, time.process_time() - t0)
    rate = n / best
    assert rate >= 1e6, f"verifier rate {rate:.0f} points/s"


@criterion(5, "homogeneous base; stripe figure; stripe length bounds over the stated grid")
def test_criterion_5_homogeneous_and_stripes():
    st = homogeneous_base(boundary_base(1, 9, 1, 1))
    t0 = gs((1, 1), (9, 1))
    assert st.tiling.length == 55
    assert verify_homogeneous(st.tiling.tiles, 55, t0).ok
    sizes = sorted(len(t.points) for t in st.tiling.tiles)
    assert sizes.count(t0.size() + 2) == 1
    assert set(sizes) == {3, 4}

    fig = diagonal_stripe_tiling(6, 2, 11)
    assert (fig.width, fig.height) == (12, 14)
    assert fig.window == 8
    assert verify_rectangle_tiling(fig).ok

    for n in range(2, 9):
        for kv in range(1, 5):
            for m in range(n + 1, 2 * n):
                rect = diagonal_stripe_tiling(n, kv, m)
                assert verify_rectangle_tiling(rect).ok
                short_a = tuple(
                    [(x, 0) for x in range(m - n, m + 1)] + [(m, y) for y in range(1, kv + 1)]
                )
                short_b = tuple(
                    [(0, y) for y in range(m, m + kv + 1)]
                    + [(x, m + kv) for x in range(1, n + 1)]
                )
                for p in rect.paths:
                    steps = len(p.points) - 1
                    assert steps <= m + 2 * kv
                    if p.points in (short_a, short_b):
                        assert steps == n + kv
                    else:
                        assert steps > n + kv


@criterion(6, "full pipeline at the threshold and at millions scale; < 5 min, < 2 GB")
def test_criterion_6_full_pipeline():
    t0 = time.perf_counter()
    res = construct(gs((1, 1), (9, 1), (2970, 1)), SplitSpec(2, 1))
    assert verify_interval_tiling(res.tiling, res.gap_set).ok
    # same instance with a larger final distance: interval in the millions,
    # exercising the streaming verifier at scale
    big = construct(gs((1, 1), (9, 1), (300289, 1)), SplitSpec(2, 1))
    assert big.tiling.length > 1_000_000
    assert verify_interval_tiling(big.tiling, big.gap_set).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f} s"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 1024 * 1024, f"peak memory {peak_kb / 1024:.0f} MB"


@criterion(7, "oracle ground truth: minimal lengths and agreement with the naive oracle")
def test_criterion_7_oracle_ground_truth():
    n, _ = min_interval(gs((1, 1), (2, 1)), 60)
    assert n == 6
    for p in range(1, 5):
        for q in range(p, 5):
            assert min_interval(GapSet.from_gaps([p, q]), 60) is not None, (p, q)
    for size in range(1, 4):
        for gaps in itertools.combinations_with_replacement(range(1, 5), size):
            g = GapSet.from_gaps(gaps)
            for length in range(g.points_per_tile(), 25, g.points_per_tile()):
                ours = solve_interval(g, length).status is SearchStatus.FOUND
                assert ours == naive_tilable(gaps, length), (gaps, length)


@criterion(8, "every constructed tiling with N <= 60 is independently confirmed by search")
def test_criterion_8_cross_validation():
    small = []
    res = construct(gs((1, 1), (9, 1)), SplitSpec(2, 0))
    small.append((res.tiling, res.gap_set))
    for k, l in [(1, 1), (2, 1), (1, 2)]:
        rect = stair_tiling(k, l)
        tiling = flatten(rect, rect.width)
        gap_set = GapSet.from_gaps(tiling.tiles[0].gaps())
        small.append((tiling, gap_set))
    for tiling, gap_set in small:
        assert tiling.length <= 60
        assert verify_interval_tiling(tiling, gap_set).ok
        out = solve_interval(gap_set, tiling.length)
        assert out.status is SearchStatus.FOUND


@criterion(9, "identical commands produce byte-identical output files")
def test_criterion_9_determinism(tmp_path):
    snapshots = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        t = d / "t.json"
        assert cli_main(["construct", "--gaps", "1:1,9:1,2970:1", "--split", "2,1", "--out", str(t)]) == 0
        assert cli_main(["minlen", "--gaps", "1:1,2:1", "--max", "30", "--out", str(d / "w.json")]) == 0
        assert cli_main(["render", str(t), "--seed", "5", "--out", str(d / "t.svg")]) == 0
        assert (
            cli_main(
                ["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "20",
                 "--out", str(d / "catalog.jsonl")]
            )
            == 0
        )
        snapshots.append(
            {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}
        )
    assert snapshots[0] == snapshots[1]


@criterion(10, "condition checkers match their defining inequalities")
def test_criterion_10_condition_checkers():
    for p in range(1, 4):
        for q in range(p, 4):
            for r in (1, 62, 63, 251, 252, 253, 63 * max(p, q) ** 2, 10**4):
                res = check_three_gap_quadratic(GapSet.from_gaps([p, q, r]))
                a, b, c = sorted([p, q, r])
                assert (res.status == SATISFIED) == (c >= 63 * max(a, b) ** 2)
    for p in range(1, 5):
        for q in range(1, 5):
            for l in range(1, 4):
                if p == q:
                    continue
                case1 = next(
                    r
                    for r in check_two_value_cases(GapSet.from_pairs([(p, 1), (q, l)]))
                    if r.name == "two-value-case-1"
                )
                assert case1.status == SATISFIED
    assert check_two_value_representation(GapSet.from_pairs([(5, 1), (10, 1)])).witness["a"] == 2
