"""Golden bytes: the construction writes exactly the files it wrote before
tilings were stored as CSR arrays and printed from them in chunks, the
oracle finds exactly the witnesses it found before its DFS tested each node
once, the lifted stages plan exactly what they planned when each derived
its heights and histogram in its own closed form, and an interval strip
renders as it did when every tile was built to draw it (SHA-256 of each
output)."""

import hashlib
import itertools

import pytest

from gaptiles import (
    GapSet,
    IntervalTiling,
    SearchConfig,
    SplitSpec,
    boundary_base,
    construct,
    homogeneous_base,
    homogeneous_step,
    solve_interval,
    solve_rectangle,
)
from gaptiles.catalog import run_catalog
from gaptiles.cli import main
from gaptiles.errors import TilingError
from gaptiles.grid import HeightTable, min_height_rect
from gaptiles.pipeline import (
    plan_boundary_base,
    plan_final,
    plan_homogeneous_base,
    plan_homogeneous_step,
)
from gaptiles.render import RenderSpec, render_interval_ascii, render_interval_svg
from gaptiles.serialize import dumps_canonical, interval_to_obj, rectangle_to_obj
from gaptiles.types import Tiles


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "gaps, split, tiling, trace, thresholds",
    [
        (
            "1:1,9:1,2970:1",
            "2,1",
            "4c5c0b5127e349008b0328dc8c5e60c50a0636a1db8c45f8e763b65b737133c5",
            "f494dc0016779b8d41ba59dc18536e3036cf29cf55b5d8e4a02222ec1c8405e5",
            "9228e6840c33f52b75f0caa9165d6a700517b7359d0213e646192ebaccf54761",
        ),
        (
            "1:2,16:1,4225:1",
            "3,0",
            "915653a9fa56683d7f290ed61b580303439e9d64c85b7619a644f9a789d503bc",
            "81fdc295a33f937eee81e3ecaf01383ccbe52753dcd9c207af04e85191a93cb6",
            "58d8f35de61eeb799a02b6d2fc7722921a0f90bd8fb7a5220fb206324585f680",
        ),
        (  # a boundary step with k = 2: its extended tiles carry k + 1 = 3 paths
            "1:3,25:1,63002:2",
            "3,0",
            "dce52a8a28c0c0d54c56be1b5da2339b4847b82673b82e5f8fefb810c740dd29",
            "a94f57af2914f9bb1f5424dad4abc2ba3f36173fb54139668c2380416ec4aa86",
            "2a8c6742ae14953a33214e6bfc6ce0c640fc7ff74f05ccdc22353ae339705f9e",
        ),
        (  # a boundary step with d1 = 2: two extended tiles, one per residue
            "2:2,32:1,16642:1",
            "3,0",
            "25432a3a983512ed5cf0526cdd8c897e6e0ab9553b5b8e2636b6b3e64d0c6e29",
            "741880535b3972275448bed0da7fe87916c02f1447e9dfead8aae5c71162fc1c",
            "7a8291b17582175a8cd85bc05552e33f546406f1982f37b9016812ea23d97f06",
        ),
        (  # the headline case: 1,201,156 points, printed in many chunks
            "1:1,9:1,300289:1",
            "2,1",
            "07c929a3417eaacd0dff601a29e3d432d88354f811fd12505077ef86e142b7c9",
            "9c33828b0c3c3bcdf1ed23dd6ca7e69cc134455d36813781903ee5d7014c309c",
            "777bfac34f07b896f8b12526f1e440efefe8680d0e028e433076a62dcd777f53",
        ),
    ],
)
def test_construct_outputs_are_byte_identical(tmp_path, gaps, split, tiling, trace, thresholds):
    out = tmp_path / "t.json"
    assert main(["construct", "--gaps", gaps, "--split", split, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == tiling
    assert sha256(out.with_suffix(".trace.json").read_bytes()) == trace
    assert sha256(out.with_suffix(".thresholds.json").read_bytes()) == thresholds


def test_homogeneous_step_output_is_byte_identical():
    st = homogeneous_step(homogeneous_base(boundary_base(1, 9, 1, 1)), 3025, 1)
    text = dumps_canonical(interval_to_obj(st.tiling, st.tiling.annotations.homogeneous_for))
    assert sha256(text.encode()) == "f37499437489f94c52fcc0d8cd16918a0bb019479ff99df607e4bf73534cf09c"


def test_benchmark_homogeneous_step_output_is_byte_identical():
    # the benchmark's homogeneous instance: 600,000 points, 147,936 sequences
    st = homogeneous_step(homogeneous_base(boundary_base(1, 9, 1, 1)), 30000, 1)
    text = dumps_canonical(interval_to_obj(st.tiling, st.tiling.annotations.homogeneous_for))
    assert sha256(text.encode()) == "0d2cf5100902ac05f209f129ab6c54bd1d5089026c383b347c149fc2ccbb0ca0"


def _lifted_plans_digest() -> tuple[int, str]:
    """The number of plans tried and the SHA-256 over each one's kind, length,
    height, histogram, last cardinality and trace, or over the type and
    message of the error that refused it.

    Over every base d1, k1, k2 in {1, 2} at its bound: a homogeneous step and
    a final stage for k in {1, 2, 3} at their bounds +0, +1 and +2, then after
    the homogeneous step with k = 1 at its bound + 1, a second homogeneous
    step and a final stage for k in {1, 2, 3} at their bounds + 1."""
    h = hashlib.sha256()
    tried = 0

    def record(run):
        nonlocal tried
        tried += 1
        try:
            p = run()
        except TilingError as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode())
            return None
        h.update(f"{(p.kind, p.L, p.h, p.card_counts, p.last_card, p.stage_trace)!r}\n".encode())
        return p

    def bounds(prev):
        return ((plan_homogeneous_step, (prev.L + 1) ** 2), (plan_final, prev.L * (prev.L + 1)))

    for d1, k1, k2 in itertools.product((1, 2), repeat=3):
        base = plan_homogeneous_base(plan_boundary_base(d1, d1 * (k1 + k2 + 1) ** 2, k1, k2))
        for plan, bound in bounds(base):
            for k, extra in itertools.product((1, 2, 3), (0, 1, 2)):
                record(lambda: plan(base, bound + extra, k))
        step = record(lambda: plan_homogeneous_step(base, (base.L + 1) ** 2 + 1, 1))
        for plan, bound in bounds(step):
            for k in (1, 2, 3):
                record(lambda: plan(step, bound + 1, k))
    return tried, h.hexdigest()


def test_lifted_stage_plans_are_unchanged():
    # pins the homogeneous steps' traces (h_full, h_removed, removed_blocks),
    # which no hash above covers, and the final stages' heights
    assert _lifted_plans_digest() == (
        200,
        "3fe03317ef48e5fe74554d805a836a5fbe2089cee6e9765bb779686565703138",
    )


def test_catalog_sweep_is_byte_identical(tmp_path):
    run_catalog(tmp_path / "cat.jsonl", 6, 4, 120)
    assert sha256((tmp_path / "cat.jsonl").read_bytes()) == (
        "867366fb044b043abfa2107999b9da108941e60b76da6cc9ee2a623440432a70"
    )
    witnesses = sorted((tmp_path / "cat-witnesses").iterdir(), key=lambda f: f.name)
    assert len(witnesses) == 207
    assert sha256(b"".join(f.read_bytes() for f in witnesses)) == (
        "d7aab476c154f8ad3985de1e45ab64153daa3681a91466bec9e8c7405dfd2397"
    )


def test_min_height_witnesses_are_byte_identical():
    # every (k, l, m) with k + l <= 8 whose width is below the staircase's k + l + 1
    instances = [
        (k, l, m) for k in range(1, 8) for l in range(1, 9 - k) for m in range(k + 1, k + l + 1)
    ]
    assert len(instances) == 84
    table = HeightTable()
    dumps = [dumps_canonical(rectangle_to_obj(min_height_rect(*klm, table=table)[1])) for klm in instances]
    assert sha256("".join(dumps).encode()) == (
        "13e5e355bc409113ca364f45767566cccbc778b4f92eaa2736f41408b74e571f"
    )


# f(k, l, m) for every shape with k + l = 9, at the widths m = k+1 .. k+l
HEIGHTS_AT_NINE = {
    (1, 8): (10, 20, 10, 20, 10, 20, 10, 20),
    (2, 7): (10, 10, 20, 10, 10, 10, 10),
    (3, 6): (10, 20, 10, 20, 10, 20),
    (4, 5): (10, 10, 10, 10, 20),
    (5, 4): (10, 20, 10, 20),
    (6, 3): (10, 10, 10),
    (7, 2): (10, 20),
    (8, 1): (10,),
}


def test_min_heights_up_to_nine_steps_are_pinned_and_at_most_twice_the_staircase():
    table = HeightTable()
    heights = {
        (k, l, m): min_height_rect(k, l, m, table=table)[0]
        for k in range(1, 9) for l in range(1, 10 - k) for m in range(k + 1, k + l + 1)
    }
    assert len(heights) == 120
    nine = {(k, l): tuple(heights[k, l, m] for m in range(k + 1, 10)) for k, l in HEIGHTS_AT_NINE}
    assert nine == HEIGHTS_AT_NINE
    assert all(f <= 2 * (k + l + 1) for (k, l, m), f in heights.items())


def _search_digest() -> str:
    """SHA-256 over the status, the states entered and the witness points of
    about 3,000 small interval and rectangle searches, each under three configs:
    the default, a budget that runs out on the larger ones, and several
    solutions."""
    h = hashlib.sha256()

    def record(outcome, witness_points):
        h.update(f"{outcome.status.value} {outcome.nodes_explored}\n".encode())
        for wit in outcome.witnesses:
            h.update(f"{witness_points(wit)}\n".encode())

    step_types = [
        {vec: mult for vec, mult in (((1, 0), k), ((0, 1), l)) if mult}
        for k in range(6)
        for l in range(6 - k)
        if k + l
    ]
    step_types += [
        {(1, 0): 1, (1, 1): 1},
        {(2, 0): 1, (0, 1): 1},
        {(1, 0): 2, (0, 2): 1},
        {(1, 0): 1, (0, 1): 1, (1, 1): 1},
    ]
    configs = [SearchConfig(), SearchConfig(max_nodes=30), SearchConfig(max_solutions=3)]
    for cfg in configs:
        for size in range(1, 5):
            for gaps in itertools.combinations_with_replacement(range(1, 7), size):
                for n in range(size + 1, 41, size + 1):
                    record(
                        solve_interval(GapSet.from_gaps(gaps), n, cfg),
                        lambda w: [t.points for t in w.tiles],
                    )
        for steps in step_types:
            for width in range(1, 8):
                for height in range(1, 9):
                    record(
                        solve_rectangle(steps, width, height, cfg),
                        lambda w: [p.points for p in w.paths],
                    )
    return h.hexdigest()


def test_search_node_counts_are_unchanged():
    # pins nodes_explored, so every max_nodes outcome, as well as the witnesses
    assert _search_digest() == "cc8615873e1fcd0fb5ce7bcd3c24692abbadc034b0dc109a46acead2d42618ce"


RENDERED = {
    # 11,880 points in 2,970 tiles: only the first 200 (or 5,000) are drawn
    "constructed": lambda: construct(GapSet.from_gaps([1, 9, 2970]), SplitSpec(2, 1)).tiling,
    "short": lambda: IntervalTiling(6, Tiles.from_rows([[0, 1, 3], [2, 4, 5]])),
    # point 0 three times, 2 twice, holes at 1, 4, 9, points at -1 and past the end
    "broken": lambda: IntervalTiling(
        12, Tiles.from_rows([[-1, 0, 3], [0, 2, 5], [2, 7, 8], [0, 6], [10, 11, 40]])
    ),
}


@pytest.mark.parametrize(
    "name, digest",
    [
        ("constructed", "09cc64c4c68834387c292a811f916889bea9e443f4f691ae71c1dd1aa0a8b80b"),
        ("short", "7594550cc166c7842b9a6b1211f560970c048fb366996cf17de6432d922ffbf8"),
        ("broken", "17bc0d6c73cab658c4b93ba9a1a2c36bd43c25a698bcc84294789ec209ff136f"),
    ],
)
def test_interval_renders_are_byte_identical(name, digest):
    tiling = RENDERED[name]()
    specs = [RenderSpec(), RenderSpec(cell_size=10, seed=7, max_points=5000)]
    outs = [render_interval_svg(tiling, spec) for spec in specs]
    outs += [render_interval_ascii(tiling, m) for m in (200, 40, 5000)]
    assert sha256("\n".join(outs).encode()) == digest
