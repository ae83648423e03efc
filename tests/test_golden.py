"""Golden bytes: the construction writes exactly the files it wrote before
tilings were stored as CSR arrays and printed from them in chunks, and the
oracle finds exactly the witnesses it found before its DFS tested each node
once (SHA-256 of each output)."""

import hashlib
import itertools

import pytest

from gaptiles import (
    GapSet,
    SearchConfig,
    boundary_base,
    homogeneous_base,
    homogeneous_step,
    solve_interval,
    solve_rectangle,
)
from gaptiles.catalog import run_catalog
from gaptiles.cli import main
from gaptiles.grid import HeightTable, min_height_rect
from gaptiles.serialize import dumps_canonical, interval_to_obj, rectangle_to_obj


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
