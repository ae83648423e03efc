import errno
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaptiles
from gaptiles import GapSet, Paths, RectangleTiling, cli, grid, pipeline, stair_tiling, verify_interval_tiling
from gaptiles.catalog import enumerate_gap_sets
from gaptiles.cli import main, parse_gaps
from gaptiles.errors import PreconditionError, SearchExhausted
from gaptiles.serialize import read_json, rectangle_to_obj, tiling_from_obj, write_json


def run(args):
    return main(list(args))


def run_child(args, cwd=None, timeout=None, max_bytes=None):
    """`python -m gaptiles *args` in a child process, its address space capped
    at max_bytes. The child may run in a directory where a relative
    PYTHONPATH (e.g. "src") resolves to nothing, so it is handed the absolute
    directory holding the package."""
    env = dict(os.environ)
    pkg_root = str(Path(gaptiles.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    launch = ["-m", "gaptiles"]
    if max_bytes is not None:  # set in the child itself: no preexec_fn in a threaded parent
        cap = f"resource.setrlimit(resource.RLIMIT_AS, ({max_bytes}, {max_bytes}))"
        launch = ["-c", f"import resource, runpy; {cap}; runpy.run_module('gaptiles', run_name='__main__')"]
    return subprocess.run(
        [sys.executable, *launch, *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout
    )


def test_parse_gaps_normalizes():
    assert parse_gaps("9:1,1:1").entries == ((1, 1), (9, 1))
    assert parse_gaps("2,2,5:3").entries == ((2, 2), (5, 3))


def strict_gaps(text: str) -> GapSet | None:
    """The --gaps grammar: comma-separated d or d:k, each integer ASCII -?[0-9]+."""
    pairs = []
    try:
        for item in text.split(","):
            m = re.fullmatch(r"(-?[0-9]+)(?::(-?[0-9]+))?", item)
            if m is None:
                return None
            pairs.append((int(m[1]), 1 if m[2] is None else int(m[2])))
        return GapSet.from_pairs(pairs)
    except (ValueError, PreconditionError):  # more digits than int() reads; not a gap set
        return None


@settings(max_examples=250, deadline=None)
@given(text=st.one_of(st.text(), st.text(alphabet="0123456789-:,+_ \t\n\u0661\u0669\uff11")))
def test_parse_gaps_accepts_exactly_the_strict_grammar(text):
    expected = strict_gaps(text)
    try:
        assert parse_gaps(text) == expected
    except PreconditionError:
        assert expected is None


class TestConstructCommand:
    def test_writes_verified_tiling(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", "--out", str(out)]) == 0
        kind, tiling, gaps = tiling_from_obj(read_json(out))
        assert kind == "interval" and tiling.length == 54
        assert verify_interval_tiling(tiling, gaps).ok
        assert out.with_suffix(".trace.json").exists()
        assert out.with_suffix(".thresholds.json").exists()

    def test_hypothesis_violation_exit_2(self, tmp_path, capsys):
        rc = run(["construct", "--gaps", "1:1,8:1", "--split", "2,0", "--out", str(tmp_path / "t.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage-2" in err and "9" in err

    def test_thresholds_only(self, capsys):
        assert run(["construct", "--gaps", "1:1,9:1", "--thresholds-only"]) == 0
        out = capsys.readouterr().out
        assert "3025" in out

    def test_thresholds_only_with_split(self, capsys):
        assert run(["construct", "--gaps", "1:1,9:1", "--split", "2,1", "--thresholds-only"]) == 0
        out = capsys.readouterr().out
        assert "final" in out and "2970" in out

    def test_thresholds_only_hypothesis_violation_exit_2(self, capsys):
        assert run(["construct", "--gaps", "1:1,5:1", "--thresholds-only"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: stage-2 boundary-base: requires distance >= 9, got 5\n"

    @pytest.mark.parametrize(
        "args, token",
        [
            (["--gaps", "1:x"], "'x'"),
            (["--gaps", "1:"], "''"),
            (["--gaps", "1:1,9:1", "--split", "2"], "'2'"),
            (["--gaps", "1:1,9:1", "--split", "2,y"], "'y'"),
            (["--gaps", "\u0661:\u0661,\u0669:\u0661"], "'\u0661'"),
            (["--gaps", "1:1,9_0:1"], "'9_0'"),
            (["--gaps", "1:1,9:1", "--split", "+2,0"], "'+2'"),
            (["--gaps", "1:1,9:1", "--split", "2, 0"], "' 0'"),
        ],
    )
    def test_malformed_gaps_or_split_exit_1(self, tmp_path, capsys, args, token):
        assert run(["construct", *args, "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and token in err
        assert "Traceback" not in err

    def test_stage_verification_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        real = pipeline.flatten
        moved = []

        def flatten_moving_one_point(blocks, width):
            if width != 2970:  # corrupt the final stage's rectangle only
                return real(blocks, width)
            rect = pipeline.concat_columns(blocks)
            # Path 0 turns somewhere: put its point there on the other side of
            # the turn, which keeps the path's steps and leaves one point twice.
            p = rect.paths
            xs, ys = p.xs.copy(), p.ys.copy()
            j = next(j for j in range(p.offsets[1] - 2) if (xs[j + 1] - xs[j], ys[j + 1] - ys[j])
                     != (xs[j + 2] - xs[j + 1], ys[j + 2] - ys[j + 1]))
            xs[j + 1], ys[j + 1] = xs[j] + xs[j + 2] - xs[j + 1], ys[j] + ys[j + 2] - ys[j + 1]
            moved.append((int(xs[j + 1]), int(ys[j + 1])))
            paths = Paths(p.offsets, xs, ys)
            return real([RectangleTiling(rect.width, rect.height, paths, rect.step_type, rect.window)], width)

        monkeypatch.setattr(pipeline, "flatten", flatten_moving_one_point)
        out = tmp_path / "t.json"
        assert run(["construct", "--gaps", "1:1,9:1,2970:1", "--split", "2,1", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "verification: FAILED" in captured.out
        assert captured.err.startswith("error: stage-3 final") and captured.err.count("\n") == 1
        assert "Overlap" in captured.err and "Traceback" not in captured.err
        # the output check names the flat point, the rectangle check its cell
        (x, y), = moved
        assert f"location=({x + y * 2970},)" in captured.err
        assert f"its rectangle failed verification: Violation(kind='Overlap', location=({x}, {y})," in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_distance_beyond_int64_exits_1_without_a_file(self, tmp_path, capsys):
        gaps = ["--gaps", "1:1,9:1,100000000000000000000:1", "--split", "2,1"]
        assert run(["construct", *gaps, "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage-3 final: interval length ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        assert run(["construct", *gaps, "--thresholds-only"]) == 0
        assert "stage-3 final: required >= 2970, achieved 100000000000000000000" in capsys.readouterr().out

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "construct", exhausted)
        out = tmp_path / "t.json"
        assert run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dry_run", [False, True], ids=["build", "thresholds-only"])
    def test_exhausted_height_search_exit_3(self, tmp_path, capsys, monkeypatch, dry_run):
        def exhausted(k, l, m):
            raise SearchExhausted(f"height search budget exceeded at f=1 for ({k},{l},{m})")

        monkeypatch.setattr(pipeline, "min_height_rect", exhausted)
        args = ["--thresholds-only"] if dry_run else ["--out", str(tmp_path / "t.json")]
        assert run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", *args]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: height search budget exceeded at f=1 for \(\d+,\d+,\d+\)\n", err)
        assert list(tmp_path.iterdir()) == []

    def test_exhausted_height_search_falls_through_to_the_next_split(self, tmp_path, capsys, monkeypatch):
        # {1:2, 16:1, 5000:1} builds under (3, 0) and under (2, 1); the first
        # height search, made under (3, 0), runs out
        real = pipeline.min_height_rect
        calls = []

        def first_exhausted(k, l, m):
            calls.append((k, l, m))
            if len(calls) == 1:
                raise SearchExhausted(f"height search budget exceeded at f=1 for ({k},{l},{m})")
            return real(k, l, m)

        monkeypatch.setattr(pipeline, "min_height_rect", first_exhausted)
        out = tmp_path / "t.json"
        assert run(["construct", "--gaps", "1:2,16:1,5000:1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        kind, tiling, gaps = tiling_from_obj(read_json(out))
        assert verify_interval_tiling(tiling, gaps).ok
        # a (2, 1) build ends in the final stage, a (3, 0) build in a boundary step
        assert read_json(out.with_suffix(".thresholds.json"))[-1]["stage"] == "stage-3 final"

    @pytest.mark.parametrize(
        "gaps, exhausted_searches, second",
        [
            ("1:2,16:1,5000:1", 1 << 30, "height search budget exceeded at f=1 for (2,1,3)"),
            ("1:2,16:1,2970:1", 1, "stage-3 final: requires distance >= 4160, got 2970"),
        ],
        ids=["every-split-exhausted", "then-refuted"],
    )
    def test_exhausted_height_search_without_a_build_exit_3(
        self, tmp_path, capsys, monkeypatch, gaps, exhausted_searches, second
    ):
        real = pipeline.min_height_rect
        calls = []

        def exhausted(k, l, m):
            calls.append((k, l, m))
            if len(calls) <= exhausted_searches:
                raise SearchExhausted(f"height search budget exceeded at f=1 for ({k},{l},{m})")
            return real(k, l, m)

        monkeypatch.setattr(pipeline, "min_height_rect", exhausted)
        assert run(["construct", "--gaps", gaps, "--out", str(tmp_path / "t.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: split (s=3,p=0): height search budget exceeded at f=1 for (2,1,3)",
            f"error: split (s=2,p=1): {second}",
        ]
        assert list(tmp_path.iterdir()) == []

    def test_out_in_a_missing_directory_exits_1_before_building(self, tmp_path, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("built before --out was checked")

        monkeypatch.setattr(cli, "construct", build)
        out = tmp_path / "missing" / "t.json"
        assert run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["t.json", "t.trace.json", "t.thresholds.json"])
    def test_out_onto_a_fifo_exits_1_before_building(self, tmp_path, capsys, monkeypatch, name):
        # a device node or a FIFO is never replaced by the written file
        def build(*args):
            raise AssertionError("built before --out was checked")

        monkeypatch.setattr(cli, "construct", build)
        fifo = tmp_path / name
        os.mkfifo(fifo)
        out = tmp_path / "t.json"
        assert run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"i/o error: [Errno {errno.EEXIST}] exists and is not a regular file: '{fifo}'\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [f.name for f in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("out", ["", ".", "/", ".."])
    def test_out_that_names_a_directory_exits_1_before_building(self, tmp_path, capsys, monkeypatch, out):
        # "", "." and "/" have no file name to put the other outputs' suffixes on
        def build(*args):
            raise AssertionError("built before --out was checked")

        monkeypatch.setattr(cli, "construct", build)
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"i/o error: [Errno {errno.EISDIR}] Is a directory: '{Path(out)}'\n"
        assert [f.name for f in tmp_path.rglob("*")] == ["cwd"]

    def test_exhausted_height_search_in_conditions_exit_3(self, capsys, monkeypatch):
        # an undecided height search is no evidence that staged growth fails
        def exhausted(k, l, m):
            raise SearchExhausted(f"height search budget exceeded at f=1 for ({k},{l},{m})")

        monkeypatch.setattr(pipeline, "min_height_rect", exhausted)
        assert run(["conditions", "--gaps", "1:1,9:1", "--split", "2,0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        pattern = r"error: height search budget exceeded at f=1 for \(\d+,\d+,\d+\)\n"
        assert re.fullmatch(pattern, captured.err)

    def test_auto_split(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["construct", "--gaps", "1:1,9:1,2970:1", "--out", str(out)]) == 0
        kind, tiling, gaps = tiling_from_obj(read_json(out))
        assert verify_interval_tiling(tiling, gaps).ok


IS_A_DIRECTORY = f"i/o error: [Errno {errno.EISDIR}] Is a directory: '.'"


@pytest.mark.parametrize(
    "args, message",
    [
        (["construct", "--gaps", "1:1,9:1", "--split", ""], "error: --split: expected two integers a,b, got ''"),
        (["conditions", "--gaps", "1:1,9:1", "--split", ""], "error: --split: expected two integers a,b, got ''"),
        (["verify", "t.json", "--boundary", ""], "error: --boundary: expected two integers a,b, got ''"),
        (["solve", "--gaps", "1:1,2:1", "--len", "6", "--out", ""], IS_A_DIRECTORY),
        (["minlen", "--gaps", "1:1,2:1", "--max", "30", "--out", ""], IS_A_DIRECTORY),
        (["fvalue", "--k", "1", "--l", "1", "--m", "2", "--out", ""], IS_A_DIRECTORY),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_an_empty_option_value_is_malformed_not_absent(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    write_json("t.json", {"kind": "interval", "length": 4, "gap_set": [[1, 1]], "tiles": [[0, 1], [2, 3]]})
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert [f.name for f in tmp_path.iterdir()] == ["t.json"]


@pytest.mark.parametrize(
    "args, option, token",
    [
        (["solve", "--gaps", "1:1,2:1", "--len", "1_2"], "--len", "1_2"),
        (["solve", "--gaps", "1:1,2:1", "--len", "+12"], "--len", "+12"),
        (["solve", "--gaps", "1:1,2:1", "--len", "6", "--max-nodes", " 9"], "--max-nodes", " 9"),
        (["minlen", "--gaps", "1:1,2:1", "--max", "3_0"], "--max", "3_0"),
        (["fvalue", "--k", "1", "--l", "1", "--m", "٢"], "--m", "٢"),
        (["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "+20"], "--nmax", "+20"),
        (["render", "t.json", "--cell-size", "24 "], "--cell-size", "24 "),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_integer_options_take_only_ascii_digits(tmp_path, capsys, monkeypatch, args, option, token):
    # int() would read each token as a number: underscores, a plus sign,
    # padding, non-ASCII digits; --gaps refuses them all, and so do these
    monkeypatch.chdir(tmp_path)
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].endswith(f"error: argument {option}: invalid int value: {token!r}")
    assert list(tmp_path.iterdir()) == []


class TestSolveCommands:
    def test_minlen(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run(["minlen", "--gaps", "1:1,2:1", "--max", "30", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "6"
        kind, tiling, gaps = tiling_from_obj(read_json(out))
        assert verify_interval_tiling(tiling, gaps).ok

    def test_minlen_out_in_a_missing_directory_names_the_file(self, tmp_path, capsys):
        out = tmp_path / "missing" / "w.json"
        assert run(["minlen", "--gaps", "1:1,2:1", "--max", "30", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gaps, n", [("2:1,3:1,4:1", "32"), ("1:1,2:1,4:1,5:1", "20")])
    def test_minlen_out_writes_a_witness_of_the_least_length(self, tmp_path, capsys, gaps, n):
        out = tmp_path / "w.json"
        assert run(["minlen", "--gaps", gaps, "--max", "120", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == n
        kind, tiling, parsed = tiling_from_obj(read_json(out))
        assert (kind, tiling.length) == ("interval", int(n))
        assert verify_interval_tiling(tiling, parsed).ok

    def test_minlen_not_found_exit_3(self, capsys):
        assert run(["minlen", "--gaps", "5:1,6:3", "--max", "120"]) == 3
        assert capsys.readouterr().out.strip() == "not found within 120"

    def test_minlen_of_a_tile_longer_than_max_is_not_found_without_expanding_it(self):
        # 10**11 gaps of 1 would take all memory to list
        proc = run_child(["minlen", "--gaps", "1:100000000000", "--max", "30"], timeout=60, max_bytes=1 << 30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "not found within 30\n", "")

    @pytest.mark.parametrize("gaps, least", [("1:1", 2), ("5:1,6:3", 150)])
    def test_minlen_under_a_large_max_holds_no_bucket_per_position(self, gaps, least):
        # one bucket per position below 10**10 would take all memory
        proc = run_child(["minlen", "--gaps", gaps, "--max", "10000000000"], timeout=60, max_bytes=1 << 30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{least}\n", "")

    @pytest.mark.parametrize(
        "args, names",
        [
            # the sweep holds every frontier it reaches, so --max-nodes counts
            # them all, not only the settled ones
            (
                ["minlen", "--gaps", ",".join(f"{g}:1" for g in range(1, 10)), "--max", "400"]
                + ["--max-nodes", "1000"],
                "length 50 for {1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1}",
            ),
            # 40,116,600 and 12! step orders: refused before they are listed
            (["fvalue", "--k", "14", "--l", "14", "--m", "16"], "f=29 for (14,14,16)"),
            (
                ["minlen", "--gaps", ",".join(f"{g}:1" for g in range(1, 13)), "--max", "1000"],
                "length 91 for {1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1,10:1,11:1,12:1}",
            ),
        ],
    )
    def test_a_search_too_large_for_memory_exits_3_naming_it(self, args, names):
        proc = run_child(args, timeout=60, max_bytes=1 << 30)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.endswith(f"budget exceeded at {names}\n")
        assert proc.stderr.count("\n") == 1

    def test_solve_found(self, tmp_path, capsys):
        assert run(["solve", "--gaps", "1:1", "--len", "2"]) == 0
        assert "[0, 1]" in capsys.readouterr().out

    def test_solve_places_more_tiles_than_the_recursion_limit(self, capsys):
        assert run(["solve", "--gaps", "1:1,2:1", "--len", "6000"]) == 0
        assert capsys.readouterr().out.count("[") == 2001  # the tiles and their list

    @pytest.mark.parametrize(
        "args, out",
        [
            (["solve", "--gaps", "1:1500", "--len", "1501"], "found: length 1501, tiles [[0, 1, 2, "),
            (["minlen", "--gaps", "1:1200", "--max", "5000"], "1201\n"),
        ],
    )
    def test_a_tile_of_more_steps_than_the_recursion_limit(self, capsys, args, out):
        limit = sys.getrecursionlimit()
        assert run(args) == 0
        assert capsys.readouterr().out.startswith(out)
        assert sys.getrecursionlimit() == limit

    def test_solve_not_found_exit_3(self):
        assert run(["solve", "--gaps", "1:1,2:1", "--len", "4"]) == 3

    def test_solve_budget_exceeded_exit_3(self, capsys):
        # {1,2,3} tiles length 8, but not within three states
        assert run(["solve", "--gaps", "1:1,2:1,3:1", "--len", "8", "--max-nodes", "3"]) == 3
        assert capsys.readouterr().out == "not found: budget-exceeded after 4 nodes\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--gaps", "1:1,2:1,3:1", "--len", "8", "--parallel", "2"],
            ["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "8", "--workers", "2"],
        ],
    )
    def test_an_unknown_option_is_an_error_exit_1(self, capsys, args):
        # argparse would exit 2, which the exit-code contract keeps for hypothesis violations
        assert run(args) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"gaptiles: error: unrecognized arguments: {args[-2]} 2"

    def test_minlen_budget_exceeded_is_an_error_exit_3(self, capsys):
        # {3,4,5,5} tiles length 70; the budget runs out long before that
        args = ["minlen", "--gaps", "3:1,4:1,5:2", "--max", "120", "--max-nodes", "100"]
        assert run(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: interval search budget exceeded at length ")


    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", "--len", "6", "--max-nodes", "0"], "max_nodes must be >= 1, got 0"),
            (["minlen", "--max", "30", "--max-nodes", "-1"], "max_nodes must be >= 1, got -1"),
        ],
    )
    def test_out_of_range_budget_exit_1(self, capsys, args, message):
        assert run([*args, "--gaps", "1:1,2:1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", "--len", "-2"], "--len must be >= 1, got -2"),
            (["solve", "--len", "0"], "--len must be >= 1, got 0"),
            (["minlen", "--max", "0"], "--max must be >= 1, got 0"),
            (["minlen", "--max", "-5"], "--max must be >= 1, got -5"),
        ],
    )
    def test_length_bound_below_1_exit_1_without_a_file(self, tmp_path, capsys, args, message):
        # not a search that found no tiling of an empty interval
        out = tmp_path / "t.json"
        assert run([*args, "--gaps", "1:1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_good_file_exit_0(self, tmp_path):
        out = tmp_path / "t.json"
        run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", "--out", str(out)])
        assert run(["verify", str(out), "--boundary", "1,1"]) == 0
        assert run(["verify", str(out), "--boundary", "1,+1"]) == 1

    @pytest.mark.parametrize("boundary", ["1,-1", "0,1"])
    def test_out_of_range_boundary_exit_1(self, tmp_path, capsys, monkeypatch, boundary):
        def read_json(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "read_json", read_json)  # refused before the file is read
        assert run(["verify", str(tmp_path / "t.json"), "--boundary", boundary]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d1 must be >= 1 and count >= 0\n"
        assert "Traceback" not in captured.err

    def test_corrupted_file_exit_4(self, tmp_path):
        out = tmp_path / "t.json"
        run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", "--out", str(out)])
        obj = json.loads(out.read_text(encoding="utf-8"))
        obj["tiles"][0][0] += 1  # shift one point
        write_json(out, obj)
        assert run(["verify", str(out)]) == 4

    def test_a_plain_verify_checks_the_boundary_annotation(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run(["construct", "--gaps", "2:2,32:1,16642:1", "--split", "3,0", "--out", str(out)]) == 0
        obj = read_json(out)
        count = obj["annotations"]["boundary_prefix_count"]
        capsys.readouterr()
        assert run(["verify", str(out)]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert sorted(reports) == ["boundary", "interval"] and reports["boundary"]["ok"]
        # one more leading gap of d1 = 2 than the extended tiles keep
        obj["annotations"]["boundary_prefix_count"] = count + 1
        write_json(out, obj)
        assert run(["verify", str(out)]) == 4
        reports = json.loads(capsys.readouterr().out)
        assert reports["interval"]["ok"] and not reports["boundary"]["ok"]
        assert {v["kind"] for v in reports["boundary"]["violations"]} == {"BoundaryPrefixViolation"}
        # --boundary, when given, is checked in place of the annotation
        assert run(["verify", str(out), "--boundary", f"2,{count}"]) == 0

    @pytest.mark.parametrize(
        "length, tiles",
        [(10**12, [[0, 1], [2, 3]]), (2**63 - 1, [[-5, -4]]), (2**63 - 1, [])],
        ids=["1e12", "max-length-below-0", "max-length-no-tiles"],
    )
    def test_huge_declared_length_reports_capped_holes(self, tmp_path, capsys, length, tiles):
        f = tmp_path / "huge.json"
        write_json(f, {"kind": "interval", "length": length, "gap_set": [[1, 1]], "tiles": tiles})
        assert run(["verify", str(f)]) == 4
        report = json.loads(capsys.readouterr().out)["interval"]
        assert report["truncated"] and not report["ok"]
        points = [p for tile in tiles for p in tile]
        below = [[p] for p in points if p < 0]
        holes = [[p] for p in range(64) if p not in points][: 32 - len(below)]
        assert [v["location"] for v in report["violations"]] == below + holes
        assert [v["kind"] for v in report["violations"]] == ["OutOfRange"] * len(below) + ["Hole"] * len(holes)

    @pytest.mark.parametrize(
        "tiles",
        [[[0, 99999999999999999999999], [2, 3]], [[1, 0], [2, 3]], [[0], [1, 2, 3]], [5, [0, 1]]],
        ids=["beyond-int64", "non-increasing", "one-point", "not-a-list"],
    )
    def test_malformed_tiles_are_parse_errors(self, tmp_path, capsys, tiles):
        f = tmp_path / "bad.json"
        write_json(f, {"kind": "interval", "length": 4, "gap_set": [[1, 1]], "tiles": tiles})
        assert run(["verify", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "paths, named",
        [
            ([[[0, 0, 3], [1, 0]]], "path 0: point [0, 0, 3]"),
            ([[[0, 0], [1, 0]], [[0, 1], [1]]], "path 1: point [1]"),
            ([[[0, 0], 5]], "path 0: point 5"),
        ],
        ids=["three-coordinates", "one-coordinate", "scalar"],
    )
    def test_rectangle_point_not_a_pair_is_parse_error(self, tmp_path, capsys, paths, named):
        f = tmp_path / "bad.json"
        f.write_text(
            json.dumps({"kind": "rectangle", "width": 2, "height": 1, "step_type": [[[1, 0], 1]], "paths": paths}),
            encoding="utf-8",
        )
        assert run(["verify", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {named} is not an [x, y] pair") and "Traceback" not in err

    @pytest.mark.parametrize(
        "tiling, named",
        [
            ({"kind": "interval", "length": 2, "gap_set": [[1, 1]], "tiles": [[0.7, 1.2]]}, "0.7"),
            ({"kind": "interval", "length": 2, "gap_set": [[1, 1]], "tiles": [[False, True]]}, "False"),
            (
                {"kind": "rectangle", "width": 2, "height": 1, "step_type": [[[1, 0], 1]],
                 "paths": [[[0.9, 0], [1.5, 0]]]},
                "0.9",
            ),
        ],
        ids=["fractional-tile", "boolean-tile", "fractional-path"],
    )
    def test_non_integer_points_are_parse_errors(self, tmp_path, capsys, tiling, named):
        # truncated to [0, 1] or [[0, 0], [1, 0]], each of these would tile
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(tiling), encoding="utf-8")
        assert run(["verify", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: value {named} is not an integer") and "Traceback" not in err

    @pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")], ids=["compact", "spaced"])
    @pytest.mark.parametrize(
        "tiling, named",
        [
            ({"kind": "interval", "length": 4, "gap_set": [[1, 1]], "tiles": [[False, True], [2, 3]]}, "False"),
            (
                {"kind": "rectangle", "width": 2, "height": 1, "step_type": [[[1, 0], 1]],
                 "paths": [[[0, False], [1, 0]]]},
                "False",
            ),
        ],
        ids=["tiles", "paths"],
    )
    def test_booleans_among_integer_points_are_parse_errors(self, tmp_path, capsys, tiling, named, separators):
        # with the bools read as 0 and 1, each of these files would tile
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(tiling, separators=separators), encoding="utf-8")
        assert run(["verify", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: value {named} is not an integer") and "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"length": 4.9, "gap_set": [[1.5, 1]]}, "a gap distance must be an integer, not 1.5"),
            ({"length": 4.9}, "length must be an integer, not 4.9"),
            ({"length": True, "tiles": [[0, 1]]}, "length must be an integer, not True"),
            ({"gap_set": [[1, True]]}, "a gap multiplicity must be an integer, not True"),
            ({"length": "4"}, "length must be an integer, not '4'"),
            ({"annotations": {"boundary_prefix_count": "1"}}, "boundary_prefix_count must be an integer, not '1'"),
            ({"annotations": {"boundary_prefix_count": 1.0}}, "boundary_prefix_count must be an integer, not 1.0"),
            ({"annotations": {"boundary_prefix_count": -1}}, "boundary_prefix_count must be >= 0, not -1"),
            ({"annotations": {"homogeneous_for": [[1.0, 1]]}}, "a gap distance must be an integer, not 1.0"),
            (
                {"annotations": {"homogeneous_for": [[1, 1]]}, "gap_set": [[5, 1]]},
                "homogeneous_for [[1, 1]] differs from gap_set [[5, 1]]",
            ),
            ({"annotations": [1]}, "annotations must be an object, not [1]"),
            ({"annotations": []}, "annotations must be an object, not []"),
            ({"annotations": False}, "annotations must be an object, not False"),
            ({"kind": "rectangle", "width": 2.5}, "width must be an integer, not 2.5"),
            ({"kind": "rectangle", "height": True}, "height must be an integer, not True"),
            ({"kind": "rectangle", "window": "1"}, "window must be an integer, not '1'"),
            ({"kind": "rectangle", "step_type": [[[1.0, 0], 1]]}, "a step must be an integer, not 1.0"),
            ({"kind": "rectangle", "step_type": [[[1, 0], True]]}, "a step multiplicity must be an integer, not True"),
            ({"kind": "rectangle", "step_type": [[[1, 0, 7], 1]]}, "too many values to unpack (expected 2)"),
        ],
        ids=[
            "float-length-and-gap", "float-length", "bool-length", "bool-multiplicity", "string-length",
            "string-boundary-count", "float-boundary-count", "negative-boundary-count", "float-homogeneous-gap",
            "homogeneous-for-other-gaps",
            "list-annotations",
            "empty-list-annotations", "false-annotations", "float-width",
            "bool-height", "string-window", "float-step", "bool-step-multiplicity", "three-coordinate-step",
        ],
    )
    def test_malformed_header_fields_are_parse_errors(self, tmp_path, capsys, fields, named):
        # read loosely (a number truncated, a bool taken as 1, a step's third
        # coordinate dropped), most of these files would tile
        if fields.get("kind") == "rectangle":
            tiling = {"kind": "rectangle", "width": 2, "height": 1, "step_type": [[[1, 0], 1]],
                      "paths": [[[0, 0], [1, 0]]]}
        else:
            tiling = {"kind": "interval", "length": 4, "gap_set": [[1, 1]], "tiles": [[0, 1], [2, 3]]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({**tiling, **fields}, sort_keys=True, separators=(",", ":")), encoding="utf-8")
        assert run(["verify", str(f)]) == 1
        err = capsys.readouterr().err
        assert err == f"parse error: {named}\n"

    def test_unparseable_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert run(["verify", str(bad)]) == 1

    @pytest.mark.parametrize("option", [["--boundary", "1,1"], ["--homogeneous"]])
    def test_an_interval_option_on_a_rectangle_file_exits_1(self, tmp_path, capsys, option):
        f = tmp_path / "r.json"
        write_json(f, rectangle_to_obj(stair_tiling(3, 4)))
        assert run(["verify", str(f), *option]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option[0]} checks an interval tiling; {f} holds a rectangle tiling\n"

    def test_windowed_rectangle_file(self, tmp_path):
        from gaptiles import diagonal_stripe_tiling

        f = tmp_path / "stripes.json"
        write_json(f, rectangle_to_obj(diagonal_stripe_tiling(6, 2, 11)))
        assert run(["verify", str(f)]) == 0

    def test_homogeneous_flag(self, tmp_path):
        from gaptiles import boundary_base, homogeneous_base
        from gaptiles.serialize import interval_to_obj

        st = homogeneous_base(boundary_base(1, 9, 1, 1))
        out = tmp_path / "h.json"
        write_json(out, interval_to_obj(st.tiling, st.gap_prefix))
        assert run(["verify", str(out), "--homogeneous"]) == 0
        # homogeneity is auto-detected from the annotation too
        assert run(["verify", str(out)]) == 0

    @pytest.mark.parametrize(
        "text, flags, code, kinds",
        [
            ('{"annotations":{},"gap_set":[[1,18446744073709551616]],"kind":"interval",'
             '"length":4,"tiles":[[0,1],[2,3]]}', [], 4, ["GapMismatch"] * 2),
            # windowed, both tiles are shorter than a window: vacuously homogeneous
            ('{"annotations":{},"gap_set":[[1,18446744073709551616]],"kind":"interval",'
             '"length":4,"tiles":[[0,1],[2,3]]}', ["--homogeneous"], 0, []),
            ('{"height":2,"kind":"rectangle","paths":[[[0,0],[0,1]],[[1,0],[1,1]]],'
             '"step_type":[[[0,1],18446744073709551616]],"width":2}', [], 4, ["TypeMismatch"] * 2),
        ],
    )
    def test_more_gaps_or_steps_than_points_are_not_listed(self, tmp_path, text, flags, code, kinds):
        # 2**64 gaps or steps fit no tile or path of a 4-point file, and listing
        # them would take all memory: the child runs capped at 1 GiB, with a
        # time limit
        f = tmp_path / "t.json"
        f.write_text(text + "\n")
        proc = run_child(["verify", str(f), *flags], timeout=60, max_bytes=1 << 30)
        assert proc.returncode == code, proc.stderr
        assert [v["kind"] for v in next(iter(json.loads(proc.stdout).values()))["violations"]] == kinds


class TestRenderCommand:
    def test_rectangle_svg(self, tmp_path):
        f = tmp_path / "stair.json"
        write_json(f, rectangle_to_obj(stair_tiling(3, 4)))
        out = tmp_path / "stair.svg"
        assert run(["render", str(f), "--out", str(out)]) == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 5

    def test_interval_ascii_truncation(self, tmp_path):
        t = tmp_path / "t.json"
        run(["construct", "--gaps", "1:1,9:1", "--split", "2,0", "--out", str(t)])
        out = tmp_path / "t.txt"
        assert run(["render", str(t), "--format", "ascii", "--max-points", "20", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "…" in text and "+34" in text

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--cell-size", "1", "cell_size must be >= 2, got 1"), ("--max-points", "0", "max_points must be >= 1, got 0")],
    )
    def test_out_of_range_option_names_its_bound(self, tmp_path, capsys, flag, value, message):
        f = tmp_path / "stair.json"
        write_json(f, rectangle_to_obj(stair_tiling(3, 4)))
        assert run(["render", str(f), flag, value]) == 1
        assert capsys.readouterr().err == f"render error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stair.json"]

    def test_empty_file_exit_1(self, tmp_path):
        f = tmp_path / "empty.json"
        write_json(
            f,
            {"kind": "rectangle", "width": 1, "height": 1, "step_type": [[[1, 0], 1]], "paths": []},
        )
        assert run(["render", str(f)]) == 1

    def test_out_onto_a_fifo_exits_1(self, tmp_path):
        # in a child with a timeout: opening a FIFO with no reader for writing
        # blocks, so a render that wrote straight to --out would hang
        f = tmp_path / "stair.json"
        write_json(f, rectangle_to_obj(stair_tiling(3, 4)))
        fifo = tmp_path / "out.svg"
        os.mkfifo(fifo)
        proc = run_child(["render", str(f), "--out", str(fifo)], timeout=30)
        assert proc.returncode == 1
        assert proc.stderr == f"i/o error: [Errno {errno.EEXIST}] exists and is not a regular file: '{fifo}'\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.svg", "stair.json"]


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        files = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            t = d / "t.json"
            run(["construct", "--gaps", "1:1,9:1,2970:1", "--split", "2,1", "--out", str(t)])
            run(["minlen", "--gaps", "1:1,2:1", "--max", "30", "--out", str(d / "w.json")])
            run(["render", str(t), "--seed", "3", "--out", str(d / "t.svg")])
            files[tag] = {
                p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()
            }
        assert files["a"] == files["b"]


class TestCatalog:
    def test_records_and_min_lengths(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        assert run(
            ["catalog", "--max-distance", "3", "--max-multiplicity", "2", "--nmax", "30", "--out", str(out)]
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == len(enumerate_gap_sets(3, 2)) == 9
        by_gaps = {tuple(tuple(e) for e in r["gap_set"]): r for r in records}
        # all six two-gap multisets over distances <= 3 are present, with min lengths
        assert by_gaps[((1, 2),)]["min_length"] == 3
        assert by_gaps[((1, 1), (2, 1))]["min_length"] == 6
        assert by_gaps[((1, 1), (3, 1))]["min_length"] == 6
        assert by_gaps[((2, 2),)]["min_length"] == 6
        assert by_gaps[((2, 1), (3, 1))]["min_length"] == 18
        assert by_gaps[((3, 2),)]["min_length"] == 9
        # witness files verify when read back
        for r in records:
            if r["witness"]:
                kind, tiling, gaps = tiling_from_obj(read_json(tmp_path / r["witness"]))
                assert verify_interval_tiling(tiling, gaps).ok

    def test_resume_is_idempotent_and_identical(self, tmp_path):
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        a = d1 / "catalog.jsonl"
        run(["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "20", "--out", str(a)])
        full = a.read_bytes()
        # rerun: no duplicates appended
        run(["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "20", "--out", str(a)])
        assert a.read_bytes() == full
        # interrupted run: keep only the first two records, resume, compare bytes
        b = d2 / "catalog.jsonl"
        lines = full.decode("utf-8").splitlines(keepends=True)
        b.write_text("".join(lines[:2]), encoding="utf-8")
        run(["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "20", "--out", str(b)])
        assert b.read_bytes() == full

    def test_config_mismatch_rejected(self, tmp_path):
        a = tmp_path / "a.jsonl"
        run(["catalog", "--max-distance", "2", "--max-multiplicity", "1", "--nmax", "20", "--out", str(a)])
        assert run(
            ["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "20", "--out", str(a)]
        ) == 1

    def test_timings_records_wall_time(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        run(
            ["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "20",
             "--timings", "--out", str(out)]
        )
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["index"] for r in records] == list(range(5))
        assert all(isinstance(r["wall_ms"], float) and r["wall_ms"] >= 0 for r in records)

    @pytest.mark.parametrize("first, resumed", [([], ["--timings"]), (["--timings"], [])])
    def test_resume_under_another_timings_setting_is_refused(self, tmp_path, capsys, first, resumed):
        out = tmp_path / "catalog.jsonl"
        argv = ["catalog", "--max-distance", "2", "--max-multiplicity", "2", "--nmax", "20",
                "--out", str(out)]
        assert run(argv + first) == 0
        cut = "".join(out.read_text().splitlines(keepends=True)[:2])
        out.write_text(cut)
        capsys.readouterr()
        assert run(argv + resumed) == 1
        message = f"existing catalog {out} was built with a different configuration"
        assert capsys.readouterr().err == f"catalog error: {message}\n"
        assert out.read_text() == cut

    def test_budget_exceeded_is_its_own_outcome(self, tmp_path, capsys):
        # one DFS state cannot reach a solution, so every search runs out
        out = tmp_path / "catalog.jsonl"
        assert run(
            ["catalog", "--max-distance", "1", "--max-multiplicity", "2", "--nmax", "12",
             "--max-nodes", "1", "--out", str(out)]
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["outcome"], r["min_length"], r["witness"]) for r in records] == [
            ("budget-exceeded", None, None)
        ] * 2
        err = capsys.readouterr().err
        assert "NOT FOUND" not in err
        assert err.count("BUDGET EXCEEDED: interval search budget exceeded at length ") == 2


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-nodes", "0", "max_nodes must be >= 1, got 0"),
            ("--nmax", "-5", "n_max must be >= 1, got -5"),
            ("--max-distance", "0", "max_distance must be >= 1, got 0"),
            ("--max-multiplicity", "0", "max_multiplicity must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_option_exit_1_without_a_file(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "catalog.jsonl"
        assert run(
            ["catalog", "--max-distance", "1", "--max-multiplicity", "1", "--nmax", "12",
             flag, value, "--out", str(out)]
        ) == 1
        assert capsys.readouterr().err == f"catalog error: {message}\n"
        assert list(tmp_path.iterdir()) == []


def test_conditions_command(capsys):
    assert run(["conditions", "--gaps", "1:1,9:1,2970:1"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    by_name = {r["name"]: r for r in lines}
    assert by_name["staged-growth(s=2,p=1)"]["status"] == "satisfied"
    assert by_name["three-gap-quadratic"]["status"] == "not-satisfied"


def test_conditions_on_a_huge_ratio_fit_in_a_small_address_space():
    # whether a = q // p and a + 1 are sums of the coins is a closed form, with
    # no table of the sums up to q // p = 10^9
    proc = run_child(["conditions", "--gaps", "1:1,1000000000:1"], timeout=60, max_bytes=1 << 30)
    assert (proc.returncode, proc.stderr) == (0, "")
    by_name = {r["name"]: r for r in map(json.loads, proc.stdout.splitlines())}
    assert by_name["two-value-representation"]["status"] == "satisfied"


def test_height_cache_env_round_trip(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("GAPTILES_CACHE", str(cache))
    monkeypatch.setattr(grid, "_default_tables", {})
    assert run(["fvalue", "--k", "1", "--l", "2", "--m", "3"]) == 0
    assert sorted(f.name for f in cache.iterdir()) == ["f_1_2_3.json"]
    # a new process-wide table, as in a new process: the second run reads
    # the persisted witness and searches nothing
    monkeypatch.setattr(grid, "_default_tables", {})

    def no_search(*args):
        raise AssertionError(f"searched {args}")

    monkeypatch.setattr(grid, "solve_rectangle", no_search)
    assert run(["fvalue", "--k", "1", "--l", "2", "--m", "3"]) == 0
    assert capsys.readouterr().out == "f(1,2,3) = 8\n" * 2


def test_construct_over_swapped_height_cache_files(tmp_path, monkeypatch, capsys):
    # each witness file verifies but holds the other shape's witness: neither
    # is served, and both shapes are searched again
    cache = tmp_path / "cache"
    monkeypatch.setenv("GAPTILES_CACHE", str(cache))
    monkeypatch.setattr(grid, "_default_tables", {})
    for k in ("1", "2"):
        assert run(["fvalue", "--k", k, "--l", "2", "--m", "3"]) == 0
    a, b = cache / "f_1_2_3.json", cache / "f_2_2_3.json"
    a_bytes = a.read_bytes()
    a.write_bytes(b.read_bytes())
    b.write_bytes(a_bytes)
    monkeypatch.setattr(grid, "_default_tables", {})
    out = tmp_path / "t.json"
    assert run(["construct", "--gaps", "1:1,16:2", "--split", "2,0", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    assert run(["fvalue", "--k", "1", "--l", "2", "--m", "3"]) == 0
    assert capsys.readouterr().out.endswith("f(1,2,3) = 8\n")
    assert sorted(f.name for f in cache.iterdir()) == ["f_1_2_3.json", "f_2_2_3.json"]


def test_fvalue_errors(capsys, monkeypatch):
    assert run(["fvalue", "--k", "0", "--l", "1", "--m", "2"]) == 1
    assert capsys.readouterr().err == "error: k and l must be >= 1\n"

    def exhausted(k, l, m):
        raise SearchExhausted(f"no admissible height <= 9 for ({k},{l},{m})")

    monkeypatch.setattr(cli, "min_height_rect", exhausted)
    assert run(["fvalue", "--k", "1", "--l", "2", "--m", "3"]) == 3
    assert capsys.readouterr().err == "error: no admissible height <= 9 for (1,2,3)\n"


def test_console_entry_point(tmp_path):
    proc = run_child(["minlen", "--gaps", "1:1,2:1", "--max", "30"], cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def test_bad_flags_exit_1():
    assert run(["construct"]) == 1
