"""The four benchmark workloads.

Each workload has a set-up step (`setup`), one timed iteration (`run`), and a
correctness check of that iteration's output (`check`) made with the
independent checker, outside the timed region. `run` calls gaptiles through
module attributes, so that the traced mode's patches are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

import certgen
import checker

HERE = Path(__file__).resolve().parent


def _one_failure(problems: list[str]) -> list[str]:
    """The problems of one operation as at most one failure message."""
    return ["; ".join(problems)] if problems else []


class Workload:
    """Interface of a workload. `check` and `final_check` return the number of
    operations they account for and one message per failed operation."""

    name: str
    imports: tuple[str, ...]  # modules whose import counts as set-up
    output_points: int  # certified points one iteration produces

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, result) -> tuple[int, list[str]]:
        raise NotImplementedError

    def final_check(self) -> tuple[int, list[str]]:
        """Checks owed once per run after the last iteration."""
        return 0, []


class Construct(Workload):
    """CLI construct of the headline case {1, 9, 300289} with split (2, 1).

    The input is fixed: the seed does not change it.
    """

    name = "construct"
    imports = ("gaptiles.cli",)
    gaps = (1, 9, 300289)
    output_points = 1_201_156

    def setup(self, seed: int, workdir: Path) -> None:
        self.out = workdir / "construct" / "tiling.json"
        self.out.parent.mkdir(parents=True, exist_ok=True)

    def run(self):
        import gaptiles.cli

        argv = ["construct", "--gaps", ",".join(f"{d}:1" for d in self.gaps), "--split", "2,1",
                "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = gaptiles.cli.main(argv)
        return code, stdout.getvalue()

    def check(self, result) -> tuple[int, list[str]]:
        code, stdout = result
        problems = []
        if code != 0:
            problems.append(f"construct exited {code}")
        if "verification: ok" not in stdout:
            problems.append("gaptiles did not report verification ok")
        header, offsets, values = checker.read_interval_file(self.out)
        if header["length"] != self.output_points or header["gap_set"] != [[d, 1] for d in self.gaps]:
            problems.append(f"unexpected header {header}")
        problems += checker.check_interval(header["length"], offsets, values, np.array(self.gaps))
        for path in self.out.parent.iterdir():
            path.unlink()
        return 1, _one_failure(problems)


class Homogeneous(Workload):
    """homogeneous_step of the {1, 9} homogeneous base by the distance 30000.

    The input is fixed: the seed does not change it.
    """

    name = "homogeneous"
    imports = ("gaptiles.pipeline",)
    gaps = (1, 9, 30000)
    output_points = 600_000

    def setup(self, seed: int, workdir: Path) -> None:
        from gaptiles.pipeline import boundary_base, homogeneous_base

        self.base = homogeneous_base(boundary_base(1, 9, 1, 1))

    def run(self):
        import gaptiles.pipeline

        return gaptiles.pipeline.homogeneous_step(self.base, self.gaps[-1], 1)

    def check(self, state) -> tuple[int, list[str]]:
        tiling = state.tiling
        problems = []
        declared = tiling.annotations.homogeneous_for
        if tiling.length != self.output_points or declared is None or declared.expand() != self.gaps:
            problems.append(f"unexpected output: length {tiling.length}, homogeneous for {declared}")
        offsets, values = checker.csr_from_rows(t.points for t in tiling.tiles)
        problems += checker.check_homogeneous(tiling.length, offsets, values, np.array(self.gaps))
        return 1, _one_failure(problems)


class VerifyFile(Workload):
    """read_json -> tiling_from_obj -> verify_interval_tiling on a generated
    1.2M-point certificate. Corrupted copies of a smaller certificate from
    the same seed are each verified once per run, after the last iteration,
    and must be rejected: each holds one defect, so size adds nothing to
    that test but time."""

    name = "verify-file"
    imports = ("gaptiles.serialize", "gaptiles.verify")
    dilation = 75_000
    corrupted_dilation = 750
    output_points = 1_200_000

    def setup(self, seed: int, workdir: Path) -> None:
        length, pairs, tiles = certgen.generate(seed, self.dilation)
        self.gaps = checker.expand_gaps(pairs)
        self.tiles = tiles
        self.dir = workdir / "verify-file"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.clean = self.dir / "clean.json"
        data = certgen.to_json_bytes(length, pairs, tiles)
        self.clean.write_bytes(data)
        self.sha256 = hashlib.sha256(data).hexdigest()
        offsets = np.arange(0, tiles.size + 1, tiles.shape[1])
        if checker.check_interval(length, offsets, tiles.ravel(), self.gaps):
            raise RuntimeError("generated certificate is not a tiling")
        length, pairs, tiles = certgen.generate(seed, self.corrupted_dilation)
        gaps = checker.expand_gaps(pairs)
        self.corrupted = {}
        for kind in certgen.CORRUPTIONS:
            bad = certgen.corrupt(tiles, kind, seed)
            offsets = np.arange(0, bad.size + 1, bad.shape[1])
            if not checker.check_interval(length, offsets, bad.ravel(), gaps):
                raise RuntimeError(f"corruption {kind} was not injected")
            path = self.dir / f"{kind}.json"
            path.write_bytes(certgen.to_json_bytes(length, pairs, bad))
            self.corrupted[kind] = path

    def run(self, path: Path | None = None):
        import gaptiles.serialize
        import gaptiles.verify

        obj = gaptiles.serialize.read_json(path or self.clean)
        _, tiling, gap_set = gaptiles.serialize.tiling_from_obj(obj)
        return tiling, gaptiles.verify.verify_interval_tiling(tiling, gap_set)

    def check(self, result) -> tuple[int, list[str]]:
        tiling, report = result
        problems = [] if report.ok else ["gaptiles rejected the clean certificate"]
        offsets, values = checker.csr_from_rows(t.points for t in tiling.tiles)
        if not np.array_equal(values, self.tiles.ravel()) or tiling.length != self.output_points:
            problems.append("gaptiles parsed something other than the certificate")
        problems += checker.check_interval(tiling.length, offsets, values, self.gaps)
        return 1, _one_failure(problems)

    def final_check(self) -> tuple[int, list[str]]:
        accepted = [kind for kind, path in self.corrupted.items() if self.run(path)[1].ok]
        return len(self.corrupted), [f"gaptiles accepted the {kind} corruption" for kind in accepted]


class Search(Workload):
    """Catalog sweep (distances <= 6, at most 4 gaps, lengths <= 120) plus
    min_height_rect for every (k, l, m) with k + l <= 8 that needs a search.

    The seed permutes the order of the rectangle instances; the catalog order
    is fixed by gaptiles.
    """

    name = "search"
    imports = ("gaptiles.catalog", "gaptiles.grid")
    max_distance, max_multiplicity, n_max = 6, 4, 120

    def setup(self, seed: int, workdir: Path) -> None:
        expected = json.loads((HERE / "expected_search.json").read_text(encoding="utf-8"))
        self.min_length = expected["min_length"]
        self.fvalues = expected["fvalues"]
        instances = sorted(tuple(map(int, key.split(","))) for key in self.fvalues)
        self.instances = [instances[i] for i in np.random.default_rng(seed).permutation(len(instances))]
        self.output_points = sum(n for n in self.min_length.values() if n) + sum(
            m * self.fvalues[f"{k},{l},{m}"] for k, l, m in instances
        )
        self.dir = workdir / "search"
        self.runs = 0

    def run(self):
        import gaptiles.catalog
        import gaptiles.grid

        self.runs += 1
        out = self.dir / str(self.runs) / "catalog.jsonl"
        out.parent.mkdir(parents=True)
        gaptiles.catalog.run_catalog(out, self.max_distance, self.max_multiplicity, self.n_max)
        table = gaptiles.grid.HeightTable()
        rects = [(k, l, m, *gaptiles.grid.min_height_rect(k, l, m, table=table)) for k, l, m in self.instances]
        return out, rects

    def check(self, result) -> tuple[int, list[str]]:
        out, rects = result
        problems = []
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        seen = set()
        for rec in records:
            name = ",".join(f"{d}:{k}" for d, k in rec["gap_set"])
            seen.add(name)
            want = self.min_length.get(name, "missing")
            if rec["min_length"] != want:
                problems.append(f"{{{name}}}: min length {rec['min_length']}, expected {want}")
            elif want is not None:
                header, offsets, values = checker.read_interval_file(out.parent / rec["witness"])
                gaps = checker.expand_gaps(rec["gap_set"])
                if header["length"] != want or checker.check_interval(want, offsets, values, gaps):
                    problems.append(f"{{{name}}}: witness is not a tiling of length {want}")
        problems += [f"{{{name}}}: no record" for name in self.min_length.keys() - seen]
        for k, l, m, f, witness in rects:
            want = self.fvalues[f"{k},{l},{m}"]
            if f != want:
                problems.append(f"f({k},{l},{m}) = {f}, expected {want}")
            elif checker.check_rectangle(m, f, [p.points for p in witness.paths], k, l):
                problems.append(f"f({k},{l},{m}): witness is not a tiling")
        shutil.rmtree(out.parent)
        return len(self.min_length) + len(self.fvalues), problems


WORKLOADS = {w.name: w for w in (Construct, Homogeneous, VerifyFile, Search)}
