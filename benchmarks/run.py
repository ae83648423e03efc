"""gaptiles benchmark: one workload per process, every output checked.

    python3 benchmarks/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets the workload up five times (set-up = importing gaptiles in a
fresh interpreter plus generating the inputs; the median is `setup_s`), then
repeats timed iterations for about --seconds, each followed by the
independent checker and by host-speed calibrations outside the timed region.
With --trace 0 it reports the end-to-end metrics, whose times are scaled to a
reference host speed (see calibrate.py); with --trace 1 it alternates
untraced and traced iterations and reports the per-layer metrics, writing
the spans to .bench_out/. The last line of stdout is one JSON object;
human-readable lines with sample counts go to stderr. `--workload all` runs
each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
CALIBRATIONS = 5  # calibrations after each set-up and each iteration
# Median calibration time on the reference host, in seconds. Time metrics are
# reported at this host speed; see calibrate.py.
CALIBRATION_REF_S = 0.045
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_seconds(modules) -> float:
    """Time to import numpy and the workload's gaptiles modules in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import numpy, {', '.join(modules)}; print(time.perf_counter() - t)"
    )
    env = {k: v for k, v in os.environ.items() if k != "GAPTILES_CACHE"}
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from calibrate import calibrate
    from tracing import Tracer

    setups, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds(wl.imports)
        t0 = time.perf_counter()
        wl.setup(seed, workdir)
        setups.append(t_import + time.perf_counter() - t0)
        calibrations += [calibrate() for _ in range(CALIBRATIONS)]
    if getattr(wl, "sha256", None):
        log(f"{wl.name}: input sha256 {wl.sha256}")

    walls = {False: [], True: []}
    peak_rss_mb = None
    layers, tracers = [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        tracer = Tracer() if traced else None
        gc.collect()
        try:
            with tracer.installed() if traced else nullcontext():
                t0 = time.perf_counter()
                result = wl.run()
                wall = time.perf_counter() - t0
            if peak_rss_mb is None:
                # Before any check, so the checker's memory is not counted.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            n, failures = wl.check(result)
        except Exception:
            log(traceback.format_exc())
            n, failures = 1, ["exception"]
        else:
            walls[traced].append(wall)
            if traced:
                layers.append(tracer.layer_metrics(wl.output_points) | {"trace.wall_s": wall})
                tracers.append(tracer)
        result = None
        attempted += n
        failed += len(failures)
        for f in failures:
            log(f"{wl.name}: FAILED: {f}")
        gc.collect()
        after = [calibrate() for _ in range(CALIBRATIONS)]
        calibrations += after
        log(f"{wl.name}: iteration {i + 1} {'traced' if traced else 'untraced'} "
            f"{'failed' if failures else f'{wall:.4f} s'}, calibration {statistics.median(after):.4f} s")
        i += 1
        elapsed = time.perf_counter() - start
        need_both = trace and not (walls[False] and walls[True]) and i < 4
        # Start another iteration only if it would end less than half an
        # iteration past the deadline, so a run lasts --seconds on average.
        if not need_both and elapsed + 0.5 * elapsed / i > seconds:
            break
    n, failures = wl.final_check()
    attempted += n
    failed += len(failures)
    for f in failures:
        log(f"{wl.name}: FAILED: {f}")
    return {
        "setups": setups,
        "calibrations": calibrations,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "tracers": tracers,
        "attempted": attempted,
        "failed": failed,
    }


def end_to_end(wl, m: dict) -> dict:
    """End-to-end metrics. Times are scaled to the reference host speed:
    multiplied by CALIBRATION_REF_S / (median calibration of this run)."""
    walls = m["walls"][False]
    calibration = statistics.median(m["calibrations"])
    scale = CALIBRATION_REF_S / calibration
    wall = statistics.median(walls)
    values = {
        "ref_wall_s": wall * scale,
        "ref_points_per_s": wl.output_points / (wall * scale),
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_s": statistics.median(m["setups"]) * scale,
    }
    notes = {
        "ref_wall_s": f"median of {len(walls)} iterations, scaled",
        "ref_points_per_s": f"from the median of {len(walls)} iterations, scaled",
        "peak_rss_mb": "process peak through set-up and the first iteration, before its check",
        "setup_s": f"median of {len(m['setups'])} set-ups, scaled",
    }
    for name, unit in END_TO_END.items():
        log(f"{wl.name:12s} {name:16s} {values[name]:14.6g} {unit:5s} {notes[name]}")
    log(f"{wl.name:12s} {'wall_s':16s} {wall:14.6g} {'s':5s} median of {len(walls)} iterations, unscaled")
    log(f"{wl.name:12s} {'raw_setup_s':16s} {statistics.median(m['setups']):14.6g} {'s':5s} "
        f"median of {len(m['setups'])} set-ups, unscaled")
    log(f"{wl.name:12s} {'calibration_s':16s} {calibration:14.6g} {'s':5s} "
        f"median of {len(m['calibrations'])} calibrations (reference {CALIBRATION_REF_S})")
    log(f"{wl.name:12s} {'error_rate':16s} {m['failed'] / m['attempted']:14.6g} {'':5s} "
        f"{m['failed']} failed of {m['attempted']} attempted")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(wl, m: dict, seed: int) -> dict:
    layers = m["layers"]
    values = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
    values["trace.untraced_wall_s"] = statistics.median(m["walls"][False])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.layer_share"] = statistics.median(row["trace.layer_self_s"] / row["trace.wall_s"] for row in layers)
    values["trace.calibration_s"] = statistics.median(m["calibrations"])
    for name, unit in PER_LAYER.items():
        log(f"{wl.name:12s} {name:32s} {values[name]:14.6g} {unit:5s} median of {len(layers)} traced iterations")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = [[{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for s in t.spans] for t in m["tracers"]]
    path = out_dir / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": wl.name, "seed": seed, "iterations": spans}) + "\n", encoding="utf-8")
    log(f"{wl.name}: spans written to {path.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    os.environ.pop("GAPTILES_CACHE", None)  # keep the height table in memory, inside the run
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    workdir = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    try:
        m = measure(wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not m["walls"][False] or (trace and not m["walls"][True]):
        log(f"{name}: no successful timed iteration")
        return 1
    metrics = per_layer(wl, m, seed) if trace else end_to_end(wl, m)
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            log(f"{name}: exited {proc.returncode}")
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="construct, homogeneous, verify-file, search or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaptiles" / "__init__.py").is_file():
        log(f"gaptiles sources not found under {SRC}")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
