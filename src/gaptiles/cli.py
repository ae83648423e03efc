"""Command-line front end.

Exit codes: 0 ok, 1 I/O or parse failure, a distance out of range or out of
memory, 2 hypothesis violation, 3 not-found-within-bounds or search budget
exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from pathlib import Path

from .catalog import run_catalog
from .conditions import check_sufficient_conditions
from .pipeline import auto_split, construct, thresholds
from .errors import (
    CardinalityViolation,
    GrowthViolation,
    MultiplicityViolation,
    NoFeasibleSplit,
    NoRepresentation,
    PreconditionError,
    SearchExhausted,
    TilingError,
    VerificationFailed,
)
from .grid import min_height_rect
from .oracle import SearchConfig, SearchStatus, min_interval, solve_interval
from .render import (
    RenderSpec,
    render_interval_ascii,
    render_interval_svg,
    render_rectangle_ascii,
    render_rectangle_svg,
)
from .serialize import (
    dumps_canonical,
    interval_to_obj,
    read_json,
    rectangle_to_obj,
    refuse_special_file,
    report_to_obj,
    tiling_from_obj,
    write_atomic,
    write_json,
)
from .types import GapSet, SplitSpec
from .verify import (
    verify_boundary_prefix,
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)

_HYPOTHESIS_ERRORS = (
    GrowthViolation,
    MultiplicityViolation,
    CardinalityViolation,
    NoFeasibleSplit,
    NoRepresentation,
)


_MAX_NODES_HELP = "search budget: DFS states entered per searched length (default %(default)s)"


class _Parser(argparse.ArgumentParser):
    # The documented exit-code contract reserves 2 for hypothesis violations,
    # so argument errors exit 1 instead of argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int(token: str, what: str) -> int:
    """The token as an integer. Only ASCII -?[0-9]+ is one: not the
    underscores, plus signs, padding or non-ASCII digits int() accepts."""
    if re.fullmatch(r"-?[0-9]+", token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise PreconditionError(f"{what}: {token!r} is not an integer")


def _int_option(token: str) -> int:
    """The type of the integer options: _int's grammar, refused with
    argparse's own message (so with exit 1) otherwise."""
    try:
        return _int(token, "option")
    except PreconditionError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


def _at_least_one(value: int, option: str) -> None:
    """Refuse a value below 1 as malformed input: a search of an empty
    interval would report a proof claim about no interval at all."""
    if value < 1:
        raise PreconditionError(f"{option} must be >= 1, got {value}")


def _int_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise PreconditionError(f"{what}: expected two integers a,b, got {text!r}")
    return _int(parts[0], what), _int(parts[1], what)


def parse_gaps(text: str) -> GapSet:
    pairs = []
    for part in text.split(","):
        d, sep, k = part.partition(":")
        pairs.append((_int(d, "--gaps"), _int(k, "--gaps") if sep else 1))
    return GapSet.from_pairs(pairs)


def parse_split(text: str) -> SplitSpec:
    return SplitSpec(*_int_pair(text, "--split"))


def cmd_construct(args) -> int:
    gaps = parse_gaps(args.gaps)
    split = parse_split(args.split) if args.split is not None else None
    if args.thresholds_only:
        report = thresholds(gaps, split)
        for row in report.rows:
            achieved = "?" if row.achieved is None else str(row.achieved)
            print(f"{row.stage}: required >= {row.required}, achieved {achieved}")
        return 0
    # refuse before a long build, not at its write; a directory first, as
    # "", "." and "/" have no name to put the other files' suffixes on
    out = Path(args.out)
    refuse_special_file(out)
    if not out.parent.is_dir():
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(out))
    outputs = (out, out.with_suffix(".trace.json"), out.with_suffix(".thresholds.json"))
    for path in outputs[1:]:
        refuse_special_file(path)
    splits = [split] if split else auto_split(gaps)
    result = None
    errors = []
    exhausted = False
    for sp in splits:
        try:
            result = construct(gaps, sp)
            break
        except _HYPOTHESIS_ERRORS as exc:
            errors.append(f"split (s={sp.s},p={sp.p}): {exc}")
        except SearchExhausted as exc:
            if split:
                raise
            # undecided, not refuted: the next split may still build
            exhausted = True
            errors.append(f"split (s={sp.s},p={sp.p}): {exc}")
        except VerificationFailed as exc:
            print("verification: FAILED")
            print(f"error: {exc}", file=sys.stderr)
            return 4
    if result is None:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 3 if exhausted else 2
    write_json(outputs[0], interval_to_obj(result.tiling, gaps))
    write_json(outputs[1], list(result.trace))
    write_json(outputs[2], result.thresholds.to_obj())
    print(f"tiled interval of length {result.tiling.length} with {len(result.tiling.tiles)} tiles")
    # construct() raises VerificationFailed unless every stage's output passed its check.
    print("verification: ok")
    return 0


def cmd_solve(args) -> int:
    gaps = parse_gaps(args.gaps)
    _at_least_one(args.len, "--len")
    cfg = SearchConfig(max_nodes=args.max_nodes)
    outcome = solve_interval(gaps, args.len, cfg)
    if outcome.status is SearchStatus.FOUND:
        witness = outcome.witnesses[0]
        if args.out is not None:
            write_json(args.out, interval_to_obj(witness, gaps))
        print(f"found: length {args.len}, tiles {[list(t.points) for t in witness.tiles]}")
        return 0
    print(f"not found: {outcome.status.value} after {outcome.nodes_explored} nodes")
    return 3


def cmd_minlen(args) -> int:
    gaps = parse_gaps(args.gaps)
    _at_least_one(args.max, "--max")
    cfg = SearchConfig(max_nodes=args.max_nodes)
    found = min_interval(gaps, args.max, cfg)
    if found is None:
        print(f"not found within {args.max}")
        return 3
    n, witness = found
    if args.out is not None:
        write_json(args.out, interval_to_obj(witness, gaps))
    print(n)
    return 0


def cmd_verify(args) -> int:
    boundary = None if args.boundary is None else _int_pair(args.boundary, "--boundary")
    if boundary is not None and (boundary[0] < 1 or boundary[1] < 0):  # refused before the read
        raise PreconditionError("d1 must be >= 1 and count >= 0")
    try:
        kind, tiling, gaps = tiling_from_obj(read_json(args.file))
    except (OSError, ValueError, KeyError, PreconditionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    if kind != "interval" and (boundary is not None or args.homogeneous):
        option = "--boundary" if boundary is not None else "--homogeneous"
        raise PreconditionError(f"{option} checks an interval tiling; {args.file} holds a rectangle tiling")
    reports = {}
    if kind == "interval":
        homogeneous = args.homogeneous or tiling.annotations.homogeneous_for is not None
        if homogeneous:  # for the gap set, which a homogeneous_for annotation must be
            reports["homogeneous"] = verify_homogeneous(tiling.tiles, tiling.length, gaps)
        else:
            reports["interval"] = verify_interval_tiling(tiling, gaps)
        count = tiling.annotations.boundary_prefix_count
        if boundary is None and count is not None:
            boundary = (gaps.entries[0][0], count)
        if boundary is not None:
            reports["boundary"] = verify_boundary_prefix(tiling, *boundary)
    else:
        reports["rectangle"] = verify_rectangle_tiling(tiling)
    ok = all(r.ok for r in reports.values())
    print(dumps_canonical({name: report_to_obj(r) for name, r in reports.items()}), end="")
    return 0 if ok else 4


def cmd_render(args) -> int:
    try:
        kind, tiling, _ = tiling_from_obj(read_json(args.file))
        spec = RenderSpec(
            target=args.format, cell_size=args.cell_size, seed=args.seed, max_points=args.max_points
        )
        if kind == "interval":
            text = (
                render_interval_svg(tiling, spec)
                if spec.target == "svg"
                else render_interval_ascii(tiling, spec.max_points)
            )
        else:
            text = (
                render_rectangle_svg(tiling, spec)
                if spec.target == "svg"
                else render_rectangle_ascii(tiling)
            )
    except (OSError, ValueError, KeyError, PreconditionError) as exc:
        print(f"render error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out is not None else Path(args.file).with_suffix(
        ".svg" if args.format == "svg" else ".txt"
    )
    write_atomic(out, [text.encode("utf-8")])
    print(f"wrote {out}")
    return 0


def cmd_catalog(args) -> int:
    try:
        summary = run_catalog(
            args.out,
            max_distance=args.max_distance,
            max_multiplicity=args.max_multiplicity,
            n_max=args.nmax,
            max_nodes=args.max_nodes,
            timings=args.timings,
        )
    except (OSError, ValueError) as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return 1
    print(
        f"catalog: {summary['total']} gap sets, resumed at {summary['resumed_at']}, "
        f"computed {summary['computed']}"
    )
    for name in summary["not_found"]:
        print(f"NOT FOUND within bound: {{{name}}} — candidate for deeper search", file=sys.stderr)
    for message in summary["budget_exceeded"]:
        print(f"BUDGET EXCEEDED: {message} — rerun with a larger --max-nodes", file=sys.stderr)
    return 0


def cmd_fvalue(args) -> int:
    f, witness = min_height_rect(args.k, args.l, args.m)
    if args.out is not None:
        write_json(args.out, rectangle_to_obj(witness))
    print(f"f({args.k},{args.l},{args.m}) = {f}")
    return 0


def cmd_conditions(args) -> int:
    gaps = parse_gaps(args.gaps)
    split = parse_split(args.split) if args.split is not None else None
    for res in check_sufficient_conditions(gaps, split):
        print(dumps_canonical({"name": res.name, "status": res.status, "witness": res.witness}), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaptiles", description="Constructive interval tilings from gap multisets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a tiling for a gap set")
    p.add_argument("--gaps", required=True, help="gap set as d:k,d:k,... (ascending)")
    p.add_argument("--split", help="head,tail sizes as s,p (default: first feasible)")
    p.add_argument("--out", default="tiling.json")
    p.add_argument("--thresholds-only", action="store_true", help="report stage bounds and exit")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve", help="exact-cover search at one length")
    p.add_argument("--gaps", required=True)
    p.add_argument("--len", type=_int_option, required=True)
    p.add_argument("--max-nodes", type=_int_option, default=SearchConfig.max_nodes, help=_MAX_NODES_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("minlen", help="least tilable length up to a bound")
    p.add_argument("--gaps", required=True)
    p.add_argument("--max", type=_int_option, required=True)
    p.add_argument("--max-nodes", type=_int_option, default=SearchConfig.max_nodes, help=_MAX_NODES_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_minlen)

    p = sub.add_parser("verify", help="verify a tiling file")
    p.add_argument("file")
    p.add_argument("--boundary", help="d1,count — also check the boundary prefix")
    p.add_argument("--homogeneous", action="store_true", help="check windowed homogeneity")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render a tiling file to SVG or ASCII")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--format", choices=["svg", "ascii"], default="svg")
    p.add_argument("--cell-size", type=_int_option, default=24)
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--max-points", type=_int_option, default=200)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("catalog", help="minimal lengths over a family of gap sets (JSONL, resumable)")
    p.add_argument("--max-distance", type=_int_option, required=True)
    p.add_argument("--max-multiplicity", type=_int_option, required=True)
    p.add_argument("--nmax", type=_int_option, required=True)
    p.add_argument("--out", default="catalog.jsonl")
    p.add_argument("--max-nodes", type=_int_option, default=SearchConfig.max_nodes, help=_MAX_NODES_HELP)
    p.add_argument("--timings", action="store_true", help="record wall time per record")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("fvalue", help="least rectangle height for a path type")
    p.add_argument("--k", type=_int_option, required=True, help="unit-right steps per path")
    p.add_argument("--l", type=_int_option, required=True, help="unit-up steps per path")
    p.add_argument("--m", type=_int_option, required=True, help="rectangle width in points")
    p.add_argument("--out", help="write the witness rectangle JSON here")
    p.set_defaults(func=cmd_fvalue)

    p = sub.add_parser("conditions", help="evaluate known sufficient conditions for a gap set")
    p.add_argument("--gaps", required=True)
    p.add_argument("--split")
    p.set_defaults(func=cmd_conditions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _HYPOTHESIS_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchExhausted as exc:  # a search ran out of budget: minlen, fvalue, construct, conditions
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except TilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
