"""Independent certificate checker for the benchmark.

Shares no code with ``gaptiles``: it never imports the package, and it reads
tiling files with its own parser. Tilings are held as CSR arrays (``offsets``
of length T+1 into a flat ``values`` array of points). Every check returns a
list of problems; an empty list means the certificate is valid.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def csr_from_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays from an iterable of point sequences."""
    rows = list(rows)
    sizes = np.fromiter((len(r) for r in rows), dtype=np.int64, count=len(rows))
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    values = np.fromiter((p for r in rows for p in r), dtype=np.int64, count=int(offsets[-1]))
    return offsets, values


def read_interval_file(path: str | Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Parse an interval tiling file in compact JSON (no spaces, as gaptiles
    and certgen write it) into (header, offsets, values).

    The header is every key except "tiles". The tiles array is parsed with
    numpy: a tile's size is one more than the number of commas between its
    brackets, and the digits give the points, so a million-point file needs
    no per-point Python objects and no array as long as the file.
    """
    text = Path(path).read_text(encoding="utf-8")
    key = '"tiles":'
    start = text.find(key)
    if start < 0:
        raise ValueError("no tiles array")
    start += len(key)
    if text.startswith("[]", start):
        end = start + 2
        body = ""
    else:
        if not text.startswith("[[", start):
            raise ValueError("tiles must be a list of lists")
        end = text.index("]]", start) + 2
        body = text[start + 1 : end - 1]
    header = json.loads(text[:start] + "[]" + text[end:])
    header.pop("tiles")
    if not body:
        return header, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    commas = np.flatnonzero(raw == ord(","))
    opens = np.flatnonzero(raw == ord("["))
    closes = np.flatnonzero(raw == ord("]"))
    if opens.size != closes.size or np.any(opens >= closes) or np.any(closes[:-1] >= opens[1:]):
        raise ValueError("tiles must be a list of flat lists")
    sizes = np.searchsorted(commas, closes) - np.searchsorted(commas, opens) + 1
    values = np.fromstring(body.translate(str.maketrans("[]", "  ")), dtype=np.int64, sep=",")
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if offsets[-1] != values.size:
        raise ValueError("tile sizes do not match the number of points")
    return header, offsets, values


def expand_gaps(gap_pairs) -> np.ndarray:
    """[[d, k], ...] -> ascending array of every gap with repetition."""
    return np.array(sorted(d for d, k in gap_pairs for _ in range(k)), dtype=np.int64)


def coverage_problems(values: np.ndarray, n: int) -> list[str]:
    """Problems with `values` as an exact cover of [0, n): each point once."""
    if values.size and (values.min() < 0 or values.max() >= n):
        return [f"points outside [0, {n})"]
    counts = np.bincount(values, minlength=n)
    out = []
    holes = int(np.count_nonzero(counts == 0))
    overlaps = int(np.count_nonzero(counts > 1))
    if holes:
        out.append(f"{holes} points uncovered")
    if overlaps:
        out.append(f"{overlaps} points covered more than once")
    return out


def check_interval(length: int, offsets: np.ndarray, values: np.ndarray, gaps: np.ndarray) -> list[str]:
    """Tiles partition [0, length) and each tile's sorted gaps equal `gaps`."""
    problems = coverage_problems(values, length)
    size = gaps.size + 1
    if np.any(np.diff(offsets) != size):
        return problems + [f"a tile does not have {size} points"]
    diffs = np.diff(values.reshape(-1, size), axis=1)
    if np.any(diffs <= 0):
        problems.append("a tile is not strictly increasing")
    diffs.sort(axis=1)
    bad = int(np.count_nonzero(np.any(diffs != gaps, axis=1)))
    if bad:
        problems.append(f"{bad} tiles have the wrong gap multiset")
    return problems


def check_homogeneous(length: int, offsets: np.ndarray, values: np.ndarray, gaps: np.ndarray) -> list[str]:
    """Sequences partition [0, length), are strictly increasing, and every
    window of len(gaps) consecutive gaps inside one sequence has sorted gaps
    equal to `gaps`. Sequences shorter than one window are vacuously fine."""
    problems = coverage_problems(values, length)
    seq_of = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    diffs = np.diff(values)
    inside = seq_of[1:] == seq_of[:-1]
    if np.any(diffs[inside] <= 0):
        problems.append("a sequence is not strictly increasing")
    w = gaps.size
    if values.size > w:
        starts = np.flatnonzero(seq_of[:-w] == seq_of[w:])
        windows = np.sort(sliding_window_view(diffs, w)[starts], axis=1)
        bad = int(np.count_nonzero(np.any(windows != gaps, axis=1)))
        if bad:
            problems.append(f"{bad} windows have the wrong gap multiset")
    return problems


def check_rectangle(width: int, height: int, paths, k: int, l: int) -> list[str]:
    """Paths partition [0,width) x [0,height), each with k unit-right and l
    unit-up steps."""
    problems = []
    flat = []
    for i, path in enumerate(paths):
        pts = np.asarray(path, dtype=np.int64).reshape(-1, 2)
        steps = np.diff(pts, axis=0)
        rights = int(np.count_nonzero((steps[:, 0] == 1) & (steps[:, 1] == 0)))
        ups = int(np.count_nonzero((steps[:, 0] == 0) & (steps[:, 1] == 1)))
        if rights != k or ups != l or len(steps) != k + l:
            problems.append(f"path {i} does not have {k} right and {l} up steps")
        if np.any((pts[:, 0] < 0) | (pts[:, 0] >= width) | (pts[:, 1] < 0) | (pts[:, 1] >= height)):
            problems.append(f"path {i} leaves the rectangle")
            continue
        flat.append(pts[:, 0] + pts[:, 1] * width)
    values = np.concatenate(flat) if flat else np.zeros(0, dtype=np.int64)
    return problems + coverage_problems(values, width * height)
