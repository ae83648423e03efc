"""Set-based reference verifiers used only by tests.

Plain Python over point lists: a Counter for coverage, sorted lists for gap
and step multisets. Each returns the full ordered violation list as
(kind, location, detail) triples, in the order the package documents:
OutOfRange below 0, Overlap, Hole, OutOfRange above, then per-tile or
per-path mismatches by index.
"""

from collections import Counter


def cover_violations(points, n):
    count = Counter(points)
    out = [("OutOfRange", (p,), "point below 0") for p in sorted(q for q in count if q < 0)]
    out += [("Overlap", (p,), f"point covered {count[p]} times") for p in sorted(count) if 0 <= p < n and count[p] > 1]
    out += [("Hole", (p,), "point not covered by any block") for p in range(n) if p not in count]
    out += [("OutOfRange", (p,), f"point outside [0, {n - 1}]") for p in sorted(q for q in count if q >= n)]
    return out


def _diffs(seq):
    return [b - a for a, b in zip(seq, seq[1:])]


def interval_violations(tiles, n, gaps):
    out = cover_violations([p for t in tiles for p in t], n)
    for i, t in enumerate(tiles):
        if sorted(_diffs(t)) != sorted(gaps):
            out.append(("GapMismatch", (i,), "tile gap multiset differs from the target gap set"))
    return out


def homogeneous_violations(seqs, n, gaps):
    out = cover_violations([p for s in seqs for p in s], n)
    w = len(gaps)
    for i, s in enumerate(seqs):
        d = _diffs(s)
        for off in range(len(d) - w + 1):
            if sorted(d[off : off + w]) != sorted(gaps):
                out.append(("WindowMismatch", (i, off), f"window at point offset {off} has wrong gap multiset"))
    return out


def rectangle_violations(paths, width, height, steps, window):
    """steps: the declared step vectors with repetition."""
    out = []
    flat = []
    for path in paths:
        for x, y in path:
            if 0 <= x < width and 0 <= y < height:
                flat.append(x + y * width)
            else:
                out.append(("OutOfRange", (x, y), "path point outside the rectangle"))
    # cover faults are located at the (x, y) cell, in row-major order
    for kind, (p,), detail in cover_violations(flat, width * height):
        out.append((kind, (p % width, p // width), detail))
    want = sorted(steps)
    for i, path in enumerate(paths):
        s = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(path, path[1:])]
        if window is None:
            if sorted(s) != want:
                out.append(("TypeMismatch", (i,), "path step multiset differs from declared type"))
        elif len(s) < window:
            out.append(("WindowMismatch", (i, 0), f"path has fewer than {window} steps"))
        else:
            for off in range(len(s) - window + 1):
                if sorted(s[off : off + window]) != want:
                    out.append(
                        (
                            "WindowMismatch",
                            (i, off),
                            f"window of {window} steps at offset {off} differs from declared type",
                        )
                    )
    return out
