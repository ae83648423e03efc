"""Seeded generator of large interval-tiling certificates and corrupted copies.

Independent of the gaptiles construction. The building blocks are the four
tilings of [0, 8) by tiles with gaps {1, 2, 3}, listed below and checkable by
hand. A certificate is D interleaved copies of a word of `blocks` such tilings
chosen at random: copy j maps local point p to j + D*p. The result tiles
[0, 8*blocks*D) with the gap set {D, 2D, 3D}, every tile spans 6*D points, and
the seed decides which gap order each tile uses.
"""

from __future__ import annotations

import json

import numpy as np

BLOCK_LENGTH = 8
BASE_GAPS = (1, 2, 3)
# All tilings of [0, 8) by 4-point tiles whose gaps are a permutation of (1, 2, 3).
BLOCK_TILINGS = np.array(
    [
        [[0, 2, 3, 6], [1, 4, 5, 7]],
        [[0, 2, 5, 6], [1, 3, 4, 7]],
        [[0, 3, 4, 6], [1, 2, 5, 7]],
        [[0, 3, 5, 6], [1, 2, 4, 7]],
    ],
    dtype=np.int64,
)
CORRUPTIONS = ("swap", "overlap", "hole")


def generate(seed: int, dilation: int, blocks: int = 2) -> tuple[int, list[list[int]], np.ndarray]:
    """(length, gap_set pairs, tiles) with tiles an (M, 4) array sorted by first point."""
    rng = np.random.default_rng(seed)
    choice = rng.integers(0, len(BLOCK_TILINGS), size=(dilation, blocks))
    local = BLOCK_TILINGS[choice] + BLOCK_LENGTH * np.arange(blocks)[None, :, None, None]
    copy = np.arange(dilation)[:, None, None, None]
    tiles = (copy + dilation * local).reshape(-1, len(BASE_GAPS) + 1)
    tiles = tiles[np.argsort(tiles[:, 0], kind="stable")]
    length = BLOCK_LENGTH * blocks * dilation
    return length, [[dilation * g, 1] for g in BASE_GAPS], tiles


def corrupt(tiles: np.ndarray, kind: str, seed: int) -> np.ndarray:
    """A copy of `tiles` with one seeded defect that keeps every tile strictly
    increasing, so a reader parses it and only a verifier can reject it.

    swap: two tiles exchange their last points (coverage intact, gaps wrong);
    overlap: one tile appears twice; hole: one tile is removed.
    """
    rng = np.random.default_rng([seed, CORRUPTIONS.index(kind)])
    i = int(rng.integers(len(tiles)))
    if kind == "overlap":
        return np.insert(tiles, i + 1, tiles[i], axis=0)
    if kind == "hole":
        return np.delete(tiles, i, axis=0)
    if kind != "swap":
        raise ValueError(f"unknown corruption {kind!r}")
    out = tiles.copy()
    j = int(rng.integers(len(tiles) - 1))
    j += j >= i
    out[[i, j], -1] = out[[j, i], -1]
    out[[i, j]] = np.sort(out[[i, j]], axis=1)
    return out


def to_json_bytes(length: int, gap_pairs: list[list[int]], tiles: np.ndarray) -> bytes:
    """Canonical interval-tiling JSON (sorted keys, no spaces, trailing newline)."""
    head = json.dumps({"annotations": {}, "gap_set": gap_pairs, "kind": "interval", "length": length},
                      sort_keys=True, separators=(",", ":"))
    row = "[" + ",".join(["%d"] * tiles.shape[1]) + "]"
    # Formatted in chunks, so that the points never exist as Python ints all at once.
    parts = []
    for start in range(0, len(tiles), 4096):
        chunk = tiles[start : start + 4096]
        parts.append(",".join([row] * len(chunk)) % tuple(chunk.ravel().tolist()))
    return (head[:-1] + ',"tiles":[' + ",".join(parts) + "]}\n").encode("ascii")
