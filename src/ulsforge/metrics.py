"""Overlap metrics: Dice similarity and the pairwise-Dice robustness score."""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

from .errors import DimsMismatchError
from .voi import _overlap
from .volume import Volume3D


def _dice(inter: int, total: int) -> float:
    """Dice from counts, 2|a&b| / (|a|+|b|); two empty masks score 1.0."""
    if total == 0:
        return 1.0
    return 2.0 * inter / total


def dice(a: Volume3D, b: Volume3D) -> float:
    """Dice overlap 2|a&b| / (|a|+|b|).

    Two empty masks score 1.0 (agreement on absence); empty vs
    non-empty scores 0.0. Callers flag empty predictions so reports can
    exclude such records.
    """
    if a.dims != b.dims:
        raise DimsMismatchError("dice needs equal dims, got %s vs %s" % (a.dims, b.dims))
    am = a.data != 0
    bm = b.data != 0
    return _dice(int((am & bm).sum()), int(am.sum()) + int(bm.sum()))


def voi_dice(a: tuple[tuple[int, int, int], Volume3D], b: tuple[tuple[int, int, int], Volume3D],
             dims: tuple[int, int, int]) -> float:
    """``dice`` of two (offset, VOI mask) pairs placed into a volume of
    ``dims`` by ``place_back``, counted in the VOIs: each mask's voxels
    inside the volume, and for the overlap the voxels in both windows and
    inside the volume. Padding never counts; windows that do not meet
    overlap in nothing. A mask may be any box of its VOI that holds its
    voxels, its offset the box's global corner: the score is the same.
    """
    total = sum(np.count_nonzero(m.data[_overlap(dims, o, m.dims)[1]]) for o, m in (a, b))
    (oa, ma), (ob, mb) = a, b
    start = tuple(max(p, q) for p, q in zip(oa, ob))
    stop = tuple(min(p + s, q + t) for p, q, s, t in zip(oa, ob, ma.dims, mb.dims))
    both, _ = _overlap(dims, start, tuple(e - s for s, e in zip(start, stop)))
    ra, rb = (m.data[tuple(slice(g.start - p, g.stop - p) for g, p in zip(both, o))]
              for o, m in (a, b))
    return _dice(np.count_nonzero(np.logical_and(ra, rb)), total)


def mean_pairwise_dice(masks: list, pair_dice: Callable | None = None) -> float:
    """Mean Dice over all mask pairs, for any number of predictions.

    ``pair_dice`` scores one pair, ``dice`` by default. Scores are summed
    in sorted order so any permutation of the masks yields a
    bit-identical result.
    """
    if len(masks) < 2:
        raise ValueError("need at least two masks, got %d" % len(masks))
    scores = sorted((pair_dice or dice)(a, b) for a, b in combinations(masks, 2))
    return sum(scores) / len(scores)
