"""Overlap metrics: Dice similarity and the pairwise-Dice robustness score."""

from __future__ import annotations

from itertools import combinations

from .errors import DimsMismatchError
from .volume import Volume3D


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
    total = int(am.sum()) + int(bm.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((am & bm).sum()) / total


def mean_pairwise_dice(masks: list[Volume3D]) -> float:
    """Mean Dice over all mask pairs, for any number of predictions.

    Scores are summed in sorted order so any permutation of the masks
    yields a bit-identical result.
    """
    if len(masks) < 2:
        raise ValueError("need at least two masks, got %d" % len(masks))
    scores = sorted(dice(a, b) for a, b in combinations(masks, 2))
    return sum(scores) / len(scores)
