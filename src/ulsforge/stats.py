"""Paired significance testing with Bonferroni correction."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import special

from .errors import LengthMismatchError, TooFewPairsError, ZeroVarianceError


@dataclass(frozen=True, kw_only=True)
class TestResult:
    """Outcome of one paired comparison; field order is the reports' key order.

    Degenerate comparisons (all differences equal) carry None p values:
    the t statistic is undefined there and is never silently reported
    as p = 0.
    """

    comparison_id: str = ""
    n_pairs: int
    t_stat: float | None
    df: int
    p_two_tailed: float | None
    p_adjusted: float | None
    significant: bool = False
    degenerate: bool = False

    def __post_init__(self):
        for p in (self.p_two_tailed, self.p_adjusted):
            if p is not None and not 0.0 <= p <= 1.0:
                raise ValueError("p value %r outside [0, 1]" % p)
        if self.p_two_tailed is not None and self.p_adjusted is not None:
            if self.p_adjusted < self.p_two_tailed:
                raise ValueError("adjusted p below raw p")
        if self.df < 1:
            raise ValueError("df must be >= 1")

    def adjusted(self, m: int, alpha: float) -> TestResult:
        """Bonferroni-adjust for m comparisons and flag significance."""
        if self.degenerate or self.p_two_tailed is None:
            return replace(self, significant=False)
        p_adj = bonferroni(self.p_two_tailed, m)
        return replace(self, p_adjusted=p_adj, significant=p_adj < alpha)


def paired_ttest(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Classic paired two-tailed t-test on d = x - y.

    The two-tailed p comes from the t distribution with df = n - 1 via
    the regularized incomplete beta function,
    p = I_{df/(df+t^2)}(df/2, 1/2).

    Raises
    ------
    LengthMismatchError, TooFewPairsError, ZeroVarianceError, and
    ValueError for a pair that holds a NaN or infinite value
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatchError("paired samples must be 1-D and equal length, got %s vs %s"
                                  % (x.shape, y.shape))
    n = int(x.size)
    bad = n - int(np.count_nonzero(np.isfinite(x) & np.isfinite(y)))
    if bad:
        raise ValueError("%d of %d pairs hold a NaN or infinite value" % (bad, n))
    if n < 2:
        raise TooFewPairsError("need at least 2 pairs, got %d" % n)
    d = x - y
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ZeroVarianceError("all %d differences equal (%g); t undefined" % (n, d[0]))
    df = n - 1
    t = float(d.mean() / (sd / math.sqrt(n)))
    p = float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))
    p = min(1.0, max(0.0, p))
    return TestResult(t_stat=t, df=df, p_two_tailed=p, p_adjusted=p, n_pairs=n)


def bonferroni(p: float, m: int) -> float:
    """min(1, p * m) for m comparisons."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1], got %r" % p)
    if m < 1:
        raise ValueError("m must be >= 1, got %r" % m)
    return min(1.0, p * m)


def degenerate_result(n_pairs: int, comparison_id: str = "") -> TestResult:
    """Placeholder result for a zero-variance comparison."""
    return TestResult(t_stat=None, df=max(1, n_pairs - 1), p_two_tailed=None,
                      p_adjusted=None, n_pairs=n_pairs,
                      comparison_id=comparison_id, degenerate=True)
