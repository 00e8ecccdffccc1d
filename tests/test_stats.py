import numpy as np
import pytest

from oracles import paired_t_reference
from ulsforge import TestResult, bonferroni, paired_ttest
from ulsforge.errors import (
    LengthMismatchError,
    TooFewPairsError,
    ZeroVarianceError,
)


def test_known_case_d_1_to_5():
    r = paired_ttest([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert r.df == 4
    assert r.n_pairs == 5
    assert r.t_stat == pytest.approx(4.242640687119285, abs=1e-12)
    assert r.p_two_tailed == pytest.approx(0.013235599563682695, abs=1e-12)
    # coarse sanity against the published-style rounding
    assert r.t_stat == pytest.approx(4.2426, abs=1e-3)
    assert r.p_two_tailed == pytest.approx(0.0132, abs=1e-3)


def test_identical_samples_are_degenerate():
    with pytest.raises(ZeroVarianceError):
        paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_constant_shift_is_degenerate():
    with pytest.raises(ZeroVarianceError):
        paired_ttest([1.1, 2.1, 3.1], [1.0, 2.0, 3.0])


def test_length_and_size_guards():
    with pytest.raises(LengthMismatchError):
        paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(TooFewPairsError):
        paired_ttest([1.0], [0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_value_raises_rather_than_giving_p_0(bad):
    # max(0.0, nan) is 0.0: a NaN difference once read as p = 0
    with pytest.raises(ValueError, match="1 of 3 pairs hold a NaN or infinite value"):
        paired_ttest([0.9, bad, 0.8], [0.5, 0.6, 0.7])
    with pytest.raises(ValueError, match="2 of 2 pairs"):
        paired_ttest([bad, 0.4], [0.5, bad])


def test_antisymmetry():
    x = [0.3, 0.5, 0.9, 0.2, 0.8]
    y = [0.1, 0.6, 0.4, 0.4, 0.3]
    a = paired_ttest(x, y)
    b = paired_ttest(y, x)
    assert a.t_stat == pytest.approx(-b.t_stat, abs=1e-15)
    assert a.p_two_tailed == pytest.approx(b.p_two_tailed, abs=1e-15)


def test_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 12)
    y = rng.normal(0.2, 1, 12)
    a = paired_ttest(x, y)
    b = paired_ttest(x + 100.0, y + 100.0)
    assert a.t_stat == pytest.approx(b.t_stat, rel=1e-9)
    assert a.p_two_tailed == pytest.approx(b.p_two_tailed, rel=1e-9)


def test_matches_high_precision_reference():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(3, 51))
        x = rng.normal(0, 1, n)
        y = x + rng.normal(0.1, 0.5, n)
        r = paired_ttest(x, y)
        t_ref, p_ref = paired_t_reference(x, y)
        assert r.t_stat == pytest.approx(t_ref, abs=1e-9)
        assert r.p_two_tailed == pytest.approx(p_ref, abs=1e-9)


def test_bonferroni():
    assert bonferroni(0.01, 1) == 0.01
    assert bonferroni(0.01, 4) == pytest.approx(0.04)
    assert bonferroni(0.5, 4) == 1.0
    with pytest.raises(ValueError):
        bonferroni(1.5, 2)
    with pytest.raises(ValueError):
        bonferroni(0.5, 0)


def test_a_p_value_that_underflows_to_zero_is_a_valid_result():
    """p = 0.0 lies in [0, 1]: a result may hold it and Bonferroni may adjust it."""
    a = list(np.linspace(0.5, 0.9, 60))
    r = paired_ttest(a, [x - 0.3 + 1e-9 * (i % 2) for i, x in enumerate(a)])
    assert r.p_two_tailed == 0.0  # the t tail underflows
    assert bonferroni(0.0, 4) == 0.0
    adj = r.adjusted(m=4, alpha=0.0001)
    assert adj.p_adjusted == 0.0 and adj.significant


def test_adjusted_flags_significance_at_threshold():
    r = paired_ttest(list(np.linspace(0.5, 0.9, 30)), [0.0] * 30)
    adj = r.adjusted(m=4, alpha=0.0001)
    assert adj.p_adjusted == bonferroni(r.p_two_tailed, 4)
    assert adj.significant == (adj.p_adjusted < 0.0001)
    barely = TestResult(t_stat=1.0, df=9, p_two_tailed=0.00002, p_adjusted=0.00002,
                        n_pairs=10)
    assert barely.adjusted(m=4, alpha=0.0001).significant  # 8e-5 < 1e-4
    assert not barely.adjusted(m=10, alpha=0.0001).significant


def test_result_validation():
    with pytest.raises(ValueError):
        TestResult(t_stat=1.0, df=3, p_two_tailed=1.4, p_adjusted=1.4, n_pairs=4)
    with pytest.raises(ValueError):
        TestResult(t_stat=1.0, df=3, p_two_tailed=0.5, p_adjusted=0.4, n_pairs=4)
    with pytest.raises(ValueError):
        TestResult(t_stat=1.0, df=0, p_two_tailed=0.5, p_adjusted=0.5, n_pairs=1)
