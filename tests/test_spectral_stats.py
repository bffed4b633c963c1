import numpy as np
import pytest
import scipy.integrate

from entdyn.errors import ParameterError
from entdyn.spectral_stats import (
    RATIO_BINS,
    middle_third,
    pool_ratios,
    ratio_histogram,
    reference_curves,
    spacing_ratios,
)


def test_middle_third_window():
    e = np.arange(10.0)
    mid = middle_third(e)
    # floor(10/3) = 3: start 3, length 3
    assert mid.tolist() == [3.0, 4.0, 5.0]
    e2 = np.arange(924.0)
    assert middle_third(e2).size == 308
    assert middle_third(e2)[0] == 308.0


def test_middle_third_requires_sorted():
    with pytest.raises(ParameterError):
        middle_third(np.array([3.0, 1.0, 2.0]))
    with pytest.raises(ParameterError):
        middle_third(np.array([1.0, 2.0]))


def test_nonfinite_energies_are_refused():
    # NaN gaps once passed the sort check and were counted as degenerate
    for e in ([0.0, np.nan, 1.0, 2.0, 3.5], [0.0, 1.0, 2.0, 3.5, np.inf]):
        with pytest.raises(ParameterError, match="finite"):
            spacing_ratios(np.array(e))
    with pytest.raises(ParameterError, match="finite"):
        middle_third(np.array([0.0, np.nan, 1.0, 2.0, 3.5, 4.0, 5.0]))


def test_spacing_ratios_simple():
    s = spacing_ratios(np.array([0.0, 1.0, 2.0]))
    assert s.ratios.tolist() == [1.0]
    assert s.skipped == 0
    s2 = spacing_ratios(np.array([0.0, 1.0, 3.0]))
    assert s2.ratios.tolist() == [0.5]
    s3 = spacing_ratios(np.array([0.0, 2.0, 3.0]))
    assert s3.ratios.tolist() == [0.5]


def test_spacing_ratios_skip_degenerate():
    # a zero gap invalidates both adjacent ratios and is counted
    s = spacing_ratios(np.array([0.0, 0.0, 1.0, 2.0]))
    assert s.ratios.tolist() == [1.0]
    assert s.skipped == 1
    # skipped counts invalidated ratio pairs, two of them here
    s2 = spacing_ratios(np.array([0.0, 1.0, 1.0 + 5e-14, 2.0]))
    assert s2.ratios.size == 0
    assert s2.skipped == 2


def test_ratios_bounded_by_one(rng):
    e = np.sort(rng.normal(size=200))
    s = spacing_ratios(e)
    assert np.all(s.ratios <= 1.0)
    assert np.all(s.ratios >= 0.0)
    assert s.count == s.ratios.size


def test_pool_ratios_concatenates():
    a = spacing_ratios(np.array([0.0, 1.0, 2.0]))
    b = spacing_ratios(np.array([0.0, 1.0, 3.0]))
    pooled = pool_ratios([a, b])
    assert sorted(pooled.ratios.tolist()) == [0.5, 1.0]
    assert pooled.skipped == 0


def test_poisson_synthetic_mean():
    # iid exponential spacings reproduce the Poisson mean 2 ln 2 - 1
    rng = np.random.default_rng(42)
    gaps = rng.exponential(size=1_000_001)
    e = np.cumsum(gaps)
    s = spacing_ratios(e)
    refs = reference_curves()
    assert abs(s.mean - refs.poisson_mean) < 2e-3
    assert abs(refs.poisson_mean - (2 * np.log(2) - 1)) < 1e-15


def test_reference_pdfs_normalized():
    refs = reference_curves()
    for pdf in (refs.poisson_pdf, refs.goe_pdf):
        total, _ = scipy.integrate.quad(pdf, 0.0, 1.0)
        assert abs(total - 1.0) < 1e-8


def test_reference_means_match_pdfs():
    refs = reference_curves()
    m_p, _ = scipy.integrate.quad(lambda r: r * refs.poisson_pdf(r), 0, 1)
    m_g, _ = scipy.integrate.quad(lambda r: r * refs.goe_pdf(r), 0, 1)
    assert abs(m_p - refs.poisson_mean) < 1e-8
    # the GOE surmise mean is approximate; 4 - 2 sqrt(3) is its standard quote
    assert abs(refs.goe_mean - (4 - 2 * np.sqrt(3))) < 1e-15
    assert abs(m_g - refs.goe_mean) < 2e-3


def test_histogram_density():
    rng = np.random.default_rng(0)
    s = spacing_ratios(np.cumsum(rng.exponential(size=20_000)))
    h = ratio_histogram(s)
    assert RATIO_BINS == 25 and h.bin_left.size == RATIO_BINS
    assert h.bin_left[0] == 0.0
    assert h.bin_right[-1] == 1.0
    widths = h.bin_right - h.bin_left
    assert abs((h.density * widths).sum() - 1.0) < 1e-12
