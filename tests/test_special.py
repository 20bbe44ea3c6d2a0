"""The scipy-free special functions against scipy itself, their oracle."""

import math

import numpy as np
import pytest
from scipy import special

from cdpmix import checks
from cdpmix._special import chi2_isf, gammaln, logsumexp

# prior parameters the package ships or its tests use, which reach gammaln as k/2 + a
SHIPPED = (0.01, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 1.0, 1.3, 1.5, 2.0, 3.5, 5.0)


def _gammaln_arguments() -> np.ndarray:
    rng = np.random.default_rng(20261019)
    half = np.arange(4000) / 2
    parts = [a + half for a in SHIPPED]
    for centre in (1.0, 2.0, 3.0, 13.0, 34.0, 1000.0, 1e8):
        parts.append(centre + np.linspace(-1e-3, 1e-3, 4001) * centre)
        parts.append(centre + np.arange(-500, 501) * np.spacing(centre))
    parts.append(np.exp(rng.uniform(math.log(1e-6), math.log(1e9), 90_000)))
    parts.append(rng.uniform(-50.0, 0.0, 20_000))
    parts.append(-np.arange(0.0, 50.5, 0.5))  # poles and half-integers
    parts.append(np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.6e305]))
    return np.concatenate(parts)


def test_gammaln_equals_scipy_bit_for_bit():
    x = _gammaln_arguments()
    ours = np.array([gammaln(v) for v in x.tolist()])
    theirs = special.gammaln(x)
    same = (ours == theirs) | (np.isnan(ours) & np.isnan(theirs))
    assert same.all(), list(zip(x[~same][:5], ours[~same][:5], theirs[~same][:5]))
    assert type(gammaln(np.float64(2.5))) is float


def test_chi2_isf_matches_chdtri_at_the_verify_level():
    q = 1 - checks.CHI2_LEVEL
    for df in range(1, 501):
        ours, theirs = chi2_isf(df, q), float(special.chdtri(df, q))
        assert abs(ours - theirs) <= 1e-13 * theirs, (df, ours, theirs)
        assert f"{ours:.1f}" == f"{theirs:.1f}", df


@pytest.mark.parametrize("df", [0.5, 1, 2, 7.5, 1000])
@pytest.mark.parametrize("q", [1e-10, 1e-3, 0.3, 0.9, 0.999999])
def test_chi2_isf_matches_chdtri_over_its_domain(df, q):
    ours, theirs = chi2_isf(df, q), float(special.chdtri(df, q))
    assert abs(ours - theirs) <= 1e-12 * theirs, (ours, theirs)


@pytest.mark.parametrize("df, q", [(0, 0.01), (-1, 0.01), (1, 0.0), (1, 1.0), (math.nan, 0.5)])
def test_chi2_isf_rejects_arguments_outside_its_domain(df, q):
    with pytest.raises(ValueError, match="chi2_isf needs"):
        chi2_isf(df, q)


def test_logsumexp_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = [[], [-math.inf], [-math.inf] * 4, [math.inf, 1.0], [math.nan, 0.0], [3.0] * 5]
    for _ in range(3000):
        a = rng.normal(0.0, rng.choice([0.1, 1.0, 30.0, 1000.0]), rng.integers(1, 50))
        if rng.random() < 0.4:
            a[rng.integers(0, len(a), 3)] = a.max()  # ties at the maximum
        if rng.random() < 0.4:
            a[rng.integers(0, len(a), 2)] = -math.inf
        cases.append(a.tolist())
    for a in cases:
        ours, theirs = logsumexp(a), float(special.logsumexp(a))
        assert ours == theirs or (math.isnan(ours) and math.isnan(theirs)), (a, ours, theirs)
