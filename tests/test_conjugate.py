import math

import numpy as np
import pytest
from scipy.integrate import quad

from cdpmix.conjugate import ClusterEvaluator, DesignBlock, NormalGammaSpec, log_mvt
from cdpmix.errors import NumericalError, ValidationError


def scalar_setup(prior_mean=0.0, prior_prec=1.0, shape=1.0, rate=1.0):
    design = DesignBlock(Z=[[1.0]])
    spec = NormalGammaSpec(shape, rate, [prior_mean], [[prior_prec]])
    return design, spec


def random_instance(rng, background=False):
    S = int(rng.integers(1, 4))
    kp = int(rng.integers(1, 3))
    kx = int(rng.integers(1, 3)) if background else int(rng.integers(0, 3))
    design = DesignBlock(rng.normal(size=(S, kp)),
                         rng.normal(size=(S, kx)) if kx else None)
    p = kx if background else kp + kx
    A = rng.normal(size=(p, p))
    spec = NormalGammaSpec(0.5 + rng.random(), 0.5 + rng.random(),
                           rng.normal(size=p), A @ A.T + (p + 1) * np.eye(p),
                           fixed_z_coeffs=rng.normal(size=kp) if background else None)
    return design, spec


def marginal(ev, Y):
    """Log marginal of a cluster holding the rows of Y, priced by log_marginal_parts."""
    wty, yty = ev.prepare(np.atleast_2d(Y))
    return ev.log_marginal_parts(len(yty), wty.sum(axis=0), float(yty.sum()))


def predictive(ev, y, cluster):
    """Log predictive density of row(s) y given a cluster holding the rows of ``cluster``."""
    cluster = np.atleast_2d(cluster)
    return marginal(ev, np.vstack([cluster, np.atleast_2d(y)])) - marginal(ev, cluster)


def empty(ev):
    return np.zeros((0, ev.n_samples))


# ------------------------------------------------------------------ prior

def test_prior_rejects_non_spd_precision():
    with pytest.raises((ValidationError, NumericalError)):
        NormalGammaSpec(1.0, 1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValidationError):
        NormalGammaSpec(1.0, 1.0, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])


def test_prior_rejects_negative_definite_precision():
    # positive determinant, but not positive definite
    with pytest.raises(NumericalError):
        NormalGammaSpec(1.0, 1.0, [0.0, 0.0], [[-1.0, 0.0], [0.0, -2.0]])


# ------------------------------------------------------------------ marginals

@pytest.mark.parametrize("background", [False, True])
def test_eigenbasis_diagonalizes_prior_and_gram(background):
    rng = np.random.default_rng(12)
    for _ in range(5):
        design, spec = random_instance(rng, background=background)
        ev = ClusterEvaluator(design, spec)
        L = ev.basis
        np.testing.assert_allclose(L.T @ spec.precision @ L, np.eye(spec.n_coeffs),
                                   atol=1e-12)
        np.testing.assert_allclose(L.T @ ev.gram @ L, np.diag(ev.eigenvalues), atol=1e-12)


def test_nonpositive_count_scale_is_a_numerical_error():
    design, spec = scalar_setup()
    ev = ClusterEvaluator(design, spec)
    ev.eigenvalues = np.array([-0.5])  # makes 1 + 2 * d zero
    with pytest.raises(NumericalError):
        marginal(ev, np.ones((3, 1)))


def test_empty_cluster_marginal_is_one():
    design, spec = scalar_setup()
    ev = ClusterEvaluator(design, spec)
    assert marginal(ev, empty(ev)) == 0.0


def test_single_observation_matches_direct_t_density():
    ev = ClusterEvaluator(*scalar_setup())
    for y in (0.0, 0.7, -2.3):
        lm = marginal(ev, np.array([[y]]))
        assert lm == pytest.approx(log_mvt([y], 2.0, [0.0], [[2.0]]), abs=1e-12)


def test_chain_rule_telescopes():
    rng = np.random.default_rng(4)
    for _ in range(20):
        background = bool(rng.random() < 0.3)
        design, spec = random_instance(rng, background=background)
        ev = ClusterEvaluator(design, spec)
        e = int(rng.integers(2, 6))
        Y = rng.normal(size=(e, design.n_samples))
        full = marginal(ev, Y)
        total = 0.0
        seen = empty(ev)
        for i in rng.permutation(e):
            total += predictive(ev, Y[i], seen)
            seen = np.vstack([seen, Y[i]])
        assert total == pytest.approx(full, abs=1e-8)


def test_background_spherical_when_delta_zero_and_no_x():
    design = DesignBlock(Z=np.array([[1.0], [2.0]]))
    spec = NormalGammaSpec(1.5, 2.0, np.zeros(0), np.zeros((0, 0)),
                           fixed_z_coeffs=[0.0])
    y = np.array([[0.3, -0.4]])
    ev = ClusterEvaluator(design, spec)
    lm = marginal(ev, y)
    direct = log_mvt(y[0], 3.0, np.zeros(2), (2.0 / 1.5) * np.eye(2))
    assert lm == pytest.approx(direct, abs=1e-12)


def test_background_offset_is_a_location_shift():
    rng = np.random.default_rng(5)
    design, spec = random_instance(rng, background=True)
    zero_spec = NormalGammaSpec(spec.shape, spec.rate, spec.mean, spec.precision,
                                fixed_z_coeffs=np.zeros(design.n_z))
    Y = rng.normal(size=(3, design.n_samples))
    shifted = Y - design.Z @ spec.fixed_z_coeffs
    ev, ev0 = ClusterEvaluator(design, spec), ClusterEvaluator(design, zero_spec)
    lm = marginal(ev, Y)
    lm0 = marginal(ev0, shifted)
    assert lm == pytest.approx(lm0, abs=1e-10)


def test_zero_x_block_equals_dropping_it():
    rng = np.random.default_rng(6)
    S, kp, kx = 3, 2, 2
    Z = rng.normal(size=(S, kp))
    with_x = DesignBlock(Z, np.zeros((S, kx)))
    without_x = DesignBlock(Z)
    mean_z, A = rng.normal(size=kp), rng.normal(size=(kp, kp))
    prec_z = A @ A.T + 3 * np.eye(kp)
    full_prec = np.zeros((kp + kx, kp + kx))
    full_prec[:kp, :kp] = prec_z
    full_prec[kp:, kp:] = np.eye(kx)
    spec_full = NormalGammaSpec(1.2, 0.9, np.concatenate([mean_z, rng.normal(size=kx)]),
                                full_prec)
    spec_z = NormalGammaSpec(1.2, 0.9, mean_z, prec_z)
    Y = rng.normal(size=(2, S))
    ev_full, ev_z = ClusterEvaluator(with_x, spec_full), ClusterEvaluator(without_x, spec_z)
    lm_full = marginal(ev_full, Y)
    lm_z = marginal(ev_z, Y)
    assert lm_full == pytest.approx(lm_z, abs=1e-12)


# ----------------------------------------------------------------- predictive

def test_predictive_on_empty_cluster_is_single_marginal():
    ev = ClusterEvaluator(*scalar_setup())
    item = np.array([[0.6]])
    pred = predictive(ev, item, empty(ev))
    assert pred == pytest.approx(marginal(ev, item), abs=1e-12)


def test_borrowing_strength():
    # seeing the same value once makes seeing it again more likely
    rng = np.random.default_rng(3)
    ev = ClusterEvaluator(*scalar_setup())
    y = float(rng.normal())
    item = np.array([[y]])
    alone = predictive(ev, item, empty(ev))
    informed = predictive(ev, item, item)
    assert informed > alone


def test_predictive_integrates_to_one():
    ev = ClusterEvaluator(*scalar_setup(prior_mean=0.3, prior_prec=1.5, shape=2.0, rate=1.5))
    cluster = np.array([[0.5], [1.2]])

    def density(y):
        return math.exp(predictive(ev, np.array([[y]]), cluster))

    total, err = quad(density, -40, 40, limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)


# ----------------------------------------------------------------- mvt density

def test_mvt_standard_cauchy_at_zero():
    assert log_mvt([0.0], 1.0, [0.0], [[1.0]]) == pytest.approx(math.log(1 / math.pi))


def test_mvt_symmetry():
    rng = np.random.default_rng(8)
    mu = rng.normal(size=3)
    A = rng.normal(size=(3, 3))
    sigma = A @ A.T + np.eye(3)
    v = rng.normal(size=3)
    assert log_mvt(mu + v, 2.5, mu, sigma) == pytest.approx(
        log_mvt(mu - v, 2.5, mu, sigma), abs=1e-12)


def test_mvt_integrates_to_one():
    # a dof-3 t keeps ~1.8e-5 of its mass beyond +/-50, so integrate the
    # whole line to test normalization at the 1e-6 level
    total, _ = quad(lambda x: math.exp(log_mvt([x], 3.0, [0.2], [[1.3]])),
                    -np.inf, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_mvt_large_dof_approaches_gaussian():
    x, mu, var = 1.3, 0.2, 0.8
    gauss = -0.5 * math.log(2 * math.pi * var) - 0.5 * (x - mu) ** 2 / var
    assert log_mvt([x], 1e6, [mu], [[var]]) == pytest.approx(gauss, abs=1e-4)


def test_mvt_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        log_mvt([0.0], 0.0, [0.0], [[1.0]])
    with pytest.raises(NumericalError):
        log_mvt([0.0, 0.0], 1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


# ------------------------------------------------- stacked-form equivalence

def test_sufficient_stats_equal_stacked_t_evaluation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        background = bool(rng.random() < 0.4)
        design, spec = random_instance(rng, background=background)
        ev = ClusterEvaluator(design, spec)
        e = int(rng.integers(1, 4))
        Y = rng.normal(size=(e, design.n_samples))
        lm = marginal(ev, Y)
        W = np.vstack([ev.free] * e)
        mean = W @ spec.mean + np.tile(ev.offset, e)
        if spec.n_coeffs:
            core = W @ np.linalg.inv(spec.precision) @ W.T
        else:
            core = np.zeros((e * design.n_samples,) * 2)
        scale = (spec.rate / spec.shape) * (core + np.eye(e * design.n_samples))
        direct = log_mvt(Y.reshape(-1), 2 * spec.shape, mean, scale)
        assert lm == pytest.approx(direct, abs=1e-8)
