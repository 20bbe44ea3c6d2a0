"""Conjugate normal-gamma linear model for cluster data.

Each item carries an S-vector of responses modelled as a linear combination
of two covariate blocks, ``Z`` (coefficients that the background cluster
pins to a fixed vector) and ``X`` (coefficients that are always
cluster-specific), plus isotropic noise with cluster precision ``tau``:

    y_i = Z @ delta_j + X @ beta_j + eps,   eps ~ N(0, I/tau).

Cluster parameters follow a normal-gamma prior: ``tau ~ Gamma(shape, rate)``
and, given tau, the free coefficients are normal with mean ``mean`` and
precision ``tau * precision``. Integrating the parameters out gives a
multivariate-t marginal for the stacked cluster responses, with
``2 * shape`` degrees of freedom and scale ``(rate/shape) * (W P^-1 W' + I)``
for free design W and coefficient precision P. We never build that
(e*S x e*S) matrix: a cluster enters only through its count, its ``W'y``
sum (dimension p = number of free coefficients) and its ``y'y`` sum.

Every item shares the same covariate rows, so a cluster of m items has
posterior precision ``P + m G`` with ``G = W'W``. One generalized
eigenbasis ``L`` (``L'PL = I``, ``L'GL = diag(d)``) diagonalizes all of
them at once. In the coordinates ``z = L'(W'y + P mean)``

    v'(P + mG)^-1 v = sum_k z_k^2 / (1 + m d_k),
    logdet(P + mG)  = logdet P + sum_k log(1 + m d_k),

so a marginal is O(p) scalar arithmetic against a per-count table, with no
matrix work after construction. ``log_marginal_z`` prices in these
coordinates; ``log_marginal_parts`` takes coefficient-space sums and
projects them first. This is algebraically identical to the direct
stacked-t evaluation, which the tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._special import gammaln
from .errors import NumericalError, ValidationError

_LOG_2PI = float(np.log(2.0 * np.pi))


def _as_matrix(a, rows: int | None = None, name: str = "matrix") -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if rows is not None and a.shape[0] != rows:
        raise ValidationError(f"{name} has {a.shape[0]} rows, expected {rows}")
    return a


def _cholesky_spd(m: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is not positive definite") from None


@dataclass(frozen=True, eq=False)
class DesignBlock:
    """Per-item covariates: ``Z`` (S x Kp) and ``X`` (S x K, K may be 0)."""

    Z: np.ndarray
    X: np.ndarray

    def __init__(self, Z, X=None):
        Z = _as_matrix(Z, name="Z")
        S = Z.shape[0]
        if X is None:
            X = np.zeros((S, 0))
        X = _as_matrix(X, rows=S, name="X")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "X", X)

    @property
    def n_samples(self) -> int:
        return self.Z.shape[0]

    @property
    def n_z(self) -> int:
        return self.Z.shape[1]

    @property
    def n_x(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class NormalGammaSpec:
    """Normal-gamma prior over a cluster's free coefficients and noise precision.

    When ``fixed_z_coeffs`` is set, the Z-block coefficients are pinned to
    that vector (the background-cluster variant) and the prior covers only
    the X-block; ``mean``/``precision`` then have the X dimension.
    """

    shape: float
    rate: float
    mean: np.ndarray
    precision: np.ndarray
    fixed_z_coeffs: Optional[np.ndarray] = None

    def __init__(self, shape, rate, mean, precision, fixed_z_coeffs=None):
        if not shape > 0 or not rate > 0:
            raise ValidationError("shape and rate must be > 0")
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        p = mean.shape[0]
        precision = np.asarray(precision, dtype=float).reshape(p, p)
        if p and not np.allclose(precision, precision.T, atol=1e-10):
            raise ValidationError("precision must be symmetric")
        _cholesky_spd(precision, "prior precision")  # SPD check up front
        if fixed_z_coeffs is not None:
            fixed_z_coeffs = np.atleast_1d(np.asarray(fixed_z_coeffs, dtype=float))
        object.__setattr__(self, "shape", float(shape))
        object.__setattr__(self, "rate", float(rate))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "fixed_z_coeffs", fixed_z_coeffs)

    @property
    def is_background(self) -> bool:
        return self.fixed_z_coeffs is not None

    @property
    def n_coeffs(self) -> int:
        return self.mean.shape[0]


class ClusterEvaluator:
    """Marginal-likelihood engine for one prior over a fixed design.

    Construction computes the generalized eigenbasis ``L`` of the Gram
    matrix ``G = W'W`` against the prior precision ``P``: ``L'PL = I`` and
    ``L'GL = diag(d)``, with ``d`` in ``eigenvalues``. ``project`` maps a
    ``W'y`` sum into that basis (``z = L'(W'y + P mean)``), and
    ``log_marginal_z`` prices a cluster from its count, ``z`` and ``y'y``.
    The count enters only through a per-count table (see ``table``), so a
    marginal costs p multiply-adds and one logarithm.
    """

    def __init__(self, design: DesignBlock, spec: NormalGammaSpec):
        if spec.is_background:
            if spec.fixed_z_coeffs.shape[0] != design.n_z:
                raise ValidationError("fixed_z_coeffs length must match Z columns")
            free = design.X
            offset = design.Z @ spec.fixed_z_coeffs
        else:
            free = np.hstack([design.Z, design.X])
            offset = np.zeros(design.n_samples)
        if spec.n_coeffs != free.shape[1]:
            raise ValidationError(
                f"prior covers {spec.n_coeffs} coefficients but the free design has {free.shape[1]}"
            )
        self.spec = spec
        self.free = free
        self.offset = offset
        self.n_samples = design.n_samples
        self.gram = free.T @ free
        self._v0 = spec.precision @ spec.mean
        self._log_norm0 = float(spec.shape * np.log(spec.rate) - gammaln(spec.shape))
        self.rate_base = spec.rate + 0.5 * float(spec.mean @ self._v0)
        chol_inv = np.linalg.inv(_cholesky_spd(spec.precision, "prior precision"))
        self.eigenvalues, rotation = np.linalg.eigh(chol_inv @ self.gram @ chol_inv.T)
        self.basis = chol_inv.T @ rotation
        self.z0 = self.project(np.zeros(spec.n_coeffs))
        # row m: (1/(1 + m d_k) for each k, posterior shape, constant term); row 0 unused
        self._table: list = [None]

    def table(self, max_count: int) -> list:
        """Per-count rows ``(reciprocals, a_post, const)``, filled up to ``max_count``.

        Row m holds ``1/(1 + m d_k)`` for every k, the posterior shape and
        every term of the log marginal that depends on the count alone.
        """
        start = len(self._table)
        if max_count >= start:
            m = np.arange(start, max(max_count, 2 * start) + 1, dtype=float)
            scale = 1.0 + np.outer(m, self.eigenvalues)
            if (scale <= 0).any():
                raise NumericalError("posterior precision is not positive definite")
            n_obs = m * self.n_samples
            a_post = (self.spec.shape + 0.5 * n_obs).tolist()
            const = (-0.5 * n_obs * _LOG_2PI
                     - 0.5 * np.log1p(np.outer(m, self.eigenvalues)).sum(axis=1)
                     + self._log_norm0 + np.array([gammaln(a) for a in a_post]))
            self._table.extend(zip(map(tuple, (1.0 / scale).tolist()), a_post, const.tolist()))
        return self._table

    def project(self, wty: np.ndarray) -> tuple[float, ...]:
        """Coordinates ``L'(wty + P mean)`` of a cluster's ``W'y`` sum."""
        return tuple((self.basis.T @ (wty + self._v0)).tolist())

    def prepare(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-item ``(W'y, y'y)`` rows, offset removed, of an n x S data matrix."""
        Y = np.asarray(Y, dtype=float)
        Y_adj = Y - self.offset
        return Y_adj @ self.free, np.einsum("ij,ij->i", Y_adj, Y_adj)

    def log_marginal_parts(self, count: int, wty: np.ndarray, yty: float) -> float:
        """Log marginal of ``count`` items whose ``prepare`` rows sum to
        ``(wty, yty)``, in coefficient space; 0 for an empty cluster."""
        if count == 0:
            return 0.0
        return self.log_marginal_z(count, self.project(wty), yty)

    def log_marginal_z(self, count: int, z: Sequence[float], yty: float,
                       dz: Sequence[float] | None = None, dyy: float = 0.0) -> float:
        """Log marginal of a nonempty cluster whose statistics are in the eigenbasis.

        ``dz`` and ``dyy``, when given, are added to ``z`` and ``yty`` first, so
        pricing an item into a cluster builds no new vector.
        """
        try:
            recips, a_post, const = self._table[count]
        except IndexError:
            recips, a_post, const = self.table(count)[count]
        quad = 0.0
        if dz is None:
            for zk, rk in zip(z, recips):
                quad += zk * zk * rk
        else:
            for zk, dk, rk in zip(z, dz, recips):
                t = zk + dk
                quad += t * t * rk
        b_post = self.rate_base + 0.5 * (yty + dyy - quad)
        if not b_post > 0:
            raise NumericalError("posterior rate collapsed to a non-positive value")
        return const - a_post * math.log(b_post)


def log_mvt(x, dof: float, mean, scale) -> float:
    """Log density of the multivariate t distribution.

    Location-scale parameterisation: in d dimensions with ``dof`` degrees of
    freedom, mean vector ``mean`` and SPD scale matrix ``scale``, the density
    at x is

        Gamma((dof+d)/2) / Gamma(dof/2) * |scale|^(-1/2) / (dof*pi)^(d/2)
        * (1 + q/dof)^(-(dof+d)/2),

    with q the scale-weighted squared distance from the mean. Evaluated via
    a triangular factorisation of the scale matrix.
    """
    if not dof > 0:
        raise ValidationError("degrees of freedom must be > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = x.shape[0]
    scale = np.asarray(scale, dtype=float).reshape(d, d)
    try:
        chol = np.linalg.cholesky(scale)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("scale matrix is not positive definite") from exc
    z = np.linalg.solve(chol, x - mean)
    quad = float(z @ z)
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    return float(
        gammaln(0.5 * (dof + d)) - gammaln(0.5 * dof)
        - 0.5 * logdet - 0.5 * d * np.log(dof * np.pi)
        - 0.5 * (dof + d) * np.log1p(quad / dof)
    )
