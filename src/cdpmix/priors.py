"""Partition prior families: exact log-EPPF evaluation and urn reallocation weights.

Five families are supported, all exchangeable over items:

* ``DirichletProcess`` -- one concentration parameter; closed-form EPPF.
* ``DirichletMultinomial`` -- finite symmetric mixture with a bounded number
  of components; EPPF defined as the product of one-step predictive weights.
* ``PitmanYor`` -- two-parameter generalisation with a discount; EPPF defined
  sequentially like the Dirichlet-multinomial.
* ``ColouredDirichletProcess`` -- per-colour Dirichlet processes mixed with
  Dirichlet-distributed colour weights; cluster labels exchangeable only
  within a colour; closed-form EPPF over coloured partitions.
* ``BackgroundDirichletProcess`` -- the coloured special case with a single
  mandatory "background" cluster (colour 0) plus exchangeable regular
  clusters (colour 1).

Each family defines its urn weights once, as ``urn_weights(colour_totals,
degree) -> (offsets, factors, new)``: with one item withdrawn, ``degree``
clusters left and ``colour_totals[k]`` items of colour k, an existing
cluster of colour k and size s weighs ``(s + offsets[k]) * factors[k]`` and
a new cluster of colour k weighs ``new[k]``. ``weight_lists`` expands that
form over a list of clusters; the Gibbs sampler expands it inline.

All probabilities are handled in log space. Structurally impossible states
(e.g. more clusters than components, two background clusters) evaluate to
the ``LOG_ZERO`` sentinel, which downstream code skips deterministically
instead of doing arithmetic with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import gammaln

from .errors import ValidationError
from .partitions import ColouredPartition, ConfigurationCounts, Partition

#: Distinguished log-probability of an impossible event.
LOG_ZERO = float("-inf")


def is_log_zero(x: float) -> bool:
    return x == LOG_ZERO


def _weight_lists(model, sizes: Sequence[int], colours: Sequence[int] | None = None,
                  colour_totals: Sequence[int] | None = None) -> tuple[list, list]:
    """Unnormalized urn weights for placing one withdrawn item.

    One weight per existing cluster, parallel to ``sizes`` and ``colours``
    (all colour 0 when omitted), then one per colour for opening a new
    cluster. ``colour_totals`` counts the remaining items of each colour and
    is summed from the sizes when omitted. This expands the family's
    per-colour ``urn_weights`` form, the one place each family defines them.
    """
    if colours is None:
        colours = [0] * len(sizes)
    if colour_totals is None:
        colour_totals = [0] * model.n_colours
        for s, k in zip(sizes, colours):
            colour_totals[k] += s
    offsets, factors, new = model.urn_weights(colour_totals, len(sizes))
    return [(s + offsets[k]) * factors[k] for s, k in zip(sizes, colours)], list(new)


@dataclass(frozen=True)
class DirichletProcess:
    """Dirichlet-process partition prior with concentration ``theta``."""

    theta: float
    coloured = False
    n_colours = 1

    def __post_init__(self):
        if not self.theta > 0:
            raise ValidationError(f"concentration must be > 0, got {self.theta}")

    def log_eppf(self, p: Partition) -> float:
        return log_eppf_dp(p, self.theta)

    def urn_weights(self, colour_totals, degree):
        """Each existing cluster weighs its size, a new cluster theta."""
        return (0.0,), (1.0,), (self.theta,)

    weight_lists = _weight_lists


@dataclass(frozen=True)
class DirichletMultinomial:
    """Symmetric finite-mixture partition prior: ``components`` slots of weight ``weight``."""

    components: int
    weight: float
    coloured = False
    n_colours = 1

    def __post_init__(self):
        if self.components < 1:
            raise ValidationError("components must be >= 1")
        if not self.weight > 0:
            raise ValidationError("weight must be > 0")

    def log_eppf(self, p: Partition) -> float:
        return log_eppf_sequential(self, p)

    def urn_weights(self, colour_totals, degree):
        """Size plus ``weight``; a new cluster ``weight`` per free component."""
        return (self.weight,), (1.0,), (max(self.components - degree, 0) * self.weight,)

    weight_lists = _weight_lists


@dataclass(frozen=True)
class PitmanYor:
    """Two-parameter partition prior with ``discount`` in [0,1) and ``strength`` > -discount."""

    discount: float
    strength: float
    coloured = False
    n_colours = 1

    def __post_init__(self):
        if not 0 <= self.discount < 1:
            raise ValidationError("discount must lie in [0, 1)")
        if not self.strength > -self.discount:
            raise ValidationError("strength must exceed -discount")

    def log_eppf(self, p: Partition) -> float:
        return log_eppf_sequential(self, p)

    def urn_weights(self, colour_totals, degree):
        """Size minus the discount; a new cluster ``strength + discount * degree``."""
        return (-self.discount,), (1.0,), (self.strength + self.discount * degree,)

    weight_lists = _weight_lists


@dataclass(frozen=True)
class ColouredDirichletProcess:
    """Coloured partition prior: colour k carries (dirichlet weight, concentration)."""

    colours: tuple[tuple[float, float], ...]

    coloured = True

    def __init__(self, colours: Sequence[Sequence[float]]):
        colours = tuple((float(g), float(t)) for g, t in colours)
        if not colours:
            raise ValidationError("at least one colour is required")
        for k, (g, t) in enumerate(colours):
            if not (g > 0 and t > 0):
                raise ValidationError(f"colour {k}: weight and concentration must be > 0")
        object.__setattr__(self, "colours", colours)

    @property
    def n_colours(self) -> int:
        return len(self.colours)

    def log_eppf(self, p: ColouredPartition) -> float:
        return log_eppf_cdp(p, self)

    def urn_weights(self, colour_totals, degree):
        """An existing cluster of colour k and size m weighs
        ``m * (gamma_k + n_k) / (theta_k + n_k)`` and a new cluster of colour k
        ``theta_k * (gamma_k + n_k) / (theta_k + n_k)``, where n_k counts the
        remaining items of colour k."""
        factors = [(g + n_k) / (t + n_k) for (g, t), n_k in zip(self.colours, colour_totals)]
        new = [t * f for (_, t), f in zip(self.colours, factors)]
        return (0.0,) * len(factors), factors, new

    weight_lists = _weight_lists


@dataclass(frozen=True)
class BackgroundDirichletProcess:
    """Coloured prior with one mandatory background cluster (colour 0) and
    exchangeable regular clusters (colour 1).

    This is the coloured-process limit in which the background colour's
    concentration goes to zero, collapsing it to a single cluster whose
    occupancy is steered by ``background_weight``.
    """

    background_weight: float
    concentration: float

    coloured = True
    n_colours = 2
    BACKGROUND = 0
    REGULAR = 1

    def __post_init__(self):
        if not self.background_weight > 0:
            raise ValidationError("background_weight must be > 0")
        if not self.concentration > 0:
            raise ValidationError("concentration must be > 0")

    def log_eppf(self, p: ColouredPartition) -> float:
        return log_eppf_background(p, self.background_weight, self.concentration)

    def urn_weights(self, colour_totals, degree):
        """The background cluster (existing or to be created) weighs
        ``background_weight + n_0``, an existing regular cluster its size and
        a new regular cluster ``concentration``. The background cluster
        exists exactly when ``n_0 > 0``, and then no second one may open."""
        bw = self.background_weight
        return ((bw, 0.0), (1.0, 1.0),
                (0.0 if colour_totals[self.BACKGROUND] else bw, self.concentration))

    weight_lists = _weight_lists


PartitionPrior = Union[
    DirichletProcess,
    DirichletMultinomial,
    PitmanYor,
    ColouredDirichletProcess,
    BackgroundDirichletProcess,
]


def log_eppf_dp(p: Partition, theta: float) -> float:
    """Log probability of a partition under the Dirichlet process.

    Equals ``lgamma(theta) - lgamma(theta + n) + d*log(theta) + sum_j lgamma(n_j)``,
    i.e. the product of urn predictive weights over any insertion order.
    """
    if not theta > 0:
        raise ValidationError(f"concentration must be > 0, got {theta}")
    sizes = np.array(p.sizes, dtype=float)
    return float(
        gammaln(theta) - gammaln(theta + p.n)
        + p.degree * math.log(theta)
        + gammaln(sizes).sum()
    )


def log_ewens_config(config: ConfigurationCounts, theta: float) -> float:
    """Log probability of a cluster-size configuration under the Dirichlet process.

    This is the classical sampling formula over configurations: the partition
    probability summed over all partitions sharing the given size multiset.
    """
    if not theta > 0:
        raise ValidationError(f"concentration must be > 0, got {theta}")
    n = config.n
    out = gammaln(n + 1) + gammaln(theta) - gammaln(theta + n)
    for r, a in enumerate(config.counts, start=1):
        if a:
            out += a * (math.log(theta) - math.log(r)) - gammaln(a + 1)
    return float(out)


def log_eppf_cdp(p: ColouredPartition, model: ColouredDirichletProcess) -> float:
    """Log probability of a coloured partition under the coloured Dirichlet process.

    The front factor normalizes over the full colour-weight vector; each
    colour then contributes a Dirichlet-process-like term in its own
    concentration, tilted by the colour occupancy n_k. Colours allowed by
    the model but absent from the partition contribute a factor of one.
    """
    if p.n_colours > model.n_colours:
        raise ValidationError(
            f"partition uses {p.n_colours} colours but model defines {model.n_colours}"
        )
    gam = np.array([g for g, _ in model.colours])
    th = np.array([t for _, t in model.colours])
    out = gammaln(gam.sum()) - gammaln(p.n + gam.sum())
    for k, clusters in enumerate(p.clusters_by_colour):
        if not clusters:
            continue
        sizes = np.array([len(c) for c in clusters], dtype=float)
        n_k = sizes.sum()
        out += (
            gammaln(th[k]) + gammaln(n_k + gam[k])
            - gammaln(n_k + th[k]) - gammaln(gam[k])
            + len(clusters) * math.log(th[k])
            + gammaln(sizes).sum()
        )
    return float(out)


def log_eppf_background(p: ColouredPartition, background_weight: float,
                        concentration: float) -> float:
    """Log probability of a coloured partition under the background-cluster prior.

    Colour 0 is the background: at most one cluster, weight accumulating as
    ``background_weight + occupancy``. Colour 1 clusters behave like a
    Dirichlet process with the given concentration. Derived as the
    zero-concentration limit of the coloured process on colour 0 (the
    closed form below telescopes the urn weights; the limit is also
    cross-checked numerically in the test-suite).
    """
    if not background_weight > 0:
        raise ValidationError("background_weight must be > 0")
    if not concentration > 0:
        raise ValidationError("concentration must be > 0")
    if p.n_colours != 2:
        raise ValidationError("background prior requires exactly 2 colours (0=background, 1=regular)")
    bg_clusters, reg_clusters = p.clusters_by_colour
    if len(bg_clusters) >= 2:
        return LOG_ZERO
    gamma, theta = background_weight, concentration
    n0 = sum(len(c) for c in bg_clusters)
    out = gammaln(gamma + theta) - gammaln(p.n + gamma + theta)
    if bg_clusters:
        out += gammaln(n0 + gamma) - gammaln(gamma)
    if reg_clusters:
        sizes = np.array([len(c) for c in reg_clusters], dtype=float)
        out += len(reg_clusters) * math.log(theta) + gammaln(sizes).sum()
    return float(out)


def log_eppf(model: PartitionPrior, p: Partition | ColouredPartition) -> float:
    """Log-EPPF under any supported prior, dispatching on the model family."""
    if model.coloured != isinstance(p, ColouredPartition):
        kind = "coloured" if model.coloured else "plain"
        raise ValidationError(f"{type(model).__name__} requires a {kind} partition")
    return model.log_eppf(p)


def log_eppf_sequential(model: PartitionPrior, p: Partition | ColouredPartition) -> float:
    """Log-EPPF evaluated as a chain of one-step predictive probabilities.

    Items are inserted in index order; at each step the probability of the
    placement dictated by ``p`` is the model's reallocation weight for that
    target divided by the total weight of all available placements. For the
    Dirichlet process this reproduces the closed form exactly; for the
    sequentially-defined families it *is* the definition, and exchangeability
    over insertion order is a tested property rather than an assumption.
    """
    if model.coloured != isinstance(p, ColouredPartition):
        kind = "coloured" if model.coloured else "plain"
        raise ValidationError(f"{type(model).__name__} requires a {kind} partition")

    if isinstance(p, ColouredPartition):
        if p.n_colours > model.n_colours:
            raise ValidationError("partition uses more colours than the model defines")
        cluster_of = {}
        for col, clusters in enumerate(p.clusters_by_colour):
            for c in clusters:
                for i in c:
                    cluster_of[i] = (c, col)
    else:
        cluster_of = {}
        for c in p.clusters:
            for i in c:
                cluster_of[i] = (c, 0)

    started: dict[tuple, int] = {}
    sizes: list[int] = []
    colours: list[int] = []
    total_log = 0.0
    for i in range(p.n):
        cluster, col = cluster_of[i]
        existing, new = model.weight_lists(sizes, colours)
        denom = sum(existing) + sum(new)
        w = existing[started[cluster]] if cluster in started else new[col]
        if w <= 0 or denom <= 0:
            return LOG_ZERO
        total_log += math.log(w) - math.log(denom)
        if cluster in started:
            sizes[started[cluster]] += 1
        else:
            started[cluster] = len(sizes)
            sizes.append(1)
            colours.append(col)
    return total_log
