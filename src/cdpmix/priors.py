"""Partition prior families: exact log-EPPF evaluation and urn reallocation tables.

Five families are supported, all exchangeable over items:

* ``DirichletProcess`` -- one concentration parameter.
* ``DirichletMultinomial`` -- finite symmetric mixture with a bounded number
  of components.
* ``PitmanYor`` -- two-parameter generalisation with a discount.
* ``ColouredDirichletProcess`` -- per-colour Dirichlet processes mixed with
  Dirichlet-distributed colour weights; cluster labels exchangeable only
  within a colour; EPPF over coloured partitions.
* ``BackgroundDirichletProcess`` -- the coloured special case with a single
  mandatory "background" cluster (colour 0) plus exchangeable regular
  clusters (colour 1).

Every family's EPPF depends only on each colour's cluster sizes, and each
family evaluates it in closed form in one place, ``log_eppf_sizes(
sizes_by_colour, n)``, from the sizes listed in canonical (least-member)
order; ``log_eppf`` calls it on a partition's sizes. Terms that depend only
on the parameters (the lgamma and log of a concentration, the summed colour
weights) are computed once per model object, and the lgamma of integer sizes
is read off a table grown to the largest size asked for; the terms are added
in the order the closed form lists them, so neither changes a double.
``log_eppf_sequential``, the product of one-step predictive weights, is kept
as the oracle the closed forms are tested against.

Each family defines its urn weights once, as tables for up to n items,
``urn_tables(n) -> (offsets, factors, new, by_degree)``: with one item
withdrawn, d clusters left and m items of colour c, an existing cluster of
colour c and size s weighs ``(s + offsets[c]) * factors[c][m]`` and a new
cluster of colour c weighs ``new[c][m] * by_degree[d]``, for m and d in
0..n. ``weight_lists`` reads the tables for a list of clusters; the Gibbs
sampler and its compiled kernel read them per move.

All probabilities are handled in log space. Structurally impossible states
(e.g. more clusters than components, two background clusters) evaluate to
the ``LOG_ZERO`` sentinel, which downstream code skips deterministically
instead of doing arithmetic with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add
from typing import Sequence, Union

from ._special import gammaln
from .errors import ValidationError
from .partitions import ColouredPartition, ConfigurationCounts, Partition

#: Distinguished log-probability of an impossible event.
LOG_ZERO = float("-inf")


@lru_cache(maxsize=4096)
def _lgamma(x: float) -> float:
    """``gammaln(x)``, cached: the priors ask for a few values many times."""
    return gammaln(x)


def _array_sum(xs: Sequence[float]) -> float:
    """``np.sum`` of the values as float64, in numpy's pairwise order, bit for bit."""
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _array_sum(xs[:half]) + _array_sum(xs[half:])
    m = n - n % 8
    total = 0.0
    if m:
        # numpy's eight lanes, each adding every eighth value in turn
        r = xs[:8]
        for j in range(8, m, 8):
            r = list(map(add, r, xs[j:j + 8]))
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[m:]:
        total += x
    return total


class _LgammaTable:
    """``gammaln(s + shift)`` at s = 0, 1, 2, ..., grown to the largest s asked
    for; ``gammaln`` takes its argument as a float, so an entry is the double
    a direct call gives."""

    def __init__(self, shift: float = 0.0):
        self.shift, self.values = shift, []

    def sum(self, sizes: Sequence[int]) -> float:
        """``_array_sum`` of ``gammaln(s + shift)`` over the integer ``sizes``."""
        try:
            return _array_sum(list(map(self.values.__getitem__, sizes)))
        except IndexError:
            # grown as a copy, so a caller still reading the old list sees it whole
            self.values = self.values + [gammaln(s + self.shift)
                                         for s in range(len(self.values), max(sizes) + 1)]
            return self.sum(sizes)


#: ``gammaln`` at the integers, shared by the families that take it of a size.
_LGAMMA_SIZES = _LgammaTable()


def _weight_lists(model, sizes: Sequence[int], colours: Sequence[int]) -> tuple[list, list]:
    """Unnormalized urn weights for placing one withdrawn item.

    One weight per existing cluster, parallel to ``sizes`` and ``colours``,
    then one per colour for opening a new cluster, read off the family's
    ``urn_tables``, the one place each family defines them.
    """
    colour_totals = [0] * model.n_colours
    for s, k in zip(sizes, colours):
        colour_totals[k] += s
    offsets, factors, new, by_degree = model.urn_tables(sum(colour_totals))
    degree = by_degree[len(sizes)]
    return ([(s + offsets[k]) * factors[k][colour_totals[k]] for s, k in zip(sizes, colours)],
            [new_k[m] * degree for new_k, m in zip(new, colour_totals)])


@dataclass(frozen=True)
class DirichletProcess:
    """Dirichlet-process partition prior with concentration ``theta``."""

    theta: float
    coloured = False
    n_colours = 1

    def __post_init__(self):
        if not self.theta > 0:
            raise ValidationError(f"concentration must be > 0, got {self.theta}")

    def log_eppf_sizes(self, sizes_by_colour, n: int) -> float:
        """``lgamma(theta) - lgamma(theta + n) + d*log(theta) + sum_j lgamma(n_j)``,
        the product of urn predictive weights over any insertion order."""
        (sizes,) = sizes_by_colour
        lgamma_theta, log_theta = self._constants
        return (lgamma_theta - _lgamma(self.theta + n) + len(sizes) * log_theta
                + _LGAMMA_SIZES.sum(sizes))

    @cached_property
    def _constants(self):
        return _lgamma(self.theta), math.log(self.theta)

    def urn_tables(self, n: int):
        """Each existing cluster weighs its size, a new cluster theta."""
        ones = [1.0] * (n + 1)
        return (0.0,), (ones,), ([self.theta] * (n + 1),), ones

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

    def log_eppf_sizes(self, sizes_by_colour, n: int) -> float:
        """``K!/(K-d)! * Gamma(Kw)/Gamma(Kw+n) * prod_j Gamma(w+n_j)/Gamma(w)`` for
        K components of weight w; zero when the d clusters outnumber them."""
        (sizes,) = sizes_by_colour
        K, w = self.components, self.weight
        if len(sizes) > K:
            return LOG_ZERO
        lgamma_kw, lgamma_w, shifted = self._constants
        out = lgamma_kw - _lgamma(K * w + n)
        for i in range(len(sizes)):
            out += math.log(K - i)
        return out + shifted.sum(sizes) - len(sizes) * lgamma_w

    @cached_property
    def _constants(self):
        K, w = self.components, self.weight
        return _lgamma(K * w), _lgamma(w), _LgammaTable(w)

    def urn_tables(self, n: int):
        """Size plus ``weight``; a new cluster ``weight`` per free component."""
        K, w = self.components, self.weight
        ones = [1.0] * (n + 1)
        return (w,), (ones,), (ones,), [max(K - d, 0) * w for d in range(n + 1)]

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

    def log_eppf_sizes(self, sizes_by_colour, n: int) -> float:
        """``prod_{i=1}^{d-1} (theta + i*sigma) / (theta + 1)_{n-1} * prod_j
        (1 - sigma)_{n_j - 1}`` (Pitman 2006, eq. 3.6), with rising factorials
        ``(x)_m = Gamma(x + m) / Gamma(x)``."""
        (sizes,) = sizes_by_colour
        sigma, theta = self.discount, self.strength
        lgamma_theta1, lgamma_1sigma, shifted = self._constants
        out = lgamma_theta1 - _lgamma(theta + n)
        for i in range(1, len(sizes)):
            out += math.log(theta + i * sigma)
        return out + shifted.sum(sizes) - len(sizes) * lgamma_1sigma

    @cached_property
    def _constants(self):
        # s - sigma and s + (-sigma) are the same double
        sigma = self.discount
        return _lgamma(self.strength + 1), _lgamma(1 - sigma), _LgammaTable(-sigma)

    def urn_tables(self, n: int):
        """Size minus the discount; a new cluster ``strength + discount * d``."""
        sigma, theta = self.discount, self.strength
        ones = [1.0] * (n + 1)
        return (-sigma,), (ones,), (ones,), [theta + sigma * d for d in range(n + 1)]

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

    def log_eppf_sizes(self, sizes_by_colour, n: int) -> float:
        """The front factor normalizes over the full colour-weight vector; each
        colour then contributes a Dirichlet-process-like term in its own
        concentration, tilted by the colour occupancy n_k. Colours allowed by
        the model but holding no cluster contribute a factor of one."""
        gam, lgamma_gam, terms = self._constants
        out = lgamma_gam - _lgamma(n + gam)
        for (g, t, lgamma_t, lgamma_g, log_t), sizes in zip(terms, sizes_by_colour):
            if not sizes:
                continue
            n_k = sum(sizes)
            out += (lgamma_t + _lgamma(n_k + g) - _lgamma(n_k + t) - lgamma_g
                    + len(sizes) * log_t + _LGAMMA_SIZES.sum(sizes))
        return out

    @cached_property
    def _constants(self):
        gam = _array_sum([g for g, _ in self.colours])
        return gam, _lgamma(gam), [(g, t, _lgamma(t), _lgamma(g), math.log(t))
                                   for g, t in self.colours]

    def urn_tables(self, n: int):
        """An existing cluster of colour k and size s weighs
        ``s * (gamma_k + n_k) / (theta_k + n_k)`` and a new cluster of colour k
        ``theta_k * (gamma_k + n_k) / (theta_k + n_k)``, where n_k counts the
        remaining items of colour k."""
        factors = [[(g + m) / (t + m) for m in range(n + 1)] for g, t in self.colours]
        new = [[t * f for f in fs] for (_, t), fs in zip(self.colours, factors)]
        return (0.0,) * len(factors), factors, new, [1.0] * (n + 1)

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

    def log_eppf_sizes(self, sizes_by_colour, n: int) -> float:
        """Colour 0 is the background: at most one cluster, weight accumulating
        as ``background_weight + occupancy``. Colour 1 clusters behave like a
        Dirichlet process with the given concentration. Derived as the
        zero-concentration limit of the coloured process on colour 0 (the
        closed form telescopes the urn weights; the limit is also
        cross-checked numerically in the test-suite)."""
        if len(sizes_by_colour) != 2:
            raise ValidationError(
                "background prior requires exactly 2 colours (0=background, 1=regular)")
        background, regular = sizes_by_colour
        if len(background) >= 2:
            return LOG_ZERO
        gamma, theta = self.background_weight, self.concentration
        lgamma_both, lgamma_gamma, log_theta = self._constants
        out = lgamma_both - _lgamma(n + gamma + theta)
        if background:
            out += _lgamma(background[0] + gamma) - lgamma_gamma
        if regular:
            out += len(regular) * log_theta + _LGAMMA_SIZES.sum(regular)
        return out

    @cached_property
    def _constants(self):
        gamma, theta = self.background_weight, self.concentration
        return _lgamma(gamma + theta), _lgamma(gamma), math.log(theta)

    def urn_tables(self, n: int):
        """The background cluster (existing or to be created) weighs
        ``background_weight + n_0``, an existing regular cluster its size and
        a new regular cluster ``concentration``. The background cluster
        exists exactly when ``n_0 > 0``, and then no second one may open."""
        bw = self.background_weight
        ones = [1.0] * (n + 1)
        return ((bw, 0.0), (ones, ones),
                ([bw] + [0.0] * n, [self.concentration] * (n + 1)), ones)

    weight_lists = _weight_lists


PartitionPrior = Union[
    DirichletProcess,
    DirichletMultinomial,
    PitmanYor,
    ColouredDirichletProcess,
    BackgroundDirichletProcess,
]


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


def check_kind(model: PartitionPrior, p: Partition | ColouredPartition) -> None:
    """Reject a partition of the other kind, or with more colours than ``model`` defines."""
    if model.coloured != isinstance(p, ColouredPartition):
        kind = "coloured" if model.coloured else "plain"
        raise ValidationError(f"{type(model).__name__} requires a {kind} partition")
    if p.n_colours > model.n_colours:
        raise ValidationError("partition uses more colours than the model defines")


def log_eppf(model: PartitionPrior, p: Partition | ColouredPartition) -> float:
    """Log-EPPF under any supported prior, from the partition's per-colour cluster sizes."""
    check_kind(model, p)
    return model.log_eppf_sizes(p.sizes_by_colour(), p.n)


def log_eppf_sequential(model: PartitionPrior, p: Partition | ColouredPartition) -> float:
    """Log-EPPF evaluated as a chain of one-step predictive probabilities.

    Items are inserted in index order; at each step the probability of the
    placement dictated by ``p`` is the model's reallocation weight for that
    target divided by the total weight of all available placements. This is
    the oracle for every family's closed form, and its exchangeability over
    insertion order is a tested property rather than an assumption.
    """
    check_kind(model, p)
    # canonical labels number the clusters in order of first appearance
    labels, colours = p.allocation() if model.coloured else (p.allocation(), [0] * p.n)
    sizes: list[int] = []
    cluster_colours: list[int] = []
    total_log = 0.0
    for label, col in zip(labels, colours):
        if not (sizes or model.coloured):
            # the first item of a plain partition opens a cluster for certain,
            # even where that weight (a Pitman-Yor strength <= 0) is not positive
            sizes.append(1)
            cluster_colours.append(col)
            continue
        existing, new = model.weight_lists(sizes, cluster_colours)
        denom = sum(existing) + sum(new)
        w = existing[label] if label < len(sizes) else new[col]
        if w <= 0 or denom <= 0:
            return LOG_ZERO
        total_log += math.log(w) - math.log(denom)
        if label < len(sizes):
            sizes[label] += 1
        else:
            sizes.append(1)
            cluster_colours.append(col)
    return total_log
