"""Forward samplers: stick-breaking, urn sequences, finite-mixture
allocation, and the stick-breaking-and-colouring construction.

Every sampler takes an explicit ``numpy.random.Generator``; identical seeds
give bit-identical output. Stick-breaking partition samplers extend the
stick lazily, so no truncation error enters the induced partition law.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .partitions import ColouredPartition, Partition
from .priors import ColouredDirichletProcess


@dataclass(frozen=True)
class StickWeights:
    """Weights from a truncated stick-breaking run plus the unbroken residual."""

    weights: np.ndarray
    residual: float


def _gem_weights(breaks: np.ndarray) -> StickWeights:
    keep = np.cumprod(1.0 - breaks)
    prefix = np.concatenate([[1.0], keep[:-1]])
    return StickWeights(breaks * prefix, float(keep[-1]) if breaks.size else 1.0)


def sample_gem(concentration: float, rng: np.random.Generator, *,
               n_sticks: int | None = None, tol: float | None = None) -> StickWeights:
    """Stick-breaking weights with independent Beta(1, concentration) breaks.

    Truncation is either a fixed number of sticks (``n_sticks``) or adaptive
    (stop once the residual mass drops below ``tol``); give exactly one.
    """
    if not concentration > 0:
        raise ValidationError("concentration must be > 0")
    return _sample_sticks(lambda j: rng.beta(1.0, concentration),
                          rng, n_sticks=n_sticks, tol=tol)


def sample_gem_two_param(discount: float, strength: float, rng: np.random.Generator, *,
                         n_sticks: int | None = None, tol: float | None = None) -> StickWeights:
    """Two-parameter stick-breaking: break j uses Beta(1 - discount, strength + j*discount).

    With zero discount this is exactly ``sample_gem``.
    """
    if not 0 <= discount < 1:
        raise ValidationError("discount must lie in [0, 1)")
    if not strength > -discount:
        raise ValidationError("strength must exceed -discount")
    return _sample_sticks(lambda j: rng.beta(1.0 - discount, strength + j * discount),
                          rng, n_sticks=n_sticks, tol=tol)


def _sample_sticks(draw_break, rng, *, n_sticks, tol) -> StickWeights:
    if (n_sticks is None) == (tol is None):
        raise ValidationError("specify exactly one of n_sticks or tol")
    breaks = []
    if n_sticks is not None:
        if n_sticks < 0:
            raise ValidationError("n_sticks must be >= 0")
        breaks = [draw_break(j) for j in range(1, n_sticks + 1)]
    else:
        if not 0 < tol < 1:
            raise ValidationError("tol must lie in (0, 1)")
        residual, j = 1.0, 0
        while residual >= tol:
            j += 1
            v = draw_break(j)
            breaks.append(v)
            residual *= 1.0 - v
    return _gem_weights(np.asarray(breaks, dtype=float))


class _LazySticks:
    """A stick broken on demand: cumulative weight boundaries grow as needed."""

    __slots__ = ("rng", "concentration", "cum", "residual")

    def __init__(self, concentration: float, rng: np.random.Generator):
        self.rng = rng
        self.concentration = concentration
        self.cum: list[float] = []
        self.residual = 1.0

    def locate(self, u: float) -> int:
        """Index of the stick segment containing u in [0, 1)."""
        while u >= 1.0 - self.residual:
            v = self.rng.beta(1.0, self.concentration)
            self.cum.append(1.0 - self.residual * (1.0 - v))
            self.residual *= 1.0 - v
        return bisect_right(self.cum, u)


def sample_dp_partition_via_sticks(n: int, concentration: float,
                                   rng: np.random.Generator) -> Partition:
    """Partition of n items induced by ties among lazily-broken stick atoms."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not concentration > 0:
        raise ValidationError("concentration must be > 0")
    sticks = _LazySticks(concentration, rng)
    labels = [sticks.locate(rng.random()) for _ in range(n)]
    return Partition.from_allocation(labels)


def sample_finite_mixture_alloc(components: int, weight: float, n: int,
                                rng: np.random.Generator) -> list[int]:
    """Finite-mixture allocation: symmetric Dirichlet weights, then iid labels."""
    if components < 1:
        raise ValidationError("components must be >= 1")
    if not weight > 0:
        raise ValidationError("weight must be > 0")
    if n < 1:
        raise ValidationError("n must be >= 1")
    w = rng.dirichlet(np.full(components, weight))
    return [int(lab) for lab in rng.choice(components, size=n, p=w)]


class Atom(NamedTuple):
    """A base-measure draw: the uid makes ties detectable without comparing payloads."""

    uid: int
    value: object


class BaseMeasure:
    """Sampler interface for cluster-parameter atoms."""

    def draw(self, rng: np.random.Generator):
        raise NotImplementedError


class UniformBase(BaseMeasure):
    """Continuous stand-in: unit-interval payloads, distinct with probability 1."""

    def draw(self, rng):
        return float(rng.random())


def sample_polya_sequence(n: int, concentration: float, base: BaseMeasure,
                          rng: np.random.Generator) -> tuple[list[int], list[Atom]]:
    """Sequential urn draw: join a previous atom with weight 1 each, or draw a
    fresh atom from the base measure with weight ``concentration``.

    Returns per-item atom indices and the atom list in draw order; the first
    item always takes a fresh base draw.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not concentration > 0:
        raise ValidationError("concentration must be > 0")
    labels: list[int] = []
    atoms: list[Atom] = []
    counts: list[int] = []
    for m in range(n):
        u = rng.random() * (m + concentration)
        acc = 0.0
        chosen = -1
        for j, c in enumerate(counts):
            acc += c
            if u < acc:
                chosen = j
                break
        if chosen < 0:
            chosen = len(atoms)
            atoms.append(Atom(chosen, base.draw(rng)))
            counts.append(0)
        counts[chosen] += 1
        labels.append(chosen)
    return labels, atoms


def sample_cdp(n: int, model: ColouredDirichletProcess,
               bases: Sequence[BaseMeasure] | None,
               rng: np.random.Generator) -> tuple[ColouredPartition, list[Atom]]:
    """Stick-breaking-and-colouring draw.

    Colour weights come from a Dirichlet over the per-colour weights; each
    colour's segment is then broken with its own concentration. Returns the
    induced coloured partition and one atom per cluster, in colour-major
    canonical order (the order of ``clusters_by_colour``).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    n_colours = model.n_colours
    if bases is not None and len(bases) != n_colours:
        raise ValidationError("one base measure per colour is required")
    colour_w = rng.dirichlet(np.array([g for g, _ in model.colours]))
    sticks = [_LazySticks(t, rng) for _, t in model.colours]
    labels: list[tuple[int, int]] = []
    for _ in range(n):
        k = int(rng.choice(n_colours, p=colour_w))
        labels.append((k, sticks[k].locate(rng.random())))
    key_index = {key: j for j, key in enumerate(dict.fromkeys(labels))}
    colours = [key[0] for key in labels]
    cp = ColouredPartition.from_allocation([key_index[key] for key in labels],
                                           colours, n_colours)
    atom_of_key: dict[tuple[int, int], Atom] = {}
    uid = 0
    for key in key_index:
        k = key[0]
        payload = bases[k].draw(rng) if bases is not None else None
        atom_of_key[key] = Atom(uid, payload)
        uid += 1
    item_key = {i: key for i, key in enumerate(labels)}
    atoms = [atom_of_key[item_key[c[0]]]
             for cs in cp.clusters_by_colour for c in cs]
    return cp, atoms
