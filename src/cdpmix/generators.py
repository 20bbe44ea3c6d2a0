"""Forward samplers: stick-breaking, urn sequences, finite-mixture
allocation, and the stick-breaking-and-colouring construction.

Every sampler takes an explicit ``numpy.random.Generator``; identical seeds
give bit-identical output. Stick-breaking partition samplers extend the
stick lazily, so no truncation error enters the induced partition law.
The finite mixture is the same construction with K segments: its symmetric
Dirichlet(w, ..., w) weights are revealed in size-biased order, break j
being Beta(1 + w, (K - j) w) and the last segment the residual (Pitman 1996;
Ishwaran & James 2002). Near the Dirichlet-process limit (K w small) a draw of
n labels then costs O(n), not O(K), and it never normalises a batch of
tiny-shape gammas that underflow to zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .partitions import ColouredPartition
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
    return _sample_sticks(lambda j: rng.beta(1.0, concentration), n_sticks=n_sticks, tol=tol)


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
                          n_sticks=n_sticks, tol=tol)


def _sample_sticks(draw_break, *, n_sticks, tol) -> StickWeights:
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


# up to this total concentration a stick breaks one scalar draw at a time:
# a scalar beta costs about 1 us, a vector draw about 8 us of overhead
# (numpy 2.4 on a 2-vCPU Xeon VM)
_SCALAR_BREAKS = 8.0


class _LazySticks:
    """Stick weights in size-biased order, broken on demand as cumulative boundaries.

    Break j (from 0) is Beta(a, b) on an endless stick. A stick of ``count``
    segments breaks with Beta(a, (count - 1 - j) * b) and its last segment
    takes the residual: with a = 1 + b these are the size-biased weights of a
    symmetric Dirichlet(b, ..., b) (Pitman 1996). Above ``_SCALAR_BREAKS`` the
    breaks come in chunks of ceil(total concentration), about what one e-fold
    of the residual takes; a vector draw yields the same values and generator
    state as that many scalar draws.
    """

    __slots__ = ("rng", "a", "b", "count", "limit", "chunk", "cum", "residual")

    def __init__(self, rng: np.random.Generator, a: float, b: float,
                 count: int | None = None):
        self.rng = rng
        self.a, self.b, self.count = a, b, count
        self.limit = math.inf if count is None else count - 1
        total = b if count is None else b * (count - 1)
        self.chunk = math.ceil(total) if total > _SCALAR_BREAKS else 1
        # bisect_right reads either; a chunked stick saves converting each chunk to floats
        self.cum: list[float] | np.ndarray = [] if self.chunk == 1 else np.empty(0)
        self.residual = 1.0

    def locate(self, u: float) -> int:
        """Index of the stick segment containing u in [0, 1)."""
        while u >= 1.0 - self.residual and len(self.cum) < self.limit:
            self._extend()
        return bisect_right(self.cum, u)

    def _extend(self) -> None:
        left = None if self.count is None else self.count - 1 - len(self.cum)
        if self.chunk == 1:
            self.residual *= 1.0 - self.rng.beta(self.a, self.b if left is None
                                                 else self.b * left)
            self.cum.append(1.0 - self.residual)
            return
        m = self.chunk if left is None else min(self.chunk, left)
        b = self.b if left is None else self.b * np.arange(left, left - m, -1)
        rest = np.subtract(1.0, self.rng.beta(self.a, b, m))
        rest[0] *= self.residual
        # left-to-right products: the same roundings as one break at a time
        np.multiply.accumulate(rest, out=rest)
        self.residual = float(rest[-1])
        self.cum = np.concatenate((self.cum, np.subtract(1.0, rest, out=rest)))


def sample_dp_partition_via_sticks(n: int, concentration: float,
                                   rng: np.random.Generator) -> list[int]:
    """Stick atoms of n items, lazily broken: ties among the labels induce the
    partition (``Partition.from_allocation`` builds it)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not concentration > 0:
        raise ValidationError("concentration must be > 0")
    sticks = _LazySticks(rng, 1.0, concentration)
    return [sticks.locate(rng.random()) for _ in range(n)]


def sample_finite_mixture_alloc(components: int, weight: float, n: int,
                                rng: np.random.Generator) -> list[int]:
    """Finite-mixture allocation: symmetric Dirichlet weights, then iid labels.

    The weights are revealed lazily in size-biased order, only as far as the
    n uniforms reach: at a small total weight ``components * weight`` a draw
    costs O(n) rather than O(components). Each
    component that receives an item gets a distinct uniform id in
    ``range(components)``; the Dirichlet is exchangeable, so the labels have
    the law of explicit weights followed by iid categorical draws.
    """
    if components < 1:
        raise ValidationError("components must be >= 1")
    if not weight > 0:
        raise ValidationError("weight must be > 0")
    if n < 1:
        raise ValidationError("n must be >= 1")
    sticks = _LazySticks(rng, 1.0 + weight, weight, components)
    ids: dict[int, int] = {}
    taken: set[int] = set()
    labels = []
    for _ in range(n):
        j = sticks.locate(rng.random())
        if j not in ids:
            label = int(rng.integers(components))
            while label in taken:
                label = int(rng.integers(components))
            ids[j] = label
            taken.add(label)
        labels.append(ids[j])
    return labels


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
    sticks = [_LazySticks(rng, 1.0, t) for _, t in model.colours]
    labels: list[tuple[int, int]] = []
    for _ in range(n):
        k = int(rng.choice(n_colours, p=colour_w))
        labels.append((k, sticks[k].locate(rng.random())))
    key_index = {key: j for j, key in enumerate(dict.fromkeys(labels))}
    colours = [key[0] for key in labels]
    cp = ColouredPartition.from_allocation([key_index[key] for key in labels],
                                           colours, n_colours)
    # one atom per cluster, drawn and numbered in order of first appearance
    atom_of_key = {key: Atom(uid, None if bases is None else bases[key[0]].draw(rng))
                   for key, uid in key_index.items()}
    return cp, [atom_of_key[labels[c[0]]] for cs in cp.clusters_by_colour for c in cs]
