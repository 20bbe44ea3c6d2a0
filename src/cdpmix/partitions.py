"""Canonical partition representations and brute-force enumeration.

Items are indexed 0..n-1. A partition is stored canonically: every cluster
sorted ascending, clusters ordered by their smallest element. Equality and
hashing therefore ignore how clusters were labelled on input.

A plain ``Partition`` is the one-colour case of a ``ColouredPartition`` and
offers the same per-colour view (``n_colours``, ``clusters_by_colour`` and
``sizes_by_colour()``), so code that walks clusters colour by colour serves both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

# Bell(12) ~ 4.2e6 is the largest enumeration we allow.
MAX_ENUM_N = 12


def _canonical_clusters(clusters: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    cleaned = [tuple(sorted(c)) for c in clusters]
    if any(not c for c in cleaned):
        raise ValidationError("clusters must be nonempty")
    cleaned.sort(key=lambda c: c[0])
    return tuple(cleaned)


def _covered_n(items: list[int], n: int | None) -> int:
    """``n`` (the item count when omitted), checked to be exactly what ``items`` cover."""
    n = len(items) if n is None else n
    if len(items) != n or set(items) != set(range(n)):
        raise ValidationError(
            f"clusters must be disjoint, nonempty, and cover 0..{n - 1}"
        )
    return n


@dataclass(frozen=True)
class Partition:
    """An unlabelled partition of {0..n-1} into disjoint nonempty clusters."""

    n: int
    clusters: tuple[tuple[int, ...], ...]

    # one colour; a class attribute, not a field, so equality and hashing ignore it
    n_colours = 1

    def __init__(self, clusters: Iterable[Iterable[int]], n: int | None = None):
        clusters = _canonical_clusters(clusters)
        if not clusters:
            raise ValidationError("partition must contain at least one cluster")
        n = _covered_n([i for c in clusters for i in c], n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "clusters", clusters)

    @classmethod
    def from_allocation(cls, labels: Sequence[int]) -> "Partition":
        """Group items by label: labellings with the same fibres give the same Partition."""
        if len(labels) == 0:
            raise ValidationError("allocation vector is empty")
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        return cls(groups.values())

    @property
    def degree(self) -> int:
        return len(self.clusters)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)

    @property
    def clusters_by_colour(self) -> tuple[tuple[tuple[int, ...], ...]]:
        return (self.clusters,)

    def sizes_by_colour(self) -> tuple[tuple[int, ...]]:
        return (self.sizes,)

    def allocation(self) -> tuple[int, ...]:
        """Canonical allocation vector: label = index of the cluster holding the item."""
        labels = [0] * self.n
        for j, c in enumerate(self.clusters):
            for i in c:
                labels[i] = j
        return tuple(labels)

    def relabel_items(self, perm: Sequence[int]) -> "Partition":
        """Apply an item permutation (item i becomes perm[i]) and re-canonicalize."""
        return Partition([[perm[i] for i in c] for c in self.clusters], n=self.n)

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, c)) + "}" for c in self.clusters)
        return f"Partition({body})"


@dataclass(frozen=True)
class ColouredPartition:
    """A partition whose clusters each carry an observed colour label.

    Colours are indexed 0..n_colours-1 and are *not* exchangeable: two
    coloured partitions differing only by a colour swap are distinct.
    Within a colour, clusters are kept in canonical order.
    """

    n: int
    n_colours: int
    clusters_by_colour: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, clusters_by_colour: Iterable[Iterable[Iterable[int]]],
                 n_colours: int | None = None, n: int | None = None):
        per_colour = [_canonical_clusters(cs) for cs in clusters_by_colour]
        if n_colours is None:
            n_colours = len(per_colour)
        if len(per_colour) > n_colours:
            raise ValidationError("more colour groups than n_colours")
        per_colour += [()] * (n_colours - len(per_colour))
        n = _covered_n([i for cs in per_colour for c in cs for i in c], n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "n_colours", n_colours)
        object.__setattr__(self, "clusters_by_colour", tuple(per_colour))

    @classmethod
    def from_allocation(cls, labels: Sequence[int], colours: Sequence[int],
                        n_colours: int) -> "ColouredPartition":
        """Group items as ``Partition.from_allocation`` does; a cluster's items share its colour."""
        flat = Partition.from_allocation(labels)
        if len(colours) != len(labels):
            raise ValidationError("labels and colours must have equal length")
        by_colour: list[list[tuple[int, ...]]] = [[] for _ in range(n_colours)]
        for c in flat.clusters:
            col = colours[c[0]]
            if any(colours[i] != col for i in c):
                raise ValidationError(f"cluster {labels[c[0]]} spans multiple colours")
            if not 0 <= col < n_colours:
                raise ValidationError(f"colour {col} out of range")
            by_colour[col].append(c)
        return cls(by_colour, n_colours=n_colours, n=flat.n)

    @property
    def degree(self) -> int:
        return sum(len(cs) for cs in self.clusters_by_colour)

    def colour_degrees(self) -> tuple[int, ...]:
        return tuple(len(cs) for cs in self.clusters_by_colour)

    def colour_totals(self) -> tuple[int, ...]:
        return tuple(sum(len(c) for c in cs) for cs in self.clusters_by_colour)

    def sizes_by_colour(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(len(c) for c in cs) for cs in self.clusters_by_colour)

    def flatten(self) -> Partition:
        """Forget colours, keeping the underlying partition."""
        return Partition([c for cs in self.clusters_by_colour for c in cs], n=self.n)

    def allocation(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical (labels, colours) pair; clusters numbered in flattened canonical order."""
        flat = self.flatten()
        colour = {c: col for col, cs in enumerate(self.clusters_by_colour) for c in cs}
        labels = flat.allocation()
        return labels, tuple(colour[flat.clusters[lab]] for lab in labels)

    def relabel_items(self, perm: Sequence[int]) -> "ColouredPartition":
        return ColouredPartition(
            [[[perm[i] for i in c] for c in cs] for cs in self.clusters_by_colour],
            n_colours=self.n_colours, n=self.n,
        )

    def __repr__(self) -> str:
        parts = []
        for col, cs in enumerate(self.clusters_by_colour):
            for c in cs:
                parts.append(f"{col}:{{{','.join(map(str, c))}}}")
        return f"ColouredPartition({', '.join(parts)})"


@dataclass(frozen=True)
class ConfigurationCounts:
    """Cluster-size configuration: counts[r-1] clusters of size r, for r = 1..n."""

    n: int
    counts: tuple[int, ...]

    def __init__(self, counts: Sequence[int], n: int | None = None):
        counts = tuple(int(a) for a in counts)
        if any(a < 0 for a in counts):
            raise ValidationError("configuration counts must be nonnegative")
        total = sum(r * a for r, a in enumerate(counts, start=1))
        if n is None:
            n = total
        if total != n or n == 0:
            raise ValidationError(f"configuration sums to {total}, expected n={n}")
        # pad/trim to length n for a canonical representation
        counts = counts + (0,) * (n - len(counts))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts[:n])

    @classmethod
    def from_partition(cls, p: Partition) -> "ConfigurationCounts":
        counts = [0] * p.n
        for size in p.sizes:
            counts[size - 1] += 1
        return cls(counts, n=p.n)

    @property
    def degree(self) -> int:
        return sum(self.counts)


def _check_enum_size(n: int) -> None:
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > MAX_ENUM_N:
        raise ValidationError(f"refusing to enumerate partitions of n={n} (max {MAX_ENUM_N})")


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {0..n-1}, in restricted-growth-string order. Count = Bell(n)."""
    _check_enum_size(n)

    def grow(labels: list[int], used: int) -> Iterator[list[int]]:
        if len(labels) == n:
            yield labels
            return
        for lab in range(used + 1):
            yield from grow(labels + [lab], max(used, lab + 1))

    for rgs in grow([0], 1):
        yield Partition.from_allocation(rgs)


def enumerate_coloured_partitions(n: int, n_colours: int) -> Iterator[ColouredPartition]:
    """All coloured partitions of {0..n-1}: every partition times every colour assignment."""
    _check_enum_size(n)
    if n_colours < 1:
        raise ValidationError("n_colours must be >= 1")
    for p in enumerate_partitions(n):
        for colouring in itertools.product(range(n_colours), repeat=p.degree):
            by_colour: list[list[tuple[int, ...]]] = [[] for _ in range(n_colours)]
            for c, col in zip(p.clusters, colouring):
                by_colour[col].append(c)
            yield ColouredPartition(by_colour, n_colours=n_colours, n=n)


def enumerate_configurations(n: int) -> Iterator[ConfigurationCounts]:
    """All cluster-size configurations of n items (integer partitions of n)."""
    _check_enum_size(n)

    def parts(remaining: int, max_part: int) -> Iterator[list[int]]:
        if remaining == 0:
            yield []
            return
        for r in range(min(remaining, max_part), 0, -1):
            for rest in parts(remaining - r, r):
                yield [r] + rest

    for sizes in parts(n, n):
        counts = [0] * n
        for r in sizes:
            counts[r - 1] += 1
        yield ConfigurationCounts(counts, n=n)
