"""Posterior summarisation: pairwise-coincidence similarity, expected pairwise
loss, loss-optimal partition search, and per-cluster profile summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .partitions import MAX_ENUM_N, Partition


class SimilarityMatrix:
    """Pairwise coincidence counts over sampled partitions.

    ``matrix[i, j]`` is the fraction of samples placing items i and j in the
    same cluster (diagonal exactly one). Accumulators merge associatively,
    so per-chain counts can be combined afterwards.
    """

    def __init__(self, counts: np.ndarray, sample_count: int):
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValidationError("counts must be a square matrix")
        if sample_count < 1:
            raise ValidationError("sample_count must be >= 1")
        self.counts = counts.astype(np.int64)
        self.sample_count = int(sample_count)

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        rho = self.counts / self.sample_count
        np.fill_diagonal(rho, 1.0)
        return rho

    def merge(self, other: "SimilarityMatrix") -> "SimilarityMatrix":
        if other.n != self.n:
            raise ValidationError("cannot merge accumulators of different sizes")
        return SimilarityMatrix(self.counts + other.counts,
                                self.sample_count + other.sample_count)


#: Distinct rows per block of the co-clustering count; bounds the temporaries.
#: An entry of a block's product is at most the block's total weight: _BLOCK
#: for rows seen once, up to R for repeated rows. float32 holds such integers
#: exactly in any summation order only below 2**24, so a block whose total
#: weight reaches _EXACT_F32 takes its product in float64 instead.
_BLOCK = 4096
_EXACT_F32 = 2 ** 24


def distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index, rows)``: the distinct rows of a 2-d array in order of first
    occurrence, and per row of ``table`` the position of its row among them,
    so that ``rows[index]`` equals ``table``."""
    table = np.ascontiguousarray(table)
    # one opaque item per row: np.unique(axis=0) is far slower
    keys = table.view(np.dtype((np.void, table.dtype.itemsize * table.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], table[first[order]]


def accumulate_similarity(samples, weights=None) -> SimilarityMatrix:
    """Coincidence accumulator over an R x n label array, or over allocation
    vectors or trace records; with ``weights``, row r of ``samples`` counts
    ``weights[r]`` times (a non-negative integer, zero included).

    Labels are any integers; only equality within a row matters. Without
    ``weights``, the distinct rows are found with ``distinct_rows`` and
    weighted by how often they occur; with them, the rows are taken as
    given (repeats add up), so a caller that already holds the distinct rows
    and their counts, as a ``pipeline.TraceTable`` does, skips that pass. For each
    label value k, a block of rows adds a product of ``hit``, the 0/1
    indicator of label k: ``hit.T @ hit`` for rows of weight one, and
    ``hit.T @ (hit * w)`` with ``w`` the weights for the others, so the
    count is one matrix product per label and block. Each product is exact:
    it runs in float32 while the block's total weight is below 2**24 and in
    float64 otherwise (see ``_BLOCK``), and is added into float64 counts,
    exact integers below 2**53. ``sample_count`` is the total weight, R
    without ``weights``.
    """
    if not isinstance(samples, np.ndarray):
        rows = [s.labels if hasattr(s, "labels") else s for s in samples]
        if len({len(r) for r in rows}) > 1:
            raise ValidationError("all samples must allocate the same items")
        samples = np.array(rows, dtype=np.int64)
    if samples.size == 0:
        raise ValidationError("no samples given")
    if samples.ndim != 2:
        raise ValidationError("samples must form an R x n label array")
    if weights is not None:
        weights = np.asarray(weights)
        if (weights.shape != samples.shape[:1] or weights.dtype.kind not in "iu"
                or weights.min() < 0):
            raise ValidationError("weights must be one non-negative integer per sample")
    n = samples.shape[1]
    if samples.min() < 0 or samples.max() >= n:
        # rank the labels within each row, so the label loop runs at most n times
        order = np.argsort(samples, axis=1)
        ranks = np.zeros(samples.shape, dtype=np.int64)
        ranks[:, 1:] = np.cumsum(np.diff(np.take_along_axis(samples, order, axis=1)) != 0, axis=1)
        samples = np.empty_like(ranks)
        np.put_along_axis(samples, order, ranks, axis=1)
    labels = np.ascontiguousarray(samples, dtype=np.min_scalar_type(n - 1))
    if weights is None:
        index, labels = distinct_rows(labels)
        weights = np.bincount(index)
    top = labels.max(axis=1)
    # highest label first, so the rows holding label k lead every block
    order = np.argsort(top)[::-1]
    labels, weights, top = labels[order], weights[order], top[order]
    once = weights == 1
    counts = np.zeros((n, n))
    for rows, tops, weight in ((labels[once], top[once], None),
                               (labels[~once], top[~once], weights[~once])):
        for start in range(0, len(rows), _BLOCK):
            block, block_top = rows[start:start + _BLOCK], tops[start:start + _BLOCK]
            if weight is not None:
                w = weight[start:start + _BLOCK]
                w = w.astype(np.float32 if w.sum() < _EXACT_F32 else np.float64)[:, None]
            for k in range(int(block_top[0]) + 1):
                m = np.count_nonzero(block_top >= k)
                hit = (block[:m] == k).astype(np.float32)
                # a product of an array with its own transpose is half the work
                counts += hit.T @ hit if weight is None else hit.T @ (hit * w[:m])
    return SimilarityMatrix(counts, int(weights.sum()))


@dataclass(frozen=True)
class LossSpec:
    """Pairwise loss weights: a false positive is a pair clustered together in
    the estimate but apart under the posterior draw, a false negative the
    reverse. Equal weights by default."""

    false_positive: float = 1.0
    false_negative: float = 1.0

    def __post_init__(self):
        if not (0 <= self.false_positive < np.inf and 0 <= self.false_negative < np.inf):
            raise ValidationError("loss weights must be finite and >= 0")
        if self.false_positive == 0 and self.false_negative == 0:
            raise ValidationError("at least one loss weight must be positive")


def _together(p: Partition) -> np.ndarray:
    labels = np.asarray(p.allocation())
    return labels[:, None] == labels[None, :]


def expected_pairwise_loss(p: Partition, rho: np.ndarray, loss: LossSpec = LossSpec()) -> float:
    """Posterior expected pairwise loss of estimating with partition ``p``.

    Sums, over unordered item pairs, the false-positive weight times
    (1 - coincidence) for pairs joined by ``p`` and the false-negative
    weight times the coincidence for pairs split by ``p``.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (p.n, p.n):
        raise ValidationError("similarity matrix shape does not match partition size")
    together = _together(p)
    off = ~np.eye(p.n, dtype=bool)
    fp = loss.false_positive * ((1.0 - rho) * (together & off)).sum()
    fn = loss.false_negative * (rho * (~together & off)).sum()
    return float(0.5 * (fp + fn))


def _pair_score(rho: np.ndarray, loss: LossSpec) -> np.ndarray:
    """Per-pair cost of being joined: positive entries favour splitting."""
    score = loss.false_positive * (1.0 - rho) - loss.false_negative * rho
    np.fill_diagonal(score, 0.0)
    return score


def optimal_partition(rho: np.ndarray, loss: LossSpec = LossSpec(), *,
                      strategy: str = "greedy") -> Partition:
    """Loss-minimising partition under the pairwise-coincidence loss.

    ``exact`` (guarded to small n) is a depth-first branch-and-bound over
    restricted-growth strings in the order ``enumerate_partitions`` visits
    them. It prunes a subtree only when no partition in it can beat the best
    found by more than 1e-12 and accepts a partition only when it does, so it
    returns the canonically-first argmin that a full scan would. ``greedy``
    merges agglomeratively from singletons, then runs single-item relocation
    passes to a fixed point; its loss never exceeds the all-singletons or
    one-cluster baselines.
    """
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[0]
    if rho.shape != (n, n):
        raise ValidationError("similarity matrix must be square")
    if strategy == "exact":
        if n > MAX_ENUM_N:
            raise ValidationError(f"exact search limited to n <= {MAX_ENUM_N}")
        return _exact_partition(rho, loss)
    if strategy != "greedy":
        raise ValidationError(f"unknown strategy {strategy!r}")
    return _greedy_partition(rho, loss)


def _exact_partition(rho: np.ndarray, loss: LossSpec) -> Partition:
    n = rho.shape[0]
    # the loss averages rho[i, j] and rho[j, i]; a symmetric rho is unchanged
    rho = 0.5 * (rho + rho.T)
    score = _pair_score(rho, loss).tolist()
    # a partition's loss is fn * sum_{i<j} rho_ij plus the scores of its joined pairs
    base = loss.false_negative * float(np.triu(rho, 1).sum())
    # rest[k]: the least that joining pairs (i, j), i < j, j >= k can add
    rest = [0.0] * (n + 1)
    for k in range(n - 1, 0, -1):
        rest[k] = rest[k + 1] + sum(min(s, 0.0) for s in score[k][:k])
    labels = [0] * n
    best, best_labels = np.inf, None

    def grow(k: int, used: int, cost: float) -> None:
        # items 0..k-1 are labelled and their joined pairs cost ``cost``
        nonlocal best, best_labels
        if k == n:
            best, best_labels = cost, labels[:]
            return
        joined = [0.0] * (used + 1)
        row = score[k]
        for i in range(k):
            joined[labels[i]] += row[i]
        for lab in range(used + 1):
            child = cost + joined[lab]
            if child + rest[k + 1] < best - 1e-12:
                labels[k] = lab
                grow(k + 1, max(used, lab + 1), child)

    grow(1, 1, base)
    return Partition.from_allocation(best_labels)


def _agglomerate(score: np.ndarray) -> list[list[int]]:
    """Agglomerative sweep from singletons: take the merge with the largest
    strict decrease of the loss, first in row-major order among ties.

    ``pair_cost[a, b]`` tracks the loss change of joining clusters a and b and
    updates additively under merges; cluster a absorbs b > a and b dies, so
    the live clusters keep their relative order. ``upper`` holds the
    candidate merges, ``pair_cost`` on live pairs a < b and +inf elsewhere.
    """
    n = score.shape[0]
    clusters: list[list[int]] = [[i] for i in range(n)]
    pair_cost = score.copy()
    upper = np.where(np.triu(np.ones((n, n), dtype=bool), 1), pair_cost, np.inf)
    alive = np.ones(n, dtype=bool)
    while n > 1:
        a, b = divmod(int(upper.argmin()), n)
        if upper[a, b] >= -1e-12:  # also when one cluster is left: all +inf
            break
        clusters[a] = sorted(clusters[a] + clusters[b])
        merged = pair_cost[a] + pair_cost[b]
        pair_cost[a, :] = merged
        pair_cost[:, a] = merged
        pair_cost[a, a] = 0.0
        alive[b] = False
        upper[b, :] = upper[:, b] = np.inf
        upper[a, a + 1:] = np.where(alive[a + 1:], merged[a + 1:], np.inf)
        upper[:a, a] = np.where(alive[:a], merged[:a], np.inf)
    return [c for c, live in zip(clusters, alive) if live]


def _greedy_partition(rho: np.ndarray, loss: LossSpec) -> Partition:
    n = rho.shape[0]
    score = _pair_score(rho, loss)
    clusters = _agglomerate(score)

    # single-item relocation passes until a fixed point. item_cost[i, c] is
    # the loss change of item i joining cluster c (0 for a new singleton).
    labels = np.empty(n, dtype=int)
    for ci, c in enumerate(clusters):
        labels[c] = ci
    onehot = np.zeros((n, len(clusters)))
    onehot[np.arange(n), labels] = 1.0
    item_cost = score @ onehot
    moved = True
    while moved:
        moved = False
        for i in range(n):
            src = int(labels[i])
            stay = float(item_cost[i, src])
            others = item_cost[i].copy()
            others[src] = np.inf
            dst = int(others.argmin())
            best_existing = float(others[dst])
            if min(best_existing, 0.0) >= stay - 1e-12:
                continue
            clusters[src].remove(i)
            item_cost[:, src] -= score[:, i]
            if best_existing <= 0.0:
                clusters[dst].append(i)
                clusters[dst].sort()
                item_cost[:, dst] += score[:, i]
            else:
                clusters.append([i])
                item_cost = np.hstack([item_cost, score[:, [i]]])
                dst = len(clusters) - 1
            labels[i] = dst
            if not clusters[src]:
                clusters.pop(src)
                item_cost = np.delete(item_cost, src, axis=1)
                labels[labels > src] -= 1
            moved = True
    return Partition(clusters)


@dataclass(frozen=True)
class ClusterSummary:
    """Per-coordinate mean and normal-approximation 95% band for one cluster."""

    items: tuple[int, ...]
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def cluster_summaries(p: Partition, data: np.ndarray) -> list[ClusterSummary]:
    """Mean profile and 95% interval (mean +/- 1.96 sd/sqrt(size)) per cluster.

    Singletons report their raw profile with a degenerate interval.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != p.n:
        raise ValidationError("data must have one row per item")
    out = []
    for c in p.clusters:
        rows = data[list(c)]
        mean = rows.mean(axis=0)
        if len(c) > 1:
            half = 1.96 * rows.std(axis=0, ddof=1) / np.sqrt(len(c))
        else:
            half = np.zeros(data.shape[1])
        out.append(ClusterSummary(c, mean, mean - half, mean + half))
    return out
