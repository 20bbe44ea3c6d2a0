import numpy as np
import pytest

from cdpmix import estimation
from cdpmix.errors import ValidationError
from cdpmix.estimation import (LossSpec, SimilarityMatrix, _agglomerate, _pair_score,
                               accumulate_similarity, cluster_summaries,
                               expected_pairwise_loss, optimal_partition)
from cdpmix.gibbs import TraceRecord
from cdpmix.partitions import Partition, enumerate_partitions


def test_single_sample_gives_indicator_matrix():
    sim = accumulate_similarity([[0, 0, 1]])
    expect = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float)
    np.testing.assert_array_equal(sim.matrix, expect)


def test_two_samples_average():
    sim = accumulate_similarity([[0, 0], [0, 1]])
    assert sim.matrix[0, 1] == 0.5
    assert sim.matrix[0, 0] == 1.0


def test_merge_is_accumulation_over_concatenated_traces():
    rng = np.random.default_rng(0)
    traces = [rng.integers(0, 3, size=(8, 6)) for _ in range(3)]
    parts = [accumulate_similarity(t) for t in traces]
    merged = parts[0].merge(parts[1]).merge(parts[2])
    joint = accumulate_similarity(np.vstack(traces))
    np.testing.assert_array_equal(merged.counts, joint.counts)
    assert merged.sample_count == joint.sample_count


def _per_record_counts(labels) -> np.ndarray:
    # the oracle: one n x n comparison per record
    labels = np.asarray(labels)
    counts = np.zeros((labels.shape[1],) * 2, dtype=np.int64)
    for row in labels:
        counts += row[:, None] == row[None, :]
    return counts


@pytest.mark.parametrize("labels", [
    np.random.default_rng(1).integers(0, 40, size=(300, 40)),        # many clusters per row
    np.random.default_rng(2).choice([-7, -1, 3, 250, 10**6], size=(200, 9)),  # negative, sparse
    np.random.default_rng(3).permutation(np.arange(12) % 4)[None, :] + 5,     # one record
    np.random.default_rng(4).integers(0, 3, size=(4096 * 2 + 17, 6)),         # several blocks
    np.random.default_rng(5).integers(0, 8, size=(2000, 40))
    + 1000 * np.arange(2000)[:, None],                            # distinct values in every row
    np.random.default_rng(6).integers(0, 4, size=(3, 10))[np.arange(15000) % 3],  # weights > _BLOCK
    np.random.default_rng(7).integers(0, 3, size=(9000, 12))[
        np.random.default_rng(8).permutation(np.r_[:9000, :5000, :2000])],  # once and repeated
    np.random.default_rng(9).choice([-3, 40, 10**9], size=(50, 5))[
        np.random.default_rng(10).integers(0, 50, size=3000)],    # repeated, outside [0, n)
])
def test_similarity_counts_match_per_record_oracle(labels):
    sim = accumulate_similarity(labels)
    assert sim.sample_count == len(labels)
    np.testing.assert_array_equal(sim.counts, _per_record_counts(labels))


def test_similarity_takes_heavy_blocks_in_float64(monkeypatch):
    # a block whose total weight reaches 2**24 would not be exact in float32;
    # lowering the limit runs that branch on a small trace
    monkeypatch.setattr(estimation, "_EXACT_F32", 100)
    labels = np.random.default_rng(11).integers(0, 3, size=(40, 8))[np.arange(4000) % 40]
    sim = accumulate_similarity(labels)
    assert sim.sample_count == len(labels)
    np.testing.assert_array_equal(sim.counts, _per_record_counts(labels))


@pytest.mark.parametrize("values", [4, [-5, 2, 7, 100]], ids=["ranked", "outside"])
def test_similarity_weights_count_each_row_that_many_times(values):
    rng = np.random.default_rng(12)
    rows = rng.choice(values, size=(30, 9))
    rows[5] = rows[3]  # a row given twice adds up
    weights = rng.integers(0, 6, size=30)
    weights[:2] = [0, 1]
    sim = accumulate_similarity(rows, weights)
    records = np.repeat(rows, weights, axis=0)
    assert sim.sample_count == len(records)
    np.testing.assert_array_equal(sim.counts, _per_record_counts(records))


@pytest.mark.parametrize("weights", [[1, 2], [1, -1, 1], [1.0, 2.0, 1.0], [0, 0, 0]],
                         ids=["short", "negative", "float", "zero"])
def test_similarity_rejects_bad_weights(weights):
    with pytest.raises(ValidationError):
        accumulate_similarity([[0, 1], [0, 0], [1, 1]], weights)


def test_similarity_accepts_lists_arrays_and_records():
    labels = np.random.default_rng(5).integers(0, 4, size=(20, 7))
    records = [TraceRecord(k, tuple(row), (0,) * 7, 0, (), 0.0)
               for k, row in enumerate(labels.tolist())]
    for samples in (labels.astype(np.int32), labels.tolist(), records):
        np.testing.assert_array_equal(accumulate_similarity(samples).counts,
                                      _per_record_counts(labels))


def test_similarity_validation():
    with pytest.raises(ValidationError):
        accumulate_similarity([])
    with pytest.raises(ValidationError):
        accumulate_similarity([[0, 1], [0, 1, 2]])
    with pytest.raises(ValidationError):
        SimilarityMatrix(np.zeros((2, 3)), 1)


def test_loss_spec_validation():
    with pytest.raises(ValidationError):
        LossSpec(-1.0, 1.0)
    with pytest.raises(ValidationError):
        LossSpec(0.0, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            LossSpec(1.0, bad)


def test_loss_zero_when_similarity_matches_partition():
    p = Partition([[0, 1], [2]])
    rho = accumulate_similarity([p.allocation()]).matrix
    assert expected_pairwise_loss(p, rho) == 0.0


def test_loss_all_singletons_sums_similarities():
    rho = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])
    p = Partition([[0], [1], [2]])
    assert expected_pairwise_loss(p, rho, LossSpec(1.0, 2.0)) == pytest.approx(
        2.0 * (0.4 + 0.2 + 0.3))


def test_known_three_item_minimum():
    rho = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]])
    losses = {p: expected_pairwise_loss(p, rho) for p in enumerate_partitions(3)}
    best = min(losses, key=losses.get)
    assert best == Partition([[0, 1], [2]])
    assert losses[best] == pytest.approx(0.3)
    assert optimal_partition(rho, strategy="exact") == best
    assert optimal_partition(rho, strategy="greedy") == best


def test_block_similarity_recovers_blocks():
    rho = np.zeros((6, 6))
    rho[:3, :3] = 1.0
    rho[3:, 3:] = 1.0
    expect = Partition([[0, 1, 2], [3, 4, 5]])
    assert optimal_partition(rho, strategy="exact") == expect
    assert optimal_partition(rho, strategy="greedy") == expect


def test_zero_similarity_gives_singletons():
    rho = np.eye(5)
    assert optimal_partition(rho, strategy="greedy") == Partition([[i] for i in range(5)])


def _enumerated_argmin(rho, loss):
    """Oracle: scan every partition, keep the canonically-first loss minimum."""
    best, best_loss = None, np.inf
    for p in enumerate_partitions(rho.shape[0]):
        val = expected_pairwise_loss(p, rho, loss)
        if val < best_loss - 1e-12:
            best, best_loss = p, val
    return best


def _random_similarity(rng, n):
    A = rng.random((n, n))
    rho = (A + A.T) / 2
    np.fill_diagonal(rho, 1.0)
    return rho


def _labelling_similarity(rng, n):
    """Mean co-clustering of 1-4 random labellings: many exactly tied losses."""
    draws = rng.integers(0, rng.integers(1, 4), size=(rng.integers(1, 5), n))
    return accumulate_similarity(draws).matrix


@pytest.mark.parametrize("n", range(1, 10))
def test_exact_search_matches_enumeration(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3 if n < 9 else 1):
        rho = _random_similarity(rng, n)
        assert optimal_partition(rho, strategy="exact") == _enumerated_argmin(rho, LossSpec())


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 1), (0, 1), (1, 0)])
def test_exact_search_keeps_enumeration_tie_break(weights):
    rng = np.random.default_rng(sum(weights) + 10 * weights[0])
    loss = LossSpec(*weights)
    for _ in range(15):
        rho = _labelling_similarity(rng, int(rng.integers(2, 9)))
        assert optimal_partition(rho, loss, strategy="exact") == _enumerated_argmin(rho, loss)


def test_exact_search_at_largest_size_beats_greedy_and_baselines():
    rng = np.random.default_rng(12)
    for rho in (_random_similarity(rng, 12), _labelling_similarity(rng, 12),
                0.5 + 1e-3 * (_random_similarity(rng, 12) - 0.5)):
        exact = expected_pairwise_loss(optimal_partition(rho, strategy="exact"), rho)
        greedy = expected_pairwise_loss(optimal_partition(rho, strategy="greedy"), rho)
        singles = expected_pairwise_loss(Partition([[i] for i in range(12)]), rho)
        lump = expected_pairwise_loss(Partition([list(range(12))]), rho)
        assert exact <= min(greedy, singles, lump) + 1e-12


def test_greedy_never_beats_exact_and_beats_baselines():
    rng = np.random.default_rng(1)
    loss = LossSpec()
    for _ in range(25):
        n = int(rng.integers(4, 9))
        A = rng.random((n, n))
        rho = (A + A.T) / 2
        np.fill_diagonal(rho, 1.0)
        exact = optimal_partition(rho, loss, strategy="exact")
        greedy = optimal_partition(rho, loss, strategy="greedy")
        le = expected_pairwise_loss(exact, rho, loss)
        lg = expected_pairwise_loss(greedy, rho, loss)
        assert lg >= le - 1e-12
        singles = expected_pairwise_loss(Partition([[i] for i in range(n)]), rho, loss)
        lump = expected_pairwise_loss(Partition([list(range(n))]), rho, loss)
        assert lg <= min(singles, lump) + 1e-12


@pytest.mark.parametrize("seed", [45, 62, 80])
def test_greedy_relocation_that_empties_a_cluster_ends_at_a_local_minimum(seed):
    # on these inputs a relocation pass moves the last item out of a cluster
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    A = rng.random((n, n))
    rho = (A + A.T) / 2
    np.fill_diagonal(rho, 1.0)
    greedy = optimal_partition(rho, strategy="greedy")
    lg = expected_pairwise_loss(greedy, rho)
    for i in range(n):
        rest = [[j for j in c if j != i] for c in greedy.clusters]
        for dst in range(len(rest) + 1):  # another cluster, or a new singleton
            if dst < len(rest) and i in greedy.clusters[dst]:
                continue
            moved = [c + [i] if k == dst else c for k, c in enumerate(rest + [[]])]
            assert expected_pairwise_loss(Partition([c for c in moved if c]), rho) >= lg - 1e-12
    assert lg == expected_pairwise_loss(optimal_partition(rho, strategy="exact"), rho)


def _agglomerate_by_deletion(score):
    """Oracle of ``_agglomerate``: the pair-cost matrix is compacted after
    every merge and the candidates are read off its upper triangle."""
    clusters = [[i] for i in range(score.shape[0])]
    pair_cost = score.copy()
    while len(clusters) > 1:
        iu = np.triu_indices(len(clusters), 1)
        vals = pair_cost[iu]
        k = int(vals.argmin())
        if vals[k] >= -1e-12:
            break
        a, b = int(iu[0][k]), int(iu[1][k])
        clusters[a] = sorted(clusters[a] + clusters[b])
        merged = pair_cost[a] + pair_cost[b]
        pair_cost[a, :] = merged
        pair_cost[:, a] = merged
        pair_cost[a, a] = 0.0
        pair_cost = np.delete(np.delete(pair_cost, b, axis=0), b, axis=1)
        del clusters[b]
    return clusters


def _noisy_block_similarity(rng, n):
    """Co-clustering of 200 records around one labelling, a few items moved
    in each: values k/200, as a sampled chain gives them."""
    base = rng.integers(0, rng.integers(1, 8), size=n)
    draws = np.tile(base, (200, 1))
    moved = rng.random(draws.shape) < 0.1
    draws[moved] = rng.integers(0, 8, size=moved.sum())
    return accumulate_similarity(draws).matrix


def _asymmetric_similarity(rng, n):
    rho = rng.random((n, n))
    np.fill_diagonal(rho, 1.0)
    return rho


def test_agglomeration_matches_compacting_oracle():
    # same merges, same order of the clusters, on tied and untied costs
    rng = np.random.default_rng(13)
    makers = (_labelling_similarity, _random_similarity, _noisy_block_similarity,
              _asymmetric_similarity)
    merges = 0
    for trial in range(320):
        n = int(rng.integers(1, 41))
        rho = makers[trial % len(makers)](rng, n)
        weights = rng.uniform(0.05, 3.0, size=2) if trial % 5 else rng.integers(0, 3, size=2)
        if not weights.any():
            weights[0] = 1
        score = _pair_score(rho, LossSpec(*map(float, weights)))
        clusters = _agglomerate(score)
        assert clusters == _agglomerate_by_deletion(score)
        merges += n - len(clusters)
    assert merges > 3000


def test_loss_invariant_under_consistent_relabelling():
    rng = np.random.default_rng(2)
    rho = rng.random((5, 5))
    rho = (rho + rho.T) / 2
    np.fill_diagonal(rho, 1.0)
    p = Partition([[0, 1], [2, 4], [3]])
    base = expected_pairwise_loss(p, rho)
    perm = list(rng.permutation(5))
    rho_p = rho[np.ix_(np.argsort(perm), np.argsort(perm))]
    assert expected_pairwise_loss(p.relabel_items(perm), rho_p) == pytest.approx(base)


def test_scaling_loss_weights_preserves_argmin():
    rng = np.random.default_rng(3)
    A = rng.random((6, 6))
    rho = (A + A.T) / 2
    np.fill_diagonal(rho, 1.0)
    base = optimal_partition(rho, LossSpec(1.0, 1.0), strategy="exact")
    scaled = optimal_partition(rho, LossSpec(3.5, 3.5), strategy="exact")
    assert base == scaled


def test_exact_strategy_guard():
    with pytest.raises(ValidationError):
        optimal_partition(np.eye(13), strategy="exact")
    with pytest.raises(ValidationError):
        optimal_partition(np.eye(3), strategy="simulated-annealing")


def test_cluster_summaries_singleton_and_pair():
    data = np.array([[0.0, 1.0], [2.0, 3.0], [5.0, 5.0]])
    p = Partition([[0, 1], [2]])
    pair, single = cluster_summaries(p, data)
    np.testing.assert_allclose(pair.mean, [1.0, 2.0])
    np.testing.assert_allclose(pair.upper - pair.mean, 1.96 * np.sqrt(2) / np.sqrt(2))
    np.testing.assert_allclose(single.mean, [5.0, 5.0])
    np.testing.assert_allclose(single.upper, single.lower)


def test_cluster_summaries_identical_profiles_zero_width():
    data = np.array([[1.0], [1.0]])
    (summary,) = cluster_summaries(Partition([[0, 1]]), data)
    assert summary.upper[0] == summary.lower[0] == 1.0
