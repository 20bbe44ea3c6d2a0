import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sstats

from cdpmix.errors import ValidationError
from cdpmix.generators import (UniformBase, _LazySticks, sample_cdp,
                               sample_dp_partition_via_sticks,
                               sample_finite_mixture_alloc, sample_gem,
                               sample_gem_two_param, sample_polya_sequence)
from cdpmix.partitions import (Partition, enumerate_coloured_partitions,
                               enumerate_partitions)
from cdpmix.priors import (ColouredDirichletProcess, log_eppf, DirichletProcess,
                           log_eppf_sequential, DirichletMultinomial)


def chi2_ok(counts, probs, level=0.99):
    counts = np.asarray(counts, dtype=float)
    expected = probs * counts.sum()
    keep = expected >= 5
    obs = np.append(counts[keep], counts[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    mask = exp > 0
    stat = (((obs - exp) ** 2 / np.where(mask, exp, 1.0))[mask]).sum()
    return stat < sstats.chi2.ppf(level, mask.sum() - 1)


def two_sample_pvalue(a, b, min_count=10):
    """Pearson two-sample test of two lists of hashable draws, rare cells pooled."""
    ca, cb = Counter(a), Counter(b)
    cells = set(ca) | set(cb)
    big = [c for c in cells if ca[c] + cb[c] >= min_count]
    small = [c for c in cells if ca[c] + cb[c] < min_count]
    table = [[ca[c] for c in big], [cb[c] for c in big]]
    if small:
        table[0].append(sum(ca[c] for c in small))
        table[1].append(sum(cb[c] for c in small))
    return sstats.chi2_contingency(np.array(table), correction=False).pvalue


def restricted_growth(labels):
    first = {}
    return tuple(first.setdefault(lab, len(first)) for lab in labels)


def explicit_finite_mixture_alloc(components, weight, n, rng):
    """Oracle: draw the whole symmetric Dirichlet weight vector, then iid labels."""
    w = rng.dirichlet(np.full(components, weight))
    return [int(lab) for lab in rng.choice(components, size=n, p=w)]


# ------------------------------------------------------------- stick breaking

def test_gem_weights_and_residual_sum_to_one():
    rng = np.random.default_rng(3)
    for theta in (0.5, 1.0, 4.0):
        sticks = sample_gem(theta, rng, n_sticks=25)
        assert sticks.weights.sum() + sticks.residual == pytest.approx(1.0, abs=1e-12)
        assert (sticks.weights >= 0).all()


def test_gem_expected_residual():
    rng = np.random.default_rng(4)
    residuals = [sample_gem(1.0, rng, n_sticks=10).residual for _ in range(100_000)]
    assert np.mean(residuals) == pytest.approx(2.0 ** -10, abs=2e-4)


def test_gem_first_weight_mean():
    rng = np.random.default_rng(5)
    w1 = [sample_gem(4.0, rng, n_sticks=1).weights[0] for _ in range(50_000)]
    assert np.mean(w1) == pytest.approx(0.2, abs=0.005)


def test_gem_adaptive_truncation():
    rng = np.random.default_rng(6)
    sticks = sample_gem(1.0, rng, tol=1e-6)
    assert sticks.residual < 1e-6
    with pytest.raises(ValidationError):
        sample_gem(1.0, rng)
    with pytest.raises(ValidationError):
        sample_gem(1.0, rng, n_sticks=5, tol=1e-6)
    with pytest.raises(ValidationError):
        sample_gem(0.0, rng, n_sticks=5)


def test_two_parameter_gem_zero_discount_matches_gem():
    rng = np.random.default_rng(7)
    a = [sample_gem(1.5, rng, n_sticks=1).weights[0] for _ in range(20_000)]
    b = [sample_gem_two_param(0.0, 1.5, rng, n_sticks=1).weights[0]
         for _ in range(20_000)]
    assert sstats.ks_2samp(a, b).pvalue > 1e-3


def test_two_parameter_gem_first_weight_mean():
    rng = np.random.default_rng(8)
    w1 = [sample_gem_two_param(0.5, 0.5, rng, n_sticks=1).weights[0]
          for _ in range(50_000)]
    assert np.mean(w1) == pytest.approx(1 / 3, abs=0.01)


def test_two_parameter_gem_bounds_and_domain():
    rng = np.random.default_rng(9)
    sticks = sample_gem_two_param(0.3, 0.7, rng, n_sticks=30)
    assert ((sticks.weights >= 0) & (sticks.weights <= 1)).all()
    assert sticks.weights.sum() + sticks.residual == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        sample_gem_two_param(1.0, 1.0, rng, n_sticks=5)
    with pytest.raises(ValidationError):
        sample_gem_two_param(0.5, -0.6, rng, n_sticks=5)


# --------------------------------------------------- partitions from sticks

def test_stick_partition_two_items_cocluster_probability():
    rng = np.random.default_rng(10)
    together = sum(Partition.from_allocation(
        sample_dp_partition_via_sticks(2, 1.0, rng)).degree == 1 for _ in range(100_000))
    assert together / 100_000 == pytest.approx(0.5, abs=0.01)


def test_stick_partition_frequencies_match_eppf():
    rng = np.random.default_rng(11)
    states = list(enumerate_partitions(3))
    index = {p: i for i, p in enumerate(states)}
    counts = np.zeros(len(states))
    for _ in range(30_000):
        labels = sample_dp_partition_via_sticks(3, 1.0, rng)
        counts[index[Partition.from_allocation(labels)]] += 1
    probs = np.array([math.exp(log_eppf(DirichletProcess(1.0), p)) for p in states])
    assert chi2_ok(counts, probs)


def test_stick_partition_large_concentration_gives_singletons():
    rng = np.random.default_rng(12)
    theta, n, reps = 1000.0, 4, 10_000
    frac = sum(Partition.from_allocation(
        sample_dp_partition_via_sticks(n, theta, rng)).degree == n for _ in range(reps)) / reps
    expect = math.prod(theta / (theta + i) for i in range(1, n))
    assert frac == pytest.approx(expect, abs=0.01)


def test_chunked_breaks_equal_scalar_breaks():
    # above the scalar threshold breaks come from one vector draw per chunk;
    # the boundaries and the generator state match one scalar draw per break
    theta = 20.0
    rng = np.random.default_rng(26)
    sticks = _LazySticks(rng, 1.0, theta)
    assert sticks.chunk == 20
    sticks.locate(0.999)
    assert len(sticks.cum) % 20 == 0
    ref = np.random.default_rng(26)
    residual, cum = 1.0, []
    for _ in sticks.cum:
        residual *= 1.0 - ref.beta(1.0, theta)
        cum.append(1.0 - residual)
    assert sticks.cum.tolist() == cum and sticks.residual == residual
    assert rng.random() == ref.random()


# ------------------------------------------------------------ finite mixture

def test_finite_mixture_single_component():
    rng = np.random.default_rng(13)
    labels = sample_finite_mixture_alloc(1, 0.7, 5, rng)
    assert Partition.from_allocation(labels).degree == 1


def test_finite_mixture_cocluster_probability():
    # two components, unit weight: P(together) = (1+delta)/(1+k*delta) = 2/3
    rng = np.random.default_rng(14)
    reps = 50_000
    together = sum(len(set(sample_finite_mixture_alloc(2, 1.0, 2, rng))) == 1
                   for _ in range(reps))
    assert together / reps == pytest.approx(2 / 3, abs=0.01)
    exact = math.exp(log_eppf_sequential(DirichletMultinomial(2, 1.0),
                                         Partition([[0, 1]])))
    assert exact == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("components,weight,reps", [(5, 0.3, 50_000), (2000, 1 / 2000, 15_000)])
def test_finite_mixture_matches_explicit_weights(components, weight, reps):
    # the lazy size-biased draw against the whole Dirichlet vector plus choice
    n = 4
    rng = np.random.default_rng(27)
    lazy = [sample_finite_mixture_alloc(components, weight, n, rng) for _ in range(reps)]
    explicit = [explicit_finite_mixture_alloc(components, weight, n, rng)
                for _ in range(reps)]
    assert two_sample_pvalue([restricted_growth(x) for x in lazy],
                             [restricted_growth(x) for x in explicit]) > 0.01
    if components <= 5:
        # the labels themselves, not only the partition they induce
        assert two_sample_pvalue(map(tuple, lazy), map(tuple, explicit)) > 0.01


def test_finite_mixture_labels_are_uniform():
    rng = np.random.default_rng(28)
    components, n, reps = 7, 3, 30_000
    labels = np.array([sample_finite_mixture_alloc(components, 0.4, n, rng)
                       for _ in range(reps)])
    assert ((labels >= 0) & (labels < components)).all()
    for i in range(n):
        assert chi2_ok(np.bincount(labels[:, i], minlength=components),
                       np.full(components, 1 / components))


def test_finite_mixture_limit_approaches_dp():
    rng = np.random.default_rng(15)
    states = list(enumerate_partitions(3))
    index = {p: i for i, p in enumerate(states)}
    reps = 30_000
    counts = np.zeros(len(states))
    for _ in range(reps):
        labels = sample_finite_mixture_alloc(1000, 0.001, 3, rng)
        counts[index[Partition.from_allocation(labels)]] += 1
    probs = np.array([math.exp(log_eppf(DirichletProcess(1.0), p)) for p in states])
    tv = 0.5 * np.abs(counts / reps - probs).sum()
    assert tv < 0.01


# -------------------------------------------------------------- urn sequence

def test_polya_first_draw_is_fresh():
    rng = np.random.default_rng(16)
    labels, atoms = sample_polya_sequence(1, 2.0, UniformBase(), rng)
    assert labels == [0]
    assert len(atoms) == 1 and atoms[0].uid == 0


def test_polya_tie_probability():
    rng = np.random.default_rng(17)
    reps = 100_000
    ties = sum(sample_polya_sequence(2, 3.0, UniformBase(), rng)[0][1] == 0
               for _ in range(reps))
    assert ties / reps == pytest.approx(0.25, abs=0.01)


def test_polya_partition_frequencies_match_eppf():
    rng = np.random.default_rng(18)
    states = list(enumerate_partitions(4))
    index = {p: i for i, p in enumerate(states)}
    counts = np.zeros(len(states))
    for _ in range(30_000):
        labels, _ = sample_polya_sequence(4, 0.7, UniformBase(), rng)
        counts[index[Partition.from_allocation(labels)]] += 1
    probs = np.array([math.exp(log_eppf(DirichletProcess(0.7), p)) for p in states])
    assert chi2_ok(counts, probs)


def test_polya_atoms_have_unique_ids():
    rng = np.random.default_rng(19)
    _, atoms = sample_polya_sequence(30, 2.0, UniformBase(), rng)
    assert len({a.uid for a in atoms}) == len(atoms)


# --------------------------------------------------------------- coloured DP

def test_cdp_single_colour_matches_dp():
    rng = np.random.default_rng(20)
    model = ColouredDirichletProcess([(1.0, 1.0)])
    states = list(enumerate_partitions(3))
    index = {p: i for i, p in enumerate(states)}
    reps = 30_000
    counts = np.zeros(len(states))
    for _ in range(reps):
        cp, _ = sample_cdp(3, model, None, rng)
        counts[index[cp.flatten()]] += 1
    probs = np.array([math.exp(log_eppf(DirichletProcess(1.0), p)) for p in states])
    assert 0.5 * np.abs(counts / reps - probs).sum() < 0.01


def test_cdp_symmetric_colour_frequencies():
    rng = np.random.default_rng(21)
    model = ColouredDirichletProcess([(1.0, 1.0), (1.0, 1.0)])
    reps = 30_000
    first = 0
    for _ in range(reps):
        cp, _ = sample_cdp(1, model, None, rng)
        first += bool(cp.clusters_by_colour[0])
    assert first / reps == pytest.approx(0.5, abs=0.01)


def test_cdp_coloured_frequencies_match_eppf():
    rng = np.random.default_rng(22)
    model = ColouredDirichletProcess([(1.0, 1.0), (2.0, 0.5)])
    states = list(enumerate_coloured_partitions(3, 2))
    index = {p: i for i, p in enumerate(states)}
    counts = np.zeros(len(states))
    for _ in range(30_000):
        cp, _ = sample_cdp(3, model, None, rng)
        counts[index[cp]] += 1
    probs = np.array([math.exp(log_eppf(model, p)) for p in states])
    assert chi2_ok(counts, probs)


class _TaggedBase(UniformBase):
    """Unit-interval payloads, each tagged with the colour whose base drew it."""

    def __init__(self, colour):
        self.colour = colour

    def draw(self, rng):
        return self.colour, super().draw(rng)


def test_cdp_atoms_align_with_clusters():
    # one atom per cluster, in colour-major order, drawn from the cluster's
    # colour's base and numbered by the cluster's first appearance among the items
    model = ColouredDirichletProcess([(1.0, 1.0), (1.0, 2.0)])
    for n in (6, 8):
        rng = np.random.default_rng(23)
        cp, atoms = sample_cdp(n, model, [_TaggedBase(0), _TaggedBase(1)], rng)
        assert len(atoms) == cp.degree
        assert len({a.uid for a in atoms}) == len(atoms)
        clusters = [c for cs in cp.clusters_by_colour for c in cs]
        _, colours = cp.allocation()
        for c, atom in zip(clusters, atoms):
            assert all(atom.value[0] == colours[i] for i in c)
        firsts = sorted(map(min, clusters))
        assert [a.uid for a in atoms] == [firsts.index(min(c)) for c in clusters]
    # one seeded draw, pinned: its clusters, and its atoms in draw order
    assert cp.clusters_by_colour == (((0,), (6,)), ((1, 3, 7), (2, 5), (4,)))
    assert [(a.uid, a.value[1]) for a in atoms] == [
        (0, 0.8268362548714876), (4, 0.11059946053805414), (1, 0.7289256865737243),
        (2, 0.7806833314320117), (3, 0.38326278377726974)]


# ---------------------------------------------------- construction agreement

@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_constructions_agree_pairwise(theta):
    states = list(enumerate_partitions(3))
    index = {p: i for i, p in enumerate(states)}
    probs = np.array([math.exp(log_eppf(DirichletProcess(theta), p)) for p in states])
    reps = 20_000

    rng = np.random.default_rng(24)
    sticks = np.zeros(len(states))
    for _ in range(reps):
        labels = sample_dp_partition_via_sticks(3, theta, rng)
        sticks[index[Partition.from_allocation(labels)]] += 1
    urn = np.zeros(len(states))
    for _ in range(reps):
        labels, _ = sample_polya_sequence(3, theta, UniformBase(), rng)
        urn[index[Partition.from_allocation(labels)]] += 1
    assert chi2_ok(sticks, probs)
    assert chi2_ok(urn, probs)


def test_random_measure_moments():
    # mass assigned to an event of base probability q: mean q,
    # variance q(1-q)/(1+theta)
    rng = np.random.default_rng(25)
    theta, q, reps = 1.0, 0.3, 20_000
    n_sticks = int(math.ceil(math.log(1e-8) / math.log(theta / (1 + theta))))
    breaks = rng.beta(1.0, theta, size=(reps, n_sticks))
    keep = np.cumprod(1 - breaks, axis=1)
    weights = breaks * np.concatenate([np.ones((reps, 1)), keep[:, :-1]], axis=1)
    hits = rng.random(size=(reps, n_sticks)) < q
    mass = (weights * hits).sum(axis=1)
    assert mass.mean() == pytest.approx(q, abs=0.01)
    assert mass.var() == pytest.approx(q * (1 - q) / (1 + theta), rel=0.10)


# ------------------------------------------------------------- reproducibility

def test_same_seed_reproduces_everything():
    def draw_all(seed):
        rng = np.random.default_rng(seed)
        return (
            sample_gem(1.0, rng, n_sticks=5).weights.tolist(),
            sample_dp_partition_via_sticks(6, 1.0, rng),
            sample_finite_mixture_alloc(4, 0.5, 6, rng),
            sample_polya_sequence(6, 1.0, UniformBase(), rng),
            sample_cdp(5, ColouredDirichletProcess([(1.0, 1.0), (2.0, 0.5)]),
                       None, rng)[0],
        )

    assert draw_all(99) == draw_all(99)
