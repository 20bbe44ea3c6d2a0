import math
import pickle
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp

from cdpmix._special import gammaln
from cdpmix.errors import ValidationError
from cdpmix.partitions import (ColouredPartition, ConfigurationCounts, Partition,
                               enumerate_coloured_partitions,
                               enumerate_configurations, enumerate_partitions)
from cdpmix.priors import (LOG_ZERO, BackgroundDirichletProcess,
                           ColouredDirichletProcess, DirichletMultinomial,
                           DirichletProcess, PitmanYor, log_eppf,
                           log_eppf_sequential, log_ewens_config)

ALL_PLAIN = [DirichletProcess(1.0), DirichletProcess(0.3),
             DirichletMultinomial(3, 0.8), PitmanYor(0.4, 1.2)]
ALL_COLOURED = [ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)]),
                BackgroundDirichletProcess(1.5, 1.0)]


# ---------------------------------------------------------------- DP + Ewens

def test_dp_single_item_is_certain():
    assert log_eppf(DirichletProcess(2.7), Partition([[0]])) == 0.0


def test_dp_matches_urn_chain_rule():
    # two items together, one apart, theta=2: 1/(1+2) * 2/(2+2)
    assert log_eppf(DirichletProcess(2.0), Partition([[0, 1], [2]])) == pytest.approx(
        math.log(1 / 6))


def test_dp_and_cdp_equal_their_numpy_array_forms_bit_for_bit():
    # the sizes-only forms sum lgammas in numpy's pairwise order, so they give
    # exactly what the closed forms evaluated on numpy arrays give, at every
    # cluster count up to and past numpy's 8-way and 128-item blocking
    from scipy.special import gammaln
    rng = np.random.default_rng(11)
    cdp = ColouredDirichletProcess([(1.3, 0.7), (0.4, 2.2)])
    for degree in list(range(1, 20)) + [127, 128, 129, 200, 300]:
        sizes = rng.integers(1, 30, size=degree)
        labels = np.repeat(np.arange(degree), sizes)
        p = Partition.from_allocation(rng.permutation(labels))
        arr = np.array(p.sizes, dtype=float)
        assert log_eppf(DirichletProcess(0.9), p) == float(
            gammaln(0.9) - gammaln(0.9 + p.n) + p.degree * math.log(0.9) + gammaln(arr).sum())
        cp = ColouredPartition([p.clusters, []], n_colours=2)
        gam = np.array([1.3, 0.4])
        assert log_eppf(cdp, cp) == float(
            gammaln(gam.sum()) - gammaln(p.n + gam.sum())
            + (gammaln(0.7) + gammaln(arr.sum() + 1.3) - gammaln(arr.sum() + 0.7)
               - gammaln(1.3) + p.degree * math.log(0.7) + gammaln(arr).sum()))


def _pairwise_sum(xs):
    """Oracle of numpy's pairwise float sum: eight strided lanes, each added with ``reduce``."""
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    m = n - n % 8
    total = 0.0
    if m:
        r = [reduce(add, xs[j:m:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[m:]:
        total += x
    return total


def _lgamma_sum(xs):
    return _pairwise_sum([gammaln(x) for x in xs])


def _eppf_oracle(model, sizes_by_colour, n):
    """Each family's closed form as one call computes every term of it."""
    if isinstance(model, DirichletProcess):
        (sizes,) = sizes_by_colour
        theta = model.theta
        return (gammaln(theta) - gammaln(theta + n) + len(sizes) * math.log(theta)
                + _lgamma_sum(sizes))
    if isinstance(model, DirichletMultinomial):
        (sizes,) = sizes_by_colour
        K, w = model.components, model.weight
        if len(sizes) > K:
            return LOG_ZERO
        out = gammaln(K * w) - gammaln(K * w + n)
        for i in range(len(sizes)):
            out += math.log(K - i)
        return out + _lgamma_sum([w + s for s in sizes]) - len(sizes) * gammaln(w)
    if isinstance(model, PitmanYor):
        (sizes,) = sizes_by_colour
        sigma, theta = model.discount, model.strength
        out = gammaln(theta + 1) - gammaln(theta + n)
        for i in range(1, len(sizes)):
            out += math.log(theta + i * sigma)
        return out + _lgamma_sum([s - sigma for s in sizes]) - len(sizes) * gammaln(1 - sigma)
    if isinstance(model, ColouredDirichletProcess):
        gam = _pairwise_sum([g for g, _ in model.colours])
        out = gammaln(gam) - gammaln(n + gam)
        for (g, t), sizes in zip(model.colours, sizes_by_colour):
            if sizes:
                n_k = sum(sizes)
                out += (gammaln(t) + gammaln(n_k + g) - gammaln(n_k + t) - gammaln(g)
                        + len(sizes) * math.log(t) + _lgamma_sum(sizes))
        return out
    background, regular = sizes_by_colour
    if len(background) >= 2:
        return LOG_ZERO
    gamma, theta = model.background_weight, model.concentration
    out = gammaln(gamma + theta) - gammaln(n + gamma + theta)
    if background:
        out += gammaln(background[0] + gamma) - gammaln(gamma)
    if regular:
        out += len(regular) * math.log(theta) + _lgamma_sum(regular)
    return out


def _random_sizes(model, rng, length, top):
    """A size list of ``length`` split over the model's colours."""
    sizes = rng.integers(1, top + 1, size=length).tolist()
    if isinstance(model, BackgroundDirichletProcess):
        cut = int(rng.integers(0, min(length, 2) + 1))
    else:
        cut = int(rng.integers(0, length + 1))
    return [sizes[:cut], sizes[cut:]] if model.coloured else [sizes]


def test_log_eppf_sizes_equal_the_per_call_closed_forms():
    # per-model constants, the table of lgamma at the integer sizes and the
    # lane sum leave every double of the closed forms as they were: each
    # family equals its formula evaluated term by term, on size lists of up to
    # 300 clusters whose largest size keeps rising past what was tabled
    rng = np.random.default_rng(23)
    models = [DirichletProcess(0.9), DirichletMultinomial(250, 0.7), PitmanYor(0.35, 1.3),
              ColouredDirichletProcess([(1.3, 0.7), (0.4, 2.2)]),
              BackgroundDirichletProcess(1.5, 0.8)]
    for trial in range(400):
        length, top = int(rng.integers(0, 301)), 2 + 5 * trial
        for model in models:
            sizes = _random_sizes(model, rng, length, top)
            n = sum(map(sum, sizes))
            assert model.log_eppf_sizes(sizes, n).hex() == _eppf_oracle(model, sizes, n).hex()


def test_a_pickled_model_scores_compares_and_hashes_the_same():
    # chains in worker processes receive the model pickled, with whatever it
    # has computed and tabled so far
    rng = np.random.default_rng(29)
    for model in [DirichletProcess(0.9), DirichletMultinomial(250, 0.7), PitmanYor(0.35, 1.3),
                  ColouredDirichletProcess([(1.3, 0.7), (0.4, 2.2)]),
                  BackgroundDirichletProcess(1.5, 0.8)]:
        fresh = pickle.loads(pickle.dumps(model))
        cases = [_random_sizes(model, rng, int(rng.integers(0, 60)), 900) for _ in range(20)]
        scores = [model.log_eppf_sizes(sizes, sum(map(sum, sizes))) for sizes in cases]
        for restored in (fresh, pickle.loads(pickle.dumps(model))):
            assert restored == model and hash(restored) == hash(model)
            assert [restored.log_eppf_sizes(sizes, sum(map(sum, sizes))).hex()
                    for sizes in cases] == [x.hex() for x in scores]


@pytest.mark.parametrize("theta", [0.3, 1.0, 5.0])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_dp_normalizes(n, theta):
    dp = DirichletProcess(theta)
    total = sum(math.exp(log_eppf(dp, p)) for p in enumerate_partitions(n))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_dp_domain_error():
    with pytest.raises(ValidationError):
        log_eppf(DirichletProcess(0.0), Partition([[0]]))
    with pytest.raises(ValidationError):
        DirichletProcess(-1.0)


def test_ewens_examples():
    assert log_ewens_config(ConfigurationCounts([3]), 1.0) == pytest.approx(math.log(1 / 6))
    assert log_ewens_config(ConfigurationCounts([1, 1]), 1.0) == pytest.approx(math.log(1 / 2))


def test_ewens_normalizes():
    total = sum(math.exp(log_ewens_config(c, 2.5)) for c in enumerate_configurations(6))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.0, 5.0])
def test_ewens_equals_partition_sum(theta):
    for n in range(1, 7):
        grouped: dict = {}
        for p in enumerate_partitions(n):
            grouped.setdefault(tuple(sorted(p.sizes)), []).append(p)
        for sizes, parts in grouped.items():
            counts = [0] * n
            for r in sizes:
                counts[r - 1] += 1
            lhs = log_ewens_config(ConfigurationCounts(counts, n=n), theta)
            rhs = logsumexp([log_eppf(DirichletProcess(theta), p) for p in parts])
            assert lhs == pytest.approx(rhs, abs=1e-10)


# ------------------------------------------------------- sequential families

def test_pitman_yor_zero_discount_is_dp():
    model = PitmanYor(0.0, 1.3)
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            assert log_eppf_sequential(model, p) == pytest.approx(
                log_eppf(DirichletProcess(1.3), p), abs=1e-12)


def test_dirichlet_multinomial_two_singletons():
    # second item opens a component with weight (k-1)*delta / (1 + k*delta) = 1/3
    model = DirichletMultinomial(2, 1.0)
    assert log_eppf_sequential(model, Partition([[0], [1]])) == pytest.approx(math.log(1 / 3))


def test_dirichlet_multinomial_impossible_partition():
    model = DirichletMultinomial(2, 1.0)
    assert log_eppf_sequential(model, Partition([[0], [1], [2]])) == LOG_ZERO


def test_sequential_item_order_invariance():
    rng = np.random.default_rng(7)
    models = ALL_PLAIN + ALL_COLOURED
    for model in models:
        if model.coloured:
            p = ColouredPartition.from_allocation([0, 0, 1, 2, 2], [0, 0, 1, 1, 1], 2)
        else:
            p = Partition([[0, 1], [2], [3, 4]])
        values = []
        for _ in range(10):
            perm = list(rng.permutation(p.n))
            values.append(log_eppf_sequential(model, p.relabel_items(perm)))
        assert max(values) - min(values) < 1e-12


def test_sequential_matches_closed_forms():
    # every family's sizes-only closed form equals the product of its one-step
    # predictive weights on every (coloured) partition of up to 6 items
    for model in ALL_PLAIN + ALL_COLOURED + [DirichletProcess(0.7), PitmanYor(0.0, 1.3),
                                             PitmanYor(0.7, 0.2), PitmanYor(0.5, -0.2),
                                             PitmanYor(0.3, 0.0), DirichletMultinomial(2, 1.5)]:
        for n in range(1, 7):
            for p in (enumerate_coloured_partitions(n, 2) if model.coloured
                      else enumerate_partitions(n)):
                chain = log_eppf_sequential(model, p)
                if chain == LOG_ZERO:
                    assert log_eppf(model, p) == LOG_ZERO
                else:
                    assert log_eppf(model, p) == pytest.approx(chain, abs=1e-12)


def test_pitman_yor_non_positive_strength_by_hand():
    # (theta + sigma) / ((theta + 1)(theta + 2)) * (1 - sigma) at sigma 0.5, theta -0.2
    model, p = PitmanYor(0.5, -0.2), Partition([[0, 1], [2]])
    assert log_eppf_sequential(model, p) == pytest.approx(-2.2618, abs=1e-4)
    assert log_eppf(model, p) == pytest.approx(-2.2618, abs=1e-4)


@pytest.mark.parametrize("model", ALL_PLAIN)
def test_plain_families_normalize(model):
    for n in (4, 6):
        terms = [log_eppf_sequential(model, p) for p in enumerate_partitions(n)]
        total = math.exp(logsumexp([t for t in terms if t != LOG_ZERO]))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_model_domain_validation():
    with pytest.raises(ValidationError):
        DirichletMultinomial(0, 1.0)
    with pytest.raises(ValidationError):
        DirichletMultinomial(2, 0.0)
    with pytest.raises(ValidationError):
        PitmanYor(1.0, 1.0)
    with pytest.raises(ValidationError):
        PitmanYor(0.5, -0.5)
    with pytest.raises(ValidationError):
        ColouredDirichletProcess([])
    with pytest.raises(ValidationError):
        ColouredDirichletProcess([(1.0, 0.0)])
    with pytest.raises(ValidationError):
        BackgroundDirichletProcess(0.0, 1.0)


# --------------------------------------------------------------- coloured DP

def test_cdp_single_colour_collapses_to_dp():
    model = ColouredDirichletProcess([(2.0, 1.5)])
    for p in enumerate_coloured_partitions(4, 1):
        assert log_eppf(model, p) == pytest.approx(
            log_eppf(DirichletProcess(1.5), p.flatten()), abs=1e-12)


def test_cdp_symmetric_colours_split_evenly():
    model = ColouredDirichletProcess([(1.0, 0.5), (1.0, 0.5)])
    probs = [math.exp(log_eppf(model, p)) for p in enumerate_coloured_partitions(1, 2)]
    assert probs == pytest.approx([0.5, 0.5])


def test_cdp_normalizes():
    model = ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)])
    total = sum(math.exp(log_eppf(model, p))
                for p in enumerate_coloured_partitions(4, 2))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_cdp_missing_colour_params_rejected():
    model = ColouredDirichletProcess([(1.0, 0.5)])
    p = ColouredPartition([[[0]], [[1]]], n_colours=2)
    with pytest.raises(ValidationError):
        log_eppf(model, p)


def test_cdp_empty_colour_contributes_factor_one():
    two = ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)])
    one_colour_part = ColouredPartition([[[0], [1, 2]], []], n_colours=2)
    merged = log_eppf(two, one_colour_part)
    # direct evaluation: front factor over both colour weights, colour-0 term only
    from scipy.special import gammaln
    expect = (gammaln(3.0) - gammaln(3 + 3.0)
              + gammaln(0.5) + gammaln(3 + 1.0) - gammaln(3 + 0.5) - gammaln(1.0)
              + 2 * math.log(0.5) + gammaln(1) + gammaln(2))
    assert merged == pytest.approx(float(expect), abs=1e-12)


# ---------------------------------------------------------- background model

def test_background_all_items_in_background():
    p = ColouredPartition([[[0, 1, 2]], []], n_colours=2)
    # chain rule: 1/2 * 2/3 * 3/4 = 1/4
    assert log_eppf(BackgroundDirichletProcess(1.0, 1.0), p) == pytest.approx(math.log(0.25), abs=1e-12)


def test_background_two_background_clusters_impossible():
    p = ColouredPartition([[[0], [1]], [[2]]], n_colours=2)
    assert log_eppf(BackgroundDirichletProcess(1.0, 1.0), p) == LOG_ZERO


def test_background_normalizes():
    terms = [log_eppf(BackgroundDirichletProcess(1.5, 1.0), p)
             for p in enumerate_coloured_partitions(4, 2)]
    total = math.exp(logsumexp([t for t in terms if t != LOG_ZERO]))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_background_is_small_concentration_cdp_limit():
    eps_model = ColouredDirichletProcess([(1.5, 1e-8), (1.0, 1.0)])
    for p in enumerate_coloured_partitions(3, 2):
        exact = log_eppf(BackgroundDirichletProcess(1.5, 1.0), p)
        limit = log_eppf(eps_model, p)
        if exact == LOG_ZERO:
            assert limit < -15  # vanishing as the background concentration -> 0
        else:
            assert exact == pytest.approx(limit, abs=1e-6)


def test_background_matches_sequential_urn_product():
    model = BackgroundDirichletProcess(1.5, 1.0)
    for p in enumerate_coloured_partitions(4, 2):
        closed = log_eppf(BackgroundDirichletProcess(1.5, 1.0), p)
        chain = log_eppf_sequential(model, p)
        if closed == LOG_ZERO:
            assert chain == LOG_ZERO
        else:
            assert closed == pytest.approx(chain, abs=1e-10)


# --------------------------------------------------------- realloc weights

def urn_weights_of(model, remainder):
    """``weight_lists`` for an item withdrawn from ``remainder``, with the
    remainder's clusters and colours in flattened canonical order."""
    if isinstance(remainder, ColouredPartition):
        clusters = tuple(c for cs in remainder.clusters_by_colour for c in cs)
        colours = tuple(k for k, cs in enumerate(remainder.clusters_by_colour) for _ in cs)
    else:
        clusters = remainder.clusters
        colours = (0,) * len(clusters)
    existing, new = model.weight_lists([len(c) for c in clusters], list(colours))
    return SimpleNamespace(clusters=clusters, cluster_colours=colours,
                           existing=existing, new=new)


def test_dp_realloc_weights_example():
    w = urn_weights_of(DirichletProcess(1.0), Partition([[0, 1, 2], [3]]))
    assert list(w.existing) == [3.0, 1.0]
    assert list(w.new) == [1.0]


def test_pitman_yor_realloc_weights_example():
    w = urn_weights_of(PitmanYor(0.5, 1.0), Partition([[0, 1, 2], [3]]))
    assert list(w.existing) == [2.5, 0.5]
    assert list(w.new) == [1.0 + 0.5 * 2]


def test_dirichlet_multinomial_realloc_weights():
    w = urn_weights_of(DirichletMultinomial(3, 0.5), Partition([[0, 1], [2]]))
    assert list(w.existing) == [2.5, 1.5]
    assert list(w.new) == [0.5]  # one free component left
    full = urn_weights_of(DirichletMultinomial(2, 0.5), Partition([[0, 1], [2]]))
    assert list(full.new) == [0.0]


def test_background_realloc_weights():
    model = BackgroundDirichletProcess(2.0, 0.7)
    p = ColouredPartition([[[0, 1]], [[2], [3, 4]]], n_colours=2)
    w = urn_weights_of(model, p)
    assert list(w.existing) == [2.0 + 2, 1.0, 2.0]
    assert list(w.new) == [0.0, 0.7]  # background exists, so no second one
    empty_bg = ColouredPartition([[], [[0], [1, 2]]], n_colours=2)
    w2 = urn_weights_of(model, empty_bg)
    assert list(w2.new) == [2.0, 0.7]


def _insert_item(p, cluster_idx_or_none, colour, n_colours):
    """Place a withdrawn item (index p.n) into a coloured partition."""
    groups = [list(map(list, cs)) for cs in p.clusters_by_colour]
    flat = [(k, j) for k, cs in enumerate(groups) for j in range(len(cs))]
    if cluster_idx_or_none is None:
        groups[colour].append([p.n])
    else:
        k, j = flat[cluster_idx_or_none]
        groups[k][j].append(p.n)
    return ColouredPartition(groups, n_colours=n_colours)


@pytest.mark.parametrize("model", ALL_COLOURED)
def test_coloured_weights_proportional_to_eppf_ratios(model):
    for base in enumerate_coloured_partitions(3, 2):
        if log_eppf(model, base) == LOG_ZERO:
            continue  # unreachable state
        w = urn_weights_of(model, base)
        log_vals, weights = [], []
        for idx in range(len(w.clusters)):
            target = _insert_item(base, idx, w.cluster_colours[idx], 2)
            log_vals.append(log_eppf(model, target))
            weights.append(w.existing[idx])
        for colour in range(2):
            target = _insert_item(base, None, colour, 2)
            log_vals.append(log_eppf(model, target))
            weights.append(w.new[colour])
        finite = [(lv, wt) for lv, wt in zip(log_vals, weights) if lv != LOG_ZERO]
        ref_lv, ref_wt = next((lv, wt) for lv, wt in finite if wt > 0)
        for lv, wt in finite:
            assert wt / ref_wt == pytest.approx(math.exp(lv - ref_lv), abs=1e-10)
        for lv, wt in zip(log_vals, weights):
            if lv == LOG_ZERO:
                assert wt == 0.0


@pytest.mark.parametrize("model", ALL_PLAIN)
def test_plain_weights_proportional_to_eppf_ratios(model):
    for n in range(2, 6):
        for base in enumerate_partitions(n - 1):
            if log_eppf(model, base) == LOG_ZERO:
                continue  # unreachable state
            w = urn_weights_of(model, base)
            options = []
            for idx, c in enumerate(base.clusters):
                target = Partition([list(cc) if cc != c else list(cc) + [n - 1]
                                    for cc in base.clusters])
                options.append((log_eppf(model, target), w.existing[idx]))
            target = Partition([list(cc) for cc in base.clusters] + [[n - 1]])
            options.append((log_eppf(model, target), w.new[0]))
            finite = [(lv, wt) for lv, wt in options if lv != LOG_ZERO]
            ref_lv, ref_wt = next((lv, wt) for lv, wt in finite if wt > 0)
            for lv, wt in finite:
                assert wt / ref_wt == pytest.approx(math.exp(lv - ref_lv), abs=1e-10)


# ----------------------------------------------------------------- invariants

def test_degree_is_sufficient_for_concentration():
    # ratios of same-degree partition probabilities must not depend on theta
    pairs = [(Partition([[0, 1], [2, 3]]), Partition([[0, 1, 2], [3]])),
             (Partition([[0], [1, 2, 3]]), Partition([[0, 2], [1, 3]]))]
    for p1, p2 in pairs:
        ratios = [math.exp(log_eppf(dp, p1) - log_eppf(dp, p2))
                  for dp in map(DirichletProcess, (0.1, 1.0, 10.0))]
        assert max(ratios) - min(ratios) == pytest.approx(0.0, abs=1e-12 * ratios[0])


def test_eppf_invariant_under_item_relabelling():
    rng = np.random.default_rng(11)
    plain = Partition([[0, 1, 4], [2], [3, 5]])
    coloured = ColouredPartition.from_allocation(
        [0, 0, 1, 2, 2, 1], [0, 0, 1, 0, 0, 1], 2)
    for model in ALL_PLAIN + ALL_COLOURED:
        p = coloured if model.coloured else plain
        base = log_eppf(model, p)
        for _ in range(5):
            perm = list(rng.permutation(p.n))
            assert log_eppf(model, p.relabel_items(perm)) == pytest.approx(base, abs=1e-12)


def test_equal_rate_cdp_marginalizes_to_dp():
    # with every colour weight equal to its concentration (same value across
    # colours), colour-marginalized partition probabilities form a DP whose
    # concentration is fitted from the two-item co-clustering probability
    theta, n_colours = 0.8, 2
    model = ColouredDirichletProcess([(theta, theta)] * n_colours)

    def marginal(p: Partition) -> float:
        total = 0.0
        for cp in enumerate_coloured_partitions(p.n, n_colours):
            if cp.flatten() == p:
                total += math.exp(log_eppf(model, cp))
        return total

    together = marginal(Partition([[0, 1]]))
    fitted = 1.0 / together - 1.0  # DP co-clustering probability is 1/(1+theta)
    for n in range(2, 6):
        for p in enumerate_partitions(n):
            assert marginal(p) == pytest.approx(
                math.exp(log_eppf(DirichletProcess(fitted), p)), rel=1e-9)
