import ctypes
import itertools
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from cdpmix import _sweep, gibbs, pipeline
from cdpmix.checks import _exact_posterior, _item_kernel, _one_sweep_matrix
from cdpmix.conjugate import ClusterEvaluator, DesignBlock, NormalGammaSpec
from cdpmix.errors import NumericalError, ValidationError
from cdpmix.gibbs import ChainState, SweepPlan, _draw, build_engines, run_chain
from cdpmix.partitions import (ColouredPartition, Partition,
                               enumerate_coloured_partitions, enumerate_partitions)
from cdpmix.priors import (LOG_ZERO, BackgroundDirichletProcess,
                           ColouredDirichletProcess, DirichletMultinomial,
                           DirichletProcess, PitmanYor, log_eppf)

DESIGN = DesignBlock(Z=np.array([[1.0, 0.4], [1.0, -0.4]]).T)  # S = 2
SPEC = NormalGammaSpec(1.0, 1.0, np.zeros(2), np.eye(2))
BG_SPEC = NormalGammaSpec(1.0, 1.0, np.zeros(0), np.zeros((0, 0)),
                          fixed_z_coeffs=np.zeros(2))


class FlatEngine:
    """Likelihood stub whose marginals are identically zero (prior-only chains).

    It offers only what the Python sampler reads of an engine:
    ``log_marginal_z``, ``z0``, ``xi``, ``yy`` and ``singles``. Not being an
    ``NIGEngine``, it always runs the Python sweep.
    """

    z0 = ()

    def __init__(self, n: int):
        self.n = n
        self.xi = [()] * n
        self.yy = [0.0] * n
        self.singles = [0.0] * n

    def log_marginal_z(self, count, z, yty, dz=None, dyy=0.0) -> float:
        return 0.0


@pytest.fixture(params=["python", "compiled"])
def sweep_path(request, monkeypatch):
    """Runs a test on the Python sweep (the fallback forced as a failed build
    forces it) and on the compiled kernel."""
    if request.param == "python":
        monkeypatch.setattr(_sweep, "library", lambda: None)
    elif _sweep.library() is None:
        pytest.skip("the compiled sweep cannot be built here")
    return request.param


def on_both_paths(monkeypatch, run):
    """``run()`` with the compiled kernel (where it builds), then with the
    Python sweep forced."""
    compiled = run()
    with monkeypatch.context() as m:
        m.setattr(_sweep, "library", lambda: None)
        return compiled, run()


def bits(values):
    """Floats as their exact bit patterns, so -0.0 differs from 0.0."""
    return [float(v).hex() for v in values]


def assert_same_state(a, b):
    """Two chains hold the same clusters, ids, order, statistics and generator state."""
    assert a.item_cluster == b.item_cluster
    assert a.colour_totals == b.colour_totals
    assert list(a.clusters) == list(b.clusters)
    assert a._free == b._free
    for cid, cl in a.clusters.items():
        other = b.clusters[cid]
        assert (cl.colour, cl.count) == (other.colour, other.count)
        assert bits(cl.z) == bits(other.z)
        assert bits([cl.yty, cl.log_m]) == bits([other.yty, other.log_m])
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def assert_same_records(got, expected):
    """Records equal field by field, log posteriors bit for bit."""
    assert [r.sweep for r in got] == [r.sweep for r in expected]
    for a, b in zip(got, expected):
        assert (a.labels, a.colours) == (b.labels, b.colours)
        assert (a.degree, a.colour_degrees) == (b.degree, b.colour_degrees)
        assert bits([a.log_posterior]) == bits([b.log_posterior])


def make_data(n, seed=42):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)) + np.linspace(0, 2, n)[:, None]


def _sample_index(log_weights, rng):
    """Oracle of ``_draw``: a cumulative walk over ``exp(x - max)``, totalled
    left to right (``sum`` compensates from Python 3.12 on)."""
    top = max(log_weights)
    if top == LOG_ZERO:
        raise NumericalError("all reallocation weights vanished")
    weights = [math.exp(x - top) for x in log_weights]
    u = rng.random() * reduce(add, weights)
    acc = 0.0
    for idx, w in enumerate(weights):
        acc += w
        if u < acc:
            return idx
    return len(weights) - 1


def raw_marginal(eng, Y, members):
    """Oracle: the coefficient-space marginal of the members' raw rows, which
    shares nothing with the chain's cached eigenbasis statistics."""
    wty, yty = eng.prepare(Y[sorted(members)])
    return eng.log_marginal_parts(len(yty), wty.sum(axis=0), float(yty.sum()))


def withdraw(state, block):
    for i in block:
        state._withdraw(i)


def subset_kernel(model, engines, states, block):
    """Exact transition matrix of the fixed-block update (identity off-domain)."""
    block = sorted(block)
    index = {p: j for j, p in enumerate(states)}
    rng = np.random.default_rng(0)  # nothing draws from it
    T = np.zeros((len(states), len(states)))
    for j, p in enumerate(states):
        flat = p.flatten() if isinstance(p, ColouredPartition) else p
        cl_of = {}
        for ci, c in enumerate(flat.clusters):
            for i in c:
                cl_of[i] = ci
        if log_eppf(model, p) == LOG_ZERO or len({cl_of[i] for i in block}) != 1:
            T[j, j] = 1.0
            continue
        st = ChainState(model, engines, p.n, rng, initial=p)
        withdraw(st, block)
        moves, logw, after, _ = st.subset_candidates(block)
        w = np.exp(np.asarray(logw) - max(logw))
        w /= w.sum()
        for mv, weight, lm in zip(moves, w, after):
            nxt = ChainState(model, engines, p.n, rng, initial=p)
            withdraw(nxt, block)
            nxt._place(block, mv, lm)
            T[j, index[nxt.snapshot()]] += weight
    return T


# ------------------------------------------------------------- single items

def test_single_item_dataset_stays_a_singleton():
    Y = make_data(1)
    model = DirichletProcess(1.0)
    engines = build_engines(Y, DESIGN, SPEC, model)
    state = ChainState(model, engines, 1, np.random.default_rng(0))
    for _ in range(10):
        state.reallocate_item(0)
        assert state.snapshot() == Partition([[0]])


def test_flat_likelihood_reassignment_follows_prior_weights():
    model = DirichletProcess(1.0)
    engines = [FlatEngine(4)]
    state = ChainState(model, engines, 4, np.random.default_rng(5),
                       initial=Partition([[0, 1, 2], [3]]))
    state._withdraw(0)
    moves, logw, _ = state.item_candidates(0)
    # remaining clusters have sizes (2, 1); prior weights (2, 1, new=1)
    probs = np.exp(np.array(logw))
    probs /= probs.sum()
    counts = np.zeros(len(moves))
    rng = np.random.default_rng(6)
    reps = 40_000
    for _ in range(reps):
        counts[_draw(logw, rng)] += 1
    np.testing.assert_allclose(probs, [0.5, 0.25, 0.25], atol=1e-12)
    stat = (((counts - reps * probs) ** 2) / (reps * probs)).sum()
    assert stat < sstats.chi2.ppf(0.99, len(moves) - 1)


@pytest.mark.parametrize("logw", [
    np.random.default_rng(1).normal(size=9).tolist(),
    (np.random.default_rng(2).normal(size=40) * 30).tolist(),
    [0.0] * 6,
    [1.5, -0.2, 1.5, 1.5, -0.2],
    [LOG_ZERO, 0.3, LOG_ZERO, -1.0, LOG_ZERO],
    [-2.0, 0.0, LOG_ZERO],
    [0.7],
    [-1e300],
], ids=["random", "wide", "flat", "ties", "inf-inside", "inf-last", "one", "one-tiny"])
def test_draw_matches_cumulative_walk(logw):
    # _draw is the one draw of every move: the same index as the cumulative
    # walk and the same generator state afterwards, draw for draw
    fast, walk = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(2000):
        assert _draw(logw, fast) == _sample_index(logw, walk)
    assert fast.bit_generator.state == walk.bit_generator.state


def test_draw_without_a_possible_outcome_is_a_numerical_error():
    for logw in ([], [LOG_ZERO], [LOG_ZERO, LOG_ZERO]):
        with pytest.raises(NumericalError):
            _draw(logw, np.random.default_rng(0))


def test_two_item_chain_matches_enumerated_posterior():
    Y = make_data(2, seed=9)
    model = DirichletProcess(1.0)
    engines = build_engines(Y, DESIGN, SPEC, model)
    states = list(enumerate_partitions(2))
    pi = _exact_posterior(model, engines, states)
    plan = SweepPlan(sweeps=100_000, burn_in=1000, seed=3)
    trace = run_chain(Y, DESIGN, model, SPEC, plan, engines=engines)
    freq = np.mean([rec.degree == 1 for rec in trace])
    together = pi[[i for i, p in enumerate(states) if p.degree == 1][0]]
    assert freq == pytest.approx(together, abs=0.01)


@pytest.mark.parametrize("model,specs,n,coloured", [
    (DirichletProcess(1.0), [SPEC], 4, False),
    (DirichletMultinomial(3, 0.8), [SPEC], 4, False),
    (PitmanYor(0.3, 1.0), [SPEC], 4, False),
    (ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)]), [SPEC, SPEC], 3, True),
    (BackgroundDirichletProcess(1.5, 1.0), [BG_SPEC, SPEC], 3, True),
])
def test_full_sweep_preserves_exact_posterior(model, specs, n, coloured):
    Y = make_data(n)
    engines = build_engines(Y, DESIGN, specs, model)
    states = (list(enumerate_coloured_partitions(n, model.n_colours)) if coloured
              else list(enumerate_partitions(n)))
    pi = _exact_posterior(model, engines, states)
    T = _one_sweep_matrix(model, engines, states, n, np.random.default_rng(0))
    assert np.abs(pi @ T - pi).max() < 1e-10
    np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------- subset moves

def test_single_item_subset_kernel_equals_item_kernel():
    Y = make_data(3)
    model = DirichletProcess(1.0)
    engines = build_engines(Y, DESIGN, SPEC, model)
    states = list(enumerate_partitions(3))
    for i in range(3):
        Ti = _item_kernel(model, engines, states, i, np.random.default_rng(0))
        Ts = subset_kernel(model, engines, states, [i])
        np.testing.assert_allclose(Ti, Ts, atol=1e-10)


def test_whole_cluster_move_prior_ratio_matches_closed_form():
    # with a flat likelihood, merging {0,1} into {2,3} versus staying apart
    # must weigh exactly like the partition-prior ratio
    model = DirichletProcess(0.7)
    engines = [FlatEngine(4)]
    state = ChainState(model, engines, 4, np.random.default_rng(0),
                       initial=Partition([[0, 1], [2, 3]]))
    withdraw(state, [0, 1])
    moves, logw, _, _ = state.subset_candidates([0, 1])
    options = dict(zip(moves, logw))
    merged = Partition([[0, 1, 2, 3]])
    split = Partition([[0, 1], [2, 3]])
    expect = (log_eppf(model, merged) - log_eppf(model, split))
    got = options[[t for t in options if t >= 0][0]] - options[[t for t in options if t < 0][0]]
    assert got == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("block", [(0,), (0, 1), (1, 2, 3)])
def test_fixed_subset_kernel_preserves_posterior(block):
    Y = make_data(4)
    model = DirichletProcess(1.0)
    engines = build_engines(Y, DESIGN, SPEC, model)
    states = list(enumerate_partitions(4))
    pi = _exact_posterior(model, engines, states)
    T = subset_kernel(model, engines, states, list(block))
    assert np.abs(pi @ T - pi).max() < 1e-10


def test_fixed_subset_kernel_preserves_background_posterior():
    Y = make_data(3)
    model = BackgroundDirichletProcess(1.5, 1.0)
    engines = build_engines(Y, DESIGN, [BG_SPEC, SPEC], model)
    states = list(enumerate_coloured_partitions(3, 2))
    pi = _exact_posterior(model, engines, states)
    for block in [(0,), (0, 1)]:
        T = subset_kernel(model, engines, states, list(block))
        assert np.abs(pi @ T - pi).max() < 1e-10


FAMILIES = pytest.mark.parametrize("model,specs,n", [
    (DirichletProcess(1.0), [SPEC], 4),
    (DirichletMultinomial(3, 0.8), [SPEC], 4),  # 3 clusters reach the bound
    (PitmanYor(0.3, 1.0), [SPEC], 4),
    (ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)]), [SPEC, SPEC], 3),
    (BackgroundDirichletProcess(1.5, 1.0), [BG_SPEC, SPEC], 3),
], ids=["dp", "dm", "py", "cdp", "background"])


def all_states(model, n):
    return (list(enumerate_coloured_partitions(n, model.n_colours)) if model.coloured
            else list(enumerate_partitions(n)))


@FAMILIES
def test_random_subset_move_composite_kernel_preserves_posterior(model, specs, n):
    # cluster-then-subset selection plus the corrected acceptance step
    Y = make_data(n)
    engines = build_engines(Y, DESIGN, specs, model)
    states = all_states(model, n)
    index = {p: j for j, p in enumerate(states)}
    pi = _exact_posterior(model, engines, states)
    max_size = 8
    rng = np.random.default_rng(0)  # nothing draws from it

    def n_subsets(m):
        return sum(math.comb(m, s) for s in range(1, min(max_size, m) + 1))

    T = np.zeros((len(states), len(states)))
    for j, p in enumerate(states):
        if log_eppf(model, p) == LOG_ZERO:
            T[j, j] = 1.0
            continue
        d_before = p.degree
        for c in (p.flatten() if model.coloured else p).clusters:
            for size in range(1, min(max_size, len(c)) + 1):
                for sub in itertools.combinations(c, size):
                    psel = 1.0 / (d_before * n_subsets(len(c)))
                    st = ChainState(model, engines, n, rng, initial=p)
                    withdraw(st, sub)
                    remaining = len(st.clusters)
                    moves, logw, after, _ = st.subset_candidates(list(sub))
                    w = np.exp(np.asarray(logw) - max(logw))
                    w /= w.sum()
                    for mv, weight, lm in zip(moves, w, after):
                        if mv >= 0:
                            d_after = remaining
                            tsize = st.clusters[mv].count + len(sub)
                        else:
                            d_after = remaining + 1
                            tsize = len(sub)
                        acc = min(1.0, (d_before * n_subsets(len(c)))
                                  / (d_after * n_subsets(tsize)))
                        nxt = ChainState(model, engines, n, rng, initial=p)
                        withdraw(nxt, sub)
                        nxt._place(sub, mv, lm)
                        T[j, index[nxt.snapshot()]] += psel * weight * acc
                        T[j, j] += psel * weight * (1.0 - acc)
    np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=1e-12)
    assert np.abs(pi @ T - pi).max() < 1e-10


@FAMILIES
def test_subset_candidate_weights_equal_prior_of_built_partition(model, specs, n):
    # every subset-move candidate's weight is the log-EPPF of the partition it
    # would leave, built explicitly, plus the receiving cluster's marginal
    # change, bit for bit: both read the same sizes in the same order. On 40
    # items in about a dozen clusters of mixed sizes, a size listed out of
    # canonical order changes the sum of their lgammas in the last bits.
    # The size reported for each option is its receiving cluster's in that
    # partition. Where the kernel builds, its pricing of the block must agree.
    n = 40
    Y = np.random.default_rng(3).normal(size=(n, 2)) * 1.5
    engines = build_engines(Y, DESIGN, specs, model)
    rng, unused = np.random.default_rng(4), np.random.default_rng(0)
    checked = 0
    for _ in range(40):
        labels = rng.integers(3 if isinstance(model, DirichletMultinomial) else 14, size=n)
        colours = [int(rng.integers(model.n_colours)) for _ in range(14)]
        if isinstance(model, BackgroundDirichletProcess):
            colours = [1] * 14
            colours[int(labels[0])] = 0
        p = (ColouredPartition.from_allocation(labels, [colours[v] for v in labels],
                                               model.n_colours)
             if model.coloured else Partition.from_allocation(labels))
        st = ChainState(model, engines, n, unused, initial=p)
        cid = list(st.clusters)[int(rng.integers(len(st.clusters)))]
        members = st.members()[cid]
        block = sorted(rng.choice(members, size=int(rng.integers(1, len(members) + 1)),
                                  replace=False).tolist())
        withdraw(st, block)
        moves, logw, after, grown = st.subset_candidates(block)
        for target in list(st.clusters) + [-1 - k for k in range(model.n_colours)]:
            nxt = ChainState(model, engines, n, unused, initial=p)
            withdraw(nxt, block)
            lm = (nxt.clusters[target].log_m if target >= 0 else 0.0)
            nxt._place(block, target, 0.0)
            prior = log_eppf(model, nxt.snapshot())
            if target not in moves:
                assert prior == LOG_ZERO
                continue
            idx = moves.index(target)
            assert logw[idx] == prior + after[idx] - lm
            assert grown[idx] == nxt.clusters[nxt.item_cluster[block[0]]].count
            checked += 1
        if _sweep.library() is not None:
            # the kernel's pricing of the same block, read off its arrays,
            # gives the same options and doubles, its slots being the ids
            resident = ChainState(model, engines, n, unused, initial=p)
            arrays = resident._kernel_arrays()
            on_arrays = gibbs._ArrayState(resident, arrays)
            on_arrays._withdraw(*block)
            got = on_arrays.subset_candidates(block)
            assert got[0] == moves
            assert bits(got[1]) == bits(logw) and bits(got[2]) == bits(after)
            assert got[3] == grown
            assert arrays.block_least[:len(st.clusters)].tolist() == [
                st.item_cluster.index(cid) for cid in st.clusters]
    assert checked > 100


def test_subset_move_without_a_possible_placement_puts_the_block_back():
    # four singletons under a two-component prior have zero probability, and
    # every block placement leaves at least three clusters: the move restores
    # the block and draws only its selection, no placement or acceptance uniform
    n = 4
    model = DirichletMultinomial(2, 0.8)
    engines = build_engines(make_data(n), DESIGN, SPEC, model)
    state = ChainState(model, engines, n, np.random.default_rng(3),
                       initial=Partition([[i] for i in range(n)]))
    before = state.snapshot()
    for _ in range(20):
        replay = np.random.default_rng()
        replay.bit_generator.state = state.rng.bit_generator.state
        replay.integers(n)
        replay.choice(np.arange(1, 2), p=[1.0])
        replay.choice(1, size=1, replace=False)
        state.random_subset_move()
        assert state.snapshot() == before
        assert state.rng.bit_generator.state == replay.bit_generator.state
        assert state.refresh_cache_() < 1e-12


def test_subset_size_draw_equals_generator_choice():
    # a subset move draws its block size off a cached law with one uniform;
    # numpy's weighted choice, kept here as the oracle, draws the same size
    # from the same running totals and leaves the generator in the same state
    for m in range(1, 41):
        for max_size in range(1, 9):
            cap = min(max_size, m)
            counts = np.array([math.comb(m, s) for s in range(1, cap + 1)], dtype=float)
            p = counts / counts.sum()
            total, cdf = gibbs._subset_law(m, max_size)
            assert total == counts.sum()
            assert bits(cdf) == bits(np.cumsum(p) / np.cumsum(p)[-1])
            for seed in range(40):
                rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
                size = bisect_right(cdf, rng.random()) + 1
                assert size == oracle.choice(np.arange(1, cap + 1), p=p)
                assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("model,specs", [
    (DirichletProcess(1.0), [SPEC]),
    (ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)]), [SPEC, SPEC]),
], ids=["dp", "cdp"])
def test_block_withdraw_equals_item_by_item(model, specs):
    # one _withdraw of a whole block leaves every cluster's members and
    # statistics, the cluster order, item_cluster and colour_totals bit for
    # bit as withdrawing its items one at a time does, also when the block
    # empties its cluster
    n = 30
    Y = make_data(n, seed=8)
    engines = build_engines(Y, DESIGN, specs, model)
    rng = np.random.default_rng(6)
    emptied = 0
    for _ in range(30):
        labels = rng.integers(5, size=n)
        p = (ColouredPartition.from_allocation(labels, labels % 2, 2) if model.coloured
             else Partition.from_allocation(labels))
        one_pass, by_item = (ChainState(model, engines, n, np.random.default_rng(0), initial=p)
                             for _ in range(2))
        members = one_pass.members()[one_pass.item_cluster[int(rng.integers(n))]]
        block = sorted(rng.choice(members, size=int(rng.integers(1, len(members) + 1)),
                                  replace=False).tolist())
        emptied += len(block) == len(members)
        one_pass._withdraw(*block)
        withdraw(by_item, block)
        assert_same_state(one_pass, by_item)
    assert emptied


def test_cluster_ids_stay_kernel_slots(monkeypatch):
    # on the Python sweep, as in the kernel, a cluster's id is a slot: an
    # emptied cluster gives its id back to _free and a new one takes the
    # last id there, so the live ids and the free ones are disjoint and
    # make up 0..n-1, however often clusters empty and reopen
    monkeypatch.setattr(_sweep, "library", lambda: None)
    n = 9
    model = ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)])
    engines = build_engines(make_data(n, seed=5), DESIGN, [SPEC, SPEC], model)
    state = ChainState(model, engines, n, np.random.default_rng(4))
    insert, opened = ChainState._insert, []

    def counted(chain, i, target, log_m_after):
        opened.append(target < 0)
        return insert(chain, i, target, log_m_after)

    monkeypatch.setattr(ChainState, "_insert", counted)
    for _ in range(200):
        state.run(SweepPlan(sweeps=1, subset_move_rate=1.0))
        assert sorted([*state.clusters, *state._free]) == list(range(n))
        assert set(state.item_cluster) == set(state.clusters)
    assert sum(opened) > 10 * n


def test_subset_move_on_a_cluster_past_float_range():
    # 1100 items in one cluster have about 2**1100 subsets, more than a float
    # holds: the selection law and the acceptance ratio stay exact integers
    n = 1100
    model = DirichletProcess(1.0)
    engines = build_engines(make_data(n), DESIGN, SPEC, model)
    state = ChainState(model, engines, n, np.random.default_rng(2),
                       initial=Partition([list(range(n))]))
    assert gibbs._subset_law(n, 2000)[0] == 2 ** n - 1
    for _ in range(3):
        state.random_subset_move(max_size=2000)
    assert sum(map(sum, state.canonical()[2])) == n
    assert state.refresh_cache_() < 1e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bounded_components_chain_starts_in_a_feasible_state(seed):
    # a Dirichlet-multinomial chain with fewer components than items starts
    # from at most that many clusters, drawing nothing, so every record,
    # the first included, has a finite log posterior
    Y = np.random.default_rng(seed).normal(size=(40, 2)) * 1.5
    model = DirichletMultinomial(2, 0.8)
    engines = build_engines(Y, DESIGN, SPEC, model)
    rng = np.random.default_rng(seed)
    start = ChainState(model, engines, 40, rng)
    assert start.snapshot() == Partition([list(range(20)), list(range(20, 40))])
    assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
    plan = SweepPlan(sweeps=60, burn_in=0, subset_move_rate=1.0, seed=seed)
    trace = run_chain(Y, DESIGN, model, SPEC, plan)
    assert math.isfinite(trace[0].log_posterior)
    assert all(rec.degree <= 2 and math.isfinite(rec.log_posterior) for rec in trace)


def test_unbounded_or_ample_components_start_from_singletons():
    model = DirichletMultinomial(5, 0.8)
    for n in (3, 5):
        engines = build_engines(make_data(n), DESIGN, SPEC, model)
        state = ChainState(model, engines, n, np.random.default_rng(0))
        assert state.snapshot() == Partition([[i] for i in range(n)])


# ----------------------------------------------------------- coloured moves

def test_cdp_equal_weight_and_concentration_reduces_to_per_colour_dp():
    model = ColouredDirichletProcess([(0.7, 0.7), (1.3, 1.3)])
    existing, new = model.weight_lists([2, 1, 3], [0, 1, 1])
    assert existing == pytest.approx([2.0, 1.0, 3.0])  # occupancy factor is 1
    assert new == pytest.approx([0.7, 1.3])


def test_background_move_weight_for_emptied_background():
    # withdrawing the only background item leaves weight gamma for moving back
    model = BackgroundDirichletProcess(2.5, 1.0)
    engines = [FlatEngine(2), FlatEngine(2)]
    p = ColouredPartition([[[0]], [[1]]], n_colours=2)
    state = ChainState(model, engines, 2, np.random.default_rng(0), initial=p)
    state._withdraw(0)
    moves, logw, _ = state.item_candidates(0)
    weights = dict(zip(moves, np.exp(logw)))
    assert weights[-1] == pytest.approx(2.5)   # background option
    assert weights[-2] == pytest.approx(1.0)   # fresh regular cluster
    assert weights[state.item_cluster[1]] == pytest.approx(1.0)


def test_coloured_chain_matches_enumerated_posterior():
    n = 3
    Y = make_data(n, seed=13)
    model = ColouredDirichletProcess([(1.0, 1.0), (2.0, 0.5)])
    engines = build_engines(Y, DESIGN, [SPEC, SPEC], model)
    states = list(enumerate_coloured_partitions(n, 2))
    index = {p: i for i, p in enumerate(states)}
    pi = _exact_posterior(model, engines, states)
    plan = SweepPlan(sweeps=60_000, burn_in=1000, thin=2, seed=21)
    trace = run_chain(Y, DESIGN, model, [SPEC, SPEC], plan, engines=engines)
    counts = np.zeros(len(states))
    for rec in trace:
        counts[index[ColouredPartition.from_allocation(rec.labels, rec.colours, 2)]] += 1
    expected = pi * counts.sum()
    keep = expected >= 5
    obs, exp = counts[keep], expected[keep]
    if (~keep).any():
        obs = np.append(obs, counts[~keep].sum())
        exp = np.append(exp, expected[~keep].sum())
    stat = (((obs - exp) ** 2) / exp).sum()
    assert stat < sstats.chi2.ppf(0.99, len(obs) - 1)


# -------------------------------------------------------------- run_chain API

def test_colours_given_one_prior_share_one_engine():
    # build_engines builds one engine per distinct spec object; an engine is
    # read-only once built, so a chain on a shared one is the chain on two
    # equal ones
    model = ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)])
    Y = make_data(7)
    twin = NormalGammaSpec(1.0, 1.0, np.zeros(2), np.eye(2))
    for specs in (SPEC, [SPEC, SPEC]):
        shared = build_engines(Y, DESIGN, specs, model)
        assert shared[0] is shared[1] and isinstance(shared[0], ClusterEvaluator)
    apart = build_engines(Y, DESIGN, [SPEC, twin], model)
    assert apart[0] is not apart[1]
    background = BackgroundDirichletProcess(1.5, 1.0)
    assert len(set(map(id, build_engines(Y, DESIGN, [BG_SPEC, SPEC], background)))) == 2
    plan = SweepPlan(sweeps=40, burn_in=5, subset_move_rate=0.5, seed=9)
    assert (run_chain(Y, DESIGN, model, SPEC, plan, engines=shared)
            == run_chain(Y, DESIGN, model, SPEC, plan, engines=apart))


def test_run_chain_single_sweep_emits_one_record():
    Y = make_data(3)
    plan = SweepPlan(sweeps=1, burn_in=0)
    trace = run_chain(Y, DESIGN, DirichletProcess(1.0), SPEC, plan)
    assert len(trace) == 1
    assert trace[0].sweep == 0


def test_run_chain_is_deterministic():
    Y = make_data(5)
    plan = SweepPlan(sweeps=60, burn_in=10, thin=3, subset_move_rate=0.5, seed=17)
    a = run_chain(Y, DESIGN, DirichletProcess(1.0), SPEC, plan)
    b = run_chain(Y, DESIGN, DirichletProcess(1.0), SPEC, plan)
    assert a == b


@pytest.mark.parametrize("model,partition,message", [
    (DirichletProcess(1.0), ColouredPartition([[[0, 1]], [[2]]], n_colours=2),
     "DirichletProcess requires a plain partition"),
    (ColouredDirichletProcess([(1.0, 1.0), (1.0, 0.5)]), Partition([[0, 1], [2]]),
     "ColouredDirichletProcess requires a coloured partition"),
    (BackgroundDirichletProcess(1.0, 1.0), Partition([[0, 1], [2]]),
     "BackgroundDirichletProcess requires a coloured partition"),
    (ColouredDirichletProcess([(1.0, 1.0), (1.0, 0.5)]),
     ColouredPartition([[[0, 1], [2]]], n_colours=1),
     "partition colour count does not match the model"),
    (ColouredDirichletProcess([(1.0, 1.0), (1.0, 0.5)]),
     ColouredPartition([[[0, 1]], [], [[2]]], n_colours=3),
     "partition uses more colours than the model defines"),
    (DirichletProcess(1.0), Partition([[0, 1], [2], [3]]),
     "partition size does not match data size"),
], ids=["coloured-into-plain", "plain-into-coloured", "plain-into-background",
        "too-few-colours", "too-many-colours", "wrong-size"])
def test_chain_state_rejects_a_partition_of_the_wrong_kind(model, partition, message):
    engines = [FlatEngine(3)] * model.n_colours
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ChainState(model, engines, 3, np.random.default_rng(0), initial=partition)


@pytest.mark.parametrize("model", [DirichletProcess(1.0),
                                   ColouredDirichletProcess([(1.0, 1.0), (1.0, 0.5)]),
                                   BackgroundDirichletProcess(1.0, 1.0)])
def test_chain_state_snapshot_is_the_models_kind(model):
    engines = [FlatEngine(4)] * model.n_colours
    state = ChainState(model, engines, 4, np.random.default_rng(0))
    start = state.snapshot()
    assert isinstance(start, ColouredPartition) == model.coloured
    assert start.n_colours == model.n_colours
    assert (start.flatten() if model.coloured else start) == Partition([[0], [1], [2], [3]])
    # the default start puts every singleton in colour 0, the background prior's
    # in its regular colour
    regular = (BackgroundDirichletProcess.REGULAR
               if isinstance(model, BackgroundDirichletProcess) else 0)
    assert start.sizes_by_colour()[regular] == (1, 1, 1, 1)
    for i in range(4):
        state.reallocate_item(i)
    again = ChainState(model, engines, 4, np.random.default_rng(0), initial=state.snapshot())
    assert again.snapshot() == state.snapshot()


def test_run_chain_validates_dimensions():
    Y = make_data(4)
    bad_design = DesignBlock(Z=np.ones((3, 1)))
    with pytest.raises(ValidationError):
        run_chain(Y, bad_design, DirichletProcess(1.0), SPEC, SweepPlan(sweeps=1))
    with pytest.raises(ValidationError):
        SweepPlan(sweeps=10, burn_in=10)
    with pytest.raises(ValidationError):
        SweepPlan(sweeps=10, thin=0)


def test_trace_log_posterior_is_recomputable():
    Y = make_data(4)
    model = BackgroundDirichletProcess(1.5, 1.0)
    engines = build_engines(Y, DESIGN, [BG_SPEC, SPEC], model)
    plan = SweepPlan(sweeps=30, burn_in=5, seed=2)
    trace = run_chain(Y, DESIGN, model, [BG_SPEC, SPEC], plan, engines=engines)
    for rec in trace[::5]:
        p = ColouredPartition.from_allocation(rec.labels, rec.colours, 2)
        lp = log_eppf(model, p)
        for col, cs in enumerate(p.clusters_by_colour):
            for c in cs:
                lp += raw_marginal(engines[col], Y, c)
        assert rec.log_posterior == pytest.approx(lp, abs=1e-8)


def test_cache_stays_coherent_over_many_sweeps(sweep_path, monkeypatch):
    Y = make_data(6, seed=30)
    model = BackgroundDirichletProcess(2.0, 1.0)
    engines = build_engines(Y, DESIGN, [BG_SPEC, SPEC], model)
    state = ChainState(model, engines, 6, np.random.default_rng(8))
    calls = counting_kernel_runs(monkeypatch)
    worst = 0.0
    for _ in range(3):
        state.run(SweepPlan(sweeps=100))
        worst = max(worst, state.refresh_cache_())
    assert calls["run"] == (3 if sweep_path == "compiled" else 0)
    assert worst < 1e-8
    # the refresh rebuilds the incrementally updated statistics from the
    # members, so drift in them is reported and repaired, not just in log_m
    for cl in state.clusters.values():
        cl.z = [v + 1e-3 for v in cl.z]
        cl.yty += 1e-3
    assert state.refresh_cache_() > 0.9e-3
    assert state.refresh_cache_() < 1e-8
    for cid, items in state.members().items():
        cl = state.clusters[cid]
        assert cl.log_m == pytest.approx(raw_marginal(engines[cl.colour], Y, items), abs=1e-10)


def _trace_digest(trace):
    import hashlib
    return hashlib.sha256(
        repr([(r.labels, r.colours) for r in trace]).encode()).hexdigest()[:16]


def test_golden_trace_digest(monkeypatch):
    # behaviour anchor for the sampler: any change that alters a draw of the
    # wen-rat recipe changes this digest, on the compiled and the Python sweep
    from cdpmix.pipeline import parse_config
    cfg = parse_config({"preset": "wen-rat", "sweeps": 2000, "burn_in": 0, "seed": 7,
                        "out": "unused"})
    for trace in on_both_paths(monkeypatch, lambda: run_chain(
            cfg.dataset.data, cfg.design, cfg.model, cfg.specs, cfg.plan)):
        assert _trace_digest(trace) == "6caf8745eb0ea50a"


def test_cdp_subset_move_trace_digest(monkeypatch):
    # behaviour anchor for subset moves and the coloured prior: the
    # rat-cdp-subset benchmark config, 300 sweeps, seed 5
    from cdpmix.pipeline import parse_config
    cfg = parse_config({"preset": "wen-rat", "sweeps": 300, "burn_in": 20, "thin": 1,
                        "model": {"family": "cdp", "colours": [[1, 1], [1, 0.5]]},
                        "subset_move_rate": 1.0, "seed": 5, "out": "unused"})
    for trace in on_both_paths(monkeypatch, lambda: run_chain(
            cfg.dataset.data, cfg.design, cfg.model, cfg.specs, cfg.plan)):
        assert _trace_digest(trace) == "9412b87fa3a07191"


@pytest.mark.parametrize("model,digest", [
    (DirichletMultinomial(4, 0.8), "94fe3b2d16034b23"),  # reaches its component bound
    (PitmanYor(0.3, 1.0), "a5d4e189728d63a0"),
], ids=["dm", "py"])
def test_dm_and_py_subset_move_trace_digest(model, digest, monkeypatch):
    # behaviour anchor for the Dirichlet-multinomial and Pitman-Yor priors
    # under item and subset moves
    Y = make_data(12)
    plan = SweepPlan(sweeps=400, burn_in=0, subset_move_rate=1.0, seed=11)
    for trace in on_both_paths(monkeypatch, lambda: run_chain(Y, DESIGN, model, SPEC, plan)):
        assert _trace_digest(trace) == digest


X_DESIGN = DesignBlock(Z=np.array([[1.0, 1.0, 1.0], [-0.5, 0.1, 0.7]]).T,
                       X=np.array([[0.3, -1.0, 0.8]]).T)  # S = 3, p = 3
X_SPEC = NormalGammaSpec(1.5, 0.8, [0.2, -0.1, 0.4],
                         [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
X_BG_SPEC = NormalGammaSpec(1.5, 0.8, [0.1], [[0.7]], fixed_z_coeffs=[0.5, -0.3])


@pytest.mark.parametrize("model,design,specs", [
    (DirichletProcess(1.0), DESIGN, [SPEC]),
    (BackgroundDirichletProcess(1.5, 1.0), DESIGN, [BG_SPEC, SPEC]),
    (BackgroundDirichletProcess(1.5, 1.0), X_DESIGN, [X_BG_SPEC, X_SPEC]),
])
def test_candidate_marginals_match_fresh_statistics(model, design, specs):
    # the incremental eigenbasis pricing equals the coefficient-space marginal
    # of the receiving cluster rebuilt from its members' raw rows
    n = 7
    Y = np.random.default_rng(4).normal(size=(n, design.n_samples)) * 2.0
    engines = build_engines(Y, design, specs, model)
    state = ChainState(model, engines, n, np.random.default_rng(5))
    checked = 0
    for sweep in range(40):
        for i in range(n):
            state._withdraw(i)
            moves, logw, after = state.item_candidates(i)
            for target, lm in zip(moves, after):
                if target >= 0:
                    eng = engines[state.clusters[target].colour]
                    members = state.members()[target] + [i]
                else:
                    eng, members = engines[-1 - target], [i]
                assert lm == pytest.approx(raw_marginal(eng, Y, members), abs=1e-10)
                checked += 1
            idx = _draw(logw, state.rng)
            state._insert(i, moves[idx], after[idx])
    assert checked > 40 * n * 2


MEAN_SPEC = NormalGammaSpec(1.0, 1.0, [0.6, -0.4], np.eye(2))  # z0 != 0 without X


@pytest.mark.parametrize("case", ["no-X", "X", "no-X-mean"])
@pytest.mark.parametrize("model", [
    DirichletProcess(1.0),
    DirichletMultinomial(2, 0.8),  # starts full, so most draws have no new cluster
    PitmanYor(0.3, 1.0),
    ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)]),
    BackgroundDirichletProcess(1.5, 1.0),
], ids=["dp", "dm-saturated", "py", "cdp", "background"])
def test_fused_reallocation_matches_step_by_step_composition(model, case, monkeypatch):
    # reallocate_item's fused draw against the composition with
    # _sample_index's cumulative walk: same labels, statistics, marginals and
    # RNG stream, bit for bit; every cached marginal must also equal
    # log_marginal_z of the cached statistics, which pins the inline pricing.
    # The compiled kernel, run on its arrays in blocks of one and of several
    # sweeps that record every third sweep from sweep 2, must reach the same
    # state and generator state at every block's end, once copied back, and
    # take the records ChainState.record takes of the step-by-step chain.
    design = X_DESIGN if case == "X" else DESIGN
    regular = {"no-X": SPEC, "X": X_SPEC, "no-X-mean": MEAN_SPEC}[case]
    if isinstance(model, BackgroundDirichletProcess):
        specs = [X_BG_SPEC if case == "X" else BG_SPEC, regular]
    else:
        specs = [regular] * model.n_colours
    n = 8
    initial = (Partition([[0, 1, 2, 3], [4, 5, 6, 7]])
               if isinstance(model, DirichletMultinomial) else None)
    rng = np.random.default_rng(21)
    centres = rng.normal(size=(2, design.n_samples))
    Y = centres[np.arange(n) % 2] + 0.5 * rng.normal(size=(n, design.n_samples))
    engines = build_engines(Y, design, specs, model)
    assert any(engines[-1].z0) == (case != "no-X")
    fused, steps, compiled = (
        ChainState(model, engines, n, np.random.default_rng(22), initial=initial)
        for _ in range(3))
    kinds = Counter()
    keep = range(2, 30, 3)
    first = 0
    calls = counting_kernel_runs(monkeypatch)
    arrays = compiled._kernel_arrays(13)  # room for a 13-sweep block's records
    chain = compiled if arrays is None else gibbs._ArrayState(compiled, arrays)
    for block in [1, 1, 4, 1, 7, 2, 1, 13]:  # 30 sweeps
        expected = []
        for sweep in range(first, first + block):
            for i in range(n):
                fused.reallocate_item(i)
                steps._withdraw(i)
                moves, logw, after = steps.item_candidates(i)
                idx = _sample_index(logw, steps.rng)
                steps._insert(i, moves[idx], after[idx])
                kinds["new" if moves[idx] < 0 else "existing"] += 1
                assert_same_state(fused, steps)
                for cl in fused.clusters.values():
                    eng = engines[cl.colour]
                    assert cl.log_m == eng.log_marginal_z(cl.count, cl.z, cl.yty)
            if sweep in keep:
                expected.append(steps.record(sweep))
        assert_same_records(chain.sweep(block, keep, first), expected)
        if arrays is not None:
            compiled._from_arrays(arrays)
        assert_same_state(compiled, steps)
        first += block
    assert calls["run"] == (8 if _sweep.library() is not None else 0)
    assert kinds["existing"] > 100 and kinds["new"] > 0


def test_accepted_move_weight_equals_joint_change():
    Y = make_data(5, seed=11)
    model = DirichletProcess(1.0)
    engines = build_engines(Y, DESIGN, SPEC, model)
    state = ChainState(model, engines, 5, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    for step in range(1000):
        i = int(rng.integers(5))
        before = state.record(0).log_posterior
        prev_cid = state.item_cluster[i]
        state._withdraw(i)
        moves, logw, after = state.item_candidates(i)
        prev_idx = next(k for k, mv in enumerate(moves)
                        if mv == prev_cid or (mv < 0 and prev_cid not in state.clusters))
        idx = _draw(logw, rng)
        state._insert(i, moves[idx], after[idx])
        delta = state.record(0).log_posterior - before
        assert delta == pytest.approx(logw[idx] - logw[prev_idx], abs=1e-8)


# ------------------------------------------------------------ compiled sweep

@pytest.mark.parametrize("model,message", [
    (DirichletProcess(1.0), "posterior rate collapsed to a non-positive value"),
    # one item, and a Pitman-Yor strength that gives a first cluster no weight
    (PitmanYor(0.5, -0.4), "all reallocation weights vanished"),
], ids=["rate", "weights"])
def test_compiled_sweep_raises_the_python_sweeps_errors(model, message, sweep_path,
                                                       monkeypatch):
    n = 4 if isinstance(model, DirichletProcess) else 1
    engines = build_engines(make_data(n), DESIGN, SPEC, model)
    state = ChainState(model, engines, n, np.random.default_rng(3))
    if isinstance(model, DirichletProcess):
        # the singleton start leaves item 0's cluster empty, so the first
        # rate computed is a candidate's, priced from the engine's rate_base
        for eng in engines:
            eng.rate_base = -1e6
    calls = counting_kernel_runs(monkeypatch)
    with pytest.raises(NumericalError, match=f"^{message}$"):
        state.run(SweepPlan(sweeps=2))
    assert calls["run"] == (sweep_path == "compiled")


def counting_kernel_runs(monkeypatch) -> Counter:
    """Counts the compiled blocks run from here on, under "run"."""
    calls, run = Counter(), _sweep.SweepArrays.run

    def counted(*args, **kwargs):
        calls["run"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(_sweep.SweepArrays, "run", counted)
    return calls


def test_huge_component_bound_gives_the_same_chain_on_both_paths(monkeypatch):
    # a bound beyond 2**53 enters the kernel only through the new-cluster
    # weights (K - d) * w, which urn_tables computes with K exact in Python
    model = DirichletMultinomial(10 ** 20, 1e-20)  # new-cluster weight about 1
    plan = SweepPlan(sweeps=20, burn_in=0, seed=6)
    calls = counting_kernel_runs(monkeypatch)
    compiled, python = on_both_paths(
        monkeypatch, lambda: run_chain(make_data(6), DESIGN, model, SPEC, plan))
    assert compiled == python
    assert bool(calls) == (_sweep.library() is not None)


class TiltedPrior:
    """Two-colour urn tables outside the five families, each table varying:
    offsets of either sign, factors and new-cluster weights that change with
    the colour's item count, a new-cluster weight that grows with the
    cluster count. Records are scored with a coloured process's EPPF; the
    two sweeps must agree whatever law the tables define."""

    coloured = True
    n_colours = 2

    def urn_tables(self, n: int):
        counts = range(n + 1)
        factors = [[(1.0 + c + m) / (2.0 + m) for m in counts] for c in range(2)]
        new = [[(0.5 + c) * f for f in fs] for c, fs in enumerate(factors)]
        return (-0.3, 0.2), factors, new, [1.0 + 0.3 * d for d in counts]

    def log_eppf_sizes(self, sizes_by_colour, n: int) -> float:
        return ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)]).log_eppf_sizes(
            sizes_by_colour, n)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_a_prior_outside_the_five_families_runs_on_the_kernel(rate, monkeypatch):
    # the kernel reads the prior's urn tables and holds no family code
    Y = make_data(9, seed=5)
    plan = SweepPlan(sweeps=60, burn_in=7, thin=3, subset_move_rate=rate, seed=8)
    calls = counting_kernel_runs(monkeypatch)
    compiled, python = on_both_paths(
        monkeypatch, lambda: run_chain(Y, DESIGN, TiltedPrior(), [SPEC, SPEC], plan))
    assert bool(calls) == (_sweep.library() is not None)
    assert len(compiled) == len(range(7, 60, 3))
    assert_same_records(compiled, python)
    assert len({rec.colour_degrees for rec in python}) > 1


def needs_kernel():
    if _sweep.library() is None:
        pytest.skip("the compiled sweep cannot be built here")


@pytest.mark.parametrize("model", [
    DirichletProcess(1.0),
    DirichletMultinomial(3, 0.8),
    PitmanYor(0.3, 1.0),
    ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)]),
    BackgroundDirichletProcess(1.5, 1.0),
], ids=["dp", "dm", "py", "cdp", "background"])
@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_records_from_the_arrays_equal_records_from_the_view(model, rate, monkeypatch):
    # without subset moves the kernel takes every record inside its block:
    # each must equal ChainState.record of the view copied back after that sweep, for
    # thin 1, 3 and 7 and burn-ins that are not multiples of thin. With
    # subset moves the state stays in the kernel's arrays for the whole
    # chain, where the moves and the records act on it, and the chain must
    # be the Python sweep's, record for record and bit for bit, ending in
    # the same state once it is copied back, also where the regular
    # colour's prior mean or fixed effects make z0 nonzero. The moves must
    # include rejected ones, whole-cluster blocks put back as a new cluster
    # and, under the Dirichlet-multinomial at its bound and the background
    # prior's one background cluster, options the prior rules out.
    needs_kernel()
    background = isinstance(model, BackgroundDirichletProcess)
    specs = [BG_SPEC, SPEC] if background else [SPEC] * model.n_colours
    Y = make_data(9, seed=5)
    if rate > 0:
        plan = SweepPlan(sweeps=90, burn_in=13, thin=4, subset_move_rate=rate, seed=8)
        seen = Counter()
        place, options = gibbs._ArrayState._place, gibbs._block_options

        def counted_place(chain, block, move, log_m_after):
            # a block put back is priced afresh, in a new cluster if it was
            # all of its own
            if log_m_after is None:
                seen["rejected"] += 1
                seen["whole"] += move < 0
            return place(chain, block, move, log_m_after)

        def counted_options(log_prior, block, keys, *rest):
            moves, logw, after, grown = options(log_prior, block, keys, *rest)
            seen["ruled out"] += len(moves) < len(keys) + model.n_colours
            return moves, logw, after, grown

        monkeypatch.setattr(gibbs._ArrayState, "_place", counted_place)
        monkeypatch.setattr(gibbs, "_block_options", counted_options)
        calls = counting_kernel_runs(monkeypatch)
        for case in ["no-X", "X", "no-X-mean"]:
            design = X_DESIGN if case == "X" else DESIGN
            regular = {"no-X": SPEC, "X": X_SPEC, "no-X-mean": MEAN_SPEC}[case]
            specs = ([X_BG_SPEC if case == "X" else BG_SPEC, regular] if background
                     else [regular] * model.n_colours)
            data = Y @ np.array([[1.0, 0.5, -0.3], [0.2, 1.0, 0.8]]) if case == "X" else Y
            engines = build_engines(data, design, specs, model)
            assert any(engines[-1].z0) == (case != "no-X")

            def chain():
                state, runs = ChainState(model, engines, 9, np.random.default_rng(8)), calls["run"]
                return state, state.run(plan), calls["run"] - runs

            (compiled, compiled_trace, compiled_runs), (python, python_trace, python_runs) = (
                on_both_paths(monkeypatch, chain))
            assert compiled_runs > 0 and python_runs == 0
            assert len(compiled_trace) == len(range(13, 90, 4))
            assert_same_records(compiled_trace, python_trace)
            assert_same_state(compiled, python)
            assert run_chain(data, design, model, specs, plan, engines=engines) == compiled_trace
        assert seen["rejected"] and seen["whole"]
        assert bool(seen["ruled out"]) == isinstance(
            model, (DirichletMultinomial, BackgroundDirichletProcess))
        return
    record, sources = ChainState.record, Counter()

    def counted(state, sweep):
        sources["python"] += 1
        return record(state, sweep)

    monkeypatch.setattr(ChainState, "record", counted)
    engines = build_engines(Y, DESIGN, specs, model)
    for burn_in, thin in [(5, 1), (13, 3), (9, 7)]:
        plan = SweepPlan(sweeps=60, burn_in=burn_in, thin=thin, seed=8)
        taken = run_chain(Y, DESIGN, model, specs, plan, engines=engines)
        assert not sources  # the kernel took every record
        # the same chain one sweep per block on the arrays, each retained
        # sweep recorded from the view copied back after it
        state = ChainState(model, engines, 9, np.random.default_rng(8))
        arrays = state._kernel_arrays()
        on_arrays = gibbs._ArrayState(state, arrays)
        expected = []
        for sweep in range(plan.sweeps):
            assert on_arrays.sweep() == []
            if sweep >= burn_in and (sweep - burn_in) % thin == 0:
                state._from_arrays(arrays)
                expected.append(record(state, sweep))
        assert len(taken) == len(range(burn_in, 60, thin))
        assert_same_records(taken, expected)


@pytest.mark.parametrize("schedule", ["rat-run", "rat-run-in-nine-blocks",
                                      "subset-every-sweep"])
def test_each_block_copies_the_state_in_and_back_once(schedule, monkeypatch):
    # the rat-run schedule (400 sweeps, burn-in 200, every later sweep
    # recorded) is one kernel call that takes the records itself, or nine
    # when a block holds at most 45 sweeps; a subset move after every sweep
    # makes every sweep a kernel call of its own. Either way the state stays
    # in the arrays from the chain's start to its end
    needs_kernel()
    from cdpmix.pipeline import parse_config
    sweeps, burn_in, rate = (30, 10, 1.0) if schedule == "subset-every-sweep" else (400, 200, 0.0)
    blocks = 1
    if schedule == "rat-run-in-nine-blocks":
        monkeypatch.setattr(gibbs, "_BLOCK_UNIFORMS", 45 * 112)  # 45 sweeps of 112 items
        blocks = 9
    cfg = parse_config({"preset": "wen-rat", "sweeps": sweeps, "burn_in": burn_in, "seed": 3,
                        "subset_move_rate": rate, "out": "unused"})
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for cls, name in [(ChainState, "_to_arrays"), (ChainState, "_from_arrays"),
                      (_sweep.SweepArrays, "run")]:
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    if rate == 0:
        monkeypatch.setattr(ChainState, "record", counted("record", ChainState.record))
    trace = run_chain(cfg.dataset.data, cfg.design, cfg.model, cfg.specs, cfg.plan)
    assert [rec.sweep for rec in trace] == list(range(burn_in, sweeps))
    assert calls == {"_to_arrays": 1, "run": blocks if rate == 0 else sweeps, "_from_arrays": 1}


@pytest.mark.parametrize("where", ["sweep", "move"])
def test_an_error_in_a_chain_with_moves_is_the_python_sweeps(where, sweep_path, monkeypatch):
    # a rate that collapses in a sweep, or in a subset move's withdraw or
    # pricing, raises the Python sweep's error on both paths; on the kernel
    # the state has not been copied back, so it is the state before the run.
    # The engines are poisoned, which reaches the arrays a run builds from
    # them, and mid-move also the arrays the chain already lives in
    model = DirichletProcess(1.0)
    engines = build_engines(make_data(6), DESIGN, SPEC, model)
    state = ChainState(model, engines, 6, np.random.default_rng(3))
    before = state.snapshot()
    compiled = sweep_path == "compiled"
    assert (state._kernel_arrays() is not None) == compiled

    def poison(chain):
        for eng in engines:
            eng.rate_base = -1e6
        if isinstance(chain, gibbs._ArrayState):
            chain.arrays.rate_base[:] = -1e6

    if where == "sweep":
        poison(state)
    else:
        move, calls = gibbs._subset_move, Counter()

        def poisoned_move(chain, max_size):
            calls["move"] += 1
            poison(chain)
            return move(chain, max_size)

        monkeypatch.setattr(gibbs, "_subset_move", poisoned_move)
    runs = counting_kernel_runs(monkeypatch)
    plan = SweepPlan(sweeps=5, subset_move_rate=1.0)
    with pytest.raises(NumericalError, match="^posterior rate collapsed to a non-positive value$"):
        state.run(plan)
    assert where == "sweep" or calls == {"move": 1}
    assert runs["run"] == compiled
    if compiled:
        assert state.snapshot() == before


def test_a_chain_that_forgets_its_priors_scores_the_same_records(sweep_path, monkeypatch):
    # a chain remembers the prior of the _PRIOR_MEMO size keys it scored
    # last, forgetting the least recently used; with room for three keys it
    # scores the priors again and again, and every record is the same double
    model = ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)])
    Y = make_data(9, seed=5)
    plan = SweepPlan(sweeps=60, burn_in=5, thin=2, subset_move_rate=1.0, seed=4)
    scored, calls, bound = ColouredDirichletProcess.log_eppf_sizes, Counter(), gibbs._PRIOR_MEMO

    def counted(self, sizes_by_colour, n):
        calls[gibbs._PRIOR_MEMO] += 1
        return scored(self, sizes_by_colour, n)

    monkeypatch.setattr(ColouredDirichletProcess, "log_eppf_sizes", counted)
    expected = run_chain(Y, DESIGN, model, [SPEC, SPEC], plan)
    monkeypatch.setattr(gibbs, "_PRIOR_MEMO", 3)
    state = ChainState(model, build_engines(Y, DESIGN, [SPEC, SPEC], model), 9,
                       np.random.default_rng(4))
    assert_same_records(state.run(plan), expected)
    assert state._log_prior.cache_info().currsize <= 3
    assert calls[3] > calls[bound] > 0


def test_blocks_end_at_the_uniform_cap_and_keep_the_records(monkeypatch):
    # a chain longer than one block's uniforms runs in several kernel calls;
    # records that straddle the block ends are the one-block chain's
    needs_kernel()
    Y = make_data(9, seed=5)
    plan = SweepPlan(sweeps=50, burn_in=7, thin=3, seed=4)
    expected = run_chain(Y, DESIGN, DirichletProcess(1.0), SPEC, plan)
    sizes, run = [], _sweep.SweepArrays.run

    def counted_run(arrays, uniforms, sweeps, record_at=()):
        sizes.append(sweeps)
        return run(arrays, uniforms, sweeps, record_at)

    monkeypatch.setattr(_sweep.SweepArrays, "run", counted_run)
    monkeypatch.setattr(gibbs, "_BLOCK_UNIFORMS", 9 * 8)
    assert run_chain(Y, DESIGN, DirichletProcess(1.0), SPEC, plan) == expected
    assert sizes == [8] * 6 + [2]


@pytest.mark.parametrize("error", ["rate", "weights"])
def test_state_after_a_failed_block_is_the_state_before_it(error, monkeypatch):
    # a block that raises leaves the arrays mid-move, with an item withdrawn;
    # the run it belongs to copies nothing back, so the state is the one
    # before that run, as a twin chain stopped there holds it, and the next
    # run copies it in and continues it
    needs_kernel()
    n = 4 if error == "rate" else 1
    model = DirichletProcess(1.0) if error == "rate" else PitmanYor(0.5, 1.0)
    state = ChainState(model, build_engines(make_data(n), DESIGN, SPEC, model), n,
                       np.random.default_rng(3))
    twin = ChainState(model, state.engines, n, np.random.default_rng(3))
    calls = counting_kernel_runs(monkeypatch)
    state.run(SweepPlan(sweeps=2))
    twin.run(SweepPlan(sweeps=2))
    # the fault goes in at the source the run builds its arrays from
    eng, by_degree = state.engines[0], state._urn[3]
    saved = eng.rate_base, by_degree[0]
    if error == "rate":
        eng.rate_base = -1e6
    else:
        by_degree[0] = -0.4  # a first cluster's weight under a strength of -0.4
    with pytest.raises(NumericalError, match="^(posterior rate|all reallocation)"):
        state.run(SweepPlan(sweeps=2))
    assert state.snapshot() == twin.snapshot()
    members = state.members()
    assert sorted(i for items in members.values() for i in items) == list(range(n))
    assert all(len(members[cid]) == cl.count for cid, cl in state.clusters.items())
    assert sum(state.colour_totals) == n
    eng.rate_base, by_degree[0] = saved
    twin.rng.random(2 * n)  # the failed block's uniforms
    state.run(SweepPlan(sweeps=1))
    twin.run(SweepPlan(sweeps=1))
    assert_same_state(state, twin)
    assert calls["run"] == 5


def test_failed_build_falls_back_to_the_python_sweep(monkeypatch, caplog, tmp_path):
    Y = make_data(6)
    plan = SweepPlan(sweeps=40, burn_in=5, thin=2, seed=4)
    expected = run_chain(Y, DESIGN, DirichletProcess(1.0), SPEC, plan)
    out = str(tmp_path / "run")
    pipeline.run_pipeline(pipeline.parse_config(
        {"preset": "wen-rat", "sweeps": 40, "burn_in": 20}, out=out))
    artifacts = {name: (tmp_path / "run" / name).read_bytes()
                 for name in ("similarity.csv", "assignments.csv", "cluster_summaries.csv")}

    def failed_build():
        raise OSError("cc exited with status 1: no space left")

    monkeypatch.setattr(_sweep, "_load", failed_build)
    _sweep.library.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="cdpmix._sweep"):
            traces = [run_chain(Y, DESIGN, DirichletProcess(1.0), SPEC, plan)
                      for _ in range(2)]
            pipeline.summarize_run(out)
    finally:
        _sweep.library.cache_clear()  # the next caller loads the real library
    assert traces == [expected, expected]
    assert {name: (tmp_path / "run" / name).read_bytes() for name in artifacts} == artifacts
    assert [r.getMessage() for r in caplog.records] == [  # once per process
        "compiled kernels unavailable, using the Python sweep and the Python trace reader: "
        "cc exited with status 1: no space left"]


@pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                    reason="no C compiler")
def test_compiler_that_cannot_run_falls_back_to_the_python_sweep(monkeypatch, caplog,
                                                                 tmp_path):
    # _compile imports subprocess itself and reports its SubprocessError as
    # the OSError that library() catches
    source = tmp_path / "_sweep.c"
    source.write_bytes(_sweep.SOURCE.read_bytes())
    monkeypatch.setattr(_sweep, "SOURCE", source)  # no library cached for this source

    def cannot_run(*args, **kwargs):
        raise subprocess.SubprocessError("compiler killed")

    monkeypatch.setattr(subprocess, "run", cannot_run)
    _sweep.library.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="cdpmix._sweep"):
            assert _sweep.library() is None
            assert _sweep.library() is None
    finally:
        _sweep.library.cache_clear()  # the next caller loads the real library
    cc = shutil.which("cc") or shutil.which("gcc")
    assert [r.getMessage() for r in caplog.records] == [
        "compiled kernels unavailable, using the Python sweep and the Python trace reader: "
        f"{cc} could not run: compiler killed"]
    assert not list((tmp_path / "__pycache__").iterdir())  # no temporary file left


@pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                    reason="no C compiler")
def test_kernel_is_built_once_into_the_cache(tmp_path, monkeypatch):
    source = tmp_path / "_sweep.c"
    source.write_bytes(_sweep.SOURCE.read_bytes())
    monkeypatch.setattr(_sweep, "SOURCE", source)
    _sweep._load()
    (built,) = (tmp_path / "__pycache__").iterdir()  # no temporary file left
    assert re.fullmatch(r"_sweep-[0-9a-f]{16}\.so", built.name)

    def no_compiler(target):
        raise AssertionError("rebuilt a cached library")

    monkeypatch.setattr(_sweep, "_compile", no_compiler)
    assert _sweep._load().cdpmix_sweeps
    # another source is another key
    source.write_bytes(_sweep.SOURCE.read_bytes() + b"\n")
    with pytest.raises(AssertionError, match="rebuilt"):
        _sweep._load()


@pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                    reason="no C compiler")
def test_kernel_builds_in_a_temporary_directory_when_the_cache_is_read_only(
        tmp_path, monkeypatch):
    source = tmp_path / "_sweep.c"
    source.write_bytes(_sweep.SOURCE.read_bytes())
    monkeypatch.setattr(_sweep, "SOURCE", source)
    monkeypatch.setattr(_sweep, "_writable", lambda directory: False)
    assert _sweep._load().cdpmix_sweeps
    assert not (tmp_path / "__pycache__").exists()


@pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                    reason="no C compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    # the shipped flags plus every common warning, as errors
    cc = shutil.which("cc") or shutil.which("gcc")
    proc = subprocess.run([cc, *_sweep.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernel.so"), str(_sweep.SOURCE), "-lm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Run in a fresh interpreter with the sanitizer runtime preloaded: builds the
# kernel from argv[1] with the sanitizers on, then reads traces with it and
# runs a plain chain and a subset-move CDP chain on it.
_SANITIZED_KERNEL = r"""
import sys
from pathlib import Path
import numpy as np
from cdpmix import _sweep, pipeline
from cdpmix.errors import ValidationError

_sweep.SOURCE = Path(sys.argv[1])
_sweep.FLAGS += ("-fsanitize=address,undefined", "-fno-omit-frame-pointer",
                 "-fno-sanitize-recover=all")
lib = _sweep.library()
assert lib is not None, "the instrumented kernel did not build"
path = sys.argv[2]
head = ("chain,sweep," + ",".join(f"c:{i}" for i in range(4)) + ","
        + ",".join(f"k:{i}" for i in range(4)) + "\n").encode()

def outcome():
    try:
        return [a.tolist() for a in pipeline.read_trace(path)[1]]
    except ValidationError as exc:
        return str(exc)

def read_both(body):
    # the instrumented reader, and the port it falls back to, agree on body
    Path(path).write_bytes(body)
    compiled = outcome()
    _sweep.library = lambda: None
    try:
        assert compiled == outcome(), body
    finally:
        _sweep.library = lambda: lib
    with open(path, "rb") as fh:
        return _sweep.read_body(lib, fh, len(head), 8)

rng = np.random.default_rng(5)
states = rng.integers(0, 4, size=(6, 8))
repeated = [f"{j % 2},{j}," + ",".join(map(str, states[k])) + "\n"
            for j, k in enumerate(rng.integers(6, size=3000))]
assert read_both(head + "".join(repeated).encode()) is not None
distinct = rng.integers(0, 2 ** 31 - 1, size=(3000, 8)).tolist()
assert read_both(head + "".join(f"0,{j}," + ",".join(map(str, row)) + "\n"
                                for j, row in enumerate(distinct)).encode()) is not None
good = head + b"1,6,0,1,2,3,0,0,1,1\n2,7,0,1,0,1,1,0,0,1\n"
for _ in range(300):  # damaged traces, as the two readers are compared on them
    body = bytearray(good)
    for _ in range(int(rng.integers(1, 3))):
        pos = int(rng.integers(len(head), len(body) + 1))
        byte = bytes([rng.choice(list(b"0123456789,\n\r- \xff"))])
        body[pos:pos + int(rng.integers(2))] = byte if rng.integers(3) else b""
    read_both(bytes(body))

for extra in ({}, {"model": {"family": "cdp", "colours": [[1, 1], [1, 0.5]]},
                   "subset_move_rate": 1.0}):
    config = pipeline.parse_config(dict({"preset": "wen-rat", "sweeps": 30, "burn_in": 10,
                                         "seed": 7, "out": "unused"}, **extra))
    assert len(pipeline.run_chains(config)[0]) == 20
print("clean")
"""


def test_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    # an out-of-bounds write into a buffer sized once corrupts the heap silently;
    # the sanitizers make it, or any undefined behaviour, end the process
    needs_kernel()
    cc = shutil.which("cc") or shutil.which("gcc")
    runtime = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no AddressSanitizer runtime for the C compiler")
    source = tmp_path / "_sweep.c"  # the instrumented library is cached beside it
    source.write_bytes(_sweep.SOURCE.read_bytes())
    src = str(Path(gibbs.__file__).parents[1])
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SANITIZED_KERNEL, str(source),
                           str(tmp_path / "trace.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout == "clean\n", proc.stderr[-4000:]
    assert "Sanitizer" not in proc.stderr and "runtime error" not in proc.stderr, proc.stderr


def c_struct_fields(source: str, name: str) -> list[tuple[str, type]]:
    """The fields of ``typedef struct { ... } name;`` in C source, in order,
    each with the ctypes type that mirrors it: any pointer as ``c_void_p``,
    an ``int64_t`` as ``c_int64``. A type may follow ``const`` or
    ``unsigned``."""
    body = re.search(r"typedef struct \{([^{}]*)\} " + name + ";", source)[1]
    fields = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        first, *rest = decl.split(",")
        ctype, first = re.fullmatch(r"\s*(?:const\s+)?(?:unsigned\s+)?(\w+)\s*(\**\s*\w+)\s*",
                                    first).groups()
        for declarator in [first, *rest]:
            pointer, field = re.fullmatch(r"\s*(\**)\s*(\w+)\s*", declarator).groups()
            fields.append((field, ctypes.c_void_p if pointer else
                           {"int64_t": ctypes.c_int64}[ctype]))
    return fields


@pytest.mark.parametrize("mirror", [_sweep._Kernel, _sweep._Trace], ids=["Kernel", "Trace"])
def test_ctypes_structs_mirror_the_kernel_source(mirror):
    # a mirror out of step with the C struct hands the kernel the wrong
    # pointers, and nothing says so
    fields = c_struct_fields(_sweep.SOURCE.read_text(), mirror.__name__.lstrip("_"))
    assert fields == mirror._fields_


def c_exports(source: str) -> dict[str, tuple[str, list[str]]]:
    """Each ``cdpmix_*`` function defined in C source: its return type and
    its parameters' types, a pointer of any type as ``*``."""
    exports = {}
    for ret, name, params in re.findall(r"^(\w+)\s+(cdpmix_\w+)\(([^)]*)\)\s*\{", source,
                                        flags=re.M):
        exports[name] = (ret, ["*" if "*" in param else param.split()[-2]
                               for param in params.split(",")])
    return exports


def test_kernel_bindings_match_the_c_signatures():
    # ctypes passes whatever argtypes and restype say: a binding out of step
    # with the C definition is undefined behaviour, not an error
    needs_kernel()
    lib = _sweep.library()
    kinds = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "int": ctypes.c_int,
             "void": None}
    exports = c_exports(_sweep.SOURCE.read_text())
    assert {"cdpmix_sweeps", "cdpmix_record", "cdpmix_withdraw", "cdpmix_price_block",
            "cdpmix_place", "cdpmix_read_trace"} <= set(exports)
    for name, (ret, params) in exports.items():
        binding = getattr(lib, name)
        assert binding.restype is kinds[ret], name
        assert len(binding.argtypes) == len(params), name
        for param, argtype in zip(params, binding.argtypes):
            if param == "*":
                assert argtype is ctypes.c_void_p or issubclass(argtype, ctypes._Pointer), name
            else:
                assert argtype is kinds[param], name


def test_the_kernel_source_header_lists_every_export():
    # the header comment of _sweep.c is where a reader finds the exports
    source = _sweep.SOURCE.read_text()
    header = source[:source.index("*/")]
    assert set(re.findall(r"^ \*   (cdpmix_\w+) ", header, flags=re.M)) == set(c_exports(source))


@pytest.mark.parametrize("case", [
    "empty", "two clusters", "repeated", "decreasing", "out of range", "price unwithdrawn",
    "place unwithdrawn", "place in a freed slot", "place in no colour", "place past the slots"])
def test_kernel_refuses_a_bad_block_and_leaves_the_state(case):
    # the block exports index the state by the items they are handed: a
    # block they cannot act on is refused before anything is written
    needs_kernel()
    model = DirichletProcess(1.0)
    state = ChainState(model, build_engines(make_data(6), DESIGN, SPEC, model), 6,
                       np.random.default_rng(3), initial=Partition([[0, 1, 2], [3, 4], [5]]))
    arrays = state._kernel_arrays()
    state._to_arrays(arrays)  # clusters {0, 1, 2}, {3, 4}, {5} in slots 0, 1, 2
    if case.startswith("place") or case == "price unwithdrawn":
        arrays.withdraw([5] if case == "place in a freed slot" else [0, 1])
    if case in ("place unwithdrawn", "price unwithdrawn"):
        arrays.place(0, 0.0, reprice=True)
    names = ("n_clusters", "n_free", "order", "count", "colour_totals", "item_slot", "z", "yty",
             "log_m", "block_least", "block_after")
    before = [getattr(arrays, name).copy() for name in names]
    refused = {
        "empty": lambda: arrays.withdraw([]),
        "two clusters": lambda: arrays.withdraw([2, 3]),
        "repeated": lambda: arrays.withdraw([0, 0]),
        "decreasing": lambda: arrays.withdraw([1, 0]),
        "out of range": lambda: arrays.withdraw([5, 6]),
        "price unwithdrawn": arrays.price_block,
        "place unwithdrawn": lambda: arrays.place(1, 0.0),
        "place in a freed slot": lambda: arrays.place(2, 0.0),
        "place in no colour": lambda: arrays.place(-2, 0.0),
        "place past the slots": lambda: arrays.place(6, 0.0),
    }[case]
    with pytest.raises(ValueError, match="^a block must hold increasing items of one cluster"):
        refused()
    for name, was in zip(names, before):
        assert bits(getattr(arrays, name).ravel()) == bits(was.ravel()), name


@pytest.mark.parametrize("record_at", [[3], [-1], [1, 1], [2, 0], [0, 1, 2, 3]])
def test_kernel_rejects_records_outside_the_block_or_out_of_order(record_at):
    # the record buffers hold a 3-sweep block's records: four records of a
    # 4-sweep block are refused too, before the kernel writes past them
    needs_kernel()
    model = DirichletProcess(1.0)
    state = ChainState(model, build_engines(make_data(4), DESIGN, SPEC, model), 4,
                       np.random.default_rng(3))
    arrays = state._kernel_arrays(3)
    state._to_arrays(arrays)
    before = [getattr(arrays, name).copy() for name in _sweep._STATE]
    sweeps = max(3, len(record_at))
    with pytest.raises(ValueError, match="^record_at (must increase within|asks for 4 records, "
                                         "the record buffers hold 3$)"):
        arrays.run(np.full(4 * sweeps, 0.5), sweeps, record_at)
    for name, was in zip(_sweep._STATE, before):
        assert bits(getattr(arrays, name).ravel()) == bits(was.ravel()), name
