"""Collapsed urn-style Gibbs sampling over (coloured) partitions.

One chain owns a mutable ``ChainState``: the current coloured partition plus
per-cluster sufficient statistics and cached log marginal likelihoods, enough
to price any single-item reallocation in O(number of clusters). Plain priors
run as the one-colour case of the same machinery; the coloured priors add a
new-cluster option per colour with the occupancy-tilted weights. Loading
walks ``clusters_by_colour``, which a plain ``Partition`` offers too, and
``_partition`` alone picks the class of a snapshot.

The state has the compiled kernel's layout: a cluster is a colour, a size,
statistics and a cached marginal, its id is its kernel slot, taken from a
stack of free ones, and only ``item_cluster`` says who is where. A placement
is a live id, or ``-1 - c`` for a new cluster of colour c.

Single-item moves use the prior's urn weights times the conjugate predictive
(Neal 2000, Algorithm 3). ``reallocate_item`` withdraws the item, prices
every placement in one pass of ``item_candidates`` -- the urn weight read
off the prior's ``urn_tables``, built once per chain, the receiving
cluster's marginal from its engine, the ``NIGEngine`` of the colour's prior
(colours sharing a prior share it) -- then draws and inserts. Every marginal
the Python sampler computes comes from the engine's ``log_marginal_z``
(``singles`` caches the new-cluster ones); ``log_marginal`` in ``_sweep.c``
is its one compiled port. Every move draws through ``_draw``: one uniform
against the running totals of the exponentiated weights, found by bisection.
A block move takes a co-clustered block out in one ``_withdraw`` and puts it
back item by item, ``_insert`` through ``_place``, priced through the
prior's ``log_eppf_sizes`` on the per-colour cluster sizes it would leave, so
structural constraints (at most one background cluster, bounded component
counts) fall out of the prior's log-zero sentinel with no special cases.
Trace records score the prior from the same sizes, read off the live
clusters without building a partition. Every prior a chain scores goes
through ``_log_prior``, a ``functools.lru_cache`` of ``log_eppf_sizes`` by
size key.

``ChainState``'s step methods and its ``sweep`` are the Python reference;
``ChainState.run`` (and ``run_chain``) is the compiled entry. Where the
kernel (``_sweep.c``, see ``_sweep``) builds and every engine is an
``NIGEngine``, ``run`` copies the state once, field by field, into flat
arrays built afresh from the engines and urn tables (``_ArrayState`` on
``_kernel_arrays``) and keeps it there until the chain ends, then copies it
back (``_from_arrays``). In between the kernel runs blocks of sweeps under
any prior, repeating the arithmetic and the draws of ``reallocate_item``
with each block's uniforms drawn in one call, so it reaches the same state
bit for bit. It takes the retained sweeps' records itself: their canonical
labels, cluster sizes and cluster marginals, which ``_kernel_records``
scores with the prior. Subset moves act on the arrays through the kernel's
block-move exports.
``_subset_move`` is the one body of the move for both states: it makes every
draw, prices the prior and takes the Metropolis-Hastings step, and asks the
state only to count, pick, withdraw, price and place.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, sub
from typing import Sequence

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not in the first draw

from . import _sweep
from .conjugate import ClusterEvaluator, DesignBlock, NormalGammaSpec
from .errors import NumericalError, ValidationError
from .partitions import ColouredPartition, Partition
from .priors import (LOG_ZERO, BackgroundDirichletProcess, DirichletMultinomial,
                     PartitionPrior, check_kind)


class NIGEngine(ClusterEvaluator):
    """One prior's ``ClusterEvaluator`` with a fixed dataset's items bound,
    shared by every colour with that prior and read-only once built.

    Item i contributes ``xi[i] = L' W'y_i`` and ``yy[i] = y_i'y_i``, held as
    Python floats, and a cluster's statistics are its count, ``z = z0 + sum
    of its xi`` and the sum of its ``yy``. ``log_marginal_z`` prices a
    cluster, optionally with one more item's ``(dz, dyy)`` added;
    ``singles[i]`` is item i's own log marginal. These five are all the
    Python sampler reads. The compiled sweep ports ``log_marginal_z`` and
    reads ``rate_base`` and the per-count table, filled to count n + 1 here.
    """

    def __init__(self, design: DesignBlock, spec: NormalGammaSpec, Y: np.ndarray):
        super().__init__(design, spec)
        item_wty, item_yty = self.prepare(Y)
        n = len(item_yty)
        self.table(n + 1)  # filled once, so both sweeps read the same rows
        self.xi = [tuple(row) for row in (item_wty @ self.basis).tolist()]
        self.yy = item_yty.tolist()
        self.singles = [self.log_marginal_z(1, self.z0, 0.0, self.xi[i], self.yy[i])
                        for i in range(n)]


def _summed(eng, items, z=None, yty: float = 0.0) -> tuple[list[float], float]:
    """``(z, y'y)`` after ``items`` join a cluster holding ``(z, yty)``; empty by default."""
    z = eng.z0 if z is None else z
    for i in items:
        z = list(map(add, z, eng.xi[i]))
        yty += eng.yy[i]
    return z, yty


class _Cluster:
    """Colour, size ``count``, cached statistics ``(z, yty)`` and log marginal of one cluster."""

    __slots__ = ("colour", "count", "z", "yty", "log_m")

    def __init__(self, colour: int, count: int, z: list[float], yty: float, log_m: float):
        self.colour = colour
        self.count = count
        self.z = z
        self.yty = yty
        self.log_m = log_m


def _draw(logw: list[float], rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to ``exp(logw)``: one uniform
    against the running totals of ``exp(x - max)``, found by bisection."""
    top = max(logw) if logw else LOG_ZERO
    if top == LOG_ZERO:
        raise NumericalError("all reallocation weights vanished")
    totals = list(accumulate(map(math.exp, map(sub, logw, repeat(top)))))
    return min(bisect_right(totals, rng.random() * totals[-1]), len(totals) - 1)


@dataclass(frozen=True)
class SweepPlan:
    """Chain schedule: total sweeps, burn-in prefix, thinning, subset-move rate."""

    sweeps: int
    burn_in: int = 0
    thin: int = 1
    subset_move_rate: float = 0.0
    subset_max_size: int = 8
    seed: int | None = None

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValidationError("sweeps must be >= 1")
        if not 0 <= self.burn_in < self.sweeps:
            raise ValidationError("burn_in must lie in [0, sweeps)")
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if not 0.0 <= self.subset_move_rate <= 1.0:
            raise ValidationError("subset_move_rate must lie in [0, 1]")
        if self.subset_max_size < 1:
            raise ValidationError("subset_max_size must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    """One retained sweep: canonical snapshot plus its log posterior score."""

    sweep: int
    labels: tuple[int, ...]
    colours: tuple[int, ...]
    degree: int
    colour_degrees: tuple[int, ...]
    log_posterior: float


class ChainState:
    """Mutable sampler state: coloured partition + cached per-cluster quantities."""

    def __init__(self, model: PartitionPrior, engines: Sequence, n: int,
                 rng: np.random.Generator,
                 initial: Partition | ColouredPartition | None = None):
        if len(engines) != model.n_colours:
            raise ValidationError(
                f"model has {model.n_colours} colours but {len(engines)} engines given")
        self.model = model
        self.engines = list(engines)
        self.n = n
        self.rng = rng
        # live clusters by id (a slot 0..n-1) in insertion order, each item's
        # id (-1 while withdrawn), the items per colour and the stack of unused
        # ids, a new cluster taking the last: the one state of record
        self.clusters: dict[int, _Cluster] = {}
        self.item_cluster = [-1] * n
        self.colour_totals = [0] * model.n_colours
        self._free: list[int] = []
        # (offsets, factors, new, by_degree): the prior's urn weights for up
        # to n items, read by item_candidates and by the compiled kernel
        self._urn = model.urn_tables(n)
        # log_eppf_sizes of per-colour size tuples for the _PRIOR_MEMO keys
        # used last (a keyword partial would build a dict at every miss)
        self._log_prior = lru_cache(maxsize=_PRIOR_MEMO)(lambda s: model.log_eppf_sizes(s, n))
        if initial is None:
            initial = self._default_initial()
        self._load(initial)

    # -- construction -----------------------------------------------------

    def _partition(self, groups: list[list]) -> Partition | ColouredPartition:
        """The model's kind of partition, from one list of clusters per colour."""
        if self.model.coloured:
            return ColouredPartition(groups, n_colours=self.model.n_colours, n=self.n)
        return Partition(groups[0], n=self.n)

    def _default_initial(self) -> Partition | ColouredPartition:
        """All singletons; a Dirichlet-multinomial prior with K < n components,
        which gives that state no mass, starts from K blocks of consecutive
        items instead. Neither start draws from the generator."""
        n, model = self.n, self.model
        col = (BackgroundDirichletProcess.REGULAR
               if isinstance(model, BackgroundDirichletProcess) else 0)
        groups = [[] for _ in range(model.n_colours)]
        k = min(model.components, n) if isinstance(model, DirichletMultinomial) else n
        groups[col] = [list(range(j * n // k, (j + 1) * n // k)) for j in range(k)]
        return self._partition(groups)

    def _load(self, partition: Partition | ColouredPartition) -> None:
        if partition.n != self.n:
            raise ValidationError("partition size does not match data size")
        check_kind(self.model, partition)
        if partition.n_colours != self.model.n_colours:
            raise ValidationError("partition colour count does not match the model")
        groups = [(col, c) for col, cs in enumerate(partition.clusters_by_colour) for c in cs]
        for cid, (col, members) in enumerate(groups):
            eng = self.engines[col]
            z, yty = _summed(eng, members)
            self.clusters[cid] = _Cluster(col, len(members), z, yty,
                                          eng.log_marginal_z(len(members), z, yty))
            for i in members:
                self.item_cluster[i] = cid
            self.colour_totals[col] += len(members)
        self._free = list(range(len(groups), self.n))

    # -- snapshots ---------------------------------------------------------

    def members(self) -> dict[int, list[int]]:
        """Each live cluster's items, increasing, by id in insertion order (none withdrawn)."""
        groups = {cid: [] for cid in self.clusters}
        for i, cid in enumerate(self.item_cluster):
            if cid >= 0:
                groups[cid].append(i)
        return groups

    def snapshot(self) -> Partition | ColouredPartition:
        groups = [[] for _ in range(self.model.n_colours)]
        for cid, items in self.members().items():
            groups[self.clusters[cid].colour].append(items)
        return self._partition(groups)

    def canonical(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(labels, colours)`` as ``snapshot().allocation()`` gives them, with
        clusters numbered by least member, plus each colour's cluster sizes in
        that order."""
        clusters, item_cluster = self.clusters, self.item_cluster
        rank = {cid: j for j, cid in enumerate(dict.fromkeys(item_cluster))}
        colour = {cid: cl.colour for cid, cl in clusters.items()}
        return (tuple(map(rank.__getitem__, item_cluster)),
                tuple(map(colour.__getitem__, item_cluster)),
                _sizes_by_colour([clusters[cid].colour for cid in rank],
                                 [clusters[cid].count for cid in rank],
                                 self.model.n_colours))

    def log_likelihood(self) -> float:
        """Sum of the cached cluster marginals, in insertion order."""
        return float(sum(cl.log_m for cl in self.clusters.values()))

    def refresh_cache_(self) -> float:
        """Rebuild every cluster's statistics from its members and recompute its
        log marginal; returns the largest absolute drift of either."""
        worst = 0.0
        for cid, items in self.members().items():
            cl = self.clusters[cid]
            eng = self.engines[cl.colour]
            z, yty = _summed(eng, items)
            fresh = eng.log_marginal_z(len(items), z, yty)
            worst = max(worst, abs(fresh - cl.log_m), abs(yty - cl.yty),
                        *(abs(a - b) for a, b in zip(z, cl.z)))
            cl.z, cl.yty, cl.log_m = z, yty, fresh
        return worst

    # -- single-item steps: the one path that changes cluster state ----------

    def _withdraw(self, *items: int) -> None:
        """Take ``items``, all of one cluster, out of it: its statistics lose
        each item's ``(xi, yy)`` in turn, and its marginal is priced once."""
        clusters, item_cluster = self.clusters, self.item_cluster
        cid = item_cluster[items[0]]
        cl = clusters[cid]
        cl.count -= len(items)
        self.colour_totals[cl.colour] -= len(items)
        for i in items:
            item_cluster[i] = -1
        if not cl.count:
            del clusters[cid]
            self._free.append(cid)
            return
        eng = self.engines[cl.colour]
        z, yty = cl.z, cl.yty
        for i in items:
            z = list(map(sub, z, eng.xi[i]))
            yty -= eng.yy[i]
        cl.z, cl.yty, cl.log_m = z, yty, eng.log_marginal_z(cl.count, z, yty)

    def item_candidates(self, i: int):
        """Placement options for withdrawn item i.

        Returns parallel lists: targets, a live cluster's id or ``-1 - c``
        for a new cluster of colour c, their unnormalized log weights, and
        the log marginal the receiving cluster would have after the move:
        the engine's ``log_m`` with the item's ``(xi, yy)`` added for a live
        cluster, its ``singles`` entry for a new one.
        """
        offsets, factors, new, by_degree = self._urn
        totals = self.colour_totals
        factors = [f[m] for f, m in zip(factors, totals)]
        engines = self.engines
        log = math.log
        moves, logw, after = [], [], []
        for cid, cl in self.clusters.items():
            k = cl.colour
            size = cl.count
            w = (size + offsets[k]) * factors[k]
            if w <= 0:
                continue
            eng = engines[k]
            lm = eng.log_marginal_z(size + 1, cl.z, cl.yty, eng.xi[i], eng.yy[i])
            moves.append(cid)
            logw.append(log(w) + lm - cl.log_m)
            after.append(lm)
        degree = by_degree[len(self.clusters)]
        for k, (new_k, m) in enumerate(zip(new, totals)):
            w = new_k[m] * degree
            if w <= 0:
                continue
            lm = engines[k].singles[i]
            moves.append(-1 - k)
            logw.append(log(w) + lm)
            after.append(lm)
        return moves, logw, after

    def _insert(self, i: int, target: int, log_m_after: float) -> int:
        """Place withdrawn item i into live cluster ``target`` or, for ``-1 -
        c``, a new cluster of colour c, whose id is popped off ``_free``;
        returns its cluster's id."""
        if target >= 0:
            cl = self.clusters[target]
            cl.count += 1
            eng = self.engines[cl.colour]
            cl.z = list(map(add, cl.z, eng.xi[i]))
            cl.yty += eng.yy[i]
            cl.log_m = log_m_after
            colour = cl.colour
        else:
            colour = -1 - target
            z, yty = _summed(self.engines[colour], (i,))
            target = self._free.pop()
            self.clusters[target] = _Cluster(colour, 1, z, yty, log_m_after)
        self.item_cluster[i] = target
        self.colour_totals[colour] += 1
        return target

    def reallocate_item(self, i: int) -> None:
        """Withdraw item i and redraw its placement from the full conditional."""
        if not 0 <= i < self.n:
            raise ValidationError(f"item {i} out of range")
        self._withdraw(i)
        moves, logw, after = self.item_candidates(i)
        idx = _draw(logw, self.rng)
        self._insert(i, moves[idx], after[idx])

    # -- chains: the Python reference, and the compiled entry ----------------

    def sweep(self, sweeps: int = 1, keep=(), first: int = 0) -> list[TraceRecord]:
        """Reallocate items 0..n-1 in order with ``reallocate_item``,
        ``sweeps`` times over, and return the record of each sweep whose
        number is in ``keep``, the block's sweeps being numbered from
        ``first``. The Python reference of ``_ArrayState.sweep``."""
        records = []
        for sweep in range(first, first + sweeps):
            for i in range(self.n):
                self.reallocate_item(i)
            if sweep in keep:
                records.append(self.record(sweep))
        return records

    def record(self, sweep: int) -> TraceRecord:
        """The trace record of the current state, numbered ``sweep``."""
        return _scored(self._log_prior, sweep, *self.canonical(), self.log_likelihood())

    def _kernel_arrays(self, records: int = 1) -> _sweep.SweepArrays | None:
        """Fresh kernel arrays of this chain's urn tables and engines, with
        room for ``records`` records a block; None when the kernel does not
        build or an engine is not an ``NIGEngine``."""
        lib = _sweep.library()
        if lib is None or any(type(eng) is not NIGEngine for eng in self.engines):
            return None
        return _sweep.SweepArrays(lib, self._urn, self.engines, self.n, records)

    def run(self, plan: SweepPlan) -> list[TraceRecord]:
        """Run ``plan``'s sweeps from the current state with this chain's
        generator (``plan.seed`` is not read here) and return the retained
        trace.

        The chain is an ``_ArrayState`` on fresh ``_kernel_arrays`` where
        the kernel builds and every engine is an ``NIGEngine``, else this
        state itself. Without subset moves nothing between sweeps reads the
        state or draws, so a block runs sweeps until its uniforms reach
        ``_BLOCK_UNIFORMS`` or the chain ends, and takes the retained records
        in-block. With them a block is one sweep, then a move with
        probability ``plan.subset_move_rate``, then the sweep's record if it
        is retained. The arrays' record buffers are allocated once, with room
        for the most records one block takes. The arrays' state is copied
        back once, at the end, so a run that raises leaves the state as it
        was before the run.
        """
        kept = range(plan.burn_in, plan.sweeps, plan.thin)
        rate = plan.subset_move_rate
        block = 1 if rate else max(_BLOCK_UNIFORMS // self.n, 1)
        # a block of sweeps keeps at most one sweep in thin; record() writes record 0
        arrays = self._kernel_arrays(
            1 if rate else max(1, min(len(kept), math.ceil(block / plan.thin))))
        chain = self if arrays is None else _ArrayState(self, arrays)
        trace = []
        for first in range(0, plan.sweeps, block):
            trace += chain.sweep(min(block, plan.sweeps - first), () if rate else kept, first)
            if rate:
                if self.rng.random() < rate:
                    _subset_move(chain, plan.subset_max_size)
                if first in kept:
                    trace.append(chain.record(first))
        if arrays is not None:
            self._from_arrays(arrays)
        return trace

    def _to_arrays(self, a: _sweep.SweepArrays) -> None:
        """Copy the state into fresh kernel arrays, each cluster into the slot its id names."""
        slots, clusters = list(self.clusters), list(self.clusters.values())
        k, free = len(slots), len(self._free)
        a.n_clusters[0], a.n_free[0] = k, free
        a.order[:k] = slots
        a.free_slots[:free] = self._free
        a.colour[slots] = [cl.colour for cl in clusters]
        a.count[slots] = [cl.count for cl in clusters]
        a.yty[slots] = [cl.yty for cl in clusters]
        a.log_m[slots] = [cl.log_m for cl in clusters]
        a.z[slots] = [cl.z + a.padding[cl.colour] for cl in clusters]
        a.item_slot[:] = self.item_cluster
        a.colour_totals[:] = self.colour_totals

    def _from_arrays(self, a: _sweep.SweepArrays) -> None:
        """Copy the state back from the kernel's arrays, clusters in ``order``."""
        slots = a.order[:a.n_clusters[0]]
        self.clusters = {
            s: _Cluster(colour, count, z[:a.dims[colour]], yty, log_m)
            for s, colour, count, z, yty, log_m in zip(
                slots.tolist(), a.colour[slots].tolist(), a.count[slots].tolist(),
                a.z[slots].tolist(), a.yty[slots].tolist(), a.log_m[slots].tolist())}
        self.item_cluster = a.item_slot.tolist()
        self.colour_totals = a.colour_totals.tolist()
        self._free = a.free_slots[:a.n_free[0]].tolist()

    # -- block moves: single-item steps applied to a co-clustered block ----

    def subset_candidates(self, block: list[int]):
        """Placement options for a withdrawn block, as ``_block_options``
        prices them, with the marginals the engines give: each live
        cluster's with the block's statistics (summed from zero) added to its
        own, and a new cluster's from ``_summed`` of the block."""
        m, clusters, engines = len(block), list(self.clusters.values()), self.engines
        sums = [_summed(eng, block, [0.0] * len(eng.z0)) for eng in engines]
        return _block_options(
            self._log_prior, block, list(self.clusters), [cl.colour for cl in clusters],
            [cl.count for cl in clusters], [items[0] for items in self.members().values()],
            [cl.log_m for cl in clusters],
            [engines[cl.colour].log_marginal_z(cl.count + m, cl.z, cl.yty, *sums[cl.colour])
             for cl in clusters],
            [eng.log_marginal_z(m, *_summed(eng, block)) for eng in engines])

    def _place(self, block: list[int], target: int, log_m_after: float | None) -> None:
        """Insert a withdrawn block: the first item into ``target`` as
        ``_insert`` takes it, the rest beside it. A ``log_m_after`` of None
        prices the receiving cluster afresh from the statistics the items
        were added to."""
        for i in block:
            target = self._insert(i, target, log_m_after)
        if log_m_after is None:
            cl = self.clusters[target]
            cl.log_m = self.engines[cl.colour].log_marginal_z(cl.count, cl.z, cl.yty)

    def random_subset_move(self, max_size: int = 8) -> None:
        """One randomly-selected block move, corrected for selection asymmetry
        (see ``_subset_move``)."""
        _subset_move(self, max_size)

    # the rest of what _subset_move asks of a state, keyed by cluster id

    def _degree(self) -> int:
        return len(self.clusters)

    def _pick(self, j: int) -> tuple[int, int, list[int]]:
        """Id, colour and increasing members of the j-th live cluster in insertion order."""
        cid = list(self.clusters)[j]
        return cid, self.clusters[cid].colour, self.members()[cid]


class _ArrayState:
    """A chain's state while it lives in the kernel's arrays, as
    ``ChainState.run`` keeps it from its first sweep to its last: blocks of
    sweeps that take their records in-block, the move's state operations
    through the kernel's block exports, and records taken by the kernel.
    Constructing one copies ``state`` into ``arrays``. Its cluster ids and
    targets are ``ChainState``'s: slots, and ``-1 - c`` for a new cluster."""

    def __init__(self, state: ChainState, arrays: _sweep.SweepArrays):
        state._to_arrays(arrays)
        self.rng, self.n, self.n_colours = state.rng, state.n, state.model.n_colours
        self._log_prior = state._log_prior
        self.arrays = arrays

    def sweep(self, sweeps: int = 1, keep=(), first: int = 0) -> list[TraceRecord]:
        """``ChainState.sweep`` on the kernel, with the block's uniforms
        drawn in one ``rng.random(n * sweeps)`` call: the same state, cluster
        ids, generator state and records, bit for bit."""
        kept = [sweep for sweep in range(first, first + sweeps) if sweep in keep] if keep else []
        self.arrays.run(self.rng.random(self.n * sweeps), sweeps, [t - first for t in kept])
        return _kernel_records(self._log_prior, self.n_colours, kept, self.arrays) if kept else []

    def record(self, sweep: int) -> TraceRecord:
        self.arrays.record()
        return _kernel_records(self._log_prior, self.n_colours, [sweep], self.arrays)[0]

    def _degree(self) -> int:
        return int(self.arrays.n_clusters[0])

    def _pick(self, j: int) -> tuple[int, int, list[int]]:
        a = self.arrays
        slot = int(a.order[j])
        return slot, int(a.colour[slot]), np.flatnonzero(a.item_slot == slot).tolist()

    def _withdraw(self, *items: int) -> None:
        self.arrays.withdraw(items)

    def subset_candidates(self, block: list[int]):
        a = self.arrays
        d = a.price_block()
        after = a.block_after[:d + self.n_colours].tolist()
        return _block_options(self._log_prior, block, a.order[:d].tolist(),
                              a.block_colour[:d].tolist(), a.block_size[:d].tolist(),
                              a.block_least[:d].tolist(), a.block_log_m[:d].tolist(),
                              after[:d], after[d:])

    def _place(self, block: list[int], target: int, log_m_after: float | None) -> None:
        reprice = log_m_after is None
        self.arrays.place(target, 0.0 if reprice else log_m_after, reprice)


def _block_options(log_prior, block: list[int], keys: list[int], colours: list[int],
                   sizes: list[int], least: list[int], log_m: list[float],
                   after: list[float], new_after: list[float]):
    """Placement options for a withdrawn block, from each live cluster's key,
    colour, size, least member, log marginal and log marginal with the block
    added, in insertion order, and the block's log marginal alone in a new
    cluster of each colour.

    Returns parallel lists: targets, a live cluster's key or ``-1 - c`` for
    a new cluster of colour c, their log weights, and the receiving
    cluster's log marginal and size after the move. Each option is priced
    by the prior of the per-colour cluster sizes it leaves, in canonical
    (least-member) order: the target grows by the block and moves up to the
    block's least member if that comes first, or a fresh cluster of the
    block's size is inserted there.
    """
    m = len(block)
    live = [[] for _ in new_after]  # (least member, position), per colour
    for j, (k, first) in enumerate(zip(colours, least)):
        live[k].append((first, j))
    rank, base = [0] * len(keys), []  # canonical place within the colour; sizes in that order
    for entries in live:
        entries.sort()
        for r, (_, j) in enumerate(entries):
            rank[j] = r
        base.append(tuple(sizes[j] for _, j in entries))
    # clusters of each colour whose least member precedes the block's
    at = [bisect_left(entries, (block[0],)) for entries in live]
    moves, logw, out, grown_to = [], [], [], []
    for j, (k, lm) in enumerate(zip(colours, after)):
        s, r, a = base[k], rank[j], at[k]
        grown = (s[:a] + (s[r] + m,) + s[a:r] + s[r + 1:] if a <= r
                 else s[:r] + (s[r] + m,) + s[r + 1:])
        lp = log_prior((*base[:k], grown, *base[k + 1:]))
        if lp == LOG_ZERO:
            continue
        moves.append(keys[j])
        logw.append(lp + lm - log_m[j])
        out.append(lm)
        grown_to.append(s[r] + m)
    for k, lm in enumerate(new_after):
        s, a = base[k], at[k]
        lp = log_prior((*base[:k], s[:a] + (m,) + s[a:], *base[k + 1:]))
        if lp == LOG_ZERO:
            continue
        moves.append(-1 - k)
        logw.append(lp + lm)
        out.append(lm)
        grown_to.append(m)
    return moves, logw, out, grown_to


def _subset_move(chain: ChainState | _ArrayState, max_size: int) -> None:
    """One randomly-selected block move on either state, corrected for
    selection asymmetry.

    A uniform current cluster and a uniform nonempty subset of it (size
    capped) are selected, and the block placement is redrawn from its
    conditional. Because the selection probability depends on the state,
    the redraw alone would bias the chain; a Metropolis-Hastings factor
    min(1, sel(S|new)/sel(S|old)) restores exact invariance: sel(S|new)
    needs only the cluster count before the move and the receiving
    cluster's size after it, which ``subset_candidates`` returns.
    """
    rng = chain.rng
    degree = chain._degree()
    key, colour, members = chain._pick(int(rng.integers(degree)))
    m = len(members)
    n_subsets, cdf = _subset_law(m, max_size)
    size = bisect_right(cdf, rng.random()) + 1
    picked = rng.choice(m, size=size, replace=False)
    block = sorted(members[j] for j in picked)

    # 1 / sel(S|old), an integer: the counts outgrow a float on large clusters
    inv_before = degree * n_subsets
    chain._withdraw(*block)
    remaining = degree - (size == m)  # the picked cluster is gone if the block was all of it

    moves, logw, after, grown = chain.subset_candidates(block)
    if moves:
        idx = _draw(logw, rng)
        inv_after = (remaining + (moves[idx] < 0)) * _subset_law(grown[idx], max_size)[0]
        # min(1, sel(S|new) / sel(S|old)), the integer ratio rounded once
        if rng.random() < (inv_before / inv_after if inv_before < inv_after else 1.0):
            chain._place(block, moves[idx], after[idx])
            return
    # rejected, or no placement is possible (only from a zero-probability
    # state): the block goes back where it came from, or to a new cluster
    # of its colour if it was all of it, priced afresh
    chain._place(block, key if size < m else -1 - colour, None)


@lru_cache(maxsize=4096)
def _subset_law(m: int, max_size: int) -> tuple[int, tuple[float, ...]]:
    """The number of nonempty subsets of at most ``max_size`` of m items, and
    the running totals from which a uniform subset's size s is drawn, as
    ``Generator.choice(sizes, p=comb(m, s) / total)`` draws it: one uniform
    against ``cumsum(p) / cumsum(p)[-1]``, found by bisection. The counts
    stay integers, and ``comb / total`` is rounded once, as numpy's float
    division of the two rounds it while the total is below 2**53."""
    counts = [math.comb(m, s) for s in range(1, min(max_size, m) + 1)]
    total = sum(counts)
    cdf = list(accumulate(c / total for c in counts))
    return total, tuple(c / cdf[-1] for c in cdf)


def build_engines(Y: np.ndarray, design: DesignBlock,
                  specs: NormalGammaSpec | Sequence[NormalGammaSpec],
                  model: PartitionPrior) -> list[NIGEngine]:
    """One engine per model colour, shared by the colours given one spec object."""
    if isinstance(specs, NormalGammaSpec):
        specs = [specs]
    specs = list(specs)
    if len(specs) == 1 and model.n_colours > 1:
        specs = specs * model.n_colours
    if len(specs) != model.n_colours:
        raise ValidationError(
            f"model has {model.n_colours} colours but {len(specs)} priors given")
    built = {spec: NIGEngine(design, spec, Y) for spec in dict.fromkeys(specs)}  # by identity
    return [built[spec] for spec in specs]


#: Most uniforms drawn for one block of sweeps (512 KiB of doubles).
_BLOCK_UNIFORMS = 1 << 16

#: Most size keys a chain remembers the prior of (``ChainState._log_prior``).
_PRIOR_MEMO = 2048


def run_chain(Y: np.ndarray, design: DesignBlock, model: PartitionPrior,
              specs: NormalGammaSpec | Sequence[NormalGammaSpec],
              plan: SweepPlan, *, engines: Sequence | None = None,
              initial: Partition | ColouredPartition | None = None) -> list[TraceRecord]:
    """Run one chain and return the retained trace.

    A sweep reallocates items 0..n-1 in order, then performs one random
    subset move with probability ``plan.subset_move_rate``. The chain starts
    from ``ChainState``'s default state (all singletons, unless a bounded
    prior forbids it) unless ``initial`` is given, and is fully determined by
    ``plan.seed``.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ValidationError("data must be a nonempty n x S matrix")
    if Y.shape[1] != design.n_samples:
        raise ValidationError(
            f"data has {Y.shape[1]} samples per item, design expects {design.n_samples}")
    n = Y.shape[0]
    rng = np.random.default_rng(plan.seed)
    if engines is None:
        engines = build_engines(Y, design, specs, model)
    return ChainState(model, engines, n, rng, initial=initial).run(plan)


def _sizes_by_colour(cluster_colours: Sequence[int], cluster_sizes: Sequence[int],
                     n_colours: int) -> tuple[tuple[int, ...], ...]:
    """Each colour's cluster sizes, in the order the clusters are listed."""
    sizes = [[] for _ in range(n_colours)]
    for colour, size in zip(cluster_colours, cluster_sizes):
        sizes[colour].append(size)
    return tuple(map(tuple, sizes))


def _scored(log_prior, sweep: int, labels: tuple, colours: tuple,
            sizes: tuple[tuple[int, ...], ...], log_likelihood: float) -> TraceRecord:
    colour_degrees = tuple(map(len, sizes))
    return TraceRecord(sweep, labels, colours, sum(colour_degrees), colour_degrees,
                       log_prior(sizes) + log_likelihood)


def _kernel_records(log_prior, n_colours: int, sweeps: list[int],
                    arrays: _sweep.SweepArrays) -> list[TraceRecord]:
    """The records the kernel last took, one per sweep of ``sweeps``, read
    from ``arrays``' record buffers before another kernel call overwrites
    them and scored as ``ChainState.record`` scores them: the log likelihood
    is the built-in ``sum`` of the clusters' marginals in insertion order, as
    ``log_likelihood`` adds them."""
    rows = len(sweeps)
    degrees = arrays.degree[:rows].tolist()
    cluster_colour, cluster_size, log_m = (
        a[:sum(degrees)].tolist() for a in (arrays.cl_colour, arrays.cl_size, arrays.cl_log_m))
    records, start = [], 0
    for sweep, labels, colours, degree in zip(sweeps, arrays.labels[:rows].tolist(),
                                              arrays.colours[:rows].tolist(), degrees):
        end = start + degree
        sizes = _sizes_by_colour(cluster_colour[start:end], cluster_size[start:end], n_colours)
        records.append(_scored(log_prior, sweep, tuple(labels), tuple(colours), sizes,
                               float(sum(log_m[start:end]))))
        start = end
    return records
