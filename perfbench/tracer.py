"""In-memory span recorder that wraps cdpmix's public functions from outside.

Nothing under ``src/`` is edited: ``install`` replaces each traced function
or method with a wrapper, in every loaded ``cdpmix`` module that holds it,
so calls made through ``from .x import f`` names are caught too. A span is
(name, start_ns, end_ns, parent span); the parent is the innermost span
open when the call began, so a span's self time is its duration minus the
durations of its direct children. Counters are taken at the same
boundaries. Spans stay in memory until ``write`` is called at the end of
the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Fields of one span in the flat int64 buffer written by ``Tracer.write``.
SPAN_FIELDS = ("name_id", "start_ns", "end_ns", "parent")


class Tracer:
    """Holds spans and counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a callable ``(args, kwargs) -> str``;
        ``on_result(args, kwargs, result)`` runs after the span closes.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            idx = len(spans) // 4
            spans.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[4 * idx + 1] = t0
                spans[4 * idx + 2] = t1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def counting(self, key: str, fn):
        """Wrap ``fn`` so each call adds one to ``counts[key]`` (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counting_iter(self, key: str, fn):
        """Wrap a generator function so each yielded item adds one to ``counts[key]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        if not self.spans:
            return {}
        flat = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        nid, start, end, parent = flat.T
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_ns, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
                       "self_s": own[i] / 1e9}
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write spans as flat int64 quads to ``path`` plus a JSON header beside it."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "names": self.names,
                       "spans": len(self.spans) // 4, "counts": dict(self.counts)},
                      fh, indent=1)


def replace_everywhere(original, replacement, skip=()) -> int:
    """Rebind every ``cdpmix`` module attribute that is ``original``; returns how many."""
    hits = 0
    for modname, module in list(sys.modules.items()):
        if module is None or modname in skip:
            continue
        if modname != "cdpmix" and not modname.startswith("cdpmix."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def _patch_function(module, attr: str, make, skip=()) -> None:
    original = getattr(module, attr)
    if replace_everywhere(original, make(original), skip) == 0:
        raise RuntimeError(f"could not patch {module.__name__}.{attr}")


def _patch_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def _canonical_state(state) -> tuple:
    """The chain's coloured partition as a hashable value, independent of cluster ids."""
    first: dict[int, int] = {}
    labels = tuple(first.setdefault(cid, len(first)) for cid in state.item_cluster)
    colours = tuple(state.clusters[cid].colour for cid in state.item_cluster)
    return labels, colours


def install(tracer: Tracer) -> None:
    """Wrap the public calls into each cdpmix layer. Import cdpmix.cli first."""
    from cdpmix import (checks, cli, conjugate, estimation, generators, gibbs,
                        partitions, pipeline, priors)

    t = tracer
    span = t.span
    counts = t.counts

    # conjugate
    _patch_method(conjugate.ClusterEvaluator, "log_marginal_parts",
                  lambda f: span("conjugate.log_marginal_parts", f))

    # priors: one span name for every family's urn weights
    for cls in (priors.DirichletProcess, priors.DirichletMultinomial, priors.PitmanYor,
                priors.ColouredDirichletProcess, priors.BackgroundDirichletProcess):
        _patch_method(cls, "weight_lists", lambda f: span("priors.weight_lists", f))
    _patch_function(priors, "log_eppf", lambda f: span("priors.log_eppf", f))

    # partitions: constructions and enumerated partitions, counted not timed.
    # The enumerators are wrapped where callers hold them, not inside
    # partitions, so the coloured enumerator's inner loop is not counted twice.
    for cls in (partitions.Partition, partitions.ColouredPartition):
        _patch_method(cls, "__init__",
                      lambda f: t.counting("partitions.constructed", f))
    for attr in ("enumerate_partitions", "enumerate_coloured_partitions"):
        _patch_function(partitions, attr,
                        lambda f: t.counting_iter("partitions.enumerated", f),
                        skip=("cdpmix.partitions",))

    # gibbs
    def count_sweeps(args, kwargs, result):
        plan = kwargs.get("plan", args[4] if len(args) > 4 else None)
        counts["gibbs.sweeps"] += plan.sweeps

    _patch_function(gibbs, "run_chain",
                    lambda f: span("gibbs.run_chain", f, on_result=count_sweeps))
    _patch_method(gibbs.ChainState, "reallocate_item",
                  lambda f: span("gibbs.reallocate_item", f))

    def count_moves(args, kwargs, result):
        counts["gibbs.item_candidates.moves"] += len(result[0])

    _patch_method(gibbs.ChainState, "item_candidates",
                  lambda f: span("gibbs.item_candidates", f, on_result=count_moves))
    _patch_method(gibbs.ChainState, "subset_candidates",
                  lambda f: span("gibbs.subset_candidates", f))
    _patch_method(gibbs.ChainState, "snapshot", lambda f: span("gibbs.snapshot", f))

    def wrap_subset_move(f):
        traced = span("gibbs.random_subset_move", f)

        @functools.wraps(f)
        def wrapper(state, *args, **kwargs):
            before = _canonical_state(state)
            result = traced(state, *args, **kwargs)
            if _canonical_state(state) != before:
                counts["gibbs.random_subset_move.changed"] += 1
            return result

        return wrapper

    _patch_method(gibbs.ChainState, "random_subset_move", wrap_subset_move)

    # estimation
    for attr in ("accumulate_similarity", "cluster_summaries", "expected_pairwise_loss"):
        _patch_function(estimation, attr, lambda f, a=attr: span(f"estimation.{a}", f))
    _patch_function(
        estimation, "optimal_partition",
        lambda f: span(lambda args, kwargs:
                       "estimation.optimal_partition." + kwargs.get("strategy", "greedy"), f))

    # pipeline
    def file_bytes(key):
        def hook(args, kwargs, result):
            counts[key] += os.path.getsize(args[0])
        return hook

    for attr in ("parse_config", "load_dataset", "run_pipeline", "run_chains",
                 "summarize_run"):
        _patch_function(pipeline, attr, lambda f, a=attr: span(f"pipeline.{a}", f))
    _patch_function(pipeline, "write_trace",
                    lambda f: span("pipeline.write_trace", f,
                                   on_result=file_bytes("pipeline.write_trace.bytes")))
    _patch_function(pipeline, "read_trace",
                    lambda f: span("pipeline.read_trace", f,
                                   on_result=file_bytes("pipeline.read_trace.bytes")))

    # generators
    for attr in ("sample_dp_partition_via_sticks", "sample_polya_sequence",
                 "sample_finite_mixture_alloc"):
        _patch_function(generators, attr, lambda f, a=attr: span(f"generators.{a}", f))

    # checks: run_all iterates the module-level list, so wrap its entries
    def count_failed(args, kwargs, result):
        if not result.passed:
            counts["checks.failed"] += 1

    checks.ALL_CHECKS[:] = [
        span("checks." + fn.__name__.removeprefix("check_"), fn, on_result=count_failed)
        for fn in checks.ALL_CHECKS]

    # cli: the root span of the timed call
    cli.main = span("cli.main", cli.main)
