"""Generative constructions and their agreement.

Draws stick-breaking weights, then samples partitions three ways (sticks,
urn sequence, finite-mixture limit) and compares the induced frequencies
with the exact partition law.
"""

import math

import numpy as np

from cdpmix import (DirichletProcess, Partition, UniformBase, enumerate_partitions, log_eppf,
                    sample_dp_partition_via_sticks, sample_finite_mixture_alloc,
                    sample_gem, sample_gem_two_param, sample_polya_sequence)

rng = np.random.default_rng(2026)

print("=== Breaking a stick ===")
theta = 1.0
sticks = sample_gem(theta, rng, n_sticks=8)
print("  weights:", np.round(sticks.weights, 4))
print(f"  residual after 8 breaks: {sticks.residual:.4f}"
      f"  (expected {(theta / (1 + theta)) ** 8:.4f} on average)")
print(f"  weights + residual = {sticks.weights.sum() + sticks.residual:.12f}")

print("\n=== Two-parameter sticks have heavier tails ===")
for discount in (0.0, 0.5):
    w1 = np.mean([sample_gem_two_param(discount, 1.0, rng, n_sticks=1).weights[0]
                  for _ in range(20_000)])
    print(f"  discount={discount}: E[first weight] = {w1:.3f} "
          f"(exact {(1 - discount) / (1 + 1.0):.3f})")

print("\n=== Three routes to the same partition law (n=4, theta=1) ===")
n, reps = 4, 30_000
states = list(enumerate_partitions(n))
index = {p: i for i, p in enumerate(states)}
freqs = {}

counts = np.zeros(len(states))
for _ in range(reps):
    labels = sample_dp_partition_via_sticks(n, theta, rng)
    counts[index[Partition.from_allocation(labels)]] += 1
freqs["sticks"] = counts / reps

counts = np.zeros(len(states))
for _ in range(reps):
    labels, _ = sample_polya_sequence(n, theta, UniformBase(), rng)
    counts[index[Partition.from_allocation(labels)]] += 1
freqs["urn"] = counts / reps

counts = np.zeros(len(states))
for _ in range(reps):
    labels = sample_finite_mixture_alloc(2000, theta / 2000, n, rng)
    counts[index[Partition.from_allocation(labels)]] += 1
freqs["finite"] = counts / reps

exact = np.array([math.exp(log_eppf(DirichletProcess(theta), p)) for p in states])
print(f"  {'partition':<32}{'exact':>8}{'sticks':>8}{'urn':>8}{'finite':>8}")
for i, p in enumerate(states):
    print(f"  {p!r:<32}{exact[i]:>8.4f}{freqs['sticks'][i]:>8.4f}"
          f"{freqs['urn'][i]:>8.4f}{freqs['finite'][i]:>8.4f}")
for name, f in freqs.items():
    print(f"  total variation {name:<7} vs exact: {0.5 * np.abs(f - exact).sum():.4f}")
