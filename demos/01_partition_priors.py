"""Exact partition-prior computations.

Walks through the five prior families: evaluating log partition
probabilities, checking that they normalize over enumerated partitions, and
looking at two classical structural facts (sufficiency of the cluster count
for the concentration, and the size-configuration formula).
"""

import math

from cdpmix import (BackgroundDirichletProcess, ColouredDirichletProcess,
                    ConfigurationCounts, DirichletMultinomial, DirichletProcess,
                    Partition, PitmanYor, enumerate_coloured_partitions,
                    enumerate_partitions, log_eppf, log_ewens_config,
                    LOG_ZERO)

print("=== Partition probabilities under a Dirichlet process ===")
dp = DirichletProcess(1.0)
for p in enumerate_partitions(3):
    print(f"  P{p!r:<28} = {math.exp(log_eppf(dp, p)):.4f}")
total = sum(math.exp(log_eppf(dp, p)) for p in enumerate_partitions(3))
print(f"  sum over the 5 partitions of 3 items: {total:.12f}")

print("\n=== Concentration controls the cluster count ===")
for theta in (0.1, 1.0, 10.0):
    dp = DirichletProcess(theta)
    mean_d = sum(p.degree * math.exp(log_eppf(dp, p))
                 for p in enumerate_partitions(6))
    print(f"  theta={theta:<5g} E[#clusters of 6 items] = {mean_d:.2f}")

print("\n=== The cluster count is sufficient for the concentration ===")
p1, p2 = Partition([[0, 1], [2, 3]]), Partition([[0, 1, 2], [3]])
for theta in (0.1, 1.0, 10.0):
    dp = DirichletProcess(theta)
    ratio = math.exp(log_eppf(dp, p1) - log_eppf(dp, p2))
    print(f"  theta={theta:<5g} P(two 2-clusters)/P(3+1 split) = {ratio:.6f}")
print("  the ratio is free of theta: given the data, the degree carries")
print("  all the information the partition holds about theta.")

print("\n=== Size-configuration law (all partitions with the same sizes) ===")
for counts, note in [([3], "three singletons"), ([1, 1], "a pair and a singleton"),
                     ([0, 0, 1], "one triple")]:
    cfg = ConfigurationCounts(counts, n=3)
    print(f"  P(config {note:<22}) = {math.exp(log_ewens_config(cfg, 1.0)):.4f}")

print("\n=== Every family normalizes over its support ===")
models = [
    DirichletProcess(1.0),
    DirichletMultinomial(3, 0.8),
    PitmanYor(0.4, 1.2),
]
for model in models:
    terms = [log_eppf(model, p) for p in enumerate_partitions(5)]
    total = sum(math.exp(t) for t in terms if t != LOG_ZERO)
    print(f"  {type(model).__name__:<28} sum = {total:.12f}")
for model in [ColouredDirichletProcess([(1.0, 0.5), (2.0, 1.5)]),
              BackgroundDirichletProcess(1.5, 1.0)]:
    terms = [log_eppf(model, p) for p in enumerate_coloured_partitions(4, 2)]
    total = sum(math.exp(t) for t in terms if t != LOG_ZERO)
    print(f"  {type(model).__name__:<28} sum = {total:.12f}")

print("\n=== Coloured partitions: labels exchangeable only within colour ===")
cdp = ColouredDirichletProcess([(1.0, 0.5), (3.0, 2.0)])
rows = []
for cp in enumerate_coloured_partitions(2, 2):
    rows.append((math.exp(log_eppf(cdp, cp)), repr(cp)))
for prob, desc in sorted(rows, reverse=True):
    print(f"  {prob:.4f}  {desc}")
print("  colour 1 carries more weight and a higher concentration, so")
print("  the same uncoloured split has different probabilities per colour.")
