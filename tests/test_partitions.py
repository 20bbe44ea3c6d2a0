import numpy as np
import pytest

from cdpmix.errors import ValidationError
from cdpmix.partitions import (ColouredPartition, ConfigurationCounts, Partition,
                               enumerate_coloured_partitions, enumerate_configurations,
                               enumerate_partitions)


def test_canonicalize_groups_by_label():
    assert Partition.from_allocation([0, 0, 1]) == Partition([[0, 1], [2]])
    assert Partition.from_allocation([0, 1, 0, 1]) == Partition([[0, 2], [1, 3]])


def test_canonicalize_is_label_invariant():
    assert Partition.from_allocation([7, 7, 2]) == Partition.from_allocation([0, 0, 1])
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        labels = rng.integers(0, 4, size=n)
        perm = rng.permutation(10)
        relabelled = [perm[v] for v in labels]
        assert Partition.from_allocation(labels) == Partition.from_allocation(relabelled)


def test_canonicalize_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = Partition.from_allocation(rng.integers(0, 3, size=6))
        assert Partition.from_allocation(p.allocation()) == p


def test_empty_allocation_rejected():
    with pytest.raises(ValidationError):
        Partition.from_allocation([])


@pytest.mark.parametrize("clusters", [
    [[0, 1], [1, 2]],        # overlap
    [[0], [2]],              # gap
    [[0], []],               # empty cluster
])
def test_invalid_partitions_rejected(clusters):
    with pytest.raises(ValidationError):
        Partition(clusters)


def test_partition_canonical_order_and_sizes():
    p = Partition([[3, 1], [0, 2]])
    assert p.clusters == ((0, 2), (1, 3))
    assert p.sizes == (2, 2)
    assert p.degree == 2
    assert p.allocation() == (0, 1, 0, 1)


def test_enumeration_bell_counts():
    assert len(list(enumerate_partitions(3))) == 5
    assert len(list(enumerate_partitions(5))) == 52
    parts = list(enumerate_partitions(6))
    assert len(parts) == 203
    assert len(set(parts)) == 203


def test_enumeration_guard():
    with pytest.raises(ValidationError):
        list(enumerate_partitions(13))
    with pytest.raises(ValidationError):
        list(enumerate_partitions(0))


def test_coloured_enumeration_count():
    coloured = list(enumerate_coloured_partitions(3, 2))
    assert len(coloured) == 22  # sum of 2^degree over the 5 partitions
    assert len(set(coloured)) == 22


def test_colours_are_not_exchangeable():
    a = ColouredPartition([[[0, 1]], [[2]]], n_colours=2)
    b = ColouredPartition([[[2]], [[0, 1]]], n_colours=2)
    assert a != b
    assert a.flatten() == b.flatten()


def test_coloured_from_allocation_round_trip():
    cp = ColouredPartition.from_allocation([0, 0, 1, 2], [1, 1, 0, 1], n_colours=2)
    labels, colours = cp.allocation()
    assert ColouredPartition.from_allocation(labels, colours, 2) == cp
    assert cp.colour_totals() == (1, 3)
    assert cp.colour_degrees() == (1, 2)


def test_coloured_cluster_single_colour_enforced():
    with pytest.raises(ValidationError):
        ColouredPartition.from_allocation([0, 0], [0, 1], n_colours=2)


@pytest.mark.parametrize("labels,colours,message", [
    ([5, 3, 5], [1, 0, 0], "cluster 5 spans multiple colours"),
    ([0, 1], [0, 2], "colour 2 out of range"),
    ([0, 1], [0, -1], "colour -1 out of range"),
    ([0, 1], [0], "labels and colours must have equal length"),
    ([], [], "allocation vector is empty"),
], ids=["spans", "colour-too-high", "colour-negative", "unequal-lengths", "empty"])
def test_coloured_from_allocation_errors(labels, colours, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ColouredPartition.from_allocation(labels, colours, n_colours=2)


def test_coloured_from_allocation_allows_unused_colours():
    cp = ColouredPartition.from_allocation([4, 4, 9], [2, 2, 2], n_colours=3)
    assert cp.clusters_by_colour == ((), (), ((0, 1), (2,)))
    assert cp.allocation() == ((0, 0, 1), (2, 2, 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_plain_partition_is_the_one_colour_case(n):
    for p in enumerate_partitions(n):
        one = ColouredPartition([p.clusters], n_colours=1)
        assert p.n_colours == one.n_colours == 1
        assert p.clusters_by_colour == one.clusters_by_colour
        assert p.sizes_by_colour() == one.sizes_by_colour()
        assert one.flatten() == p
        assert one.allocation() == (p.allocation(), (0,) * n)


def test_one_colour_view_is_not_a_field():
    # equality and hashing of a plain partition see only n and its clusters
    from dataclasses import fields
    assert [f.name for f in fields(Partition)] == ["n", "clusters"]
    assert hash(Partition([[1], [0]])) == hash(Partition([[0], [1]]))


def test_shared_cover_check_message():
    for make in (lambda: Partition([[0], [2]]),
                 lambda: ColouredPartition([[[0]], [[2]]], n_colours=2)):
        with pytest.raises(ValidationError,
                           match=r"^clusters must be disjoint, nonempty, and cover 0\.\.1$"):
            make()


def test_configuration_counts():
    p = Partition([[0, 1], [2], [3, 4, 5]])
    cfg = ConfigurationCounts.from_partition(p)
    assert cfg.counts[:3] == (1, 1, 1)
    assert cfg.degree == 3
    with pytest.raises(ValidationError):
        ConfigurationCounts([1, 1], n=5)  # sums to 3, not 5


def test_enumerate_configurations_is_integer_partitions():
    assert len(list(enumerate_configurations(8))) == 22
    for cfg in enumerate_configurations(6):
        assert sum((r + 1) * a for r, a in enumerate(cfg.counts)) == 6
