import ast
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cdpmix import _sweep, checks, pipeline
from cdpmix.cli import EXIT_VALIDATION, main
from cdpmix.errors import ValidationError
from cdpmix.estimation import accumulate_similarity, distinct_rows
from cdpmix.gibbs import TraceRecord, run_chain
from cdpmix.partitions import Partition, enumerate_partitions


@pytest.fixture
def tiny_run(tmp_path):
    rng = np.random.default_rng(1)
    data = tmp_path / "tiny.tsv"
    lines = ["id\ta\tb"]
    for i in range(6):
        shift = 0.0 if i < 3 else 3.0
        lines.append(f"it{i}\t{rng.normal() + shift:.4f}\t{rng.normal() + shift:.4f}")
    data.write_text("\n".join(lines) + "\n")
    ann = tmp_path / "ann.tsv"
    ann.write_text("id\tgrp\n" + "\n".join(f"it{i}\tsolo" for i in range(6)) + "\n")
    return {
        "data": str(data),
        "annotations": str(ann),
        "model": {"family": "dp", "concentration": 1.0},
        "prior": {"shape": 1.0, "rate": 1.0, "precision_z": 1.0},
        "design": {"Z": [[1.0], [1.0]]},
        "sweeps": 150, "burn_in": 50, "seed": 11,
        "out": str(tmp_path / "out"),
    }


# -------------------------------------------------------------- data loading

def test_bundled_fixture_has_expected_shape():
    table = pipeline.load_dataset(pipeline.bundled_data_path("rat_cns_synthetic.tsv"))
    assert table.n == 112
    assert table.n_samples == 9
    assert table.columns[0] == "e11"
    assert len(set(table.ids)) == 112


def test_minimal_two_row_file(tmp_path):
    f = tmp_path / "two.tsv"
    f.write_text("id\tx\na\t1.0\nb\t2.5\n")
    table = pipeline.load_dataset(str(f))
    assert table.n == 2 and table.n_samples == 1


def test_single_row_rejected(tmp_path):
    f = tmp_path / "one.tsv"
    f.write_text("id\tx\na\t1.0\n")
    with pytest.raises(ValidationError):
        pipeline.load_dataset(str(f))


def test_ragged_row_names_line(tmp_path):
    f = tmp_path / "ragged.tsv"
    f.write_text("id\tx\ty\na\t1.0\t2.0\nb\t3.0\n")
    with pytest.raises(ValidationError, match="row 3"):
        pipeline.load_dataset(str(f))


def test_non_numeric_cell_names_row_and_column(tmp_path):
    f = tmp_path / "bad.tsv"
    f.write_text("id\tx\ty\na\t1.0\t2.0\nb\t3.0\toops\n")
    with pytest.raises(ValidationError, match="row 3, column 'y'"):
        pipeline.load_dataset(str(f))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_cell_names_row_and_column(tmp_path, cell):
    f = tmp_path / "nonfinite.tsv"
    f.write_text(f"id\tx\ty\na\t1.0\t2.0\nb\t{cell}\t4.0\n")
    with pytest.raises(ValidationError, match=f"nonfinite.tsv: row 3, column 'x'"):
        pipeline.load_dataset(str(f))


def test_missing_cell_is_an_error(tmp_path):
    f = tmp_path / "missing.tsv"
    f.write_text("id\tx\ty\na\t1.0\t\nb\t3.0\t4.0\n")
    with pytest.raises(ValidationError):
        pipeline.load_dataset(str(f))


def test_duplicate_ids_disambiguated_with_warning(tmp_path):
    f = tmp_path / "dup.tsv"
    f.write_text("id\tx\ng\t1.0\ng\t2.0\n")
    with pytest.warns(UserWarning, match="duplicate id"):
        table = pipeline.load_dataset(str(f))
    assert table.ids == ["g", "g_2"]


@pytest.mark.parametrize("ids,renamed", [
    (["a", "a", "a_2"], ["a", "a_3", "a_2"]),
    (["a_2", "a", "a"], ["a_2", "a", "a_3"]),
    (["a", "a", "a", "a_3"], ["a", "a_2", "a_4", "a_3"]),
], ids=["taken-later", "taken-earlier", "taken-between"])
def test_a_renamed_duplicate_skips_every_id_in_use(tmp_path, ids, renamed):
    # a suffix another id already holds would leave two items one id: two
    # trace columns of one name, and annotations looked up for the wrong item
    f = tmp_path / "dup.tsv"
    f.write_text("id\tx\n" + "".join(f"{i}\t{k}.0\n" for k, i in enumerate(ids)))
    with pytest.warns(UserWarning, match="duplicate id 'a'"):
        table = pipeline.load_dataset(str(f))
    assert table.ids == renamed


def test_annotations_must_cover_all_ids(tmp_path):
    f = tmp_path / "ann.tsv"
    f.write_text("id\tgrp\na\tx\n")
    with pytest.raises(ValidationError, match="no annotation"):
        pipeline.load_annotations(str(f), ["a", "b"])


def test_an_annotation_id_listed_twice_is_a_validation_error(tmp_path):
    f = tmp_path / "ann.tsv"
    f.write_text("id\tgrp\na\tx\nb\ty\n\na\tz\n")
    with pytest.raises(ValidationError) as info:
        pipeline.load_annotations(str(f), ["a", "b"])
    assert str(info.value) == f"{f}: id 'a' is listed twice, on rows 2 and 5"


def test_an_annotation_column_listed_twice_is_a_validation_error(tmp_path):
    # crosstab.csv used to list only the second column's categories
    f = tmp_path / "ann.tsv"
    f.write_text("id\tcls\tgrp\tcls\na\tx\tu\ty\nb\ty\tu\tx\n")
    with pytest.raises(ValidationError) as info:
        pipeline.load_annotations(str(f), ["a", "b"])
    assert str(info.value) == f"{f}: category column 'cls' is listed twice, as columns 2 and 4"


@pytest.mark.parametrize("text,message", [
    ("", "file is empty"),
    ("id\n", "need an id column plus at least one {kind} column"),
    ("id\tx\na\t1\n\nb\t2\t3\n", "row 4 has 3 fields, expected 2"),
], ids=["empty", "id-only", "ragged"])
@pytest.mark.parametrize("kind", ["data", "category"])
def test_both_tables_share_their_header_and_row_checks(tmp_path, text, message, kind):
    f = tmp_path / "table.tsv"
    f.write_text(text)
    with pytest.raises(ValidationError) as info:
        if kind == "data":
            pipeline.load_dataset(str(f))
        else:
            pipeline.load_annotations(str(f), ["a", "b"])
    assert str(info.value) == f"{f}: " + message.format(kind=kind)


# -------------------------------------------------------------------- design

def test_default_design_rows():
    Z = pipeline.rat_timecourse_design()
    assert Z.shape == (9, 5)
    np.testing.assert_array_equal(Z[1], [1, 13, 0, 0, 0])   # embryonic day 13
    np.testing.assert_array_equal(Z[6], [0, 0, 1, 7, 0])    # postnatal day 7
    np.testing.assert_array_equal(Z[8], [0, 0, 0, 0, 1])    # adult
    design = pipeline.build_design("rat-timecourse", 9)
    np.testing.assert_array_equal(design.Z, Z)


def test_default_design_requires_nine_samples():
    with pytest.raises(ValidationError):
        pipeline.build_design(None, 5)


def test_design_from_csv(tmp_path):
    f = tmp_path / "z.csv"
    f.write_text("1.0,0.0\n0.0,1.0\n")
    design = pipeline.build_design({"Z": str(f)}, 2)
    np.testing.assert_array_equal(design.Z, np.eye(2))


def test_design_dimension_mismatch(tmp_path):
    with pytest.raises(ValidationError):
        pipeline.build_design({"Z": [[1.0], [1.0]]}, 3)


# -------------------------------------------------------------------- config

def test_unknown_preset_and_family_rejected(tiny_run):
    with pytest.raises(ValidationError):
        pipeline.parse_config({"preset": "nope"})
    bad = dict(tiny_run, model={"family": "mystery"})
    with pytest.raises(ValidationError):
        pipeline.parse_config(bad)
    with pytest.raises(ValidationError):
        pipeline.parse_config(dict(tiny_run, model={"family": "dp"}))


def test_prior_dimension_validation(tiny_run):
    bad = dict(tiny_run, prior={"mean_z": [0.0, 0.0]})
    with pytest.raises(ValidationError):
        pipeline.parse_config(bad)


def test_misspelt_top_level_key_rejected():
    # "sweep" must not silently fall back to the preset's 20000 sweeps
    with pytest.raises(ValidationError, match=r"unknown config keys: \['sweep'\]"):
        pipeline.parse_config({"preset": "wen-rat", "sweep": 10})


@pytest.mark.parametrize("section,value,key", [
    ("model", {"family": "dp", "concentration": 1.0, "concentraton": 2.0}, "concentraton"),
    ("model", {"family": "dp", "concentration": 1.0, "weight": 2.0}, "weight"),
    ("prior", {"shape": 1.0, "rate": 1.0, "precison_z": 1.0}, "precison_z"),
    ("prior", {"shape": 1.0, "fixed_z_coeffs": [0.0]}, "fixed_z_coeffs"),  # dp: unused
    ("loss", {"false_positive": 1.0, "false_negatve": 2.0}, "false_negatve"),
    ("design", {"Z": [[1.0], [1.0]], "x": [[0.0], [1.0]]}, "x"),
])
def test_misspelt_section_key_rejected(tiny_run, section, value, key):
    with pytest.raises(ValidationError, match=rf"unknown {section}.* keys: \['{key}'\]"):
        pipeline.parse_config(dict(tiny_run, **{section: value}))


def test_exact_strategy_rejected_before_sampling_for_large_n(tmp_path):
    # the bundled table has 112 items; the exact search stops at 12
    with pytest.raises(ValidationError,
                       match=r"strategy 'exact' is limited to n <= 12 items, the dataset has 112"):
        pipeline.parse_config({"preset": "wen-rat", "strategy": "exact"})
    cfg = tmp_path / "exact.json"
    cfg.write_text(json.dumps({"preset": "wen-rat", "strategy": "exact"}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("size", [0, -3])
def test_subset_max_size_must_be_positive(tiny_run, size):
    with pytest.raises(ValidationError, match=r"subset_max_size must be >= 1"):
        pipeline.parse_config(dict(tiny_run, subset_move_rate=1.0, subset_max_size=size))


@pytest.mark.parametrize("key", ["sweeps", "burn_in", "thin", "subset_move_rate",
                                 "subset_max_size", "seed", "chains",
                                 "loss.false_positive", "loss.false_negative"])
def test_non_numeric_value_names_its_key(tiny_run, key):
    section, _, name = key.rpartition(".")
    cfg = dict(tiny_run, **({section: {name: "ten"}} if section else {name: "ten"}))
    with pytest.raises(ValidationError, match=rf"^{key} must be a number, got 'ten'$"):
        pipeline.parse_config(cfg)


INTEGER_KEYS = ["sweeps", "burn_in", "thin", "subset_max_size", "seed", "chains"]


@pytest.mark.parametrize("key", INTEGER_KEYS)
@pytest.mark.parametrize("value", [3.9, -0.5, float("nan"), float("inf")])
def test_fractional_value_for_integer_key_names_it(tiny_run, key, value):
    # int() would truncate these: 3.9 sweeps ran 3, 2.5 chains ran 2
    with pytest.raises(ValidationError, match=rf"^{key} must be an integer, got "):
        pipeline.parse_config(dict(tiny_run, **{key: value}))


@pytest.mark.parametrize("key", INTEGER_KEYS)
@pytest.mark.parametrize("value", [True, False])
def test_boolean_value_for_integer_key_names_it(tiny_run, key, value):
    # int(True) is 1: a seed of true silently became seed 1
    with pytest.raises(ValidationError, match=rf"^{key} must be a number, got {value}$"):
        pipeline.parse_config(dict(tiny_run, **{key: value}))


def test_negative_seed_names_its_key(tiny_run):
    # np.random.SeedSequence rejected it only once the chains started
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -5$"):
        pipeline.parse_config(dict(tiny_run, seed=-5))
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -5$"):
        pipeline.parse_config({"preset": "wen-rat", "sweeps": 3, "burn_in": 1, "seed": -5})


def test_integral_float_for_integer_key_is_accepted(tiny_run):
    config = pipeline.parse_config(dict(tiny_run, sweeps=4.0, burn_in=1.0, seed=9.0))
    assert (config.plan.sweeps, config.plan.burn_in, config.plan.seed) == (4, 1, 9)
    assert isinstance(config.plan.sweeps, int)


def test_background_preset_builds_two_priors():
    config = pipeline.parse_config({"preset": "wen-rat", "sweeps": 2, "burn_in": 1})
    assert len(config.specs) == 2
    assert config.specs[0].is_background
    assert config.specs[0].n_coeffs == 0          # no X block in this model
    assert config.specs[1].n_coeffs == 5
    assert config.plan.seed == 0
    assert config.dataset.annotations              # bundled class file


# ----------------------------------------------------------------- artifacts

def test_run_emits_all_artifacts(tiny_run):
    config = pipeline.parse_config(tiny_run)
    manifest = pipeline.run_pipeline(config)
    assert manifest["artifacts"] == ["assignments.csv", "cluster_summaries.csv",
                                     "crosstab.csv", "manifest.json",
                                     "similarity.csv", "trace.csv"]
    for name in manifest["artifacts"]:
        assert os.path.exists(os.path.join(tiny_run["out"], name))


def test_small_run_searches_each_strategy_once(tiny_run, monkeypatch):
    # auto picks exact for 6 items; the comparison reuses that estimate
    calls = []
    search = pipeline.optimal_partition

    def counting(rho, loss, strategy):
        calls.append(strategy)
        return search(rho, loss, strategy=strategy)

    monkeypatch.setattr(pipeline, "optimal_partition", counting)
    estimate = pipeline.run_pipeline(pipeline.parse_config(tiny_run))["estimate"]
    assert sorted(calls) == ["exact", "greedy"]
    assert estimate["strategy"] == "exact"
    assert estimate["loss_exact"] == estimate["loss"]


def test_twelve_item_auto_run_uses_exact_search(tmp_path):
    rng = np.random.default_rng(4)
    data = tmp_path / "twelve.tsv"
    rows = [f"it{i}\t{rng.normal() + 3.0 * (i % 3):.4f}" for i in range(12)]
    data.write_text("id\tx\n" + "\n".join(rows) + "\n")
    cfg = {"data": str(data), "design": {"Z": [[1.0]]},
           "prior": {"shape": 1.0, "rate": 1.0, "precision_z": 1.0},
           "sweeps": 60, "burn_in": 10, "seed": 2, "out": str(tmp_path / "out")}
    estimate = pipeline.run_pipeline(pipeline.parse_config(cfg))["estimate"]
    assert estimate["strategy"] == "exact"


def test_same_seed_runs_are_byte_identical(tiny_run, tmp_path):
    first = pipeline.run_pipeline(pipeline.parse_config(tiny_run))
    other_dir = str(tmp_path / "out2")
    pipeline.run_pipeline(pipeline.parse_config(dict(tiny_run, out=other_dir)))
    for name in first["artifacts"]:
        a = open(os.path.join(tiny_run["out"], name), "rb").read()
        b = open(os.path.join(other_dir, name), "rb").read()
        assert a == b, name


def test_manifest_reproduces_run(tiny_run, tmp_path):
    pipeline.run_pipeline(pipeline.parse_config(tiny_run))
    manifest = json.load(open(os.path.join(tiny_run["out"], "manifest.json")))
    redo_dir = str(tmp_path / "redo")
    pipeline.run_pipeline(pipeline.parse_config(manifest["config"], out=redo_dir))
    for name in manifest["artifacts"]:
        a = open(os.path.join(tiny_run["out"], name), "rb").read()
        b = open(os.path.join(redo_dir, name), "rb").read()
        assert a == b, name


def _trace_records(path):
    """``read_trace`` as ``(ids, chain, sweep, labels, colours)``: the records'
    R x n label and colour blocks are ``rows[index]``, split in two."""
    ids, (chain, sweep, index, rows) = pipeline.read_trace(path)
    records = rows[index]
    return ids, chain, sweep, records[:, :len(ids)], records[:, len(ids):]


def test_trace_round_trip_reproduces_similarity(tiny_run):
    pipeline.run_pipeline(pipeline.parse_config(tiny_run))
    out = tiny_run["out"]
    _, _, _, labels, _ = _trace_records(os.path.join(out, "trace.csv"))
    sim = accumulate_similarity(labels)
    emitted = np.loadtxt(os.path.join(out, "similarity.csv"), delimiter=",", skiprows=1,
                         usecols=range(1, len(sim.matrix) + 1), ndmin=2)
    assert np.array_equal(sim.matrix, emitted)


def test_formatted_cells_equal_formatting_each_cell():
    # the similarity matrix is formatted once per distinct value
    rng = np.random.default_rng(9)
    rho = accumulate_similarity(rng.integers(0, 5, size=(997, 60))).matrix
    values = np.vstack([rho[:40], rng.normal(size=(20, 60)) * 10.0 ** rng.integers(-300, 300, 60)])
    values[0, :4] = [0.0, -0.0, np.inf, -np.inf]
    assert len(np.unique(values)) > 1000
    cells = pipeline._fmt_cells(values)
    assert cells == [[pipeline._fmt(values[i, j]) for j in range(60)] for i in range(60)]


def _write_trace_by_rows(path, ids, traces) -> None:
    """Oracle of ``write_trace``: one list of cells per record through ``csv.writer``."""
    header = ["chain", "sweep"] + [f"c:{i}" for i in ids] + [f"k:{i}" for i in ids]
    rows = []
    for chain_idx, trace in enumerate(traces):
        for rec in trace:
            rows.append([chain_idx, rec.sweep, *rec.labels, *rec.colours])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _random_traces(rng, lengths, n, first_sweep=0, thin=1, states=None):
    """Chains of records over ``states`` canonical (labels, colours) pairs
    (fresh random ones when None), sweeps from ``first_sweep`` by ``thin``."""
    if states is None:
        states = []
        for _ in range(20):
            raw = rng.integers(0, rng.integers(1, 14), size=n)
            first = {}
            labels = tuple(first.setdefault(x, len(first)) for x in raw.tolist())
            states.append((labels, tuple(rng.integers(0, 2, size=n).tolist())))
    traces = []
    for length in lengths:
        picks = rng.integers(len(states), size=length)
        traces.append([TraceRecord(first_sweep + j * thin, *states[k], max(states[k][0]) + 1,
                                   (0,), 0.0) for j, k in enumerate(picks.tolist())])
    return traces


def _assert_trace_bytes_match_oracle(tmp_path, ids, traces):
    expected, by_records, by_table = (tmp_path / name for name in ("oracle.csv", "records.csv",
                                                                   "table.csv"))
    _write_trace_by_rows(expected, ids, traces)
    pipeline.write_trace(str(by_records), ids, traces)
    pipeline.write_trace(str(by_table), ids, pipeline.stack_traces(traces, len(ids)))
    assert by_records.read_bytes() == expected.read_bytes()
    assert by_table.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("lengths", [[30], [7, 0, 19, 1]], ids=["one-chain", "chains"])
def test_trace_writer_matches_the_csv_writer(tmp_path, lengths):
    ids = ["a", "b,c", 'd"e', "f"] + [f"g{i}" for i in range(8)]
    traces = _random_traces(np.random.default_rng(31), lengths, len(ids), first_sweep=3,
                            thin=7)
    _assert_trace_bytes_match_oracle(tmp_path, ids, traces)


@pytest.mark.parametrize("traces", [[], [[]], [[], []]], ids=["none", "one", "two"])
def test_empty_trace_is_its_header(tmp_path, traces):
    _assert_trace_bytes_match_oracle(tmp_path, ["a", "b"], traces)
    assert (tmp_path / "table.csv").read_text() == "chain,sweep,c:a,c:b,k:a,k:b\n"


def test_trace_longer_than_one_chunk_matches_the_csv_writer(tmp_path):
    # sweep numbers far apart take the sorted table, near ones the marked range
    rng = np.random.default_rng(32)
    lengths = [pipeline._TRACE_CHUNK + 17, pipeline._TRACE_CHUNK - 3]
    ids = [f"i{j}" for j in range(9)]
    sparse = _random_traces(rng, lengths, len(ids), first_sweep=10 ** 9, thin=10 ** 6)
    dense = _random_traces(rng, lengths, len(ids))
    for traces in (sparse, dense):
        _assert_trace_bytes_match_oracle(tmp_path, ids, traces)


def test_rat_summarize_shaped_trace_matches_the_csv_writer(tmp_path):
    # four chains of 10000 records over 112 items, resampled from 20 states,
    # as the summarize benchmark writes its input
    traces = _random_traces(np.random.default_rng(33), [10_000] * 4, 112,
                            first_sweep=10_000)
    _assert_trace_bytes_match_oracle(tmp_path, [f"gene{i}" for i in range(112)], traces)


def test_distinct_rows_past_one_chunk_match_the_csv_writer(tmp_path):
    # every row distinct (colours spell the record's number in binary), so
    # the distinct rows are formatted in more than one chunk
    rng = np.random.default_rng(41)
    n, count = 14, pipeline._TRACE_CHUNK + 17
    records = []
    for j in range(count):
        first: dict = {}
        labels = tuple(first.setdefault(x, len(first))
                       for x in rng.integers(0, 1 + j % 14, size=n).tolist())
        colours = tuple((j >> bit) & 1 for bit in range(n))
        records.append(TraceRecord(j, labels, colours, max(labels) + 1, (0,), 0.0))
    traces = [records[:100], records[100:]]
    assert len(pipeline.stack_traces(traces, n).rows) == count
    _assert_trace_bytes_match_oracle(tmp_path, [f"i{j}" for j in range(n)], traces)


def _stack_by_records(traces, n) -> np.ndarray:
    """Oracle of ``stack_traces``: every record's labels and colours as one
    row, R x 2n, stacked as the trace table held them before it kept each
    distinct row once."""
    records = [rec for trace in traces for rec in trace]
    labels = np.array([rec.labels for rec in records], dtype=np.int32).reshape(-1, n)
    colours = np.array([rec.colours for rec in records], dtype=np.int32).reshape(-1, n)
    return np.column_stack([labels, colours])


@pytest.mark.parametrize("lengths", [[30], [7, 0, 19, 1], [0]],
                         ids=["one-chain", "chains", "empty"])
def test_stacked_and_read_traces_hold_the_distinct_rows(tmp_path, monkeypatch, lengths):
    ids = [f"g{i}" for i in range(10)]
    traces = _random_traces(np.random.default_rng(42), lengths, len(ids), first_sweep=3,
                            thin=7)
    # records whose tuples equal others' but are distinct objects are one row
    traces = [trace + [dataclasses.replace(rec, labels=tuple(list(rec.labels)),
                                           colours=tuple(list(rec.colours)))
                       for rec in trace[::2]] for trace in traces]
    table = pipeline.stack_traces(traces, len(ids))
    index, rows = distinct_rows(_stack_by_records(traces, len(ids)))
    assert table.index.tolist() == index.tolist()
    assert table.rows.dtype == np.int32 and np.array_equal(table.rows, rows)
    assert len(rows) == len({(rec.labels, rec.colours) for trace in traces for rec in trace})
    path = str(tmp_path / "trace.csv")
    pipeline.write_trace(path, ids, table)
    read = [pipeline.read_trace(path)]
    with monkeypatch.context() as m:
        m.setattr(_sweep, "library", lambda: None)
        read.append(pipeline.read_trace(path))
    for read_ids, read_table in read:
        assert read_ids == ids
        for name in pipeline.TraceTable._fields:
            assert getattr(read_table, name).tolist() == getattr(table, name).tolist(), name


@pytest.mark.parametrize("low,high", [(5, 60), (-40, 3), (-2 ** 40, 2 ** 40)],
                         ids=["offset", "negative", "sparse"])
def test_int_rows_match_the_csv_writer(low, high):
    body = np.random.default_rng(34).integers(low, high, size=(50, 7))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(body.tolist())
    assert pipeline._csv_int_rows(body) == buffer.getvalue()


_TRACE_HEAD = "chain,sweep,c:a,c:b,k:a,k:b\n0,5,0,1,0,0\n"


def _write_trace_text(tmp_path, body: str, head: str = _TRACE_HEAD) -> str:
    path = tmp_path / "trace.csv"
    path.write_bytes((head + body).encode())
    return str(path)


def _read_trace_outcome(path):
    """``read_trace``'s chain, sweep, labels and colours (``rows[index]``) with
    their dtypes, or its error text."""
    try:
        ids, *arrays = _trace_records(path)
    except ValidationError as exc:
        return str(exc)
    return ids, [(a.dtype, a.shape, a.tolist()) for a in arrays]


def _both_readers(monkeypatch, path):
    """``_read_trace_outcome`` on the compiled reader (where it builds), then
    on its Python port, forced as a failed build forces it."""
    compiled = _read_trace_outcome(path)
    with monkeypatch.context() as m:
        m.setattr(_sweep, "library", lambda: None)
        return compiled, _read_trace_outcome(path)


def test_read_trace_returns_arrays(tmp_path, monkeypatch):
    path = _write_trace_text(tmp_path, "1,6,0,0,1,1\n")
    ids, chain, sweep, labels, colours = _trace_records(path)
    assert ids == ["a", "b"]
    assert chain.tolist() == [0, 1] and sweep.tolist() == [5, 6]
    assert labels.tolist() == [[0, 1], [0, 0]]
    assert colours.tolist() == [[0, 0], [1, 1]]
    compiled, numpy_reader = _both_readers(monkeypatch, path)
    assert compiled == numpy_reader


@pytest.mark.parametrize("body", ["0,6,0,x,0,0\n", "0,6,0,1.5,0,0\n"])
def test_read_trace_non_integer_cell_names_line(tmp_path, monkeypatch, body):
    path = _write_trace_text(tmp_path, body)
    with pytest.raises(ValidationError, match="^" + re.escape(path) + ": line 3: invalid literal"):
        pipeline.read_trace(path)
    compiled, numpy_reader = _both_readers(monkeypatch, path)
    assert compiled == numpy_reader


def test_read_trace_short_row_names_line(tmp_path, monkeypatch):
    path = _write_trace_text(tmp_path, "0,6,0,1,0,0\n0,7,0,1\n")
    with pytest.raises(ValidationError,
                       match="^" + re.escape(path) + ": line 4 has 4 fields, expected 6"):
        pipeline.read_trace(path)
    compiled, numpy_reader = _both_readers(monkeypatch, path)
    assert compiled == numpy_reader


def test_read_trace_names_a_bad_line_below_a_comment_line(tmp_path, monkeypatch):
    # a "#" line is no trace line: both readers name it, not the bad line below
    path = _write_trace_text(tmp_path, "# note\n0,5,0,1,0,x\n",
                             head="chain,sweep,c:a,c:b,k:a,k:b\n")
    compiled, numpy_reader = _both_readers(monkeypatch, path)
    assert compiled == numpy_reader == f"{path}: line 2 has 1 fields, expected 6"


_DIGITS_UP_TO = ", expected ASCII digits up to 2147483647"
_READ = (["a", "b"], [0, 1], [5, 6], [[0, 1, 0, 0], [0, 0, 1, 1]])


@pytest.mark.parametrize("head,body,outcome", [
    (_TRACE_HEAD.replace("\n", "\r\n"), "1,6,0,0,1,1\r\n",
     "line 1 does not end in a bare newline"),
    (_TRACE_HEAD, "1,6,0,0,1,1\r\n", "line 3: invalid literal in field 6: '1\\r'" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "\n1,6,0,0,1,1\n", "line 3 has 1 fields, expected 6"),
    (_TRACE_HEAD, "1,6,0,0,1,1", "line 3 does not end in a newline"),
    (_TRACE_HEAD, "1,2147483647,0,0,1,1\n", (_READ[0], [0, 1], [5, 2147483647], _READ[3])),
    (_TRACE_HEAD, "1,2147483648,0,0,1,1\n",
     "line 3: invalid literal in field 2: '2147483648'" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "1,-6,0,0,1,1\n", "line 3: invalid literal in field 2: '-6'" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "1,+5,0,0,1,1\n", "line 3: invalid literal in field 2: '+5'" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "1, 5,0,0,1,1\n", "line 3: invalid literal in field 2: ' 5'" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "1,6,0,0,1,\n", "line 3: invalid literal in field 6: ''" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "1,6,0,0,1,1,1\n", "line 3 has 7 fields, expected 6"),
    (_TRACE_HEAD, "1,006,0,0,1,1\n", _READ),
    ("chain,sweep,c:a,c:b,k:a,k:b\n", "", (_READ[0], [], [], [])),
    (_TRACE_HEAD, "1,6,0,\xff,1,1\n",
     "line 3: invalid literal in field 4: '\\xff'" + _DIGITS_UP_TO),
    ("chain,sweep,c:\xff,c:b,k:\xff,k:b\n", "0,5,0,1,0,0\n",
     "not UTF-8 text (invalid start byte)"),
    (_TRACE_HEAD, "1,1_0,0,0,1,1\n", "line 3: invalid literal in field 2: '1_0'" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "1,\u0663,0,0,1,1\n",
     "line 3: invalid literal in field 2: '\\xd9\\xa3'" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "1,6,0\r,0,1,1\n", "line 3: invalid literal in field 3: '0\\r'" + _DIGITS_UP_TO),
    (_TRACE_HEAD, "1,00000000006,0,0,1,1\n", _READ),
], ids=["crlf", "crlf-body", "blank-line", "no-final-newline", "int32-max", "int32-max+1",
        "negative", "plus-sign", "space", "empty-cell", "long-row", "leading-zeros",
        "empty-body", "ff-body", "ff-header", "underscore", "arabic-digit", "lone-cr",
        "ten-digit-zeros"])
def test_read_trace_agrees_on_both_readers(tmp_path, monkeypatch, head, body, outcome):
    path = tmp_path / "trace.csv"
    # "\xff" stands for the byte 0xFF, which no text encodes
    path.write_bytes((head + body).encode().replace("\xff".encode(), b"\xff"))
    path = str(path)
    compiled, numpy_reader = _both_readers(monkeypatch, path)
    assert compiled == numpy_reader
    if isinstance(outcome, str):
        assert compiled == f"{path}: {outcome}"
    else:
        ids, chain, sweep, records = outcome
        labels, colours = [r[:2] for r in records], [r[2:] for r in records]
        assert [ids] + [values for _, _, values in compiled[1]] == [ids, chain, sweep, labels,
                                                                     colours]


def test_read_trace_agrees_on_both_readers_on_damaged_traces(tmp_path, monkeypatch):
    # each reader accepts exactly the lines the other accepts, and names the same first bad one
    rng = np.random.default_rng(41)
    good = (_TRACE_HEAD + "1,6,0,10,1,1\n2,7,0,1,0,1\n").encode()
    path = tmp_path / "trace.csv"
    outcomes = set()
    for _ in range(300):
        body = bytearray(good)
        for _ in range(int(rng.integers(1, 3))):
            pos = int(rng.integers(len(_TRACE_HEAD), len(body) + 1))  # in the body only
            byte = bytes([rng.choice(list(b"0123456789,\n\r- \xff"))])
            body[pos:pos + int(rng.integers(2))] = byte if rng.integers(3) else b""
        path.write_bytes(bytes(body))
        compiled, python_reader = _both_readers(monkeypatch, str(path))
        assert compiled == python_reader, bytes(body)
        outcomes.add(compiled.split(": ", 2)[1] if isinstance(compiled, str) else "read")
    assert "read" in outcomes and len(outcomes) > 5, outcomes


def _forbid_read_body(monkeypatch):
    """Make the Python trace reader raise, so that only the compiled reader
    can read a trace; skips where the library cannot be built."""
    if _sweep.library() is None:
        pytest.skip("the compiled trace reader cannot be built here")

    def no_read_body(*args, **kwargs):
        raise AssertionError("the compiled reader fell back to the Python reader")

    monkeypatch.setattr(pipeline, "_read_body", no_read_body)


def test_read_trace_carries_rows_across_chunks(tmp_path, monkeypatch):
    # 16-byte chunks: most of these 12- to 15-byte rows straddle a chunk boundary
    body = "".join(f"{j % 3},{10 * j},{j % 2},0,1,{j % 2}\n" for j in range(40))
    path = _write_trace_text(tmp_path, body)
    monkeypatch.setattr(pipeline, "_READ_CHUNK", 16)
    _, numpy_reader = _both_readers(monkeypatch, path)
    _forbid_read_body(monkeypatch)
    assert _read_trace_outcome(path) == numpy_reader


def test_written_traces_take_the_compiled_reader(tmp_path, monkeypatch):
    # a silent fallback to the Python reader would keep every result and lose the speed
    traces = _random_traces(np.random.default_rng(35), [10_000] * 4, 112, first_sweep=10_000)
    path = str(tmp_path / "trace.csv")
    pipeline.write_trace(path, [f"gene{i}" for i in range(112)], traces)
    _forbid_read_body(monkeypatch)
    _, chain, sweep, labels, colours = _trace_records(path)
    table = pipeline.stack_traces(traces, 112)
    records = table.rows[table.index]
    assert chain.dtype == labels.dtype == np.int32
    assert np.array_equal(chain, table.chain) and np.array_equal(sweep, table.sweep)
    assert np.array_equal(labels, records[:, :112]) and np.array_equal(colours, records[:, 112:])


def test_read_trace_keeps_each_distinct_row_once(tmp_path, monkeypatch):
    # repeated rows come out once, in order of first occurrence; a row with
    # the same values as another but different text (leading zeros) may stay
    # separate, as long as rows[index] holds each line's values
    path = _write_trace_text(tmp_path, "0,6,0,0,1,1\n1,5,0,1,0,0\n1,6,0,00,1,1\n")
    _, (chain, sweep, index, rows) = pipeline.read_trace(path)
    assert chain.tolist() == [0, 0, 1, 1] and sweep.tolist() == [5, 6, 5, 6]
    assert rows[index].tolist() == [[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 1, 1]]
    assert rows[:2].tolist() == [[0, 1, 0, 0], [0, 0, 1, 1]]
    assert index[:3].tolist() == [0, 1, 0]
    compiled, numpy_reader = _both_readers(monkeypatch, path)
    assert compiled == numpy_reader


def test_read_trace_grows_its_buffers(tmp_path, monkeypatch):
    # room for one row at first, and 16-byte chunks; new rows keep coming
    # after a long repeated start, so the room for rows and for their text
    # grows many times, and the slot table is rehashed at each growth
    rng = np.random.default_rng(36)
    states = ["0100"] + [f"{s:04d}" for s in rng.choice(10 ** 4, size=60, replace=False)]
    picks = np.r_[np.zeros(300, dtype=int), rng.integers(1, 61, size=500)]  # 0100 heads it
    body = "".join(f"{j % 3},{j % 10},{','.join(states[k])}\n"  # 12-byte lines
                   for j, k in enumerate(picks))
    path = _write_trace_text(tmp_path, body)
    monkeypatch.setattr(pipeline, "_READ_ROOM", 1)
    monkeypatch.setattr(pipeline, "_READ_CHUNK", 16)
    _, numpy_reader = _both_readers(monkeypatch, path)
    _forbid_read_body(monkeypatch)
    grown = []
    grow = _sweep.TraceReader._grow
    monkeypatch.setattr(_sweep.TraceReader, "_grow",
                        lambda reader, status, ahead: grown.append(status) or grow(reader, status,
                                                                                    ahead))
    assert _read_trace_outcome(path) == numpy_reader
    assert grown.count(_sweep._ROOM_ROWS) >= 4 and grown.count(_sweep._ROOM_TEXT) >= 4, grown
    _, (_, _, index, rows) = pipeline.read_trace(path)
    assert len(rows) == len({tuple(row) for row in rows[index].tolist()}) > 50


def test_read_trace_without_repeats(tmp_path, monkeypatch):
    rng = np.random.default_rng(37)
    table = np.column_stack([np.zeros(3000, dtype=int), np.arange(3000),
                             rng.integers(0, 2 ** 31 - 1, size=(3000, 4))])
    table[:, 2] = np.arange(3000)  # every row distinct
    path = _write_trace_text(tmp_path, "".join(",".join(map(str, r)) + "\n"
                                               for r in table.tolist()))
    monkeypatch.setattr(pipeline, "_READ_ROOM", 4)
    _, numpy_reader = _both_readers(monkeypatch, path)
    _forbid_read_body(monkeypatch)
    assert _read_trace_outcome(path) == numpy_reader
    _, (_, _, index, rows) = pipeline.read_trace(path)
    assert index.tolist() == list(range(3001)) and len(rows) == 3001


@pytest.mark.parametrize("head,field", [
    ("foo,bar,x:a,y:b,z:q,w:r\n", "header field 1 is 'foo', expected 'chain'"),
    ("chain,bar,c:a,c:b,k:a,k:b\n", "header field 2 is 'bar', expected 'sweep'"),
    ("chain,sweep,c:a,x:b,k:a,k:b\n", "header field 4 is 'x:b', expected 'c:<id>'"),
    ("chain,sweep,c:a,c:b,k:a,k:q\n", "header field 6 is 'k:q', expected 'k:b'"),
    ("chain,sweep,c:a,c:b,k:b,k:a\n", "header field 5 is 'k:b', expected 'k:a'"),
    ("chain,sweep,c:a,c:b,c:a,c:b\n", "header field 5 is 'c:a', expected 'k:a'"),
    ("chain,sweep,c:" + "a" * 200_000 + ",k:a\n", "header: field larger than field limit"),
], ids=["names", "sweep", "c-prefix", "k-id", "k-order", "no-k", "huge-field"])
def test_read_trace_rejects_a_header_naming_other_columns(tmp_path, monkeypatch, head, field):
    # any header with 2 + 2n fields used to be read, its ids cut from the c: fields
    path = _write_trace_text(tmp_path, "0,5,0,1,0,0\n", head=head)
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: {field}")):
        pipeline.read_trace(path)
    compiled, numpy_reader = _both_readers(monkeypatch, path)
    assert compiled == numpy_reader


def test_read_trace_reads_the_ids_the_writer_quotes(tmp_path):
    ids = ["a", "b,c", 'd"e', "c:f"]
    path = str(tmp_path / "trace.csv")
    pipeline.write_trace(path, ids, _random_traces(np.random.default_rng(38), [5], len(ids)))
    assert pipeline.read_trace(path)[0] == ids


def test_read_trace_peak_memory_follows_the_distinct_rows(tmp_path):
    # the benchmark-shaped trace: 40000 records of 2 x 112 cells, 20 states;
    # an R x 2n int32 table of it alone takes 36 MB
    traces = _random_traces(np.random.default_rng(35), [10_000] * 4, 112, first_sweep=10_000)
    path = str(tmp_path / "trace.csv")
    pipeline.write_trace(path, [f"gene{i}" for i in range(112)], traces)
    if _sweep.library() is None:
        pytest.skip("the compiled trace reader cannot be built here")
    tracemalloc.start()
    try:
        _, (_, _, _, rows) = pipeline.read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) <= 20
    assert peak < 40_000 * 224 * 4 / 4, peak


def test_summarize_names_a_repeated_bad_colour_row_at_its_first_line(tiny_run, capsys,
                                                                      monkeypatch):
    cfg = dict(tiny_run, model={"family": "cdp", "colours": [[1.0, 1.0], [1.0, 0.5]]})
    pipeline.run_pipeline(pipeline.parse_config(cfg))
    trace = os.path.join(cfg["out"], "trace.csv")
    lines = open(trace).read().splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[2 + 6 + 3] = "2"  # k:it3, on lines 6, 8 and 9
    bad = ",".join(cells[2:])
    for j in (5, 7, 8):
        lines[j] = ",".join(lines[j].split(",")[:2]) + "," + bad
    with open(trace, "w") as fh:
        fh.writelines(lines)
    expected = f"error: {trace}: line 6, column k:it3: colour 2 is outside [0, 2)\n"
    assert _cli_error(capsys, "summarize", "--out", cfg["out"]) == expected
    monkeypatch.setattr(_sweep, "library", lambda: None)
    assert _cli_error(capsys, "summarize", "--out", cfg["out"]) == expected


@pytest.mark.parametrize("edit,message", [
    (lambda ids: ids[:2] + ["zz"] + ids[3:], "item 3 is 'zz', but item 3 of the configured "
                                             "dataset is 'it2'"),
    (lambda ids: ids[:-1], "the trace has 5 items, but the configured dataset has 6"),
], ids=["renamed", "short"])
def test_summarize_names_the_first_id_that_differs(tiny_run, capsys, edit, message):
    pipeline.run_pipeline(pipeline.parse_config(tiny_run))
    trace = os.path.join(tiny_run["out"], "trace.csv")
    ids, table = pipeline.read_trace(trace)
    ids = edit(ids)
    kept = list(range(len(ids))) + list(range(6, 6 + len(ids)))  # labels, then colours
    pipeline.write_trace(trace, ids, table._replace(rows=table.rows[:, kept]))
    err = _cli_error(capsys, "summarize", "--out", tiny_run["out"])
    assert err == f"error: {trace}: {message}\n"


def _majority_colours_per_record(partition, colours, n_colours):
    """Oracle of ``_majority_colours``: counts over every record's colours."""
    freq = np.stack([(colours == k).sum(axis=0) for k in range(n_colours)], axis=1)
    return [int(freq[list(c)].sum(axis=0).argmax()) for c in partition.clusters]


def test_majority_colours_of_distinct_rows_match_the_per_record_count():
    rng = np.random.default_rng(39)
    n, n_colours = 12, 3
    partition = Partition.from_allocation(rng.integers(0, 4, size=n).tolist())
    distinct = rng.integers(0, n_colours, size=(7, n))
    # rows 0 and 1 colour every item 0 and 1 with equal weight: a tie in every cluster
    distinct[0], distinct[1] = 0, 1
    for weights in ([5, 5, 0, 0, 0, 0, 0], rng.integers(0, 9, size=7)):
        records = np.repeat(distinct, weights, axis=0)
        assert (pipeline._majority_colours(partition, distinct, np.asarray(weights), n_colours)
                == _majority_colours_per_record(partition, records, n_colours))


def test_single_category_crosstab_lists_cluster_sizes(tiny_run):
    pipeline.run_pipeline(pipeline.parse_config(tiny_run))
    out = tiny_run["out"]
    rows = open(os.path.join(out, "crosstab.csv")).read().strip().splitlines()[1:]
    counts = [int(r.split(",")[-1]) for r in rows]
    assert sum(counts) == 6
    assignments = open(os.path.join(out, "assignments.csv")).read().strip().splitlines()[1:]
    sizes: dict = {}
    for line in assignments:
        sizes[line.split(",")[1]] = sizes.get(line.split(",")[1], 0) + 1
    assert sorted(counts) == sorted(sizes.values())


def test_summarize_recomputes_identically(tiny_run, tmp_path, monkeypatch):
    coloured = dict(tiny_run, out=str(tmp_path / "coloured"), chains=2,
                    model={"family": "cdp", "colours": [[1.0, 1.0], [1.0, 0.5]]})
    for cfg in (tiny_run, coloured):
        pipeline.run_pipeline(pipeline.parse_config(cfg))
        out = cfg["out"]
        before = {name: open(os.path.join(out, name), "rb").read()
                  for name in ("similarity.csv", "assignments.csv",
                               "cluster_summaries.csv", "crosstab.csv")}
        pipeline.summarize_run(out)
        for name, content in before.items():
            assert open(os.path.join(out, name), "rb").read() == content
        with monkeypatch.context() as m:  # the Python reader, as without a C compiler
            m.setattr(_sweep, "library", lambda: None)
            pipeline.summarize_run(out)
        for name, content in before.items():
            assert open(os.path.join(out, name), "rb").read() == content


@pytest.mark.parametrize("colour", ["7", "-1"])
def test_summarize_rejects_a_colour_outside_the_model(tiny_run, capsys, colour):
    # a two-colour trace with an impossible colour used to summarize without it
    cfg = dict(tiny_run, model={"family": "cdp", "colours": [[1.0, 1.0], [1.0, 0.5]]})
    pipeline.run_pipeline(pipeline.parse_config(cfg))
    out = cfg["out"]
    trace = os.path.join(out, "trace.csv")
    lines = open(trace).read().splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[2 + 6 + 2] = colour  # k:it2 on line 4
    lines[3] = ",".join(cells)
    with open(trace, "w") as fh:
        fh.writelines(lines)
    before = {name: open(os.path.join(out, name), "rb").read()
              for name in os.listdir(out)}
    err = _cli_error(capsys, "summarize", "--out", out)
    assert err == (f"error: {trace}: line 4, column k:it2: colour {colour} "
                   "is outside [0, 2)\n" if colour == "7" else
                   f"error: {trace}: line 4: invalid literal in field 11: '-1', "
                   "expected ASCII digits up to 2147483647\n")
    assert {name: open(os.path.join(out, name), "rb").read()
            for name in os.listdir(out)} == before


def test_summarize_names_a_bad_colour_below_a_comment_line(tiny_run, capsys, monkeypatch):
    # a "#" line is no trace line: the readers name it, before any colour is checked
    cfg = dict(tiny_run, model={"family": "cdp", "colours": [[1.0, 1.0], [1.0, 0.5]]})
    pipeline.run_pipeline(pipeline.parse_config(cfg))
    trace = os.path.join(cfg["out"], "trace.csv")
    lines = open(trace).read().splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[2 + 6 + 2] = "2"  # k:it2, on line 5 once the comment is in
    lines[3] = ",".join(cells)
    lines.insert(1, "# note\n")
    with open(trace, "w") as fh:
        fh.writelines(lines)
    expected = f"error: {trace}: line 2 has 1 fields, expected 14\n"
    assert _cli_error(capsys, "summarize", "--out", cfg["out"]) == expected
    monkeypatch.setattr(_sweep, "library", lambda: None)
    assert _cli_error(capsys, "summarize", "--out", cfg["out"]) == expected


def test_multichain_run_merges_traces(tiny_run, tmp_path, monkeypatch):
    # each chain, run in the pool, equals its chain run alone, on either sweep
    # (the pool's workers fork with the patched library)
    cfg = dict(tiny_run, sweeps=60, burn_in=20, subset_move_rate=0.5,
               model={"family": "cdp", "colours": [[1.0, 1.0], [1.0, 0.5]]})
    for chains in (2, 4):
        config = pipeline.parse_config(cfg, chains=chains)
        serial = [run_chain(config.dataset.data, config.design, config.model, config.specs,
                            plan) for plan in pipeline._chain_plans(config.plan, chains)]
        assert len({tuple(trace) for trace in serial}) == chains  # distinct seeds, chains
        records = [rec for trace in serial for rec in trace]
        for sweep_path in ("compiled", "python"):
            out = str(tmp_path / f"{sweep_path}-{chains}")
            with monkeypatch.context() as patch:
                if sweep_path == "python":
                    patch.setattr(_sweep, "library", lambda: None)
                manifest = pipeline.run_pipeline(dataclasses.replace(config, out_dir=out))
                _, chain, sweep, labels, colours = _trace_records(
                    os.path.join(out, "trace.csv"))
            assert chain.tolist() == [c for c, trace in enumerate(serial) for _ in trace]
            assert sweep.tolist() == [rec.sweep for rec in records]
            assert labels.tolist() == [list(rec.labels) for rec in records]
            assert colours.tolist() == [list(rec.colours) for rec in records]
            assert manifest["log_posterior"] == [rec.log_posterior for rec in records]


def test_unwritable_output_dir_fails_before_sampling(tiny_run):
    cfg = dict(tiny_run, out="/proc/definitely-not-writable")
    with pytest.raises((ValidationError, OSError)):
        pipeline.run_pipeline(pipeline.parse_config(cfg))


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
def test_output_dir_blocked_by_a_file_fails_before_sampling(tiny_run, capsys, monkeypatch,
                                                            under_file):
    # os.makedirs used to raise FileExistsError or NotADirectoryError as a traceback
    blocker = tiny_run["out"] + ".txt"
    open(blocker, "w").close()
    out = os.path.join(blocker, "sub") if under_file else blocker
    cfg = tiny_run["out"] + ".json"
    with open(cfg, "w") as fh:
        json.dump(tiny_run, fh)
    monkeypatch.setattr(pipeline, "run_chains", None)  # sampling would raise TypeError
    err = _cli_error(capsys, "run", "--config", cfg, "--out", out)
    assert err.startswith(f"error: output directory {out!r}: "), err


# ------------------------------------------------------------------------ CLI

def test_cli_run_and_summarize(tiny_run, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_run))
    out = str(tmp_path / "cli-out")
    assert main(["run", "--config", str(cfg_path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert main(["summarize", "--out", out]) == 0


def test_cli_validation_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"family": "dp", "concentration": 1.0}}))
    assert main(["run", "--config", str(bad)]) == 1          # no data file
    assert main(["summarize", "--out", str(tmp_path / "nope")]) == 1
    assert main(["summarize"]) == 1


def _cli_error(capsys, *argv) -> str:
    assert main(list(argv)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [[], ["run", "--seed", "abc"], ["run", "--chains", "x"],
                                  ["frobnicate"]], ids=["none", "seed", "chains", "command"])
def test_cli_usage_errors_exit_1(argv, capsys):
    # argparse exits 2 by default, which the CLI documents as a numerical failure
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "error: " in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cdpmix run")


def test_cli_missing_config_file_is_a_validation_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert _cli_error(capsys, "run", "--config", missing).startswith(f"error: {missing}: ")
    assert _cli_error(capsys, "verify", "--config", missing).startswith(f"error: {missing}: ")


def test_cli_negative_seed_is_a_validation_error(tiny_run, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_run))
    err = _cli_error(capsys, "run", "--config", str(cfg), "--seed", "-1")
    assert err == "error: seed must be >= 0, got -1\n"
    assert not os.path.exists(tiny_run["out"])  # rejected before sampling


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def test_cli_id_with_a_line_break_is_a_validation_error(tiny_run, tmp_path, capsys, brk):
    # such an id used to split trace.csv's header over two lines, which
    # summarize of the run's own directory then rejected
    data = tmp_path / "broken.tsv"
    lines = open(tiny_run["data"]).read().splitlines()
    lines[3] = f'"it{brk}2"' + lines[3][len("it2"):]
    data.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(tiny_run, data=str(data), annotations=None)))
    err = _cli_error(capsys, "run", "--config", str(cfg))
    assert err == f"error: {data}: row 4: id {'it' + brk + '2'!r} holds a line break\n"
    assert not os.path.exists(tiny_run["out"])  # rejected before sampling


def test_cli_malformed_config_file_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    assert _cli_error(capsys, "run", "--config", str(bad)).startswith(
        f"error: {bad}: not valid JSON")


def test_cli_missing_data_file_is_a_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "wen-rat", "data": "/nonexistent.tsv"}))
    assert _cli_error(capsys, "run", "--config", str(cfg)).startswith(
        "error: /nonexistent.tsv: ")


@pytest.mark.parametrize("command", ["run", "verify", "summarize"])
def test_a_repeated_json_key_is_a_validation_error(tiny_run, tmp_path, capsys, command):
    # json kept the last of a repeated key: "sweeps": 5, "sweeps": 7 ran 7 sweeps
    path = tmp_path / "cfg.json"
    if command == "run":
        text = json.dumps(dict(tiny_run, sweeps=5))[:-1] + ', "sweeps": 7}'
        key = "sweeps"
    elif command == "verify":
        text = '{"chain_sweeps": 300, "chain_burn_in": 10, "chain_sweeps": 400}'
        key = "chain_sweeps"
    else:
        pipeline.run_pipeline(pipeline.parse_config(tiny_run))
        path = os.path.join(tiny_run["out"], "manifest.json")
        with open(path) as fh:
            text = fh.read().replace('"config": {', '"config": {"model": {"family": "dp", '
                                                    '"concentration": 1.0, "family": "dp"},', 1)
        key = "family"  # two objects down
    with open(path, "w") as fh:
        fh.write(text)
    argv = ["--out", tiny_run["out"]] if command == "summarize" else ["--config", str(path)]
    assert _cli_error(capsys, command, *argv) == (
        f"error: {path}: key {key!r} appears twice in one object\n")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("table", ["data", "annotations"])
def test_a_byte_that_is_not_utf8_in_a_table_is_a_validation_error(tiny_run, tmp_path, capsys,
                                                                  table):
    # it used to end in a UnicodeDecodeError traceback
    path = tiny_run[table]
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw.replace(b"it4", b"it\xff4"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_run))
    assert _cli_error(capsys, "run", "--config", str(cfg)) == (
        f"error: {path}: not UTF-8 text (invalid start byte)\n")
    assert not os.path.exists(tiny_run["out"])  # rejected before sampling


_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_a_run_writes_the_same_bytes_whatever_the_locale(tiny_run, tmp_path):
    # the locale's encoding decided whether a non-ASCII id ran, and the bytes it wrote
    for name in ("data", "annotations"):
        with open(tiny_run[name], encoding="utf-8") as fh:
            text = fh.read().replace("it1\t", "\u03b2-actin\t")
        with open(tiny_run[name], "w", encoding="utf-8") as fh:
            fh.write(text.replace("solo", "gl\u00eda"))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    base = {k: v for k, v in os.environ.items() if k not in _ASCII_LOCALE}
    written = []
    for env in (base, dict(base, **_ASCII_LOCALE)):
        out = str(tmp_path / f"run{len(written)}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(tiny_run, out=out)))
        proc = subprocess.run([sys.executable, "-m", "cdpmix", "run", "--config", str(cfg)],
                              capture_output=True, timeout=120,
                              env=dict(env, PYTHONPATH=package_root))
        assert proc.returncode == 0, proc.stderr
        written.append({path.name: path.read_bytes() for path in sorted(tmp_path.glob(
            f"run{len(written)}/*"))})
    assert written[0] == written[1]
    assert "\u03b2-actin".encode() in written[0]["trace.csv"]
    assert "gl\u00eda".encode() in written[0]["crosstab.csv"]


def _opens_without_encoding(source: str) -> list[int]:
    """Line numbers of the ``open(...)`` calls in ``source`` that open a file
    as text without naming an ``encoding``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id == "open"):
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if not binary and "encoding" not in keywords:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,lines", [
    ("open(p)\nopen(p, 'w', newline='')\nopen(p, mode='a')\nopen(p, m)", [1, 2, 3, 4]),
    ("open(p, 'rb')\nopen(p, mode='wb')\nopen(p, encoding='utf-8')\nos.open(p, 0)", []),
], ids=["text", "named-or-binary"])
def test_the_encoding_rule_finds_text_opens_without_an_encoding(source, lines):
    assert _opens_without_encoding(source) == lines


def test_every_text_mode_open_in_the_package_names_its_encoding():
    package = os.path.dirname(os.path.abspath(pipeline.__file__))
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                found[name] = _opens_without_encoding(fh.read())
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert len(found) > 10


def test_cli_malformed_manifest_is_a_validation_error(tiny_run, capsys):
    pipeline.run_pipeline(pipeline.parse_config(tiny_run))
    manifest = os.path.join(tiny_run["out"], "manifest.json")
    with open(manifest, "w") as fh:
        fh.write("{bad")
    assert _cli_error(capsys, "summarize", "--out", tiny_run["out"]).startswith(
        f"error: {manifest}: not valid JSON")


def test_cli_manifest_without_config_is_a_validation_error(tiny_run, capsys):
    pipeline.run_pipeline(pipeline.parse_config(tiny_run))
    manifest = os.path.join(tiny_run["out"], "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"package": "cdpmix"}, fh)
    assert _cli_error(capsys, "summarize", "--out", tiny_run["out"]).startswith(
        f"error: {manifest}: ")


@pytest.mark.parametrize("text,fields", [("", 1), ("chain\n", 1), ("chain,sweep,c:a\n0,5,0\n", 3),
                                         ("chain,sweep\n0,5\n", 2)],
                         ids=["empty", "chain-only", "odd-header", "no-items"])
def test_cli_trace_without_a_header_is_a_validation_error(tiny_run, monkeypatch, capsys,
                                                          text, fields):
    # the first two used to end in numpy's "cannot reshape array of size 0" traceback
    pipeline.run_pipeline(pipeline.parse_config(tiny_run))
    trace = os.path.join(tiny_run["out"], "trace.csv")
    with open(trace, "w") as fh:
        fh.write(text)
    assert _cli_error(capsys, "summarize", "--out", tiny_run["out"]).startswith(
        f"error: {trace}: header has {fields} fields")
    compiled, numpy_reader = _both_readers(monkeypatch, trace)
    assert compiled == numpy_reader


def test_missing_annotation_file_names_it(tiny_run, tmp_path):
    missing = str(tmp_path / "no-ann.tsv")
    with pytest.raises(ValidationError, match="^" + re.escape(missing) + ": "):
        pipeline.parse_config(dict(tiny_run, annotations=missing))


def test_missing_or_malformed_design_csv_names_it(tmp_path):
    missing = str(tmp_path / "no-z.csv")
    with pytest.raises(ValidationError, match="^" + re.escape(missing) + ": "):
        pipeline.build_design({"Z": missing}, 2)
    bad = tmp_path / "z.csv"
    bad.write_text("1.0,x\n0.0,1.0\n")
    with pytest.raises(ValidationError, match="^" + re.escape(str(bad)) + ": "):
        pipeline.build_design({"Z": str(bad)}, 2)


TWO_COLUMN_Z = {"Z": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("overrides,key", [
    ({"model": {"family": "dp", "concentration": "abc"}}, "model.concentration"),
    ({"model": {"family": "cdp", "colours": [[1]]}}, "model.colours"),
    ({"model": {"family": "cdp", "colours": 3}}, "model.colours"),
    ({"model": {"family": "cdp", "colours": [[1, 1], [1, "x"]]}},
     "model.colours[1].concentration"),
    ({"model": {"family": "dirichlet_multinomial", "components": 2.9, "weight": True}},
     "model.components"),
    ({"model": {"family": "dirichlet_multinomial", "components": 2, "weight": True}},
     "model.weight"),
    ({"prior": {"shape": "x"}}, "prior.shape"),
    ({"prior": {"rate": True}}, "prior.rate"),
    ({"prior": {"mean_z": "abc"}}, "prior.mean_z"),
    ({"prior": {"precision_z": "abc"}}, "prior.precision_z"),
    ({"prior": {"precision_z": [[1.0, "x"]]}}, "prior.precision_z"),
    ({"prior": {"shape": 0}}, "prior.shape"),
    ({"prior": {"rate": -1.0}}, "prior.rate"),
    ({"prior": {"precision_z": 0}}, "prior.precision_z"),
    ({"prior": {"precision_z": [[1.0, 0.5], [0.0, 1.0]]}, "design": TWO_COLUMN_Z},
     "prior.precision_z"),
    ({"prior": {"precision_z": [[1.0, 2.0], [2.0, 1.0]]}, "design": TWO_COLUMN_Z},
     "prior.precision_z"),
], ids=["concentration", "colour-pair-short", "colours-scalar", "colour-text",
        "components-fractional", "weight-boolean", "shape", "rate-boolean", "mean_z",
        "precision_z", "precision_z-matrix", "shape-zero", "rate-negative",
        "precision_z-zero", "precision_z-asymmetric", "precision_z-indefinite"])
def test_malformed_model_or_prior_value_is_a_validation_error(tiny_run, capsys,
                                                               overrides, key):
    # each used to end in a raw traceback, a numerical failure (exit 2) or an
    # error without the key, or to run silently with a coerced value
    cfg = tiny_run["out"] + ".json"
    with open(cfg, "w") as fh:
        json.dump(dict(tiny_run, **overrides), fh)
    err = _cli_error(capsys, "run", "--config", cfg)
    assert err.startswith(f"error: {key} must be "), err
    assert not os.path.exists(os.path.join(tiny_run["out"], "trace.csv"))


@pytest.mark.parametrize("overrides,key", [
    ({"out": 5}, "out"),
    ({"out": None}, "out"),
    ({"data": ["x"]}, "data"),
    ({"data": 99_995}, "data"),
    ({"annotations": 99_997}, "annotations"),
    ({"loss": 5}, "loss"),
    ({"prior": 5}, "prior"),
    ({"design": {"Z": 5}}, "design.Z"),
    ({"design": {"Z": [[1.0], [1.0]], "X": [1.0, 2.0]}}, "design.X"),
    ({"preset": ["wen-rat"]}, "preset"),
    ({"model": {"family": ["dp"]}}, "model.family"),
], ids=["out-number", "out-null", "data-list", "data-number", "annotations-number",
        "loss-number", "prior-number", "design-Z-number", "design-X-flat", "preset-list",
        "family-list"])
def test_config_value_of_the_wrong_json_type_is_a_validation_error(tiny_run, tmp_path, capsys,
                                                                   overrides, key):
    # each used to end in a traceback (TypeError, IndexError), or to open a
    # number as a file descriptor (numbers past any this process holds open)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(tiny_run, **overrides)))
    err = _cli_error(capsys, "run", "--config", str(cfg))
    assert err.startswith(f"error: {key} must be "), err
    assert not os.path.exists(tiny_run["out"])  # rejected before sampling


@pytest.mark.parametrize("section,value,prefix", [
    ("prior", {"mean_z": [True]}, "prior.mean_z must be "),
    ("prior", {"precision_z": [[True]]}, "prior.precision_z must be "),
    ("prior", {"mean_z": [float("nan")]}, "prior.mean_z must be "),
    ("design", {"Z": [["a", 1]]}, "design.Z must be "),
    ("design", {"Z": [[1.0], [1.0, 2.0]]}, "design.Z must be "),
    ("design", {"Z": [[1.0], [1.0]], "X": [[float("inf")], [0.0]]}, "design.X must be "),
    ("design", {"Z": "z.csv"}, "z.csv: row 2, column 1: non-finite value"),
], ids=["mean_z-boolean", "precision_z-boolean", "mean_z-nan", "design-text", "design-ragged",
        "design-inf", "design-csv-nan"])
def test_config_array_cells_must_be_finite_numbers(tiny_run, tmp_path, capsys, section,
                                                   value, prefix):
    # booleans used to read as 1.0, text and ragged rows ended in a numpy
    # traceback, and a NaN ended as a numerical failure mid-run (exit 2)
    csv_path = tmp_path / "z.csv"
    csv_path.write_text("1.0\nnan\n")
    value = {k: str(csv_path) if v == "z.csv" else v for k, v in value.items()}
    prefix = prefix.replace("z.csv", str(csv_path))
    cfg = tiny_run["out"] + ".json"
    with open(cfg, "w") as fh:
        json.dump(dict(tiny_run, **{section: value}), fh)
    assert _cli_error(capsys, "run", "--config", cfg).startswith(f"error: {prefix}")
    assert not os.path.exists(os.path.join(tiny_run["out"], "trace.csv"))


@pytest.mark.parametrize("section,value,key", [
    ("model", {"family": "dp", "concentration": float("inf")}, "model.concentration"),
    ("model", {"family": "cdp", "colours": [[1, 1], [float("nan"), 1]]},
     "model.colours[1].weight"),
    ("prior", {"precision_z": float("nan")}, "prior.precision_z"),
    ("prior", {"shape": -float("inf")}, "prior.shape"),
    ("loss", {"false_positive": float("inf")}, "loss.false_positive"),
], ids=["concentration-inf", "colour-weight-nan", "precision_z-nan", "shape-minus-inf",
        "loss-inf"])
def test_non_finite_scalar_names_its_key(tiny_run, capsys, section, value, key):
    # JSON configs may spell Infinity and NaN: an infinite concentration used to run
    # to exit 0 and write NaN log posteriors into manifest.json, and a NaN
    # precision_z failed as "precision must be symmetric" without naming the key
    cfg = tiny_run["out"] + ".json"
    with open(cfg, "w") as fh:
        json.dump(dict(tiny_run, **{section: value}), fh)
    err = _cli_error(capsys, "run", "--config", cfg)
    assert err.startswith(f"error: {key} must be a finite number, got "), err
    assert not os.path.exists(os.path.join(tiny_run["out"], "trace.csv"))


@pytest.mark.parametrize("key", ["sweeps", "seed", "model.components"])
def test_integer_too_large_for_a_float_names_its_key(tiny_run, capsys, key):
    # math.isfinite raised OverflowError on these, ending the run in a traceback
    huge = 10 ** 400
    section, _, name = key.rpartition(".")
    value = ({"family": "dirichlet_multinomial", "components": huge, "weight": 0.5}
             if section else huge)
    cfg = tiny_run["out"] + ".json"
    with open(cfg, "w") as fh:
        json.dump(dict(tiny_run, **{section or name: value}), fh)
    err = _cli_error(capsys, "run", "--config", cfg)
    assert err.startswith(f"error: {key} must be a finite number, got {huge}"), err
    assert not os.path.exists(os.path.join(tiny_run["out"], "trace.csv"))


def test_chain_plans_differ_from_the_config_only_in_seed(tiny_run):
    # a SweepPlan field the chain plans dropped would reset to its default
    # in multi-chain runs only
    config = pipeline.parse_config(dict(tiny_run, sweeps=40, burn_in=11, thin=3, seed=4,
                                        subset_move_rate=0.25, subset_max_size=3))
    plans = pipeline._chain_plans(config.plan, 3)
    assert [dataclasses.replace(p, seed=config.plan.seed) for p in plans] == [config.plan] * 3
    assert len({p.seed for p in plans}) == 3


def test_cli_verify_rejects_bad_settings(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"no_such_knob": 1}))
    assert main(["verify", "--config", str(cfg)]) == 1


# ------------------------------------------------------------------ checks API

def test_verify_settings_reject_unknown_keys():
    with pytest.raises(ValidationError):
        checks.VerifySettings.from_overrides({"bogus": 3})


@pytest.mark.parametrize("gate", ["norm_tol", "conjugate_tol", "invariance_tol",
                                  "chi2_level", "dp_thetas", "coloured_max_n", "seed",
                                  "ewens_max_n"])
def test_verify_gates_are_not_settings(gate):
    # a settings file could loosen a pass/fail gate until it always passed, or
    # size an enumeration that runs for hours; only the sample counts are settings
    with pytest.raises(ValidationError, match=rf"unknown verify settings: \['{gate}'\]"):
        checks.VerifySettings.from_overrides({gate: 1.0})


@pytest.mark.parametrize("overrides,key", [
    ({"chain_sweeps": "abc"}, "chain_sweeps"),
    ({"equiv_samples": 2.5}, "equiv_samples"),
    ({"equiv_samples": True}, "equiv_samples"),
    ({"chain_sweeps": 0}, "chain_sweeps"),
    ({"chain_burn_in": -1}, "chain_burn_in"),
    ({"chain_sweeps": 100, "chain_burn_in": 100}, "chain_burn_in"),
], ids=["text", "fractional", "boolean", "zero", "negative", "burn-in-not-below-sweeps"])
def test_verify_settings_reject_bad_counts_naming_the_key(overrides, key):
    # each used to end in a TypeError traceback or to reach the checks unchecked
    with pytest.raises(ValidationError, match=f"^verify setting {key} "):
        checks.VerifySettings.from_overrides(overrides)


@pytest.mark.parametrize("overrides,key", [
    ({"equiv_samples": 3}, "equiv_samples"),
    ({"equiv_samples": 20}, "equiv_samples"),
    ({"chain_sweeps": 100, "chain_burn_in": 50}, "chain_sweeps"),
], ids=["equiv-3", "equiv-20", "chain-5-records"])
def test_verify_settings_reject_counts_too_small_for_the_chi2_test(overrides, key):
    # these used to run every check and print a nan threshold, `X2=0.0<nan(df0):FAIL`
    with pytest.raises(ValidationError, match=f"^verify setting {key} .*chi-square"):
        checks.VerifySettings.from_overrides(overrides)


def test_cli_verify_rejects_too_few_samples_before_any_check(tmp_path, capsys):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"equiv_samples": 3}))
    assert main(["verify", "--config", str(cfg)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: verify setting equiv_samples must be at least 21")


@pytest.mark.parametrize("law", [lambda: checks._equivalence_law()[1],
                                 lambda: checks._convergence_problem()[-1]],
                         ids=["construction-equivalence", "gibbs-convergence"])
def test_least_count_is_the_fewest_samples_with_a_finite_threshold(law):
    probs = law()
    least = checks._least_count(probs)
    observed = np.zeros(len(probs))
    observed[0] = least
    _, _, crit, df = checks._chi2_ok(observed, probs)
    assert df >= 1 and math.isfinite(crit)
    observed[0] = least - 1
    with pytest.raises(ValueError, match="no degree of freedom"):
        checks._chi2_ok(observed, probs)


def test_least_counts_are_21_draws_and_26_records():
    # construction-equivalence's likeliest cell has p = 1/4, computed as
    # 0.24999999999999994, so 20 draws expect just under 5 and 21 is the least
    assert checks._least_count(checks._equivalence_law()[1]) == 21
    cfg = checks.VerifySettings.from_overrides({"chain_sweeps": 260, "chain_burn_in": 1})
    assert cfg.chain_sweeps == 260  # keeps 26 records, the least gibbs-convergence takes
    with pytest.raises(ValidationError, match="^verify setting chain_sweeps "):
        checks.VerifySettings.from_overrides({"chain_sweeps": 250, "chain_burn_in": 1})


def test_chi2_threshold_equals_scipy_stats_bit_for_bit():
    from scipy import stats
    from scipy.special import chdtri
    for df in range(1, 201):
        assert chdtri(df, 1 - checks.CHI2_LEVEL) == stats.chi2.ppf(checks.CHI2_LEVEL, df), df


def test_verify_settings_accept_the_three_sample_counts():
    cfg = checks.VerifySettings.from_overrides(
        {"equiv_samples": 10_000, "chain_sweeps": 20_000, "chain_burn_in": 1_000})
    assert (cfg.equiv_samples, cfg.chain_sweeps, cfg.chain_burn_in) == (10_000, 20_000, 1_000)


def test_restricted_growth_table_lists_partitions_in_enumeration_order():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(1, 8):
        table = checks._restricted_growth_table(n)
        assert table.shape == (bell[n], n)
        assert table.tolist() == [list(p.allocation()) for p in enumerate_partitions(n)]


def test_normalization_check_detects_tampered_eppf(monkeypatch):
    from cdpmix.priors import DirichletProcess

    genuine = DirichletProcess.log_eppf_sizes

    def tampered(self, sizes_by_colour, n):
        return genuine(self, sizes_by_colour, n) + 0.01

    monkeypatch.setattr(DirichletProcess, "log_eppf_sizes", tampered)
    result = checks.check_eppf_normalization(checks.VerifySettings())
    assert not result.passed
