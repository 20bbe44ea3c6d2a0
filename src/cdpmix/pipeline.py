"""Batch pipeline: dataset/design ingestion, run configuration, chain
orchestration, and emission of the result tables.

A run writes six artifacts into its output directory:

* ``trace.csv``        one canonical allocation (and colour) vector per retained sweep
* ``similarity.csv``   posterior pairwise-coincidence matrix
* ``assignments.csv``  loss-optimal partition: per-item cluster and colour
* ``cluster_summaries.csv``  per-cluster mean profile and 95% band
* ``crosstab.csv``     cluster-by-annotation counts (when annotations are given)
* ``manifest.json``    resolved configuration echo; enough to reproduce the run

All outputs are plain text with deterministic formatting: two runs with the
same configuration and seed are byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources
from numbers import Real
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, _sweep
from .conjugate import DesignBlock, NormalGammaSpec
from .errors import ValidationError
from .estimation import (LossSpec, accumulate_similarity, cluster_summaries,
                         expected_pairwise_loss, optimal_partition)
from .gibbs import SweepPlan, TraceRecord, run_chain
from .partitions import MAX_ENUM_N, Partition
from .priors import (BackgroundDirichletProcess, ColouredDirichletProcess,
                     DirichletMultinomial, DirichletProcess, PartitionPrior,
                     PitmanYor)

_FLOAT_FMT = "{:.17g}"


@dataclass
class DatasetTable:
    """A rectangular numeric table: string ids, an n x S data matrix, real
    column names, and optional per-item annotation categories."""

    ids: list[str]
    data: np.ndarray
    columns: list[str]
    annotations: dict[str, list[str]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def _dedupe_ids(ids: list[str]) -> list[str]:
    """``ids`` with each repeat renamed ``<id>_<k>``, skipping every name in use."""
    taken, last, out = set(ids), {}, []
    for item in ids:
        new, k = item, last.get(item, 1)
        if item in last:
            while new in taken:
                k += 1
                new = f"{item}_{k}"
            taken.add(new)
            warnings.warn(f"duplicate id {item!r} renamed to {new!r}")
        last[item] = k
        out.append(new)
    return out


@contextmanager
def open_input(path: str, binary: bool = False):
    """Open an input file for reading, as UTF-8 text unless ``binary``; a
    missing or unreadable file, or text in it that is not UTF-8, is a
    validation error that names it."""
    try:
        fh = open(path, "rb") if binary else open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _unique_keys(path: str, pairs: list) -> dict:
    """The JSON object of ``pairs``; a key it repeats is a validation error."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"{path}: key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_json(path: str):
    """Decode a JSON input file; a missing or malformed one, or one with an
    object that repeats a key, is a validation error."""
    with open_input(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=partial(_unique_keys, path))
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from None


def _tsv_rows(path: str, kind: str):
    """The header of a tab-separated input file, then ``(line number, row)``
    per row that is not blank. An empty file, a header without an id column
    and a ``kind`` column, or a row whose width is not the header's is a
    validation error naming the file (and the row)."""
    with open_input(path) as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: file is empty")
        if len(header) < 2:
            raise ValidationError(f"{path}: need an id column plus at least one {kind} column")
        yield header
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
            yield lineno, row


def load_dataset(path: str) -> DatasetTable:
    """Load a tab-separated table: header row, id column first, numeric rest.

    Ragged rows, ids holding a line break (which no one-line trace header
    could carry) and non-numeric, non-finite or missing cells fail with the
    offending row/column named; duplicate ids are suffix-disambiguated with a warning.
    """
    reader = _tsv_rows(path, "data")
    header = next(reader)
    ids, rows = [], []
    for lineno, row in reader:
        if "\n" in row[0] or "\r" in row[0]:
            raise ValidationError(f"{path}: row {lineno}: id {row[0]!r} holds a line break")
        ids.append(row[0])
        values = []
        for colname, cell in zip(header[1:], row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: row {lineno}, column {colname!r}: "
                    f"non-numeric value {cell!r}") from None
            if not math.isfinite(value):
                raise ValidationError(
                    f"{path}: row {lineno}, column {colname!r}: "
                    f"non-finite value {cell!r}")
            values.append(value)
        rows.append(values)
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 items")
    return DatasetTable(_dedupe_ids(ids), np.array(rows, dtype=float), header[1:])


def load_annotations(path: str, ids: Sequence[str]) -> dict[str, list[str]]:
    """Load per-item categories from a tab-separated table keyed by id.

    Every dataset id must appear and none twice, and no category column
    name twice; extra rows are ignored.
    """
    reader = _tsv_rows(path, "category")
    names = next(reader)[1:]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValidationError(f"{path}: category column {name!r} is listed twice, as "
                                  f"columns {names.index(name) + 2} and {k + 2}")
    table, rows = {}, {}
    for lineno, row in reader:
        if row[0] in table:
            raise ValidationError(
                f"{path}: id {row[0]!r} is listed twice, on rows {rows[row[0]]} and {lineno}")
        table[row[0]], rows[row[0]] = row[1:], lineno
    missing = [i for i in ids if i not in table]
    if missing:
        raise ValidationError(f"{path}: no annotation for ids {missing[:5]}")
    return {name: [table[i][k] for i in ids] for k, name in enumerate(names)}


def rat_timecourse_design() -> np.ndarray:
    """The default 9x5 design: piecewise-linear time dependence within the
    embryonic (days 11..21), postnatal (days 0..14) and adult phases."""
    return np.array([
        [1, 11, 0, 0, 0],
        [1, 13, 0, 0, 0],
        [1, 15, 0, 0, 0],
        [1, 18, 0, 0, 0],
        [1, 21, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 1, 7, 0],
        [0, 0, 1, 14, 0],
        [0, 0, 0, 0, 1],
    ], dtype=float)


def bundled_data_path(name: str) -> str:
    """Path of a data file shipped with the package."""
    return str(resources.files("cdpmix.data") / name)


def _load_matrix(design_cfg: dict, key: str) -> np.ndarray:
    """``design_cfg[key]``: inline rows, or the path of a CSV file of finite numbers."""
    source = design_cfg[key]
    if not isinstance(source, str):
        matrix = _array(design_cfg, key, None, None, "design.")
        if matrix.ndim != 2:
            raise ValidationError(f"design.{key} must be a path or a 2-d array, got {source!r}")
        return matrix
    with open_input(source) as fh:
        try:
            matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{source}: {exc}") from None
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0] + 1
        raise ValidationError(f"{source}: row {row}, column {col}: non-finite value")
    return matrix


def _reject_unknown(section: str, cfg: dict, known) -> None:
    bad = sorted(set(cfg) - set(known))
    if bad:
        raise ValidationError(f"unknown {section} keys: {bad}")


def build_design(design_cfg, n_samples: int) -> DesignBlock:
    """Resolve the design section of a config into a DesignBlock.

    ``"rat-timecourse"`` (or nothing, when the data has 9 samples) selects
    the bundled piecewise-linear matrix; otherwise supply ``{"Z": ..., "X": ...}``
    as inline rows or a CSV path.
    """
    if design_cfg in (None, "rat-timecourse"):
        Z = rat_timecourse_design()
        if Z.shape[0] != n_samples:
            raise ValidationError(
                f"default design expects 9 samples per item, data has {n_samples}")
        return DesignBlock(Z)
    if not isinstance(design_cfg, dict) or "Z" not in design_cfg:
        raise ValidationError("design must be 'rat-timecourse' or a {'Z': ..., 'X': ...} mapping")
    _reject_unknown("design", design_cfg, ("Z", "X"))
    Z = _load_matrix(design_cfg, "Z")
    X = _load_matrix(design_cfg, "X") if design_cfg.get("X") is not None else None
    if Z.shape[0] != n_samples:
        raise ValidationError(f"Z has {Z.shape[0]} rows, data has {n_samples} samples")
    return DesignBlock(Z, X)


_MODEL_PARAMS = {
    "dp": ("concentration",),
    "dirichlet_multinomial": ("components", "weight"),
    "pitman_yor": ("discount", "strength"),
    "cdp": ("colours",),
    "background": ("background_weight", "concentration"),
}


def build_model(model_cfg: dict) -> PartitionPrior:
    if not isinstance(model_cfg, dict) or "family" not in model_cfg:
        raise ValidationError("model config must name a family")
    family = _typed(model_cfg, "family", None, str, "model.")
    if family not in _MODEL_PARAMS:
        raise ValidationError(f"unknown model family {family!r}")
    _reject_unknown(f"model ({family})", model_cfg, ("family",) + _MODEL_PARAMS[family])
    for key in _MODEL_PARAMS[family]:
        if key not in model_cfg:
            raise ValidationError(f"model family {family!r} is missing parameter {key!r}")

    def num(key, kind=float):
        return _number(model_cfg, key, None, kind, "model.")

    if family == "dp":
        return DirichletProcess(num("concentration"))
    if family == "dirichlet_multinomial":
        return DirichletMultinomial(num("components", int), num("weight"))
    if family == "pitman_yor":
        return PitmanYor(num("discount"), num("strength"))
    if family == "cdp":
        pairs = model_cfg["colours"]
        if not (isinstance(pairs, (list, tuple)) and all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs)):
            raise ValidationError("model.colours must be a list of [weight, concentration] "
                                  f"pairs, got {pairs!r}")
        keys = ("weight", "concentration")
        return ColouredDirichletProcess(
            [[_number(dict(zip(keys, pair)), key, None, float, f"model.colours[{k}].")
              for key in keys] for k, pair in enumerate(pairs)])
    return BackgroundDirichletProcess(num("background_weight"), num("concentration"))


def _array(cfg: dict, key: str, default, shape: tuple | None, prefix="prior.") -> np.ndarray:
    """``cfg[key]`` (or ``default``) as a float array of ``shape`` (any if None), naming
    the key unless every cell is a finite number and not a boolean (read as 0 or 1)."""
    value = cfg.get(key, default)
    try:
        cells = np.array(value, dtype=object)
        array = cells.astype(float)
        if (shape is None or array.shape == shape) and np.isfinite(array).all() and all(
                isinstance(x, Real) and not isinstance(x, bool) for x in cells.flat):
            return array
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{prefix}{key} must be an array of finite numbers"
                          f"{'' if shape is None else f' of shape {shape}'}, got {value!r}")


def _block(cfg: dict, key: str, dim: int) -> np.ndarray:
    """A symmetric positive definite precision block: a scalar times I, or a matrix."""
    if np.isscalar(cfg.get(key, 0.01)):
        block = _number(cfg, key, 0.01, float, "prior.") * np.eye(dim)
    else:
        block = _array(cfg, key, None, (dim, dim))
    try:
        np.linalg.cholesky(block)  # reads one triangle only, hence the symmetry test
        spd = np.allclose(block, block.T, atol=1e-10)  # NormalGammaSpec's tolerance
    except np.linalg.LinAlgError:
        spd = False
    if not spd:
        raise ValidationError(f"prior.{key} must be symmetric positive definite, "
                              f"got {cfg[key]!r}")
    return block


def build_priors(prior_cfg: dict, design: DesignBlock,
                 model: PartitionPrior) -> list[NormalGammaSpec]:
    """Per-colour conjugate priors from the config's prior section.

    The regular prior covers both coefficient blocks; for the background
    family, colour 0 pins the Z-block coefficients to ``fixed_z_coeffs``,
    a key no other family accepts.
    """
    background = isinstance(model, BackgroundDirichletProcess)
    _reject_unknown("prior", prior_cfg,
                    ("shape", "rate", "mean_z", "mean_x", "precision_z", "precision_x")
                    + (("fixed_z_coeffs",) if background else ()))
    kp, kx = design.n_z, design.n_x
    shape = _number(prior_cfg, "shape", 0.01, float, "prior.")
    rate = _number(prior_cfg, "rate", 0.01, float, "prior.")
    for key, value in (("shape", shape), ("rate", rate)):
        if not value > 0:
            raise ValidationError(f"prior.{key} must be > 0, got {prior_cfg[key]!r}")
    mean_z = _array(prior_cfg, "mean_z", np.zeros(kp), (kp,))
    mean_x = _array(prior_cfg, "mean_x", np.zeros(kx), (kx,))
    prec_z = _block(prior_cfg, "precision_z", kp)
    prec_x = _block(prior_cfg, "precision_x", kx)
    full_mean = np.concatenate([mean_z, mean_x])
    full_prec = np.zeros((kp + kx, kp + kx))
    full_prec[:kp, :kp] = prec_z
    full_prec[kp:, kp:] = prec_x
    regular = NormalGammaSpec(shape, rate, full_mean, full_prec)
    if background:
        fixed = _array(prior_cfg, "fixed_z_coeffs", np.zeros(kp), (kp,))
        background = NormalGammaSpec(shape, rate, mean_x, prec_x, fixed_z_coeffs=fixed)
        return [background, regular]
    return [regular] * model.n_colours


PRESETS: dict[str, dict] = {
    # Rat CNS time-course defaults: background-cluster model, diffuse priors.
    "wen-rat": {
        "data": "@bundled/rat_cns_synthetic.tsv",
        "annotations": "@bundled/rat_cns_classes.tsv",
        "model": {"family": "background", "background_weight": 5.0, "concentration": 1.0},
        "prior": {"shape": 0.01, "rate": 0.01, "precision_z": 0.01, "precision_x": 0.01},
        "design": "rat-timecourse",
        "sweeps": 20000,
        "burn_in": 10000,
        "thin": 1,
        "seed": 0,
    },
}


def _resolve_path(value: str) -> str:
    if isinstance(value, str) and value.startswith("@bundled/"):
        return bundled_data_path(value[len("@bundled/"):])
    return value


@dataclass
class RunConfig:
    """Fully-resolved run: data, model, priors, schedule, loss, and outputs."""

    dataset: DatasetTable
    design: DesignBlock
    model: PartitionPrior
    specs: list[NormalGammaSpec]
    plan: SweepPlan
    loss: LossSpec
    out_dir: str
    chains: int
    strategy: str
    echo: dict


_CONFIG_KEYS = ("data", "annotations", "design", "model", "prior", "loss", "sweeps", "burn_in",
                "thin", "subset_move_rate", "subset_max_size", "seed", "chains", "out",
                "strategy")


def _typed(cfg: dict, key: str, default, kind: type, prefix: str = ""):
    """``cfg[key]`` (or ``default``), naming the key unless it is ``default``
    itself or a ``kind``: ``str`` or ``dict``, a JSON string or object."""
    value = cfg.get(key, default)
    if value is not default and not isinstance(value, kind):
        noun = "a string" if kind is str else "an object"
        raise ValidationError(f"{prefix}{key} must be {noun}, got {value!r}")
    return value


def _number(cfg: dict, key: str, default, kind, prefix: str = ""):
    """``cfg[key]`` (or ``default``) converted by ``kind``, naming the key if it fails.

    Booleans are not numbers here, and an ``int`` key takes no fractional
    value: ``int`` would silently turn ``true`` into 1 and 3.9 into 3.
    Infinity and NaN (which JSON config files may spell) are rejected too,
    and so is an integer too large for a float.
    """
    value = cfg.get(key, default)
    if isinstance(value, bool):
        raise ValidationError(f"{prefix}{key} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{prefix}{key} must be an integer, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{prefix}{key} must be a number, got {value!r}") from None
    try:
        finite = math.isfinite(number)
    except OverflowError:  # an integer beyond the largest float
        finite = False
    if not finite:
        raise ValidationError(f"{prefix}{key} must be a finite number, got {value!r}")
    return number


def parse_config(raw: dict, *, seed: Optional[int] = None, out: Optional[str] = None,
                 chains: Optional[int] = None) -> RunConfig:
    """Validate a config mapping (plus CLI overrides) into a RunConfig."""
    raw = dict(raw or {})
    preset = _typed(raw, "preset", None, str)
    raw.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ValidationError(f"unknown preset {preset!r} (have: {sorted(PRESETS)})")
        merged = dict(PRESETS[preset])
        merged.update(raw)
        raw = merged
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["out"] = out
    if chains is not None:
        raw["chains"] = chains
    raw.setdefault("seed", 0)
    raw.setdefault("chains", 1)
    _reject_unknown("config", raw, _CONFIG_KEYS)

    if raw.get("data") is None:
        raise ValidationError("config must name a data file")
    dataset = load_dataset(_resolve_path(_typed(raw, "data", None, str)))
    annotations = _typed(raw, "annotations", None, str)
    if annotations:
        dataset.annotations = load_annotations(_resolve_path(annotations), dataset.ids)
    design = build_design(raw.get("design"), dataset.n_samples)
    model = build_model(raw.get("model", {"family": "dp", "concentration": 1.0}))
    specs = build_priors(_typed(raw, "prior", {}, dict), design, model)
    seed = _number(raw, "seed", 0, int)
    if seed < 0:  # np.random.SeedSequence takes no negative entropy
        raise ValidationError(f"seed must be >= 0, got {seed}")
    plan = SweepPlan(
        sweeps=_number(raw, "sweeps", 1000, int),
        burn_in=_number(raw, "burn_in", 0, int),
        thin=_number(raw, "thin", 1, int),
        subset_move_rate=_number(raw, "subset_move_rate", 0.0, float),
        subset_max_size=_number(raw, "subset_max_size", 8, int),
        seed=seed,
    )
    loss_cfg = _typed(raw, "loss", {}, dict)
    _reject_unknown("loss", loss_cfg, ("false_positive", "false_negative"))
    loss = LossSpec(_number(loss_cfg, "false_positive", 1.0, float, "loss."),
                    _number(loss_cfg, "false_negative", 1.0, float, "loss."))
    chain_count = _number(raw, "chains", 1, int)
    if chain_count < 1:
        raise ValidationError("chains must be >= 1")
    strategy = raw.get("strategy", "auto")
    if strategy not in ("auto", "exact", "greedy"):
        raise ValidationError("strategy must be auto, exact, or greedy")
    if strategy == "exact" and dataset.n > MAX_ENUM_N:
        raise ValidationError(f"strategy 'exact' is limited to n <= {MAX_ENUM_N} items, "
                              f"the dataset has {dataset.n}")
    return RunConfig(dataset, design, model, specs, plan, loss,
                     out_dir=_typed(raw, "out", "cdpmix-run", str), chains=chain_count,
                     strategy=strategy, echo=raw)


def _chain_plans(plan: SweepPlan, chains: int) -> list[SweepPlan]:
    seeds = np.random.SeedSequence(plan.seed).generate_state(chains)
    return [replace(plan, seed=int(s)) for s in seeds]


def run_chains(config: RunConfig) -> list[list[TraceRecord]]:
    """Run the configured number of chains (concurrently when more than one)."""
    plans = _chain_plans(config.plan, config.chains)
    chain = partial(run_chain, config.dataset.data, config.design, config.model, config.specs)
    if config.chains == 1:
        return [chain(plans[0])]
    # only extra chains need the pool, so a one-chain run starts without it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(config.chains, os.cpu_count() or 1)) as pool:
        return list(pool.map(chain, plans))


def _majority_colours(partition: Partition, colours: np.ndarray, weights: np.ndarray,
                      n_colours: int) -> list[int]:
    """Colour per cluster of the estimate: majority of members' sampled colours,
    over distinct colour rows in ``[0, n_colours)`` each counted ``weights``
    times (ties go to the lowest colour)."""
    freq = np.empty((colours.shape[1], n_colours), dtype=np.int64)
    for k in range(n_colours - 1):
        # einsum casts the 0/1 block to the weights' type a buffer at a time,
        # where a matrix product would first copy all of it
        freq[:, k] = np.einsum("d,di->i", weights, colours == k)
    # every item has one colour per row, so its counts add up to the total weight
    freq[:, -1] = weights.sum() - freq[:, :-1].sum(axis=1)
    return [int(freq[list(c)].sum(axis=0).argmax()) for c in partition.clusters]


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return _FLOAT_FMT.format(x)


def _fmt_cells(values: np.ndarray) -> list[list[str]]:
    """``_fmt`` of every entry of a 2-d float array, each distinct bit pattern
    formatted once (a similarity matrix over R records has at most R + 1)."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    keys, where = np.unique(bits, return_inverse=True)
    text = np.array([_fmt(v) for v in keys.view(np.float64)], dtype=object)
    return text[where.reshape(values.shape)].tolist()


class TraceTable(NamedTuple):
    """The retained sweeps of every chain, in order: per record its chain,
    sweep number and ``index``, the position of its row among ``rows``,
    which holds each distinct row of n canonical labels and then n colours
    once, in order of first occurrence. Record r's labels are
    ``rows[index[r], :n]`` and its colours ``rows[index[r], n:]``."""

    chain: np.ndarray
    sweep: np.ndarray
    index: np.ndarray
    rows: np.ndarray


def stack_traces(traces: Sequence[Sequence[TraceRecord]], n: int) -> TraceTable:
    """The records of each chain, chain after chain, as one ``TraceTable``:
    records with equal labels and colours share one row."""
    records = [rec for trace in traces for rec in trace]
    first: dict = {}
    index = [first.setdefault((rec.labels, rec.colours), len(first)) for rec in records]
    cells = itertools.chain.from_iterable(itertools.chain.from_iterable(first))
    return TraceTable(np.repeat(np.arange(len(traces)), [len(trace) for trace in traces]),
                      np.array([rec.sweep for rec in records], dtype=np.int64),
                      np.array(index, dtype=np.int64),
                      np.fromiter(cells, np.int32, count=2 * n * len(first)).reshape(-1, 2 * n))


#: Distinct trace rows formatted at a time, which bounds the memory the cell strings take.
_TRACE_CHUNK = 4096
#: Bytes the compiled trace reader reads at a time, into its one buffer.
_READ_CHUNK = 1 << 20
#: Distinct rows the compiled trace reader makes room for at first.
_READ_ROOM = 256


def _csv_int_rows(body: np.ndarray) -> str:
    """The rows of a 2-d integer array as ``csv.writer`` writes them, each
    distinct value formatted once into a string that carries the separator
    after it (a comma, or the newline that ends the row)."""
    lo, hi = int(body.min()), int(body.max())
    if hi - lo < body.size:
        # few values, or a narrow range of them: mark the ones present
        offset = body - lo
        present = np.zeros(hi - lo + 1, dtype=bool)
        present[offset] = True
        keys = np.flatnonzero(present) + lo
        where = (np.cumsum(present) - 1)[offset]
        del offset
    else:
        keys, where = np.unique(body, return_inverse=True)
        where = where.reshape(body.shape)
    text = list(map(str, keys.tolist()))
    table = np.array([t + "," for t in text] + [t + "\n" for t in text], dtype=object)
    where[:, -1] += len(text)
    cells = table[where]
    del where  # the strings of a chunk are the largest thing held here
    return "".join(cells.ravel().tolist())


def write_trace(path: str, ids: list[str],
                traces: Sequence[Sequence[TraceRecord]] | TraceTable) -> None:
    """Write ``trace.csv``: a header, then per retained sweep its chain and
    sweep number, canonical labels and colours. ``traces`` is one list of
    records per chain, or the ``TraceTable`` they stack into. Each distinct
    row is formatted once, and each record writes its row's text."""
    if not isinstance(traces, TraceTable):
        traces = stack_traces(traces, len(ids))
    texts = []
    for start in range(0, len(traces.rows), _TRACE_CHUNK):
        texts += _csv_int_rows(traces.rows[start:start + _TRACE_CHUNK]).splitlines(keepends=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["chain", "sweep"] + [f"c:{i}" for i in ids] + [f"k:{i}" for i in ids])
        fh.writelines(f"{chain},{sweep},{texts[row]}" for chain, sweep, row in zip(
            traces.chain.tolist(), traces.sweep.tolist(), traces.index.tolist()))


def _read_body(path: str, body: bytes, width: int):
    """The Python port of ``_sweep.TraceReader.read`` for ``body``, the bytes
    after the header: each distinct text after a line's chain and sweep is
    parsed once into a row. Cells of one to nine digits are checked in a few
    whole-body calls, any others line by line, naming the first bad line."""
    lines = body.split(b"\n")
    tail = lines.pop()  # the bytes after the last newline
    parts = [line.split(b",", 2) for line in lines]
    first: dict[bytes, int] = {}
    index = [first.setdefault(cells[-1], len(first)) for cells in parts]
    texts, heads = b",".join(first), b",".join([c for cells in parts for c in cells[:2]])
    joined = b"," + texts + b"," + heads + b","
    sizes = np.diff(np.flatnonzero(np.frombuffer(joined, dtype=np.uint8) == ord(","))) - 1
    if (joined.translate(None, b"0123456789,") or not 1 <= sizes.min() <= sizes.max() <= 9
            or any(len(cells) != 3 for cells in parts)
            or any(text.count(b",") != width - 3 for text in first)):
        for lineno, cells in enumerate((line.split(b",") for line in lines), start=2):
            if len(cells) != width:
                raise ValidationError(
                    f"{path}: line {lineno} has {len(cells)} fields, expected {width}")
            for field, cell in enumerate(cells, start=1):
                if not (cell.isdigit() and int(cell) < 2 ** 31):  # bytes.isdigit: ASCII only
                    raise ValidationError(  # the cell shown as a bytes literal, without its b
                        f"{path}: line {lineno}: invalid literal in field {field}: "
                        f"{repr(cell)[1:]}, expected ASCII digits up to {2 ** 31 - 1}")
    if tail:
        raise ValidationError(f"{path}: line {len(lines) + 2} does not end in a newline")
    chain, sweep = np.fromstring(heads, dtype=np.int32, sep=",").reshape(-1, 2).T.copy()
    return (chain, sweep, np.array(index, dtype=np.int64),
            np.fromstring(texts, dtype=np.int32, sep=",").reshape(-1, width - 2))


def _check_colours(path: str, ids: list[str], index: np.ndarray, colours: np.ndarray,
                   n_colours: int) -> None:
    """Reject a trace colour outside ``[0, n_colours)``, naming the line and
    column of the first record that has one. Record r's colours are
    ``colours[index[r]]``."""
    if colours.size == 0 or (colours.min() >= 0 and colours.max() < n_colours):
        return
    bad = (colours < 0) | (colours >= n_colours)
    record = int(np.argmax(bad.any(axis=1)[index]))
    row = index[record]
    item = int(np.argmax(bad[row]))
    raise ValidationError(
        f"{path}: line {record + 2}, column k:{ids[item]}: colour {colours[row, item]} "
        f"is outside [0, {n_colours})")


def _trace_ids(path: str, line: str) -> list[str]:
    """The item ids of a trace header line: ``chain``, ``sweep``, ``c:<id>``
    per item, then ``k:<id>`` for the same items in the same order, as
    ``csv.writer`` writes them. Any other header is a validation error that
    names the file and its first bad field."""
    try:
        header = next(csv.reader([line]), []) or [""]  # an empty line is one empty field
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise ValidationError(f"{path}: header: {exc}") from None
    n = (len(header) - 2) // 2
    if n < 1 or len(header) != 2 + 2 * n:
        raise ValidationError(f"{path}: header has {len(header)} fields, expected chain, "
                              "sweep and a c: and a k: column per item")
    ids = [name[2:] for name in header[2:2 + n]]
    expected = ["chain", "sweep"] + [f"c:{i}" for i in ids] + [f"k:{i}" for i in ids]
    for pos, (name, want) in enumerate(zip(header, expected), start=1):
        if name != want:  # a c: field's own id is wanted only if it starts with c:
            want = "'c:<id>'" if 2 < pos <= 2 + n else repr(want)
            raise ValidationError(f"{path}: header field {pos} is {name!r}, expected {want}")
    return ids


def read_trace(path: str) -> tuple[list[str], TraceTable]:
    """Reload a trace file as its item ids and a ``TraceTable``.

    A trace is read in the one form ``write_trace`` writes: a UTF-8 header
    of ``chain``, ``sweep``, then ``c:<id>`` and ``k:<id>`` per item (see
    ``_trace_ids``), then per record a line of comma-separated ASCII decimal
    cells up to 2**31 - 1, every line ending in a newline. The body is read
    by the compiled reader (``_sweep.TraceReader``) where the library loads,
    and otherwise, or where it stops at a line, by its Python port
    ``_read_body``. Anything else (an empty file included) is a validation
    error that names the file and the line, or the header's first bad field.
    """
    with open_input(path, binary=True) as fh:
        line = fh.readline()
        ids = _trace_ids(path, line.decode("utf-8"))
        if not line.endswith(b"\n") or line.endswith(b"\r\n"):
            raise ValidationError(f"{path}: line 1 does not end in a bare newline")
        width, lib = 2 + 2 * len(ids), _sweep.library()
        read = (None if lib is None else
                _sweep.TraceReader(lib, fh, width - 2, _READ_ROOM).read(_READ_CHUNK))
        if read is None:
            fh.seek(len(line))
            read = _read_body(path, fh.read(), width)
    return ids, TraceTable(*read)


def _summarize_outputs(out_dir: str, dataset: DatasetTable, model: PartitionPrior,
                       loss: LossSpec, strategy: str,
                       table: TraceTable) -> tuple[list[str], dict]:
    """Write similarity, assignments, summaries and crosstab from the retained
    sweeps: each distinct row of ``table`` counted as often as it occurs."""
    if len(table.index) == 0:
        raise ValidationError("no retained sweeps to summarize")
    n, rows = dataset.n, table.rows
    weights = np.bincount(table.index, minlength=len(rows))
    rho = accumulate_similarity(rows[:, :n], weights).matrix
    if strategy == "auto":
        strategy = "exact" if dataset.n <= MAX_ENUM_N else "greedy"
    estimate = optimal_partition(rho, loss, strategy=strategy)
    estimate_info = {
        "strategy": strategy,
        "clusters": estimate.degree,
        "loss": expected_pairwise_loss(estimate, rho, loss),
    }
    if dataset.n <= 10:
        # small instances report both search strategies for comparison
        for alt in ("exact", "greedy"):
            alt_part = (estimate if alt == strategy
                        else optimal_partition(rho, loss, strategy=alt))
            estimate_info[f"loss_{alt}"] = expected_pairwise_loss(alt_part, rho, loss)
    cluster_colours = _majority_colours(estimate, rows[:, n:], weights, model.n_colours)

    written = []

    def emit(name, header, rows):
        path = os.path.join(out_dir, name)
        _write_csv(path, header, rows)
        written.append(name)

    emit("similarity.csv", ["id"] + dataset.ids,
         [[item] + row for item, row in zip(dataset.ids, _fmt_cells(rho))])

    emit("assignments.csv", ["id", "cluster", "colour"],
         [[item, j, cluster_colours[j]] for item, j in zip(dataset.ids, estimate.allocation())])

    rows = []
    for j, summary in enumerate(cluster_summaries(estimate, dataset.data)):
        for k, col in enumerate(dataset.columns):
            rows.append([j, len(summary.items), col, _fmt(summary.mean[k]),
                         _fmt(summary.lower[k]), _fmt(summary.upper[k])])
    emit("cluster_summaries.csv",
         ["cluster", "size", "sample", "mean", "lower95", "upper95"], rows)

    if dataset.annotations:
        rows = []
        for name, categories in dataset.annotations.items():
            levels = sorted(set(categories))
            for j, c in enumerate(estimate.clusters):
                for level in levels:
                    count = sum(1 for i in c if categories[i] == level)
                    rows.append([name, j, level, count])
        emit("crosstab.csv", ["annotation", "cluster", "category", "count"], rows)

    return written, estimate_info


def run_pipeline(config: RunConfig) -> dict:
    """Sample, summarize, and write all artifacts; returns the manifest dict."""
    probe = os.path.join(config.out_dir, ".write-probe")
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ValidationError(
            f"output directory {config.out_dir!r}: {exc.strerror or exc}") from exc

    traces = run_chains(config)
    table = stack_traces(traces, config.dataset.n)
    write_trace(os.path.join(config.out_dir, "trace.csv"), config.dataset.ids, table)
    artifacts = ["trace.csv"]
    written, estimate_info = _summarize_outputs(
        config.out_dir, config.dataset, config.model, config.loss, config.strategy, table)
    artifacts += written

    # the output location is not part of the run's content; keep same-seed
    # runs byte-identical wherever they land
    echo = {k: v for k, v in config.echo.items() if k != "out"}
    manifest = {
        "package": "cdpmix",
        "version": __version__,
        "config": echo,
        "n_items": config.dataset.n,
        "n_samples": config.dataset.n_samples,
        "artifacts": sorted(artifacts + ["manifest.json"]),
        "estimate": estimate_info,
        "log_posterior": [rec.log_posterior for trace in traces for rec in trace],
    }
    with open(os.path.join(config.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _check_ids(path: str, ids: list[str], expected: list[str]) -> None:
    """Reject a trace whose item ids are not the configured dataset's, naming
    the file and the first id that differs."""
    for pos, (have, want) in enumerate(zip(ids, expected), start=1):
        if have != want:
            raise ValidationError(f"{path}: item {pos} is {have!r}, but item {pos} of the "
                                  f"configured dataset is {want!r}")
    if len(ids) != len(expected):
        raise ValidationError(f"{path}: the trace has {len(ids)} items, but the configured "
                              f"dataset has {len(expected)}")


def summarize_run(out_dir: str) -> dict:
    """Recompute estimation outputs from an existing run directory's trace."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = load_json(manifest_path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ValidationError(f"{manifest_path}: manifest has no config object")
    config = parse_config(manifest["config"])
    trace_path = os.path.join(out_dir, "trace.csv")
    ids, table = read_trace(trace_path)
    _check_ids(trace_path, ids, config.dataset.ids)
    _check_colours(trace_path, ids, table.index, table.rows[:, len(ids):],
                   config.model.n_colours)
    _summarize_outputs(out_dir, config.dataset, config.model, config.loss,
                       config.strategy, table)
    return manifest
