"""The benchmark's workloads: input generation, the timed CLI call, output checks.

Generation runs inside a set-up worker, which has ``src`` on its path and
imports cdpmix. ``argv``, ``work`` and ``check`` run in the parent, which
never imports cdpmix; the checks recompute what they compare against from
the generated inputs with the benchmark's own code.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

# Upper bound on timed calls in one run; set-up writes this many op configs.
MAX_OPS = 64

RUN_ARTIFACTS = ["assignments.csv", "cluster_summaries.csv", "crosstab.csv",
                 "manifest.json", "similarity.csv", "trace.csv"]
SUMMARY_ARTIFACTS = ["assignments.csv", "cluster_summaries.csv", "crosstab.csv",
                     "similarity.csv"]
RAT_TABLE = os.path.join("src", "cdpmix", "data", "rat_cns_synthetic.tsv")


def op_seed(seed: int, op: int) -> int:
    """Chain seed of timed call ``op`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def rat_ids(checkout: str) -> list[str]:
    """Item ids of the bundled rat table, read without cdpmix."""
    with open(os.path.join(checkout, RAT_TABLE), newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    return [row[0] for row in rows[1:] if row]


def read_matrix(path: str) -> tuple[list[str], np.ndarray]:
    """An id-labelled square CSV table (similarity.csv) as (ids, matrix)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0][1:], np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def coclustering(labels: np.ndarray) -> np.ndarray:
    """Fraction of records placing each pair together, with a unit diagonal."""
    records, n = labels.shape
    counts = np.zeros((n, n))
    for lab in np.unique(labels):
        hit = (labels == lab).astype(float)
        counts += hit.T @ hit
    rho = counts / records
    np.fill_diagonal(rho, 1.0)
    return rho


def geyer_ess(values) -> float:
    """Effective sample size by Geyer's (1992) initial monotone sequence."""
    x = np.asarray(values, dtype=float)
    n = x.size
    xc = x - x.mean()
    if n < 4 or not np.all(np.isfinite(x)) or not np.any(xc):
        return float(n)
    spec = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec), 2 * n)[:n]
    rho = acov / acov[0]
    pairs = rho[0:n - 1:2] + rho[1:n:2]
    stop = np.flatnonzero(pairs <= 0)
    pairs = np.minimum.accumulate(pairs[:stop[0] if stop.size else pairs.size])
    return float(n / (2.0 * pairs.sum() - 1.0))


def check_run_dir(out: str, ids: list[str], trace_rows: int) -> list[str]:
    """Problems with a ``cdpmix run`` output directory (empty when correct)."""
    missing = [a for a in RUN_ARTIFACTS if not os.path.isfile(os.path.join(out, a))]
    if missing:
        return [f"missing artifacts {missing}"]
    problems = []
    with open(os.path.join(out, "trace.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != trace_rows:
        problems.append(f"trace.csv has {rows} rows, expected {trace_rows}")
    problems += check_similarity(os.path.join(out, "similarity.csv"), ids)
    with open(os.path.join(out, "assignments.csv"), newline="") as fh:
        assigned = [row[0] for row in list(csv.reader(fh))[1:]]
    if sorted(assigned) != sorted(ids):
        problems.append("assignments.csv does not cover every id exactly once")
    listed = _read_json(os.path.join(out, "manifest.json")).get("artifacts")
    if listed != RUN_ARTIFACTS:
        problems.append(f"manifest lists artifacts {listed}, expected {RUN_ARTIFACTS}")
    return problems


def check_similarity(path: str, ids: list[str]) -> list[str]:
    header, rho = read_matrix(path)
    if header != ids or rho.shape != (len(ids), len(ids)):
        return ["similarity.csv ids or shape do not match the dataset"]
    problems = []
    if not np.array_equal(rho, rho.T):
        problems.append("similarity.csv is not symmetric")
    if not np.all(np.diag(rho) == 1.0):
        problems.append("similarity.csv diagonal is not 1")
    if rho.min() < 0.0 or rho.max() > 1.0:
        problems.append("similarity.csv has entries outside [0, 1]")
    return problems


class RunWorkload:
    """``cdpmix run`` on the bundled rat table with a fixed config and per-call seeds."""

    kind = "run"

    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config

    def _cfg_path(self, root: str, op: int) -> str:
        return os.path.join(root, f"op{op}.json")

    def generate(self, root: str, seed: int) -> None:
        for op in range(MAX_OPS):
            _write_json(self._cfg_path(root, op), dict(self.config, seed=op_seed(seed, op)))

    def parse(self, root: str) -> None:
        from cdpmix import pipeline
        pipeline.parse_config(_read_json(self._cfg_path(root, 0)),
                              out=os.path.join(root, "parsed"))

    def out_dir(self, root: str, op: int, tag: str = "") -> str:
        return os.path.join(root, f"out{op}{tag}")

    def argv(self, root: str, op: int, tag: str = "") -> list[str]:
        return ["run", "--config", self._cfg_path(root, op),
                "--out", self.out_dir(root, op, tag)]

    def work(self) -> tuple[int, int]:
        """(sweeps, trace records) that one call produces."""
        sweeps, burn_in = self.config["sweeps"], self.config["burn_in"]
        thin = self.config.get("thin", 1)
        return sweeps, -(-(sweeps - burn_in) // thin)

    def check(self, checkout: str, root: str, op: int, result: dict,
              tag: str = "") -> tuple[int, int, list[str]]:
        """(operations, failed operations, problems) for one timed call."""
        if result.get("exit_code") != 0:
            return 1, 1, [f"exit code {result.get('exit_code')}: {result.get('error', '')}"]
        problems = check_run_dir(self.out_dir(root, op, tag), rat_ids(checkout),
                                 self.work()[1])
        return 1, int(bool(problems)), problems

    def artifacts(self, root: str, op: int, tag: str = "") -> list[str]:
        out = self.out_dir(root, op, tag)
        return [os.path.join(out, a) for a in RUN_ARTIFACTS]

    def log_posterior(self, root: str, op: int, tag: str = ""):
        path = os.path.join(self.out_dir(root, op, tag), "manifest.json")
        return _read_json(path)["log_posterior"]


class SummarizeWorkload:
    """``cdpmix summarize`` over a generated 4-chain x 10000-record rat trace."""

    kind = "summarize"
    name = "rat-summarize"
    chains = 4
    records_per_chain = 10_000
    # the short real chain whose retained states the trace resamples
    source_sweeps = 40
    source_burn_in = 20

    def _run_dir(self, root: str) -> str:
        return os.path.join(root, "run")

    def generate(self, root: str, seed: int) -> None:
        from cdpmix import __version__, pipeline
        from cdpmix.gibbs import SweepPlan, TraceRecord, run_chain

        run_dir = self._run_dir(root)
        os.makedirs(run_dir, exist_ok=True)
        config = pipeline.parse_config({"preset": "wen-rat", "seed": op_seed(seed, 0),
                                        "chains": self.chains, "out": run_dir})
        plan = SweepPlan(self.source_sweeps, self.source_burn_in, seed=op_seed(seed, 1))
        source = run_chain(config.dataset.data, config.design, config.model,
                           config.specs, plan)
        rng = np.random.default_rng(op_seed(seed, 2))
        burn_in = config.plan.burn_in
        traces = []
        for _ in range(self.chains):
            picks = rng.integers(len(source), size=self.records_per_chain)
            traces.append([TraceRecord(burn_in + j, source[k].labels, source[k].colours,
                                       source[k].degree, source[k].colour_degrees,
                                       source[k].log_posterior)
                           for j, k in enumerate(picks)])
        pipeline.write_trace(os.path.join(run_dir, "trace.csv"), config.dataset.ids, traces)
        manifest = {
            "package": "cdpmix",
            "version": __version__,
            "config": {k: v for k, v in config.echo.items() if k != "out"},
            "n_items": config.dataset.n,
            "n_samples": config.dataset.n_samples,
            "artifacts": RUN_ARTIFACTS,
            "estimate": {},
            "log_posterior": [rec.log_posterior for trace in traces for rec in trace],
        }
        _write_json(os.path.join(run_dir, "manifest.json"), manifest)
        labels = np.array([rec.labels for trace in traces for rec in trace], dtype=np.int16)
        np.save(os.path.join(root, "labels.npy"), labels)

    def parse(self, root: str) -> None:
        from cdpmix import pipeline
        manifest = _read_json(os.path.join(self._run_dir(root), "manifest.json"))
        pipeline.parse_config(manifest["config"])

    def out_dir(self, root: str, op: int, tag: str = "") -> str:
        return self._run_dir(root)

    def argv(self, root: str, op: int, tag: str = "") -> list[str]:
        return ["summarize", "--out", self._run_dir(root)]

    def work(self) -> tuple[int, int]:
        records = self.chains * self.records_per_chain
        return records, records  # thin 1: every summarized record is one sweep

    def check(self, checkout: str, root: str, op: int, result: dict,
              tag: str = "") -> tuple[int, int, list[str]]:
        if result.get("exit_code") != 0:
            return 1, 1, [f"exit code {result.get('exit_code')}: {result.get('error', '')}"]
        ids = rat_ids(checkout)
        sim_path = os.path.join(self._run_dir(root), "similarity.csv")
        problems = check_similarity(sim_path, ids)
        if not problems:
            expected = coclustering(np.load(os.path.join(root, "labels.npy")))
            gap = float(np.abs(read_matrix(sim_path)[1] - expected).max())
            if gap > 1e-12:
                problems.append(f"similarity.csv differs from the co-clustering "
                                f"count of the trace by {gap:.3e}")
        return 1, int(bool(problems)), problems

    def artifacts(self, root: str, op: int, tag: str = "") -> list[str]:
        return [os.path.join(self._run_dir(root), a) for a in SUMMARY_ARTIFACTS]

    def log_posterior(self, root: str, op: int, tag: str = ""):
        return _read_json(os.path.join(self._run_dir(root), "manifest.json"))["log_posterior"]


class VerifyWorkload:
    """``cdpmix verify`` with only the sample counts shrunk.

    The suite's own seed, tolerances, levels, budgets and instance counts stay
    as shipped, so the input does not depend on the workload seed.
    """

    kind = "verify"
    name = "verify"
    overrides = {"equiv_samples": 10_000, "chain_sweeps": 20_000, "chain_burn_in": 1_000}
    n_checks = 8

    def _path(self, root: str) -> str:
        return os.path.join(root, "overrides.json")

    def generate(self, root: str, seed: int) -> None:
        _write_json(self._path(root), self.overrides)

    def parse(self, root: str) -> None:
        from cdpmix import checks
        checks.VerifySettings.from_overrides(_read_json(self._path(root)))

    def out_dir(self, root: str, op: int, tag: str = "") -> str:
        return root

    def argv(self, root: str, op: int, tag: str = "") -> list[str]:
        return ["verify", "--config", self._path(root)]

    def work(self) -> tuple[int, int]:
        """(sweeps, retained records) of the gibbs-convergence chain."""
        sweeps, burn_in = self.overrides["chain_sweeps"], self.overrides["chain_burn_in"]
        return sweeps, -(-(sweeps - burn_in) // 10)  # chain_thin keeps its default of 10

    def check(self, checkout: str, root: str, op: int, result: dict,
              tag: str = "") -> tuple[int, int, list[str]]:
        """Each check is one operation; a check without a [PASS] line failed."""
        lines = result.get("stdout", "").splitlines()
        passed = sum(1 for line in lines if line.startswith("[PASS] "))
        problems = [line for line in lines if line.startswith("[FAIL] ")]
        if passed + len(problems) != self.n_checks:
            problems.append(f"{passed} PASS and {len(problems)} FAIL lines, "
                            f"expected {self.n_checks} checks")
        if result.get("exit_code") != 0:
            problems.append(f"exit code {result.get('exit_code')}: {result.get('error', '')}")
        return self.n_checks, max(self.n_checks - passed, int(bool(problems))), problems

    def artifacts(self, root: str, op: int, tag: str = "") -> list[str]:
        return []

    def log_posterior(self, root: str, op: int, tag: str = ""):
        return None


WORKLOADS = {
    "rat-run": RunWorkload("rat-run", {
        "preset": "wen-rat", "sweeps": 400, "burn_in": 200}),
    "rat-cdp-subset": RunWorkload("rat-cdp-subset", {
        "preset": "wen-rat", "sweeps": 300, "burn_in": 20, "thin": 1,
        "model": {"family": "cdp", "colours": [[1, 1], [1, 0.5]]},
        "subset_move_rate": 1.0}),
    "rat-summarize": SummarizeWorkload(),
    "verify": VerifyWorkload(),
}
