"""cdpmix benchmark: four workloads through ``cdpmix.cli.main``, end to end and per layer.

    python3 perfbench/run.py --workload rat-run --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; cdpmix is imported from ``src``
without installing it. Every timed call runs in a fresh worker process
(``worker.py``), one at a time: a closed loop with one client, single
process, single thread.

``--trace 0`` sets up several times, then repeats the workload's timed CLI
call until ``--seconds`` have passed, checks every call's output and
reports the end-to-end metrics as medians over calls. Set-up and call
times are scaled to a nominal machine speed by the probe in ``speed.py``;
the raw times are printed too. ``--trace 1`` runs
the call once untraced and once with spans around the public functions of
every cdpmix module (``tracer.py``), and reports the per-layer metrics and
the tracing overhead. Metric names and units come from ``BENCHMARK.json``;
``README.md`` beside this file says which end-to-end metric each per-layer
metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.perfbench-work/`` in the checkout; result records and spans stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# Pin BLAS and OpenMP pools before numpy loads, here and in every worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from workloads import MAX_OPS, WORKLOADS, geyer_ess  # noqa: E402

SETUP_REPS = 3
WORKER_TIMEOUT_S = 170
WORK_DIR = ".perfbench-work"
CHECK_NAMES = ("eppf_normalization", "ewens_agreement", "construction_equivalence",
               "dp_moments", "conjugate_identities", "gibbs_invariance",
               "gibbs_convergence", "loss_optimizer")


class StepFailed(Exception):
    """A worker process exited badly or printed no result."""


def environment(checkout: str) -> dict:
    """Machine and software record stored with every result."""
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit or "unavailable (not a git checkout)",
        "source_sha256": source_digest(checkout),
        "loadavg_at_start": list(os.getloadavg()),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def source_digest(checkout: str) -> str:
    """sha256 over src/cdpmix, so results from a checkout without git still name the code."""
    import hashlib

    h = hashlib.sha256()
    base = os.path.join(checkout, "src", "cdpmix")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def call_worker(spec: dict) -> dict:
    """Run one worker step to completion and return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               json.dumps(spec)], capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{spec['mode']} step timed out after {WORKER_TIMEOUT_S}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StepFailed(f"{spec['mode']} step exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """One benchmark invocation: a workload, a seed and its scratch directory."""

    def __init__(self, checkout: str, name: str, seed: int, trace: bool):
        self.checkout = checkout
        self.workload = WORKLOADS[name]
        self.name, self.seed = name, seed
        work = os.path.join(checkout, WORK_DIR)
        self.root = os.path.join(work, "runs", f"{name}-s{seed}-t{int(trace)}")
        self.results_dir = os.path.join(work, "results")
        # one span file per workload, the latest traced run's, to bound disk use
        self.spans_path = os.path.join(work, "spans", f"{name}.bin")
        shutil.rmtree(self.root, ignore_errors=True)
        for path in (self.root, self.results_dir, os.path.dirname(self.spans_path)):
            os.makedirs(path, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def spec(self, mode: str, **extra) -> dict:
        return dict(mode=mode, checkout=self.checkout, workload=self.name,
                    seed=self.seed, root=self.root, **extra)

    def setup(self) -> dict:
        return call_worker(self.spec("setup"))

    def call(self, op: int, tag: str = "", trace: bool = False) -> dict | None:
        """One timed CLI call and its output check; None if the worker itself failed."""
        try:
            result = call_worker(self.spec("op", op=op, tag=tag, trace=trace,
                                           spans=self.spans_path))
        except StepFailed as exc:
            result, (attempted, failed, problems) = None, (1, 1, [str(exc)])
        else:
            attempted, failed, problems = self.workload.check(
                self.checkout, self.root, op, result, tag)
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"call {op}{tag}: {p}" for p in problems]
        return result

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)

    # -- untraced: end-to-end metrics -----------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        setups = [self.setup() for _ in range(SETUP_REPS)]
        calls = []
        start = time.perf_counter()
        while len(calls) < MAX_OPS and (not calls or time.perf_counter() - start < seconds):
            result = self.call(len(calls))
            if result is None:
                break
            if self.workload.kind == "run":
                shutil.rmtree(self.workload.out_dir(self.root, len(calls)), ignore_errors=True)
            calls.append(result)
        if not calls:
            raise StepFailed("no timed call completed")
        sweeps, records = self.workload.work()
        walls = [c["wall_s"] for c in calls]
        norms = [c["norm_wall_s"] for c in calls]
        self.notes.append(f"{len(calls)} timed calls, {SETUP_REPS} set-ups; wall_s per "
                          f"call: {', '.join(f'{w:.3f}' for w in walls)}; norm_wall_s per "
                          f"call: {', '.join(f'{w:.3f}' for w in norms)}")
        return {
            "setup_s": median(s["setup_s"] for s in setups),
            "setup_wall_s": median(s["setup_wall_s"] for s in setups),
            "norm_wall_s": median(norms),
            "norm_sweeps_per_s": median(sweeps / w for w in norms),
            "norm_records_per_s": median(records / w for w in norms),
            "peak_rss_mb": median(c["peak_rss_mb"] for c in calls),
            "wall_s": median(walls),
            "sweeps_per_s": median(sweeps / w for w in walls),
            "records_per_s": median(records / w for w in walls),
            "ref_ns": median(c["ref_ns"] for c in calls),
            "failed_ratio": self.failed / self.attempted,
        }, {"setups": setups, "calls": [{k: v for k, v in c.items() if k != "stdout"}
                                        for c in calls]}

    # -- traced: per-layer metrics --------------------------------------------

    def _artifact_bytes(self, tag: str) -> dict[str, bytes]:
        """Contents of the artifacts call 0 wrote; a missing one already failed its check."""
        out = {}
        for path in self.workload.artifacts(self.root, 0, tag):
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    out[os.path.basename(path)] = fh.read()
        return out

    def per_layer(self) -> tuple[dict, dict]:
        wl = self.workload
        self.setup()
        plain = self.call(0)
        if plain is None:
            raise StepFailed("untraced call failed")
        plain_bytes = self._artifact_bytes("")
        traced = self.call(0, tag="t", trace=True)
        if traced is None:
            raise StepFailed("traced call failed")
        traced_bytes = self._artifact_bytes("t")
        if traced_bytes != plain_bytes:
            self.fail("traced and untraced calls wrote different artifacts")

        extra: dict = {}
        if self.name == "rat-run":
            extra["golden"] = call_worker(self.spec("golden"))
            if not extra["golden"]["ok"]:
                print(f"LAW ANCHOR FAILED: golden trace digest {extra['golden']['digest']} "
                      f"!= {extra['golden']['expected']}", file=sys.stderr)
                self.fail("golden trace digest changed")
        if self.name == "verify":
            extra["probe"] = call_worker(self.spec("probe"))
            for problem in extra["probe"]["problems"]:
                self.fail(problem)

        spans, counts = traced["spans"], traced["counts"]

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        def self_s(name):
            return spans.get(name, {}).get("self_s", 0.0)

        def total_s(name):
            return spans.get(name, {}).get("total_s", 0.0)

        def per_call_us(name):
            return total_s(name) / calls(name) * 1e6 if calls(name) else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        lp = wl.log_posterior(self.root, 0, "t")
        if lp is None:
            self.notes.append("gibbs.ess_log_posterior: unavailable, verify writes no manifest")
        m = {
            "conjugate.log_marginal_parts.calls": calls("conjugate.log_marginal_parts"),
            "conjugate.log_marginal_parts.self_s": self_s("conjugate.log_marginal_parts"),
            "conjugate.log_marginal_parts.per_realloc": ratio(
                calls("conjugate.log_marginal_parts"), calls("gibbs.reallocate_item")),
            "priors.weight_lists.calls": calls("priors.weight_lists"),
            "priors.weight_lists.self_s": self_s("priors.weight_lists"),
            "priors.log_eppf.calls": calls("priors.log_eppf"),
            "priors.log_eppf.self_s": self_s("priors.log_eppf"),
            "partitions.constructed": counts.get("partitions.constructed", 0),
            "partitions.enumerated": counts.get("partitions.enumerated", 0),
            "gibbs.run_chain.self_s": self_s("gibbs.run_chain"),
            "gibbs.sweeps_per_s": ratio(counts.get("gibbs.sweeps", 0),
                                        total_s("gibbs.run_chain")),
            "gibbs.reallocate_item.calls": calls("gibbs.reallocate_item"),
            "gibbs.reallocate_item.self_s": self_s("gibbs.reallocate_item"),
            "gibbs.reallocate_item.us": per_call_us("gibbs.reallocate_item"),
            "gibbs.item_candidates.self_s": self_s("gibbs.item_candidates"),
            "gibbs.item_candidates.moves_per_item": ratio(
                counts.get("gibbs.item_candidates.moves", 0), calls("gibbs.item_candidates")),
            "gibbs.random_subset_move.calls": calls("gibbs.random_subset_move"),
            "gibbs.random_subset_move.self_s": self_s("gibbs.random_subset_move"),
            "gibbs.random_subset_move.us": per_call_us("gibbs.random_subset_move"),
            "gibbs.random_subset_move.changed_ratio": ratio(
                counts.get("gibbs.random_subset_move.changed", 0),
                calls("gibbs.random_subset_move")),
            "gibbs.subset_candidates.self_s": self_s("gibbs.subset_candidates"),
            "gibbs.snapshot.calls": calls("gibbs.snapshot"),
            "gibbs.snapshot.self_s": self_s("gibbs.snapshot"),
            "gibbs.ess_log_posterior": geyer_ess(lp) if lp is not None else 0.0,
            "estimation.accumulate_similarity.self_s":
                self_s("estimation.accumulate_similarity"),
            "estimation.cluster_summaries.self_s": self_s("estimation.cluster_summaries"),
            "estimation.optimal_partition.greedy.self_s":
                self_s("estimation.optimal_partition.greedy"),
            "estimation.optimal_partition.exact.calls":
                calls("estimation.optimal_partition.exact"),
            "estimation.optimal_partition.exact.self_s":
                self_s("estimation.optimal_partition.exact"),
            "estimation.expected_pairwise_loss.calls":
                calls("estimation.expected_pairwise_loss"),
            "estimation.expected_pairwise_loss.self_s":
                self_s("estimation.expected_pairwise_loss"),
            "pipeline.parse_config.self_s": self_s("pipeline.parse_config"),
            "pipeline.load_dataset.self_s": self_s("pipeline.load_dataset"),
            "pipeline.run_pipeline.self_s": self_s("pipeline.run_pipeline"),
            "pipeline.run_chains.self_s": self_s("pipeline.run_chains"),
            "pipeline.write_trace.self_s": self_s("pipeline.write_trace"),
            "pipeline.write_trace.bytes": counts.get("pipeline.write_trace.bytes", 0),
            "pipeline.artifacts.bytes": sum(len(b) for b in traced_bytes.values()),
            "pipeline.read_trace.self_s": self_s("pipeline.read_trace"),
            "pipeline.read_trace.bytes": counts.get("pipeline.read_trace.bytes", 0),
            "pipeline.summarize_run.self_s": self_s("pipeline.summarize_run"),
            "generators.sample_dp_partition_via_sticks.self_s":
                self_s("generators.sample_dp_partition_via_sticks"),
            "generators.sample_polya_sequence.self_s":
                self_s("generators.sample_polya_sequence"),
            "generators.sample_finite_mixture_alloc.self_s":
                self_s("generators.sample_finite_mixture_alloc"),
            "checks.failed": counts.get("checks.failed", 0),
            "cli.main.self_s": self_s("cli.main"),
            "trace.spans": traced["span_count"],
            "trace.overhead_ratio": traced["norm_wall_s"] / plain["norm_wall_s"],
        }
        for check in CHECK_NAMES:
            m[f"checks.{check}.s"] = total_s(f"checks.{check}")
        probe = extra.get("probe", {}).get("times", {})
        for n in (8, 9, 10):
            m[f"estimation.exact.n{n}_s"] = probe.get(str(n), 0.0)
        if not probe:
            self.notes.append("estimation.exact.n*_s: the exact-search probe runs on "
                              "the verify workload only")
        if self.name != "rat-run":
            self.notes.append("golden trace digest: checked on the rat-run workload only")
        else:
            g = extra["golden"]
            self.notes.append(f"golden trace digest {g['digest']} "
                              f"({'matches' if g['ok'] else 'DIFFERS FROM'} {g['expected']})")
        self.notes.append(f"tracing overhead: traced norm_wall_s {traced['norm_wall_s']:.3f} / "
                          f"untraced norm_wall_s {plain['norm_wall_s']:.3f} (raw wall_s "
                          f"{traced['wall_s']:.3f} / {plain['wall_s']:.3f})")
        record = {"untraced": {k: v for k, v in plain.items() if k != "stdout"},
                  "traced_wall_s": traced["wall_s"], "spans": spans, "counts": counts,
                  "spans_file": os.path.relpath(self.spans_path, self.checkout), **extra}
        return m, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    bench_path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(checkout, "src", "cdpmix", "cli.py")):
        print("error: run from the root of a cdpmix checkout (src/cdpmix not found)",
              file=sys.stderr)
        return 2
    if not os.path.isfile(bench_path):
        print("error: BENCHMARK.json not found in the working directory", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)

    env = environment(checkout)
    run = Run(checkout, args.workload, args.seed, bool(args.trace))
    started = time.perf_counter()
    try:
        if args.trace:
            values, record = run.per_layer()
            specs = bench["per_layer"]
        else:
            values, record = run.end_to_end(args.seconds)
            specs = bench["end_to_end"]
    except StepFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.root, ignore_errors=True)

    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

    print(f"cdpmix benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, "
          f"{time.perf_counter() - started:.1f}s")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    units = {s["name"]: s["unit"] for s in bench["end_to_end"] + bench["per_layer"]}
    units.update({"setup_wall_s": "s", "wall_s": "s", "sweeps_per_s": "1/s", "records_per_s": "1/s",
                  "ref_ns": "ns", "failed_ratio": "ratio"})
    for name, value in values.items():
        print(f"  {name:48s} {value:.6g} {units.get(name, '')}")
    for note in run.notes:
        print(f"  note: {note}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")

    with open(os.path.join(run.results_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump({"environment": env, "args": vars(args), "result": result,
                   "values": values, "notes": run.notes, "problems": run.problems,
                   "record": record}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
