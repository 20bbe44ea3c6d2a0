"""One benchmark step in a fresh interpreter; prints a JSON result as its last line.

    python3 perfbench/worker.py '<json spec>'

Spec keys: ``mode`` (setup, op, golden or probe), ``checkout``, ``workload``,
``seed``, ``root`` (the run's scratch directory), and for ``op`` the call
index ``op``, an output ``tag`` and ``trace`` (write spans to ``spans``).
Each call runs in its own process so that imports count toward set-up and
peak resident memory belongs to that call alone.
"""

import json
import sys
import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from speed import SpeedProbe  # noqa: E402

GOLDEN_DIGEST = "6caf8745eb0ea50a"
PROBE_SIZES = (8, 9, 10)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(spec, workload) -> dict:
    """Imports, input generation and config parse, timed from interpreter start.

    ``setup_s`` is normalized to the nominal machine speed like the timed
    call (``speed.py``); ``setup_wall_s`` is the raw wall time.
    """
    with SpeedProbe() as speed:
        import cdpmix.cli  # noqa: F401
        t_import = time.perf_counter()
        workload.generate(spec["root"], spec["seed"])
        t_generate = time.perf_counter()
        workload.parse(spec["root"])
        t_end = time.perf_counter()
    return {"setup_s": speed.normalize(t_end - T_START),
            "setup_wall_s": speed.own(t_end - T_START), "import_s": t_import - T_START,
            "generate_s": t_generate - t_import, "parse_s": t_end - t_generate}


def op(spec, workload) -> dict:
    """One timed ``cdpmix.cli.main`` call, traced when the spec asks for it."""
    from cdpmix import cli

    tracer = None
    if spec.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    argv = workload.argv(spec["root"], spec["op"], spec.get("tag", ""))
    captured = io.StringIO()
    error = ""
    # In a traced call the probe's ticks land inside spans, adding about 2.5%
    # to self times in proportion to time; the probe makes the overhead ratio steady.
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
        except Exception:  # the call's failure is this step's result, not the worker's
            code = None
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
    out = {"exit_code": code, "wall_s": speed.own(wall), "norm_wall_s": speed.normalize(wall),
           "ref_ns": speed.ref_ns(), "ref_samples": len(speed.samples_ns),
           "peak_rss_mb": peak_rss_mb(), "stdout": captured.getvalue(), "error": error}
    if tracer is not None:
        tracer.write(spec["spans"])
        out["spans"] = tracer.by_name()
        out["counts"] = dict(tracer.counts)
        out["span_count"] = len(tracer.spans) // 4
    return out


def golden(spec, workload) -> dict:
    """The ROADMAP's golden trace digest, by its stated recipe."""
    from cdpmix import pipeline
    from cdpmix.gibbs import run_chain

    t0 = time.perf_counter()
    config = pipeline.parse_config({"preset": "wen-rat", "sweeps": 2000, "burn_in": 0,
                                    "seed": 7, "out": os.path.join(spec["root"], "golden")})
    trace = run_chain(config.dataset.data, config.design, config.model, config.specs,
                      config.plan)
    digest = hashlib.sha256(
        repr([(r.labels, r.colours) for r in trace]).encode()).hexdigest()[:16]
    return {"digest": digest, "expected": GOLDEN_DIGEST, "ok": digest == GOLDEN_DIGEST,
            "wall_s": time.perf_counter() - t0}


def probe(spec, workload) -> dict:
    """Exact loss search on seeded random similarity matrices at n = 8, 9, 10."""
    import numpy as np
    from cdpmix.estimation import LossSpec, expected_pairwise_loss, optimal_partition

    times, problems = {}, []
    for n in PROBE_SIZES:
        rng = np.random.default_rng([spec["seed"], n])
        a = rng.random((n, n))
        rho = (a + a.T) / 2.0
        np.fill_diagonal(rho, 1.0)
        t0 = time.perf_counter()
        exact = optimal_partition(rho, LossSpec(), strategy="exact")
        times[n] = time.perf_counter() - t0
        greedy = optimal_partition(rho, LossSpec(), strategy="greedy")
        if expected_pairwise_loss(exact, rho) > expected_pairwise_loss(greedy, rho) + 1e-9:
            problems.append(f"n={n}: exact search lost to greedy")
    return {"times": times, "problems": problems}


MODES = {"setup": setup, "op": op, "golden": golden, "probe": probe}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["checkout"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    result = MODES[spec["mode"]](spec, WORKLOADS[spec["workload"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
