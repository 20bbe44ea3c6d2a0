"""Command-line entry points: ``cdpmix run | verify | summarize``.

Exit codes: 0 success, 1 validation error (a bad argument included),
2 numerical failure, 3 verification-check failure.
"""

from __future__ import annotations

import argparse
import locale  # argparse imports it at its first message lookup; loaded here, main() need not
import sys

from . import pipeline
from .errors import NumericalError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


def _load_json(path: str | None) -> dict:
    if path is None:
        return {}
    loaded = pipeline.load_json(path)
    if not isinstance(loaded, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return loaded


def _cmd_run(args) -> int:
    config = pipeline.parse_config(_load_json(args.config), seed=args.seed,
                                   out=args.out, chains=args.chains)
    manifest = pipeline.run_pipeline(config)
    print(f"run complete: {config.out_dir} ({', '.join(manifest['artifacts'])})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import checks  # only verify needs it, so run and summarize start faster
    overrides = _load_json(args.config)
    results = checks.run_all(overrides, report=print)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _cmd_summarize(args) -> int:
    if args.out is None:
        raise ValidationError("summarize requires --out pointing at a run directory")
    pipeline.summarize_run(args.out)
    print(f"summaries recomputed in {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2, which here
    means a numerical failure; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdpmix",
        description="Bayesian nonparametric clustering pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sample, summarize, and write all artifacts")
    run.add_argument("--config", help="JSON run configuration")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--chains", type=int, help="number of chains")
    run.add_argument("--out", help="output directory")
    run.set_defaults(fn=_cmd_run)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--config", help="JSON sample counts: equiv_samples, chain_sweeps, "
                        "chain_burn_in")
    verify.set_defaults(fn=_cmd_verify)

    summ = sub.add_parser("summarize",
                          help="recompute estimation outputs from an existing trace")
    summ.add_argument("--out", help="existing run directory")
    summ.set_defaults(fn=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
