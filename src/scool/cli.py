"""Command-line entry point.

Subcommands: ``run`` executes one experiment, ``sweep-budget`` repeats it
across neighbor-keep fractions, ``validate-config`` only checks the config.
Exit codes: 0 success, 2 configuration error, 3 divergence, 4 broken
state invariant; 3 and 4 still write a partial report flagged
``"diverged": true``.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigurationError, DivergenceError, InvariantError
from .runner import run_budget_sweep, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INVARIANT = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the flat JSON config")
    p.add_argument("--out", default="scool-out", help="output directory (default: scool-out)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--snapshot-every", type=int, default=None,
        help="override the graph-snapshot cadence (rounds; 0 disables)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep-budget", help="run per neighbor-keep fraction")
    _add_common(sweep_p)
    sweep_p.add_argument(
        "--fractions",
        default="0.02,0.05,0.08,0.1",
        help="comma-separated keep fractions (default: 0.02,0.05,0.08,0.1)",
    )

    val_p = sub.add_parser("validate-config", help="validate a config and exit")
    val_p.add_argument("--config", required=True)
    return parser


def _load(args: argparse.Namespace):
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = config.replace(seed=args.seed)
    if getattr(args, "snapshot_every", None) is not None:
        config = config.replace(snapshot_every=args.snapshot_every)
    return config.validate()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate-config":
            load_config(args.config)
            print("config ok")
            return EXIT_OK
        config = _load(args)
        if args.command == "run":
            report = run_experiment(config, args.out)
            print(
                f"done: {config.prior_kind} T={config.rounds} "
                f"mean_test_acc={report.final_mean_acc:.4f} out={args.out}"
            )
            return EXIT_OK
        try:
            fractions = [float(tok) for tok in args.fractions.split(",") if tok.strip()]
        except ValueError as err:
            raise ConfigurationError(f"--fractions: {err}") from err
        if not fractions:
            raise ConfigurationError("--fractions must name at least one value")
        rows = run_budget_sweep(config, fractions, args.out)
        for row in rows:
            print(
                f"fraction={row['fraction']:.2f} mean_acc={row['mean_acc']:.4f} "
                f"comm_total={row['comm_total']:.1f}"
            )
        return EXIT_OK
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except InvariantError as err:
        print(f"invariant broken: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
