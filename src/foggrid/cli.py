"""Command-line interface.

Three subcommands:

``foggrid run <config> [--seed N] [--horizon S] [--out DIR]``
    Simulate the scenario as configured and write its report files.
``foggrid compare <config> [--seed N] [--horizon S] [--out DIR]``
    Run the identical workload in cloud-only and fog-augmented modes
    (same seed) and write both reports plus the deltas.
``foggrid validate <config>``
    Parse and validate only; print ``ok`` on success.

Output directory precedence: --out, then $FOGGRID_OUT unless it is
empty, then ./foggrid-out. Exit codes: 0 ok, 2 config error, 3 runtime error.
Errors go to stderr, one line per problem, prefixed with the error
category (``SchemaError:``, ``DanglingReference:``, ``InvalidTopology:``,
``IoFailure:``, ...).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .engine import run as run_simulation
from .errors import ConfigError, FogGridError
from .reporting import (
    build_report,
    compare_frameworks,
    emit_comparison,
    emit_report,
)
from .scenario import ScenarioConfig, load_config, with_overrides

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foggrid",
        description="Deterministic smart-grid fog/cloud network simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to a scenario YAML file")
        p.add_argument(
            "--seed", type=int, default=None, help="override the configured seed"
        )
        p.add_argument(
            "--horizon",
            type=float,
            default=None,
            metavar="S",
            help="override the configured horizon (seconds)",
        )
        p.add_argument(
            "--out",
            default=None,
            metavar="DIR",
            help="output directory (default: $FOGGRID_OUT or ./foggrid-out)",
        )

    add_common(sub.add_parser("run", help="simulate the scenario as configured"))
    add_common(
        sub.add_parser(
            "compare", help="run cloud-only vs fog-augmented on the same workload"
        )
    )
    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("config", help="path to a scenario YAML file")
    return parser


def _out_dir(args: argparse.Namespace) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get("FOGGRID_OUT") or "foggrid-out"


def _load(args: argparse.Namespace) -> ScenarioConfig:
    sc = load_config(args.config)
    seed = getattr(args, "seed", None)
    horizon = getattr(args, "horizon", None)
    return with_overrides(sc, seed=seed, horizon_s=horizon)


def _error_lines(exc: Exception) -> list[str]:
    lines = getattr(exc, "problems", None) or [exc]
    return [f"{type(exc).__name__}: {line}" for line in lines]


def _cmd_validate(args: argparse.Namespace) -> int:
    sc = load_config(args.config)
    rc = sc.run_config
    print(
        f"ok: {len(rc.topology.nodes)} nodes, "
        f"{len(rc.arrival_processes)} arrival processes, "
        f"{len(rc.sessions)} sessions"
    )
    return EXIT_OK


#: The summary.txt lines that ``run`` prints after writing the report.
_HEADLINE = ("mean_wait_s: ", "total_energy_mj: ", "trace_digest: ")


def _cmd_run(args: argparse.Namespace) -> int:
    sc = _load(args)
    result = run_simulation(sc.run_config)
    report = build_report(sc.run_config, result, c_ms=sc.c_ms)
    out = _out_dir(args)
    paths = emit_report(report, out)
    for path in paths:
        print(f"wrote {path}")
    with open(paths[-1], "r", encoding="utf-8") as fh:
        sys.stdout.write("".join(line for line in fh if line.startswith(_HEADLINE)))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    sc = _load(args)
    comp = compare_frameworks(sc)
    out = _out_dir(args)
    paths = emit_comparison(comp, out)
    for path in paths:
        print(f"wrote {path}")
    with open(paths[-1], "r", encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "compare": _cmd_compare,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FogGridError as exc:
        for line in _error_lines(exc):
            print(line, file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
