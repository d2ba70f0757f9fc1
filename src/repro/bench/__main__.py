"""Command-line entry point: ``python -m repro.bench <experiment> [options]``.

The experiments are the keys of :data:`repro.bench.experiments.EXPERIMENTS`
(``table2``, ``fig6``-``fig9``, ``overheads``, ``ldlt``, ``lu``, ``pcg``);
``all`` runs every one in sequence.  The variants are generated C, timed
against native scipy on the same pre-ordered matrix; every experiment but
``table2`` needs a C compiler.  ``--json [DIR]`` additionally writes each
experiment's rows to ``BENCH_<experiment>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.experiments import EXPERIMENTS
from repro.bench.reporting import render_csv, render_table
from repro.bench.runner import run_experiments
from repro.bench.suite import build_suite, small_suite


def _json_default(value):
    """Coerce NumPy scalars (and anything else odd) into JSON-friendly types."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def write_json_report(name: str, rows, *, directory: str, args_used: dict) -> str:
    """Write one experiment's rows to ``BENCH_<name>.json`` and return the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    payload = {"experiment": name, "title": EXPERIMENTS[name].title, "args": args_used, "rows": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    """Run the requested experiment(s) and print their result tables."""
    parser = argparse.ArgumentParser(prog="python -m repro.bench", description=__doc__)
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"], help="experiment to run")
    parser.add_argument("--small", action="store_true", help="use the small (fast) matrix suite")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of an ASCII table")
    parser.add_argument(
        "--json",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help="also write BENCH_<experiment>.json to DIR (default: current directory)",
    )
    args = parser.parse_args(argv)

    suite = small_suite() if args.small else build_suite()
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name, rows in run_experiments(names, suite):
        if args.csv:
            sys.stdout.write(render_csv(rows))
        else:
            sys.stdout.write(render_table(rows, title=EXPERIMENTS[name].title))
        sys.stdout.write("\n")
        if args.json is not None:
            path = write_json_report(name, rows, directory=args.json, args_used={"small": args.small})
            sys.stdout.write(f"[json report written to {path}]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
