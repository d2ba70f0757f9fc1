#!/usr/bin/env python3
"""Compare result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py base.jsonl change.jsonl [more.jsonl ...]

Each file holds one JSON record per run (any mix of workloads and seeds) and
is one side of the comparison; the first file is the base of every ratio.  For
every (workload, metric) the table gives each side's median and quartiles over
its runs, the ratio ``side / base``, and a verdict against the metric's bound
in ``BENCHMARK.json``:

* ``ok``          the side's median is not worse than the base's by more than the bound,
* ``worse``       it is,
* ``unresolved``  the run-to-run spread (quartile distance / median) of either
                  side is wider than the bound, so the bound cannot be checked.

Runs are paired by position in their files (run the sides alternately, A B B A
..., appending to one file each); ``wins`` counts the pairs in which the side
beat the base, ties counting for neither.  A gain may be claimed only with at
least nine wins in ten and medians further apart than the base's own spread.

With a single file the table shows how steady the benchmark is: the spread of
every metric next to its bound.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2elib import stats  # noqa: E402


def load(path: str) -> dict:
    """``{(workload, metric): [value per run, in file order]}``."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                runs[(record["workload"], name)].append(metric["value"])
    return runs


def _declared() -> dict:
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _worsening(base: float, side: float, better: str) -> float:
    """Relative change of ``side`` against ``base``, positive when worse."""
    change = (side - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def _fmt(values) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def steadiness(path: str) -> int:
    declared = _declared()
    runs = load(path)
    noisy = 0
    print(f"{'workload':<12} {'metric':<34} {'median [q1, q3]':<44} {'spread':>8} {'bound':>6}  verdict")
    for (workload, name), values in runs.items():
        bound = declared[name].get("bound")
        spread = stats.spread(values) if len(values) > 1 else float("nan")
        if bound is None:
            verdict = "-"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "ok"
        else:
            verdict = "noisy"
            noisy += name != "setup_s"
        shown = "-" if bound is None else f"{bound:g}"
        print(f"{workload:<12} {name:<34} {_fmt(values):<44} {spread:>8.4f} {shown:>6}  {verdict}")
    return 1 if noisy else 0


def compare(paths) -> int:
    declared = _declared()
    base_path, base = paths[0], load(paths[0])
    worse = 0
    for side_path in paths[1:]:
        side = load(side_path)
        print(f"base = {base_path}    side = {side_path}    ratio = side / base")
        print(f"{'workload':<12} {'metric':<34} {'base median [q1, q3]':<44} "
              f"{'side median [q1, q3]':<44} {'ratio':>8} {'wins':>7}  verdict")
        for key, a in base.items():
            b = side.get(key)
            if not b:
                continue
            workload, name = key
            better = declared[name]["better"]
            bound = declared[name].get("bound")
            med_a, med_b = stats.median(a), stats.median(b)
            pairs = list(zip(a, b))
            wins = sum(_worsening(x, y, better) < 0 for x, y in pairs)
            if bound is None:
                verdict = "-"
            elif len(a) > 1 and len(b) > 1 and max(stats.spread(a), stats.spread(b)) > bound:
                verdict = "unresolved"
            elif _worsening(med_a, med_b, better) > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            ratio = med_b / med_a if med_a else float("nan")
            print(f"{workload:<12} {name:<34} {_fmt(a):<44} {_fmt(b):<44} "
                  f"{ratio:>8.4f} {wins:>3}/{len(pairs):<3}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths or paths[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if paths else 2
    return steadiness(paths[0]) if len(paths) == 1 else compare(paths)


if __name__ == "__main__":
    sys.exit(main())
