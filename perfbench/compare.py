"""Compare two sets of benchmark runs under BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records run.py writes (``--record DIR``),
normally one per seed and workload. For every workload and end-to-end
metric this prints the median and quartiles of the per-run values on both
sides, the change of the median, and a verdict:

- ``worse``: the new median is worse by more than the metric's bound;
- ``better``: it is better by more than the base runs' own spread;
- ``same``: neither;
- ``unresolved``: the base spread is wider than the bound, and the new runs
  are neither all better nor all worse than every base run.

Exits 1 when any pairing is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> the per-run medians of untraced runs."""
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        for name, summary in record["metrics"].items():
            runs[record["workload"]][name].append(summary["median"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(base: list[float], new: list[float], lower_is_better: bool, bound: float) -> str:
    sign = 1.0 if lower_is_better else -1.0
    q1, median, q3 = quartiles(base)
    spread = (q3 - q1) / abs(median)
    worse_by = sign * (statistics.median(new) - median) / abs(median)
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    any_worse = False
    print(f"{'workload':12} {'metric':17} {'unit':6} {'base median [q1, q3]':36} "
          f"{'new median [q1, q3]':36} {'change':>8}  verdict")
    for workload in sorted(set(base) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base[workload].get(name), new[workload].get(name)
            if not a or not b:
                print(f"{workload:12} {name:17} missing on one side")
                continue
            result = verdict(a, b, metric["better"] == "lower", metric["bound"])
            any_worse |= result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1])
            print(f"{workload:12} {name:17} {metric['unit']:6} {_fmt(qa):36} {_fmt(qb):36} "
                  f"{change:>+8.2%}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
