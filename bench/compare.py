"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage::

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one per
run.  For every metric of ``BENCHMARK.json`` and every workload present in
both files it prints the median and quartiles of the per-run values on each
side, the change of the median, and a verdict:

* ``better``: every change run beats every parent run; or the change wins at
  least nine tenths of the run pairs (the i-th run of each file, ties
  counting for neither) and the medians differ by more than the parent's
  interquartile distance;
* ``unresolved``: the relative interquartile spread of either side is wider
  than the metric's bound (0 for per-layer metrics) and no side dominates;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``within bound`` otherwise.

Exits 1 when any end-to-end metric is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, metric): [value per run, in file order]}"""
    out: dict = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                out.setdefault((rec["header"]["workload"], name), []).append(m["value"])
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cell(q1, med, q3) -> str:
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent: list, change: list, bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "better"
    wins = sum(1 for p, c in zip(parent, change) if sign * c < sign * p)
    pairs = min(len(parent), len(change))
    if pairs and wins >= 0.9 * pairs and sign * (pm - cm) > p3 - p1:
        return "better"
    spread = max((q3 - q1) / abs(m) if m else 0.0 for q1, m, q3 in ((p1, pm, p3), (c1, cm, c3)))
    if spread > bound:
        return "unresolved"
    worse = sign * (cm - pm) / abs(pm) if pm else (0.0 if cm == pm else float("inf"))
    return "worse" if worse > bound else "within bound"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    parent, change = load(argv[0]), load(argv[1])
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    metrics = [(m, True) for m in bench["end_to_end"]] + [(m, False) for m in bench["per_layer"]]
    any_worse = False
    print(f"{'workload':<14} {'metric':<48} {'parent p50 [q1, q3]':<32} "
          f"{'change p50 [q1, q3]':<32} {'delta':>8}  verdict")
    for m, e2e in metrics:
        for w in workloads:
            p, c = parent.get((w, m["name"])), change.get((w, m["name"]))
            if not p or not c:
                continue
            v = verdict(p, c, m.get("bound", 0.0), m["better"] == "lower")
            any_worse |= e2e and v == "worse"
            pq, cq = quartiles(p), quartiles(c)
            delta = f"{(cq[1] - pq[1]) / abs(pq[1]):+.1%}" if pq[1] else "n/a"
            print(f"{w:<14} {m['name']:<48} {cell(*pq):<32} {cell(*cq):<32} {delta:>8}  "
                  f"{v} (n={len(p)}/{len(c)})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
