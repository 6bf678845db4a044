"""Compare two sets of end-to-end runs, per metric and per workload.

    python benchmarks/e2e/compare.py A_DIR B_DIR

``A_DIR`` holds the parent's ``result-*.json`` files (written by ``run.py
--out``), ``B_DIR`` the change's. For every (metric, workload) pair listed
in ``BENCHMARK.json`` it prints both sides' median and quartiles, the share
of paired runs B wins, and a verdict:

* ``improved`` — B wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ, in B's favour, by more than A's
  inter-quartile distance;
* ``unresolved`` — the run-to-run spread (the mean of the two sides'
  own spreads) is wider than the metric's bound and not every B run beats
  every A run;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unchanged`` — otherwise.

It also prints each workload's failure share (failed / attempted) on both
sides. Runs are paired by seed where both sides have the same seeds.
Exit code: 0 when nothing regressed, 1 when something did, 2 when the
inputs cannot be compared (missing runs, or runs whose ``fused_backend``,
Python version or ``nproc`` labels differ).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import REPO, quartiles, relative_spread  # noqa: E402


def load(directory: Path) -> dict[str, list[dict]]:
    """Result records in ``directory``, by workload, sorted by seed."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("result-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return dict(runs)


def verdict(a: list[float], b: list[float], bound: float, better: str) -> dict:
    """§8 verdict for one metric: A is the parent, B the change."""
    sign = 1.0 if better == "lower" else -1.0
    cost_a = [sign * x for x in a]
    cost_b = [sign * x for x in b]
    pairs = list(zip(cost_a, cost_b))
    wins = sum(1 for x, y in pairs if y < x) / len(pairs)
    qa, qb = quartiles(a), quartiles(b)
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = (relative_spread(a) + relative_spread(b)) / 2
    if wins >= 0.9 and worse_by < 0 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        name = "improved"
    elif spread > bound and not max(cost_b) < min(cost_a):
        name = "unresolved"
    elif worse_by > bound:
        name = "regressed"
    else:
        name = "unchanged"
    return {"verdict": name, "a": qa, "b": qb, "wins": wins, "worse_by": worse_by, "spread": spread}


def paired(a: list[dict], b: list[dict]) -> tuple[list[dict], list[dict]]:
    """Pair runs by seed when both sides ran the same seeds."""
    seeds_a, seeds_b = [r["seed"] for r in a], [r["seed"] for r in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        return a, b
    n = min(len(a), len(b))
    return a[:n], b[:n]


def failure_share(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir", type=Path, help="parent runs")
    parser.add_argument("b_dir", type=Path, help="change runs")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_runs, b_runs = load(args.a_dir), load(args.b_dir)
    records = [r for runs in (a_runs, b_runs) for rs in runs.values() for r in rs]
    labels = {json.dumps(r["labels"], sort_keys=True) for r in records}
    if len(labels) > 1:
        print("refusing to compare runs with different labels:", file=sys.stderr)
        for label in sorted(labels):
            print(f"  {label}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in a_runs and w["name"] in b_runs]
    if not workloads:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2

    regressed = False
    for workload in workloads:
        a, b = paired(a_runs[workload], b_runs[workload])
        share_a, share_b = failure_share(a), failure_share(b)
        print(f"{workload}: {len(a)} paired runs, failure share {share_a:.4f} -> {share_b:.4f} "
              f"(delta {share_b - share_a:+.4f})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result = verdict(
                [r["metrics"][name] for r in a],
                [r["metrics"][name] for r in b],
                metric["bound"],
                metric["better"],
            )
            regressed = regressed or result["verdict"] == "regressed"
            qa, qb = result["a"], result["b"]
            print(
                f"  {name:<18} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {metric['unit']}  "
                f"worse by {result['worse_by']:+.2%}  B wins {result['wins']:.0%}  "
                f"spread {result['spread']:.2%} / bound {metric['bound']:.0%}  {result['verdict']}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
