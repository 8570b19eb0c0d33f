"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py --parent PATH... --change PATH...

Each PATH is a result file written by ``bench/run.py --out DIR``, or a
directory of them.  Untraced runs of the same workload and seed form
a pair.  For each workload and end-to-end metric this prints both sides'
medians and quartiles, the change's share of pair wins, and a verdict:

* ``improved``: at least 10 pairs, the change better in at least nine
  tenths of them (ties count for neither), and the medians differ, in the
  change's favour, by more than the parent's quartile spread;
* ``unresolved``: the parent's quartile spread, as a share of its median,
  is wider than the metric's bound, and not every change run beats every
  parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
* ``no worse``: otherwise.

A workload on which any change run failed an item is ``worse`` as a
whole, whatever its timings: the parent fails none, and a gain does not
count when more operations fail.  The metrics and
bounds are read from the ``BENCHMARK.json`` beside ``bench/``.

Exits 1 if any pairing is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> dict[str, dict[int, dict]]:
    """Untraced runs as {workload: {seed: result}}."""
    runs: dict[str, dict[int, dict]] = {}
    files = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record["result"]
    return runs


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    """The verdict and the change's share of pair wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (med_p,) * 3
    gain = sign * (med_c - med_p)
    if len(pairs) >= 10 and share >= 0.9 and gain > q3 - q1:
        return "improved", share
    scale = abs(med_p) or 1.0
    if (q3 - q1) / scale > bound:
        beats_all = (min(change) > max(parent) if better == "higher"
                     else max(change) < min(parent))
        return ("no worse" if beats_all else "unresolved"), share
    return ("worse" if -gain / scale > bound else "no worse"), share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    worse = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload}: runs on one side only, not compared")
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, "
              f"{len(seeds)} pairs")
        failing = sorted(seed for seed, run in c_runs.items() if run["failed"])
        if failing:
            print(f"  worse: the change failed items in the runs of seeds {failing}")
            worse = True
        for m in metrics:
            name = m["name"]
            p_vals = [run["metrics"][name]["value"] for run in p_runs.values()]
            c_vals = [run["metrics"][name]["value"] for run in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds]
            result, share = verdict(p_vals, c_vals, pairs, m["better"], m["bound"])
            worse |= result == "worse"

            def summary(vals):
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
                return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

            print(f"  {name:14s} {m['unit']:6s} parent {summary(p_vals):34s} "
                  f"change {summary(c_vals):34s} wins {share:4.0%}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
