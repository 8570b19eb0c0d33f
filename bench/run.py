"""fluxq benchmark: one workload per process, every answer checked.

    python3 bench/run.py --workload typecheck|oracle|run --seed N \\
        --seconds S --trace 0|1 [--out DIR]

Run from the root of a fluxq checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the same
object, with the run's settings, is written to ``DIR`` (default
``.bench_out/results``) for ``bench/compare.py``.

With ``--trace 0`` the run makes whole passes over the workload's seeded
corpus: as many as take about ``--seconds`` at this commit (``NOMINAL_PASS_S``
holds one pass's time on a 2-core x86-64 VM under Python 3.11), so the
amount of work depends only on ``--seconds`` and both sides of a comparison
do the same work.  It reports the end-to-end metrics.  Every time is
corrected for the host's speed at the moment it was taken (``speed.py``).

With ``--trace 1`` it runs a fixed part of the corpus twice, first plain
and then with spans at fluxq's entry points (see ``tracing.py``), and reports
the per-layer metrics: spans, self time and time per span for each layer,
the size of the printed types, subtyping calls per item, per-stratum median
latency, and the tracing overhead.  Spans go to ``.bench_out/spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

NOMINAL_PASS_S = {"typecheck": 1.2, "oracle": 2.6, "run": 4.6}
SETUP_RUNS = 15

_IMPORT_PROBE = ("import sys, time\n"
                 "sys.path[:0] = sys.argv[1:3]\n"
                 "import speed\n"
                 "loop = speed.loop_s()\n"
                 "start = time.perf_counter()\n"
                 "import fluxq.cli\n"
                 "print(speed.corrected(time.perf_counter() - start, loop))\n")


def import_seconds() -> float:
    """Seconds to ``import fluxq.cli`` in a fresh interpreter, corrected
    for the host's speed just before."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(times) -> tuple[float, float]:
    """The highest percentile with ten of ``times`` beyond it, and its
    value (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def one_pass(workload, items, fastest, tracer=None):
    """Run and check every item once, lowering ``fastest[i]`` to item i's
    time if it beat it; return (failed, printed type chars).

    Before every ``workload.collect_every`` items, untimed, the cyclic
    garbage collector runs, so each timed item starts from the same
    collector state instead of paying for garbage left by the one before it,
    and the host's speed is measured, to correct the items' times."""
    failed = chars = 0
    clock = time.perf_counter
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        if index % workload.collect_every == 0:
            gc.collect()
            loop = speed.loop_s()
        start = clock()
        try:
            result = workload.run(item)
        except Exception as exc:  # an unexpected exception fails the item
            print(f"item {index}: {type(exc).__name__}: {exc}", file=sys.stderr)
            fastest[index] = min(fastest[index], speed.corrected(clock() - start, loop))
            failed += 1
            continue
        fastest[index] = min(fastest[index], speed.corrected(clock() - start, loop))
        if workload.check(item, result):
            chars += workload.type_chars(item, result)
        else:
            failed += 1
    return failed, chars


def unrun(items) -> array:
    """Per-item fastest times before any pass."""
    return array("d", [float("inf")]) * len(items)


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, seconds: int):
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload.name]))
    # The set-up probes are spread over the run, before, between and after
    # the passes, so that their median describes the whole run and not one
    # moment of the machine's load.
    slots = [round(i * passes / (SETUP_RUNS - 1)) for i in range(SETUP_RUNS)]
    setup = []
    n = len(workload.items)
    fastest = unrun(workload.items)
    failed = 0
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    for index in range(passes + 1):
        setup += [import_seconds() for _ in range(slots.count(index))]
        if index < passes:
            failed += one_pass(workload, workload.items, fastest)[0]
    elapsed = time.perf_counter() - start
    ops = n * passes
    # Throughput, median and tail from each item's fastest time over the
    # passes.  The items are deterministic, so a slower repeat only adds an
    # interrupt or other noise that the speed correction does not remove.
    pct, tail_s = tail(fastest)
    summary = (f"{workload.name}: {passes} passes, {ops} items and {len(setup)} "
               f"set-up probes in {elapsed:.2f} s; item_tail_ms is p{pct:.4g} "
               f"of the {n} items' fastest times")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "items_per_s": metric(n / sum(fastest), "1/s"),
        "item_p50_ms": metric(statistics.median(fastest) * 1e3, "ms"),
        "item_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops": metric(ops, "count"),
        "ops_ok_share": metric((ops - failed) / ops, "share"),
    }
    extra = {"tail_percentile": pct, "tail_samples": n, "passes": passes,
             "elapsed_s": elapsed}
    return ops, failed, metrics, summary, extra


def traced_run(workload, seed: int, spans_dir: Path):
    import corpus
    from tracing import LAYERS, Tracer

    items = workload.trace_items()
    gc.collect()
    gc.freeze()
    plain = unrun(items)
    failed, _ = one_pass(workload, items, plain)
    per_stratum = {}
    for item, seconds in zip(items, plain):
        per_stratum.setdefault(workload.stratum(item), []).append(seconds)

    tracer = Tracer()
    traced = unrun(items)
    tracer.install()
    try:
        traced_failed, chars = one_pass(workload, items, traced, tracer=tracer)
    finally:
        tracer.remove()
    failed += traced_failed
    plain_s, traced_s = sum(plain), sum(traced)

    metrics = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        calls, self_s = totals[layer]["calls"], totals[layer]["self_s"]
        metrics[f"{layer}.calls"] = metric(calls, "count")
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.per_call_us"] = metric(self_s / calls * 1e6 if calls else 0.0, "us")
    metrics["printer.type_chars"] = metric(chars, "count")
    metrics["subtyping.calls_per_item"] = metric(totals["subtyping"]["calls"] / len(items), "count")
    # traced time per item over plain time per item, same items: 1.0 is free
    metrics["trace.overhead"] = metric(traced_s / plain_s, "x")
    for name, strata in (("typecheck", corpus.TYPECHECK_STRATA), ("run", corpus.RUN_STRATA)):
        for stratum in strata:
            values = per_stratum.get(stratum) if workload.name == name else None
            metrics[f"{name}.{stratum}.p50_ms"] = metric(
                statistics.median(values) * 1e3 if values else 0.0, "ms")

    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    summary = (f"{workload.name} traced: {len(items)} items, plain {plain_s:.2f} s, "
               f"traced {traced_s:.2f} s, {len(tracer.spans)} spans in "
               f"{spans_path.relative_to(ROOT)}")
    extra = {"items": len(items), "plain_s": plain_s, "traced_s": traced_s,
             "spans": len(tracer.spans)}
    return 2 * len(items), failed, metrics, summary, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("typecheck", "oracle", "run"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "results")
    args = parser.parse_args(argv)

    if not (SRC / "fluxq" / "cli.py").is_file():
        print(f"error: no fluxq sources under {SRC}", file=sys.stderr)
        return 2
    import_seconds()  # unmeasured: leaves the bytecode cache warm
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    work = ROOT / ".bench_out"
    workload = WORKLOADS[args.workload](args.seed, ROOT, work)
    if args.trace:
        attempted, failed, metrics, summary, extra = traced_run(
            workload, args.seed, work / "spans")
    else:
        attempted, failed, metrics, summary, extra = timed_run(
            workload, args.seconds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    args.out.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **extra, "result": result}
    (args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
