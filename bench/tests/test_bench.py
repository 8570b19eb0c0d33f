"""Tests of the benchmark itself: the reference answers, the corpus, the
compare rule, the result contract, and determinism of traced runs.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import corpus  # noqa: E402
import ref  # noqa: E402
from ref import BOOL, EMPTY, STRING, alt, elem, seq, star, var  # noqa: E402
from run import tail  # noqa: E402


def test_type_text_follows_the_concrete_syntax():
    b, c, d = elem("b"), elem("c"), elem("d")
    assert ref.type_text(seq(elem("a", seq(star(seq(b, c)), c)), d)) == "a[(b[],c[])*,c[]],d[]"
    assert ref.type_text(seq(star(b), alt(c, EMPTY))) == "b[]*,c[]?"
    assert ref.type_text(alt(alt(b, b), c)) == "(b[]|b[])|c[]"
    assert ref.type_text(seq(seq(b, c), d)) == "(b[],c[]),d[]"
    assert ref.type_text(star(alt(var("T"), STRING))) == "(T|string)*"
    assert ref.type_text(elem("x", BOOL)) == "x[bool]"


def test_bounded_values_give_bounded_inclusion():
    values = ref.bounded_values(star(elem("a")), depth=1, width=3)
    assert len(values) == 4  # (), a[], a[],a[], a[],a[],a[]
    pair = ref.bounded_values(seq(elem("a"), elem("a")), 1, 3)
    assert pair <= values
    assert not values <= pair


def test_reference_semantics_match_the_documented_runs():
    # the README's run-update example and the CLI tests' eval outputs
    forest = (ref.node("a", ref.node("b"), ref.node("b"), ref.node("c")), ref.node("d"))
    assert ref.value_text(ref.insert_after(forest, "a", "b", ref.node("c"))) == (
        "a[b[],c[],b[],c[],c[]],d[]")
    old = (ref.node("tree", ref.node("leaf", ref.text("old"))),)
    assert ref.value_text(ref.overwrite_leaves(old, "leaf", "node", "pruned")) == (
        'tree[leaf["pruned"]]')
    tree = ref.node("tree", ref.node("node",
                                     ref.node("tree", ref.node("leaf", ref.text("u"))),
                                     ref.node("tree", ref.node("leaf", ref.text("v")))))
    assert ref.value_text(ref.collect_leaves(tree, "leaf")) == 'leaf["u"],leaf["v"]'


def test_corpus_is_a_function_of_the_seed():
    first = [(p.name, p.text, p.type, p.rules) for p in corpus.typecheck_corpus(7)]
    again = [(p.name, p.text, p.type, p.rules) for p in corpus.typecheck_corpus(7)]
    other = [(p.name, p.text, p.type, p.rules) for p in corpus.typecheck_corpus(8)]
    assert first == again
    assert first != other
    assert [d.text for d in corpus.run_corpus(3)] == [d.text for d in corpus.run_corpus(3)]


def test_corpus_strata_do_not_depend_on_the_seed():
    def shape(seed):
        return sorted((p.stratum, p.n, p.rc) for p in corpus.typecheck_corpus(seed))
    assert shape(1) == shape(2)
    assert (sorted((d.stratum, d.size) for d in corpus.run_corpus(1))
            == sorted((d.stratum, d.size) for d in corpus.run_corpus(2)))


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(100, 0, -1))) == (90.0, 90)
    assert tail(list(range(1, 1001))) == (99.0, 990)
    assert tail(list(range(1, 21))) == (50.0, 10)


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [80.0 + i for i in range(10)]
    assert compare.verdict(parent, faster, pairs(faster), "lower", 0.1)[0] == "improved"
    slower = [130.0 + i for i in range(10)]
    assert compare.verdict(parent, slower, pairs(slower), "lower", 0.1)[0] == "worse"
    same = [100.5 + i for i in range(10)]
    assert compare.verdict(parent, same, pairs(same), "lower", 0.1)[0] == "no worse"
    noisy = [50.0, 150.0] * 5
    mixed = [60.0, 140.0] * 5
    assert compare.verdict(noisy, mixed, list(zip(noisy, mixed)), "lower", 0.1)[0] == "unresolved"


def test_compare_counts_a_change_that_fails_items_as_worse(tmp_path, capsys):
    def record(side, seed, failed, ips):
        metrics = {m: {"value": 1.0, "unit": "x"} for m in
                   ("setup_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb", "ops",
                    "ops_ok_share")}
        metrics["items_per_s"] = {"value": ips, "unit": "1/s"}
        result = {"correct": failed == 0, "attempted": 100, "failed": failed,
                  "metrics": metrics}
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / f"oracle-seed{seed}-trace0.json").write_text(json.dumps(
            {"workload": "oracle", "seed": seed, "trace": 0, "result": result}))

    for seed in range(10):
        record("parent", seed, 0, 100.0 + seed)
        record("change", seed, 1 if seed == 3 else 0, 200.0 + seed)
    assert compare.main(["--parent", str(tmp_path / "parent"),
                         "--change", str(tmp_path / "change")]) == 1
    assert "failed items in the runs of seeds [3]" in capsys.readouterr().out


def _bench(tmp_path, *args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args, "--out", str(tmp_path)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _bench(tmp_path, "--workload", "run", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", ["typecheck", "oracle", "run"])
def test_traced_counts_repeat_exactly(tmp_path, workload):
    results = []
    for _ in range(2):
        done = _bench(tmp_path, "--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and first["failed"] == 0
    counts = [k for k in first["metrics"] if k.endswith(".calls")]
    counts += ["printer.type_chars", "subtyping.calls_per_item"]
    assert len(counts) == 12
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["attempted"] == second["attempted"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    done = _bench(tmp_path, "--workload", "typecheck", "--seed", "2", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert result["correct"] and result["failed"] == 0
