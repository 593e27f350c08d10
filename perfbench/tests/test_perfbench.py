"""Tests of the benchmark itself: seeded inputs, expected exit codes, the
tracer leaving jshadow as it found it, and the harness contract.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest
import run
import tracer
import workloads
from conftest import BENCH, ROOT


def _digests_in_fresh_interpreter(seed: int, hashseed: str) -> dict:
    code = (
        "import hashlib, json, workloads; print(json.dumps({w: hashlib.sha256("
        f"workloads.inputs_bytes(workloads.generate(w, {seed}))).hexdigest() for w in workloads.WORKLOADS}}))"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_same_seed_gives_identical_inputs_and_another_seed_different_ones():
    here = {w: hashlib.sha256(workloads.inputs_bytes(workloads.generate(w, 5))).hexdigest() for w in workloads.WORKLOADS}
    assert _digests_in_fresh_interpreter(5, "1") == here
    assert _digests_in_fresh_interpreter(5, "2") == here
    other = _digests_in_fresh_interpreter(6, "1")
    for w in workloads.WORKLOADS:
        assert other[w] != here[w], w


@pytest.mark.parametrize("seed", [1, 2])
def test_valid_queries_exit_0_and_malformed_ones_exit_2_without_stray_stderr(seed):
    from jshadow import cli

    queries = workloads.generate("queries-mixed", seed)["queries"]
    assert {q["kind"] for q in queries} == {kind for kind, _ in workloads._QUERY_MIX}
    for query in queries:
        code, out, err, _ = workloads._cli_call(cli, query["argv"])
        if query["kind"] == "malformed":
            assert (code, out) == (2, ""), query["argv"]
            assert err.startswith(("error:", "usage:")), query["argv"]
        else:
            assert (code, err) == (0, ""), (query["argv"], err)
        assert workloads.check_query(query, code, out, err) is None, query["argv"]


def test_traced_pass_leaves_nothing_wrapped_and_sweep_all_still_matches_golden():
    import jshadow.sweeps
    import jshadow.symbols

    original_symbol = jshadow.symbols.hilbert_symbol
    t = tracer.Tracer()
    t.install()
    try:
        left = tracer.leftover_wrappers()
        # Names imported into other modules are rebound too.
        assert "jshadow.symbols.factorint" in left
        assert "jshadow.sweeps.hilbert_symbol" in left
        assert "jshadow.sweeps.SWEEPS['reciprocity']" in left
        assert "jshadow.padic.PadicNumber.__mul__" in left
        queries = workloads.generate("queries-mixed", 3)["queries"][:300]
        traced = workloads.run_pass("queries-mixed", {"queries": queries}, 3)
    finally:
        t.uninstall()
    assert traced.failed == 0, traced.problems
    assert tracer.leftover_wrappers() == []
    assert jshadow.sweeps.hilbert_symbol is original_symbol
    for name, (calls, total_s, self_s) in t.stats.items():
        assert 0 <= self_s <= total_s + 1e-9, name
    assert t.stats["cli.run"][0] == len(queries)

    result = workloads.run_pass("sweep-all", workloads.generate("sweep-all", workloads.GOLDEN["seed"]), workloads.GOLDEN["seed"])
    assert result.failed == 0, result.problems
    assert result.digest == workloads.GOLDEN["sha256"]
    assert result.checks == workloads.GOLDEN["checked"]


def test_benchmark_json_names_every_metric_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    # sweep-all is for runs by hand: its one long call is too coarse for a steady figure.
    assert [w["name"] for w in spec["workloads"]] == [w for w in workloads.WORKLOADS if w != "sweep-all"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from jshadow.sweeps import SWEEPS

    assert tuple(SWEEPS) == run.SWEEP_NAMES


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
