"""Layered benchmark of jshadow: end-to-end metrics, or per-layer metrics from a traced pass.

usage: python3 perfbench/run.py --workload {sweep-stream,queries-mixed,padic-imj,sweep-all}
           --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is the jshadow package in its
src/.  Every timed pass runs in a fresh interpreter (one process, one
client, closed loop), so module caches start cold as they do for each CLI
invocation, and interpreter start, import and input generation count as
set-up, not as timed work.

--trace 0 runs a fixed number of untraced passes, about S seconds' worth
at the baseline (workloads.passes_per_run), with set-up-only interpreters
between them, and reports the end-to-end metrics from each query's fastest
repetition (see end_to_end for why).
--trace 1 runs two untraced and two traced passes, alternating, and reports
the per-layer metrics of the faster traced one; end-to-end numbers never
come from it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it list every metric with
its unit, the failure ratio and an environment stamp; the full record also
goes to .perfbench-out/ in the checkout.  The exit code is 1 if any output
check failed and 2 if the checkout holds no jshadow sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS, passes_per_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_ONLY_CHILDREN = 30
TRACE_PAIRS = 2
DEADLINE_S = 170  # every child is killed after this, so the run ends within 180 s

# The keys of sweeps.SWEEPS, in order; a test keeps this in step with jshadow.
SWEEP_NAMES = (
    "reciprocity",
    "oracle-agreement",
    "zolotarev",
    "imj-consistency",
    "bernoulli",
    "rezk-log",
    "surjectivity",
    "norm-identity",
    "quillen",
    "pi2-nontriviality",
    "geometric-series",
    "low-degree-j",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SPAN_KINDS = (
    ("integers.factorint", ("calls", "self_s", "distinct", "distinct_ratio")),
    ("integers.is_prime", ("calls", "self_s")),
    ("symbols.hilbert_reciprocity_check", ("calls", "self_s")),
    ("symbols.hilbert_symbol", ("calls", "self_s")),
    ("symbols.jacobi", ("calls", "self_s")),
    ("symbols.tame_symbol", ("calls", "self_s")),
    ("symbols.Place", ("constructions",)),
    ("symbols.hilbert_oracle", ("calls", "self_s")),
    ("symbols.zolotarev_sign", ("calls", "self_s")),
    ("padic.arith", ("calls", "self_s")),
    ("padic.embed", ("calls", "self_s")),
    ("padic.padic_log", ("calls", "self_s")),
    ("padic.teichmuller", ("calls", "self_s")),
    ("padic.rezk_log_pi0", ("calls", "self_s")),
    ("padic.smallest_topological_generator", ("calls", "distinct", "distinct_ratio")),
    ("imj.bernoulli", ("calls", "self_s")),
    ("imj.k1_sphere_order", ("calls", "self_s")),
    ("imj.surjectivity_check", ("calls", "self_s")),
    ("imj.norm_identity_check", ("calls", "self_s")),
    ("imj.k_finite_field", ("calls", "self_s")),
    ("jmaps.j_tame_pi1", ("calls", "self_s")),
    ("jmaps.adelic_norm_product", ("calls", "self_s")),
    *((f"sweeps.{name}", ("wall_s", "us_per_check")) for name in SWEEP_NAMES),
    ("cli.build_parser", ("self_s",)),
    ("cli.run", ("self_s",)),
    ("cli.emit", ("self_s",)),
)
_UNITS = {
    "calls": "count",
    "constructions": "count",
    "distinct": "count",
    "distinct_ratio": "ratio",
    "self_s": "s",
    "wall_s": "s",
    "us_per_check": "us",
}
PER_LAYER = {
    **{f"{span}.{kind}": _UNITS[kind] for span, kinds in _SPAN_KINDS for kind in kinds},
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its result,
    with `setup_s` and `elapsed_s` measured from just before the spawn."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, ROOT, workload, str(seed), mode],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} worker did not finish before the deadline") from None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise ChildFailed(f"{mode} worker printed no result: {proc.stdout[-500:]!r}") from None
    result["setup_s"] = result["ready"] - t0
    result["elapsed_s"] = elapsed
    return result


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest_failures(passes: list[dict]) -> list[str]:
    """Every pass must produce byte-identical outputs to the first."""
    return [
        f"pass {i} output digest {p['digest'][:12]} differs from pass 0 ({passes[0]['digest'][:12]})"
        for i, p in enumerate(passes)
        if p["digest"] != passes[0]["digest"]
    ]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict], list[float]]:
    n = passes_per_run(workload, seconds)
    setups: list[float] = []
    passes: list[dict] = []
    for i in range(n):
        # Set-up-only workers are spread between the passes, so that a slow
        # spell early in the run does not decide setup_s.
        for _ in range((i + 1) * SETUP_ONLY_CHILDREN // n - i * SETUP_ONLY_CHILDREN // n):
            setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
        passes.append(spawn(workload, seed, "pass", deadline))
        setups.append(passes[-1]["setup_s"])
    # Other tenants of the machine slow the program down in episodes, by up
    # to about 2x, and never speed it up: within one run, padic-imj passes of
    # identical inputs took 2.0 to 3.4 s.  Every pass repeats the
    # same queries in the same order in a fresh interpreter, so each query's
    # latency is the fastest of its repetitions, and wall_s is the sum of
    # those: a lower envelope of the pass time, not a pass that ran.  The
    # number of passes depends on --seconds alone (passes_per_run).
    # Set-up likewise is the fastest of its samples.
    latencies = [min(reps) for reps in zip(*(p["latencies_s"] for p in passes))]
    wall_s = math.fsum(latencies)
    metrics = {
        "setup_s": min(setups),
        "wall_s": wall_s,
        "checks_per_s": passes[0]["checks"] / wall_s,
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p99_ms": 1000 * nearest_rank(latencies, 0.99),
        "queries_per_s": len(latencies) / wall_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": metrics[name], "unit": END_TO_END[name]} for name in END_TO_END}, passes, setups


def _envelope(passes: list[dict]) -> float:
    """The sum over queries of each query's fastest latency in the passes."""
    return math.fsum(min(reps) for reps in zip(*(p["latencies_s"] for p in passes)))


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict], list[str]]:
    # Alternate untraced and traced passes.  The layer figures come from the
    # faster traced pass, and the overhead compares the lower envelopes of
    # the two modes, for the same reason end_to_end takes fastest repetitions.
    runs = [spawn(workload, seed, mode, deadline) for _ in range(TRACE_PAIRS) for mode in ("pass", "traced")]
    traced = min(runs[1::2], key=lambda r: r["wall_s"])
    trace = traced["trace"]
    stats = trace["stats"]
    values = {}
    for span, kinds in _SPAN_KINDS:
        calls, total_s, self_s = stats.get(span, (0, 0.0, 0.0))
        for kind in kinds:
            if kind in ("calls", "constructions"):
                value = calls
            elif kind == "self_s":
                value = self_s
            elif kind == "wall_s":
                value = total_s
            elif kind == "distinct":
                value = trace["distinct"][span]
            elif kind == "distinct_ratio":
                value = trace["distinct"][span] / calls if calls else 0.0
            else:  # us_per_check
                checks = trace["sweep_checks"].get(span.split(".", 1)[1], 0)
                value = 1e6 * total_s / checks if checks else 0.0
            values[f"{span}.{kind}"] = value
    values["cli.report_bytes"] = traced["report_bytes"]
    values["trace.overhead_ratio"] = _envelope(runs[1::2]) / _envelope(runs[0::2])
    leftovers = [f"left wrapped after a traced pass: {w}" for r in runs[1::2] for w in r["trace"]["leftover_wrappers"]]
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}, runs, leftovers


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def _loadavg() -> list[float] | None:
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop (integer, dict and Fraction
    work): how fast the machine runs Python right now, for telling a slow
    machine apart from a regression.  It is not used to adjust any metric."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(20_000):
            acc += i * i % 7
            table[i & 255] = Fraction(acc, i + 1)
        samples.append(time.perf_counter() - t0)
    return 1000 * statistics.median(samples)


def environment() -> dict:
    """Read-only facts that tell a noisy machine apart from a regression."""
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain"], capture_output=True, text=True, timeout=30
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": _loadavg(),
        "calibration_ms_start": calibration_ms(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "jshadow", "cli.py")):
        print(f"error: no jshadow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    stamp = environment()
    deadline = time.perf_counter() + DEADLINE_S
    metrics: dict = {}
    passes: list[dict] = []
    setups: list[float] = []
    harness: list[str] = []  # failures outside any pass: a worker crash, wrappers left installed
    try:
        if args.trace:
            metrics, passes, harness = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, passes, setups = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        harness.append(str(exc))
    stamp["loadavg_end"] = _loadavg()
    stamp["calibration_ms_end"] = calibration_ms()
    digests = _digest_failures(passes) if passes else []
    problems = harness + digests + [p for run in passes for p in run["problems"]]
    attempted = sum(p["attempted"] for p in passes) + len(harness)
    failed = sum(p["failed"] for p in passes) + len(digests) + len(harness)
    correct = failed == 0 and attempted > 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": stamp,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failure_ratio": failed / max(attempted, 1),
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k not in ("latencies_s", "trace")} for p in passes],
        "setup_samples_s": setups,
        "problems": problems,
    }
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:14} {name:48} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:14} {'failure_ratio':48} {record['failure_ratio']:>16.6g} ratio ({failed}/{attempted})")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("environment: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
