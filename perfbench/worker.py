"""One workload pass in a fresh interpreter; prints one JSON line.

usage: python3 perfbench/worker.py ROOT WORKLOAD SEED MODE

ROOT is the checkout whose src/ holds the jshadow package.  MODE is
`setup` (import and generate the inputs, then stop), `pass` (one untraced
pass) or `traced` (one pass with every layer wrapped by tracer.Tracer).
The line printed carries `ready`, the perf_counter reading once jshadow.cli
is imported and the inputs are generated; perf_counter is the system-wide
monotonic clock, so the parent subtracts its own reading taken just before
the spawn to get the set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    root, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import jshadow.cli  # noqa: F401  (the import is part of the measured set-up)

    if not os.path.abspath(jshadow.cli.__file__).startswith(src + os.sep):
        print(f"jshadow was imported from {jshadow.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.generate(workload, seed)
    out: dict = {"ready": time.perf_counter()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = workloads.run_pass(workload, inputs, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.update(vars(result))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = {
            "stats": tracer.stats,
            "distinct": {name: len(args) for name, args in tracer.distinct.items()},
            "sweep_checks": tracer.sweep_checks,
            "leftover_wrappers": tracing.leftover_wrappers(),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped_spans,
        }
        out_dir = os.path.join(root, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}-{seed}.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
