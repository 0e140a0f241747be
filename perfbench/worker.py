"""One pass of a workload in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports the package from the checkout's src/, builds the group models and
records the moment it is ready (CLOCK_MONOTONIC, so the parent can measure
set-up time from the spawn).  With --setup-only it stops there.  Otherwise
it makes the inputs from the seed, installs the tracer if asked, runs one
pass, and prints one JSON line with every operation's time and outcome.  A
traced pass also writes its spans to perfbench/out/spans-NAME-seedN.json.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import convexlab
    import convexlab.cli  # noqa: F401  (the bfs_scan entry point)
    from convexlab.bs_arith import BsGroupModel, BsParams
    from convexlab.stallings import StallingsModel

    if not os.path.abspath(convexlab.__file__).startswith(SRC + os.sep):
        print(f"error: convexlab imported from {convexlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    models = [BsGroupModel(BsParams(q)) for q in (2, 3, 7, 8)] + [StallingsModel()]
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready, "models": len(models)}))
        return 0

    import tracer
    import workloads

    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    p = workloads.Pass()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    run_pass(p, inputs, out_dir)
    memo = len(getattr(sys.modules["convexlab.bs_geodesics"], "_CORE_CACHE", ()))

    result = {
        "ready": ready,
        "attempted": len(p.ops),
        "failed": sum(1 for op in p.ops if op[2]),
        "wrong": p.wrong,
        "errors": p.errors[:20],
        "ops": [[ns, int(failed), int(pooled)] for _, ns, failed, pooled in p.ops],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "core_cache_entries": memo,
        "construction_errors": p.construction_errors,
    }
    if tr is not None:
        result["layers"] = tracer.layer_metrics(tr)
        tr.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
