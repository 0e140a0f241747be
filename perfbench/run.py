"""convexlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload {bfs_scan,dp_queries,witnesses}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of the workload runs in a fresh
worker process (perfbench/worker.py), so the DP memo starts cold and peak
RSS is the pass's own.  Passes repeat the same seeded inputs until the next
one would end after S seconds.  With --trace 0 the run reports the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics, with the
traced-minus-untraced wall time as the tracing overhead.

Set-up time is measured from the spawn of a worker to the moment it has
imported the package and built its group models, over every pass worker
and a few --setup-only workers after each round, so that the samples
spread over the run.  A fixed pure-Python loop is
timed before and after the run to record how fast the host was; it is
reported, never used to rescale a metric.

The last line of standard output is the JSON result; the lines before it
and perfbench/out/<workload>-seed<N>-trace<T>.json hold the details.
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time

import frozen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("bfs_scan", "dp_queries", "witnesses")
SETUP_PROBES = 3  # set-up-only workers after each round, spread over the run
RUN_LIMIT_S = 170  # every worker is killed past this point of the run

# Fewer samples than this and the highest percentile with ten samples beyond
# it sits below p90, so the tail is reported as the maximum instead.
TAIL_MIN_SAMPLES = 100


class BenchError(RuntimeError):
    pass


def calibrate_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def spawn(args: list[str], started: float) -> tuple[float, dict]:
    """Run one worker to completion; return (spawn time, its JSON result)."""
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    if budget <= 0:
        raise BenchError("run time limit reached")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from bytecode, as installed
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, capture_output=True,
                              text=True, timeout=budget, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def op_summary(passes: list[dict]) -> dict:
    """Pass time and unit-operation latencies of a run's passes, which all
    run the same operations.

    Each operation's time is its slowest repeat across the passes, leaving
    out repeats over twice its fastest.  The host's clock speeds up at
    random moments (turbo while its neighbours are idle), which makes
    repeats differ by up to about 1.5x, so the slowest repeat is the
    sustained speed and reads steadiest.  A repeat over twice the fastest
    was stalled by the host (stalls of a millisecond or more hit about 1% of
    the sub-millisecond queries) and says nothing about the program.

    A pass's time is the sum of its operations' times.  The tail is the
    highest percentile with at least ten samples, and at least 1% of the
    samples, beyond it; the maximum when there are fewer than 100 samples.
    A failed operation counts as slower than any other.
    """
    n_ops = len(passes[0]["ops"])
    if any(len(res["ops"]) != n_ops for res in passes):
        raise BenchError("passes ran different operations")
    total_ns = 0
    lat = []
    for i in range(n_ops):
        repeats = [res["ops"][i][0] for res in passes]
        fastest = min(repeats)
        ns = max(x for x in repeats if x <= 2 * fastest)
        total_ns += ns
        if passes[0]["ops"][i][2]:
            lat.append(math.inf if any(res["ops"][i][1] for res in passes) else ns / 1e6)
    lat.sort()
    n = len(lat)
    beyond = max(10, n // 100)
    k, pct = (n - 1, 100.0) if n < TAIL_MIN_SAMPLES else (n - 1 - beyond, 100.0 * (n - beyond) / n)
    out = {"wall_s": total_ns / 1e9, "p50": statistics.median(lat), "tail": lat[k],
           "tail_pct": pct, "samples": n}
    if math.isinf(out["p50"]) or math.isinf(out["tail"]):
        raise BenchError("too many failed operations to read a latency")
    return out


def cross_check_spheres() -> str | None:
    """Compare the frozen bs:q=2 sphere sizes for r <= 10 with the
    brute-force BFS of tests/reference.py; return a mismatch message."""
    spec = importlib.util.spec_from_file_location(
        "convexlab_reference", os.path.join(ROOT, "tests", "reference.py"))
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    dist, _ = ref.ball(2, 10)
    sizes = ref.sphere_sizes(dist)
    if tuple(sizes) != frozen.BS2_SPHERES[:11]:
        return f"frozen bs:q=2 spheres {frozen.BS2_SPHERES[:11]} != brute force {sizes}"
    return None


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    calib_before = calibrate_ms()
    base = ["--workload", workload, "--seed", str(seed)]

    setups = []
    passes = []  # (traced, result)
    rounds = []  # seconds per round: one pass, or an untraced and a traced pass
    t_begin = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            t_spawn, res = spawn(base + ["--trace"] * traced, started)
            setups.append(res["ready"] - t_spawn)
            passes.append((traced, res))
        for _ in range(SETUP_PROBES):
            t_spawn, res = spawn(base + ["--setup-only"], started)
            setups.append(res["ready"] - t_spawn)
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() - t_begin + statistics.median(rounds) > seconds:
            break

    errors = [e for _, res in passes for e in res["errors"]]
    mismatch = cross_check_spheres() if workload == "bfs_scan" else None
    if mismatch:
        errors.append(mismatch)
    plain = [res for traced, res in passes if not traced]
    attempted = sum(res["attempted"] for _, res in passes)
    failed = sum(res["failed"] for _, res in passes)

    ops = op_summary(plain)
    wall = ops["wall_s"]

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(res["peak_rss_kb"] for res in plain) / 1024,
        "success_rate": 1 - failed / attempted,
        "op_p50_ms": ops["p50"],
        "op_tail_ms": ops["tail"],
    }
    if trace:
        traced = [res for t, res in passes if t]
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(res["layers"][name] for res in traced)
        layers["bs_geodesics.core_cache_entries"] = traced[0]["core_cache_entries"]
        layers["witness_lab.construction_errors"] = traced[0]["construction_errors"]
        traced_wall = op_summary(traced)["wall_s"]
        layers["trace.overhead_s"] = traced_wall - wall
        layers["trace.overhead_share"] = (traced_wall - wall) / wall
        metrics.update(layers)

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "correct": not mismatch and all(res["wrong"] == 0 for _, res in passes),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "latency_samples": ops["samples"],
        "tail_percentile": ops["tail_pct"],
        "construction_errors": sum(res["construction_errors"] for _, res in passes),
        "calib_before_ms": calib_before,
        "calib_after_ms": calibrate_ms(),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "convexlab", "__init__.py")):
        print(f"error: no convexlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in detail["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{detail['passes']} passes, {detail['traced_passes']} traced; "
          f"host loop {detail['calib_before_ms']:.1f} ms before, "
          f"{detail['calib_after_ms']:.1f} ms after")
    print(f"op latency: {detail['latency_samples']} samples, "
          f"tail = p{detail['tail_percentile']:.4g}")
    for err in detail["errors"]:
        known = " (known case-6 sampling defect)" if frozen.CASE6_DEFECT in err else ""
        print(f"failed op: {err}{known}")
    result = {}
    for m in wanted:
        value = detail["metrics"][m["name"]]
        print(f"  {m['name']:<44} {value:>16.6g} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": detail["correct"], "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
