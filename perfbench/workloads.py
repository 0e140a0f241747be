"""The three workloads: inputs made from a seed, one timed pass through the
package's public entry points, and the checks of every output.

A pass runs each operation through ``Pass.run``, which times it, counts an
exception as a failed operation, and checks the output right after the
operation, outside its timed interval.  Outputs are then dropped, so the
benchmark keeps no large live set that would slow the garbage collector.
Program functions are looked up on their modules at call time, so a traced
pass reaches them through the tracer's wrappers; the checks use the
unwrapped ``bs_eval`` captured when this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import tempfile
import time

from convexlab import bs_arith, bs_geodesics, cli, stallings, witness_lab, words
from convexlab.bs_arith import BsParams
from convexlab.witness_lab import CONSTRUCTIVE_CASES, IMPOSSIBLE_CASES, ConstructionError

import frozen

_check_eval = bs_arith.bs_eval


class Pass:
    """Operations of one pass.  Each op is [label, ns, failed, pooled]; an op
    fails when it raises or returns a wrong output.  Pooled ops are the
    workload's unit operations, whose latencies give op_p50/op_tail."""

    def __init__(self):
        self.ops: list = []
        self.errors: list[str] = []
        self.wrong = 0
        self.construction_errors = 0

    def run(self, label: str, check, fn, *args, pooled: bool = False) -> None:
        """Time fn(*args) as one operation, then check its output untimed;
        check(out) returns None for a right output, else what is wrong."""
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # a raising operation is counted, never fatal
            self.ops.append([label, time.perf_counter_ns() - t0, True, pooled])
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        ns = time.perf_counter_ns() - t0
        try:
            wrong = check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            wrong = f"unreadable output ({type(exc).__name__}: {exc})"
        self.ops.append([label, ns, wrong is not None, pooled])
        if wrong is not None:
            self.wrong += 1
            self.errors.append(f"{label}: wrong output: {wrong}")


# --------------------------------------------------------------------------
# bfs_scan: five CLI jobs, Cayley-graph BFS, the scan and the ball cache


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _ball_check(expected: tuple, tables: dict, job: str, built_by: str | None = None):
    """Check a ball job's sphere table; a cached job's table must also equal
    the one its build printed."""
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit status {rc}"
        table = text.split("\ncache:")[0]
        tables[job] = table
        sizes = [int(line.split("\t")[1]) for line in table.splitlines()[1:]]
        if sizes != list(expected):
            return f"sphere sizes {sizes}"
        if built_by in tables and tables[built_by] != table:
            return "sphere table read from the cache differs from the built one"
        return None
    return check


def _scan_check(out):
    rc, text = out
    if rc != 0:
        return f"exit status {rc}"
    rows = {}
    for line in text.splitlines()[1:]:
        if line.startswith("probe:"):
            break
        r, fmax, pairs = line.split("\t")[:3]
        rows[int(r)] = (int(fmax), int(pairs))
    return None if rows == frozen.SCAN_ROWS else f"scan rows {rows}"


def bfs_scan_inputs(seed: int):
    """The jobs are fixed; the seed changes nothing here."""
    return None


def bfs_scan(p: Pass, inputs, scratch: str) -> None:
    cache = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    tables: dict = {}
    bs2, st = frozen.BS2_SPHERES, frozen.STALLINGS_SPHERES
    # The three BFS jobs are the unit operations; the cache loads count in
    # the pass time only.
    jobs = (
        ("ball bs:q=2 r=16 rebuild", True, _ball_check(bs2, tables, "bs"),
         ["ball", "--group", "bs:q=2", "--r", "16", "--rebuild", "--cache-dir", cache]),
        ("ball bs:q=2 r=16 cached", False, _ball_check(bs2, tables, "bs cached", "bs"),
         ["ball", "--group", "bs:q=2", "--r", "16", "--cache-dir", cache]),
        ("scan bs:q=2 r=3..14", True, _scan_check,
         ["scan", "--group", "bs:q=2", "--r-min", "3", "--r-max", "14"]),
        ("ball stallings r=6 rebuild", True, _ball_check(st, tables, "st"),
         ["ball", "--group", "stallings", "--r", "6", "--rebuild", "--cache-dir", cache]),
        ("ball stallings r=6 cached", False, _ball_check(st, tables, "st cached", "st"),
         ["ball", "--group", "stallings", "--r", "6", "--cache-dir", cache]),
    )
    try:
        for label, unit, check, argv in jobs:
            p.run(label, check, _cli, argv, pooled=unit)
    finally:
        shutil.rmtree(cache)


# --------------------------------------------------------------------------
# dp_queries: the digit DP behind length and normal-form queries

# 20k queries keep a pass near 11 s on a 2-core host, so that a 42-second
# run repeats it three or four times.
QUERIES = 20_000
QUERY_QS = (2, 3, 7)
BOUNDINGM = tuple((2, n) for n in range(2, 13)) + tuple((7, n) for n in range(2, 6))


def dp_queries_inputs(seed: int):
    rng = random.Random(seed)
    return [("".join(rng.choices("aAtT", k=rng.randint(20, 200))), QUERY_QS[i % 3])
            for i in range(QUERIES)]


def _query(text: str, params: BsParams):
    el = bs_arith.bs_eval(words.parse_word(text), params)
    length = bs_geodesics.geodesic_length(el, params)
    rendered = bs_geodesics.normalize(el, params).render()
    return el, length, rendered


def _query_check(params: BsParams):
    def check(out):
        el, length, rendered = out
        if len(rendered) == length and _check_eval(rendered, params) == el:
            return None
        return f"q={params.q}: normal form {rendered} vs length {length}"
    return check


def _report_check(out):
    return None if out["ok"] else f"report not ok: {out}"


def dp_queries(p: Pass, inputs, scratch: str) -> None:
    checks = {q: (BsParams(q), _query_check(BsParams(q))) for q in QUERY_QS}
    for i, (text, q) in enumerate(inputs):
        params, check = checks[q]
        p.run(f"query {i}", check, _query, text, params, pooled=True)
    for q, n in BOUNDINGM:
        p.run(f"verify_boundingm q={q} n={n}", _report_check,
              witness_lab.verify_boundingm, n, q)


# --------------------------------------------------------------------------
# witnesses: ball-witness verifiers, constructive cases, impossibility searches

CASE_INSTANCES = 30
NOTPAC_NS = tuple(range(2, 8))


def witnesses_inputs(seed: int):
    """(case, instance seed, pinned parameters) for every case instance."""
    rng = random.Random(seed)
    out = []
    for case in CONSTRUCTIVE_CASES:
        for k in range(CASE_INSTANCES):
            pins = frozen.LARGE_PINS.get(case, {}) if k == 0 else {}
            if case == "7.4" and k % 2:
                pins = {"mode": "i1_opp"}
            out.append((case, rng.getrandbits(64), pins))
    return out


def _notpac_check(n: int):
    want_ok = n not in frozen.NOTPAC_NOT_OK

    def check(rep):
        if rep["bridge"] == frozen.NOTPAC_BRIDGES[n] and rep["ok"] == want_ok:
            return None
        return f"bridge {rep['bridge']}, ok {rep['ok']}"
    return check


def _bs1q_check(qn: tuple):
    def check(rep):
        got = (rep["bridge"], rep["bridge_no_identity"])
        if rep["ok"] and got == frozen.BS1Q_BRIDGES[qn]:
            return None
        return f"bridges {got}, ok {rep['ok']}"
    return check


def _stallings_check(rep):
    if rep["ok"] and rep["bridge"] == frozen.STALLINGS_BRIDGE:
        return None
    return f"bridge {rep['bridge']}, ok {rep['ok']}"


def _case_check(pinned: bool):
    def check(rep):
        if rep["ok"] and (not pinned or rep["r"] >= frozen.LARGE_MIN_R):
            return None
        return f"ok {rep['ok']}, r {rep['r']}, first violation {rep['first_violation']}"
    return check


def _no_hits(hits):
    return None if hits == [] else f"{len(hits)} realizations"


def witnesses(p: Pass, inputs, scratch: str) -> None:
    def case_pair(case, seed, pins):
        try:
            cw = witness_lab.build_case(case, random.Random(seed), **pins)
        except ConstructionError:
            p.construction_errors += 1
            raise
        return witness_lab.verify_case(cw)

    for n in NOTPAC_NS:
        p.run(f"verify_notpac n={n}", _notpac_check(n), witness_lab.verify_notpac, n)
    for qn in frozen.BS1Q_BRIDGES:
        p.run(f"verify_bs1q_notmac q={qn[0]} n={qn[1]}", _bs1q_check(qn),
              witness_lab.verify_bs1q_notmac, *qn)
    p.run("verify_stallings_witness n=1", _stallings_check,
          stallings.verify_stallings_witness, 1)
    for case, seed, pins in inputs:
        p.run(f"case {case} seed={seed}", _case_check("p" in pins or "f1" in pins),
              case_pair, case, seed, pins, pooled=True)
    for case in IMPOSSIBLE_CASES:
        p.run(f"impossibility_search {case}", _no_hits,
              witness_lab.impossibility_search, case, 7)


WORKLOADS = {
    "bfs_scan": (bfs_scan_inputs, bfs_scan),
    "dp_queries": (dp_queries_inputs, dp_queries),
    "witnesses": (witnesses_inputs, witnesses),
}
