"""Per-layer tracing installed from outside the package.

The tracer wraps the public functions of each convexlab module, every name
under which other modules imported them (``witness_lab.geodesic_length``,
``cli.build_ball``, the ``cli._COMMANDS`` table) and the group-model methods
``apply_gen``/``key``.  Each wrapped call is timed; self time is the call's
duration minus the time its traced children cover.  Calls of the coarse
layers are also kept as spans (name, start, end, parent span) in memory and
written out when the pass ends.  The hot leaf functions, which run millions
of times per pass, are only counted and timed, not stored one span each.

Nothing is patched until ``install`` runs; untraced passes never call it.
"""

from __future__ import annotations

import importlib
import json
import os
import time

# (module, attribute, layer name, keep spans).  "Class.method" patches a method.
TARGETS = (
    ("words", "parse_word", "words.parse_word", False),
    ("words", "free_reduce", "words.free_reduce", False),
    ("bs_arith", "BsGroupModel.apply_gen", "bs_arith.apply_gen", False),
    ("bs_arith", "BsGroupModel.key", "bs_arith.key", False),
    ("bs_arith", "bs_eval", "bs_arith.bs_eval", False),
    ("bs_arith", "bs_mul", "bs_arith.bs_mul", False),
    ("bs_geodesics", "geodesic_length", "bs_geodesics.geodesic_length", False),
    ("bs_geodesics", "normalize", "bs_geodesics.normalize", False),
    ("ball_engine", "build_ball", "ball_engine.build_ball", True),
    ("ball_engine", "save_ball", "ball_engine.save_ball", True),
    ("ball_engine", "load_ball", "ball_engine.load_ball", True),
    ("ball_engine", "bridge_length", "ball_engine.bridge_length", True),
    ("convexity_scan", "scan", "convexity_scan.scan", True),
    ("witness_lab", "build_case", "witness_lab.build_case", True),
    ("witness_lab", "verify_case", "witness_lab.verify_case", True),
    ("witness_lab", "verify_notpac", "witness_lab.verify_notpac", True),
    ("witness_lab", "verify_bs1q_notmac", "witness_lab.verify_bs1q_notmac", True),
    ("witness_lab", "impossibility_search", "witness_lab.impossibility_search", True),
    ("witness_lab", "verify_boundingm", "witness_lab.verify_boundingm", True),
    ("stallings", "StallingsModel.apply_gen", "stallings.apply_gen", False),
    ("stallings", "StallingsModel.key", "stallings.key", False),
    ("stallings", "verify_stallings_witness", "stallings.verify_stallings_witness", True),
    ("cli", "cmd_ball", "cli.ball", True),
    ("cli", "cmd_scan", "cli.scan", True),
)

LAYERS = tuple(name for _, _, name, _ in TARGETS)

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Call counts, self and total time per layer, spans of coarse layers,
    and the few layer facts read off arguments and results."""

    def __init__(self):
        self.stats = {name: [0, 0, 0] for name in LAYERS}  # calls, self ns, total ns
        self.spans: list = []  # (name, start ns, end ns, parent span index or -1)
        self.builds: list = []  # (elements, RSS growth in bytes) per build_ball
        self.pairs = 0
        self.cache_bytes = 0
        self._child_ns = [0]
        self._open_span = -1

    def wrap(self, name: str, fn, keep_span: bool):
        stat = self.stats[name]
        child_ns = self._child_ns
        clock = time.perf_counter_ns
        if not keep_span:
            def leaf(*args, **kwargs):
                child_ns.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - child_ns.pop()
                    stat[2] += dt
                    child_ns[-1] += dt
            return leaf

        spans = self.spans
        after = {"ball_engine.build_ball": self._after_build,
                 "convexity_scan.scan": self._after_scan,
                 "ball_engine.save_ball": self._after_save}.get(name)

        def coarse(*args, **kwargs):
            rss0 = rss_bytes() if after is not None else 0
            parent = self._open_span
            self._open_span = idx = len(spans)
            spans.append(None)
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - child_ns.pop()
                stat[2] += dt
                child_ns[-1] += dt
                spans[idx] = (name, t0, t1, parent)
                self._open_span = parent
            if after is not None:
                after(args, result, rss0)
            return result
        return coarse

    # Layer facts, read while the result is still alive.
    def _after_build(self, args, ball, rss0):
        self.builds.append((len(ball), rss_bytes() - rss0))

    def _after_scan(self, args, report, rss0):
        self.pairs += sum(row.pairs for row in report.rows)

    def _after_save(self, args, result, rss0):
        self.cache_bytes += os.path.getsize(args[1])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans,
                       "stats": {k: dict(zip(("calls", "self_ns", "total_ns"), v))
                                 for k, v in self.stats.items()}}, fh)


def install(tracer: Tracer) -> None:
    """Patch every convexlab module attribute, command-table entry and
    group-model method listed in TARGETS with a traced wrapper."""
    modules = [importlib.import_module("convexlab." + m)
               for m in sorted({m for m, _, _, _ in TARGETS})]
    modules.append(importlib.import_module("convexlab"))
    for mod_name, attr, name, keep_span in TARGETS:
        mod = importlib.import_module("convexlab." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), keep_span))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(name, orig, keep_span)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            val[dkey] = wrapped


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    out = {}
    for name, (calls, self_ns, total_ns) in tracer.stats.items():
        out[name + ".calls"] = calls
        out[name + ".s"] = self_ns / 1e9
    build_s = tracer.stats["ball_engine.build_ball"][2] / 1e9
    elements = sum(n for n, _ in tracer.builds)
    out["ball_engine.build_ball.elements"] = elements
    out["ball_engine.build_ball.elements_per_s"] = elements / build_s if build_s else 0.0
    if tracer.builds:
        n, grown = max(tracer.builds)
        out["ball_engine.build_ball.bytes_per_element"] = grown / n
    else:
        out["ball_engine.build_ball.bytes_per_element"] = 0.0
    out["ball_engine.cache_bytes"] = tracer.cache_bytes
    scan_s = tracer.stats["convexity_scan.scan"][2] / 1e9
    out["convexity_scan.pairs"] = tracer.pairs
    out["convexity_scan.pairs_per_s"] = tracer.pairs / scan_s if scan_s else 0.0
    return out
