"""Command line front end and ball cache.

Subcommands: ball, scan, witness {notpac|bs1q|stallings|boundingm}, case, length,
normalize.  Exit status 0 means every asserted check passed, 1 means a
verification report came back negative, 2 means bad usage or a resource
or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .ball_engine import (
    DEFAULT_CAP,
    BallCapError,
    BallIndex,
    CacheError,
    build_ball,
    load_ball,
    save_ball,
)
from .bs_arith import BsGroupModel, BsParams, bs_eval
from .bs_geodesics import NotGeodesicError, geodesic_length, normalize
from .convexity_scan import scan, sublinearity_probe, write_csv
from .stallings import StallingsModel, verify_stallings_witness
from .witness_lab import (
    CONSTRUCTIVE_CASES,
    ConstructionError,
    build_case,
    verify_boundingm,
    verify_bs1q_notmac,
    verify_case,
    verify_notpac,
)
from .words import WordError, parse_word


class UsageError(ValueError):
    pass


def parse_group(descriptor: str):
    """Group model for a descriptor: 'bs:q=K' (K >= 2) or 'stallings'."""
    if descriptor == "stallings":
        return StallingsModel()
    if descriptor.startswith("bs:q="):
        try:
            q = int(descriptor[5:])
        except ValueError:
            raise UsageError(f"bad group descriptor {descriptor!r}") from None
        if q < 2:
            raise UsageError("q must be at least 2")
        return BsGroupModel(BsParams(q))
    raise UsageError(
        f"unknown group {descriptor!r} (expected bs:q=K or stallings)")


@dataclass(frozen=True)
class CliConfig:
    """Validated knobs shared by the subcommands."""

    subcommand: str
    group: str = "bs:q=2"
    radius: int = 0
    n: int = 0
    case: str = ""
    params: dict = field(default_factory=dict)
    out: Optional[str] = None
    fmt: str = "text"
    cache_dir: Optional[str] = None
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.cap < 1000:
            raise UsageError("cap must be at least 1000")
        model = parse_group(self.group)
        if model.name != self.group:
            raise UsageError(f"group descriptor {self.group!r} does not round-trip")


def _cache_dir(cfg: CliConfig) -> Path:
    if cfg.cache_dir:
        return Path(cfg.cache_dir)
    env = os.environ.get("CONVEXITY_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "convexlab"


def _cache_path(cfg: CliConfig, radius: int) -> Path:
    stem = cfg.group.replace(":", "_").replace("=", "")
    return _cache_dir(cfg) / f"{stem}-r{radius}.ndjson"


def _sphere_table(ball: BallIndex) -> str:
    lines = ["r\t|S(r)|\t|B(r)|"]
    total = 0
    for r, size in enumerate(ball.sphere_sizes()):
        total += size
        lines.append(f"{r}\t{size}\t{total}")
    return "\n".join(lines)


def cmd_ball(cfg: CliConfig) -> int:
    model = parse_group(cfg.group)
    path = _cache_path(cfg, cfg.radius)
    ball = None
    if path.exists() and not cfg.params.get("rebuild"):
        try:
            ball = load_ball(str(path), model)
        except CacheError as exc:
            print(f"note: rebuilding the ball: {exc}", file=sys.stderr)
    if ball is None:
        ball = build_ball(model, cfg.radius, cap=cfg.cap)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_ball(ball, str(path))
    if cfg.out:
        save_ball(ball, cfg.out)
    print(_sphere_table(ball))
    print(f"cache: {path}")
    return 0


def cmd_scan(cfg: CliConfig) -> int:
    model = parse_group(cfg.group)
    r_min = cfg.params["r_min"]
    r_max = cfg.params["r_max"]
    report = scan(model, r_min, r_max, cap=cfg.cap)
    print("r\tfmax\tpairs\tmac\tmprime\twitness")
    for row in report.rows:
        wit = f"{row.witness_x} ~ {row.witness_y}" if row.pairs else ""
        print(f"{row.r}\t{row.fmax}\t{row.pairs}\t{str(row.mac).lower()}"
              f"\t{str(row.mprime).lower()}\t{wit}")
    try:
        probe = sublinearity_probe(report)
        print(f"probe: slope={probe.slope:.6f} intercept={probe.intercept:.6f}"
              f" points={probe.points}")
    except ValueError:
        pass
    if cfg.out:
        write_csv(report, cfg.out)
        print(f"csv: {cfg.out}")
    return 0


def cmd_witness(cfg: CliConfig) -> int:
    kind = cfg.params["kind"]
    if kind == "notpac":
        report = verify_notpac(cfg.n, cap=cfg.cap)
    elif kind == "bs1q":
        report = verify_bs1q_notmac(cfg.params["q"], cfg.n, cap=cfg.cap)
    elif kind == "stallings":
        report = verify_stallings_witness(cfg.n, cap=cfg.cap)
    elif kind == "boundingm":
        report = verify_boundingm(cfg.n, cfg.params["q"])
    else:
        raise UsageError(f"unknown witness kind {kind!r}")
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


_CASE_INTS = ("p", "l", "f1", "k", "j", "i", "s", "e", "g", "m")


def cmd_case(cfg: CliConfig) -> int:
    rng = random.Random(cfg.params.pop("seed"))
    opts = {k: v for k, v in cfg.params.items() if v is not None}
    cw = build_case(cfg.case, rng, **opts)
    report = verify_case(cw)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def _bs_params(cfg: CliConfig) -> BsParams:
    model = parse_group(cfg.group)
    if not isinstance(model, BsGroupModel):
        raise UsageError(f"{cfg.subcommand} works on bs:q=K groups only")
    return model.params


def cmd_length(cfg: CliConfig) -> int:
    params = _bs_params(cfg)
    word = parse_word(cfg.params["word"])
    el = bs_eval(word, params)
    print(geodesic_length(el, params))
    return 0


def cmd_normalize(cfg: CliConfig) -> int:
    params = _bs_params(cfg)
    word = parse_word(cfg.params["word"])
    el = bs_eval(word, params)
    gnf = normalize(el, params)
    rendered = gnf.render()
    if cfg.fmt == "json":
        print(json.dumps({
            "input": str(word),
            "element_class": gnf.class_tag,
            "normal_form": str(rendered),
            "length": len(rendered),
            "input_geodesic": len(word) == len(rendered),
        }, indent=2))
    else:
        print(rendered)
        print(f"class {gnf.class_tag}, length {len(rendered)}")
    return 0


_COMMANDS = {
    "ball": cmd_ball,
    "scan": cmd_scan,
    "witness": cmd_witness,
    "case": cmd_case,
    "length": cmd_length,
    "normalize": cmd_normalize,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="convexlab",
        description="Exact geodesics, Cayley balls, and almost-convexity "
                    "witnesses in BS(1,q) and Stallings' group.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, group=True):
        if group:
            p.add_argument("--group", default="bs:q=2",
                           help="bs:q=K or stallings (default bs:q=2)")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="element cap for ball builds")

    p = sub.add_parser("ball", help="build or load a Cayley ball")
    common(p)
    p.add_argument("--r", type=int, required=True, help="ball radius")
    p.add_argument("--cache-dir", help="override cache directory")
    p.add_argument("--rebuild", action="store_true",
                   help="ignore any cached ball")
    p.add_argument("--out", help="also write the ball cache file here")

    p = sub.add_parser("scan", help="almost-convexity scan over a radius range")
    common(p)
    p.add_argument("--r-min", type=int, default=3)
    p.add_argument("--r-max", type=int, default=10)
    p.add_argument("--csv", help="write per-radius rows to this CSV file")

    p = sub.add_parser("witness", help="run a non-convexity witness verifier")
    p.add_argument("kind", choices=("notpac", "bs1q", "stallings", "boundingm"))
    p.add_argument("--n", type=int, default=None,
                   help="witness scale (default: notpac 3, bs1q 2, stallings 1,"
                        " boundingm 2)")
    p.add_argument("--q", type=int, default=7,
                   help="bs1q: q >= 7; boundingm: q = 2 or q >= 7")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("case", help="build and verify one theorem-case witness")
    p.add_argument("--id", required=True, dest="case_id",
                   help="constructive case id, e.g. 8.1 (known: %s)"
                        % ", ".join(CONSTRUCTIVE_CASES))
    p.add_argument("--seed", type=int, default=0)
    for name in _CASE_INTS:
        p.add_argument(f"--{name}", type=int, default=None)
    p.add_argument("--opt", action="append", default=[],
                   metavar="KEY=VAL",
                   help="extra parameter (int when it parses, else string)")

    p = sub.add_parser("length", help="geodesic length of a word's element")
    p.add_argument("--group", default="bs:q=2")
    p.add_argument("--word", required=True)

    p = sub.add_parser("normalize", help="geodesic normal form of a word's element")
    p.add_argument("--group", default="bs:q=2")
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true", dest="as_json")

    return top


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    sc = args.subcommand
    if sc == "ball":
        return CliConfig(sc, group=args.group, radius=args.r, cap=args.cap,
                         cache_dir=args.cache_dir, out=args.out,
                         params={"rebuild": args.rebuild})
    if sc == "scan":
        if args.r_min < 1 or args.r_max < args.r_min:
            raise UsageError("need 1 <= r-min <= r-max")
        return CliConfig(sc, group=args.group, cap=args.cap,
                         out=args.csv, params={"r_min": args.r_min,
                                               "r_max": args.r_max})
    if sc == "witness":
        defaults = {"notpac": 3, "bs1q": 2, "stallings": 1, "boundingm": 2}
        n = args.n if args.n is not None else defaults[args.kind]
        group = f"bs:q={args.q}" if args.kind in ("bs1q", "boundingm") else "bs:q=2"
        if args.kind == "stallings":
            group = "stallings"
        return CliConfig(sc, group=group, n=n, cap=args.cap,
                         params={"kind": args.kind, "q": args.q})
    if sc == "case":
        params = {"seed": args.seed}
        for name in _CASE_INTS:
            params[name] = getattr(args, name)
        for item in args.opt:
            key, sep, val = item.partition("=")
            if not sep:
                raise UsageError(f"bad --opt {item!r}, expected KEY=VAL")
            try:
                params[key] = int(val)
            except ValueError:
                params[key] = val
        return CliConfig(sc, case=args.case_id, params=params)
    if sc == "length":
        return CliConfig(sc, group=args.group, params={"word": args.word})
    if sc == "normalize":
        return CliConfig(sc, group=args.group, params={"word": args.word},
                         fmt="json" if args.as_json else "text")
    raise UsageError(f"unknown subcommand {sc!r}")


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.subcommand](cfg)
    except (UsageError, WordError, ConstructionError, NotGeodesicError,
            ValueError, BallCapError, CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
