"""Command line front end and the ball cache of sphere sizes.

Subcommands: ball, scan, witness {notpac|bs1q|stallings|boundingm}, case, length,
normalize.  Each command reads its parsed arguments.  Exit status 0 means
every asserted check passed, 1 means a verification report came back
negative, 2 means bad usage or a resource or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional

from .ball_engine import (
    DEFAULT_CAP,
    BallCapError,
    CacheError,
    build_ball,
    load_ball,
    save_ball,
)
from .bs_arith import BsGroupModel, BsParams, bs_eval
from .bs_geodesics import geodesic_length, normalize
from .convexity_scan import scan, write_csv
from .stallings import StallingsModel
from .witness_lab import (
    BRIDGE_WITNESSES,
    CONSTRUCTIVE_CASES,
    build_case,
    verify_boundingm,
    verify_bridge,
    verify_case,
)
from .words import parse_word


class UsageError(ValueError):
    pass


def parse_group(descriptor: str):
    """Group model for a descriptor: 'bs:q=K' (K >= 2) or 'stallings'.  The
    descriptor must spell the model's name, so 'bs:q=02' is refused."""
    if descriptor == "stallings":
        return StallingsModel()
    if not descriptor.startswith("bs:q="):
        raise UsageError(
            f"unknown group {descriptor!r} (expected bs:q=K or stallings)")
    try:
        q = int(descriptor[5:])
    except ValueError:
        raise UsageError(f"bad group descriptor {descriptor!r}") from None
    if q < 2:
        raise UsageError("q must be at least 2")
    model = BsGroupModel(BsParams(q))
    if model.name != descriptor:
        raise UsageError(f"group descriptor {descriptor!r} does not round-trip")
    return model


def _cache_path(args: argparse.Namespace, model) -> Path:
    root = args.cache_dir or os.environ.get("CONVEXITY_CACHE_DIR")
    root = Path(root) if root else Path.home() / ".cache" / "convexlab"
    stem = model.name.replace(":", "_").replace("=", "")
    return root / f"{stem}-r{args.r}.ndjson"


def _sphere_table(sizes: list[int]) -> str:
    lines = ["r\t|S(r)|\t|B(r)|"]
    total = 0
    for r, size in enumerate(sizes):
        total += size
        lines.append(f"{r}\t{size}\t{total}")
    return "\n".join(lines)


def cmd_ball(args: argparse.Namespace) -> int:
    model = parse_group(args.group)
    path = _cache_path(args, model)
    sizes = None
    if path.exists() and not args.rebuild:
        try:
            sizes = load_ball(str(path), model, args.r)
        except CacheError as exc:
            print(f"note: rebuilding the ball: {exc}", file=sys.stderr)
    if sizes is None:
        ball = build_ball(model, args.r, cap=args.cap)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_ball(ball, str(path))
        sizes = ball.sphere_sizes()
    print(_sphere_table(sizes))
    print(f"cache: {path}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    model = parse_group(args.group)
    if not 1 <= args.r_min <= args.r_max:
        raise UsageError("need 1 <= r_min <= r_max")
    # the scan at r reads the rows of S(r + 1)
    report = scan(build_ball(model, args.r_max + 1, cap=args.cap), args.r_min)
    print("r\tfmax\tpairs\tmac\tmprime\twitness")
    for row in report.rows:
        wit = f"{row.witness_x} ~ {row.witness_y}" if row.pairs else ""
        print(f"{row.r}\t{row.fmax}\t{row.pairs}\t{str(row.mac).lower()}"
              f"\t{str(row.mprime).lower()}\t{wit}")
    if args.csv:
        write_csv(report, args.csv)
        print(f"csv: {args.csv}")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    if args.kind == "boundingm":
        report = verify_boundingm(args.n, args.q)
    else:
        report = verify_bridge(args.kind, args.n, getattr(args, "q", None))
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def cmd_case(args: argparse.Namespace) -> int:
    opts = {}
    for item in args.opt:
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"bad --opt {item!r}, expected KEY=VAL")
        if key in opts:
            raise UsageError(f"--opt {key} given twice")
        opts[key] = val
    cw = build_case(args.case_id, random.Random(args.seed), **opts)
    report = verify_case(cw)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def _bs_word(args: argparse.Namespace):
    """The word of --word, its element and the BsParams of --group."""
    model = parse_group(args.group)
    if not isinstance(model, BsGroupModel):
        raise UsageError(f"{args.subcommand} works on bs:q=K groups only")
    word = parse_word(args.word)
    return word, bs_eval(word, model.params), model.params


def cmd_length(args: argparse.Namespace) -> int:
    _, el, params = _bs_word(args)
    print(geodesic_length(el, params))
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    word, el, params = _bs_word(args)
    gnf = normalize(el, params)
    rendered = gnf.render()
    if args.as_json:
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

    def common(p):
        p.add_argument("--group", default="bs:q=2",
                       help="bs:q=K or stallings (default bs:q=2)")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="element cap for ball builds")

    p = sub.add_parser("ball", help="build a Cayley ball, or load its cached sphere sizes")
    common(p)
    p.add_argument("--r", type=int, required=True, help="ball radius")
    p.add_argument("--cache-dir", help="override cache directory")
    p.add_argument("--rebuild", action="store_true",
                   help="ignore any cached sphere sizes")

    p = sub.add_parser("scan", help="almost-convexity scan over a radius range")
    common(p)
    p.add_argument("--r-min", type=int, default=3)
    p.add_argument("--r-max", type=int, default=10)
    p.add_argument("--csv", help="write per-radius rows to this CSV file")

    p = sub.add_parser("witness", help="run a non-convexity witness verifier")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, row in BRIDGE_WITNESSES.items():
        k = kinds.add_parser(kind)
        k.add_argument("--n", type=int, default=row.n, help=f"witness scale (default {row.n})")
        if row.q_open:
            k.add_argument("--q", type=int, default=row.q, help=f"q >= {row.q} (default {row.q})")
    k = kinds.add_parser("boundingm")
    k.add_argument("--n", type=int, default=2, help="witness scale (default 2)")
    k.add_argument("--q", type=int, default=7, help="q = 2 or q >= 7 (default 7)")

    # no abbreviations: --s or --i would otherwise be read as --seed or --id
    p = sub.add_parser("case", allow_abbrev=False,
                       help="build and verify one theorem-case witness")
    p.add_argument("--id", required=True, dest="case_id",
                   help="constructive case id, e.g. 8.1 (known: %s)"
                        % ", ".join(CONSTRUCTIVE_CASES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--opt", action="append", default=[],
                   metavar="KEY=VAL",
                   help="case parameter, each key at most once; the case"
                        " converts VAL to the parameter's type and refuses a"
                        " value outside the parameter's values")

    for name, help_text in (("length", "geodesic length of a word's element"),
                            ("normalize", "geodesic normal form of a word's element")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", default="bs:q=2")
        p.add_argument("--word", required=True)
        if name == "normalize":
            p.add_argument("--json", action="store_true", dest="as_json")

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "cap", DEFAULT_CAP) < 1000:
            raise UsageError("cap must be at least 1000")
        return _COMMANDS[args.subcommand](args)
    except (ValueError, BallCapError, CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
