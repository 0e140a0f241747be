"""Sweep the theorem witnesses and tabulate bridge lengths and a^m bounds.

Typical run:

    python3 scripts/witness_sweep.py --family all --notpac-max 5
"""

import argparse
import json
import sys

from convexlab import BRIDGE_WITNESSES, verify_boundingm, verify_bridge


# (q, n) pairs of the boundingm family: the largest n per q that the
# acceptance tests check
BOUNDINGM_PAIRS = ((2, 26), (7, 20), (8, 8), (9, 8), (10, 8))


def _row(report: dict) -> str:
    cells = [report["witness"], f"q={report.get('q', '-')}",
             f"n={report['n']}", f"R={report['R']}"]
    if "bridge" in report:
        cells.append(f"bridge={report['bridge']}")
        detail = report["checks"]
    else:
        cells.append(f"bound={report['bound']}")
        detail = report["reachable"]
    if "bridge_no_identity" in report:
        cells.append(f"detour={report['bridge_no_identity']}")
    cells.append("ok" if report["ok"] else "FAIL " + json.dumps(detail))
    return "\t".join(str(c) for c in cells)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=(*BRIDGE_WITNESSES, "boundingm", "all"),
                    default="all")
    ap.add_argument("--notpac-min", type=int, default=2)
    ap.add_argument("--notpac-max", type=int, default=5)
    ap.add_argument("--bs1q", action="append", default=None, metavar="Q,N",
                    help="comma pair, may repeat (default: 7,2 8,2 7,3)")
    args = ap.parse_args(argv)

    # (q, n) instances per bridge kind; a kind not named here runs once at
    # its default scale
    runs = {
        "notpac": [(None, n) for n in range(args.notpac_min, args.notpac_max + 1)],
        "bs1q": [tuple(int(x) for x in spec.split(","))
                 for spec in (args.bs1q or ["7,2", "8,2", "7,3"])],
    }
    reports = []
    for kind, row in BRIDGE_WITNESSES.items():
        if args.family in (kind, "all"):
            for q, n in runs.get(kind, [(None, row.n)]):
                reports.append(verify_bridge(kind, n, q))
    if args.family in ("boundingm", "all"):
        for q, n in BOUNDINGM_PAIRS:
            reports.append(verify_boundingm(n, q))

    for report in reports:
        print(_row(report))
    bad = [r for r in reports if not r["ok"]]
    print(f"{len(reports) - len(bad)}/{len(reports)} witnesses ok")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
