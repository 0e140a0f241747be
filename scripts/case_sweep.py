"""Randomized sweep over the constructive bridging cases.

Builds --instances witnesses per case from a seeded stream, verifies each,
and tabulates the radius range covered.  With --searchers it also runs the
impossibility searchers over an exhaustive ball.

Typical run:

    python3 scripts/case_sweep.py --instances 50 --searchers
"""

import argparse
import random
import sys

from convexlab import (CONSTRUCTIVE_CASES, IMPOSSIBLE_CASES, build_case,
                       impossibility_search, verify_case)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", default=None,
                    choices=CONSTRUCTIVE_CASES,
                    help="case id, may repeat (default: all constructive)")
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--searchers", action="store_true",
                    help="also run the impossibility searchers on B(7)")
    args = ap.parse_args(argv)

    cases = args.case or sorted(CONSTRUCTIVE_CASES)
    failures = []
    print("case\tinstances\tr-range\tdelta-max\tstatus")
    for case in cases:
        radii, delta_max = [], 0
        for k in range(args.instances):
            rng = random.Random(f"{args.seed}:{case}:{k}")
            cw = build_case(case, rng=rng)
            report = verify_case(cw)
            radii.append(cw.r)
            delta_max = max(delta_max, len(cw.delta))
            if not report["ok"]:
                failures.append((case, k, report["first_violation"]))
        status = "ok" if not any(f[0] == case for f in failures) else "FAIL"
        print(f"{case}\t{args.instances}\t{min(radii)}..{max(radii)}"
              f"\t{delta_max}\t{status}")

    if args.searchers:
        for case in sorted(IMPOSSIBLE_CASES):
            hits = impossibility_search(case, radius=7)
            print(f"search {case}\thits={len(hits)}")
            if hits:
                failures.append((case, "search", hits[0]))

    if failures:
        for case, k, detail in failures[:10]:
            print(f"FAIL {case}[{k}]: {detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
