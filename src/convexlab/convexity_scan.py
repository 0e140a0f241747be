"""Empirical almost-convexity scans over Cayley balls.

scan(ball, r_min) scans the radii r_min..ball.radius - 1 of one built
ball; the report's group is the ball's, and its outer radius is
ball.radius - 1, since the scan at r reads the rows of S(r + 1).
For each radius r the scan enumerates unordered pairs x, y on the sphere
S(r) at group distance <= 2 (reached by a product of at most two
generators) and measures the shortest connecting path that stays inside
B(r).  fmax(r) is the worst such detour; the group is minimally almost
convex at r when fmax <= 2r - 1 and M'-convex when fmax <= 2r - 2.  A path
through the identity always exists, so fmax <= 2r is checked as a hard
sanity bound (InvariantError).

Every pair is read off the neighbour table: y is next to x, or next to a
middle m next to x.  The generators are closed under inverses, so the
members of S(r) next to m are the entries of m's row.  A pair that is
adjacent, or that shares a middle inside B(r), is at in-ball distance 1 or
2.  Every other pair shares only middles on S(r + 1), whose rows hold their
edges to S(r) even on the outermost sphere, copied there from S(r)'s rows;
only these hard pairs are searched, by in_ball_distance, so neither the
work nor the result depends on id order, and the scan makes no product.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .ball_engine import BallIndex, in_ball_distance
from .errors import InvariantError


@dataclass(frozen=True)
class ScanRow:
    """Scan outcome at one radius.  Witnesses are the ascii keys of the
    lexicographically smallest pair realizing fmax (empty when no pairs)."""

    r: int
    fmax: int
    pairs: int
    witness_x: str
    witness_y: str

    @property
    def mac(self) -> bool:
        return self.pairs == 0 or self.fmax <= 2 * self.r - 1

    @property
    def mprime(self) -> bool:
        return self.pairs == 0 or self.fmax <= 2 * self.r - 2


@dataclass(frozen=True)
class ScanReport:
    group: str
    r_min: int
    r_max: int
    rows: tuple[ScanRow, ...]


def scan(ball: BallIndex, r_min: int) -> ScanReport:
    """Scan radii r_min..ball.radius - 1 on the ball's neighbour table."""
    if not 1 <= r_min < ball.radius:
        raise ValueError("need 1 <= r_min < ball.radius")
    table, ngens, keys, starts = ball.neighbours(), ball.ngens, ball.keys, ball.starts
    rows = []
    for r in range(r_min, ball.radius):
        # B(r) is the id range 0:hi and S(r) is lo:hi; each unordered pair
        # is counted once, from its smaller id: x < y < hi.
        lo, hi = starts[r], starts[r + 1]
        fmax = 0
        npairs = 0
        witness: tuple[bytes, bytes] | None = None
        for x in range(lo, hi):
            row = table[x * ngens:(x + 1) * ngens]
            near: set[int] = set()  # adjacent to x, or sharing a middle in B(r)
            far: set[int] = set()  # sharing a middle on S(r + 1)
            for m in row:
                add = near.add if m < hi else far.add
                if x < m < hi:
                    add(m)
                for y in table[m * ngens:(m + 1) * ngens]:
                    if x < y < hi:
                        add(y)
            if far:
                far.difference_update(near)
            npairs += len(near) + len(far)
            kx = keys[x]
            for y in far:
                depth = in_ball_distance(ball, x, y, hi)
                if depth is None:
                    raise InvariantError(f"sphere pair disconnected inside B({r})")
                if depth > 2 * r:
                    raise InvariantError(f"in-ball detour exceeded 2r = {2 * r}")
                fmax, witness = _wider(fmax, witness, depth, kx, keys[y])
            # a searched pair is at distance >= 3, so the pairs that need no
            # search matter only while none has been found
            if fmax < 3 and near:
                two = near.difference(row)
                depth = 2 if two else 1
                for y in two or near:
                    fmax, witness = _wider(fmax, witness, depth, kx, keys[y])
        rows.append(ScanRow(
            r, fmax, npairs,
            witness[0].decode("ascii") if witness else "",
            witness[1].decode("ascii") if witness else ""))
    return ScanReport(ball.model.name, r_min, ball.radius - 1, tuple(rows))


def _wider(fmax: int, witness, depth: int, kx: bytes, ky: bytes):
    """fmax and witness after a pair at this in-ball distance: the larger
    distance wins, and ties go to the lexicographically smallest key
    pair."""
    if depth < fmax:
        return fmax, witness
    pair = (kx, ky) if kx < ky else (ky, kx)
    if depth > fmax or pair < witness:
        return depth, pair
    return fmax, witness


def write_csv(report: ScanReport, path: str) -> None:
    """One CSV row per radius that produced pairs."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        out = csv.writer(fh)
        out.writerow(["r", "fmax", "pairs", "mac", "mprime", "witness_x", "witness_y"])
        for row in report.rows:
            if row.pairs == 0:
                continue
            out.writerow([row.r, row.fmax, row.pairs,
                          str(row.mac).lower(), str(row.mprime).lower(),
                          row.witness_x, row.witness_y])
