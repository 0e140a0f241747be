"""Empirical almost-convexity scans over Cayley balls.

scan(ball, r_min) scans the radii r_min..ball.radius of one ball, built or
loaded from the cache; the report's group and outer radius are the ball's.
For each radius r the scan enumerates unordered pairs x, y on the sphere
S(r) at group distance <= 2 (reached by a product of at most two
generators) and measures the shortest connecting path that stays inside
B(r).  fmax(r) is the worst such detour; the group is minimally almost
convex at r when fmax <= 2r - 1 and M'-convex when fmax <= 2r - 2.  A path
through the identity always exists, so fmax <= 2r is checked as a hard
sanity bound (InvariantError).

Only the hard pairs are searched.  A pair that is adjacent, or that shares
a middle inside B(r), is at in-ball distance 1 or 2.  Every other pair
shares only middles outside B(r): ids of S(r + 1), or products outside the
ball when S(r) is its outermost sphere.  The generators are closed under
inverses, so the members of S(r) next to one such middle are exactly the
pairs that share it; grouping the sphere by its outside middles finds these
pairs without reading the rows of S(r + 1).  Each hard pair is measured by
in_ball_distance, so neither the work nor the result depends on id order.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from itertools import accumulate

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


def _middles(rows: array, lo: int, hi: int, ngens: int) -> tuple[array, array]:
    """For the rows of the sphere lo:hi (see BallIndex.sphere_rows), the
    members of the sphere next to each middle m outside B(r) = 0:hi, in id
    order: members[at[m - hi]:at[m - hi + 1]].  A counting sort keeps one
    int per (middle, member); most middles have one member, so a list per
    middle would cost far more."""
    count = array("i", [0]) * (max(max(rows, default=0) + 1, hi) - hi + 1)
    for m in rows:
        if m >= hi:
            count[m - hi + 1] += 1
    at = array("i", accumulate(count))
    members = array("i", [0]) * at[-1]
    fill = at[:-1]
    for k, m in enumerate(rows):
        if m >= hi:
            members[fill[m - hi]] = lo + k // ngens
            fill[m - hi] += 1
    return at, members


def scan(ball: BallIndex, r_min: int) -> ScanReport:
    """Scan radii r_min..ball.radius on the ball's neighbour table."""
    if not 1 <= r_min <= ball.radius:
        raise ValueError("need 1 <= r_min <= ball.radius")
    ngens, keys, starts = ball.ngens, ball.keys, ball.starts
    rows = []
    inner = ball.sphere_rows(r_min - 1)
    for r in range(r_min, ball.radius + 1):
        # B(r) is the id range 0:hi and S(r) is lo:hi; each unordered pair
        # is counted once, from its smaller id: x < y < hi.  A middle inside
        # B(r) lies on S(r - 1) (rows `inner`) or on S(r) (rows `sphere`).
        start, lo, hi = starts[r - 1], starts[r], starts[r + 1]
        sphere = ball.sphere_rows(r)
        at, members = _middles(sphere, lo, hi, ngens)
        fmax = 0
        npairs = 0
        witness: tuple[bytes, bytes] | None = None
        for x in range(lo, hi):
            base = (x - lo) * ngens
            row = sphere[base:base + ngens]
            near: set[int] = set()  # adjacent to x, or sharing a middle in B(r)
            add = near.add
            far: set[int] = set()  # sharing a middle outside B(r)
            for m in row:
                if m >= hi:
                    k = m - hi
                    if at[k + 1] - at[k] > 1:  # x is always a member
                        far.update(members[at[k]:at[k + 1]])
                elif m >= lo:
                    if m > x:
                        add(m)
                    k = (m - lo) * ngens
                    for y in sphere[k:k + ngens]:
                        if x < y < hi:
                            add(y)
                else:
                    k = (m - start) * ngens
                    for y in inner[k:k + ngens]:
                        if x < y < hi:
                            add(y)
            if far:
                far = {y for y in far if y > x and y not in near}
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
        inner = sphere
        rows.append(ScanRow(
            r, fmax, npairs,
            witness[0].decode("ascii") if witness else "",
            witness[1].decode("ascii") if witness else ""))
    return ScanReport(ball.model.name, r_min, ball.radius, tuple(rows))


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
