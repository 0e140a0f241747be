"""Empirical almost-convexity scans over Cayley balls.

For each radius r the scan enumerates unordered pairs x, y on the sphere
S(r) at group distance <= 2 (reached by a product of at most two
generators) and measures the shortest connecting path that stays inside
B(r).  fmax(r) is the worst such detour; the group is minimally almost
convex at r when fmax <= 2r - 1 and M'-convex when fmax <= 2r - 2.  A path
through the identity always exists, so fmax <= 2r is checked as a hard
sanity bound (InvariantError).
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass

from .ball_engine import DEFAULT_CAP, BallIndex, build_ball, in_ball_distances
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

    def r0(self, flag: str = "mprime"):
        """Least radius from which the flag holds through r_max, or None."""
        best = None
        for row in reversed(self.rows):
            if getattr(row, flag):
                best = row.r
            else:
                break
        return best

    def row(self, r: int) -> ScanRow:
        for candidate in self.rows:
            if candidate.r == r:
                return candidate
        raise KeyError(r)


def _shared_outside(ball: BallIndex, table, lo: int, hi: int) -> dict[int, list[int]]:
    """For each x of the sphere lo:hi, the later members of the sphere that
    share a neighbour outside the ball with x.  Such middles exist only on
    the outermost sphere.  Generators are closed under inverses, so y is
    the middle m times a generator exactly when m is a neighbour of y."""
    model, ngens = ball.model, ball.ngens
    groups: dict[bytes, list[int]] = {}
    for x in range(lo, hi):
        row = table[x * ngens:(x + 1) * ngens]
        if -1 in row:
            el = ball.element_at(x)
            for i, m in enumerate(row):
                if m < 0:
                    groups.setdefault(model.key(model.apply_gen(el, i)), []).append(x)
    later: dict[int, list[int]] = {}
    for group in groups.values():
        for idx, x in enumerate(group):
            later.setdefault(x, []).extend(group[idx + 1:])
    return later


def scan(model, r_min: int, r_max: int, cap: int = DEFAULT_CAP,
         ball: BallIndex | None = None) -> ScanReport:
    """Scan radii r_min..r_max in one ball build, on the ball's neighbour
    table."""
    if r_min < 1 or r_max < r_min:
        raise ValueError("need 1 <= r_min <= r_max")
    if ball is None:
        ball = build_ball(model, r_max, cap)
    if ball.radius < r_max:
        raise ValueError("prebuilt ball is smaller than r_max")

    table, ngens, keys = ball.neighbours(), ball.ngens, ball.keys
    rows = []
    for r in range(r_min, r_max + 1):
        # B(r) is the id range 0:hi and S(r) is lo:hi, so each unordered
        # pair is searched once, from its smaller id: x < y < hi.
        lo, hi = ball.starts[r], ball.starts[r + 1]
        shared = _shared_outside(ball, table, lo, hi)
        fmax = 0
        npairs = 0
        witness: tuple[bytes, bytes] | None = None
        for x in range(lo, hi):
            targets = set(shared.get(x, ()))
            for m in table[x * ngens:(x + 1) * ngens]:
                if m < 0:
                    continue
                if x < m < hi:
                    targets.add(m)
                for y in table[m * ngens:(m + 1) * ngens]:
                    if x < y < hi:
                        targets.add(y)
            if not targets:
                continue
            npairs += len(targets)
            found = in_ball_distances(ball, x, targets, hi)
            if len(found) < len(targets):
                raise InvariantError(f"sphere pair disconnected inside B({r})")
            for y, depth in found.items():
                if depth > 2 * r:
                    raise InvariantError(f"in-ball detour exceeded 2r = {2 * r}")
                if depth >= fmax:
                    pair = tuple(sorted((keys[x], keys[y])))
                    if depth > fmax or pair < witness:
                        fmax = depth
                        witness = pair
        rows.append(ScanRow(
            r, fmax, npairs,
            witness[0].decode("ascii") if witness else "",
            witness[1].decode("ascii") if witness else ""))
    return ScanReport(model.name, r_min, r_max, tuple(rows))


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


@dataclass(frozen=True)
class ProbeResult:
    slope: float
    intercept: float
    points: int


def sublinearity_probe(report: ScanReport) -> ProbeResult:
    """Least-squares slope of fmax against r over the radii with pairs.
    Needs at least three datapoints to mean anything."""
    xs = [row.r for row in report.rows if row.pairs > 0]
    ys = [float(row.fmax) for row in report.rows if row.pairs > 0]
    if len(xs) < 3:
        raise ValueError("sublinearity probe needs at least 3 radii with pairs")
    slope, intercept = statistics.linear_regression([float(x) for x in xs], ys)
    return ProbeResult(slope, intercept, len(xs))
