"""Almost-convexity scan: frozen regression table and CSV output."""

import csv
from array import array

import pytest

import reference
from convexlab.ball_engine import BallIndex, build_ball
from convexlab.bs_arith import BsGroupModel, BsParams
from convexlab.bs_geodesics import in_ball_bridge
from convexlab.convexity_scan import scan, write_csv
from convexlab.errors import InvariantError

# (fmax, pairs) per radius, pinned by reference.fmax_scan for q=2
FROZEN_BS2 = {
    3: (3, 34),
    4: (3, 68),
    5: (3, 142),
    6: (6, 272),
    7: (7, 498),
    8: (7, 914),
    9: (11, 1662),
    10: (11, 2932),
}

# the lexicographically smallest fmax pair per radius, as ascii keys
FROZEN_BS2_WITNESSES = {
    3: ("-1:-3:1", "0:-1:1"),
    4: ("-1:-1:2", "-2:-3:2"),
    5: ("-1:-3:2", "0:1:2"),
    6: ("-1:-9:1", "1:-9:1"),
    7: ("-1:-13:1", "1:-13:1"),
    8: ("-1:-17:1", "1:-17:1"),
}


# (fmax, pairs) per radius for the q between the paper's two regimes:
# fmax is 2r at odd r and 2r - 2 at even r, except at r = 3
FROZEN_BS3_6 = {
    3: {3: (4, 50), 4: (6, 118), 5: (10, 284), 6: (10, 628),
        7: (14, 1392), 8: (14, 2948), 9: (18, 6240)},
    4: {3: (5, 51), 4: (6, 112), 5: (10, 310), 6: (10, 760),
        7: (14, 1810), 8: (14, 4246), 9: (18, 9710)},
    5: {3: (6, 52), 4: (6, 140), 5: (10, 354), 6: (10, 948),
        7: (14, 2324), 8: (14, 5612), 9: (18, 13456)},
    6: {3: (6, 44), 4: (6, 139), 5: (10, 342), 6: (10, 932),
        7: (14, 2388), 8: (14, 5904), 9: (18, 14508)},
}


# (fmax, pairs, witness_x, witness_y) per radius, as the one-sided
# multi-target search computed them before only the hard pairs were searched
FROZEN_STALLINGS = {
    1: (2, 45, "A|aB|", "A|a|C"),
    2: (4, 432, "AS|aB|", "AS|a|C"),
    3: (4, 3024, "AAS|aB|", "AAS|a|C"),
    4: (8, 18612, "SA|Ab|", "|AAba|"),
}

FROZEN_BS7 = {
    3: (6, 44, "-1:-6:1", "0:1:1"),
    4: (8, 140, "-1:-3:1", "-1:-5:1"),
    5: (10, 368, "-1:-48:1", "1:-48:1"),
    6: (10, 982, "-1:-1:3", "-2:-50:3"),
    7: (14, 2556, "-1:-342:1", "1:-342:1"),
    8: (14, 6440, "-1:-1:4", "-2:-344:4"),
}

# one radius per q at which reference.fmax_scan_grouped runs in well under 1 s
REFERENCE_RADII = {2: 9, 3: 7, 4: 6, 5: 6, 6: 5, 7: 6}


def _rows(report):
    return {row.r: (row.fmax, row.pairs, row.witness_x, row.witness_y)
            for row in report.rows}


@pytest.fixture(scope="module")
def report_r8(ball_bs2_r9):
    return scan(ball_bs2_r9, 3)


def test_scan_matches_frozen_table(report_r8):
    for row in report_r8.rows:
        assert (row.fmax, row.pairs) == FROZEN_BS2[row.r], row.r


def test_scan_matches_reference_directly():
    got = scan(build_ball(BsGroupModel(BsParams(2)), 5), 4)
    ref = reference.fmax_scan(2, 4)
    (row,) = got.rows
    assert (row.fmax, row.pairs) == ref
    grouped = reference.fmax_scan_grouped(2, 4)
    assert (row.fmax, row.pairs) == grouped


@pytest.mark.parametrize("q", sorted(FROZEN_BS3_6))
def test_scan_rows_between_regimes(q):
    report = scan(build_ball(BsGroupModel(BsParams(q)), 10), 3)
    assert {row.r: (row.fmax, row.pairs) for row in report.rows} == FROZEN_BS3_6[q]
    if q in (3, 4):
        assert reference.fmax_scan_grouped(q, 7) == FROZEN_BS3_6[q][7]


def test_stallings_scan_rows(ball_st_r5):
    assert _rows(scan(ball_st_r5, 1)) == FROZEN_STALLINGS


def test_bs7_scan_rows():
    assert _rows(scan(build_ball(BsGroupModel(BsParams(7)), 9), 3)) == FROZEN_BS7


@pytest.mark.parametrize("q", sorted(REFERENCE_RADII))
def test_scan_matches_grouped_reference(q):
    r = REFERENCE_RADII[q]
    (row,) = scan(build_ball(BsGroupModel(BsParams(q)), r + 1), r).rows
    assert (row.fmax, row.pairs) == reference.fmax_scan_grouped(q, r)


def test_scan_witnesses_match_frozen(report_r8):
    for row in report_r8.rows:
        assert (row.witness_x, row.witness_y) == FROZEN_BS2_WITNESSES[row.r], row.r


def test_scan_witness_pair_is_valid(report_r8, ball_bs2_r9):
    row = {row.r: row for row in report_r8.rows}[6]
    assert row.witness_x and row.witness_y
    kx = row.witness_x.encode("ascii")
    ky = row.witness_y.encode("ascii")
    assert ball_bs2_r9.distance(kx) == 6 and ball_bs2_r9.distance(ky) == 6


def test_flags(report_r8):
    for row in report_r8.rows:
        assert row.mac == (row.fmax <= 2 * row.r - 1)
        assert row.mprime == (row.fmax <= 2 * row.r - 2)
        assert row.mprime  # holds throughout the frozen range


def test_report_is_of_the_ball(report_r8):
    assert (report_r8.group, report_r8.r_min, report_r8.r_max) == ("bs:q=2", 3, 8)
    assert [row.r for row in report_r8.rows] == list(range(3, 9))


def test_scan_validates_range(ball_bs2_r9):
    with pytest.raises(ValueError):
        scan(ball_bs2_r9, 0)
    # the scan at r reads the rows of S(r + 1)
    with pytest.raises(ValueError):
        scan(ball_bs2_r9, 9)


def test_write_csv(tmp_path, report_r8):
    path = tmp_path / "scan.csv"
    write_csv(report_r8, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert rows[0]["r"] == "3"
    assert rows[3]["fmax"] == "6"
    assert rows[0]["mprime"] == "true"


def _reversed_ids(ball):
    """A copy of a built ball with the ids inside every sphere in reverse
    order: its keys, its ids and every entry of its neighbour table."""
    table, ngens = ball.neighbours(), ball.ngens
    perm = [0] * len(ball)
    for r in range(ball.radius + 1):
        ids = ball.sphere_ids(r)
        for x in ids:
            perm[x] = ids.start + ids.stop - 1 - x
    flipped = BallIndex(ball.model, ball.radius)
    flipped.starts = list(ball.starts)
    flipped.keys = [b""] * len(ball)
    for x, key in enumerate(ball.keys):
        flipped.keys[perm[x]] = key
    flipped.ids = {key: x for x, key in enumerate(flipped.keys)}
    flipped._table = array("i", [0]) * len(table)
    for e, j in enumerate(table):
        x, i = divmod(e, ngens)
        flipped._table[perm[x] * ngens + i] = perm[j] if j >= 0 else j
    return flipped


def test_scan_ignores_id_order(report_r8, ball_bs2_r9):
    flipped = _reversed_ids(ball_bs2_r9)
    assert flipped.keys != ball_bs2_r9.keys
    assert sorted(flipped.keys) == sorted(ball_bs2_r9.keys)
    assert scan(flipped, 3) == report_r8


def test_scan_raises_on_disconnected_pair():
    model = BsGroupModel(BsParams(2))
    ball = build_ball(model, 5)
    table, ngens = ball.neighbours(), ball.ngens
    sphere = ball.sphere_ids(4)
    # The first element x of S(4) shares a middle on S(5), and none inside
    # B(4), with a later y, so the pair is searched; with y's row blanked, no
    # path leaves y.
    x, hi = sphere.start, sphere.stop
    shared = {m: {y for y in ball.row(m) if x < y < hi} for m in ball.row(x)}
    inside = {x, *(m for m in shared if m < hi)}.union(*(shared[m] for m in shared if m < hi))
    y = min(set().union(*shared.values()) - inside)
    table[y * ngens:(y + 1) * ngens] = array("i", [-1] * ngens)
    with pytest.raises(InvariantError, match="disconnected"):
        scan(ball, 4)


# (fmax, pairs, witness_x, witness_y) past FROZEN_BS2, as the scan on B(17)
# computed them
FROZEN_BS2_OUTER = {
    15: (24, 47048, "-1:-191:1", "1:-191:1"),
    16: (24, 80990, "-1:-255:1", "1:-255:1"),
}


def test_bs2_outer_scan_rows():
    ball = build_ball(BsGroupModel(BsParams(2)), 17)
    assert _rows(scan(ball, 15)) == FROZEN_BS2_OUTER
    # the ball-free A* search gives each witness pair the same bridge
    params = BsParams(2)
    for r, (fmax, _, wx, wy) in FROZEN_BS2_OUTER.items():
        x, y = (ball.element(k.encode("ascii")) for k in (wx, wy))
        assert in_ball_bridge(x, y, r, params) == fmax
