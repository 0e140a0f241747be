"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "[criterion k] PASS" or "[criterion k] FAIL" line
straight to the terminal (capture suspended) and then asserts.  Criterion 5
is a strict xfail: its n = 2 instance genuinely fails one geodesic
assertion, and the suite records that fact instead of papering over it; if
the underlying computation ever changes verdict, the strict marker trips.
"""

import random
from statistics import linear_regression

import pytest

from convexlab import (
    CONSTRUCTIVE_CASES,
    IMPOSSIBLE_CASES,
    RELATORS,
    BsParams,
    Word,
    WordClass,
    bs_eval,
    build_case,
    classify,
    exp_sum,
    gamma_length_special,
    geodesic_length,
    has_pinch,
    impossibility_search,
    in_H,
    normalize,
    scan,
    st_eval,
    verify_boundingm,
    verify_bs1q_notmac,
    verify_case,
    verify_notpac,
    verify_stallings_witness,
)
from convexlab.bs_arith import IDENTITY
from convexlab.bs_geodesics import XBlock

BS2 = BsParams(2)


def _verdict(capsys, k: int, ok: bool) -> None:
    with capsys.disabled():
        print(f"\n[criterion {k}] {'PASS' if ok else 'FAIL'}")


def _word_of(letters) -> Word:
    return Word.from_runs(
        (c.lower(), -1 if c.isupper() else 1) for c in letters)


# -- criterion 1: digit DP equals BFS distance --------------------------------


def test_criterion_01_oracle_equivalence(ball_bs2_r10, ball_bs7_r6, capsys):
    failures = []
    for ball, q in ((ball_bs2_r10, 2), (ball_bs7_r6, 7)):
        params = BsParams(q)
        for i, key in enumerate(ball.keys):
            d = ball.depth(i)
            if geodesic_length(ball.element(key), params) != d:
                failures.append((q, key, d))
    _verdict(capsys, 1, not failures)
    assert not failures, failures[:5]


# -- criterion 2: normal forms are sound on all of B(8) -----------------------


def _shape_violations(gnf, q: int) -> list:
    bad = []
    half = 1 if q == 2 else q // 2
    for digit in gnf.digits:
        if abs(digit) > half:
            bad.append(("digit", digit))
    if isinstance(gnf.core, XBlock):
        if gnf.core.height < 1:
            bad.append(("height", gnf.core.height))
        if q == 2 and not 2 <= abs(gnf.core.top) <= 3:
            bad.append(("top", gnf.core.top))
        for digit in gnf.core.digits:
            if abs(digit) > half:
                bad.append(("core-digit", digit))
    elif q == 2 and abs(gnf.core) > 3:
        bad.append(("core", gnf.core))
    return bad


def test_criterion_02_normal_form_soundness(ball_bs2_r8, capsys):
    failures = []
    for i, key in enumerate(ball_bs2_r8.keys):
        d = ball_bs2_r8.depth(i)
        w = _word_of(ball_bs2_r8.geodesic_word(key))
        gnf = normalize(w, BS2)
        out = gnf.render()
        if len(out) != d or bs_eval(out, BS2) != ball_bs2_r8.element(key):
            failures.append(("value", key))
        failures.extend(_shape_violations(gnf, 2))
    _verdict(capsys, 2, not failures)
    assert not failures, failures[:5]


# -- criterion 3: scan table matches the frozen reference ---------------------

FROZEN_FMAX = {
    3: (3, 34), 4: (3, 68), 5: (3, 142), 6: (6, 272),
    7: (7, 498), 8: (7, 914), 9: (11, 1662), 10: (11, 2932),
}


def test_criterion_03_convexity_scan_table(ball_bs2_r11, capsys):
    report = scan(ball_bs2_r11, 3)
    got = {row.r: (row.fmax, row.pairs) for row in report.rows}
    ok = got == FROZEN_FMAX
    bounded = all(row.fmax <= 2 * row.r - 2 for row in report.rows)
    _verdict(capsys, 3, ok)
    assert got == FROZEN_FMAX
    assert bounded  # fmax stays at or under 2r - 2 across the scanned range


# -- criterion 4: constructive case paths and impossibility searchers ---------

LARGE_INSTANCE = {
    "8.1": {"p": 200}, "8.2": {"p": 200}, "9.2": {"p": 200},
    "10.1": {"p": 200}, "10.3.1.1": {"p": 200}, "10.3.1.2": {"p": 200},
    "10.3.3.1": {"p": 200}, "10.3.3.2": {"p": 200},
    "10.2.1": {"f1": 200}, "10.2.2": {"f1": 200},
    "10.2.3": {"f1": 200}, "10.2.4": {"f1": 200},
}


def test_criterion_04_case_paths(capsys):
    failures = []
    big = []
    for case in sorted(CONSTRUCTIVE_CASES):
        for seed in range(50):
            kw = LARGE_INSTANCE.get(case, {}) if seed == 0 else {}
            report = verify_case(build_case(case, rng=random.Random(seed), **kw))
            if not report["ok"]:
                failures.append((case, seed, report["first_violation"]))
            if kw:
                big.append(report["r"])
    hits = []
    for case in sorted(IMPOSSIBLE_CASES):
        hits.extend(impossibility_search(case, 7))
    ok = not failures and not hits and big and min(big) > 400
    _verdict(capsys, 4, ok)
    assert not failures, failures[:5]
    assert not hits, hits[:5]
    assert big and min(big) > 400  # the pinned instances do reach r > 400


def _large_case_radii(scale):
    """verify_case on every LARGE_INSTANCE case, seed 0, with its pins at
    this scale: the failures and the radii reached."""
    failures = []
    radii = []
    for case, pins in sorted(LARGE_INSTANCE.items()):
        kw = {key: scale for key in pins}
        report = verify_case(build_case(case, rng=random.Random(0), **kw))
        if not report["ok"]:
            failures.append((case, report["first_violation"]))
        radii.append(report["r"])
    assert len(radii) == 12
    return failures, radii


def test_criterion_04_case_paths_beyond_r_2000():
    failures, radii = _large_case_radii(1000)
    assert not failures, failures
    assert min(radii) > 2000


def test_criterion_04_case_paths_beyond_r_20000():
    # p or f1 = 10^4: the digit walk is linear, so all 12 take seconds
    failures, radii = _large_case_radii(10_000)
    assert not failures, failures
    assert min(radii) > 20_000


# -- criterion 5: the q = 2 sphere pair that defeats sublinear bridging -------

NOTPAC_MINIMA = {2: 3, 3: 7, 4: 11, 5: 16}


@pytest.mark.xfail(
    strict=True,
    reason="n = 2 fails one geodesic assertion: w*a^-1 lands on a^7, whose "
           "distance is 6 = R, so the length-7 spelling is not geodesic",
)
def test_criterion_05_notpac_witness(capsys):
    reports = {n: verify_notpac(n) for n in range(2, 6)}
    radii = [reports[n]["R"] for n in sorted(reports)]
    minima = [reports[n]["bridge"] for n in sorted(reports)]
    slope = linear_regression(radii, minima).slope
    ok = (all(rep["ok"] for rep in reports.values())
          and minima == [NOTPAC_MINIMA[n] for n in sorted(reports)]
          and slope >= 0.9)
    _verdict(capsys, 5, ok)
    assert minima == [NOTPAC_MINIMA[n] for n in sorted(reports)]
    assert slope >= 0.9
    assert all(rep["ok"] for rep in reports.values()), {
        n: rep["geodesic_detail"] for n, rep in reports.items() if not rep["ok"]}


# -- criterion 6: q >= 7 bridges cost 2R and run through the identity ---------


def test_criterion_06_bs1q_bridges(capsys):
    failures = []
    for q, n in ((7, 2), (8, 2), (7, 3)):
        report = verify_bs1q_notmac(q, n)
        detour = report["bridge_no_identity"]
        if not (report["ok"] and report["bridge"] == 2 * report["R"]
                and (detour is None or detour > 2 * report["R"])):
            failures.append((q, n, report["checks"]))
    _verdict(capsys, 6, not failures)
    assert not failures, failures


# -- criterion 7: reachable a^m dichotomy --------------------------------------


def test_criterion_07_digit_bounds(capsys):
    failures = []
    for q, ns in ((2, range(2, 27)), (7, range(2, 21)), (8, range(1, 9)),
                  (9, range(1, 9)), (10, range(1, 9))):
        for n in ns:
            report = verify_boundingm(n, q)
            if not report["ok"]:
                failures.append((q, n, report["reachable"]))
    _verdict(capsys, 7, not failures)
    assert not failures, failures


# -- criterion 8: Stallings witness plus the supporting lemma suites ----------


def test_criterion_08_stallings(ball_st_r4, ball_st_r5, capsys):
    failures = []
    report = verify_stallings_witness(1)
    if not (report["ok"] and report["bridge"] == 8 and report["R"] == 4
            and all(st_eval(r).is_identity() for r in RELATORS)):
        failures.append(("witness", report["checks"]))
    for ball in (ball_st_r4, ball_st_r5):
        for i, key in enumerate(ball.keys):
            d = ball.depth(i)
            letters = ball.geodesic_word(key)
            el = ball.element(key)
            if in_H(el) and exp_sum(_word_of(letters)) != 0:
                failures.append(("exp-sum", key))
            special = gamma_length_special(el)
            if special is not None and special != d:
                failures.append(("gamma-length", key, special, d))
            s_spots = [i for i, name in enumerate(letters) if name in "sS"]
            for left, right in zip(s_spots, s_spots[1:]):
                if letters[left] != letters[right]:
                    inner = "".join(letters[left + 1:right])
                    if in_H(st_eval(inner)):
                        failures.append(("pinch", key))
    _verdict(capsys, 8, not failures)
    assert not failures, failures[:5]


# -- criterion 9: pinches in identity words, pinches force slack --------------

_LETTERS = (("a", 1), ("a", -1), ("t", 1), ("t", -1))


def _reduced_words(max_len):
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for seq in frontier:
            for name, sign in _LETTERS:
                if seq and seq[-1] == (name, -sign):
                    continue
                nxt.append(seq + ((name, sign),))
        frontier = nxt
        yield from frontier


def test_criterion_09_pinch_properties(capsys):
    failures = []
    witnesses = 0
    for seq in _reduced_words(10):
        w = Word.from_runs(seq)
        if has_pinch(w, BS2):
            if geodesic_length(bs_eval(w, BS2), BS2) >= len(w):
                failures.append(("geodesic-pinch", str(w)))
        if (len(seq) <= 8 and bs_eval(w, BS2) == IDENTITY
                and any(name == "t" for name, _ in seq)
                and classify(w) == WordClass.NP):
            witnesses += 1
            if not has_pinch(w, BS2):
                failures.append(("pinch-free-identity", str(w)))
    ok = not failures and witnesses > 0
    _verdict(capsys, 9, ok)
    assert not failures, failures[:5]
    assert witnesses > 0
