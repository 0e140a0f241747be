"""Case witnesses, impossibility searchers, and the ball-scale theorems."""

import dataclasses
import itertools
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest

import reference
from convexlab import ball_engine, bs_geodesics, stallings, witness_lab
from convexlab.ball_engine import bridge_length, build_ball
from convexlab.bs_arith import BsGroupModel, BsParams, bs_eval, bs_key, bs_mul
from convexlab.bs_geodesics import geodesic_length, in_ball_bridge, is_geodesic
from convexlab.errors import InvariantError
from convexlab.witness_lab import (
    BRIDGE_WITNESSES,
    CONSTRUCTIVE_CASES,
    IMPOSSIBLE_CASES,
    ConstructionError,
    build_case,
    impossibility_search,
    random_filler,
    verify_boundingm,
    verify_bridge,
    verify_bs1q_notmac,
    verify_case,
    verify_notpac,
    _CASE6_SAME_EMPTY,
    _case6_same_instance,
)
from convexlab.words import (STALLINGS_ALPHABET, Word, classify, exp_sum, free_reduce,
                             gen_power, parse_word, sigma_t)

BS2 = BsParams(2)


# -- constructive case builders ---------------------------------------------

def test_case_ids_cover_the_table():
    assert len(CONSTRUCTIVE_CASES) == 20
    assert len(IMPOSSIBLE_CASES) == 5
    assert set(CONSTRUCTIVE_CASES).isdisjoint(IMPOSSIBLE_CASES)


def test_case_ids_keep_their_order():
    # seeded sweeps and the benchmark's witness inputs draw seeds in this order
    assert CONSTRUCTIVE_CASES == (
        "4", "5", "6", "7.2", "7.3", "7.4", "8.1", "8.2",
        "9.1.1", "9.1.2", "9.2", "10.1", "10.2.1", "10.2.2", "10.2.3", "10.2.4",
        "10.3.1.1", "10.3.1.2", "10.3.3.1", "10.3.3.2",
    )


@pytest.mark.parametrize("case_id", CONSTRUCTIVE_CASES)
def test_constructive_cases_verify(case_id):
    for seed in range(5):
        cw = build_case(case_id, random.Random(seed))
        report = verify_case(cw)
        assert report["ok"], (case_id, seed, report["checks"])
        assert cw.case == case_id
        assert len(cw.delta) <= 2 * cw.r - 2


# The whole verify_case report of every constructive case for seeds 0..2,
# recorded before the builders shared one partner step: "case seed" -> report.
GOLDEN_CASE_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "golden_case_reports.json").read_text())


@pytest.mark.parametrize("key", GOLDEN_CASE_REPORTS)
def test_case_report_is_golden(key):
    case_id, seed = key.split()
    report = verify_case(build_case(case_id, random.Random(int(seed))))
    # tuples in params print as lists, so compare the JSON text
    assert json.dumps(report) == json.dumps(GOLDEN_CASE_REPORTS[key])


def test_golden_case_reports_cover_every_case():
    assert list(GOLDEN_CASE_REPORTS) == [f"{c} {s}" for c in CONSTRUCTIVE_CASES
                                         for s in range(3)]


def test_worked_example_81():
    cw = build_case("8.1", random.Random(7), p=12, k=2, j=1)
    report = verify_case(cw)
    assert report["ok"]
    assert cw.params["p"] == 12 and cw.params["k"] == 2 and cw.params["j"] == 1


def test_worked_example_73():
    cw = build_case("7.3", random.Random(0), mode="i0", j=1)
    report = verify_case(cw)
    assert report["ok"]
    assert cw.delta == parse_word("t A T a")
    assert len(cw.delta) == 4


def test_corrupted_delta_fails():
    cw = build_case("7.3", random.Random(0), mode="i0", j=1)
    bad = dataclasses.replace(cw, delta=parse_word("t A T A"))
    report = verify_case(bad)
    assert not report["ok"]
    assert not report["checks"]["delta_eval"]


def test_corrupted_delta_leaves_ball():
    # a climb of 2r + 2 keeps the endpoint but exits B(r) mid-path
    cw = build_case("8.1", random.Random(1), p=6)
    k = 2 * cw.r + 2
    looped = cw.delta * parse_word(f"t^{k}") * parse_word(f"T^{k}")
    bad = dataclasses.replace(cw, delta=looped)
    report = verify_case(bad)
    assert not report["ok"]
    assert not report["checks"]["in_ball"]
    assert report["first_violation"] is not None


_LETTERS = tuple(Word.from_runs([(g, s)]) for g in "at" for s in (1, -1))


def _walked_first_violation(cw, delta):
    """The first prefix of delta outside B(r), by a DP call on every prefix."""
    return reference.first_exit(
        bs_eval(cw.w, BS2), delta.letters(), cw.r,
        lambda el, letter: bs_mul(el, bs_eval(Word.from_runs([letter]), BS2), BS2),
        lambda el: geodesic_length(el, BS2))


def _exit_letter(cw):
    """A letter g with l(w g) = r + 1, or None."""
    w_el = bs_eval(cw.w, BS2)
    for g in _LETTERS:
        if geodesic_length(bs_mul(w_el, bs_eval(g, BS2), BS2), BS2) == cw.r + 1:
            return g
    return None


def _back_and_out(cw, m, g):
    """Back along the last m letters of w, forward again, then out by g: the
    prefixes climb r - m, ..., r, and letter 2m + 1 is the first outside."""
    back = cw.w.suffix(m)
    return back.inverse() * back * g * cw.delta


def _corrupted_deltas(cw):
    out = []
    for k in (1, 2, cw.r + 1):
        out.append((f"loop t^{k}", cw.delta * parse_word(f"t^{k}") * parse_word(f"T^{k}")))
        out.append((f"a^{k} first", parse_word(f"a^{k}") * cw.delta))
        out.append((f"A^{k} first", parse_word(f"A^{k}") * cw.delta))
    g = _exit_letter(cw)
    if g is not None:
        out.append(("out at letter 1", g * cw.delta))
        out.extend((f"back {m} and out", _back_and_out(cw, m, g))
                   for m in (1, 3, 7) if m <= cw.r)
    return out


@pytest.mark.parametrize("case_id", sorted(CONSTRUCTIVE_CASES))
def test_first_violation_matches_per_letter_walk(case_id):
    for seed in range(3):
        cw = build_case(case_id, random.Random(seed))
        for name, delta in _corrupted_deltas(cw):
            report = verify_case(dataclasses.replace(cw, delta=delta))
            want = _walked_first_violation(cw, delta)
            assert report["first_violation"] == want, (case_id, seed, name)
            assert report["checks"]["in_ball"] == (want is None), (case_id, seed, name)


def _count_dp_calls(monkeypatch, module=witness_lab, name="geodesic_length") -> list:
    calls: list = []
    real = getattr(module, name)

    def counted(el, params):
        calls.append(el)
        return real(el, params)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("case_id,seed", [("8.1", 1), ("9.2", 4), ("10.2.4", 2),
                                          ("10.3.3.1", 0), ("7.3", 0)])
def test_violation_right_after_a_skipped_stretch(case_id, seed, monkeypatch):
    cw = build_case(case_id, random.Random(seed))
    g = _exit_letter(cw)
    assert g is not None and cw.r >= 7
    calls = _count_dp_calls(monkeypatch)
    assert verify_case(dataclasses.replace(cw, delta=g * cw.delta))["first_violation"] == 1
    for m in (1, 3, 7):
        delta = _back_and_out(cw, m, g)
        calls.clear()
        report = verify_case(dataclasses.replace(cw, delta=delta))
        assert report["first_violation"] == 2 * m + 1 == _walked_first_violation(cw, delta)
        # three calls price w, u and gamma; the walk prices letters 1, 3, 7, ...,
        # 2m + 1 only, so the exit is the letter right after a skipped stretch
        assert len(calls) - 3 == (2 * m + 1).bit_length()


@pytest.mark.parametrize("case_id,pins", [("8.1", {"p": 1000}), ("9.2", {"p": 1000}),
                                          ("10.3.3.1", {"p": 1000}),
                                          ("10.2.4", {"f1": 1000})])
def test_verify_case_dp_budget(case_id, pins, monkeypatch):
    cw = build_case(case_id, random.Random(0), **pins)
    calls = _count_dp_calls(monkeypatch)
    report = verify_case(cw)
    assert report["ok"], report["checks"]
    # a DP call per letter would be a hundred times the budget
    assert len(cw.delta) >= 4000
    assert len(calls) <= 40, len(calls)


# DP runs (bs_geodesics._price calls) that build_case makes for seeds 0..2:
# an attempt prices its drawn word once and the other endpoint once, the
# latter inside the normalize call that also spells it.
@pytest.mark.parametrize("case_id,pins,runs", [
    ("4", {}, 8), ("7.4", {}, 9), ("10.2.3", {}, 10), ("9.2", {}, 12),
    ("6", {"mode": "opposite"}, 6), ("8.2", {}, 12), ("10.3.3.1", {}, 6),
    ("10.3.3.2", {}, 7)])
def test_build_case_dp_budget(case_id, pins, runs, monkeypatch):
    calls = _count_dp_calls(monkeypatch, bs_geodesics, "_price")
    for seed in range(3):
        build_case(case_id, random.Random(seed), **pins)
    assert len(calls) == runs


def test_large_instances_by_length_only():
    for case_id, pins in (("8.1", {"p": 200}), ("9.2", {"p": 200}),
                          ("10.3.3.1", {"p": 200})):
        cw = build_case(case_id, random.Random(11), **pins)
        assert cw.r > 400
        report = verify_case(cw)
        assert report["ok"], (case_id, report["checks"])


def test_build_case_rejects_unknown_id():
    with pytest.raises(ConstructionError):
        build_case("3", random.Random(0))
    with pytest.raises(ConstructionError):
        build_case("nope", random.Random(0))


def test_build_case_rejects_stray_params():
    with pytest.raises(ConstructionError) as exc:
        build_case("8.1", random.Random(0), zz=3)
    assert str(exc.value) == ("case 8.1 does not take parameter(s) ['zz'];"
                              " it reads ['j', 'k', 'p']")
    # filler words are always drawn, never pinned
    for case, pin in (("8.1", "v"), ("9.2", "v"), ("10.3.1.1", "w2"), ("10.3.1.2", "w3")):
        with pytest.raises(ConstructionError, match=rf"parameter\(s\) \['{pin}'\]"):
            build_case(case, random.Random(0), **{pin: "t"})


def test_build_case_rejects_bad_values():
    with pytest.raises(ConstructionError):
        build_case("8.1", random.Random(0), p=0)
    with pytest.raises(ConstructionError):
        build_case("8.1", random.Random(0), k=5)
    with pytest.raises(ConstructionError):
        build_case("10.3.3.2", random.Random(0), p=5)
    with pytest.raises(ConstructionError):
        build_case("10.3.3.1", random.Random(0), s=2)
    for mode in ("i1_neg", "i1_same", "i1_opp"):
        with pytest.raises(ConstructionError, match=r"needs \|i\| = 1"):
            build_case("7.4", random.Random(0), mode=mode, i=0)
    for case, pins in (("5", {"h": 0}), ("6", {"mode": "opposite", "h": 0})):
        with pytest.raises(ConstructionError, match="h >= 1"):
            build_case(case, random.Random(0), **pins)
    with pytest.raises(ConstructionError, match="h >= 2"):
        build_case("4", random.Random(0), h=1)
    for pins in ({"mode": "opposite", "g": 0}, {"mode": "same", "g": 0},
                 {"mode": "same", "g": 2}):
        with pytest.raises(ConstructionError, match=r"needs \|g\| = 1"):
            build_case("6", random.Random(0), **pins)


# One pin outside its parameter's values for every drawn int or string
# parameter of every constructive case, plus the 10.2.3 near branch at
# f1 = 1: (case, pins, the parameter the error names).
BAD_PINS = [
    ("4", {"h": 1}, "h"), ("4", {"g": 3}, "g"),
    ("5", {"h": 0}, "h"), ("5", {"g": 2}, "g"),
    ("6", {"mode": "both"}, "mode"),
    ("6", {"mode": "same", "i": 2}, "i"), ("6", {"mode": "same", "sigma": 0}, "sigma"),
    ("6", {"mode": "same", "g": 2}, "g"), ("6", {"mode": "same", "gamma_kind": "zz"}, "gamma_kind"),
    ("6", {"mode": "opposite", "g": 0}, "g"), ("6", {"mode": "opposite", "h": 0}, "h"),
    ("7.2", {"e": 1}, "e"), ("7.2", {"k": 2}, "k"),
    ("7.3", {"mode": "i2"}, "mode"), ("7.3", {"e": 1}, "e"),
    ("7.3", {"mode": "i0", "j": 0}, "j"), ("7.3", {"mode": "i1", "i": 0}, "i"),
    ("7.4", {"mode": "i1"}, "mode"), ("7.4", {"e": 2}, "e"),
    ("7.4", {"mode": "i0", "k": 2}, "k"), ("7.4", {"mode": "i1_same", "i": 0}, "i"),
    ("8.1", {"p": 0}, "p"), ("8.1", {"k": 1}, "k"), ("8.1", {"j": 0}, "j"),
    ("8.2", {"p": 1}, "p"), ("8.2", {"k": 4}, "k"), ("8.2", {"j": 2}, "j"),
    ("9.1.1", {"e": 1}, "e"),
    ("9.1.2", {"branch": "far"}, "branch"), ("9.1.2", {"e": 2}, "e"),
    ("9.1.2", {"k": 0}, "k"),
    ("9.2", {"p": 9}, "p"), ("9.2", {"k": 1}, "k"), ("9.2", {"i": 0}, "i"),
    ("10.1", {"p": 0}, "p"), ("10.1", {"gamma_kind": "tt"}, "gamma_kind"),
    ("10.1", {"g": 2}, "g"), ("10.1", {"g": -3, "gamma_kind": "a2"}, "g"),
    ("10.1", {"extra": -1}, "extra"),
    ("10.1", {"p": 1, "gamma_kind": "a2", "extra": 0}, "p"),
    ("10.2.1", {"f1": 0}, "f1"), ("10.2.1", {"f1": 2, "e": 4}, "e"),
    ("10.2.1", {"i1": 0}, "i1"), ("10.2.1", {"k": 2}, "k"),
    ("10.2.2", {"f1": -1}, "f1"), ("10.2.2", {"e": 3}, "e"),
    ("10.2.2", {"i1": 2}, "i1"), ("10.2.2", {"k": 0}, "k"),
    ("10.2.3", {"f1": 0}, "f1"), ("10.2.3", {"f1": 3, "e": 5}, "e"),
    ("10.2.3", {"branch": "mid"}, "branch"), ("10.2.3", {"f1": 1, "branch": "near"}, "f1"),
    ("10.2.3", {"i1": 0}, "i1"), ("10.2.3", {"k": 2}, "k"),
    ("10.2.4", {"f1": 0}, "f1"), ("10.2.4", {"e": 3}, "e"),
    ("10.2.4", {"i1": 0}, "i1"), ("10.2.4", {"k": 0}, "k"),
    ("10.3.1.1", {"p": 1}, "p"), ("10.3.1.1", {"l": 1}, "l"),
    ("10.3.1.1", {"m": 1}, "m"), ("10.3.1.1", {"i": 0}, "i"),
    ("10.3.1.2", {"p": 1}, "p"), ("10.3.1.2", {"l": 2}, "l"),
    ("10.3.1.2", {"m": 4}, "m"), ("10.3.1.2", {"i": 2}, "i"),
    ("10.3.3.1", {"p": 3}, "p"), ("10.3.3.1", {"s": 2}, "s"), ("10.3.3.1", {"i": 0}, "i"),
    ("10.3.3.2", {"p": 5}, "p"), ("10.3.3.2", {"s": 0}, "s"), ("10.3.3.2", {"i": 2}, "i"),
]


@pytest.mark.parametrize("case,pins,name", BAD_PINS,
                         ids=[f"{c}-{'-'.join(f'{k}={v}' for k, v in p.items())}"
                              for c, p, _ in BAD_PINS])
def test_bad_pin_is_refused_at_once(case, pins, name, monkeypatch):
    monkeypatch.setattr(witness_lab, "_TRIES", 1)  # refused without a retry
    with pytest.raises(ConstructionError) as exc:
        build_case(case, random.Random(0), **pins)
    assert re.search(rf"\b{name}\b", str(exc.value)), str(exc.value)
    assert "sampling found no" not in str(exc.value)


def test_bad_pins_cover_every_drawn_parameter(monkeypatch):
    drawn = set()
    draw = witness_lab._CaseParams.draw

    def spy(self, name, *args, **kwargs):
        drawn.add((self.case, name))
        return draw(self, name, *args, **kwargs)
    monkeypatch.setattr(witness_lab._CaseParams, "draw", spy)
    for case_id in CONSTRUCTIVE_CASES:
        for seed in range(10):
            build_case(case_id, random.Random(seed))
    assert drawn == {(case, name) for case, _, name in BAD_PINS}


def test_string_pins_are_converted():
    as_str = build_case("8.1", random.Random(7), p="12", k="2", j="1")
    assert as_str == build_case("8.1", random.Random(7), p=12, k=2, j=1)
    with pytest.raises(ConstructionError, match=r"needs p >= 1, got 'x'"):
        build_case("8.1", random.Random(7), p="x")


def test_case4_lowest_height_builds():
    for seed in range(20):
        assert verify_case(build_case("4", random.Random(seed), h=2))["ok"]


def test_reduction_ids_report_requested_case():
    for case_id in ("5", "8.2", "9.1.1", "10.2.1"):
        cw = build_case(case_id, random.Random(2))
        assert cw.case == case_id
        assert verify_case(cw)["ok"]


def test_gamma_is_short():
    for case_id in CONSTRUCTIVE_CASES:
        cw = build_case(case_id, random.Random(3))
        assert 1 <= len(cw.gamma) <= 2
        assert bs_mul(bs_eval(cw.w, BS2), bs_eval(cw.gamma, BS2), BS2) == \
            bs_eval(cw.u, BS2)


def test_random_filler_contract():
    rng = random.Random(5)
    for sigma in (0, 1, 2, 5):
        w = random_filler(rng, sigma)
        assert sigma_t(w) == sigma
        assert is_geodesic(w, BS2)
    with pytest.raises(ConstructionError):
        random_filler(rng, -1)


# -- impossibility searchers -------------------------------------------------

@pytest.mark.parametrize("case_id", IMPOSSIBLE_CASES)
def test_impossible_cases_have_no_realizations(case_id):
    assert impossibility_search(case_id, 7) == []


def test_impossibility_search_builds_no_ball_for_10_3_2(monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("case 10.3.2 reads no ball")
    monkeypatch.setattr(witness_lab, "build_ball", no_ball)
    assert impossibility_search("10.3.2", 7) == []


def test_impossibility_search_rejects_constructive_id():
    with pytest.raises(ValueError):
        impossibility_search("8.1", 7)


def test_case_3_tags_equal_brute_force():
    # every reduced word of length <= 6 that the DP finds geodesic tags the
    # element it spells with its class
    letters = [("a", 1), ("a", -1), ("t", 1), ("t", -1)]
    expected: dict = {}
    for n in range(7):
        for spelling in itertools.product(letters, repeat=n):
            if any(g == h and s == -z for (g, s), (h, z) in zip(spelling, spelling[1:])):
                continue
            w = Word.from_runs(spelling)
            el = bs_eval(w, BS2)
            if geodesic_length(el, BS2) == n:
                expected.setdefault(bs_key(el), set()).add(classify(w))
    ball = build_ball(BsGroupModel(BS2), 6)
    assert witness_lab._geodesic_word_tags(ball) == expected


# -- digit-bound dichotomy ---------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boundingm_q2(n):
    report = verify_boundingm(n, 2)
    assert report["ok"], report
    assert report["reachable"] == [2 ** (n + 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_boundingm_q7(n):
    report = verify_boundingm(n, 7)
    assert report["ok"], report
    assert report["reachable"] == [7 ** n]


@pytest.mark.parametrize("n,q", [(1, 2), (0, 2), (0, 7)])
def test_boundingm_rejects_small_n(n, q):
    # the bound 2^(n-2) or q^(n-1) would not be an integer
    with pytest.raises(ValueError, match="needs n >="):
        verify_boundingm(n, q)


BOUNDINGM_SCANNED = ([(2, n) for n in range(2, 13)] + [(7, n) for n in range(2, 5)]
                     + [(q, n) for q in (8, 9, 10) for n in range(1, 4)])


@pytest.mark.parametrize("q,n", BOUNDINGM_SCANNED)
def test_boundingm_matches_scan(q, n):
    # the pruned enumeration finds exactly what a scan over every m finds
    report = verify_boundingm(n, q)
    scan = reference.boundingm_scan(n, q)
    assert {key: report[key] for key in scan} == scan


@pytest.mark.parametrize("q,radius", [(2, 12), (3, 9), (4, 8), (7, 7), (10, 7)])
def test_short_a_powers_matches_brute_force(q, radius):
    # windows where many m are reachable, so a pruning slip shows
    rng = random.Random(q)
    span = 3 * q ** (radius // 2)  # about the largest m reachable
    for _ in range(6):
        lo = rng.randint(-span, span)
        hi = lo + rng.randint(0, span // 2)
        found, _ = witness_lab._short_a_powers(lo, hi, radius, BsParams(q))
        assert found == [m for m in range(lo, hi + 1)
                         if reference.digit_forms(q, (0, Fraction(m)), radius)]


def test_boundingm_enumeration_stays_small():
    # the work follows the few short spellings, not the q^(n+1) values of m
    assert verify_boundingm(26, 2)["nodes"] <= 200
    assert verify_boundingm(20, 7)["nodes"] <= 300


def test_boundingm_refuses_what_the_dp_prices_longer(monkeypatch):
    monkeypatch.setattr(witness_lab, "geodesic_length", lambda el, params: 99)
    with pytest.raises(InvariantError, match="prices it at 99"):
        verify_boundingm(3, 2)


# -- section-four witnesses ---------------------------------------------------

def test_bridge_witness_pairs():
    spelled = {kind: tuple(map(str, row.pair(row.q, 3)))
               for kind, row in BRIDGE_WITNESSES.items()}
    assert spelled == {
        "notpac": ("t^3a^2T^3", "at^3a^2T^2", "at", "8"),
        "bs1q": ("t^3aT^3", "at^3aT^2", "at", "7"),
        "stallings": ("B^6a^6", "sB^6a^5", "sA", "12"),
    }
    # q and n are refused before any ball is built
    with pytest.raises(ValueError, match="q must be at least 7"):
        verify_bridge("bs1q", 2, q=3)
    with pytest.raises(ValueError, match="takes no q"):
        verify_bridge("notpac", 2, q=2)
    for kind in BRIDGE_WITNESSES:
        with pytest.raises(ValueError, match="n must be at least 1"):
            verify_bridge(kind, 0)


def test_verify_bridge_rejects_unknown_kind():
    with pytest.raises(ValueError, match=r"unknown bridge witness 'foo'; known: "
                                         r"notpac, bs1q, stallings"):
        verify_bridge("foo", 2)


def test_notpac_n3_passes():
    report = verify_notpac(3)
    assert report["ok"]
    assert report["bridge"] == 7
    assert report["R"] == 8
    assert all(report["geodesic_detail"].values())


def test_notpac_n2_fails_exactly_one_assert():
    # the a^(2^(n+1)-1) neighbor re-enters B(R) at n = 2: a^7 spells in 6
    report = verify_notpac(2)
    assert not report["ok"]
    detail = report["geodesic_detail"]
    assert detail["wa^-1"] is False
    assert all(v for tag, v in detail.items() if tag != "wa^-1")
    assert report["checks"]["distance"] and report["checks"]["bridge_exceeds"]
    assert report["bridge"] == 3
    assert geodesic_length(bs_eval(parse_word("a^7"), BS2), BS2) == 6


def test_bs1q_q7_n2():
    report = verify_bs1q_notmac(7, 2)
    assert report["ok"], report
    assert report["bridge"] == 10
    assert report["bridge_no_identity"] == 12
    with pytest.raises(ValueError):
        verify_bs1q_notmac(3, 2)


# -- the ball-free bridge against bridge_length on a BFS ball ------------------


def _both_bridges(src, dst, radius, params, ball):
    """(A* bridge, BFS bridge) inside B(radius), each without and with
    avoid_identity; the BFS runs on ball = B(radius + 1), since
    bridge_length measures one radius in from the ball's own."""
    return ([in_ball_bridge(src, dst, radius, params, avoid) for avoid in (False, True)],
            [bridge_length(ball, src, dst, avoid) for avoid in (False, True)])


def _through_or_detour(through, detour):
    """The bridge as verify_bridge derives it: a path through the identity
    costs d(x) + d(y), so the bridge is the lesser of that and the detour."""
    return through if detour is None else min(through, detour)


@pytest.mark.parametrize("kind,q,n", [("notpac", 2, n) for n in range(2, 8)]
                         + [("bs1q", q, n) for q in (7, 8) for n in (2, 3)])
def test_in_ball_bridge_matches_bfs_on_witness_pairs(kind, q, n):
    model = BsGroupModel(BsParams(q))
    w, u, _, radius = BRIDGE_WITNESSES[kind].pair(q, n)
    w_el, u_el = bs_eval(w, model.params), bs_eval(u, model.params)
    astar, bfs = _both_bridges(w_el, u_el, radius, model.params, build_ball(model, radius + 1))
    assert astar == bfs


@pytest.mark.parametrize("q", [2, 3, 7])
def test_in_ball_bridge_matches_bfs_on_sphere_pairs(q):
    # pairs x, y on one sphere S(r), r <= 8, at group distance 1 or 2: the
    # bridge inside B(r) by A* and by BFS on the built B(r + 1)
    model = BsGroupModel(BsParams(q))
    params = model.params
    balls = {r: build_ball(model, r + 1) for r in range(1, 9)}
    rng = random.Random(q)
    tried = 0
    while tried < 70:
        r = rng.randint(1, 8)
        ball = balls[r]
        x = ball.element_at(rng.choice(ball.sphere_ids(r)))
        y = x
        for _ in range(rng.randint(1, 2)):
            y = model.apply_gen(y, rng.randrange(4))
        if y == x or ball.distance(model.key(y)) != r:
            continue
        tried += 1
        astar, bfs = _both_bridges(x, y, r, params, ball)
        assert astar == bfs, (q, r, x, y)
        for bridge, detour in (astar, bfs):
            assert bridge == _through_or_detour(2 * r, detour), (q, r, x, y)


def test_stallings_bridge_is_through_or_detour(ball_st_r4, ball_st_r5):
    # seeded pairs x, y in B(4) at group distance 1 or 2, on any spheres,
    # each bridge measured inside B(4) on B(5)
    ball, model = ball_st_r4, ball_st_r4.model
    rng = random.Random(4)
    tried = 0
    while tried < 300:
        x = ball.element_at(rng.randrange(len(ball)))
        y = x
        for _ in range(rng.randint(1, 2)):
            y = model.apply_gen(y, rng.randrange(ball.ngens))
        dx, dy = ball.distance(model.key(x)), ball.distance(model.key(y))
        if dy is None or model.key(y) == model.key(x):
            continue
        tried += 1
        bridge, detour = (bridge_length(ball_st_r5, x, y, avoid) for avoid in (False, True))
        assert bridge == _through_or_detour(dx + dy, detour), (model.key(x), model.key(y))


def test_each_bridge_report_runs_one_search(monkeypatch):
    calls = []
    for module, name in ((witness_lab, "in_ball_bridge"), (witness_lab, "edge_cut"),
                         (witness_lab, "build_ball"), (ball_engine, "build_ball"),
                         (ball_engine, "bridge_length")):
        def counted(*args, _name=name, _search=getattr(module, name), **kwargs):
            calls.append(_name)
            return _search(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    # no row builds a ball or searches one
    for kind, n, q, search in (("notpac", 3, None, "in_ball_bridge"),
                               ("bs1q", 2, 7, "in_ball_bridge"),
                               ("bs1q", 3, 8, "in_ball_bridge"),
                               ("stallings", 1, None, "edge_cut"),
                               ("stallings", 4, None, "edge_cut")):
        calls.clear()
        assert verify_bridge(kind, n, q)["ok"]
        assert calls == [search], kind


# -- the Stallings edge cut against the BFS bridge ----------------------------


def _crossing_costs(w, k, budget):
    """p1 -> d(w, p) + 1 + d(p s, s k) for every crossing p = p1
    c^-sigma(p1), p1 a reduced word of F(a,b) and |p| <= budget, each
    length priced by the group's own arithmetic."""
    s_word = gen_power("s", 1)

    def length(word):
        return stallings.gamma_length_special(stallings.st_eval(word))

    costs, frontier = {}, [Word()]
    while frontier:
        grown = []
        for p1 in frontier:
            sigma = exp_sum(p1)
            if len(p1) + abs(sigma) > budget:
                continue
            p = p1 * gen_power("c", -sigma)
            costs[str(p1)] = (length(w.inverse() * p) + 1
                              + length((p * s_word).inverse() * s_word * k))
            grown += [q for g, e in itertools.product("ab", (1, -1))
                      if len(q := free_reduce(p1 * gen_power(g, e))) > len(p1)]
        frontier = grown
    return costs


def _assert_cut_is_the_bridge(cut, ball):
    # sound: the cut bounds every path, so it is at most the BFS bridge;
    # and at n = 1 it is exact; bridge_length measures inside B(R) on B(R + 1)
    w, u, _, radius = BRIDGE_WITNESSES["stallings"].pair(None, 1)
    assert ball.radius == radius + 1
    assert cut == bridge_length(ball, stallings.st_eval(w), stallings.st_eval(u)) == 8


def test_stallings_cut_is_the_bfs_bridge(ball_st_r5):
    w, u, _, radius = BRIDGE_WITNESSES["stallings"].pair(None, 1)
    cut = stallings.edge_cut(stallings.st_eval(w), stallings.st_eval(u), radius)
    _assert_cut_is_the_bridge(cut, ball_st_r5)


def test_stallings_cut_check_bites(ball_st_r5):
    # over every crossing at n = 1 the least cost is 8, at p1 = 1, B and Ba;
    # with those dropped the bound reads 12, past the bridge, and the
    # soundness check fails
    w, _, _, radius = BRIDGE_WITNESSES["stallings"].pair(None, 1)
    costs = _crossing_costs(w, parse_word("B^2a", STALLINGS_ALPHABET), radius - 1)
    assert {p1 for p1, cost in costs.items() if cost == 8} == {"", "B", "Ba"}
    dropped = min(cost for p1, cost in costs.items() if p1 not in ("", "B", "Ba"))
    assert dropped == 12
    with pytest.raises(AssertionError):
        _assert_cut_is_the_bridge(dropped, ball_st_r5)


@pytest.mark.parametrize("n", [1, 2])
def test_stallings_cut_is_the_least_crossing(n):
    w, u, _, radius = BRIDGE_WITNESSES["stallings"].pair(None, n)
    k = gen_power("b", -2 * n) * gen_power("a", 2 * n - 1)
    assert gen_power("s", 1) * k == u
    cut = stallings.edge_cut(stallings.st_eval(w), stallings.st_eval(u), radius)
    assert cut == min(_crossing_costs(w, k, radius - 1).values()) == 8 * n


def test_least_crossing_needs_only_prefixes():
    # seeded w and k in F(a,b) sharing a prefix, where a crossing often
    # undercuts the path through the identity: trying the prefixes of w and
    # k alone finds the least cost over every crossing
    rng = random.Random(5)

    def word(size):
        return Word.from_runs((rng.choice("ab"), rng.choice((1, -1))) for _ in range(size))

    undercut = 0
    for _ in range(60):
        shared = word(rng.randint(0, 4))
        w, k = (free_reduce(shared * word(rng.randint(0, 3))) for _ in range(2))
        w1, k1 = ("".join(g if e > 0 else g.upper() for g, e in x.letters()) for x in (w, k))
        budget = rng.randint(0, 6)
        least = stallings._least_crossing(w1, k1, budget)
        assert least == min(_crossing_costs(w, k, budget).values()), (w1, k1, budget)
        undercut += least < len(w1) + len(k1) + 1
    assert undercut >= 10


@pytest.mark.parametrize("n", range(1, 7))
def test_stallings_bridges_to_n6(n):
    # the edge cut meets the path through the identity: bridge 2R at R = 4n
    report = verify_bridge("stallings", n)
    assert report["ok"], report["checks"]
    assert (report["R"], report["bridge"]) == (4 * n, 8 * n)


def test_stallings_row_refuses_what_it_cannot_certify(monkeypatch):
    def pair(*texts):
        words = tuple(parse_word(t, STALLINGS_ALPHABET) for t in texts)
        return dataclasses.replace(BRIDGE_WITNESSES["stallings"],
                                   pair=lambda q, n: (*words, 3))
    # w = Ba lies in H, so u = w s = s w is one step away: the cut is 1, far
    # below d(w) + d(u) = 5, and certifies nothing
    monkeypatch.setitem(BRIDGE_WITNESSES, "stallings", pair("Ba", "sBa", "s"))
    with pytest.raises(ValueError, match="bounds the bridge by 1 only"):
        verify_bridge("stallings", 1)
    # an element with two s letters has no exact length here
    monkeypatch.setitem(BRIDGE_WITNESSES, "stallings", pair("sas", "sasa", "a"))
    with pytest.raises(ValueError, match="no exact length for sas"):
        verify_bridge("stallings", 1)
    # the cut takes w in F(a,b) and u in s F(a,b) only
    for w, u in (("c", "sc"), ("a", "as"), ("s", "s^2"), ("a", "Sa")):
        with pytest.raises(ValueError, match="takes w in F"):
            stallings.edge_cut(stallings.st_eval(w), stallings.st_eval(u), 4)


def test_in_ball_bridge_edge_cases():
    params = BsParams(2)
    a, big_a = bs_eval(parse_word("a"), params), bs_eval(parse_word("A"), params)
    # in B(1), a and a^-1 meet only through the identity
    assert in_ball_bridge(a, big_a, 1, params) == 2
    assert in_ball_bridge(a, big_a, 1, params, avoid_identity=True) is None
    ball = build_ball(BsGroupModel(params), 2)
    assert bridge_length(ball, a, big_a, avoid_identity=True) is None
    # the identity may be an endpoint of an identity-avoiding path
    one = bs_eval(Word(), params)
    assert in_ball_bridge(one, a, 1, params, avoid_identity=True) == 1
    assert in_ball_bridge(a, one, 1, params, avoid_identity=True) == 1
    assert in_ball_bridge(a, a, 1, params, avoid_identity=True) == 0
    with pytest.raises(ValueError, match="inside the ball"):
        in_ball_bridge(a, bs_eval(parse_word("a^2"), params), 1, params)


# -- bridge witnesses at scales a BFS ball makes slow --------------------------


def test_notpac_bridges_to_n9():
    # bridges 4n - 4 at R = 2n + 2; BFS on B(R) agrees for n <= 7
    for n, bridge in {6: 20, 7: 24, 8: 28, 9: 32}.items():
        report = verify_notpac(n)
        assert report["ok"], (n, report["checks"])
        assert (report["R"], report["bridge"]) == (2 * n + 2, bridge)


def test_bs1q_bridges_to_n5():
    # the bridge is 2R and avoiding the identity costs two more letters
    for (q, n), bridges in {(8, 3): (14, 16), (7, 4): (18, 20), (7, 5): (22, 24),
                            (8, 4): (18, 20)}.items():
        report = verify_bs1q_notmac(q, n)
        assert report["ok"], (q, n, report["checks"])
        assert (report["bridge"], report["bridge_no_identity"]) == bridges


# -- case 6: combinations without instances -----------------------------------


def test_case6_empty_combinations_match_enumeration():
    empty = set()
    for sig in range(1, 5):
        for i, g, kind in itertools.product((-1, 0, 1), (-1, 1), ("a2", "at")):
            if not any(_case6_same_instance([i, *rest], g, kind) is not None
                       for rest in itertools.product((-1, 0, 1), repeat=sig - 1)):
                empty.add((i, sig, g, kind))
    assert empty == _CASE6_SAME_EMPTY


def test_case6_default_draw_always_constructs():
    cw = build_case("6", random.Random(124))
    assert verify_case(cw)["ok"]
    for seed in range(200):
        assert verify_case(build_case("6", random.Random(seed)))["ok"], seed


def test_case6_pinned_empty_combination_raises():
    with pytest.raises(ConstructionError, match="no instance"):
        build_case("6", random.Random(0), mode="same", i=1, sigma=2, g=-1,
                   gamma_kind="a2")
    cw = build_case("6", random.Random(0), mode="same", i=1, sigma=2, g=-1)
    assert cw.params["gamma_kind"] == "at"


def test_case101_lowest_dip_has_no_instance():
    # p = 1, gamma = a^(2g), extra = 0: w = t^-1 a^d t a^-g for the bottom
    # digit d and g, and no choice gives w gamma at distance l(w) in class 4
    for d, g in itertools.product((-1, 1), (-1, 1)):
        w = witness_lab.ascent_word(1, [d], witness_lab._ap(-g))
        assert witness_lab._partner(w, witness_lab._ap(2 * g), 4, w_cls=4) is None, (d, g)
    for pins in ({"extra": 1}, {"gamma_kind": "at", "extra": 0}):
        cw = build_case("10.1", random.Random(0), p=1, **pins)
        assert verify_case(cw)["ok"], pins


# -- case 10.3.3.2: both bottom digits ----------------------------------------


@pytest.mark.parametrize("s", [-1, 1])
@pytest.mark.parametrize("p", [6, 7, 8, 12])
def test_case10332_builds_both_bottom_digits(p, s):
    for i in (-1, 1):
        cw = build_case("10.3.3.2", random.Random(p), p=p, s=s, i=i)
        report = verify_case(cw)
        assert report["ok"], (p, s, i, report["checks"])
        got = {key: cw.params[key] for key in ("p", "k", "s", "i", "j")}
        assert got == {"p": p, "k": 3 * s, "s": s, "i": i, "j": -i}
        assert cw.w == (witness_lab._ap(3 * s) * witness_lab._tp(-p) * witness_lab._ap(i)
                        * witness_lab._tp(1) * cw.params["w2"])


def test_case10332_bottom_digit_minus_one_is_the_mirror_image():
    # a -> a^-1, t -> t maps the (-s, 1) instance to the (s, -1) one
    flip = witness_lab._flip_a
    for seed, s in itertools.product(range(5), (-1, 1)):
        cw = build_case("10.3.3.2", random.Random(seed), s=s, i=-1)
        image = build_case("10.3.3.2", random.Random(seed), s=-s, i=1)
        assert (cw.w, cw.u, cw.delta) == (flip(image.w), flip(image.u), flip(image.delta))
        assert cw.params["w2"] == flip(image.params["w2"])
    drawn = {build_case("10.3.3.2", random.Random(seed)).params["i"] for seed in range(20)}
    assert drawn == {-1, 1}


# -- case 7.4: every mode and sign --------------------------------------------


@pytest.mark.parametrize("mode,pin,j", [
    ("i0", {"k": -1}, 0), ("i0", {"k": 1}, 0),
    ("i1_neg", {"i": -1}, 1), ("i1_neg", {"i": 1}, -1),
    ("i1_same", {"i": -1}, -1), ("i1_same", {"i": 1}, 1),
    ("i1_opp", {"i": -1}, 1), ("i1_opp", {"i": 1}, -1),
])
def test_case74_modes_construct(mode, pin, j):
    for seed in range(20):
        cw = build_case("7.4", random.Random(seed), mode=mode, **pin)
        report = verify_case(cw)
        assert report["ok"], (mode, pin, seed, report["checks"])
        assert cw.params["mode"] == mode and cw.params["j"] == j


@pytest.mark.parametrize("e", [4, 200])
def test_case74_i1_opp_depths(e):
    for i in (-1, 1):
        cw = build_case("7.4", random.Random(0), mode="i1_opp", i=i, e=e)
        assert verify_case(cw)["ok"], (e, i)
        assert cw.params["e"] == e and cw.params["j"] == -i
    with pytest.raises(ConstructionError, match="e >= 4"):
        build_case("7.4", random.Random(0), mode="i1_opp", e=3)
