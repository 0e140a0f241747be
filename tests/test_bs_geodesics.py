"""Geodesic length DP, normal forms, tilde, and the pinch criterion.

The length DP is pinned against the independent Fraction-BFS oracle in
tests/reference.py over whole balls, then the normal form is checked for
soundness on every element the oracle saw.
"""

import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference
from convexlab import bs_geodesics
from convexlab.bs_arith import BsElement, BsGroupModel, BsParams, bs_eval
from convexlab.bs_geodesics import (
    GeodesicNormalForm,
    NotGeodesicError,
    XBlock,
    element_class,
    geodesic_length,
    has_pinch,
    is_geodesic,
    normalize,
    tilde,
)
from convexlab.errors import InvariantError
from convexlab.words import Word, WordClass, classify, parse_word

BS2 = BsParams(2)


def words_strategy(max_size=12):
    return st.lists(st.sampled_from("aAtT"), max_size=max_size).map(
        lambda cs: Word.from_runs(
            (c.lower(), -1 if c.isupper() else 1) for c in cs))


def _ref_element(q: int, ref_el) -> BsElement:
    """The element of a reference (texp, Fraction) pair: the smallest dpow
    with c * q^dpow integral (for composite q, den need not be a power of q)."""
    texp, c = ref_el
    dpow = 0
    while (c * q ** dpow).denominator > 1:
        dpow += 1
    return BsElement(texp, int(c * q ** dpow), dpow)


@pytest.mark.parametrize("q,radius", [(2, 8), (7, 5)] + [
    (q, 7) for q in (3, 4, 5, 6, 8, 9, 10)] + [
    (q, 9) for q in (11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21)])
def test_length_matches_reference_bfs(q, radius):
    params = BsParams(q)
    dist, _ = reference.ball(q, radius)
    for ref_el, d in dist.items():
        el = _ref_element(q, ref_el)
        assert geodesic_length(el, params) == d, (ref_el, d)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7, 13, 17, 22, 25, 27, 31, 32, 64, 100])
def test_length_is_a_local_certificate(q):
    # With d(1) = 0, these two conditions characterise graph distance, so
    # they check the DP on long words far beyond the reach of BFS.
    params = BsParams(q)
    model = BsGroupModel(params)
    rng = random.Random(q)
    for _ in range(300):
        w = Word.from_runs((rng.choice("at"), rng.choice((-1, 1)))
                              for _ in range(rng.randint(60, 200)))
        g = bs_eval(w, params)
        d = geodesic_length(g, params)
        near = [geodesic_length(model.apply_gen(g, i), params) for i in range(4)]
        assert all(abs(dn - d) <= 1 for dn in near), (str(w), d, near)
        assert g.is_identity() or d - 1 in near, (str(w), d, near)


def test_length_word_overload():
    w = parse_word("a^16")
    assert geodesic_length(w, BS2) == 8
    assert geodesic_length(bs_eval(w, BS2), BS2) == 8


@settings(max_examples=300)
@given(words_strategy())
def test_length_lower_bounds_words(w):
    el = bs_eval(w, BS2)
    d = geodesic_length(el, BS2)
    assert d <= len(w)
    assert is_geodesic(w, BS2) == (len(w) == d)


def _check_shape(gnf: GeodesicNormalForm, q: int) -> None:
    half = q // 2
    for digit in gnf.digits:
        assert abs(digit) <= half if q > 2 else abs(digit) <= 1
    if isinstance(gnf.core, XBlock):
        assert gnf.core.height >= 1
        if q == 2:
            assert 2 <= abs(gnf.core.top) <= 3
        for digit in gnf.core.digits:
            assert abs(digit) <= (1 if q == 2 else half)
    else:
        if q == 2:
            assert abs(gnf.core) <= 3


@pytest.mark.parametrize("q,radius", [(2, 8), (7, 4)])
def test_normalize_soundness_on_ball(q, radius):
    params = BsParams(q)
    dist, _ = reference.ball(q, radius)
    for ref_el, d in dist.items():
        el = _ref_element(q, ref_el)
        gnf = normalize(el, params)
        w = gnf.render()
        assert bs_eval(w, params) == el
        assert len(w) == d
        _check_shape(gnf, q)


def _form_key(gnf: GeodesicNormalForm) -> tuple:
    """gnf in the key order of reference.digit_forms."""
    if isinstance(gnf.core, XBlock):
        return (gnf.digits, 1, gnf.core.height, gnf.core.top, gnf.core.digits)
    return (gnf.digits, 0)


@pytest.mark.parametrize("q,radius,tied", [(2, 7, 124), (4, 6, 8)])
def test_normalize_takes_least_minimal_form(q, radius, tied):
    # tie-break: below digits (bottom first), plain core before climb,
    # climb height, top digit, climb digits
    params = BsParams(q)
    dist, _ = reference.ball(q, radius)
    seen_ties = 0
    for ref_el, d in dist.items():
        minimal = [key for length, key in reference.digit_forms(q, ref_el, d)
                   if length == d]
        seen_ties += len(minimal) > 1
        assert _form_key(normalize(_ref_element(q, ref_el), params)) == min(minimal), ref_el
    assert seen_ties == tied


def test_normalize_rejects_slack_words():
    # a^6 spells in 5 letters as t a^3 T; the element itself still normalizes
    with pytest.raises(NotGeodesicError):
        normalize(parse_word("a^6"), BS2)
    with pytest.raises(NotGeodesicError):
        normalize(parse_word("t a T a"), BS2)
    gnf = normalize(bs_eval(parse_word("a^6"), BS2), BS2)
    assert len(gnf.render()) == 5
    assert str(gnf.render()) == "ta^3T"


def test_normalize_class4_forms_agree():
    el = bs_eval(parse_word("T^2 a t^3 a T"), BS2)
    assert element_class(el) == 4
    gnf = normalize(el, BS2)
    down = gnf.render(class4_form="down_first")
    core = gnf.render(class4_form="core_first")
    assert bs_eval(down, BS2) == el
    assert bs_eval(core, BS2) == el
    assert len(down) == len(core) == geodesic_length(el, BS2)


HUGE = 10 ** 20


@pytest.mark.parametrize("q", [2, 7])
@pytest.mark.parametrize("text,length", [
    (f"t^{HUGE}", HUGE), (f"T^{HUGE}", HUGE), (f"a t^{HUGE}", HUGE + 1),
    (f"T^{HUGE} a", HUGE + 1), (f"a T^{HUGE}", HUGE + 1)])
def test_length_of_a_huge_t_power(q, text, length):
    # the walk starts at height -dpow and stops at remainder 0, so none of
    # these walks 10^20 levels
    start = time.perf_counter()
    assert geodesic_length(parse_word(text), BsParams(q)) == length
    assert time.perf_counter() - start < 0.5


def test_normalize_pads_the_stopped_walk():
    gnf = normalize(parse_word("t^1000"), BS2)
    assert str(gnf.render()) == "t^1000"
    gnf.validate()
    gnf = normalize(parse_word("T^1000 a t^1002"), BS2)
    assert str(gnf.render()) == "T^1000at^1002"
    assert gnf.digits == (1,) + (0,) * 1001
    gnf.validate()


@st.composite
def walk_elements(draw):
    """(q, el): a reduced element with a translation of up to 2,000 bits of
    either sign, dpow >= 0 and texp of either sign."""
    q = draw(st.sampled_from([2, 3, 4, 7, 8, 13, 64]))
    bits = draw(st.integers(1, 2000))
    num = draw(st.integers(1 << bits - 1, (1 << bits) - 1)) * draw(st.sampled_from([1, 0, -1]))
    dpow = draw(st.integers(0, 80))
    while dpow and num % q == 0:
        num //= q
        dpow -= 1
    return q, BsElement(draw(st.integers(-2100, 2100)), num, dpow)


@settings(max_examples=150, deadline=None)
@given(walk_elements())
def test_walk_matches_the_remainder_walk(q_el):
    # the carry walk against the quadratic remainder walk of reference.py:
    # the same length and the same normal form, tie-breaks included
    q, el = q_el
    params = BsParams(q)
    length, bottom, digits, core = reference.digit_walk(q, *el)
    assert geodesic_length(el, params) == length
    nf = normalize(el, params)
    if isinstance(nf.core, XBlock):
        assert (nf.core.height, nf.core.top, nf.core.digits) == core
    else:
        assert nf.core == core
    assert (nf.length, nf.bottom, nf.digits) == (length, bottom, digits)


def test_long_climb_in_linear_time():
    # a translation of 100,000 binary digits: a quadratic walk takes
    # minutes here
    el = bs_eval(parse_word("a t^100000 A"), BS2)
    assert geodesic_length(el, BS2) == 100002
    nf = normalize(el, BS2)
    assert str(nf.render()) == "at^100000A"
    assert bs_eval(nf.render(), BS2) == el


def test_walk_tables_stay_bounded():
    # the walk keeps no memo per remainder: 10^5 distinct large remainders
    # at the base leave each transition table within a fixed size
    rng = random.Random(7)
    for i in range(100_000):
        q = (2, 3, 7)[i % 3]
        geodesic_length(BsElement(0, rng.getrandbits(64) + (1 << 64), 0), BsParams(q))
    assert not hasattr(bs_geodesics, "_CORE_CACHE")
    for q in (2, 3, 7):
        walk = bs_geodesics._walk(q)
        assert len(walk.keys) <= 200
        assert all(sum(map(len, rows)) <= 1000 for rows in walk.rows)


def test_validate_raises_invariant_error_on_corruption():
    gnf = normalize(bs_eval(parse_word("T^2 a t^3 a T"), BS2), BS2)
    gnf.validate()
    assert gnf.digits
    bad_digit = dataclasses.replace(gnf, digits=(5,) + gnf.digits[1:])
    with pytest.raises(InvariantError, match="out of range"):
        bad_digit.validate()
    bad_bottom = dataclasses.replace(gnf, bottom=gnf.bottom - 1)
    with pytest.raises(InvariantError, match="bottom"):
        bad_bottom.validate()


def test_element_class_table():
    assert element_class(BsElement(0, 5, 0)) == 1
    assert element_class(BsElement(0, 0, 0)) == 1
    assert element_class(BsElement(-2, 3, 1)) == 2
    assert element_class(BsElement(3, 5, 0)) == 3
    assert element_class(BsElement(1, 3, 2)) == 4
    assert element_class(BsElement(-1, 3, 4)) == 4


def test_class_census_b7(ball_bs2_r8):
    census = {1: 0, 2: 0, 3: 0, 4: 0}
    for i, key in enumerate(ball_bs2_r8.keys):
        if ball_bs2_r8.depth(i) <= 7:
            census[element_class(ball_bs2_r8.model.element_from_key(key))] += 1
    assert census == {1: 23, 2: 273, 3: 273, 4: 142}


# -- tilde -----------------------------------------------------------------

def test_tilde_examples():
    w = parse_word("t a^3 T a")
    assert classify(w) is WordClass.X
    assert str(tilde(w, BS2)) == "a^7"
    xn = parse_word("t a^2 T^2 a")
    out = tilde(xn, BS2)
    assert classify(out) in (WordClass.N, WordClass.E)
    assert bs_eval(out, BS2) == bs_eval(xn, BS2)


@settings(max_examples=300)
@given(words_strategy())
def test_tilde_preserves_element(w):
    cls = classify(w)
    if cls is WordClass.OTHER:
        with pytest.raises(ValueError):
            tilde(w, BS2)
        return
    out = tilde(w, BS2)
    assert bs_eval(out, BS2) == bs_eval(w, BS2)
    if cls in (WordClass.E, WordClass.N, WordClass.P, WordClass.NP):
        assert out == w


# -- pinch criterion ---------------------------------------------------------

def test_has_pinch_examples():
    assert has_pinch(parse_word("T a^2 t"), BS2)
    assert has_pinch(parse_word("T t"), BS2)  # empty run counts
    assert has_pinch(parse_word("a T a^4 t a"), BS2)
    assert not has_pinch(parse_word("T a t"), BS2)
    assert not has_pinch(parse_word("t a^2 T"), BS2)
    assert not has_pinch(parse_word("T a^2 T a t"), BS2)  # run resets at T


def test_has_pinch_respects_q():
    assert not has_pinch(parse_word("T a^2 t"), BsParams(7))
    assert has_pinch(parse_word("T a^7 t"), BsParams(7))


@settings(max_examples=500)
@given(words_strategy(max_size=10))
def test_pinched_words_are_not_geodesic(w):
    if has_pinch(w, BS2):
        assert not is_geodesic(w, BS2)
