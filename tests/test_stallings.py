"""Stallings' group: canonical forms, the subgroup H, and length lemmas."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference
from convexlab.stallings import (
    RELATORS,
    S_IDENTITY,
    StallingsElement,
    StallingsModel,
    gamma_length_special,
    in_H,
    st_eval,
    verify_stallings_witness,
)
from convexlab.words import STALLINGS_ALPHABET, Word, exp_sum, parse_word

GENS = "aAbBcCdDsS"


def words_strategy(max_size=12):
    return st.lists(st.sampled_from(GENS), max_size=max_size).map(
        lambda cs: Word.from_runs(
            (c.lower(), -1 if c.isupper() else 1) for c in cs))


def _word(text: str) -> Word:
    return parse_word(text, STALLINGS_ALPHABET)


def _spell(w: Word) -> str:
    return "".join(g if s > 0 else g.upper() for g, s in w.letters())


# -- presentation ------------------------------------------------------------

def test_relators_evaluate_to_identity():
    for rel in RELATORS:
        assert st_eval(rel).is_identity(), rel


def test_relators_have_even_length():
    assert sorted(len(r) for r in RELATORS) == [4, 4, 4, 4, 6, 6, 6]


def test_commuting_pairs():
    assert st_eval("ac") == st_eval("ca")
    assert st_eval("bd") == st_eval("db")
    # s centralizes the zero-sum pair a^-1 b
    assert st_eval("sAbS") == st_eval("Ab")
    assert st_eval("sAdS") == st_eval("Ad")


def test_canonical_form_examples():
    el = st_eval("sAbS")
    assert el.quo == ""
    assert el == st_eval("Ab")
    assert st_eval("acAC").is_identity()
    el = st_eval("saS")
    assert el.quo == "saS"
    assert el.u == "" and el.v == ""


@settings(max_examples=300)
@given(words_strategy(max_size=16))
def test_eval_matches_closed_form(w):
    el = st_eval(w)
    assert (el.quo, el.u, el.v) == reference.stallings_form(_spell(w))


def test_ball_keys_match_closed_form(ball_st_r5):
    for key in ball_st_r5.keys:
        word = "".join(ball_st_r5.geodesic_word(key))
        assert key.decode("ascii") == "|".join(reference.stallings_form(word))


def test_element_from_key_inverts_key(ball_st_r4):
    model = StallingsModel()
    assert model.element_from_key(b"saS|Ab|cD") == StallingsElement("saS", "Ab", "cD")
    assert model.element_from_key(b"||") == S_IDENTITY
    for key in ball_st_r4.keys:
        assert model.key(model.element_from_key(key)) == key


@settings(max_examples=300)
@given(words_strategy(max_size=16))
def test_apply_gen_matches_closed_form(w):
    model = StallingsModel()
    el = st_eval(w)
    for i, letter in enumerate(model.generator_names()):
        assert model.apply_gen(el, i) == reference.stallings_form(_spell(w) + letter)


# -- group laws --------------------------------------------------------------

@settings(max_examples=200)
@given(words_strategy())
def test_inverse(w):
    # the letter rule undoes itself: g times a letter, then its inverse, is g
    model, g = StallingsModel(), st_eval(w)
    for i, name in enumerate(GENS):
        assert model.apply_gen(model.apply_gen(g, i), i ^ 1) == g, name


# -- the subgroup H ----------------------------------------------------------

def test_in_h_examples():
    assert in_H(st_eval("Ad"))
    assert in_H(st_eval("Ab"))
    assert not in_H(st_eval("a"))
    assert not in_H(st_eval("s"))
    assert in_H(S_IDENTITY)


@settings(max_examples=300)
@given(words_strategy())
def test_h_membership_forces_zero_exp_sum(w):
    if in_H(st_eval(w)):
        assert exp_sum(w) == 0


def test_h_normality():
    rng = random.Random(9)
    letters = "abcd" + "ABCD"
    for _ in range(200):
        chars = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        v = Word.from_runs(
            (c.lower(), -1 if c.isupper() else 1) for c in chars)
        h_word = v * parse_word(f"A^{exp_sum(v)}" if exp_sum(v) > 0
                                else f"a^{-exp_sum(v)}",
                                STALLINGS_ALPHABET)
        assert in_H(st_eval(h_word))
        for x in GENS:
            conj = _word(x) * h_word * _word(x).inverse()
            assert in_H(st_eval(conj)), (str(h_word), x)


# -- length lemmas -----------------------------------------------------------

def test_lambda_length_examples():
    # elements of K = F(a,b) x F(c,d): the lambda length, the sum of the
    # two free lengths
    assert gamma_length_special(st_eval("abc")) == 3
    assert gamma_length_special(S_IDENTITY) == 0
    assert gamma_length_special(st_eval("B^2a^2")) == 4
    assert gamma_length_special(st_eval("aA")) == 0
    # an s letter is outside K and is counted on top of the lambda length
    assert gamma_length_special(st_eval("s")) == 1 + gamma_length_special(S_IDENTITY)


def test_gamma_length_special_examples():
    assert gamma_length_special(st_eval("abcd")) == 4
    # one s at an end of the quotient word
    assert gamma_length_special(st_eval("sB^2a")) == 4
    assert gamma_length_special(st_eval("s")) == 1
    assert gamma_length_special(st_eval("a^3S")) == 4
    assert gamma_length_special(st_eval("sBa")) == gamma_length_special(st_eval("Bas")) == 3
    for text in ("sasa", "sas", "asa", "s^2"):
        assert gamma_length_special(st_eval(text)) is None, text


def test_gamma_length_matches_ball(ball_st_r4):
    model = ball_st_r4.model
    for i, key in enumerate(ball_st_r4.keys):
        d = ball_st_r4.depth(i)
        g = model.element_from_key(key)
        length = gamma_length_special(g)
        if length is not None:
            assert length == d, key


def test_geodesics_have_no_pinch(ball_st_r4):
    # no BFS geodesic contains s^e u s^-e with the inner segment in H
    for key in ball_st_r4.keys:
        letters = ball_st_r4.geodesic_word(key)
        s_spots = [i for i, name in enumerate(letters) if name in "sS"]
        for left, right in zip(s_spots, s_spots[1:]):
            if letters[left] == letters[right]:
                continue
            inner = "".join(letters[left + 1:right])
            assert not in_H(st_eval(inner)), letters


def test_parity_matches_distance(ball_st_r4):
    rng = random.Random(13)
    model = ball_st_r4.model
    for _ in range(500):
        chars = [rng.choice(GENS) for _ in range(rng.randint(0, 6))]
        w = Word.from_runs(
            (c.lower(), -1 if c.isupper() else 1) for c in chars)
        d = ball_st_r4.distance(model.key(st_eval(w)))
        if d is not None:
            assert d % 2 == len(w) % 2, str(w)


# -- theorem witness ----------------------------------------------------------

def test_stallings_witness_n1():
    report = verify_stallings_witness(1)
    assert report["ok"], report
    assert report["R"] == 4
    assert report["bridge"] == 8
    assert report["w"] == "B^2a^2"
    assert report["u"] == "sB^2a"
    assert report["geodesic_detail"] == {"w": True, "u": True}
    assert report["checks"] == {"geodesic": True, "distance": True, "bridge_is_2R": True}
    with pytest.raises(ValueError):
        verify_stallings_witness(0)
