"""Exact affine arithmetic for BS(1,q): group laws, keys, classes."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from convexlab.bs_arith import (
    IDENTITY,
    MAX_LEVELS,
    BsElement,
    BsGroupModel,
    BsParams,
    bs_eval,
    bs_inv,
    bs_key,
    bs_mul,
)
from convexlab.words import Word, parse_word

QS = st.sampled_from([2, 3, 7, 10])


def words_strategy(max_size=10):
    return st.lists(st.sampled_from("aAtT"), max_size=max_size).map(
        lambda cs: Word.from_runs(
            (c.lower(), -1 if c.isupper() else 1) for c in cs))


def test_identity_is_trivial():
    assert IDENTITY == BsElement(0, 0, 0)
    assert bs_eval(Word(), BsParams(2)) == IDENTITY


def test_eval_refuses_a_translation_past_the_level_bound():
    params = BsParams(2)
    start = time.perf_counter()
    for text in (f"t^{10 ** 20} a", f"a T^{MAX_LEVELS + 1} a", f"T^{MAX_LEVELS + 1} a t^{MAX_LEVELS + 1} a"):
        with pytest.raises(ValueError, match="more than 1000000 base-q levels"):
            bs_eval(parse_word(text), params)
    assert time.perf_counter() - start < 0.5
    # at the bound itself, and a lone letter far below is only a shift
    assert bs_eval(parse_word(f"a t^{MAX_LEVELS} A"), params) == BsElement(
        MAX_LEVELS, 1 - 2 ** MAX_LEVELS, 0)
    assert bs_eval(parse_word(f"T^{10 ** 20} a"), params) == BsElement(-10 ** 20, 1, 10 ** 20)


def test_defining_relation():
    for q in (2, 3, 7, 11):
        params = BsParams(q)
        lhs = bs_eval(parse_word("t a T"), params)
        rhs = bs_eval(parse_word("a^%d" % q), params)
        assert lhs == rhs


@settings(max_examples=200)
@given(QS, words_strategy(), words_strategy())
def test_eval_is_homomorphism(q, v, w):
    params = BsParams(q)
    assert bs_eval(v * w, params) == bs_mul(
        bs_eval(v, params), bs_eval(w, params), params)


@settings(max_examples=200)
@given(QS, words_strategy())
def test_inverse(q, w):
    params = BsParams(q)
    el = bs_eval(w, params)
    assert bs_mul(el, bs_inv(el, params), params) == IDENTITY
    assert bs_mul(bs_inv(el, params), el, params) == IDENTITY
    assert bs_eval(w.inverse(), params) == bs_inv(el, params)


@settings(max_examples=200)
@given(QS, words_strategy(), words_strategy(), words_strategy())
def test_associativity(q, u, v, w):
    params = BsParams(q)
    a, b, c = (bs_eval(x, params) for x in (u, v, w))
    assert bs_mul(bs_mul(a, b, params), c, params) == bs_mul(
        a, bs_mul(b, c, params), params)


def test_element_form_is_reduced():
    # num stays coprime to q whenever dpow > 0
    params = BsParams(2)
    el = bs_eval(parse_word("T a^4 t"), params)
    assert el == BsElement(0, 2, 0)
    el = bs_eval(parse_word("T a t"), params)
    assert el.dpow == 1 and el.num == 1


@settings(max_examples=200)
@given(QS, words_strategy())
def test_key_round_trip(q, w):
    params = BsParams(q)
    model = BsGroupModel(params)
    el = bs_eval(w, params)
    key = bs_key(el)
    assert model.key(el) == key
    assert model.element_from_key(key) == el


def test_key_separates_small_ball(ball_bs2_r8):
    # bijective on B(8): 1317 distinct elements, 1317 distinct keys
    assert len(set(ball_bs2_r8.keys)) == len(ball_bs2_r8) == 1317


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 7, 64]), words_strategy(max_size=16), st.integers(0, 3))
def test_apply_gen_is_the_product(q, w, i):
    params = BsParams(q)
    model = BsGroupModel(params)
    el = bs_eval(w, params)
    name = model.generator_names()[i]
    assert model.apply_gen(el, i) == bs_mul(el, bs_eval(parse_word(name), params), params)


@pytest.mark.parametrize("q, el", [
    (3, BsElement(1, 4, 0)),      # e = texp + dpow > 0 with dpow = 0
    (2, BsElement(1, 2, 0)),      # e > 0: A brings num to 0
    (3, BsElement(2, 1, 1)),      # e > 0 with dpow > 0
    (2, BsElement(-3, 1, 1)),     # e < 0
    (7, BsElement(-2, 0, 0)),     # e < 0 at the identity's translation
    (2, BsElement(-1, 1, 1)),     # e = 0: 1/2 + 1/2 = 1 reduces
    (2, BsElement(-1, -1, 1)),    # e = 0: -1/2 - 1/2 = -1 reduces
    (7, BsElement(-2, 6, 2)),     # e = 0: (6 + 1) / 49 = 1/7 reduces
    (3, BsElement(0, 1, 0)),      # e = 0 with dpow = 0
])
def test_apply_gen_branches(q, el):
    params = BsParams(q)
    model = BsGroupModel(params)
    for i, name in enumerate(model.generator_names()):
        assert model.apply_gen(el, i) == bs_mul(el, bs_eval(parse_word(name), params), params)


def test_key_bytes_of_a_wide_number():
    el = BsElement(-3, -(2 ** 70) - 1, 5)
    assert bs_key(el) == b"-3:-1180591620717411303425:5"
    assert BsGroupModel(BsParams(2)).element_from_key(bs_key(el)) == el


@pytest.mark.parametrize("key", [
    b"0:01:0", b"+1:1:0", b" 0:1:0", b"0:1_0:0", b"-0:1:0",  # padded numbers
    b"0:2:1", b"0:0:1", b"-2:6:1", b"0:1:-1",                # not reduced for q = 2
    b"0:1", b"0:1:0:0", b"0:a:0", b"",                       # not a triple
])
def test_element_from_key_refuses_other_bytes(key):
    with pytest.raises(ValueError):
        BsGroupModel(BsParams(2)).element_from_key(key)


def test_model_generators_match_words():
    params = BsParams(3)
    model = BsGroupModel(params)
    el = IDENTITY
    for i, name in enumerate(model.generator_names()):
        stepped = model.apply_gen(el, i)
        gen_word = parse_word(name)
        assert stepped == bs_eval(gen_word, params)


def test_params_validation():
    with pytest.raises(ValueError):
        BsParams(1)
    with pytest.raises(ValueError):
        BsParams(0)
