"""Word parsing, reduction, counting, and shape classification."""

import pytest
from hypothesis import given, strategies as st

import reference
from convexlab.words import (
    BS_ALPHABET,
    STALLINGS_ALPHABET,
    Word,
    WordClass,
    WordError,
    classify,
    exp_sum,
    free_reduce,
    gen_power,
    parse_word,
    sigma_t,
)


def letters_strategy(max_size=12):
    return st.lists(st.sampled_from("aAtT"), max_size=max_size)


def word_from(chars) -> Word:
    return Word.from_runs(
        (c.lower(), -1 if c.isupper() else 1) for c in chars)


# -- parsing ---------------------------------------------------------------

def test_parse_examples():
    assert str(parse_word("t a^-3 t^2")) == "tA^3t^2"
    assert len(parse_word("a^16")) == 16
    assert parse_word("") == Word()
    assert parse_word("T^2") == gen_power("t", -2)


def test_parse_keeps_unreduced_letters():
    w = parse_word("a A a")
    assert len(w) == 3
    assert len(free_reduce(w)) == 1


@pytest.mark.parametrize("bad", ["x", "a^", "t^-", "A^-2", "a2"])
def test_parse_rejects(bad):
    with pytest.raises(WordError):
        parse_word(bad)


# word text: letters in and out of the alphabet, ^k powers of either sign,
# whitespace, and the stray characters that make malformed input
_POWERS = st.builds("^{}{}".format, st.sampled_from(["", "-"]),
                    st.sampled_from(["", "0", "1", "2", "07", "13"]))
_TOKENS = st.one_of(st.sampled_from("aaAAttTTbsx"), _POWERS,
                    st.sampled_from([" ", "\t", "\n", "^", "-", "3", "?"]))


@given(st.lists(_TOKENS, max_size=24).map("".join),
       st.sampled_from([BS_ALPHABET, STALLINGS_ALPHABET]))
def test_parse_matches_letter_reference(text, alphabet):
    try:
        want = reference.parse_letters(text, alphabet.letters)
    except ValueError as exc:
        with pytest.raises(WordError) as info:
            parse_word(text, alphabet)
        assert str(info.value) == str(exc)
    else:
        assert parse_word(text, alphabet) == Word.from_runs(want)


@pytest.mark.parametrize("text,runs", [
    ("aaa^3", (("a", 5),)),
    ("aa^-3 A", (("a", 1), ("a", -4))),
    ("TT^2t^0t", (("t", -3), ("t", 1))),
    ("a^2 a", (("a", 3),)),
])
def test_parse_power_on_last_letter_of_run(text, runs):
    assert parse_word(text).runs == runs


@given(letters_strategy())
def test_parse_str_round_trip(chars):
    w = word_from(chars)
    assert parse_word(str(w)) == w


# -- reduction and counting ------------------------------------------------

@given(letters_strategy())
def test_free_reduce_idempotent(chars):
    w = word_from(chars)
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)


@given(letters_strategy())
def test_inverse_involution(chars):
    w = word_from(chars)
    assert w.inverse().inverse() == w
    assert free_reduce(w * w.inverse()) == Word()


@given(letters_strategy(), letters_strategy())
def test_counts_additive(c1, c2):
    v, w = word_from(c1), word_from(c2)
    assert sigma_t(v * w) == sigma_t(v) + sigma_t(w)
    assert exp_sum(v * w) == exp_sum(v) + exp_sum(w)
    assert exp_sum(v * w, "a") == exp_sum(v, "a") + exp_sum(w, "a")


def test_sigma_counts_only_t():
    assert sigma_t(parse_word("a^5 t^2 A T^3")) == -1
    assert exp_sum(parse_word("a^5 t^2 A T^3"), "a") == 4


def test_prefix_suffix():
    w = parse_word("a t^2 A^3")
    assert str(w.prefix(3)) == "at^2"
    assert str(w.suffix(3)) == "A^3"
    assert w.prefix(0) == Word()
    assert w.prefix(2) * w.suffix(4) == w
    assert w.prefix(1) * Word() * parse_word("t") * w.suffix(4) == parse_word("a t^2 A^3")


# -- classification --------------------------------------------------------

CLASS_EXAMPLES = [
    ("", WordClass.E),
    ("a^3", WordClass.E),
    ("t a t", WordClass.P),
    ("a T a T a", WordClass.N),
    ("t a^3 T", WordClass.X),
    ("t a^3 T a^2", WordClass.X),
    ("T a t a t", WordClass.NP),
    ("t a T^2 a", WordClass.XN),
    ("a t^2 a^2 T", WordClass.PX),
    ("T^2 a t a t^2 a^3 T", WordClass.NPX),
    ("t a T a T a t", WordClass.XNP),
    ("t a T^2 a t^3", WordClass.OTHER),
]


@pytest.mark.parametrize("text,cls", CLASS_EXAMPLES)
def test_classify_examples(text, cls):
    assert classify(parse_word(text)) is cls


def test_classify_sigma_constraints():
    # XN carries sigma_t <= 0 and XNP sigma_t <= 0; their mirrors flip.
    assert classify(parse_word("t a T^3 a t")) is WordClass.XNP
    assert classify(parse_word("t a T^2 a t^3")) is WordClass.OTHER
    assert classify(parse_word("a t^2 a T^3 a")) is WordClass.XN
    assert classify(parse_word("T^3 a t a^2 T")) is WordClass.OTHER


@given(letters_strategy())
def test_classify_total_on_free_words(chars):
    classify(word_from(chars))


@given(letters_strategy())
def test_classify_mirror(chars):
    # inverting a word mirrors its class
    mirror = {
        WordClass.P: WordClass.N, WordClass.N: WordClass.P,
        WordClass.NP: WordClass.NP, WordClass.E: WordClass.E,
        WordClass.X: WordClass.X, WordClass.XN: WordClass.PX,
        WordClass.PX: WordClass.XN, WordClass.NPX: WordClass.XNP,
        WordClass.XNP: WordClass.NPX, WordClass.OTHER: WordClass.OTHER,
    }
    w = word_from(chars)
    assert classify(w.inverse()) is mirror[classify(w)]
