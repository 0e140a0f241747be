"""Bridging-path constructions between same-length geodesics in BS(1,2).

Two length-r geodesics w and u whose endpoints are joined by a word gamma
of length at most 2 fall into cases indexed by the element classes of the
endpoints and the shape of gamma.  Each constructive case assembles a
detour delta from w-bar to u-bar; verify_case then checks every claim with
exact integer arithmetic: both words are geodesics, the endpoints really
are gamma apart, delta evaluates to gamma, l(delta) <= 2r - 2, and every
prefix of delta stays inside the ball B(r).  No breadth-first search is
involved, so parameters in the thousands are cheap.

The builders share three helpers.  _CaseParams.draw states each int or
string parameter's values once: it draws the parameter from them, or
refuses a pin outside them before any sampling.  _sample retries a
builder's random attempt (free digits, core and fillers drawn in a fixed
order; fillers are never pinned) until one yields a witness.
_same_sphere is the one partner step: the other endpoint must lie in the
wanted class at the drawn word's length, and one normalize call both
prices it and gives the normal form that spells it.  _partner applies it to u = w gamma for a geodesic w.

Class combinations that admit no valid pair get exhaustive searchers over
a small ball instead of builders (impossibility_search).

Also here: the a^m reachability jump (verify_boundingm) and the table of
bridge witnesses (BRIDGE_WITNESSES: notpac, bs1q and Stallings' group),
each a pair on a sphere at distance 2 whose bridge inside the ball is long,
all checked by one verifier (verify_bridge), which runs one search: for
the bridge that avoids the identity.  No row builds a ball: in BS(1,q)
the digit DP gives distances and an A* search over it (in_ball_bridge)
that bridge, and in Stallings' group gamma_length_special and an edge cut
of the Bass-Serre tree (edge_cut) stand in for both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .ball_engine import BallIndex, build_ball
from .bs_arith import BsElement, BsGroupModel, BsParams, bs_eval, bs_key, bs_mul
from .bs_geodesics import (GeodesicNormalForm, XBlock, ascent_word, descent_word,
                           element_class, geodesic_length, in_ball_bridge, is_geodesic,
                           normalize)
from .errors import InvariantError
from .stallings import StallingsModel, edge_cut, gamma_length_special
from .words import Word, WordClass, classify, gen_power, sigma_t

BS2 = BsParams(2)
_BS2_MODEL = BsGroupModel(BS2)
# (generator, sign) -> index of the letter in _BS2_MODEL.GEN_NAMES
_GEN_INDEX = {("a", 1): 0, ("a", -1): 1, ("t", 1): 2, ("t", -1): 3}

IMPOSSIBLE_CASES = ("1", "2", "3", "7.1", "10.3.2")

_TRIES = 400


class ConstructionError(ValueError):
    """A case precondition failed; the message names the violated condition."""


@dataclass(frozen=True)
class CaseWitness:
    """One constructed instance: the pair (w, u), the connector gamma and
    the detour delta, plus the parameter assignment that produced it."""

    case: str
    params: dict
    w: Word
    u: Word
    gamma: Word
    delta: Word

    def __post_init__(self) -> None:
        if len(self.u) != len(self.w):
            raise ConstructionError(
                f"case {self.case}: l(w)={len(self.w)}, l(u)={len(self.u)}")

    @property
    def r(self) -> int:
        """The sphere radius of the pair: l(w) = l(u)."""
        return len(self.w)


# ---------------------------------------------------------------------------
# word-assembly helpers


def _ap(n: int) -> Word:
    return gen_power("a", n)


def _tp(n: int) -> Word:
    return gen_power("t", n)


def _flip_a(w: Word) -> Word:
    """The image of w under the automorphism a -> a^-1, t -> t."""
    return Word.from_runs((g, -e if g == "a" else e) for g, e in w.runs)


def _gel(w: Word) -> BsElement:
    return bs_eval(w, BS2)


def _geodesic_el(w: Word) -> Optional[BsElement]:
    """The element of w if w is geodesic, else None."""
    el = _gel(w)
    return el if geodesic_length(el, BS2) == len(w) else None


def _naf_digits(rng: random.Random, n: int) -> list:
    """Digit string in {-1,0,1}^n with no two adjacent nonzeros."""
    out: list = []
    prev = 0
    for _ in range(n):
        d = 0
        if prev == 0 and rng.random() < 0.45:
            d = rng.choice((-1, 1))
        out.append(d)
        prev = d
    return out


def _ascent_with(digits: list) -> Word:
    """digit, t, digit, t, ..., digit; sigma_t = len(digits) - 1."""
    return ascent_word(0, digits[:-1], _ap(digits[-1]))


def random_filler(rng: random.Random, sigma: int) -> Word:
    """Random geodesic ascent word with sigma_t = sigma (class P, or E when
    sigma = 0).  Sparse digits keep it geodesic; checked anyway."""
    if sigma < 0:
        raise ConstructionError(f"filler needs sigma >= 0, got {sigma}")
    w = _ascent_with(_naf_digits(rng, sigma + 1))
    if not is_geodesic(w, BS2):
        raise InvariantError(f"sparse-digit filler {w} is not geodesic")
    return w


def _random_xblock(rng: random.Random, height: int) -> XBlock:
    digits = _naf_digits(rng, height)
    return XBlock(height, rng.choice((-3, -2, 2, 3)), tuple(digits))


def _sample_core_word(rng: random.Random) -> Word:
    """A w0-style top piece: empty, a plain a-power, or a small X-block."""
    roll = rng.random()
    if roll < 0.3:
        return Word()
    if roll < 0.7:
        return _ap(rng.choice((-3, -2, -1, 1, 2, 3)))
    return _random_xblock(rng, rng.randint(1, 3)).render()


def _end_run(w: Word, gen: str, end: int = 0) -> int:
    """Signed exponent of w's first run (its last for end = -1) if that run
    is a gen-run, else 0."""
    return w.runs[end][1] if w.runs and w.runs[end][0] == gen else 0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


def _values_text(name: str, values: tuple) -> str:
    """How an error names the values of a drawn parameter: |k| bounds for a
    sign-symmetric run of ints, else the values themselves."""
    if isinstance(values[0], int):
        mags = {abs(v) for v in values}
        lo, hi = min(mags), max(mags)
        if set(values) == {s * m for m in range(lo, hi + 1) for s in (1, -1)}:
            if lo == 0:
                return f"|{name}| <= {hi}"
            return f"|{name}| = {lo}" if lo == hi else f"{lo} <= |{name}| <= {hi}"
    return f"{name} in {{{', '.join(map(str, dict.fromkeys(values)))}}}"


class _CaseParams(dict):
    """The parameters pinned for one build of a case.  It records which keys
    the builder looked at, so a misspelled parameter fails loudly instead of
    sampling a random instance, and it draws every int or string parameter
    through draw, which refuses a pin outside the parameter's values."""

    def __init__(self, case: str, rng: random.Random, pins: dict):
        super().__init__(pins)
        self.case = case
        self.rng = rng
        self.seen: set = set()

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)

    def draw(self, name: str, values, lo: Optional[int] = None):
        """The pinned value of `name`, else a draw from `values`: a tuple, or
        a range for a count.  The draw is made whether or not `name` is
        pinned, so a pin never shifts the draws after it; a tuple of one
        value is not drawn.  A count may be pinned to any int >= lo (the
        range's start by default), anything else only to one of `values`.
        A string pin of an int parameter is read as an int."""
        drawn = self.rng.choice(values) if len(values) > 1 else values[0]
        self.seen.add(name)
        if name not in self:
            return drawn
        pin = self[name]
        if isinstance(pin, str) and isinstance(drawn, int):
            try:
                pin = int(pin)
            except ValueError:
                pass
        if isinstance(values, range):
            lo = values.start if lo is None else lo
            ok, need = type(pin) is int and pin >= lo, f"{name} >= {lo}"
        else:
            ok, need = type(pin) is type(drawn) and pin in values, _values_text(name, values)
        if not ok:
            raise ConstructionError(f"case {self.case} needs {need}, got {pin!r}")
        return pin


# ---------------------------------------------------------------------------
# case builders
#
# Every builder draws its int and string parameters through o.draw, which
# states each parameter's values once: the pin is refused at once when it
# lies outside them, and unpinned parameters are drawn from them.  The
# builder then hands _sample an attempt: one random draw of the free digits
# and fillers that returns a CaseWitness, or None when the draw misses.
# _sample retries up to _TRIES times.  An attempt that derives the other
# endpoint from the drawn word finds it only through _same_sphere, mostly
# by way of _partner; 8.2, 9.2 and 10.3.3 call it on their own products.
# The few _require checks tie two parameters together.


def _sample(case: str, attempt: Callable[[], Optional[CaseWitness]],
            what: str = "equal-length") -> CaseWitness:
    for _ in range(_TRIES):
        cw = attempt()
        if cw is not None:
            return cw
    raise ConstructionError(f"case {case}: sampling found no {what} instance")


def _same_sphere(u_el: BsElement, r: int,
                 cls: Optional[int] = None) -> Optional[GeodesicNormalForm]:
    """The normal form of u_el when it lies in class cls (any class for
    None) at distance r; None otherwise.  One DP run prices and spells it."""
    if cls is not None and element_class(u_el) != cls:
        return None
    nf = normalize(u_el, BS2)
    return nf if nf.length == r else None


def _partner(w: Word, gamma: Word, cls: Optional[int], w_cls: Optional[int] = None,
             class4_form: Optional[str] = None) -> Optional[Word]:
    """The PN rendering of w gamma, provided w is geodesic (of class w_cls
    when given) and w gamma lies in class cls (any class for None) at
    distance l(w); None otherwise."""
    w_el = _geodesic_el(w)
    if w_el is None or (w_cls is not None and element_class(w_el) != w_cls):
        return None
    nf = _same_sphere(bs_mul(w_el, _gel(gamma), BS2), len(w), cls)
    return None if nf is None else nf.render(class4_form=class4_form)


def _build_4(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # both endpoints are a-powers: w is an X-block word t^h w1, u = t^i u1.
    h = o.draw("h", range(2, 13))  # X-height
    g = o.draw("g", (-2, -1, 1, 2))  # gamma = a^g
    gamma = _ap(g)

    def attempt():
        digits = _naf_digits(rng, h)
        if abs(g) == 2:
            digits[0] = -g // 2  # a^(2s): digit -s flips to +s, weight kept
        else:
            digits[0] = g  # a^g: 2g carries, digit g moves one level up
            digits[1] = 0
        w = XBlock(h, rng.choice((-3, -2, 2, 3)), tuple(digits)).render()
        u = _partner(w, gamma, 1)
        if u is None or _end_run(u, "t") < 1:
            return None
        iu = _end_run(u, "t")
        delta = (w.suffix(len(w) - h).inverse() * _tp(-(h - 1)) * _tp(iu - 1)
                 * u.suffix(len(u) - iu))
        return CaseWitness("4", {"h": h, "i": iu, "g": g}, w, u, gamma, delta)
    return _sample("4", attempt)


def _build_5(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # w an a-power, u class 2 with an X-head; same detour assembly as case 4.
    h = o.draw("h", range(2, 13), lo=1)  # X-height
    g = o.draw("g", (-1, 1))  # gamma = a^g t^-1
    gamma = _ap(g) * _tp(-1)

    def attempt():
        digits = _naf_digits(rng, h)
        digits[0] = -g  # a^g zeroes the bottom digit, paying for the extra t^-1
        w = XBlock(h, rng.choice((-3, -2, 2, 3)), tuple(digits)).render()
        u = _partner(w, gamma, 2)
        if u is None or _end_run(u, "t") < 1 or classify(u) is not WordClass.XN:
            return None
        iu = _end_run(u, "t")
        delta = (w.suffix(len(w) - h).inverse() * _tp(-(h - 1)) * _tp(iu - 1)
                 * u.suffix(len(u) - iu))
        params = {"h": h, "i": iu, "g": g, "delegates_to": "4"}
        return CaseWitness("5", params, w, u, gamma, delta)
    return _sample("5", attempt)


# Same-mode combinations (i, sigma, g, gamma_kind) of case 6 that have no
# instance: no digit string in {-1, 0, 1}^sigma with digits[0] = i yields a
# pair.  Enumerating every string for sigma <= 7 finds exactly these; the
# tests repeat the enumeration for sigma <= 4.  The default draw avoids them.
_CASE6_SAME_EMPTY = frozenset({
    (-1, 1, -1, "a2"), (-1, 1, -1, "at"), (-1, 1, 1, "a2"),
    (1, 1, -1, "a2"), (1, 1, 1, "a2"), (1, 1, 1, "at"),
    (1, 2, -1, "a2"),
})


def _case6_same_instance(digits: list, g: int, kind: str) -> Optional[CaseWitness]:
    """The same-mode case 6 witness whose w climbs through the given digits
    (digits[0] = i) to the core -g, or None when that w yields none."""
    i = digits[0]
    gamma = _ap(2 * g) if kind == "a2" else _ap(g) * _tp(1)
    # core -g: gamma = a^(2g) flips it to +g, gamma = a^g t melts it
    w = _ascent_with(digits + [-g])
    u = _partner(w, gamma, 3)
    if u is None or _end_run(u, "a") != i:
        return None
    wr = w.suffix(len(w) - 1 - abs(i))
    ur = u.suffix(len(u) - 1 - abs(i))
    params = {"mode": "same", "i": i, "j": i, "g": g, "gamma_kind": kind}
    return CaseWitness("6", params, w, u, gamma, wr.inverse() * ur)


def _build_6(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # both words climb: w = a^i t w1 w0, u = a^j t u1 u0 with i = j or i = -j.
    mode = o.draw("mode", ("same", "same", "opposite"))
    if mode == "same":
        # redraw whatever is not pinned until the combination has instances;
        # a combination pinned whole has nothing to redraw
        pinned = {"i", "sigma", "g", "gamma_kind"} <= o.keys()
        for _ in range(_TRIES):
            i = o.draw("i", (-1, 0, 1))
            sig = o.draw("sigma", range(2, 11), lo=1)  # sigma_t(w)
            g = o.draw("g", (-1, 1))
            kind = o.draw("gamma_kind", ("a2", "at"))
            if pinned or (i, sig, g, kind) not in _CASE6_SAME_EMPTY:
                break
        if (i, sig, g, kind) in _CASE6_SAME_EMPTY:
            raise ConstructionError(
                f"case 6 has no instance with i={i}, sigma={sig}, g={g}, gamma_kind={kind}")

        def same():
            digits = _naf_digits(rng, sig)
            digits[0] = i
            return _case6_same_instance(digits, g, kind)
        return _sample("6", same)
    # opposite: only sigma_t = 1 pairs exist; the block below level 1 is shared
    g = o.draw("g", (-1, 1))
    i, j = -g, g
    h = o.draw("h", range(1, 11))  # X-height
    gamma = _ap(g)

    def opposite():
        digits = _naf_digits(rng, h)
        digits[0] = 0  # keep the block value even so a^g only flips the unit digit
        block = XBlock(h, rng.choice((-3, -2, 2, 3)), tuple(digits)).render()
        w = _ap(i) * _tp(1) * block
        u = _ap(j) * _tp(1) * block
        w_el, u_el = _geodesic_el(w), _geodesic_el(u)
        if w_el is None or u_el is None or bs_mul(w_el, _gel(gamma), BS2) != u_el:
            return None
        delta = w.suffix(len(w) - 2).inverse() * _ap(-i) * u.suffix(len(u) - 2)
        params = {"mode": "opposite", "i": i, "j": j, "g": g, "h": h}
        return CaseWitness("6", params, w, u, gamma, delta)
    return _sample("6", opposite)


def _build_72(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # both class 2, w ends t^-1, gamma = t a^k; delta is gamma itself.
    e = o.draw("e", range(3, 13), lo=2)  # descent depth
    k = o.draw("k", (-1, 1))  # gamma = t a^k
    gamma = _tp(1) * _ap(k)

    def attempt():
        digits = _naf_digits(rng, e)
        digits[e - 1] = 0  # bottom letter is t^-1
        digits[e - 2] = 0  # the new digit k lands here at equal weight
        w = descent_word(_sample_core_word(rng), digits)
        u = _partner(w, gamma, 2, w_cls=2)
        if u is None:
            return None
        params = {"e": e, "k": k, "i": 0, "delta_is": "gamma"}
        return CaseWitness("7.2", params, w, u, gamma, gamma)
    return _sample("7.2", attempt)


def _build_73(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # both class 2, gamma a single letter a^(+-1); a four-letter detour.
    mode = o.draw("mode", ("i0", "i1"))
    e = o.draw("e", range(3, 13), lo=2)  # descent depth
    # the endpoint whose descent ends in a^bottom is drawn; its partner, one
    # letter a^bottom further, must end in t^-1
    if mode == "i0":
        j = o.draw("j", (-1, 1))
        gamma, bottom = _ap(-j), j  # u is drawn, w = u a^j
        delta = _tp(1) * _ap(-j) * _tp(-1) * _ap(j)
        params = {"e": e, "i": 0, "j": j}
    else:
        i = o.draw("i", (-1, 1))
        gamma, bottom = _ap(i), i  # w is drawn, u = w a^i
        delta = _ap(-i) * _tp(1) * _ap(i) * _tp(-1)
        params = {"e": e, "i": i, "j": 0}

    def attempt():
        digits = _naf_digits(rng, e)
        digits[e - 1] = bottom
        digits[e - 2] = 0
        drawn = descent_word(_sample_core_word(rng), digits)
        other = _partner(drawn, _ap(bottom), 2, w_cls=2)
        if other is None or _end_run(other, "a", -1) != 0:
            return None
        w, u = (other, drawn) if mode == "i0" else (drawn, other)
        return CaseWitness("7.3", params, w, u, gamma, delta)
    return _sample("7.3", attempt)


def _build_74(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # both class 2, gamma = a^(2k).  The digits at the bottom levels are
    # pinned by the mode (tail is bottom-up: tail[0] at level -e); the bottom
    # digit of u must come out as j.
    mode = o.draw("mode", ("i0", "i1_neg", "i1_same", "i1_opp"))
    e = o.draw("e", range(4, 13), lo=3)  # descent depth
    if mode == "i0":
        k = o.draw("k", (-1, 1))
        tail, gamma, delta = [0, k, 0], _ap(2 * k), _tp(1) * _ap(k) * _tp(-1)
        params = {"mode": mode, "i": 0, "j": 0, "k": k}
    else:
        _require(mode != "i1_opp" or e >= 4,
                 "case 7.4 (i1_opp) needs descent depth e >= 4")
        i = o.draw("i", (-1, 1))
        # per mode: the tail, k, and u's bottom digit j.  For j = -i, a^(2i)
        # makes the bottom digit 3i, which rebalances to -i; the carry runs
        # up the tail (i, 0, i, 0) and leaves (-i, 0, 0, i) at the same weight
        tail, k, j = {"i1_neg": ([i], -i, -i), "i1_same": ([i, i, 0], i, i),
                      "i1_opp": ([i, 0, i, 0], i, -i)}[mode]
        gamma = _ap(2 * k)
        params = {"mode": mode, "i": i, "j": j, "k": k}
        if mode == "i1_opp":
            delta = _ap(-i) * _tp(1) * _ap(2 * i) * _tp(-1) * _ap(-i)
            params["tail"] = tuple(tail[1:])
        else:
            delta = gamma
            params["delta_is"] = "gamma"

    def attempt():
        digits = _naf_digits(rng, e)
        digits[e - len(tail):] = reversed(tail)
        w = descent_word(_sample_core_word(rng), digits)
        u = _partner(w, gamma, 2, w_cls=2)
        if u is None or _end_run(u, "a", -1) != params["j"]:
            return None
        return CaseWitness("7.4", {**params, "e": e}, w, u, gamma, delta)
    return _sample(f"7.4 ({mode})", attempt)


def _build_81(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # w = t v t a^k t^-(p+1) and u = a^j t v t a^k t^-p share the climb v.
    p = o.draw("p", range(2, 17), lo=1)
    k = o.draw("k", (-3, -2, 2, 3))
    j = o.draw("j", (-1, 1))
    s = 1 if k > 0 else -1
    gamma = _ap(j) * _tp(1)
    delta = (_tp(p) * _ap(-2 * s) * _tp(-p) * _ap(j)
             * _tp(p) * _ap(2 * s) * _tp(-(p - 1)))

    def attempt():
        v = random_filler(rng, p - 1)
        w = _tp(1) * v * _tp(1) * _ap(k) * _tp(-(p + 1))
        u = _ap(j) * _tp(1) * v * _tp(1) * _ap(k) * _tp(-p)
        if is_geodesic(w, BS2) and is_geodesic(u, BS2):
            params = {"p": p, "k": k, "s": s, "j": j, "v": v}
            return CaseWitness("8.1", params, w, u, gamma, delta)
        return None
    return _sample("8.1", attempt, "geodesic")


def _build_82(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # gamma = a^-j t; u0 carries the element of a^-j w0 at the same length.
    p = o.draw("p", range(2, 17))

    def attempt():
        k = o.draw("k", (-3, -2, 2, 3))
        j = o.draw("j", (-1, 1))
        s = 1 if k > 0 else -1
        digits = _naf_digits(rng, p)
        digits[0] = -j  # a^-j cancels into the unit digit without a carry chain
        digits[1] = 0
        v = _ascent_with(digits)
        w0 = v * _tp(1) * _ap(k) * _tp(-p)
        w = _tp(1) * w0 * _tp(-1)
        if not is_geodesic(w, BS2):
            return None
        # l(u0) = l(w0) makes l(u) = l(w)
        u0_nf = _same_sphere(bs_mul(_gel(_ap(-j)), _gel(w0), BS2), len(w0), 1)
        if u0_nf is None:
            return None
        u0 = u0_nf.render()
        if classify(u0) is not WordClass.X:
            return None
        u = _ap(j) * _tp(1) * u0
        if not is_geodesic(u, BS2):
            return None
        delta = (_tp(p) * _ap(-2 * s) * _tp(-p) * _ap(-j)
                 * _tp(p) * _ap(2 * s) * _tp(-(p - 1)))
        params = {"p": p, "k": k, "s": s, "j": j, "v": v, "u0": u0,
                  "delegates_to": "8.1"}
        return CaseWitness("8.2", params, w, u, _ap(-j) * _tp(1), delta)
    return _sample("8.2", attempt)


def _build_911(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # u class 4 ending in a bare t (f = 1); gamma = t^2 and delta = gamma.
    e = o.draw("e", range(3, 13), lo=2)  # descent depth
    gamma = _tp(2)

    def attempt():
        digits = _naf_digits(rng, e)
        digits[e - 1] = rng.choice((-1, 1))  # nonzero bottom keeps u class 4
        u = descent_word(_sample_core_word(rng), digits, rise=1)
        w = _partner(u, gamma.inverse(), 2, w_cls=4)
        if w is None:
            return None
        params = {"e": e, "f": 1, "m_e": digits[e - 1], "delta_is": "gamma"}
        return CaseWitness("9.1.1", params, w, u, gamma, gamma)
    return _sample("9.1.1", attempt)


def _build_912(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # w class 2, u class 4 with f = 1, gamma = t a^k.  A class-4 u forces a
    # nonzero bottom digit, and the length bookkeeping then puts
    # v = u(r-1) a^-k inside B(r-1) unconditionally, so only the near
    # detour a^(2k) t ever occurs.
    o.draw("branch", ("near",))
    e = o.draw("e", range(3, 13))  # descent depth
    k = o.draw("k", (-1, 1))  # gamma = t a^k
    gamma = _tp(1) * _ap(k)

    def attempt():
        digits = _naf_digits(rng, e)
        digits[e - 2] = -k  # the lifted digit melts, paying for the extra t
        digits[e - 1] = rng.choice((k, -k))
        digits[e - 3] = 0
        w = descent_word(_sample_core_word(rng), digits)
        u = _partner(w, gamma, 4, w_cls=2, class4_form="core_first")
        if u is None or u.runs[-1] != ("t", 1):
            return None
        v = u.prefix(len(u) - 1) * _ap(-k)
        if geodesic_length(_gel(v), BS2) > len(u) - 1:
            return None
        params = {"e": e, "k": k, "f": 1, "branch": "near", "v": v}
        return CaseWitness("9.1.2", params, w, u, gamma, _ap(2 * k) * _tp(1))
    return _sample("9.1.2", attempt)


def _build_92(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # w = v t a^k t^-(p+2) a^i; u = N-form of w t^2; x is the NP-style
    # respelling of u that the checks compare against.
    p = o.draw("p", range(10, 17))  # sigma_t(v)
    k = o.draw("k", (-3, -2, 2, 3))
    i = o.draw("i", (-1, 1))
    s = 1 if k > 0 else -1
    gamma = _tp(2)
    delta = (_ap(-i) * _tp(p + 1) * _ap(-2 * s) * _tp(-(p + 1))
             * _ap(i) * _tp(p + 1) * _ap(2 * s) * _tp(-(p - 1)))

    def attempt():
        v = random_filler(rng, p)
        w = v * _tp(1) * _ap(k) * _tp(-(p + 2)) * _ap(i)
        w_el = _geodesic_el(w)
        if w_el is None:
            return None
        u_nf = _same_sphere(bs_mul(w_el, _gel(gamma), BS2), len(w))
        if u_nf is None:
            return None
        u = u_nf.render()
        x = _tp(-1) * _ap(i) * _tp(1) * v * _tp(1) * _ap(k) * _tp(-p)
        if not is_geodesic(x, BS2):
            return None
        params = {"p": p, "k": k, "s": s, "i": i, "v": v, "x": x}
        return CaseWitness("9.2", params, w, u, gamma, delta)
    return _sample("9.2", attempt)


def _build_101(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # both words dip first: w = t^-p1 w', u = t^-p2 u'.
    p1 = o.draw("p", range(2, 13), lo=1)  # the dip of w
    kind = o.draw("gamma_kind", ("a2", "at", "Ta", "aT"))
    g = o.draw("g", (-1, 1))
    extra = o.draw("extra", range(1 if kind in ("Ta", "aT") else 0, 7), lo=0)  # sigma_t(w)
    _require(kind not in ("Ta", "aT") or extra >= 1,
             "case 10.1 with a t^-1 in gamma needs sigma_t(w) >= 1")
    # at p = 1 and extra = 0 the free choices are the bottom digit and g, and
    # none of the four gives w gamma at distance l(w) in class 4
    _require(not (p1 == 1 and kind == "a2" and extra == 0),
             "case 10.1 has no instance for p = 1, gamma_kind = a2, extra = 0")
    gamma = {"a2": _ap(2 * g), "at": _ap(g) * _tp(1), "Ta": _tp(-1) * _ap(g),
             "aT": _ap(g) * _tp(-1)}[kind]

    def attempt():
        digits = _naf_digits(rng, p1 + extra)
        digits[0] = rng.choice((-1, 1))  # nonzero bottom digit keeps the dip
        if kind in ("a2", "at"):
            core = _ap(-g)  # flips to +g under a^(2g), melts under a^g t
        elif kind == "Ta":
            core = Word()  # gamma's a^g becomes the core one level down
            digits[-1] = 0
        else:
            # a^g joins the core and t^-1 doubles it: -3g + g reads as the
            # X-block t a^-2g t^-1 one level down, one letter longer
            core = _ap(-3 * g)
            digits[-1] = 0
        w = ascent_word(p1, digits, core)
        u = _partner(w, gamma, 4, w_cls=4)
        if u is None or sigma_t(u) < 0 or _end_run(u, "t") > -1:
            return None
        p2 = -_end_run(u, "t")
        delta = (w.suffix(len(w) - p1).inverse() * _tp(p1 - 1) * _tp(-(p2 - 1))
                 * u.suffix(len(u) - p2))
        params = {"p1": p1, "p2": p2, "g": g, "gamma_kind": kind, "extra": extra}
        return CaseWitness("10.1", params, w, u, gamma, delta)
    return _sample("10.1", attempt)


def _build_102(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # w = w0 w1 t^-1 a^(i1) t^(f1): a descent past the bottom then a bare rise.
    sub = o.case  # 10.2.1 .. 10.2.4
    f1 = o.draw("f1", range(1, 9))  # the rise
    e = o.draw("e", range(f1 + 3, f1 + 13))  # descent depth
    branch = None
    if sub == "10.2.3":
        _require(f1 >= 2 or o.get("branch") != "near",
                 "case 10.2.3 near branch needs f1 >= 2 (at f1 = 1 the pinned "
                 "digits collide with the bottom one)")
        branch = o.draw("branch", ("near", "far") if f1 >= 2 else ("far",))
    itex = e - f1 - 1  # index of the digit at level texp = f1 - e

    def attempt():
        i1 = o.draw("i1", (-1, 1))
        k = o.draw("k", (-1, 1))
        gamma = {"10.2.1": _ap(k) * _tp(1), "10.2.2": _ap(k), "10.2.3": _tp(1) * _ap(k),
                 "10.2.4": _ap(2 * k)}[sub]
        digits = _naf_digits(rng, e)
        digits[e - 1] = i1
        digits[e - 2] = 0
        if sub == "10.2.1":
            digits[itex] = -k  # a^k melts this digit, paying for the extra t
        elif sub == "10.2.2":
            digits[itex] = k  # carry: 2k at texp becomes k one level up
            digits[itex - 1] = 0
        elif sub == "10.2.3":
            digits[itex - 1] = -k  # the digit above texp melts under t a^k
            digits[itex] = -k if branch == "near" else 0
        else:
            digits[itex - 1] = k  # a^(2k) carries into the slot above texp
            digits[itex - 2] = 0
        w = descent_word(_sample_core_word(rng), digits, rise=f1)
        u = _partner(w, gamma, 4, w_cls=4, class4_form="core_first")
        f2 = f1 + sigma_t(gamma)
        if u is None or u.runs[-1] != ("t", f2):
            return None
        if len(u.runs) < 2 or u.runs[-2][0] != "a" or abs(u.runs[-2][1]) != 1:
            return None
        i2 = u.runs[-2][1]
        params = {"f1": f1, "f2": f2, "e": e, "i1": i1, "i2": i2, "k": k}
        if sub == "10.2.1":
            delta = gamma
            params["delta_is"] = "gamma"
        elif sub == "10.2.2":
            delta = _tp(-1) * _ap(2 * k) * _tp(1)
        elif sub == "10.2.3":
            v = u.prefix(len(u) - 1) * _ap(-k)
            v_dist = geodesic_length(_gel(v), BS2)
            params["branch"] = branch
            params["v"] = v
            if branch == "near":
                if v_dist > len(u) - 1:
                    return None
                delta = _ap(2 * k) * _tp(1)
            else:
                if v_dist != len(u):
                    return None
                delta = _tp(-1) * _ap(2 * k) * _tp(1) * _ap(k) * _tp(1)
        else:
            delta = (_tp(-f1) * _ap(-i1) * _tp(f1) * _ap(2 * k)
                     * _tp(-f1) * _ap(i1) * _tp(f1))
        return CaseWitness(sub, params, w, u, gamma, delta)
    return _sample(sub, attempt)


def _build_1031(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # w carries an X-head w3 t a^m t^-l; u is the alternate geodesic that
    # walks the dip first.  gamma = t^2.
    sub = o.case  # 10.3.1.1 or 10.3.1.2
    p = o.draw("p", range(2, 11))
    l = o.draw("l", range(2, 11) if sub == "10.3.1.1" else (1,))
    m = o.draw("m", (-3, -2, 2, 3))
    i = o.draw("i", (-1, 1))
    s = 1 if m > 0 else -1
    gamma = _tp(2)

    def attempt():
        w3 = random_filler(rng, l - 1)
        w2 = random_filler(rng, p - 2)
        w = w3 * _tp(1) * _ap(m) * _tp(-(l + p)) * _ap(i) * _tp(1) * w2
        u = (_tp(-p) * _ap(i) * _tp(1) * w2 * _tp(1) * w3 * _tp(1) * _ap(m)
             * _tp(-(l - 1)))
        if not (is_geodesic(w, BS2) and is_geodesic(u, BS2)):
            return None
        head = w2.inverse() * _tp(-1) * _ap(-i) * _tp(p - 1)
        if sub == "10.3.1.1":
            delta = (head * _tp(l) * _ap(-2 * s) * _tp(-l) * _tp(-(p - 1))
                     * _ap(i) * _tp(1) * w2 * _tp(l) * _ap(2 * s) * _tp(-(l - 2)))
        else:
            delta = (head * _tp(1) * _ap(-2 * s) * _tp(-1) * _tp(-(p - 1))
                     * _ap(i) * _tp(1) * w2 * _tp(2) * _ap(s))
        params = {"p": p, "l": l, "m": m, "s": s, "i": i, "w3": w3, "w2": w2}
        return CaseWitness(sub, params, w, u, gamma, delta)
    return _sample(sub, attempt, "geodesic")


def _build_1033(rng: random.Random, o: _CaseParams) -> CaseWitness:
    # w = a^k t^-p a^i t w2 with a plain head a^k; gamma = t^2.  u walks two
    # levels higher, which costs two extra t letters, so the pair can only
    # share a sphere when u's reading of the value saves that much weight.
    # The one trade that does it: k = 3s next to a digit pair (s, s) at
    # levels -1, -2 rebalances to a digit -s at -2 plus an a^2s core above
    # the surface (3 + 2 letters against 1 + 2).  Pin exactly that.
    # p >= 4 for 10.3.3.1: the tie pair and the isolated bottom digit do not
    # fit below that.  p >= 6 for 10.3.3.2: the bottom pair's carry must land
    # two clear levels under the top pair.
    sub = o.case  # 10.3.3.1 or 10.3.3.2
    p = o.draw("p", range(4 if sub == "10.3.3.1" else 6, 13))
    gamma = _tp(2)

    def attempt():
        s = o.draw("s", (-1, 1))
        i = o.draw("i", (-1, 1))
        # The normal form's least-digits tie-break is not symmetric under
        # the automorphism a -> a^-1, t -> t: for 10.3.3.2 it reads the tied
        # pair (-1, -1) without the flip.  So i = -1 is built as the image
        # of the (-s, 1) instance, whose u is the other geodesic spelling.
        mirror = sub == "10.3.3.2" and i == -1
        if mirror:
            s, i = -s, 1
        k = 3 * s
        # m[j] sits at level -j.  m[3] = 0 isolates the engineered pair; the
        # bottom is (i, 0) for i = j, or the tied pair (i, i) whose flipped
        # reading hands u the opposite bottom digit for i = -j.
        m = [0] * (p + 1)
        m[1] = s
        m[2] = s
        m[p] = i
        free_hi = p - 1
        if sub == "10.3.3.2":
            m[p - 1] = i
            free_hi = p - 2
        for idx in range(4, free_hi):
            if m[idx - 1] == 0 and rng.random() < 0.4:
                m[idx] = rng.choice((-1, 1))
        w2 = _ascent_with(m[p - 1:0:-1])
        w = _ap(k) * _tp(-p) * _ap(i) * _tp(1) * w2
        w_el, r = _geodesic_el(w), len(w)
        if w_el is None:
            return None
        gnf = _same_sphere(bs_mul(w_el, _gel(gamma), BS2), r)
        if gnf is None or gnf.element.texp != 1 or gnf.bottom != -p:
            return None
        jd = gnf.digits[0]  # the bottom digit, at height -p
        if jd != (i if sub == "10.3.3.1" else -i):
            return None
        u = gnf.render(class4_form="down_first")
        u_rest = u.suffix(r - p - 2)
        head = w2.inverse() * _tp(p - 1) * _ap(-k) * _tp(-(p - 1))
        delta = head * u_rest if sub == "10.3.3.1" else head * _ap(jd) * u_rest
        if mirror:
            params = {"p": p, "k": -k, "s": -s, "i": -i, "j": -jd, "w2": _flip_a(w2)}
            return CaseWitness(sub, params, _flip_a(w), _flip_a(u), gamma,
                               _flip_a(delta))
        params = {"p": p, "k": k, "s": s, "i": i, "j": jd, "w2": w2}
        return CaseWitness(sub, params, w, u, gamma, delta)
    return _sample(sub, attempt)


# case id -> builder; a builder of several sub-cases reads its id from
# o.case.  Seeded sweeps draw their seeds in this order.
_BUILDERS = {
    "4": _build_4,
    "5": _build_5,
    "6": _build_6,
    "7.2": _build_72,
    "7.3": _build_73,
    "7.4": _build_74,
    "8.1": _build_81,
    "8.2": _build_82,
    "9.1.1": _build_911,
    "9.1.2": _build_912,
    "9.2": _build_92,
    "10.1": _build_101,
    "10.2.1": _build_102,
    "10.2.2": _build_102,
    "10.2.3": _build_102,
    "10.2.4": _build_102,
    "10.3.1.1": _build_1031,
    "10.3.1.2": _build_1031,
    "10.3.3.1": _build_1033,
    "10.3.3.2": _build_1033,
}
CONSTRUCTIVE_CASES = tuple(_BUILDERS)


def build_case(case: str, rng: random.Random, **params) -> CaseWitness:
    """Construct a CaseWitness for the given constructive case id.

    Int and string parameters (p, l, f1, k, j, mode, ...) may be pinned by
    keyword; anything left unspecified, filler words included, is sampled.
    A pin may be given as a string: the case converts it to the
    parameter's type.  Pinning one parameter leaves the draws of the others
    unchanged.  Raises ConstructionError when a pin lies outside its
    parameter's values (at once, before any sampling), a precondition tying
    parameters together is violated, a parameter name is unknown to the
    case, or sampling fails.
    """
    if case not in _BUILDERS:
        raise ConstructionError(f"unknown constructive case id: {case!r}")
    opts = _CaseParams(case, rng, params)
    cw = _BUILDERS[case](rng, opts)
    stray = set(opts) - opts.seen
    if stray:
        raise ConstructionError(
            f"case {case} does not take parameter(s) {sorted(stray)};"
            f" it reads {sorted(opts.seen)}")
    return cw


# ---------------------------------------------------------------------------
# verification


def verify_case(cw: CaseWitness) -> dict:
    """Exact checks for one witness: geodesy of w and u, the gamma link,
    delta's endpoint and length bound, and ball membership of every prefix
    of delta.  Returns a JSON-ready report.

    Word length is 1-Lipschitz along a path (one letter moves it by at most
    one), so once a prefix of delta has length L <= r the next r - L
    prefixes lie in B(r) unseen: the walk runs the DP only where that slack
    is used up.  The check stays exact, and since a DP runs only at a prefix
    whose predecessors are all proven inside, the first prefix it finds
    outside is the first violation."""
    checks: dict = {}
    first_violation = None
    r = cw.r
    w_el = bs_eval(cw.w, BS2)
    u_el = bs_eval(cw.u, BS2)
    gamma_el = bs_eval(cw.gamma, BS2)
    # l(u) = l(w) = r is a CaseWitness invariant
    checks["geodesic"] = geodesic_length(w_el, BS2) == r == geodesic_length(u_el, BS2)
    # once w gamma = u holds, w^-1 u is gamma, so d(w, u) = l(gamma)
    checks["distance"] = (1 <= geodesic_length(gamma_el, BS2) <= 2
                          and bs_mul(w_el, gamma_el, BS2) == u_el)
    checks["delta_eval"] = bs_eval(cw.delta, BS2) == gamma_el
    checks["delta_len"] = len(cw.delta) <= 2 * r - 2
    cur = w_el
    slack = 0  # prefixes still known to lie in B(r) without a DP call
    for idx, (gen, sign) in enumerate(cw.delta.letters(), start=1):
        cur = _BS2_MODEL.apply_gen(cur, _GEN_INDEX[gen, sign])
        if slack:
            slack -= 1
            continue
        slack = r - geodesic_length(cur, BS2)
        if slack < 0:
            first_violation = idx
            break
    checks["in_ball"] = first_violation is None
    if "x" in cw.params:
        x = cw.params["x"]
        checks["alt_u"] = len(x) == r and bs_eval(x, BS2) == u_el
    return {
        "case": cw.case,
        "params": {key: str(val) if isinstance(val, Word) else val
                   for key, val in cw.params.items()},
        "r": r,
        "w": str(cw.w),
        "u": str(cw.u),
        "gamma": str(cw.gamma),
        "delta": str(cw.delta),
        "checks": checks,
        "first_violation": first_violation,
        "ok": all(checks.values()),
    }


# ---------------------------------------------------------------------------
# impossibility searchers


def _gamma_words():
    letters = tuple(_GEN_INDEX)
    out = [gen_power(g, s) for g, s in letters]
    for g1, s1 in letters:
        for g2, s2 in letters:
            if g1 == g2 and s1 == -s2:
                continue
            out.append(gen_power(g1, s1) * gen_power(g2, s2))
    return tuple(out)


# The impossible cases that step off x by a short connector gamma:
# (class of x, connector words, class that x gamma must not reach at the
# length of x).  Only geodesic connectors count.
_CONNECTOR_CASES = {
    "1": (4, _gamma_words(), 1),
    "2": (4, _gamma_words(), 3),
    "7.1": (2, (_tp(1), _ap(1) * _tp(1), _ap(-1) * _tp(1)), 2),
}


def _geodesic_word_tags(ball: BallIndex) -> dict:
    """Word classes realized by geodesic spellings, per key of the ball.
    The geodesic words to an element are those to its neighbours one sphere
    nearer, each followed by the letter that steps out, so they are read
    off the neighbour table in id order."""
    letters = [gen_power(g, s) for g, s in _GEN_INDEX]  # in generator order
    words = {0: [Word()]}
    tags: dict = {}
    for x, key in enumerate(ball.keys):
        mine = words.pop(x)
        tags[key] = {classify(w) for w in mine}
        d = ball.depth(x)
        if d < ball.radius:
            outer = ball.starts[d + 1]
            for i, y in enumerate(ball.row(x)):
                if y >= outer:
                    words.setdefault(y, []).extend(w * letters[i] for w in mine)
    return tags


def _ball_ids(ball: BallIndex):
    """(id, distance) for every element of the ball but the identity."""
    for r in range(1, ball.radius + 1):
        for x in ball.sphere_ids(r):
            yield x, r


def impossibility_search(case: str, radius: int = 7) -> list:
    """Exhaustively hunt for a geodesic pair realizing an impossible case.

    Returns the list of realizations found; every entry is a bug in the
    case analysis, so callers assert the list is empty.
    """
    if case not in IMPOSSIBLE_CASES:
        raise ValueError(f"not an impossibility case: {case!r}")
    if case != "10.3.2":  # 10.3.2 walks a word family, not the ball
        ball = build_ball(_BS2_MODEL, radius)
    hits: list = []
    tsq = bs_eval(_tp(2), BS2)
    if case in _CONNECTOR_CASES:
        source, words, target = _CONNECTOR_CASES[case]
        gammas = [(str(gw), g) for gw in words if (g := _geodesic_el(gw)) is not None]
        for x, r in _ball_ids(ball):
            el = ball.element_at(x)
            if element_class(el) != source:
                continue
            for name, g in gammas:
                y = bs_mul(el, g, BS2)
                if element_class(y) == target and geodesic_length(y, BS2) == r:
                    hits.append({"case": case, "x": ball.keys[x].decode("ascii"),
                                 "gamma": name, "r": r})
    elif case == "3":
        tags = _geodesic_word_tags(ball)
        for x, r in _ball_ids(ball):
            el, key = ball.element_at(x), ball.keys[x]
            if el.texp != -1 or WordClass.XN not in tags.get(key, ()):
                continue
            y = bs_mul(el, tsq, BS2)
            if geodesic_length(y, BS2) != r:
                continue
            if WordClass.PX in tags.get(bs_key(y), ()):
                hits.append({"case": case, "w_el": key.decode("ascii"), "r": r})
    else:  # 10.3.2: w = a^k t^-p a^i t^(p-1) alongside u = w t^2 at equal length
        for p in range(2, radius):
            for k in range(-3, 4):
                for i in (-1, 1):
                    w = _ap(k) * _tp(-p) * _ap(i) * _tp(p - 1)
                    r = len(w)
                    if r > radius:
                        continue
                    w_el = _geodesic_el(w)
                    if w_el is not None and geodesic_length(bs_mul(w_el, tsq, BS2), BS2) == r:
                        hits.append({"case": case, "w": str(w)})
    return hits


# ---------------------------------------------------------------------------
# reachability of a^m and the ball witnesses


def _short_a_powers(lo: int, hi: int, radius: int,
                   params: BsParams) -> tuple[list[int], int]:
    """Every m in [lo, hi] with a^m within `radius` of the identity, and the
    number of partial values the search visited.

    a^m has bottom = base = 0, so its length is the core cost of m: |m| for
    a plain core (|m| <= core_cap), or 2h + |s| + sum |k_j| for a climb
    block spelling m = s q^h + sum_{j<h} k_j q^j with a legal top digit s
    and |k_j| <= floor(q/2).  Blocks are built top digit first; a partial
    value is dropped once the most the remaining budget can still add,
    filled greedily from the highest open level down, cannot bring it into
    [lo, hi]."""
    q, half = params.q, params.half
    cap = min(params.core_cap, radius)
    found = set(range(max(lo, -cap), min(hi, cap) + 1))
    tops = [s for s in range(-q - 1, q + 2) if params.top_digit_ok(s)]
    # (partial value, open levels below it, budget left)
    stack = [(s * q ** h, h, radius - 2 * h - abs(s))
             for h in range(1, radius // 2 + 1) for s in tops
             if 2 * h + abs(s) <= radius]
    nodes = 0
    while stack:
        v, levels, budget = stack.pop()
        nodes += 1
        spread, left = 0, budget
        for j in range(levels - 1, -1, -1):
            k = min(half, left)
            spread += k * q ** j
            left -= k
        if v + spread < lo or v - spread > hi:
            continue
        if not levels:
            found.add(v)
            continue
        j = levels - 1
        kmax = min(half, budget)
        stack.extend((v + k * q ** j, j, budget - abs(k)) for k in range(-kmax, kmax + 1))
    return sorted(found), nodes


def verify_boundingm(n: int, q: int = 2) -> dict:
    """Find every m in (bound, q^(n+1)] with a^m within the stated radius.

    For q = 2 the radius is 2n + 2 and the only survivor past
    2^n + 2^(n-1) + 2^(n-2) is 2^(n+1); for q >= 7 the radius is 2n + 1 and
    the only survivor past 3 q^(n-1) is q^n.  _short_a_powers enumerates
    the spellings of a^m within the radius, so the work follows the few
    survivors rather than the q^(n+1) values of m; the digit DP then prices
    each survivor as a cross-check.  `nodes` counts the partial values
    the enumeration visited.
    """
    if q == 2:
        if n < 2:
            raise ValueError("q = 2 needs n >= 2")
        radius = 2 * n + 2
        bound = 2 ** n + 2 ** (n - 1) + 2 ** (n - 2)
        expected = [2 ** (n + 1)]
    else:
        if q < 7:
            raise ValueError("q must be 2 or at least 7")
        if n < 1:
            raise ValueError("q >= 7 needs n >= 1")
        radius = 2 * n + 1
        bound = 3 * q ** (n - 1)
        expected = [q ** n]
    params = BsParams(q)
    reachable, nodes = _short_a_powers(bound + 1, q ** (n + 1), radius, params)
    for m in reachable:
        length = geodesic_length(BsElement(0, m, 0), params)
        if length > radius:
            raise InvariantError(
                f"a^{m} was spelled within {radius} but the DP prices it at {length}")
    return {
        "witness": "boundingm",
        "q": q,
        "n": n,
        "R": radius,
        "bound": bound,
        "expected": expected,
        "reachable": reachable,
        "nodes": nodes,
        "ok": reachable == expected,
    }


# ---------------------------------------------------------------------------
# bridge witnesses


@dataclass(frozen=True)
class BridgeRow:
    """One bridge witness: w and u on the sphere S(R), with w gamma = u at
    distance 2, whose bridge inside B(R) the row's rule says is long."""

    witness: str  # the report's name
    n: int  # the default scale
    q: Optional[int]  # q of BS(1,q), the least one if q_open; None: no q
    q_open: bool  # whether every q >= self.q is taken (the CLI's --q)
    model: Callable  # q -> group model
    # (model, R) -> (dist, detour): dist(el) is el's distance from the
    # identity, detour(w, u) a lower bound on the paths from w to u inside
    # B(R) that avoid the identity (None: none), exact if the row reports it
    # or it is below d(w) + d(u)
    measure: Callable
    pair: Callable  # (q, n) -> (w, u, gamma, R)
    tags: tuple  # (tag, word): w times the word must be geodesic too
    rule: str  # the name of the bridge check
    holds: Callable  # (bridge, R) -> whether the bridge passes
    avoid_identity: bool = False  # also report the identity-avoiding bridge


def _dp_measure(model, radius: int) -> tuple:
    """Distances by the digit DP and the detour by A* over it: no ball."""
    params = model.params
    return (lambda el: geodesic_length(el, params),
            lambda w, u: in_ball_bridge(w, u, radius, params, avoid_identity=True))


def _cut_measure(model, radius: int) -> tuple:
    """Distances by gamma_length_special, refusing what it cannot price, and
    the detour by the edge cut (d(w) + d(u) or refused): no ball, no search."""
    def dist(el):
        if (d := gamma_length_special(el)) is None:
            raise ValueError(f"no exact length for {model.key(el).decode()}")
        return d
    return dist, lambda w, u: edge_cut(w, u, radius)


def _conjugate_pair(c: int) -> Callable:
    """w = t^n a^c t^-n and u = a t^n a^c t^-(n-1) at radius 2n + c, joined
    by gamma = a t."""
    return lambda q, n: (_tp(n) * _ap(c) * _tp(-n), _ap(1) * _tp(n) * _ap(c) * _tp(1 - n),
                         _ap(1) * _tp(1), 2 * n + c)


def _stallings_pair(q: None, n: int) -> tuple:
    """b^-2n a^2n and s b^-2n a^(2n-1) at radius 4n, joined by gamma = s a^-1."""
    s, b = gen_power("s", 1), gen_power("b", -2 * n)
    return b * _ap(2 * n), s * b * _ap(2 * n - 1), s * _ap(-1), 4 * n


# the fields the BS(1,q) rows share
_BS = dict(model=lambda q: BsGroupModel(BsParams(q)), measure=_dp_measure,
           tags=(("wa", _ap(1)), ("wa^-1", _ap(-1)), ("wt^-1", _tp(-1))))

# kind -> row; the kinds are the CLI's bridge witnesses
BRIDGE_WITNESSES = {
    # BS(1,2) is not P(2): the bridge exceeds R - 8, the threshold that
    # defeats a linear bridging bound with slope 1
    "notpac": BridgeRow(
        "notpac", n=3, q=2, q_open=False, pair=_conjugate_pair(2), rule="bridge_exceeds",
        holds=lambda bridge, R: bridge is not None and bridge > R - 8, **_BS),
    # BS(1,q) for q >= 7 is not MAC: the bridge costs 2R, and every minimal
    # one runs through the identity
    "bs1q": BridgeRow(
        "bs1q_notmac", n=2, q=7, q_open=True, pair=_conjugate_pair(1), rule="bridge_is_2R",
        holds=lambda bridge, R: bridge == 2 * R, avoid_identity=True, **_BS),
    # Stallings' group is not MAC: the bridge costs 2R
    "stallings": BridgeRow(
        "stallings", n=1, q=None, q_open=False, model=lambda q: StallingsModel(),
        measure=_cut_measure, pair=_stallings_pair, tags=(),
        rule="bridge_is_2R", holds=lambda bridge, R: bridge == 2 * R),
}


def _walk(model, word: Word, el=None):
    """el (the identity by default) times the element of word, one
    apply_gen per letter."""
    index = {name: i for i, name in enumerate(model.generator_names())}
    el = model.identity() if el is None else el
    for gen, sign in word.letters():
        el = model.apply_gen(el, index[gen if sign > 0 else gen.upper()])
    return el


def verify_bridge(kind: str, n: int, q: Optional[int] = None) -> dict:
    """Check BRIDGE_WITNESSES[kind] at scale n: w, u and w times each tag
    word are geodesic, w and u have length R, w gamma = u with w^-1 u at
    distance 2, and the bridge inside B(R) passes the row's rule; the row
    may also ask for a longer bridge once the identity is avoided.  The
    row's measure gives every distance and the detour, a bound on the
    identity-avoiding bridge.  A path through the identity costs at least
    d(w) + d(u), and the two geodesics give one of exactly that length
    inside B(R), so the bridge is the lesser of the two."""
    row = BRIDGE_WITNESSES.get(kind)
    if row is None:
        raise ValueError(f"unknown bridge witness {kind!r};"
                         f" known: {', '.join(BRIDGE_WITNESSES)}")
    if q is None:
        q = row.q
    elif not row.q_open or q < row.q:
        raise ValueError(f"q must be at least {row.q}" if row.q_open
                         else f"the {kind} witness takes no q")
    if n < 1:
        raise ValueError("n must be at least 1")
    model = row.model(q)
    w, u, gamma, radius = row.pair(q, n)
    dist, detour_of = row.measure(model, radius)
    w_el, u_el = _walk(model, w), _walk(model, u)
    spelled = [("w", w, w_el), ("u", u, u_el)]
    spelled += [(tag, w * x, _walk(model, x, w_el)) for tag, x in row.tags]
    d = {tag: dist(el) for tag, _, el in spelled}
    detail = {tag: d[tag] == len(word) for tag, word, _ in spelled}
    checks = {
        "geodesic": all(detail.values()) and len(w) == radius == len(u),
        # once w gamma = u holds, w^-1 u is gamma
        "distance": _walk(model, gamma, w_el) == u_el and dist(_walk(model, gamma)) == 2,
    }
    detour = detour_of(w_el, u_el)
    through = d["w"] + d["u"]
    bridge = through if detour is None else min(through, detour)
    checks[row.rule] = row.holds(bridge, radius)
    report = {"witness": row.witness}
    if q is not None:
        report["q"] = q
    report.update(n=n, R=radius, w=str(w), u=str(u), bridge=bridge)
    if row.avoid_identity:
        checks["through_identity"] = detour is None or detour > bridge
        report["bridge_no_identity"] = detour
    report.update(geodesic_detail=detail, checks=checks, ok=all(checks.values()))
    return report


def verify_notpac(n: int) -> dict:
    """The notpac row at scale n: R = 2n + 2 in BS(1,2)."""
    return verify_bridge("notpac", n)


def verify_bs1q_notmac(q: int, n: int) -> dict:
    """The bs1q row at scale n: R = 2n + 1 in BS(1,q), q >= 7."""
    return verify_bridge("bs1q", n, q)
