"""Exact arithmetic in BS(1,q) = <a, t | t a t^-1 = a^q>.

Elements act on the reals as affine maps x |-> q^texp * x + num * q^-dpow and
are stored as the integer triple (texp, num, dpow), normalized so that
dpow = 0 or q does not divide num.  Elements are named tuples: the ball
engine builds one per Cayley-graph edge, and a tuple is the cheapest
immutable, hashable record to build.  All arithmetic is exact big-integer
work; there are no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .words import Word

# most base-q levels a word's translation may span, and a normal form: it
# holds one digit per level
MAX_LEVELS = 10 ** 6


@dataclass(frozen=True)
class BsParams:
    """Group parameter q >= 2 plus the derived digit bounds."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")

    @property
    def half(self) -> int:
        """Largest allowed interior digit, floor(q/2)."""
        return self.q // 2

    @property
    def core_cap(self) -> int:
        """Largest a-power kept as a plain core block: 3 for q = 2,
        floor(q/2 + 1) otherwise."""
        return 3 if self.q == 2 else self.q // 2 + 1

    def top_digit_ok(self, s: int) -> bool:
        """Allowed top digit of a climb block: 2 <= |s| <= 3 for q = 2,
        1 <= |s| <= q - 1 otherwise."""
        if self.q == 2:
            return 2 <= abs(s) <= 3
        return 1 <= abs(s) <= self.q - 1


class BsElement(NamedTuple):
    """Affine map x |-> q^texp * x + num * q^-dpow, with dpow = 0 or q !| num."""

    texp: int
    num: int
    dpow: int

    def is_identity(self) -> bool:
        return self.texp == 0 and self.num == 0


IDENTITY = BsElement(0, 0, 0)


def _make(params: BsParams, texp: int, num: int, exp: int) -> BsElement:
    """Element with translation part num * q^exp (exp of either sign)."""
    q = params.q
    if num == 0:
        return BsElement(texp, 0, 0)
    while exp < 0 and num % q == 0:
        num //= q
        exp += 1
    if exp > 0:
        num *= q ** exp
        exp = 0
    return BsElement(texp, num, -exp)


def bs_mul(g: BsElement, h: BsElement, params: BsParams) -> BsElement:
    """Product g*h in the convention that words evaluate left to right, so
    bs_eval(v) * bs_eval(w) = bs_eval(v w)."""
    # translation part of g*h: c_g + q^texp(g) * c_h
    q = params.q
    e1 = -g.dpow
    e2 = g.texp - h.dpow
    e = min(e1, e2)
    num = g.num * q ** (e1 - e) + h.num * q ** (e2 - e)
    return _make(params, g.texp + h.texp, num, e)


def bs_inv(g: BsElement, params: BsParams) -> BsElement:
    """Inverse map: x |-> q^-texp * (x - c)."""
    return _make(params, -g.texp, -g.num, -g.dpow - g.texp)


def bs_eval(w: Word, params: BsParams) -> BsElement:
    """Evaluate a word over {a, t} left to right.  An a^m run at current
    height T contributes m * q^T to the translation part.  Raises
    ValueError when that needs q^k for k > MAX_LEVELS."""
    q = params.q
    texp = 0
    num = 0
    dpow = 0
    for gen, exp in w.runs:
        if gen == "t":
            texp += exp
        elif gen == "a":
            e = texp + dpow
            if abs(e) > MAX_LEVELS and (e > 0 or num):
                raise ValueError(f"the translation would span more than {MAX_LEVELS}"
                                 " base-q levels")
            if e >= 0:
                num += exp * q ** e
            else:
                # with num = 0, q^-e (maybe far too large to build) is skipped
                num = num * q ** (-e) + exp if num else exp
                dpow += -e
        else:
            raise ValueError(f"letter {gen!r} is not a BS(1,q) generator")
    return _make(params, texp, num, -dpow)


def bs_key(g: BsElement) -> bytes:
    """Canonical key 'texp:num:dpow' in decimal."""
    return b"%d:%d:%d" % g


class BsGroupModel:
    """Generator-level interface used by the ball engine."""

    #: letters in expansion order; uppercase = inverse
    GEN_NAMES = ("a", "A", "t", "T")

    def __init__(self, params: BsParams):
        self.params = params
        self.name = f"bs:q={params.q}"

    def identity(self) -> BsElement:
        return IDENTITY

    def generator_names(self) -> tuple[str, ...]:
        return self.GEN_NAMES

    def apply_gen(self, g: BsElement, i: int) -> BsElement:
        """Right-multiply by the i-th generator letter."""
        texp, num, dpow = g
        if i >= 2:  # t or T only shifts the height
            return BsElement(texp + 1 if i == 2 else texp - 1, num, dpow)
        # a or A adds +-q^texp to the translation part num * q^-dpow.  With
        # e = texp + dpow the sum is already reduced unless e = 0: for e > 0
        # either dpow = 0 or q !| num while q | q^e, and for e < 0 the new
        # numerator num * q^-e +- 1 is prime to q.  Only e = 0 can reduce.
        eps = 1 if i == 0 else -1
        e = texp + dpow
        if e > 0:
            return BsElement(texp, num + eps * self.params.q ** e, dpow)
        if e < 0:
            return BsElement(texp, num * self.params.q ** -e + eps, -texp)
        return _make(self.params, texp, num + eps, -dpow)

    def key(self, g: BsElement) -> bytes:
        return bs_key(g)

    def element_from_key(self, key: bytes) -> BsElement:
        """The element of a canonical key; ValueError for any other bytes,
        such as a padded number or a triple that is not reduced."""
        t, n, d = key.split(b":")
        num, dpow = int(n), int(d)
        el = BsElement(int(t), num, dpow)
        if bs_key(el) != key or dpow < 0 or (dpow > 0 and num % self.params.q == 0):
            raise ValueError(f"{key!r} is not the key of a reduced element of {self.name}")
        return el
