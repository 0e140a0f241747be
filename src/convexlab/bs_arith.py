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

# most heights _at_q sums by Horner's rule, whose cost grows with the square
# of their span, before it splits them in halves
_HORNER = 64


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
    height T contributes m * q^T to the translation part, so the runs are
    summed per height and the sums evaluated at q once, by _at_q.  Raises
    ValueError when a run lies more than MAX_LEVELS levels above the lowest
    earlier run (or 0), or that far below it while the earlier runs do not
    cancel, before any such power of q is built."""
    texp = 0
    low = 0  # lowest height of an a-run so far, and 0
    sums: dict[int, int] = {}  # height -> exponent sum of its a-runs
    for gen, exp in w.runs:
        if gen == "t":
            texp += exp
        elif gen == "a":
            if abs(texp - low) > MAX_LEVELS:
                if texp > low or _at_q(sums, low, params.q):
                    raise ValueError(f"the translation would span more than {MAX_LEVELS}"
                                     " base-q levels")
                sums.clear()  # the earlier runs cancel
            if texp < low:
                low = texp
            sums[texp] = sums.get(texp, 0) + exp
        else:
            raise ValueError(f"letter {gen!r} is not a BS(1,q) generator")
    return _make(params, texp, _at_q(sums, low, params.q), low)


def _at_q(sums: dict[int, int], low: int, q: int) -> int:
    """The sum of c * q^(h - low) over the items h: c of sums, all h >= low."""
    items = sorted(sums.items())
    return _halves(items, 0, len(items), q) * q ** (items[0][0] - low) if items else 0


def _halves(items: list[tuple[int, int]], i: int, j: int, q: int) -> int:
    """The sum of c * q^(h - h_i) over the sorted items[i:j] = (h, c), h_i
    the lowest height: Horner's rule from the top height down, on halves
    while there are more than _HORNER items.  The upper half is shifted
    onto the lower one by one power of q, so the cost stays that of a few
    big multiplications however many heights there are."""
    if j - i > _HORNER:
        m = (i + j) // 2
        return _halves(items, i, m, q) + _halves(items, m, j, q) * q ** (items[m][0] - items[i][0])
    acc, above = 0, items[j - 1][0]
    for h, c in reversed(items[i:j]):
        acc = acc * q ** (above - h) + c
        above = h
    return acc


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
        """The element whose key() this is."""
        return BsElement(*map(int, key.split(b":")))
