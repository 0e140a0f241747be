"""Exact arithmetic in Stallings' group.

Generators a, b, c, d, s: the pairs F(a,b) and F(c,d) commute, and the
stable letter s centralizes a^-1 b, a^-1 c and a^-1 d.  Killing those three
elements frees the quotient on the images of a and s, and every element
factors uniquely as section(quo) * h: quo is the reduced {a,s}-word of the
quotient image and h lies in the centralized subgroup H, realized inside
F(a,b) x F(c,d) as a pair (u, v) with total exponent sum zero.

Each part is a freely reduced letter string, uppercase for inverses, and
one letter changes it only at its ends.  The single letter rule, _letter,
keeps the factorization reduced: each part it touches gains or loses one
letter at one end (drop that letter if it is the inverse of the new one,
else add the new one).  Evaluation, product and inverse all fold it, which
makes the triple (quo, u, v) a canonical form suitable for exhaustive BFS.
The triple is a named tuple.  A ball key is the ascii text "quo|u|v"
(cache format "ball-v4").
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from .words import STALLINGS_ALPHABET, Word, WordError, parse_word

RELATORS = ("acAC", "adAD", "bcBC", "bdBD", "sAbSBa", "sAcSCa", "sAdSDa")

_GEN_NAMES = ("a", "A", "b", "B", "c", "C", "d", "D", "s", "S")

# a letter next to its inverse
_CANCELLING = re.compile("|".join(x + x.swapcase() for x in _GEN_NAMES))


class StallingsElement(NamedTuple):
    """Canonical triple of reduced letter strings (uppercase = inverse):
    quo over {a,s}, u over F(a,b), v over F(c,d)."""

    quo: str = ""
    u: str = ""
    v: str = ""

    def is_identity(self) -> bool:
        return not (self.quo or self.u or self.v)


S_IDENTITY = StallingsElement()


def _inv(w: str) -> str:
    return w[::-1].swapcase()


def _join(w: str, x: str) -> str:
    """Reduced product of two reduced letter strings: only the seam can
    cancel."""
    if not (w and x) or w[-1] != x[0].swapcase():
        return w + x
    n, m = 1, min(len(w), len(x))
    while n < m and w[-1 - n] == x[n].swapcase():
        n += 1
    return w[:-n] + x[n:]


def _letter(el: StallingsElement, ch: str) -> StallingsElement:
    """Right-multiply by one generator letter: the quotient word takes a or
    s, and an a, b, c or d letter conjugates u through the matching a,
    each part gaining or losing one letter at one end."""
    quo, u, v = el
    inv = ch.swapcase()
    if ch in "sS":
        return StallingsElement(quo[:-1] if quo[-1:] == inv else quo + ch, u, v)
    a, a_inv = ("a", "A") if ch.islower() else ("A", "a")
    quo = quo[:-1] if quo[-1:] == a_inv else quo + a
    u = u[1:] if u[:1] == a else a_inv + u  # a^-1 u
    if ch in "aAbB":
        u = u[:-1] if u[-1:] == inv else u + ch
    else:
        v = v[:-1] if v[-1:] == inv else v + ch
    return StallingsElement(quo, u, v)


def st_eval(w: Union[Word, str]) -> StallingsElement:
    """Canonical form of the element spelled by a word over a,b,c,d,s."""
    if isinstance(w, str):
        w = parse_word(w, STALLINGS_ALPHABET)
    el = S_IDENTITY
    for gen, sign in w.letters():
        el = _letter(el, gen if sign > 0 else gen.upper())
    return el


def st_mul(g: StallingsElement, h: StallingsElement) -> StallingsElement:
    """Product in canonical form: g times the section of h's quotient word,
    then h's part in H."""
    for ch in h.quo:
        g = _letter(g, ch)
    return StallingsElement(g.quo, _join(g.u, h.u), _join(g.v, h.v))


def st_inv(g: StallingsElement) -> StallingsElement:
    el = StallingsElement("", _inv(g.u), _inv(g.v))
    for ch in _inv(g.quo):
        el = _letter(el, ch)
    return el


def in_H(g: StallingsElement) -> bool:
    """Membership in the centralized subgroup (trivial quotient image)."""
    return not g.quo


def lambda_length(g: StallingsElement) -> int:
    """Free length of the direct-product form: |a^k u| + |v| where a^k is
    the (s-free) quotient word.  Raises on elements outside that part."""
    if "s" in g.quo or "S" in g.quo:
        raise ValueError("lambda length needs an s-free quotient word")
    return gamma_length_special(g)


def gamma_length_special(g: StallingsElement) -> Optional[int]:
    """Certified word length for the two easy shapes: s-free quotient word
    (the lambda length) and a single s^+-1 at either end of the quotient
    word (1 + lambda of the merged rest, since s commutes with H).  Returns
    None when neither shortcut applies."""
    quo = g.quo
    s_letters = quo.count("s") + quo.count("S")
    if s_letters > 1 or (s_letters == 1 and quo[0] not in "sS" and quo[-1] not in "sS"):
        return None
    k = quo.count("a") - quo.count("A")
    return s_letters + len(_join("a" * k if k > 0 else "A" * -k, g.u)) + len(g.v)


class StallingsModel:
    """Group model plugging the canonical triples into the ball engine."""

    name = "stallings"

    def identity(self) -> StallingsElement:
        return S_IDENTITY

    def generator_names(self) -> tuple[str, ...]:
        return _GEN_NAMES

    def apply_gen(self, el: StallingsElement, i: int) -> StallingsElement:
        return _letter(el, _GEN_NAMES[i])

    def key(self, el: StallingsElement) -> bytes:
        return f"{el.quo}|{el.u}|{el.v}".encode("ascii")

    def element_from_key(self, key: bytes) -> StallingsElement:
        quo, u, v = key.decode("ascii").split("|")
        for part, letters in ((quo, "aAsS"), (u, "aAbB"), (v, "cCdD")):
            if part.strip(letters):  # a letter outside the part's alphabet
                raise WordError(f"key part {part!r} has a letter outside {letters!r}")
            if _CANCELLING.search(part):
                raise WordError(f"key part {part!r} is not freely reduced")
        return StallingsElement(quo, u, v)


def verify_stallings_witness(n: int = 1) -> dict:
    """The stallings bridge witness at scale n: R = 4n, and the bridge
    inside B(R) costs 2R."""
    # witness_lab imports this module for its stallings row
    from .witness_lab import verify_bridge
    return verify_bridge("stallings", n)
