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
else add the new one).  Evaluation folds it, which makes the triple (quo,
u, v) a canonical form suitable for exhaustive BFS.  The triple is a named
tuple.  A ball key is the ascii text "quo|u|v".

As the HNN extension of K = F(a,b) x F(c,d) along H, the group acts on a
Bass-Serre tree, which prices lengths with no ball (gamma_length_special)
and bounds paths inside B(R) from K to sK (edge_cut, the bridge witness).
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional, Union

from .words import STALLINGS_ALPHABET, Word, parse_word

RELATORS = ("acAC", "adAD", "bcBC", "bdBD", "sAbSBa", "sAcSCa", "sAdSDa")

_GEN_NAMES = ("a", "A", "b", "B", "c", "C", "d", "D", "s", "S")


class StallingsElement(NamedTuple):
    """Canonical triple of reduced letter strings (uppercase = inverse):
    quo over {a,s}, u over F(a,b), v over F(c,d)."""

    quo: str = ""
    u: str = ""
    v: str = ""

    def is_identity(self) -> bool:
        return not (self.quo or self.u or self.v)


S_IDENTITY = StallingsElement()


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


def in_H(g: StallingsElement) -> bool:
    """Membership in the centralized subgroup (trivial quotient image)."""
    return not g.quo


def gamma_length_special(g: StallingsElement) -> Optional[int]:
    """Word length of x, s x or x s for x = (a^e u, v) in K, or None for an
    element of any other shape: the number of s letters plus |a^e u| + |v|,
    since the retraction s -> 1 is 1-Lipschitz and a geodesic has no pinch
    (Britton's lemma)."""
    rest = g.quo.strip("sS")
    if "s" in rest or "S" in rest or len(g.quo) - len(rest) > 1:
        return None
    return len(g.quo) - len(rest) + len(_join(rest, g.u)) + len(g.v)


def _least_crossing(w1: str, k1: str, budget: int) -> int:
    """The least |w1^-1 p| + 1 + |p^-1 k1| over p = p1 c^-sigma(p1), p1
    reduced in F(a,b) and |p| = |p1| + |sigma(p1)| <= budget: the least
    F(c,d) factor makes it |w1^-1 p1| + |p1^-1 k1| + 2|sigma(p1)| + 1.  Cut
    back to its longest common prefix q with w1 or k1, p1 loses 2(|p1| -
    |q|) of the distance sum, at least what 2|sigma| can gain, and stays in
    budget; so only q = x[:i] for x = w1, k1 is tried, at a distance sum of
    |w1| + |k1| - 2 min(i, |lcp(w1, k1)|)."""
    shared, through = len(os.path.commonprefix((w1, k1))), len(w1) + len(k1) + 1
    least = through  # p = 1
    for x in (w1, k1):
        sigma = 0
        for i, ch in enumerate(x, 1):
            sigma += 1 if ch.islower() else -1
            if i + abs(sigma) > budget:  # never falls back as i grows
                break
            least = min(least, through - 2 * min(i, shared) + 2 * abs(sigma))
    return least


def edge_cut(w: StallingsElement, u: StallingsElement, radius: int) -> int:
    """A lower bound on every path from w in F(a,b) to u = s k in s F(a,b)
    inside B(radius), which must cross the tree edge {K, sK} by a step p ->
    ps with p in H and |p| <= radius - 1, at a cost of at least |w^-1 p| + 1
    + |p^-1 k|; p runs over the exponent-sum-zero subgroup, which holds H.
    p = 1 is the path through the identity, so ValueError unless the cut is
    d(w) + d(u), and for a pair of any other shape."""
    if w.v or u.v or w.quo.strip("aA") or u.quo[:1] != "s" or u.quo[1:].strip("aA"):
        raise ValueError("the edge cut takes w in F(a,b) and u in s F(a,b)")
    w1, k1 = _join(w.quo, w.u), _join(u.quo[1:], u.u)
    cut, through = _least_crossing(w1, k1, radius - 1), len(w1) + 1 + len(k1)
    if cut < through:
        raise ValueError(f"the edge cut bounds the bridge by {cut} only,"
                         f" below d(w) + d(u) = {through}")
    return cut


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
        """The element whose key() this is."""
        return StallingsElement(*key.decode("ascii").split("|"))


def verify_stallings_witness(n: int = 1) -> dict:
    """The stallings bridge witness at scale n: R = 4n, and the bridge
    inside B(R) costs 2R."""
    # witness_lab imports this module for its stallings row
    from .witness_lab import verify_bridge
    return verify_bridge("stallings", n)
