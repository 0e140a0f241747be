"""Exact arithmetic in Stallings' group.

Generators a, b, c, d, s: the pairs F(a,b) and F(c,d) commute, and the
stable letter s centralizes a^-1 b, a^-1 c and a^-1 d.  Killing those three
elements frees the quotient on the images of a and s, and every element
factors uniquely as section(quo) * h: quo is the reduced {a,s}-word of the
quotient image and h lies in the centralized subgroup H, realized inside
F(a,b) x F(c,d) as a pair (u, v) with total exponent sum zero.  The letter
rules below keep that factorization reduced at every step, which makes the
triple (quo, u, v) a canonical form suitable for exhaustive BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .words import (
    AB_ALPHABET,
    CD_ALPHABET,
    STALLINGS_ALPHABET,
    Word,
    concat,
    exp_sum,
    free_reduce,
    gen_power,
    parse_word,
)

RELATORS = ("acAC", "adAD", "bcBC", "bdBD", "sAbSBa", "sAcSCa", "sAdSDa")

_GEN_NAMES = ("a", "A", "b", "B", "c", "C", "d", "D", "s", "S")


@dataclass(frozen=True, slots=True)
class StallingsElement:
    """Canonical triple: quo over {a,s}, u over F(a,b), v over F(c,d)."""

    quo: Word = Word()
    u: Word = Word()
    v: Word = Word()

    def is_identity(self) -> bool:
        return not (self.quo or self.u or self.v)


S_IDENTITY = StallingsElement()


def _letter(el: StallingsElement, gen: str, sign: int) -> StallingsElement:
    """Right-multiply by one generator letter."""
    if gen == "s":
        return StallingsElement(free_reduce(el.quo * gen_power("s", sign)),
                                el.u, el.v)
    aconj = gen_power("a", -sign)
    if gen in ("a", "b"):
        u = free_reduce(concat(aconj, el.u, gen_power(gen, sign)))
        v = el.v
    else:
        u = free_reduce(aconj * el.u)
        v = free_reduce(el.v * gen_power(gen, sign))
    return StallingsElement(free_reduce(el.quo * gen_power("a", sign)), u, v)


def st_eval(w: Union[Word, str], start: StallingsElement = S_IDENTITY) -> StallingsElement:
    """Canonical form of the element spelled by a word over a,b,c,d,s."""
    if isinstance(w, str):
        w = parse_word(w, STALLINGS_ALPHABET)
    el = start
    for gen, sign in w.letters():
        el = _letter(el, gen, sign)
    return el


def st_mul(g: StallingsElement, h: StallingsElement) -> StallingsElement:
    """Product in canonical form.  The h-part of g gets conjugated through
    the a-exponent of h's quotient word; s acts trivially on H."""
    c = exp_sum(h.quo, "a")
    u1 = free_reduce(concat(gen_power("a", -c), g.u, gen_power("a", c)))
    return StallingsElement(free_reduce(g.quo * h.quo),
                            free_reduce(u1 * h.u),
                            free_reduce(g.v * h.v))


def st_inv(g: StallingsElement) -> StallingsElement:
    c = exp_sum(g.quo, "a")
    u = free_reduce(concat(gen_power("a", c), g.u.inverse(), gen_power("a", -c)))
    return StallingsElement(g.quo.inverse(), u, g.v.inverse())


def in_H(g: StallingsElement) -> bool:
    """Membership in the centralized subgroup (trivial quotient image)."""
    return not g.quo


def lambda_length(g: StallingsElement) -> int:
    """Free length of the direct-product form: |a^k u| + |v| where a^k is
    the (s-free) quotient word.  Raises on elements outside that part."""
    if any(gen == "s" for gen, _ in g.quo.runs):
        raise ValueError("lambda length needs an s-free quotient word")
    k = exp_sum(g.quo, "a")
    u = free_reduce(gen_power("a", k) * g.u)
    return len(u) + len(g.v)


def gamma_length_special(g: StallingsElement) -> Optional[int]:
    """Certified word length for the two easy shapes: s-free quotient word
    (the lambda length) and a single s^+-1 at either end of the quotient
    word (1 + lambda of the merged rest, since s commutes with H).  Returns
    None when neither shortcut applies."""
    runs = g.quo.runs
    s_letters = sum(abs(e) for gen, e in runs if gen == "s")
    if s_letters == 0:
        return lambda_length(g)
    if s_letters == 1 and len(runs) <= 2 and (runs[0][0] == "s" or runs[-1][0] == "s"):
        k = exp_sum(g.quo, "a")
        u = free_reduce(gen_power("a", k) * g.u)
        return 1 + len(u) + len(g.v)
    return None


class StallingsModel:
    """Group model plugging the canonical triples into the ball engine."""

    name = "stallings"

    def identity(self) -> StallingsElement:
        return S_IDENTITY

    def generator_names(self) -> tuple[str, ...]:
        return _GEN_NAMES

    def apply_gen(self, el: StallingsElement, i: int) -> StallingsElement:
        name = _GEN_NAMES[i]
        return _letter(el, name.lower(), -1 if name.isupper() else 1)

    def key(self, el: StallingsElement) -> bytes:
        return f"{el.quo}|{el.u}|{el.v}".encode("ascii")

    def element_from_key(self, key: bytes) -> StallingsElement:
        qs, us, vs = key.decode("ascii").split("|")
        return StallingsElement(parse_word(qs, STALLINGS_ALPHABET),
                                parse_word(us, AB_ALPHABET),
                                parse_word(vs, CD_ALPHABET))


def verify_stallings_witness(n: int = 1, cap: Optional[int] = None) -> dict:
    """Check the radius-4n witness pair alpha = b^-2n a^2n and
    beta = s b^-2n a^(2n-1): both sit on the sphere of R = 4n, differ by
    the length-2 element of "sA", yet every connecting path inside B(R)
    spends 2R steps, which beats the almost-convexity budget 4n + 4 is
    compared against.  Returns a JSON-ready report."""
    from .ball_engine import DEFAULT_CAP, build_ball, bridge_length

    if n < 1:
        raise ValueError("n must be >= 1")
    R = 4 * n
    alpha_word = gen_power("b", -2 * n) * gen_power("a", 2 * n)
    beta_word = gen_power("s", 1) * gen_power("b", -2 * n) * gen_power("a", 2 * n - 1)
    alpha_text, beta_text = str(alpha_word), str(beta_word)
    alpha = st_eval(alpha_word)
    beta = st_eval(beta_word)
    checks: dict[str, bool] = {}
    checks["relators"] = all(st_eval(r).is_identity() for r in RELATORS)
    checks["gamma_alpha"] = gamma_length_special(alpha) == R
    checks["gamma_beta"] = gamma_length_special(beta) == R
    checks["difference"] = st_mul(st_inv(alpha), beta) == st_eval("sA")
    model = StallingsModel()
    ball = build_ball(model, R, cap if cap is not None else DEFAULT_CAP)
    checks["radius_alpha"] = ball.distance(model.key(alpha)) == R
    checks["radius_beta"] = ball.distance(model.key(beta)) == R
    checks["difference_dist"] = ball.distance(model.key(st_eval("sA"))) == 2
    bridge = bridge_length(ball, alpha, beta)
    checks["bridge"] = bridge is not None and bridge == 2 * R and bridge >= 4 * n + 4
    first_violation = next((k for k, ok in checks.items() if not ok), None)
    return {
        "witness": "stallings",
        "n": n,
        "R": R,
        "alpha": alpha_text,
        "beta": beta_text,
        "ball_size": len(ball),
        "bridge": bridge,
        "checks": checks,
        "first_violation": first_violation,
        "ok": first_violation is None,
    }
