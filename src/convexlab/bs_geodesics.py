"""Geodesic lengths and geodesic normal forms in BS(1,q).

Word length of an element g = (texp, num, dpow) with translation part
c = num * q^-dpow is computed over a two-stage digit walk.  The walk starts
at height 0, must visit height -dpow (where the lowest base-q digit of c
lives), ends at height texp, and may climb above base = max(0, texp) when
writing high digits up there is cheaper than spelling them out in a-letters.
With bottom B = min(0, texp, -dpow) and climb h the walk spends
texp - 2B + 2h t-letters; a-letters pay for the digits:

  * one balanced digit d (|d| <= floor(q/2)) per level from B to base - 1,
  * at base either a plain core a^i with |i| <= core_cap, or a climb block
    that writes one balanced digit per climbed level and a top digit s with
    2 <= |s| <= 3 (q = 2) or 1 <= |s| <= q - 1 (q > 2).

Minimizing digit cost over these shapes gives the distance in the Cayley
graph; correctness is pinned against brute-force BFS in the tests.  Ties are
broken deterministically: plain core before climb block, then smaller climb,
then lexicographically smallest digit vector (bottom level first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .bs_arith import BsElement, BsParams, bs_eval
from .errors import InvariantError
from .words import Word, WordClass, classify, gen_power

_INF = float("inf")


class NotGeodesicError(ValueError):
    """normalize() was handed a non-geodesic word."""


def element_class(el: BsElement) -> int:
    """Which of the four geodesic classes the element's geodesics fall in:
    1 = a-powers (E or X words), 2 = below-only (N or XN), 3 = above-only
    (P or PX), 4 = genuine down-up shapes (NP, NPX, XNP)."""
    if el.texp == 0 and el.dpow == 0:
        return 1
    if el.texp < 0 and el.dpow <= -el.texp:
        return 2
    if el.texp > 0 and el.dpow == 0:
        return 3
    return 4


def _balanced_digits(m: int, params: BsParams) -> list[int]:
    """Digits d with d = m mod q and |d| <= floor(q/2), ascending."""
    q = params.q
    r = m % q
    out = []
    if q - r <= params.half:
        out.append(r - q)
    if r <= params.half:
        out.append(r)
    return out


def _walk_parts(el: BsElement, params: BsParams) -> tuple[int, int, int]:
    """(bottom, base, m0): walk bottom, core height, and the integer
    c * q^-bottom the digits must spell."""
    bottom = min(0, el.texp, -el.dpow)
    base = max(0, el.texp)
    m0 = el.num * params.q ** (-el.dpow - bottom)
    return bottom, base, m0


def _climb_dead(m: int, q: int) -> bool:
    # states that can never reach a legal top digit: 0 stays 0; for q = 2
    # the states +-1 cycle below the |s| >= 2 threshold
    return m == 0 or (q == 2 and abs(m) == 1)


def _climb_frontiers(m0: int, params: BsParams) -> list[dict[int, int]]:
    """Forward frontiers of the climb DP: frontiers[h] maps the remainder
    after h climbed levels to the minimal digit cost spent so far."""
    q = params.q
    frontiers = [{m0: 0}]
    cur = {} if _climb_dead(m0, q) else {m0: 0}
    while cur:
        nxt: dict[int, int] = {}
        for m, c in cur.items():
            for d in _balanced_digits(m, params):
                m2 = (m - d) // q
                c2 = c + abs(d)
                if c2 < nxt.get(m2, _INF):
                    nxt[m2] = c2
        frontiers.append(nxt)
        # dead states never stop, so dropping them from the live frontier
        # only trims doomed branches; remainders shrink toward 0, which
        # bounds the height, but keep a hard stop anyway
        cur = {m: c for m, c in nxt.items() if not _climb_dead(m, q)}
        if len(frontiers) > abs(m0).bit_length() + 8:
            raise InvariantError("climb DP failed to terminate")
    return frontiers


def _climb_cost(m0: int, params: BsParams) -> Union[int, float]:
    """Minimal 2h + sum|k_j| + |s| over climb blocks writing m0, or inf."""
    best: Union[int, float] = _INF
    frontiers = _climb_frontiers(m0, params)
    for h in range(1, len(frontiers)):
        for m, c in frontiers[h].items():
            if params.top_digit_ok(m):
                total = 2 * h + c + abs(m)
                if total < best:
                    best = total
    return best


_CORE_CACHE: dict[tuple[int, int], Union[int, float]] = {}


def _core_cost(m: int, params: BsParams) -> Union[int, float]:
    """Minimal a-letter + climb cost of absorbing remainder m at the base."""
    key = (params.q, m)
    hit = _CORE_CACHE.get(key)
    if hit is not None:
        return hit
    best = abs(m) if abs(m) <= params.core_cap else _INF
    climb = _climb_cost(m, params)
    cost = best if best <= climb else climb
    _CORE_CACHE[key] = cost
    return cost


def _below_frontiers(m0: int, levels: int, params: BsParams) -> list[dict[int, int]]:
    """Forward frontiers of the below-stage DP, one balanced digit per level."""
    frontiers = [{m0: 0}]
    q = params.q
    for _ in range(levels):
        cur = frontiers[-1]
        nxt: dict[int, int] = {}
        for m, c in cur.items():
            for d in _balanced_digits(m, params):
                m2 = (m - d) // q
                c2 = c + abs(d)
                if c2 < nxt.get(m2, _INF):
                    nxt[m2] = c2
        frontiers.append(nxt)
    return frontiers


def geodesic_length(g: Union[BsElement, Word], params: BsParams) -> int:
    """Distance from the identity in the Cayley graph of BS(1,q)."""
    el = bs_eval(g, params) if isinstance(g, Word) else g
    bottom, base, m0 = _walk_parts(el, params)
    frontiers = _below_frontiers(m0, base - bottom, params)
    walk = el.texp - 2 * bottom
    best: Union[int, float] = _INF
    for m, c in frontiers[-1].items():
        total = c + _core_cost(m, params)
        if total < best:
            best = total
    if best == _INF:
        raise InvariantError(f"digit walk found no path to {el}")
    return walk + int(best)


def is_geodesic(w: Word, params: BsParams) -> bool:
    return len(w) == geodesic_length(bs_eval(w, params), params)


@dataclass(frozen=True)
class XBlock:
    """Climb block: ascend `height` levels above its base, write the top
    digit, and one interior digit per level on the way back down.
    digits[j] sits j levels above the base; `top` sits at `height`."""

    height: int
    top: int
    digits: tuple[int, ...]

    def cost(self) -> int:
        return 2 * self.height + abs(self.top) + sum(abs(k) for k in self.digits)

    def render(self, orientation: str = "PN") -> Word:
        """PN: t^h a^top t^-1 a^{k_(h-1)} ... t^-1 a^{k_0}.
        NP mirror: a^{k_0} t a^{k_1} ... t a^{k_(h-1)} t a^top t^-h."""
        if orientation == "PN":
            w = gen_power("t", self.height) * gen_power("a", self.top)
            for j in range(self.height - 1, -1, -1):
                w = w * gen_power("t", -1) * gen_power("a", self.digits[j])
            return w
        if orientation == "NP":
            w = Word()
            for j in range(self.height):
                w = w * gen_power("a", self.digits[j]) * gen_power("t", 1)
            return w * gen_power("a", self.top) * gen_power("t", -self.height)
        raise ValueError(f"unknown orientation {orientation!r}")


@dataclass(frozen=True)
class GeodesicNormalForm:
    """Digit data of a geodesic spelling of `element`.

    digits[i] is the balanced digit written at height bottom + i, for the
    levels bottom .. base-1; `core` (a plain a-power or an XBlock) sits at
    base = max(0, texp).  Rendering lays these out in the shape of the
    element's class; see render()."""

    params: BsParams
    element: BsElement
    bottom: int
    digits: tuple[int, ...]
    core: Union[int, XBlock]

    @property
    def base(self) -> int:
        return self.bottom + len(self.digits)

    @property
    def class_tag(self) -> int:
        return element_class(self.element)

    @property
    def length(self) -> int:
        walk = self.element.texp - 2 * self.bottom
        core = abs(self.core) if isinstance(self.core, int) else self.core.cost()
        return walk + sum(abs(d) for d in self.digits) + core

    def digit_at(self, height: int) -> int:
        return self.digits[height - self.bottom]

    @property
    def dip_count(self) -> int:
        """e: number of descending levels (0 unless the walk dips below 0)."""
        return -self.bottom

    @property
    def rise_count(self) -> int:
        """f: number of ascending levels above the bottom."""
        return self.element.texp - self.bottom

    def _core_word(self, x_orientation: str) -> Word:
        if isinstance(self.core, int):
            return gen_power("a", self.core)
        return self.core.render(x_orientation)

    def render(self, x_orientation: str = "PN", class4_form: str | None = None) -> Word:
        """Geodesic word spelling the element.

        Class (1): the core block alone.  Class (2): core, then descend
        writing a digit after each t^-1.  Class (3): ascend writing a digit
        before each t, core on top.  Class (4) has two layouts: 'down_first'
        (t^-e, then ascend with digits, core on top; needs texp >= 0) and
        'core_first' (core, descend with digits, then bare t^f; needs
        texp <= 0).  The default picks down_first iff texp >= 0."""
        cls = self.class_tag
        core_at_top = self._core_word(x_orientation)
        if cls == 1:
            return core_at_top
        if cls == 2:
            w = core_at_top
            for height in range(-1, self.bottom - 1, -1):
                w = w * gen_power("t", -1) * gen_power("a", self.digit_at(height))
            return w
        if cls == 3:
            w = Word()
            for height in range(0, self.base):
                w = w * gen_power("a", self.digit_at(height)) * gen_power("t", 1)
            return w * core_at_top
        form = class4_form
        if form is None:
            form = "down_first" if self.element.texp >= 0 else "core_first"
        if form == "down_first":
            if self.element.texp < 0:
                raise ValueError("down_first layout needs texp >= 0")
            w = gen_power("t", self.bottom)
            for height in range(self.bottom, self.base):
                w = w * gen_power("a", self.digit_at(height)) * gen_power("t", 1)
            return w * core_at_top
        if form == "core_first":
            if self.element.texp > 0:
                raise ValueError("core_first layout needs texp <= 0")
            w = self._core_word(x_orientation)
            for height in range(-1, self.bottom - 1, -1):
                w = w * gen_power("t", -1) * gen_power("a", self.digit_at(height))
            return w * gen_power("t", self.element.texp - self.bottom)
        raise ValueError(f"unknown class-4 form {form!r}")

    def validate(self) -> None:
        """Check every shape invariant and that the rendering really spells
        the element at the claimed length."""
        el, params = self.element, self.params
        expect_bottom = min(0, el.texp, -el.dpow)
        if self.bottom != expect_bottom:
            raise InvariantError(f"bottom {self.bottom} != {expect_bottom}")
        if len(self.digits) != max(0, el.texp) - self.bottom:
            raise InvariantError("digit vector has the wrong span")
        for i, d in enumerate(self.digits):
            if abs(d) > params.half:
                raise InvariantError(f"interior digit {d} out of range")
            if self.bottom + i < -el.dpow and d != 0:
                raise InvariantError("nonzero digit below the support")
        if isinstance(self.core, int):
            if abs(self.core) > params.core_cap:
                raise InvariantError(f"core {self.core} above cap")
        else:
            xb = self.core
            if xb.height < 1 or len(xb.digits) != xb.height:
                raise InvariantError("malformed climb block")
            if not params.top_digit_ok(xb.top):
                raise InvariantError(f"top digit {xb.top} out of range")
            if any(abs(k) > params.half for k in xb.digits):
                raise InvariantError("climb digit out of range")
        cls = self.class_tag
        if cls == 2 and self.dip_count < 1:
            raise InvariantError("class 2 without a dip")
        if cls == 3 and self.rise_count < 1:
            raise InvariantError("class 3 without a rise")
        if cls == 4 and (self.dip_count < 1 or self.rise_count < 1):
            raise InvariantError("class 4 needs a dip and a rise")
        rendered = self.render()
        if bs_eval(rendered, params) != el:
            raise InvariantError("rendering evaluates to a different element")
        if len(rendered) != self.length:
            raise InvariantError("rendering length != digit cost")


def _solve(el: BsElement, params: BsParams) -> GeodesicNormalForm:
    """Run the digit DP and reconstruct the deterministic minimal form."""
    bottom, base, m0 = _walk_parts(el, params)
    levels = base - bottom
    frontiers = _below_frontiers(m0, levels, params)
    # backward costs over the reachable states
    back: list[dict[int, Union[int, float]]] = [dict() for _ in range(levels + 1)]
    for m in frontiers[levels]:
        back[levels][m] = _core_cost(m, params)
    for j in range(levels - 1, -1, -1):
        for m in frontiers[j]:
            best: Union[int, float] = _INF
            for d in _balanced_digits(m, params):
                c = abs(d) + back[j + 1][(m - d) // params.q]
                if c < best:
                    best = c
            back[j][m] = best
    # forward reconstruction, smallest digit first on ties
    digits = []
    m = m0
    for j in range(levels):
        for d in _balanced_digits(m, params):
            if abs(d) + back[j + 1][(m - d) // params.q] == back[j][m]:
                digits.append(d)
                m = (m - d) // params.q
                break
        else:
            raise InvariantError("below-stage reconstruction lost the optimum")
    core = _reconstruct_core(m, params)
    nf = GeodesicNormalForm(params, el, bottom, tuple(digits), core)
    if nf.length != el.texp - 2 * bottom + back[0][m0]:
        raise InvariantError("normal form length differs from the digit cost")
    return nf


def _reconstruct_core(m: int, params: BsParams) -> Union[int, XBlock]:
    cost = _core_cost(m, params)
    if cost is _INF or cost == _INF:
        raise InvariantError(f"remainder {m} admits no core block")
    if abs(m) <= params.core_cap and abs(m) == cost:
        return m
    frontiers = _climb_frontiers(m, params)
    pick = None
    for h in range(1, len(frontiers)):
        for mm, c in sorted(frontiers[h].items()):
            if params.top_digit_ok(mm) and 2 * h + c + abs(mm) == cost:
                pick = (h, mm)
                break
        if pick:
            break
    if pick is None:
        raise InvariantError("climb reconstruction lost the optimum")
    h_star, top = pick
    # backward over climb levels, then forward choosing smallest digits
    back: list[dict[int, Union[int, float]]] = [dict() for _ in range(h_star + 1)]
    back[h_star] = {top: abs(top)}
    for j in range(h_star - 1, -1, -1):
        for mm in frontiers[j]:
            best: Union[int, float] = _INF
            for d in _balanced_digits(mm, params):
                nxt = back[j + 1].get((mm - d) // params.q)
                if nxt is not None and abs(d) + nxt < best:
                    best = abs(d) + nxt
            if best is not _INF:
                back[j][mm] = best
    ks = []
    cur = m
    for j in range(h_star):
        for d in _balanced_digits(cur, params):
            nxt = back[j + 1].get((cur - d) // params.q)
            if nxt is not None and abs(d) + nxt == back[j][cur]:
                ks.append(d)
                cur = (cur - d) // params.q
                break
        else:
            raise InvariantError("climb digit reconstruction lost the optimum")
    if cur != top:
        raise InvariantError(f"climb digits end at {cur}, not the top digit {top}")
    return XBlock(h_star, top, tuple(ks))


def normalize(w: Union[Word, BsElement], params: BsParams) -> GeodesicNormalForm:
    """Geodesic normal form of the element spelled by w.  Raises
    NotGeodesicError when w is a word that is longer than the distance
    (elements are always accepted)."""
    if isinstance(w, Word):
        el = bs_eval(w, params)
        nf = _solve(el, params)
        if len(w) > nf.length:
            raise NotGeodesicError(
                f"word of length {len(w)} spells an element at distance {nf.length}")
        if len(w) < nf.length:
            raise InvariantError("word shorter than the computed distance")
        return nf
    return _solve(w, params)


def tilde(w: Word, params: BsParams) -> Word:
    """Replace the X-shaped end of the word by the a-power it equals.

    E, N, P and NP words are returned unchanged; X, XN and XNP words get
    their X prefix replaced; PX and NPX words their X suffix.  Undefined
    (raises) for OTHER-class words."""
    cls = classify(w)
    if cls in (WordClass.E, WordClass.N, WordClass.P, WordClass.NP):
        return w
    if cls is WordClass.OTHER:
        raise ValueError("tilde is defined only on the geodesic word classes")
    if cls in (WordClass.X, WordClass.XN, WordClass.XNP):
        return _tilde_prefix(w, params)
    return _tilde_prefix(w.inverse(), params).inverse()


def _tilde_prefix(w: Word, params: BsParams) -> Word:
    letters = list(w.letters())
    height = 0
    seen_up = False
    cut = None
    for i, (gen, s) in enumerate(letters):
        if gen == "t":
            height += s
            seen_up = seen_up or s > 0
            if seen_up and height == 0:
                cut = i + 1
                break
    if cut is None:
        raise ValueError("word has no X-shaped prefix")
    xpart = Word.from_letters(letters[:cut])
    rest = Word.from_letters(letters[cut:])
    el = bs_eval(xpart, params)
    if el.texp != 0 or el.dpow != 0:
        raise ValueError("prefix does not evaluate to an a-power")
    return gen_power("a", el.num) * rest


def has_pinch(w: Word, params: BsParams) -> bool:
    """True when some subword t^-1 a^j t has q | j (j is the signed a-run
    between the two t letters; j = 0 counts)."""
    q = params.q
    open_run = False
    j = 0
    for gen, s in w.letters():
        if gen == "t":
            if s < 0:
                open_run = True
                j = 0
            else:
                if open_run and j % q == 0:
                    return True
                open_run = False
        elif open_run:
            j += s
    return False
