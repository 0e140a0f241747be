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

Both stages are loops over _step, which writes one balanced digit under
every state and divides by q; the climb stops once no state can reach a
top digit.  One helper, _price, runs the below stage and prices each
state at the base by its cheapest core (_core); the minimal digit cost
gives the Cayley-graph distance (pinned against brute-force BFS in the
tests).  geodesic_length returns it; normalize hands _price's frontiers to
_trace, which reconstructs a minimal form: backward costs, then a forward
pass taking the smallest optimal digit.  Ties go to the lexicographically
least below digits (bottom level first), then plain core before climb
block, smaller climb, smaller top digit, least climb digits.  Words are
laid out by descent_word (core, t^-1 a^d per level down, t^rise) or
ascent_word (t^-dip, a^d t per level up, core); every class and the climb
block use these two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from typing import Optional, Sequence, Union

from .bs_arith import IDENTITY, BsElement, BsGroupModel, BsParams, bs_eval, bs_inv, bs_mul
from .errors import InvariantError
from .words import Word, WordClass, classify, gen_power

_INF = float("inf")

# most levels a normal form may span: it holds one digit per level
_MAX_SPAN = 10 ** 6


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


@cache
def _digit_table(q: int) -> tuple[tuple[int, ...], ...]:
    """Entry r lists the digits d with d = r mod q and |d| <= floor(q/2),
    ascending (two of them only for r = q/2 with q even)."""
    return tuple(tuple(d for d in (r - q, r) if abs(d) <= q // 2) for r in range(q))


def _climb_dead(m: int, q: int) -> bool:
    # states that can never reach a legal top digit: 0 stays 0; for q = 2
    # the states +-1 cycle below the |s| >= 2 threshold
    return m == 0 or (q == 2 and abs(m) == 1)


def _step(frontier: dict[int, int], params: BsParams) -> dict[int, int]:
    """One level of the digit walk: write a balanced digit under each state
    and divide by q, keeping the cheapest cost of every remainder."""
    q = params.q
    table = _digit_table(q)
    nxt: dict[int, int] = {}
    for m, c in frontier.items():
        for d in table[m % q]:
            m2 = (m - d) // q
            c2 = c + abs(d)
            if c2 < nxt.get(m2, _INF):
                nxt[m2] = c2
    return nxt


def _below_frontiers(m0: int, levels: int, params: BsParams) -> list[dict[int, int]]:
    """Forward frontiers of the below stage: frontiers[j] maps the remainder
    after j levels to the minimal digit cost spent so far.  The walk stops
    at remainder 0 once no state costs less: from 0 the rest is free (digit
    0 on every level left, core 0) and from any other state it costs at
    least 1, so every path it drops is strictly worse."""
    frontiers = [{m0: 0}]
    for _ in range(levels):
        frontier = frontiers[-1]
        if 0 in frontier and frontier[0] == min(frontier.values()):
            frontiers[-1] = {0: frontier[0]}
            break
        frontiers.append(_step(frontier, params))
    return frontiers


def _climb_frontiers(m0: int, params: BsParams) -> list[dict[int, int]]:
    """Forward frontiers of a climb block, frontiers[h] after h climbed
    levels.  The climb stops once no state can still reach a top digit."""
    q = params.q
    frontiers = [{m0: 0}]
    live = {} if _climb_dead(m0, q) else frontiers[0]
    while live:
        frontiers.append(_step(live, params))
        # dead states never stop, so dropping them only trims doomed
        # branches; remainders shrink toward 0, which bounds the height,
        # but keep a hard stop anyway
        live = {m: c for m, c in frontiers[-1].items() if not _climb_dead(m, q)}
        if len(frontiers) > abs(m0).bit_length() + 8:
            raise InvariantError("climb DP failed to terminate")
    return frontiers


_CORE_CACHE: dict[tuple[int, int], tuple[Union[int, float], Union[int, XBlock, None]]] = {}


def _core(m: int, params: BsParams) -> tuple[Union[int, float], Union[int, XBlock, None]]:
    """Minimal cost of absorbing remainder m at the base, and the core block
    that attains it: the plain a^m (cost |m|, |m| <= core_cap) when it is
    optimal, else the climb block of least (height, top digit), which costs
    2h + sum|k_j| + |s|.  (inf, None) when neither fits."""
    key = (params.q, m)
    hit = _CORE_CACHE.get(key)
    if hit is not None:
        return hit
    plain = abs(m) if abs(m) <= params.core_cap else _INF
    frontiers = _climb_frontiers(m, params)
    cost, h, top = min(((2 * h + c + abs(top), h, top)
                        for h, frontier in enumerate(frontiers[1:], 1)
                        for top, c in frontier.items() if params.top_digit_ok(top)),
                       default=(_INF, 0, 0))
    if plain <= cost:
        hit = (plain, None if plain == _INF else m)
    else:
        digits, end = _trace(frontiers[:h + 1], {top: abs(top)}, params)
        if end != top:
            raise InvariantError(f"climb digits end at {end}, not the top digit {top}")
        hit = (cost, XBlock(h, top, tuple(digits)))
    _CORE_CACHE[key] = hit
    return hit


def _trace(frontiers: list[dict[int, int]], last: dict[int, Union[int, float]],
           params: BsParams) -> tuple[list[int], int]:
    """Cheapest digit path through the levels of `frontiers`, whose top
    level is priced by `last` (remaining cost per state) instead.

    Backward costs are computed over the reachable states; the forward pass
    from the single start state then takes the smallest digit among the
    optimal ones.  Returns (digits, end state)."""
    q = params.q
    table = _digit_table(q)
    back = [last]
    for frontier in reversed(frontiers[:-1]):
        above = back[-1]
        here: dict[int, Union[int, float]] = {}
        for m in frontier:
            best: Union[int, float] = _INF
            for d in table[m % q]:
                c = abs(d) + above.get((m - d) // q, _INF)
                if c < best:
                    best = c
            here[m] = best
        back.append(here)
    back.reverse()
    (start,) = frontiers[0]
    digits = []
    m = start
    for j in range(len(frontiers) - 1):
        for d in table[m % q]:
            if abs(d) + back[j + 1].get((m - d) // q, _INF) == back[j][m]:
                digits.append(d)
                m = (m - d) // q
                break
        else:
            raise InvariantError("digit reconstruction lost the optimum")
    return digits, m


def _price(el: BsElement, params: BsParams
           ) -> tuple[int, list[dict[int, int]], dict[int, Union[int, float]], int]:
    """(bottom, frontiers, last, length) of el's digit walk: the below-stage
    frontiers from height -dpow (digit 0 below it) up to the base or the
    walk's stop; the core cost of each top state; the word length of el."""
    bottom = min(0, el.texp, -el.dpow)
    frontiers = _below_frontiers(el.num, max(0, el.texp) + el.dpow, params)
    last = {m: _core(m, params)[0] for m in frontiers[-1]}
    best = min(c + last[m] for m, c in frontiers[-1].items())
    if best == _INF:
        raise InvariantError(f"digit walk found no path to {el}")
    return bottom, frontiers, last, el.texp - 2 * bottom + int(best)


def geodesic_length(g: Union[BsElement, Word], params: BsParams) -> int:
    """Distance from the identity in the Cayley graph of BS(1,q)."""
    el = bs_eval(g, params) if isinstance(g, Word) else g
    return _price(el, params)[3]


def is_geodesic(w: Word, params: BsParams) -> bool:
    return len(w) == geodesic_length(bs_eval(w, params), params)


def in_ball_bridge(src: BsElement, dst: BsElement, radius: int, params: BsParams,
                   avoid_identity: bool = False) -> Optional[int]:
    """Length of a shortest path from src to dst inside B(radius), or None
    when there is none.  With avoid_identity no path passes through the
    identity, though src or dst may be it.

    An A* search (Hart, Nilsson and Raphael, 1968) that builds no ball: a
    node x lies in B(radius) when geodesic_length(x) <= radius, priced once
    per node, and its heuristic is the exact group distance from x to dst,
    geodesic_length(dst^-1 x), priced once per node pushed.  dst^-1 x is
    carried along each edge with x.  The heuristic is consistent (one
    letter moves it by at most one), so the first pop of dst gives the
    bridge; an unreachable dst is proven by exhausting every node that src
    reaches inside the ball."""
    for end in (src, dst):
        if geodesic_length(end, params) > radius:
            raise ValueError("bridge endpoints must lie inside the ball")
    if src == dst:
        return 0
    apply_gen = BsGroupModel(params).apply_gen
    gens = range(len(BsGroupModel.GEN_NAMES))
    y = bs_mul(bs_inv(dst, params), src, params)
    best = {src: 0}  # least path length found to each node inside the ball
    # nodes never entered: those found outside the ball, and the identity
    # when it is avoided and is not dst
    barred = {IDENTITY} if avoid_identity and dst != IDENTITY else set()
    heap = [(geodesic_length(y, params), 0, src, y)]
    while heap:
        _, minus_g, x, y = heappop(heap)
        g = -minus_g
        if x == dst:
            return g
        if g > best[x]:
            continue  # a shorter path to x was expanded already
        g += 1
        for i in gens:
            x2 = apply_gen(x, i)
            old = best.get(x2)
            if old is None:
                if x2 in barred:
                    continue
                if geodesic_length(x2, params) > radius:
                    barred.add(x2)
                    continue
            elif old <= g:
                continue
            best[x2] = g
            y2 = apply_gen(y, i)
            # ties go to the deeper node, which is nearer dst
            heappush(heap, (g + geodesic_length(y2, params), -g, x2, y2))
    return None


def descent_word(core: Word, digits_down: Sequence[int], rise: int = 0) -> Word:
    """core, then t^-1 a^d for each d (digits_down[j] sits j + 1 levels
    below the core), then t^rise."""
    runs = list(core.runs)
    for d in digits_down:
        runs += (("t", -1), ("a", d))
    runs.append(("t", rise))
    return Word.from_runs(runs)


def ascent_word(dip: int, digits_up: Sequence[int], core: Word) -> Word:
    """t^-dip, then a^d t for each d (digits_up[j] sits j levels above the
    bottom), then core."""
    runs = [("t", -dip)]
    for d in digits_up:
        runs += (("a", d), ("t", 1))
    runs += core.runs
    return Word.from_runs(runs)


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

    def render(self) -> Word:
        """t^h a^top t^-1 a^{k_(h-1)} ... t^-1 a^{k_0}."""
        return descent_word(Word.from_runs((("t", self.height), ("a", self.top))),
                            self.digits[::-1])


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
    def class_tag(self) -> int:
        return element_class(self.element)

    @property
    def length(self) -> int:
        walk = self.element.texp - 2 * self.bottom
        core = abs(self.core) if isinstance(self.core, int) else self.core.cost()
        return walk + sum(abs(d) for d in self.digits) + core

    def render(self, class4_form: str | None = None) -> Word:
        """Geodesic word spelling the element, in one of two layouts:
        'down_first' (t^-e, then ascend writing a digit before each t, core
        on top; needs texp >= 0) and 'core_first' (core, then descend
        writing a digit after each t^-1, then bare t^f; needs texp <= 0).
        Classes (1) and (3) are down_first words and class (2) a core_first
        word.  Only class (4) takes class4_form; its default, like every
        other class, is down_first iff texp >= 0."""
        texp = self.element.texp
        core = (gen_power("a", self.core) if isinstance(self.core, int)
                else self.core.render())
        form = class4_form if self.class_tag == 4 else None
        if form is None:
            form = "down_first" if texp >= 0 else "core_first"
        if form == "down_first":
            if texp < 0:
                raise ValueError("down_first layout needs texp >= 0")
            return ascent_word(-self.bottom, self.digits, core)
        if form == "core_first":
            if texp > 0:
                raise ValueError("core_first layout needs texp <= 0")
            return descent_word(core, self.digits[::-1], texp - self.bottom)
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
        cls, dip, rise = self.class_tag, -self.bottom, el.texp - self.bottom
        if cls == 2 and dip < 1:
            raise InvariantError("class 2 without a dip")
        if cls == 3 and rise < 1:
            raise InvariantError("class 3 without a rise")
        if cls == 4 and (dip < 1 or rise < 1):
            raise InvariantError("class 4 needs a dip and a rise")
        rendered = self.render()
        if bs_eval(rendered, params) != el:
            raise InvariantError("rendering evaluates to a different element")
        if len(rendered) != self.length:
            raise InvariantError("rendering length != digit cost")


def _solve(el: BsElement, params: BsParams) -> GeodesicNormalForm:
    """Run the digit DP and reconstruct the deterministic minimal form."""
    bottom, frontiers, last, length = _price(el, params)
    span = max(0, el.texp) - bottom
    if span > _MAX_SPAN:
        raise ValueError(f"the normal form spans {span} levels, more than {_MAX_SPAN}")
    digits, m = _trace(frontiers, last, params)
    core = _core(m, params)[1]
    if core is None:
        raise InvariantError(f"remainder {m} admits no core block")
    lead = [0] * (-el.dpow - bottom)
    digits = lead + digits + [0] * (span - len(lead) - len(digits))
    nf = GeodesicNormalForm(params, el, bottom, tuple(digits), core)
    if nf.length != length:
        raise InvariantError("normal form length differs from the digit cost")
    return nf


def normalize(w: Union[Word, BsElement], params: BsParams) -> GeodesicNormalForm:
    """Geodesic normal form of the element spelled by w.  Raises
    NotGeodesicError when w is a word longer than the distance (elements
    are always accepted), ValueError for a form of over _MAX_SPAN levels."""
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
    xpart = Word.from_runs(letters[:cut])
    rest = Word.from_runs(letters[cut:])
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
