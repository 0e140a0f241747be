"""Geodesic lengths and geodesic normal forms in BS(1,q).

Word length of an element g = (texp, num, dpow) with translation part
c = num * q^-dpow comes from a digit walk.  The walk starts at height 0,
must visit height -dpow (where the lowest base-q digit of c lives), ends
at height texp, and may climb above base = max(0, texp) when writing high
digits up there is cheaper than spelling them out in a-letters.  With
bottom B = min(0, texp, -dpow) and climb h the walk spends texp - 2B + 2h
t-letters; a-letters pay for the digits:

  * one balanced digit d (|d| <= floor(q/2)) per level from B to base - 1,
  * at base either a plain core a^i with |i| <= core_cap, or a climb block
    that writes one balanced digit per climbed level and a top digit s with
    2 <= |s| <= 3 (q = 2) or 1 <= |s| <= q - 1 (q > 2).

Level j of the walk (height j - dpow) holds the remainder F_j + c, where
F_j = floor(num / q^j) and the carry c is -1, 0 or 1: writing a balanced
digit never moves the remainder further than that from F_j.  So the walk
reads the base-q floor digits of num once (_floor_digits: bin() for
q = 2^k, divide and conquer otherwise) and keeps three costs per level,
one per carry.  It runs backward, from the top level down, pricing each
carry by the least cost still to pay: over the climbed levels, where a
cost is the triple (cost, height of the top digit, top digit); at the
base, where the plain core competes with the climb; and over the levels
below.  Each level is one lookup in the per-q transition table of _Walk,
keyed by the level's digit and the costs above it written as offsets; the
table is filled on first use.  Only the top few levels, where F_j is
small, need F_j itself (a top digit or a plain core must equal the
remainder); there the costs stay exact.  Above the digits of num the
remainders lie in -2..1, and two levels up the walk is at remainder 0 at
least as cheaply as anywhere else (the stop of a forward walk), so a below
stage that reaches that high starts there at remainder 0 and `t^N` costs
nothing for any N.  A climb is walked down from the first level past both
the digits of num and the base: a remainder in -2..1 there either is a
top digit or never reaches one, and climbing on from it never pays.

geodesic_length returns the cost at level 0 (pinned in the tests against
brute-force BFS and against a quadratic walk over remainders).  normalize
follows the choice each level stored in a bytearray of codes, from level
0 up, which gives the least minimal form: every level takes its smallest
digit among the optimal ones, so ties go to the lexicographically least
below digits (bottom level first), then plain core before climb block,
smaller climb, smaller top digit, least climb digits.  Words are laid out
by descent_word (core, t^-1 a^d per level down, t^rise) or ascent_word
(t^-dip, a^d t per level up, core); every class and the climb block use
these two.  The walk refuses no element;
normalize refuses a form over MAX_LEVELS levels, since it holds one digit
per level, and bs_eval refuses a word whose translation would span more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from math import log2
from typing import Optional, Sequence, Union

from .bs_arith import (IDENTITY, MAX_LEVELS, BsElement, BsGroupModel, BsParams, bs_eval,
                       bs_inv, bs_mul)
from .errors import InvariantError
from .words import Word, WordClass, classify, gen_power


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


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _floor_digits(x: int, q: int) -> list[int]:
    """Base-q digits of x >= 0, top digit first, none for x = 0."""
    k = q.bit_length() - 1
    if q == 1 << k:
        bits = format(x, "b") if x else ""
        if k == 1:
            return list(bits.encode().translate(_BITS))
        bits = "0" * (-len(bits) % k) + bits
        return [int(bits[i:i + k], 2) for i in range(0, len(bits), k)]
    size = int(x.bit_length() / log2(q)) + 2  # q^size > x, with room for rounding
    powers: dict[int, int] = {}

    def split(x: int, size: int) -> list[int]:
        # exactly `size` digits of x < q^size; halves of the power split the rest
        if size <= 64:
            out = [0] * size
            for i in range(size - 1, -1, -1):
                x, out[i] = divmod(x, q)
            return out
        half = size // 2
        if half not in powers:
            powers[half] = q ** half
        hi, lo = divmod(x, powers[half])
        return split(hi, size - half) + split(lo, half)

    digits = split(x, size)
    lead = 0
    while lead < len(digits) and not digits[lead]:
        lead += 1
    return digits[lead:]


_BELOW, _BASE, _CLIMB = range(3)


class _Walk:
    """Transition tables of the carry walk for one q, filled on first use.

    A key holds one entry per carry -1, 0, 1 (None: no way on from there).
    Below the base an entry is the cost still to pay; over a climb it is
    the triple (cost, levels up to the top digit, top digit).  An entry is
    exact while the walk is still among the top levels, where F_j is
    small.  Below them it is offset from the level's least cost (and, for
    a climb, least height, with each top digit replaced by its rank among
    the level's, which is all a tie needs), which keeps the number of keys
    finite.  A level's symbol is its digit r_j in 0..q-1, or q + small + F_j
    where |F_j| <= small.  rows[stage][key id] maps a symbol to (key id one
    level down, cost added, code); the code holds two bits per carry: the
    carry one level up that the cheapest smallest digit leads to, or 3
    where the walk ends (plain core, top digit) or has no way on."""

    def __init__(self, params: BsParams):
        self.params = params
        # a remainder with |F_j| above this is no top digit or plain core
        self.small = max(params.q, 4)
        self.keys: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.rows: tuple[list, list, list] = ([], [], [])
        self.dead = self.key_id((None, None, None))

    def key_id(self, key: tuple) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            for rows in self.rows:
                rows.append({})
        return i

    def run(self, stage: int, syms: Sequence[int], key: int, codes: bytearray) -> tuple[int, int]:
        """Walk the levels of syms (top first) from key; returns the key of
        the lowest level and the cost the levels added, appending one code
        per level."""
        rows = self.rows[stage]
        cost = 0
        for s in syms:
            try:
                key, delta, code = rows[key][s]
            except KeyError:
                entry = rows[key][s] = self._entry(stage, key, s)
                key, delta, code = entry
            cost += delta
            codes.append(code)
        return key, cost

    def _entry(self, stage: int, key: int, s: int) -> tuple[int, int, int]:
        params = self.params
        q = params.q
        f = None if s < q else s - q - self.small
        r = s if f is None else f % q
        above = self.keys[key]
        costs: list = []
        code = 0
        for i in range(3):
            c = i - 1
            best, choice, plain = None, 3, None
            if f is not None and stage == _CLIMB and params.top_digit_ok(f + c):
                best = (abs(f + c), 0, f + c)  # the top digit, here
            if f is not None and stage == _BASE and abs(f + c) <= params.core_cap:
                plain = abs(f + c)
            for d in _digit_table(q)[(r + c) % q]:
                j = (r + c - d) // q + 1
                e = above[j]
                if e is None:
                    continue
                cand = abs(d) + e if stage == _BELOW else (abs(d) + 2 + e[0], e[1] + 1, e[2])
                if best is None or cand < best:
                    best, choice = cand, j
            if stage == _BASE:
                best = None if best is None else best[0]
                if plain is not None and (best is None or plain <= best):
                    best, choice = plain, 3
            costs.append(best)
            code |= choice << 2 * i
        live = [e for e in costs if e is not None]
        # a below or base cost is only compared with those of its own level;
        # a climb cost stays exact among the top levels, where a top digit
        # adds its absolute cost, and is offset once only digits remain
        if stage != _CLIMB:
            low = min(live, default=0)
            return self.key_id(tuple(None if e is None else e - low for e in costs)), low, code
        if f is not None or not live:
            return self.key_id(tuple(costs)), 0, code
        # no top digit is written here, so only the order of the tops matters
        low, height = min(e[0] for e in live), min(e[1] for e in live)
        rank = sorted({e[2] for e in live}).index
        return (self.key_id(tuple(None if e is None else (e[0] - low, e[1] - height, rank(e[2]))
                                  for e in costs)), low, code)

    def symbols(self, digits: list[int], fill: int, top: int) -> list[int]:
        """Symbols of levels top .. 0, for the floor digits of a numerator
        (top first) and its F past them, 0 or -1."""
        q, small = self.params.q, self.small
        fills = top + 1 - len(digits)
        head = [q + small + fill] * fills
        f = fill
        for r in digits:
            f = f * q + r
            if abs(f) > small:
                break
            head.append(q + small + f)
        return head + digits[len(head) - fills:]


@cache
def _walk(q: int) -> _Walk:
    return _Walk(BsParams(q))


def _price(el: BsElement, params: BsParams) -> tuple[int, list[int], bytearray]:
    """(length, syms, codes) of el's digit walk: syms are the symbols of
    its levels, top first, and codes the choices made there."""
    walk = _walk(params.q)
    bottom = min(0, el.texp, -el.dpow)
    levels = max(0, el.texp) + el.dpow
    q = params.q
    if el.num >= 0:
        digits, fill = _floor_digits(el.num, q), 0
    else:  # floor digits of num are q - 1 minus those of -num - 1
        digits, fill = [q - 1 - e for e in _floor_digits(~el.num, q)], -1
    n = len(digits)
    codes = bytearray()
    if levels >= n + 2:
        # two levels above the digits of num the walk is at remainder 0,
        # carry -fill
        syms = walk.symbols(digits, fill, n + 1)
        start = walk.key_id((None, 0, None) if fill == 0 else (None, None, 0))
        key, cost = walk.run(_BELOW, syms, start, codes)
    else:
        top = max(levels + 1, n)
        syms = walk.symbols(digits, fill, top)
        climb = top - levels
        key, cost = walk.run(_CLIMB, syms[:climb], walk.dead, codes)
        key, base = walk.run(_BASE, syms[climb:climb + 1], key, codes)
        key, below = walk.run(_BELOW, syms[climb + 1:], key, codes)
        cost += base + below
    rest = walk.keys[key][1]
    if rest is None:
        raise InvariantError(f"digit walk found no path to {el}")
    return el.texp - 2 * bottom + cost + rest, syms, codes


def geodesic_length(g: Union[BsElement, Word], params: BsParams) -> int:
    """Distance from the identity in the Cayley graph of BS(1,q)."""
    el = bs_eval(g, params) if isinstance(g, Word) else g
    return _price(el, params)[0]


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
    """Run the digit walk and follow its codes from level 0 up to the
    deterministic minimal form."""
    bottom = min(0, el.texp, -el.dpow)
    span = max(0, el.texp) - bottom
    if span > MAX_LEVELS:
        raise ValueError(f"the normal form spans {span} levels, more than {MAX_LEVELS}")
    length, syms, codes = _price(el, params)
    q, small = params.q, _walk(params.q).small
    digits = [0] * (-el.dpow - bottom)
    k, i = len(syms) - 1, 1  # level 0, carry 0
    while k >= 0:
        nxt = codes[k] >> 2 * i & 3
        if nxt == 3:
            break
        s = syms[k]
        digits.append((s if s < q else (s - q - small) % q) + i - 1 - q * (nxt - 1))
        k, i = k - 1, nxt
    height = len(digits) - span
    if k < 0:  # the walk ended at remainder 0 below the base
        core: Union[int, XBlock] = 0
    elif syms[k] < q:
        raise InvariantError(f"digit walk of {el} ends where no core can be")
    else:
        end = syms[k] - q - small + i - 1
        core = end if height == 0 else XBlock(height, end, tuple(digits[span:]))
        digits = digits[:span]
    digits += [0] * (span - len(digits))
    nf = GeodesicNormalForm(params, el, bottom, tuple(digits), core)
    if nf.length != length:
        raise InvariantError("normal form length differs from the digit cost")
    return nf


def normalize(w: Union[Word, BsElement], params: BsParams) -> GeodesicNormalForm:
    """Geodesic normal form of the element spelled by w.  Raises
    NotGeodesicError when w is a word longer than the distance (elements
    are always accepted), ValueError for a form of over MAX_LEVELS levels."""
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
