"""Brute-force reference computations used to pin the fast implementations.

Everything here runs dict BFS over exact affine maps (Fraction translation
parts) and never imports the package under test.  Slow on purpose; the big
radii are computed once and their outputs frozen into the test modules.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

GEN_ORDER = ("a", "A", "t", "T")
START = (0, Fraction(0))


def step(q: int, el, gen: str):
    texp, c = el
    if gen == "a":
        return (texp, c + Fraction(q) ** texp)
    if gen == "A":
        return (texp, c - Fraction(q) ** texp)
    if gen == "t":
        return (texp + 1, c)
    if gen == "T":
        return (texp - 1, c)
    raise ValueError(gen)


def apply_word(q: int, el, word: str):
    for gen in word:
        el = step(q, el, gen)
    return el


def ball(q: int, radius: int):
    """(dist, parent) BFS tables out to the given radius."""
    dist = {START: 0}
    parent = {}
    frontier = [START]
    for d in range(radius):
        nxt = []
        for el in frontier:
            for gen in GEN_ORDER:
                nb = step(q, el, gen)
                if nb not in dist:
                    dist[nb] = d + 1
                    parent[nb] = (el, gen)
                    nxt.append(nb)
        frontier = nxt
    return dist, parent


def word_to(parent, el) -> str:
    out = []
    while el != START:
        el, gen = parent[el]
        out.append(gen)
    return "".join(reversed(out))


def sphere_sizes(dist) -> list[int]:
    sizes: dict[int, int] = {}
    for d in dist.values():
        sizes[d] = sizes.get(d, 0) + 1
    return [sizes.get(i, 0) for i in range(max(sizes) + 1)]


def dist_in_ball(q, dist, radius, src, dst, avoid_identity=False):
    """Shortest path length from src to dst through ball elements only
    (optionally dodging the identity), or None when dst is unreachable."""
    if src == dst:
        return 0
    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        el, d = queue.popleft()
        for gen in GEN_ORDER:
            nb = step(q, el, gen)
            if nb == dst:
                return d + 1
            if nb in seen or dist.get(nb, radius + 1) > radius:
                continue
            if avoid_identity and nb == START:
                continue
            seen.add(nb)
            queue.append((nb, d + 1))
    return None


def first_exit(start, letters, radius: int, step, length):
    """1-based index of the first prefix of a path that lies outside the
    ball of the given radius, or None when every prefix lies inside.  The
    path starts at start and takes each letter by step(el, letter); length
    is called on every prefix, one call per letter and no skipping."""
    el = start
    for idx, letter in enumerate(letters, start=1):
        el = step(el, letter)
        if length(el) > radius:
            return idx
    return None


def _short_products():
    """Nonempty generator words of length <= 2, excluding obvious inverses."""
    out = [g for g in GEN_ORDER]
    for g1 in GEN_ORDER:
        for g2 in GEN_ORDER:
            out.append(g1 + g2)
    return out


def fmax_scan(q: int, radius: int):
    """(fmax, pair_count) over unordered sphere pairs at group distance <= 2,
    connecting paths constrained to the ball."""
    dist, _ = ball(q, radius)
    sphere = {el for el, d in dist.items() if d == radius}
    pairs = set()
    for x in sphere:
        for w in _short_products():
            y = apply_word(q, x, w)
            if y in sphere and y != x:
                pairs.add((x, y) if x < y else (y, x))
    fmax = 0
    for x, y in pairs:
        d = dist_in_ball(q, dist, radius, x, y)
        if d is None:
            raise RuntimeError("sphere pair disconnected inside the ball")
        if d > fmax:
            fmax = d
    return fmax, len(pairs)


def fmax_scan_grouped(q: int, radius: int):
    """Same as fmax_scan but with one BFS per source element; returns the
    same (fmax, pair_count).  Faster for the larger radii."""
    dist, _ = ball(q, radius)
    sphere = {el for el, d in dist.items() if d == radius}
    partners: dict = {}
    for x in sphere:
        for w in _short_products():
            y = apply_word(q, x, w)
            if y in sphere and y != x and x < y:
                partners.setdefault(x, set()).add(y)
    fmax = 0
    npairs = 0
    for x, targets in partners.items():
        npairs += len(targets)
        todo = set(targets)
        seen = {x}
        queue = deque([(x, 0)])
        while queue and todo:
            el, d = queue.popleft()
            for gen in GEN_ORDER:
                nb = step(q, el, gen)
                if nb in seen or dist.get(nb, radius + 1) > radius:
                    continue
                seen.add(nb)
                if nb in todo:
                    todo.discard(nb)
                    if d + 1 > fmax:
                        fmax = d + 1
                queue.append((nb, d + 1))
        if todo:
            raise RuntimeError("sphere pair disconnected inside the ball")
    return fmax, npairs


def _core_cap(q: int) -> int:
    return 3 if q == 2 else q // 2 + 1


def _top_digit_ok(q: int, s: int) -> bool:
    return 2 <= abs(s) <= 3 if q == 2 else 1 <= abs(s) <= q - 1


def _balanced(q: int, m: int) -> list[int]:
    half = q // 2
    return [d for d in range(-half, half + 1) if (m - d) % q == 0]


def digit_forms(q: int, el, budget: int) -> list:
    """Every digit-walk form of length <= budget that spells el, as
    (length, key) pairs, by exhaustive enumeration of the balanced digits
    below the base and of every core: a plain a^m or any climb block.
    key is (below digits bottom first, 0) for a plain core and
    (below digits, 1, height, top digit, climb digits from the base up)
    for a climb block, so min() over keys is the tie-break order."""
    texp, c = el
    dpow = 0
    while (c * q ** dpow).denominator > 1:
        dpow += 1
    bottom, base = min(0, texp, -dpow), max(0, texp)
    walk = texp - 2 * bottom
    out = []

    def climb(m, below, spent, ks):
        if ks and _top_digit_ok(q, m) and spent + abs(m) <= budget:
            out.append((spent + abs(m), (below, 1, len(ks), m, tuple(ks))))
        if spent + 3 > budget:  # one more level costs 2, its top digit >= 1
            return
        for k in _balanced(q, m):
            climb((m - k) // q, below, spent + 2 + abs(k), ks + [k])

    def descend(m, level, digits, spent):
        if spent > budget:
            return
        if level == base:
            below = tuple(digits)
            if abs(m) <= _core_cap(q) and spent + abs(m) <= budget:
                out.append((spent + abs(m), (below, 0)))
            climb(m, below, spent, [])
            return
        for d in _balanced(q, m):
            descend((m - d) // q, level + 1, digits + [d], spent + abs(d))

    descend(int(c * Fraction(q) ** -bottom), bottom, [], walk)
    return out


def _walk_step(q: int, frontier: dict) -> dict:
    nxt: dict = {}
    for m, c in frontier.items():
        for d in _balanced(q, m):
            m2, c2 = (m - d) // q, c + abs(d)
            if c2 < nxt.get(m2, float("inf")):
                nxt[m2] = c2
    return nxt


def _walk_trace(q: int, frontiers: list, last: dict) -> tuple[list[int], int]:
    """Least digits (bottom first) of a cheapest path through the frontiers,
    whose top level is priced by last; returns (digits, end remainder)."""
    inf = float("inf")
    back = [last]
    for frontier in reversed(frontiers[:-1]):
        above = back[-1]
        back.append({m: min(abs(d) + above.get((m - d) // q, inf) for d in _balanced(q, m))
                     for m in frontier})
    back.reverse()
    (m,) = frontiers[0]
    digits = []
    for j in range(len(frontiers) - 1):
        d = next(d for d in _balanced(q, m)
                 if abs(d) + back[j + 1].get((m - d) // q, inf) == back[j][m])
        digits.append(d)
        m = (m - d) // q
    return digits, m


def _walk_core(q: int, m: int):
    """(cost, core) of remainder m at the base: the plain a^m when it is
    no dearer, else the climb block (height, top, digits from the base up)
    of least (cost, height, top digit) and least digits."""
    plain = abs(m) if abs(m) <= _core_cap(q) else float("inf")
    frontiers = [{m: 0}]

    def dead(x):
        return x == 0 or (q == 2 and abs(x) == 1)

    live = {} if dead(m) else frontiers[0]
    while live:
        frontiers.append(_walk_step(q, live))
        live = {x: c for x, c in frontiers[-1].items() if not dead(x)}
    cost, h, top = min(((2 * h + c + abs(s), h, s)
                        for h, frontier in enumerate(frontiers[1:], 1)
                        for s, c in frontier.items() if _top_digit_ok(q, s)),
                       default=(float("inf"), 0, 0))
    if plain <= cost:
        return plain, m
    digits, _ = _walk_trace(q, frontiers[:h + 1], {top: abs(top)})
    return cost, (h, top, tuple(digits))


def digit_walk(q: int, texp: int, num: int, dpow: int):
    """(length, bottom, digits, core) of the reduced element (texp, num,
    dpow) by the remainder walk: one dict of remainder -> cost per level,
    from height -dpow up to the base, stopped at remainder 0 once no state
    costs less; each base remainder priced by _walk_core.  digits covers
    bottom .. base - 1 as in a normal form; core is an int or a climb
    block (height, top, digits).  Quadratic in the translation's length."""
    bottom = min(0, texp, -dpow)
    frontiers = [{num: 0}]
    for _ in range(max(0, texp) + dpow):
        frontier = frontiers[-1]
        if 0 in frontier and frontier[0] == min(frontier.values()):
            frontiers[-1] = {0: frontier[0]}
            break
        frontiers.append(_walk_step(q, frontier))
    last = {m: _walk_core(q, m)[0] for m in frontiers[-1]}
    cost = min(c + last[m] for m, c in frontiers[-1].items())
    digits, m = _walk_trace(q, frontiers, last)
    span = max(0, texp) - bottom
    lead = [0] * (-dpow - bottom)
    digits = lead + digits + [0] * (span - len(lead) - len(digits))
    return texp - 2 * bottom + cost, bottom, tuple(digits), _walk_core(q, m)[1]


def boundingm_scan(n: int, q: int) -> dict:
    """The a^m reachability check by a scan over every m in (bound, q^(n+1)]:
    a^m is reachable when digit_forms finds a form within the radius
    (2n + 2 past 2^n + 2^(n-1) + 2^(n-2) for q = 2, 2n + 1 past 3 q^(n-1)
    for q >= 7).  Returns the radius, the bound and the reachable m."""
    if q == 2:
        radius, bound = 2 * n + 2, 2 ** n + 2 ** (n - 1) + 2 ** (n - 2)
    else:
        radius, bound = 2 * n + 1, 3 * q ** (n - 1)
    reachable = [m for m in range(bound + 1, q ** (n + 1) + 1)
                 if digit_forms(q, (0, Fraction(m)), radius)]
    return {"R": radius, "bound": bound, "reachable": reachable}


def parse_letters(text: str, letters: tuple[str, ...]) -> list[tuple[str, int]]:
    """Word syntax read one letter at a time: (generator, exponent) for each
    letter and its optional ^k, whitespace ignored.  Raises ValueError with
    the messages the package's parser gives."""
    s = "".join(text.split())
    out = []
    pos = 0
    while pos < len(s):
        ch = s[pos]
        if not ("a" <= ch.lower() <= "z" and ch.isascii()):
            raise ValueError(f"malformed word at position {pos}: {s[pos:pos + 8]!r}")
        if ch.lower() not in letters:
            raise ValueError(f"unknown letter {ch!r} (alphabet {letters})")
        end, exp = pos + 1, 1
        if s[end:end + 1] == "^":
            digits = end + 1 + (s[end + 1:end + 2] == "-")
            stop = digits
            while s[stop:stop + 1] and s[stop] in "0123456789":
                stop += 1
            if stop > digits:
                power = s[end + 1:stop]
                exp, end = int(power), stop
                if ch.isupper() and exp < 0:
                    raise ValueError(
                        f"inverse letter {ch!r} takes a positive power, got {power}")
        out.append((ch.lower(), -exp if ch.isupper() else exp))
        pos = end
    return out


def free_reduce(word: str) -> str:
    """Free reduction of a letter string (uppercase = inverse)."""
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def stallings_form(word: str) -> tuple[str, str, str]:
    """Closed form of the canonical triple (quo, u, v) of a word over
    a,b,c,d,s in Stallings' group: quo reduces the word with b, c and d
    read as a, u reduces a^-S times the a/b letters (S the exponent sum of
    the a, b, c and d letters), v reduces the c/d letters."""
    quo = "".join(ch if ch in "sS" else ("a" if ch.islower() else "A")
                  for ch in word)
    ab = "".join(ch for ch in word if ch in "aAbB")
    exp = sum(1 if ch.islower() else -1 for ch in word if ch not in "sS")
    a_power = "A" * exp if exp > 0 else "a" * -exp
    return (free_reduce(quo), free_reduce(a_power + ab),
            free_reduce("".join(ch for ch in word if ch in "cCdD")))


def bs_eval_runs(q: int, runs, max_levels: int):
    """BS(1,q) element (texp, num, dpow) of a word's runs, one run at a
    time: an a^m run at height T adds m * q^T into the translation part
    num * q^-dpow, so each add costs as much as every level below it.
    Raises ValueError where a run lies more than max_levels levels above
    the lowest earlier run (or 0), or that far below it while num != 0."""
    texp = num = dpow = 0
    for gen, exp in runs:
        if gen == "t":
            texp += exp
        elif gen == "a":
            e = texp + dpow
            if abs(e) > max_levels and (e > 0 or num):
                raise ValueError("translation past the level bound")
            if e >= 0:
                num += exp * q ** e
            else:
                num = num * q ** (-e) + exp if num else exp
                dpow += -e
        else:
            raise ValueError(gen)
    if num == 0:
        return (texp, 0, 0)
    while dpow > 0 and num % q == 0:
        num //= q
        dpow -= 1
    return (texp, num, dpow)
