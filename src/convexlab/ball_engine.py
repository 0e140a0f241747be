"""Exhaustive Cayley-ball BFS over a pluggable group model.

A group model is any object with the duck-typed surface used below:

    name                 str, stable identifier ("bs:q=2", "stallings")
    identity()           -> element
    generator_names()    -> tuple of generator labels, fixed order; the
                            generators are closed under inverses
    apply_gen(el, i)     -> element * generator i
    key(el)              -> ascii bytes, injective on elements
    element_from_key(k)  -> element

Balls are built breadth-first, sphere by sphere.  Every element gets a
dense integer id in BFS discovery order, so sphere r is the id range
starts[r]:starts[r+1] and ids and rosters are byte-stable across runs.

A ball stores keys, not elements: BFS holds element objects only for the
sphere it expands and the next one, and element_at() rebuilds an element
from its key.

BFS records the neighbour table as it goes, and is its only source: a flat
array('i') with ngens entries per id, where entry id * ngens + i is the id
of element * generator i, or -1 when that neighbour lies outside the ball.
Each edge is computed once: a product x * g_i = j also fills the inverse
entry j * g_i^-1 = x, and an entry already filled is never computed, so
every edge inside the ball is computed from its smaller id.  The inverse of
each generator is found once per ball from the model's own products, and a
generator set that is not closed under inverses is refused with ValueError.
BFS never expands the outermost sphere, so its rows are allocated on first
use (row() or neighbours()) and hold only the edges to the sphere below,
copied without calling the model, with -2 in every other entry.  No code
makes a product once build_ball returns.

in_ball_distance() is the one search over that table: a BFS from both ends
of a pair of ids, always expanding the smaller frontier, through ids below
a bound.  Every row below the outermost sphere is complete, so one ball
B(R) serves every B(r) with r < R, and the search refuses ids or a bound
that reach the outermost sphere.  bridge_length and the scan both run on
it.  Byte keys are used only at the I/O edge: witness strings and scan
rows.

The cache ("ball-v5") holds what `convexlab ball` prints: one JSON line with
the group, radius, element count and sphere sizes.  It is written to a
temporary file and renamed into place.  load_ball() returns the sphere
sizes, and refuses with CacheError a file that is not exactly one such line
for the group and radius asked for.
"""

from __future__ import annotations

import json
import os
from array import array
from bisect import bisect_right
from typing import Optional

DEFAULT_CAP = 50_000_000

CACHE_FORMAT = "ball-v5"

# a table entry BFS has not filled; on the outermost sphere, every entry
# but an edge to the sphere below
_UNKNOWN = -2


class BallCapError(RuntimeError):
    """Ball construction hit the element cap before reaching the radius."""


class CacheError(RuntimeError):
    """Cache file missing, malformed, truncated, or for a different
    group/radius."""


class BallIndex:
    """A ball B(radius) under dense integer ids: keys, sphere ranges and
    the neighbour table, its only record of the Cayley graph."""

    def __init__(self, model, radius: int):
        self.model = model
        self.radius = radius
        self.ngens = len(model.generator_names())
        # inverse[i] is a generator j with g_i g_j = 1
        self.inverse = _inverses(model)
        self.ids: dict[bytes, int] = {}
        self.keys: list[bytes] = []
        # sphere r is the id range starts[r]:starts[r + 1]
        self.starts: list[int] = [0]
        # neighbour rows, filled by build_ball only; the outermost sphere
        # has none until their first use
        self._table = array("i")
        # visit marks of in_ball_distance: every search takes three stamps
        # above all earlier ones, so an older mark means "not visited"
        self._marks: list[int] = []
        self._stamp = 0

    def __len__(self) -> int:
        return len(self.keys)

    def depth(self, i: int) -> int:
        """Distance from the identity of the element with id i."""
        return bisect_right(self.starts, i) - 1

    def distance(self, key: bytes) -> Optional[int]:
        """Distance from the identity of the element with this key, None
        outside the ball."""
        i = self.ids.get(key)
        return None if i is None else self.depth(i)

    def sphere_ids(self, r: int) -> range:
        if r >= len(self.starts) - 1:
            return range(0)
        return range(self.starts[r], self.starts[r + 1])

    def sphere(self, r: int) -> list[bytes]:
        ids = self.sphere_ids(r)
        return self.keys[ids.start:ids.stop]

    def sphere_sizes(self) -> list[int]:
        return [b - a for a, b in zip(self.starts, self.starts[1:])]

    def element_at(self, i: int):
        return self.model.element_from_key(self.keys[i])

    def element(self, key: bytes):
        return self.element_at(self.ids[key])

    def row(self, x: int) -> array:
        """Neighbour ids of element x, -1 outside the ball; a row of the
        outermost sphere holds only its edges to the sphere below, and -2
        elsewhere."""
        base = x * self.ngens
        return self.neighbours()[base:base + self.ngens]

    def neighbours(self) -> array:
        """The whole neighbour table (see the module docstring).  The first
        call gives the outermost sphere its rows, of _UNKNOWN entries but
        for the edges to the sphere below, copied from that sphere's rows:
        x * g_i = j is j * g_i^-1 = x."""
        table, ngens = self._table, self.ngens
        if len(table) < len(self.keys) * ngens:
            first, known = self.starts[-3], self.starts[-2]
            table.extend(array("i", [_UNKNOWN]) * ((len(self.keys) - known) * ngens))
            for e, j in enumerate(table[first * ngens:known * ngens], first * ngens):
                if j >= known:
                    table[j * ngens + self.inverse[e % ngens]] = e // ngens
        return table

    def geodesic_word(self, key: bytes) -> list[str]:
        """Generator labels of one geodesic from the identity.  Each step
        back goes to the least neighbour id, which lies one sphere nearer:
        the element BFS reached this one from."""
        table, ngens, i = self.neighbours(), self.ngens, self.ids[key]
        names, inverse = self.model.generator_names(), self.inverse
        out: list[str] = []
        while i > 0:
            row = table[i * ngens:(i + 1) * ngens]
            j = min(x for x in row if x >= 0)
            out.append(names[inverse[row.index(j)]])
            i = j
        out.reverse()
        return out


def _inverses(model) -> tuple[int, ...]:
    """For each generator i, the first generator j with g_i g_j = 1, found
    from ngens * (ngens + 1) products.  Raises ValueError when some
    generator has no inverse among them."""
    apply_gen, key, names = model.apply_gen, model.key, model.generator_names()
    ident = model.identity()
    one = key(ident)
    out = []
    for i, name in enumerate(names):
        g = apply_gen(ident, i)
        products = [key(apply_gen(g, j)) for j in range(len(names))]
        if one not in products:
            raise ValueError(f"the generators of {model.name} are not closed under"
                             f" inverses: {name} has no inverse among them")
        out.append(products.index(one))
    return tuple(out)


def build_ball(model, radius: int, cap: int = DEFAULT_CAP) -> BallIndex:
    """BFS the ball of the given radius around the identity, recording the
    neighbour rows of every sphere it expands."""
    if radius < 0:
        raise ValueError(f"ball radius must be >= 0, got {radius}")
    ball = BallIndex(model, radius)
    apply_gen, key, ngens = model.apply_gen, model.key, ball.ngens
    ids, keys = ball.ids, ball.keys
    table, inverse = ball._table, ball.inverse
    blank = array("i", [_UNKNOWN]) * ngens
    ident = model.identity()
    ids[key(ident)] = 0
    keys.append(key(ident))
    table.extend(blank)
    ball.starts.append(1)
    sphere = [ident]  # elements of sphere d, in id order
    for d in range(radius):
        # the outermost sphere is never expanded, so keep none of its
        # elements and give them no rows
        keep = d + 1 < radius
        end = ball.starts[d + 1]
        nxt = []
        for x, el in enumerate(sphere, ball.starts[d]):
            base = x * ngens
            for i, j in enumerate(table[base:base + ngens]):
                if j != _UNKNOWN:
                    continue  # filled from the edge's other end
                nb = apply_gen(el, i)
                nk = key(nb)
                j = ids.get(nk)
                if j is None:
                    j = len(keys)
                    if j >= cap:
                        raise BallCapError(
                            f"ball of {model.name} exceeded cap {cap} at radius {d + 1}")
                    ids[nk] = j
                    keys.append(nk)
                    if keep:
                        nxt.append(nb)
                        table.extend(blank)
                table[base + i] = j
                if keep or j < end:
                    table[j * ngens + inverse[i]] = x
        sphere = nxt
        ball.starts.append(len(keys))
    return ball


def in_ball_distance(ball: BallIndex, x: int, y: int, bound: int,
                     avoid_identity: bool = False) -> Optional[int]:
    """Graph distance between ids x and y along paths through ids below
    `bound` (B(r) is the id range 0:starts[r + 1]), or None when no such
    path exists.  With avoid_identity no path passes through id 0, the
    identity, though x or y may be it.  The search runs from both ends and
    always expands the smaller frontier.  Only rows below the outermost
    sphere are complete, so the search stays inside B(radius - 1): ids or a
    bound that reach the outermost sphere raise ValueError."""
    table, ngens, outer = ball.neighbours(), ball.ngens, ball.starts[-2]
    if max(x, y, bound - 1) >= outer:
        raise ValueError(f"in_ball_distance searches inside B({ball.radius - 1}):"
                         f" ids and bound must stay below {outer}")
    if x == y:
        return 0
    marks = ball._marks
    if len(marks) < outer:
        marks.extend([0] * (outer - len(marks)))
    ours = ball._stamp + 1  # marks below this one were left by earlier searches
    fresh, theirs = ours, ours + 1
    ball._stamp = ours + 2
    if avoid_identity:
        marks[0] = ours + 2  # visited by neither side
    marks[x], marks[y] = ours, theirs
    near, far = [x], [y]
    depth = 0  # both sides' depths added: no path shorter than depth + 1 exists
    while near and far:
        if len(near) > len(far):
            near, far, ours, theirs = far, near, theirs, ours
        depth += 1
        nxt = []
        for v in near:
            for w in table[v * ngens:(v + 1) * ngens]:
                if 0 <= w < bound:
                    mark = marks[w]
                    if mark < fresh:
                        marks[w] = ours
                        nxt.append(w)
                    elif mark == theirs:
                        return depth
        near = nxt
    return None


def bridge_length(ball: BallIndex, src, dst, avoid_identity: bool = False) -> Optional[int]:
    """Shortest path length from src to dst inside B(radius - 1), the
    largest ball whose rows the table holds complete (optionally avoiding
    the identity as an interior vertex), or None.  Endpoints outside that
    ball raise ValueError."""
    s = ball.ids.get(ball.model.key(src))
    t = ball.ids.get(ball.model.key(dst))
    if s is None or t is None:
        raise ValueError("bridge endpoints must lie inside the ball")
    return in_ball_distance(ball, s, t, ball.starts[-2], avoid_identity)


def save_ball(ball: BallIndex, path: str) -> None:
    """Write the ball's sphere sizes as one JSON line.  The file appears
    under its name only once it is complete."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"fmt": CACHE_FORMAT, "group": ball.model.name,
                                 "r": ball.radius, "n": len(ball),
                                 "spheres": ball.sphere_sizes()}) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_ball(path: str, model, radius: int) -> list[int]:
    """The sphere sizes of B(radius) of this model, read from a cache.
    Raises CacheError unless the file is exactly one line, in this format,
    for this group and radius, whose sphere sizes add up to its element
    count."""
    try:
        with open(path, "rb") as fh:
            line, rest = fh.readline(), fh.read(1)
    except OSError as exc:
        raise CacheError(f"cannot read ball cache {path}: {exc}") from exc
    try:
        header = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CacheError(f"bad ball cache header in {path}") from exc
    if not isinstance(header, dict) or header.get("fmt") != CACHE_FORMAT:
        fmt = header.get("fmt") if isinstance(header, dict) else None
        raise CacheError(f"unknown cache format {fmt!r}")
    if rest or not line.endswith(b"\n"):
        raise CacheError(f"ball cache {path} is not exactly one line")
    if header.get("group") != model.name:
        raise CacheError(
            f"cache is for group {header.get('group')!r}, not {model.name!r}")
    if header.get("r") != radius:
        raise CacheError(f"cache is for radius {header.get('r')!r}, not {radius}")
    sizes = header.get("spheres")
    # S(0) is the identity alone, so no negative radius gets a table
    if (not isinstance(sizes, list) or len(sizes) != radius + 1 or sizes[:1] != [1]
            or not all(isinstance(s, int) and s >= 0 for s in sizes)
            or sum(sizes) != header.get("n")):
        raise CacheError("cache header has no usable element count and sphere sizes")
    return sizes
