"""Ball BFS, the sphere-size cache, bridging, and geodesic word extraction."""

import json
import random
from array import array
from fractions import Fraction

import pytest

import reference
from convexlab.ball_engine import (
    BallCapError,
    BallIndex,
    CacheError,
    bridge_length,
    build_ball,
    in_ball_distance,
    load_ball,
    save_ball,
)
from convexlab.bs_arith import BsElement, BsGroupModel, BsParams, bs_eval, bs_key
from convexlab.convexity_scan import scan
from convexlab.stallings import StallingsModel
from convexlab.words import parse_word

# cumulative ball sizes pinned by the Fraction-BFS reference
BS2_BALL = [1, 5, 17, 43, 93, 191, 375, 711, 1317, 2403, 4317, 7667, 13513]
BS7_BALL = [1, 5, 17, 53, 153, 415, 1089]
ST_BALL = [1, 11, 85, 547, 3233]


def _cumulative(sizes):
    out, tot = [], 0
    for s in sizes:
        tot += s
        out.append(tot)
    return out


def test_bs2_sphere_sizes(ball_bs2_r10):
    assert _cumulative(ball_bs2_r10.sphere_sizes()) == BS2_BALL[:11]


def test_bs7_sphere_sizes(ball_bs7_r6):
    assert _cumulative(ball_bs7_r6.sphere_sizes()) == BS7_BALL


def test_stallings_sphere_sizes(ball_st_r4):
    assert _cumulative(ball_st_r4.sphere_sizes()) == ST_BALL


def test_distances_match_reference(ball_bs2_r8):
    dist, _ = reference.ball(2, 8)
    assert len(dist) == len(ball_bs2_r8)
    for (texp, c), d in dist.items():
        num, den = c.numerator, c.denominator
        dpow = den.bit_length() - 1
        el = BsElement(texp, num, dpow)
        assert ball_bs2_r8.distance(bs_key(el)) == d


def test_ball_index_lookups(ball_bs2_r8):
    model = ball_bs2_r8.model
    ident_key = model.key(model.identity())
    assert ball_bs2_r8.distance(ident_key) == 0
    assert ident_key in ball_bs2_r8.ids
    assert ball_bs2_r8.sphere(0) == [ident_key]
    assert ball_bs2_r8.distance(b"nonsense") is None
    far = bs_eval(parse_word("a^1000"), BsParams(2))
    assert ball_bs2_r8.distance(model.key(far)) is None


def test_cap_enforced():
    with pytest.raises(BallCapError):
        build_ball(BsGroupModel(BsParams(2)), 8, cap=1000)
    with pytest.raises(ValueError, match="radius"):
        build_ball(BsGroupModel(BsParams(2)), -1)


def test_cache_round_trip(tmp_path, ball_bs2_r8, ball_st_r4):
    for ball in (ball_bs2_r8, ball_st_r4):
        path = str(tmp_path / f"{ball.model.name.replace(':', '_')}.ndjson")
        save_ball(ball, path)
        assert load_ball(path, ball.model, ball.radius) == ball.sphere_sizes()


def test_cache_rejects_wrong_group(tmp_path, ball_bs2_r8):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    with pytest.raises(CacheError, match="group"):
        load_ball(str(path), BsGroupModel(BsParams(3)), 8)
    with pytest.raises(CacheError, match="group"):
        load_ball(str(path), StallingsModel(), 8)


def test_cache_rejects_wrong_radius(tmp_path, ball_bs2_r8):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    for radius in (0, 7, 9):
        with pytest.raises(CacheError, match=f"radius 8, not {radius}"):
            load_ball(str(path), ball_bs2_r8.model, radius)
    # a header that agrees with a negative radius is still refused
    path.write_text('{"fmt": "ball-v5", "group": "bs:q=2", "r": -1, "n": 0, "spheres": []}\n')
    with pytest.raises(CacheError, match="sphere sizes"):
        load_ball(str(path), ball_bs2_r8.model, -1)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ndjson"
    for junk in (b"not json\n", b"[8]\n", b"\xff\n", b"\n", b""):
        path.write_bytes(junk)
        with pytest.raises(CacheError):
            load_ball(str(path), BsGroupModel(BsParams(2)), 8)
    with pytest.raises(CacheError, match="cannot read"):
        load_ball(str(tmp_path / "missing.ndjson"), BsGroupModel(BsParams(2)), 8)


def test_geodesic_words_are_geodesic(ball_bs2_r8):
    params = BsParams(2)
    model = ball_bs2_r8.model
    spheres = [ball_bs2_r8.sphere(r) for r in range(ball_bs2_r8.radius + 1)]
    keys = [s[0] for s in spheres if s]
    for key in keys:
        w = parse_word("".join(ball_bs2_r8.geodesic_word(key)))
        assert len(w) == ball_bs2_r8.distance(key)
        assert model.key(bs_eval(w, params)) == key


def test_bridge_simple_cases(ball_bs2_r9):
    # bridge_length measures inside B(8), one radius in from the ball's own
    params = BsParams(2)
    x = bs_eval(parse_word("t a T"), params)
    assert bridge_length(ball_bs2_r9, x, x) == 0
    y = bs_eval(parse_word("t a T a"), params)
    assert bridge_length(ball_bs2_r9, x, y) == 1
    with pytest.raises(ValueError):
        bridge_length(ball_bs2_r9, x, bs_eval(parse_word("a^1000"), params))
    # an endpoint on the outermost sphere S(9) is refused, not measured
    outer = ball_bs2_r9.element_at(ball_bs2_r9.starts[9])
    with pytest.raises(ValueError, match=r"inside B\(8\)"):
        bridge_length(ball_bs2_r9, x, outer)


def test_bridge_matches_reference():
    # sphere pair at reference distance, constrained to B(6)
    params = BsParams(2)
    dist, _ = reference.ball(2, 6)
    x_w, y_w = parse_word("a^8"), parse_word("A T a^2 t a^2")
    x, y = bs_eval(x_w, params), bs_eval(y_w, params)
    ball7 = build_ball(BsGroupModel(params), 7)
    got = bridge_length(ball7, x, y)
    ref = reference.dist_in_ball(
        2, dist, 6, reference.apply_word(2, reference.START, "aaaaaaaa"),
        reference.apply_word(2, reference.START, "ATaataa"))
    assert got == ref


def test_bridge_forbid_identity(ball_bs2_r9):
    params = BsParams(2)
    x = bs_eval(parse_word("a"), params)
    y = bs_eval(parse_word("A"), params)
    assert bridge_length(ball_bs2_r9, x, y) == 2
    detour = bridge_length(ball_bs2_r9, x, y, avoid_identity=True)
    assert detour is not None and detour > 2


# -- the dense-id core: neighbour table, cache integrity, bridges -------------


@pytest.mark.parametrize("fixture", ["ball_bs2_r8", "ball_bs7_r6", "ball_st_r4"])
def test_neighbour_table_matches_model(fixture, request):
    ball = request.getfixturevalue(fixture)
    model, ngens = ball.model, ball.ngens
    table = ball.neighbours()
    assert len(table) == len(ball) * ngens
    below, outer = ball.starts[-3], ball.starts[-2]
    for x, key in enumerate(ball.keys):
        el = ball.element(key)
        for i in range(ngens):
            want = ball.ids.get(model.key(model.apply_gen(el, i)), -1)
            # an outermost row holds exactly its edges to the sphere below
            if x >= outer and not below <= want < outer:
                want = -2
            assert table[x * ngens + i] == want, (key, i)
    # every product of an element below the outermost sphere lies in the ball
    assert min(table[:outer * ngens]) >= 0


class _Counting:
    """A group model that counts the products asked of the one it wraps."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def apply_gen(self, el, i):
        self.calls += 1
        return self.model.apply_gen(el, i)


def _inverse_products(ngens):
    """Products a BallIndex spends finding each generator's inverse."""
    return ngens * (ngens + 1)


def _computed(table, ids, ngens):
    """Entries of the rows of these ids that hold a larger id or -1: the
    products left once every edge inside the ball is computed only from its
    smaller id."""
    return sum(1 for x in ids for j in table[x * ngens:(x + 1) * ngens] if j == -1 or j > x)


def test_build_leaves_outer_rows_for_first_use():
    model = _Counting(BsGroupModel(BsParams(2)))
    ball = build_ball(model, 6)
    outer = ball.sphere_ids(6)
    assert len(ball._table) == 4 * outer.start  # no rows for the outer sphere
    assert model.calls == _inverse_products(4) + _computed(ball._table, range(outer.start), 4)
    # the first read gives every outer row its edges to S(5), read off the
    # rows of S(5), and -2 elsewhere, with no product
    before = model.calls
    rows = {x: list(ball.row(x)) for x in outer}
    assert model.calls == before
    want = {x: [-2] * 4 for x in outer}
    for y in ball.sphere_ids(5):
        for i, x in enumerate(ball.row(y)):
            if x in outer:
                want[x][ball.inverse[i]] = y
    assert rows == want
    # -1:9:1 lies on S(6) next to -1:5:0, and outside B(6) lie two more
    # neighbours of it: none of these three edges is computed
    assert ball.distance(b"-1:9:1") == ball.distance(b"-1:5:0") == 6
    assert rows[ball.ids[b"-1:5:0"]] == [-2, -2, 93, -2]
    assert ball.depth(93) == 5
    assert model.calls == before


@pytest.mark.parametrize("group, radius", [
    (lambda: BsGroupModel(BsParams(2)), 9),
    (lambda: BsGroupModel(BsParams(7)), 6),
    (StallingsModel, 4),
], ids=["bs2-r9", "bs7-r6", "st-r4"])
def test_scan_of_a_built_ball_makes_no_product(group, radius):
    # the outermost sphere's rows are read only for their edges to the
    # sphere below, which the build computed
    model = _Counting(group())
    ball = build_ball(model, radius)
    before = model.calls
    scan(ball, 1)
    assert model.calls == before


@pytest.mark.parametrize("group, radius", [
    (lambda: BsGroupModel(BsParams(2)), 10),
    (lambda: BsGroupModel(BsParams(7)), 6),
    (StallingsModel, 4),
], ids=["bs2-r10", "bs7-r6", "st-r4"])
def test_each_edge_is_computed_once(group, radius):
    model = _Counting(group())
    ball = build_ball(model, radius)
    ngens, outer = ball.ngens, ball.sphere_ids(radius)
    assert model.calls == _inverse_products(ngens) + _computed(ball._table, range(outer.start), ngens)
    # no code path makes a product once the build returns: the outer rows
    # hold only copied edges to the sphere below, and words and bridges
    # are read off the table
    before = model.calls
    table = ball.neighbours()
    assert _computed(table, outer, ngens) == 0
    for key in ball.keys:
        ball.geodesic_word(key)
    far = ball.sphere_ids(radius - 1)
    bridge_length(ball, ball.element_at(far.start), ball.element_at(far.stop - 1), True)
    assert model.calls == before


def _one_by_one(ball, words):
    """The neighbour table of the ball, each entry its own product and no
    entry filled from another.  BS products come from reference.step,
    Stallings products from reference.stallings_form of the element's
    geodesic word (words: key -> word) and one more letter."""
    model, names = ball.model, ball.model.generator_names()
    if isinstance(model, StallingsModel):
        def product(key, i):
            return "|".join(reference.stallings_form(words[key] + names[i])).encode("ascii")
    else:
        q = model.params.q

        def product(key, i):
            el = model.element_from_key(key)
            ref = (el.texp, Fraction(el.num, q ** el.dpow))
            return _ref_key(q, reference.step(q, ref, names[i]))
    return array("i", (ball.ids.get(product(key, i), -1)
                       for key in ball.keys for i in range(ball.ngens)))


@pytest.mark.parametrize("group, radius", [
    (lambda: BsGroupModel(BsParams(2)), 8),
    (lambda: BsGroupModel(BsParams(3)), 6),
    (lambda: BsGroupModel(BsParams(7)), 6),
    (StallingsModel, 4),
], ids=["bs2-r8", "bs3-r6", "bs7-r6", "st-r4"])
def test_table_equals_products_one_by_one(group, radius):
    built = build_ball(group(), radius)
    words = {key: "".join(built.geodesic_word(key)) for key in built.keys}
    table = _one_by_one(built, words)
    # an outermost row keeps only its edges to the sphere below
    below, outer = built.starts[-3], built.starts[-2]
    for e in range(outer * built.ngens, len(table)):
        if not below <= table[e] < outer:
            table[e] = -2
    assert built.neighbours() == table


def test_generators_without_inverses_are_refused():
    class Positive(BsGroupModel):
        """a and t without their inverses."""

        def generator_names(self):
            return ("a", "t")

        def apply_gen(self, g, i):
            return super().apply_gen(g, 2 * i)

    model = Positive(BsParams(2))
    with pytest.raises(ValueError, match="not closed under inverses: a"):
        BallIndex(model, 3)
    with pytest.raises(ValueError, match="not closed under inverses"):
        build_ball(model, 3)


def test_ids_follow_sphere_and_discovery_order(ball_bs2_r8):
    ball = ball_bs2_r8
    assert ball.keys == [k for r in range(ball.radius + 1) for k in ball.sphere(r)]
    # BFS discovers the children of each element before those of the next:
    # within a sphere, the least neighbour one sphere nearer (the element BFS
    # reached it from) does not decrease with id
    for r in range(1, ball.radius + 1):
        parents = [min(j for j in ball.row(x) if j >= 0) for x in ball.sphere_ids(r)]
        assert all(ball.depth(j) == r - 1 for j in parents)
        assert parents == sorted(parents)
    for x in (0, 1, 100, len(ball) - 1):
        assert ball.ids[ball.keys[x]] == x


def test_cache_header_counts_elements(tmp_path, ball_bs2_r8):
    # the whole file is one JSON line: what `convexlab ball` prints
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    header = {"fmt": "ball-v5", "group": "bs:q=2", "r": 8,
              "n": len(ball_bs2_r8), "spheres": ball_bs2_r8.sphere_sizes()}
    assert path.read_bytes() == json.dumps(header).encode("ascii") + b"\n"
    assert not [p for p in tmp_path.iterdir() if p.name != "b8.ndjson"]


@pytest.mark.parametrize("cut", [1, 60, -1])
def test_cache_rejects_truncation(tmp_path, ball_bs2_r8, cut):
    # a header cut anywhere, even just before its newline, is refused
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(CacheError):
        load_ball(str(path), ball_bs2_r8.model, 8)


def test_cache_rejects_header_mismatch(tmp_path, ball_bs2_r8):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    line = path.read_text()
    model = ball_bs2_r8.model
    for field, bad in (("spheres", ball_bs2_r8.sphere_sizes()[:-1]),
                       # S(0) must be the identity alone, even when the sum holds
                       ("spheres", [0, 5] + ball_bs2_r8.sphere_sizes()[2:]),
                       ("spheres", ball_bs2_r8.sphere_sizes()[:-1] + [-1]),
                       ("spheres", ball_bs2_r8.sphere_sizes()[:-1] + ["x"]),
                       ("spheres", None), ("n", len(ball_bs2_r8) + 1), ("n", None)):
        header = json.loads(line)
        header[field] = bad
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(CacheError, match="element count and sphere sizes"):
            load_ball(str(path), model, 8)
    # every older format is refused by name: ball-v1 had no sphere sizes,
    # and ball-v2..ball-v4 followed the header with one row per element
    path.write_text('{"fmt": "ball-v1", "group": "bs:q=2", "r": 8}\n')
    with pytest.raises(CacheError, match="ball-v1"):
        load_ball(str(path), model, 8)
    for old in ("ball-v2", "ball-v3", "ball-v4"):
        header = json.loads(line)
        header["fmt"] = old
        path.write_text(json.dumps(header) + "\n0 0:0:0\n")
        with pytest.raises(CacheError, match=old):
            load_ball(str(path), model, 8)
    # a second line, even an empty one, is refused
    for tail in ("\n", line, "0 0:0:0\n"):
        path.write_text(line + tail)
        with pytest.raises(CacheError, match="not exactly one line"):
            load_ball(str(path), model, 8)


def test_failed_save_keeps_the_old_cache(tmp_path, ball_bs2_r8, monkeypatch):
    path = tmp_path / "b8.ndjson"
    path.write_text("old\n")

    def broken():
        raise OSError("disk full")
    monkeypatch.setattr(ball_bs2_r8, "sphere_sizes", broken)
    with pytest.raises(OSError):
        save_ball(ball_bs2_r8, str(path))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["b8.ndjson"]


def _ref_key(q, el):
    """bs_key of a reference element (texp, Fraction)."""
    texp, c = el
    den, dpow = c.denominator, 0
    while den > 1:
        den //= q
        dpow += 1
    return bs_key(BsElement(texp, c.numerator, dpow))


@pytest.mark.parametrize("q", [2, 3])
def test_in_ball_distance_matches_reference(q):
    radius = 6
    dist, _ = reference.ball(q, radius)
    # the search runs inside B(radius) on the ball one radius out
    ball = build_ball(BsGroupModel(BsParams(q)), radius + 1)
    rng = random.Random(q)
    els = sorted(dist)
    outer = [el for el in els if dist[el] == radius]
    pairs = [(rng.choice(outer), rng.choice(outer)) for _ in range(15)]
    pairs += [(rng.choice(els), rng.choice(els)) for _ in range(15)]
    for el in rng.sample(outer, 3) + [rng.choice(els)]:
        pairs += [(reference.START, el), (el, reference.START)]
    for src, dst in pairs:
        x, y = ball.ids[_ref_key(q, src)], ball.ids[_ref_key(q, dst)]
        # B(r) for r below the ball's radius is an id bound
        for r in range(max(dist[src], dist[dst]), radius + 1):
            bound = ball.starts[r + 1]
            for avoid in (False, True):
                want = reference.dist_in_ball(q, dist, r, src, dst, avoid)
                assert in_ball_distance(ball, x, y, bound, avoid) == want, (src, dst, r, avoid)
    # the outermost rows are not complete: a bound or an endpoint that
    # reaches them is refused
    edge = ball.starts[radius + 1]
    for args in ((0, 1, edge + 1), (0, edge, edge), (edge, edge, edge)):
        with pytest.raises(ValueError, match=r"inside B\(6\)"):
            in_ball_distance(ball, *args)


def _bridge_by_keys(ball, src, dst, avoid_identity):
    """Key-based BFS inside the ball, the way bridges were first computed."""
    model = ball.model
    ks, kd = model.key(src), model.key(dst)
    if ks == kd:
        return 0
    ident = model.key(model.identity())
    seen, frontier, d = {ks}, [src], 0
    while frontier:
        d += 1
        nxt = []
        for el in frontier:
            for i in range(ball.ngens):
                nb = model.apply_gen(el, i)
                nk = model.key(nb)
                if nk == kd:
                    return d
                if nk in seen or nk not in ball.ids or (avoid_identity and nk == ident):
                    continue
                seen.add(nk)
                nxt.append(nb)
        frontier = nxt
    return None


# each id names the ball B(R) that the key BFS walks; bridge_length measures
# inside B(R) on the fixture ball one radius out
@pytest.mark.parametrize("fixture, searched", [
    ("ball_bs2_r8", "ball_bs2_r9"),
    ("ball_st_r4", "ball_st_r5"),
], ids=["ball_bs2_r8", "ball_st_r4"])
def test_bridge_matches_key_bfs(fixture, searched, request):
    measured, ball = request.getfixturevalue(fixture), request.getfixturevalue(searched)
    assert ball.radius == measured.radius + 1
    rng = random.Random(5)
    outer = measured.sphere(measured.radius)
    pairs = [(rng.choice(outer), rng.choice(outer)) for _ in range(6)]
    pairs += [(rng.choice(measured.keys), rng.choice(measured.keys)) for _ in range(6)]
    pairs += [(measured.keys[0], outer[0]), (outer[0], measured.keys[0])]
    for kx, ky in pairs:
        x, y = measured.element(kx), measured.element(ky)
        for avoid in (False, True):
            assert bridge_length(ball, x, y, avoid) == _bridge_by_keys(measured, x, y, avoid)
