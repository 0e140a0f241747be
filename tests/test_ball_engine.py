"""Ball BFS, caching, bridging, and geodesic word extraction."""

import json
import random
from array import array
from fractions import Fraction

import pytest

import reference
from convexlab import ball_engine
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


def test_cache_round_trip(tmp_path, ball_bs2_r8):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    loaded = load_ball(str(path), ball_bs2_r8.model)
    assert loaded.radius == ball_bs2_r8.radius
    assert len(loaded) == len(ball_bs2_r8)
    assert all(loaded.distance(key) == ball_bs2_r8.depth(i)
               for i, key in enumerate(ball_bs2_r8.keys))
    assert loaded.sphere_sizes() == ball_bs2_r8.sphere_sizes()


def test_cache_rejects_wrong_group(tmp_path, ball_bs2_r8):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    with pytest.raises(CacheError):
        load_ball(str(path), BsGroupModel(BsParams(3)))
    with pytest.raises(CacheError):
        load_ball(str(path), StallingsModel())


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ndjson"
    path.write_text("not json\n")
    with pytest.raises(CacheError):
        load_ball(str(path), BsGroupModel(BsParams(2)))
    with pytest.raises(CacheError):
        load_ball(str(tmp_path / "missing.ndjson"), BsGroupModel(BsParams(2)))


@pytest.mark.parametrize("fixture", ["ball_bs2_r8", "ball_st_r4"])
def test_loaded_ball_gives_the_built_words(fixture, tmp_path, request):
    built = request.getfixturevalue(fixture)
    path = tmp_path / "ball.ndjson"
    save_ball(built, str(path))
    loaded = load_ball(str(path), built.model)
    for key in built.keys:
        assert loaded.geodesic_word(key) == built.geodesic_word(key)


def test_geodesic_words_are_geodesic(ball_bs2_r8):
    params = BsParams(2)
    model = ball_bs2_r8.model
    spheres = [ball_bs2_r8.sphere(r) for r in range(ball_bs2_r8.radius + 1)]
    keys = [s[0] for s in spheres if s]
    for key in keys:
        w = parse_word("".join(ball_bs2_r8.geodesic_word(key)))
        assert len(w) == ball_bs2_r8.distance(key)
        assert model.key(bs_eval(w, params)) == key


def test_bridge_simple_cases(ball_bs2_r8):
    params = BsParams(2)
    x = bs_eval(parse_word("t a T"), params)
    assert bridge_length(ball_bs2_r8, x, x) == 0
    y = bs_eval(parse_word("t a T a"), params)
    assert bridge_length(ball_bs2_r8, x, y) == 1
    with pytest.raises(ValueError):
        bridge_length(ball_bs2_r8, x, bs_eval(parse_word("a^1000"), params))


def test_bridge_matches_reference(ball_bs2_r8):
    # sphere pair at reference distance, constrained to the ball
    params = BsParams(2)
    dist, _ = reference.ball(2, 6)
    x_w, y_w = parse_word("a^8"), parse_word("A T a^2 t a^2")
    x, y = bs_eval(x_w, params), bs_eval(y_w, params)
    ball6 = build_ball(ball_bs2_r8.model, 6)
    got = bridge_length(ball6, x, y)
    ref = reference.dist_in_ball(
        2, dist, 6, reference.apply_word(2, reference.START, "aaaaaaaa"),
        reference.apply_word(2, reference.START, "ATaataa"))
    assert got == ref


def test_bridge_forbid_identity(ball_bs2_r8):
    params = BsParams(2)
    x = bs_eval(parse_word("a"), params)
    y = bs_eval(parse_word("A"), params)
    assert bridge_length(ball_bs2_r8, x, y) == 2
    detour = bridge_length(ball_bs2_r8, x, y, avoid_identity=True)
    assert detour is not None and detour > 2


# -- the dense-id core: neighbour table, cache integrity, bridges -------------


@pytest.mark.parametrize("fixture", ["ball_bs2_r8", "ball_bs7_r6", "ball_st_r4"])
def test_neighbour_table_matches_model(fixture, request):
    ball = request.getfixturevalue(fixture)
    model, ngens = ball.model, ball.ngens
    table = ball.neighbours()
    assert len(table) == len(ball) * ngens
    for x, key in enumerate(ball.keys):
        el = ball.element(key)
        for i in range(ngens):
            nk = model.key(model.apply_gen(el, i))
            want = ball.ids[nk] if nk in ball.ids else -1
            assert table[x * ngens + i] == want, (key, i)
    # only rows of the outermost sphere reach outside the ball
    inner = ball.sphere_ids(ball.radius).start * ngens
    assert -1 not in table[:inner]
    assert -1 in table[inner:]


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
    # the row's edges to S(5) are copied, so only the rest is computed
    before = model.calls
    ball.row(outer.start)
    after = before + _computed(ball._table, [outer.start], 4)
    assert model.calls == after
    ball.row(outer.start)
    assert model.calls == after


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
def test_each_edge_is_computed_once(group, radius, tmp_path):
    model = _Counting(group())
    ball = build_ball(model, radius)
    ngens, outer = ball.ngens, ball.sphere_ids(radius)
    assert model.calls == _inverse_products(ngens) + _computed(ball._table, range(outer.start), ngens)
    before = model.calls
    table = ball.neighbours()
    assert model.calls - before == _computed(table, outer, ngens)
    path = str(tmp_path / "ball.ndjson")
    save_ball(ball, path)
    counted = _Counting(group())
    loaded = load_ball(path, counted)
    assert counted.calls == _inverse_products(ngens)
    assert loaded.neighbours() == table
    assert counted.calls == _inverse_products(ngens) + _computed(table, range(len(ball)), ngens)


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
def test_table_equals_products_one_by_one(group, radius, tmp_path):
    built = build_ball(group(), radius)
    words = {key: "".join(built.geodesic_word(key)) for key in built.keys}
    table = _one_by_one(built, words)
    path = str(tmp_path / "ball.ndjson")
    save_ball(built, path)
    assert built.neighbours() == table
    loaded = load_ball(path, group())
    assert loaded.neighbours() == table


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


def test_loaded_ball_has_the_built_table(tmp_path, ball_st_r4):
    path = tmp_path / "st4.ndjson"
    save_ball(ball_st_r4, str(path))
    loaded = load_ball(str(path), ball_st_r4.model)
    assert loaded.keys == ball_st_r4.keys
    assert loaded.neighbours() == ball_st_r4.neighbours()


def test_cache_header_counts_elements(tmp_path, ball_bs2_r8):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"fmt": "ball-v4", "group": "bs:q=2", "r": 8,
                      "n": len(ball_bs2_r8), "spheres": ball_bs2_r8.sphere_sizes()}
    assert not [p for p in tmp_path.iterdir() if p.name != "b8.ndjson"]


@pytest.mark.parametrize("cut", [1, 60, -1])
def test_cache_rejects_truncation(tmp_path, ball_bs2_r8, cut):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:cut]))
    with pytest.raises(CacheError):
        load_ball(str(path), ball_bs2_r8.model)


@pytest.mark.parametrize("last, message", [
    (lambda rows: rows[-1].rstrip("\n"), "ends inside a row"),
    (lambda rows: rows[-1].rstrip("\n") + "\u00e9\n", "non-ascii"),
    (lambda rows: rows[-2], "repeats a key"),
], ids=["no-final-newline", "non-ascii-key", "repeated-key"])
def test_cache_rejects_bad_rows(tmp_path, ball_bs2_r8, last, message):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + last(lines), encoding="utf-8")
    with pytest.raises(CacheError, match=message):
        load_ball(str(path), ball_bs2_r8.model)


def test_cache_rejects_header_mismatch(tmp_path, ball_bs2_r8):
    path = tmp_path / "b8.ndjson"
    save_ball(ball_bs2_r8, str(path))
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["spheres"][3] += 1
    header["spheres"][4] -= 1
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    with pytest.raises(CacheError):
        load_ball(str(path), ball_bs2_r8.model)
    path.write_text('{"fmt": "ball-v1", "group": "bs:q=2", "r": 8}\n' + "".join(lines[1:]))
    with pytest.raises(CacheError):
        load_ball(str(path), ball_bs2_r8.model)
    for old in ("ball-v2", "ball-v3"):
        header = json.loads(lines[0])
        header["fmt"] = old
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(CacheError, match=old):
            load_ball(str(path), ball_bs2_r8.model)
    for tail in ("\n", lines[-1]):
        path.write_text("".join(lines) + tail)
        with pytest.raises(CacheError, match="after its last row"):
            load_ball(str(path), ball_bs2_r8.model)


@pytest.mark.parametrize("fixture", ["ball_bs2_r8", "ball_st_r4"])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_cache_bytes_are_one_row_per_key(fixture, chunk, tmp_path, request, monkeypatch):
    ball = request.getfixturevalue(fixture)
    monkeypatch.setattr(ball_engine, "_SAVE_CHUNK", chunk)
    path = tmp_path / "ball.ndjson"
    save_ball(ball, str(path))
    header = {"fmt": "ball-v4", "group": ball.model.name, "r": ball.radius,
              "n": len(ball), "spheres": ball.sphere_sizes()}
    rows = [b"%d %s\n" % (ball.depth(i), key) for i, key in enumerate(ball.keys)]
    assert path.read_bytes() == json.dumps(header).encode("ascii") + b"\n" + b"".join(rows)


def test_non_canonical_cache_key_is_refused(tmp_path):
    model = BsGroupModel(BsParams(2))
    path = tmp_path / "b6.ndjson"
    save_ball(build_ball(model, 6), str(path))
    text = path.read_bytes()
    assert text.count(b"\n1 0:1:0\n") == 1
    path.write_bytes(text.replace(b"\n1 0:1:0\n", b"\n1 0:01:0\n"))
    loaded = load_ball(str(path), model)
    # the identity's neighbour a = 0:1:0 lies inside B(6), so its missing
    # key is refused, not read as outside; the refusal is not cached
    for _ in range(2):
        with pytest.raises(CacheError, match="0:1:0"):
            loaded.row(0)
    with pytest.raises(CacheError, match="0:1:0"):
        loaded.neighbours()
    with pytest.raises(ValueError, match="0:01:0"):
        loaded.row(loaded.ids[b"0:01:0"])
    path.write_bytes(text)
    assert load_ball(str(path), model).neighbours() == build_ball(model, 6).neighbours()


def test_non_canonical_outer_key_is_refused(tmp_path):
    # -1:9:1 lies on the outermost sphere of B(6), and no row below it has
    # it as a neighbour; padded, it used to read as outside the ball from
    # the row of -1:5:0, its neighbour on the same sphere
    model = BsGroupModel(BsParams(2))
    built = build_ball(model, 6)
    assert built.distance(b"-1:9:1") == built.distance(b"-1:5:0") == 6
    assert list(built.row(built.ids[b"-1:5:0"])) == [-1, built.ids[b"-1:9:1"], 93, -1]
    path = tmp_path / "b6.ndjson"
    save_ball(built, str(path))
    text = path.read_bytes()
    assert text.count(b"\n6 -1:9:1\n") == 1
    path.write_bytes(text.replace(b"\n6 -1:9:1\n", b"\n6 -1:09:1\n"))
    loaded = load_ball(str(path), model)  # load itself checks no key
    for _ in range(2):
        with pytest.raises(CacheError, match="-1:09:1"):
            loaded.row(loaded.ids[b"-1:5:0"])


def test_failed_save_keeps_the_old_cache(tmp_path, ball_bs2_r8, monkeypatch):
    path = tmp_path / "b8.ndjson"
    path.write_text("old\n")

    def broken(r):
        raise OSError("disk full")
    monkeypatch.setattr(ball_bs2_r8, "sphere", broken)
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
    ball = build_ball(BsGroupModel(BsParams(q)), radius)
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


@pytest.mark.parametrize("fixture", ["ball_bs2_r8", "ball_st_r4"])
def test_bridge_matches_key_bfs(fixture, request, tmp_path):
    built = request.getfixturevalue(fixture)
    path = str(tmp_path / "ball.ndjson")
    save_ball(built, path)
    rng = random.Random(5)
    outer = built.sphere(built.radius)
    pairs = [(rng.choice(outer), rng.choice(outer)) for _ in range(6)]
    pairs += [(rng.choice(built.keys), rng.choice(built.keys)) for _ in range(6)]
    pairs += [(built.keys[0], outer[0]), (outer[0], built.keys[0])]
    # the loaded copy rebuilds every row from keys
    for ball in (built, load_ball(path, built.model)):
        for kx, ky in pairs:
            x, y = ball.element(kx), ball.element(ky)
            for avoid in (False, True):
                assert bridge_length(ball, x, y, avoid) == _bridge_by_keys(ball, x, y, avoid)
