"""CLI behavior: subcommands, exit codes, cache, output formats."""

import json

import pytest

from convexlab import stallings
from convexlab.ball_engine import build_ball
from convexlab.cli import UsageError, main, parse_group
from convexlab.words import STALLINGS_ALPHABET, parse_word


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CONVEXITY_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def test_parse_group():
    assert parse_group("bs:q=2").name == "bs:q=2"
    assert parse_group("stallings").name == "stallings"
    with pytest.raises(UsageError):
        parse_group("bs:q=1")
    with pytest.raises(UsageError):
        parse_group("bs:q=x")
    with pytest.raises(UsageError):
        parse_group("sl2z")


def test_config_validation(capsys, isolated_cache):
    assert main(["ball", "--r", "3", "--cap", "10"]) == 2
    assert capsys.readouterr().err == "error: cap must be at least 1000\n"
    assert main(["ball", "--group", "nope", "--r", "3"]) == 2
    assert "unknown group" in capsys.readouterr().err
    # a cache file is named after its model, so the descriptor must spell it
    assert main(["ball", "--group", "bs:q=02", "--r", "3"]) == 2
    assert "round-trip" in capsys.readouterr().err
    assert not (isolated_cache / "cache").exists()


def test_ball_builds_and_caches(tmp_path, capsys):
    assert main(["ball", "--group", "bs:q=2", "--r", "5"]) == 0
    first = capsys.readouterr().out
    assert "5\t98\t191" in first
    cache = tmp_path / "cache" / "bs_q2-r5.ndjson"
    # the cache is one JSON line of what the table prints
    assert json.loads(cache.read_text()) == {
        "fmt": "ball-v5", "group": "bs:q=2", "r": 5, "n": 191,
        "spheres": [1, 4, 12, 26, 50, 98]}
    assert cache.read_text().count("\n") == 1
    # second run loads the cache and prints the same table
    assert main(["ball", "--group", "bs:q=2", "--r", "5"]) == 0
    assert capsys.readouterr().out == first


def test_ball_rebuilds_truncated_cache(tmp_path, capsys):
    assert main(["ball", "--group", "bs:q=2", "--r", "6"]) == 0
    first = capsys.readouterr().out
    cache = tmp_path / "cache" / "bs_q2-r6.ndjson"
    whole = cache.read_text()
    cache.write_text(whole[:60])
    assert main(["ball", "--group", "bs:q=2", "--r", "6"]) == 0
    captured = capsys.readouterr()
    assert captured.out == first
    assert "rebuilding" in captured.err
    assert cache.read_text() == whole


def test_ball_rebuilds_old_stallings_cache(tmp_path, capsys):
    argv = ["ball", "--group", "stallings", "--r", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    cache = tmp_path / "cache" / "stallings-r3.ndjson"
    whole = cache.read_text()
    header = json.loads(whole)
    header["fmt"] = "ball-v3"
    # ball-v3 followed its header with one "<distance> <key>" row per
    # element, each key part in run-length text, e.g. "B^2a^2"
    ball = build_ball(stallings.StallingsModel(), 3)
    old_rows = []
    for i, key in enumerate(ball.keys):
        parts = (str(parse_word(part, STALLINGS_ALPHABET)) for part in key.decode().split("|"))
        old_rows.append(f"{ball.depth(i)} {'|'.join(parts)}\n")
    assert any("^" in row for row in old_rows)
    cache.write_text(json.dumps(header) + "\n" + "".join(old_rows))
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == first
    assert "rebuilding" in captured.err and "ball-v3" in captured.err
    assert cache.read_text() == whole


def test_ball_rebuilds_a_cache_for_another_radius(tmp_path, capsys):
    assert main(["ball", "--group", "bs:q=2", "--r", "5"]) == 0
    capsys.readouterr()
    cache = tmp_path / "cache"
    (cache / "bs_q2-r6.ndjson").write_bytes((cache / "bs_q2-r5.ndjson").read_bytes())
    assert main(["ball", "--group", "bs:q=2", "--r", "6"]) == 0
    captured = capsys.readouterr()
    assert "6\t184\t375" in captured.out
    assert "rebuilding" in captured.err and "radius 5, not 6" in captured.err
    assert json.loads((cache / "bs_q2-r6.ndjson").read_text())["r"] == 6


def test_ball_usage_error(capsys, isolated_cache):
    assert main(["ball", "--group", "bs:q=1", "--r", "3"]) == 2
    assert "q must be at least 2" in capsys.readouterr().err
    assert main(["ball", "--group", "bs:q=2", "--r", "-1"]) == 2
    assert "radius" in capsys.readouterr().err
    assert not (isolated_cache / "cache").exists()


def test_ball_cap_error(capsys):
    assert main(["ball", "--group", "bs:q=2", "--r", "9", "--cap", "1000"]) == 2
    assert "cap" in capsys.readouterr().err


def test_scan_with_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--group", "bs:q=2", "--r-min", "3", "--r-max", "5",
                 "--csv", str(out)]) == 0
    assert capsys.readouterr().out == (
        "r\tfmax\tpairs\tmac\tmprime\twitness\n"
        "3\t3\t34\ttrue\ttrue\t-1:-3:1 ~ 0:-1:1\n"
        "4\t3\t68\ttrue\ttrue\t-1:-1:2 ~ -2:-3:2\n"
        "5\t3\t142\ttrue\ttrue\t-1:-3:2 ~ 0:1:2\n"
        f"csv: {out}\n")
    assert out.read_text().count("\n") == 4  # header + 3 rows


def test_scan_refuses_a_bad_range_before_building(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_ball called for a refused range")
    monkeypatch.setattr("convexlab.cli.build_ball", no_build)
    for r_min, r_max in (("0", "40"), ("5", "4")):
        assert main(["scan", "--r-min", r_min, "--r-max", r_max]) == 2
        assert capsys.readouterr().err == "error: need 1 <= r_min <= r_max\n"


def test_witness_notpac(capsys):
    assert main(["witness", "notpac", "--n", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["bridge"] == 7
    # the n=2 instance carries the known failing neighbor assert
    assert main(["witness", "notpac", "--n", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["geodesic_detail"]["wa^-1"] is False


def test_witness_bs1q(capsys):
    assert main(["witness", "bs1q", "--q", "7", "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bridge"] == 10 and report["bridge_no_identity"] == 12
    assert main(["witness", "bs1q", "--q", "3", "--n", "2"]) == 2


# Whole witness reports as printed, recorded before notpac and bs1q shared
# one bridge verifier with Stallings: argv -> (exit status, report).
GOLDEN_WITNESS_REPORTS = {
    "notpac --n 2": (1, {
        "witness": "notpac", "q": 2, "n": 2, "R": 6,
        "w": "t^2a^2T^2", "u": "at^2a^2T", "bridge": 3,
        "geodesic_detail": {"w": True, "u": True, "wa": True, "wa^-1": False, "wt^-1": True},
        "checks": {"geodesic": False, "distance": True, "bridge_exceeds": True},
        "ok": False}),
    "notpac --n 3": (0, {
        "witness": "notpac", "q": 2, "n": 3, "R": 8,
        "w": "t^3a^2T^3", "u": "at^3a^2T^2", "bridge": 7,
        "geodesic_detail": {"w": True, "u": True, "wa": True, "wa^-1": True, "wt^-1": True},
        "checks": {"geodesic": True, "distance": True, "bridge_exceeds": True},
        "ok": True}),
    "notpac --n 4": (0, {
        "witness": "notpac", "q": 2, "n": 4, "R": 10,
        "w": "t^4a^2T^4", "u": "at^4a^2T^3", "bridge": 11,
        "geodesic_detail": {"w": True, "u": True, "wa": True, "wa^-1": True, "wt^-1": True},
        "checks": {"geodesic": True, "distance": True, "bridge_exceeds": True},
        "ok": True}),
    "notpac --n 5": (0, {
        "witness": "notpac", "q": 2, "n": 5, "R": 12,
        "w": "t^5a^2T^5", "u": "at^5a^2T^4", "bridge": 16,
        "geodesic_detail": {"w": True, "u": True, "wa": True, "wa^-1": True, "wt^-1": True},
        "checks": {"geodesic": True, "distance": True, "bridge_exceeds": True},
        "ok": True}),
    "bs1q --q 7 --n 2": (0, {
        "witness": "bs1q_notmac", "q": 7, "n": 2, "R": 5,
        "w": "t^2aT^2", "u": "at^2aT", "bridge": 10, "bridge_no_identity": 12,
        "geodesic_detail": {"w": True, "u": True, "wa": True, "wa^-1": True, "wt^-1": True},
        "checks": {"geodesic": True, "distance": True, "bridge_is_2R": True,
                   "through_identity": True},
        "ok": True}),
    "bs1q --q 8 --n 2": (0, {
        "witness": "bs1q_notmac", "q": 8, "n": 2, "R": 5,
        "w": "t^2aT^2", "u": "at^2aT", "bridge": 10, "bridge_no_identity": 12,
        "geodesic_detail": {"w": True, "u": True, "wa": True, "wa^-1": True, "wt^-1": True},
        "checks": {"geodesic": True, "distance": True, "bridge_is_2R": True,
                   "through_identity": True},
        "ok": True}),
    # recorded while the stallings row still read its bridge off a BFS B(4)
    "stallings --n 1": (0, {
        "witness": "stallings", "n": 1, "R": 4,
        "w": "B^2a^2", "u": "sB^2a", "bridge": 8,
        "geodesic_detail": {"w": True, "u": True},
        "checks": {"geodesic": True, "distance": True, "bridge_is_2R": True},
        "ok": True}),
}


@pytest.mark.parametrize("argv", GOLDEN_WITNESS_REPORTS)
def test_witness_report_is_golden(argv, capsys):
    status, report = GOLDEN_WITNESS_REPORTS[argv]
    assert main(["witness", *argv.split()]) == status
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


def test_witness_boundingm(capsys):
    assert main(["witness", "boundingm", "--q", "7", "--n", "12"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["reachable"] == [7 ** 12]
    assert main(["witness", "boundingm", "--q", "2", "--n", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["reachable"] == [2 ** 21]
    for q in (3, 4, 5, 6):
        assert main(["witness", "boundingm", "--q", str(q), "--n", "3"]) == 2
        assert "q must be 2 or at least 7" in capsys.readouterr().err
    assert main(["witness", "boundingm", "--q", "2", "--n", "1"]) == 2
    assert "needs n >= 2" in capsys.readouterr().err
    assert main(["witness", "boundingm", "--q", "7", "--n", "0"]) == 2
    assert "needs n >= 1" in capsys.readouterr().err


def test_witness_stallings(capsys):
    assert main(["witness", "stallings"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the report shape of every bridge witness; Stallings' group has no q
    assert list(report) == ["witness", "n", "R", "w", "u", "bridge",
                            "geodesic_detail", "checks", "ok"]
    assert report["ok"] and report["R"] == 4 and report["bridge"] == 8
    assert main(["witness", "stallings", "--n", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["R"] == 24 and report["bridge"] == 48


def test_witness_stallings_refuses_an_uncertified_bridge(capsys, monkeypatch):
    # a cut below d(w) + d(u) is refused, never printed as a bridge
    monkeypatch.setattr(stallings, "_least_crossing", lambda w1, k1, budget: 7)
    assert main(["witness", "stallings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the edge cut bounds the bridge by 7 only,"
                            " below d(w) + d(u) = 8\n")


def test_case_ok(capsys):
    assert main(["case", "--id", "8.1", "--opt", "p=12", "--opt", "k=2",
                 "--opt", "j=1", "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert report["params"]["p"] == 12
    assert len(report["delta"]) > 0


def test_case_deterministic_for_seed(capsys):
    argv = ["case", "--id", "9.2", "--seed", "21"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_case_errors(capsys):
    assert main(["case", "--id", "3", "--seed", "1"]) == 2
    capsys.readouterr()
    assert main(["case", "--id", "8.1", "--opt", "zz=1"]) == 2
    assert "does not take" in capsys.readouterr().err
    assert main(["case", "--id", "10.3.3.2", "--opt", "p=5"]) == 2
    assert "p >= 6" in capsys.readouterr().err
    assert main(["case", "--id", "5", "--opt", "h=0"]) == 2
    assert "h >= 1" in capsys.readouterr().err
    assert main(["case", "--id", "6", "--opt", "g=0", "--opt", "mode=opposite"]) == 2
    assert "|g| = 1" in capsys.readouterr().err


def test_case_refuses_bad_pin_at_once(capsys):
    # g = 2 has no instance; it is refused before any sampling
    assert main(["case", "--id", "10.1", "--opt", "g=2", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: case 10.1 needs |g| = 1, got 2\n"


def test_case_takes_params_only_through_opt(capsys):
    # h is read by case 5 alone; it was never a named option
    assert main(["case", "--id", "5", "--opt", "h=3", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["params"]["h"] == 3


def test_case_refuses_repeated_opt(capsys):
    assert main(["case", "--id", "8.1", "--opt", "p=12", "--opt", "p=13",
                 "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --opt p given twice\n"


@pytest.mark.parametrize("argv", [
    ["witness", "notpac", "--q", "99"],
    ["witness", "stallings", "--q", "7"],
    ["witness", "boundingm", "--cap", "10"],
    # no bridge row builds a ball, so none takes a cap
    ["witness", "notpac", "--cap", "10"],
    ["witness", "bs1q", "--cap", "100000"],
    ["witness", "stallings", "--cap", "1000"],
    ["case", "--id", "8.1", "--p", "12"],
    # --s and --i must not be read as abbreviations of --seed and --id
    ["case", "--id", "8.1", "--s", "3"],
    ["case", "--id", "8.1", "--i", "3"],
], ids=lambda argv: " ".join(argv))
def test_unread_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_case_string_opt(capsys):
    assert main(["case", "--id", "10.1", "--seed", "5",
                 "--opt", "gamma_kind=aT"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["gamma_kind"] == "aT"


def test_length(capsys):
    assert main(["length", "--group", "bs:q=2", "--word", "a^16"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["length", "--group", "bs:q=7", "--word", "a^49"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["length", "--group", "stallings", "--word", "a"]) == 2
    assert main(["length", "--group", "bs:q=2", "--word", "a^^"]) == 2
    capsys.readouterr()
    huge = "t^99999999999999999999"
    assert main(["length", "--word", huge]) == 0
    assert capsys.readouterr().out == "99999999999999999999\n"
    # its normal form would hold one digit per level: refused
    assert main(["normalize", "--word", huge]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # an a-letter that high would need q^N: refused before it is built
    assert main(["length", "--word", huge + " a"]) == 2
    assert capsys.readouterr().err == (
        "error: the translation would span more than 1000000 base-q levels\n")


def test_normalize(capsys):
    assert main(["normalize", "--word", "a^16", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["length"] == 8
    assert report["input_geodesic"] is False
    assert main(["normalize", "--word", "t a T"]) == 0
    out = capsys.readouterr().out
    assert "class" in out
