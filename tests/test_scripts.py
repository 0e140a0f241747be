"""Smoke runs of the scripts under scripts/ with tiny arguments."""

import os
import random
import subprocess
import sys
from pathlib import Path

from convexlab import build_case


ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_case_sweep():
    proc = _run("case_sweep.py", "--case", "4", "--case", "6", "--instances", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("case\t")
    assert [line.split("\t")[0] for line in lines[1:]] == ["4", "6"]
    assert all(line.endswith("\tok") for line in lines[1:])


def test_case_sweep_delta_max_counts_letters():
    proc = _run("case_sweep.py", "--case", "8.1", "--instances", "3")
    assert proc.returncode == 0, proc.stderr
    _, _, radii, delta_max, _ = proc.stdout.splitlines()[1].split("\t")
    built = [build_case("8.1", rng=random.Random(f"0:8.1:{k}")) for k in range(3)]
    assert int(delta_max) == max(len(cw.delta) for cw in built)
    assert int(delta_max) <= 2 * int(radii.split("..")[1]) - 2


def test_case_sweep_refuses_impossible_case():
    proc = _run("case_sweep.py", "--case", "1", "--instances", "2")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_witness_sweep():
    # the n = 2 notpac row is the known failing instance, so the sweep exits 1
    proc = _run("witness_sweep.py", "--family", "notpac", "--notpac-max", "3")
    assert proc.returncode == 1, proc.stderr
    assert "n=3\tR=8\tbridge=7\tok" in proc.stdout
    assert "1/2 witnesses ok" in proc.stdout


def test_witness_sweep_stallings():
    proc = _run("witness_sweep.py", "--family", "stallings")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "stallings\tq=-\tn=1\tR=4\tbridge=8\tok",
        "1/1 witnesses ok",
    ]


def test_witness_sweep_boundingm():
    proc = _run("witness_sweep.py", "--family", "boundingm")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "boundingm\tq=2\tn=26\tR=54\tbound=117440512\tok",
        "boundingm\tq=7\tn=20\tR=41\tbound=34196685556119429\tok",
        "boundingm\tq=8\tn=8\tR=17\tbound=6291456\tok",
        "boundingm\tq=9\tn=8\tR=17\tbound=14348907\tok",
        "boundingm\tq=10\tn=8\tR=17\tbound=30000000\tok",
        "5/5 witnesses ok",
    ]


def test_case_sweep_searchers():
    proc = _run("case_sweep.py", "--case", "4", "--instances", "1", "--searchers")
    assert proc.returncode == 0, proc.stderr
    searches = [line for line in proc.stdout.splitlines() if line.startswith("search ")]
    assert searches == [f"search {case}\thits=0"
                        for case in ("1", "10.3.2", "2", "3", "7.1")]
