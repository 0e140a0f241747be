"""Reference outputs the benchmark checks the program against.

The tables were computed once with the package and pinned here.  The
bs:q=2 sphere sizes up to r = 10 are also re-derived on every bfs_scan run
from the brute-force BFS in tests/reference.py, and scan rows 3..10 are the
test suite's FROZEN_FMAX table.
"""

# |S(r)| of BS(1,2) for r = 0..16.
BS2_SPHERES = (1, 4, 12, 26, 50, 98, 184, 336, 606, 1086, 1914, 3350, 5846,
               10134, 17506, 30126, 51726)

# |S(r)| of Stallings' group for r = 0..6.
STALLINGS_SPHERES = (1, 10, 74, 462, 2686, 14914, 80698)

# Scan of bs:q=2, radius -> (fmax, pairs).
SCAN_ROWS = {
    3: (3, 34), 4: (3, 68), 5: (3, 142), 6: (6, 272),
    7: (7, 498), 8: (7, 914), 9: (11, 1662), 10: (11, 2932),
    11: (16, 5164), 12: (16, 9070), 13: (20, 15748), 14: (20, 27310),
}

# verify_notpac(n) bridge lengths.  The n = 2 report is ok: false by design
# (the suite's strict xfail), every larger n is ok: true.
NOTPAC_BRIDGES = {2: 3, 3: 7, 4: 11, 5: 16, 6: 20, 7: 24}
NOTPAC_NOT_OK = frozenset({2})

# verify_bs1q_notmac(q, n) -> (bridge = 2R, bridge avoiding the identity).
BS1Q_BRIDGES = {(7, 2): (10, 12), (8, 2): (10, 12), (7, 3): (14, 16), (8, 3): (14, 16)}

# verify_stallings_witness(1) bridge length (2R with R = 4).
STALLINGS_BRIDGE = 8

# build_case pins that reach r > 400 (the suite's LARGE_INSTANCE table).
LARGE_PINS = {
    "8.1": {"p": 200}, "8.2": {"p": 200}, "9.2": {"p": 200},
    "10.1": {"p": 200}, "10.3.1.1": {"p": 200}, "10.3.1.2": {"p": 200},
    "10.3.3.1": {"p": 200}, "10.3.3.2": {"p": 200},
    "10.2.1": {"f1": 200}, "10.2.2": {"f1": 200},
    "10.2.3": {"f1": 200}, "10.2.4": {"f1": 200},
}
LARGE_MIN_R = 401

# Message of the known case-6 sampling defect, so reports can name it.
CASE6_DEFECT = "case 6: sampling found no equal-length instance"
