"""The benchmark's four call lists, derived from --seed.

Every call is an argv for `equidist.cli.dispatch`.  Random alphas are
`random:<k>` sources with k = 100 * seed + j, so one seed gives the same
inputs on every run and distinct seeds give distinct alphas; the golden
ratio keeps its literal token.  Call sizes are fixed, so every seed does
the same amount of work up to alpha-dependent filter counts.
"""

from __future__ import annotations

GOLDEN = "0.61803398874989484820458683436563811772"

WORKLOADS = ("growth-d2", "identity", "scan", "points")

GROWTH_THREADS = 2
DYADIC_BUCKETS = ("6,4", "12,10", "20,18", "22,20")

# Largest live array set per workload, from array sizes (computed, not
# measured): 16 B per 128-bit lane word, 8 B per float64, 2^20-element
# scan blocks.  Compare with the L3 size recorded next to it.
WORKING_SET_BYTES = {
    # two concurrent d=2 N=4096 evaluations of 2^24 lane words each
    "growth-d2": 2 * 4096 ** 2 * 16,
    # one 2^20-n1 block: lanes, residue, n1 and two complex term arrays
    "identity": (1 << 20) * (16 + 8 + 8 + 2 * 16),
    # one 2^20-n block of lanes plus product, n, ln n and key arrays
    "scan": (1 << 20) * (16 + 4 * 8),
    # the 2^24 lane words of one d=1 point set
    "points": (1 << 24) * 16,
}


def growth_schedule(nmin: int, nmax: int) -> list:
    """The N values of a growth call: nmin doubling up to nmax."""
    schedule = []
    n = nmin
    while n <= nmax:
        schedule.append(n)
        n *= 2
    return schedule


def _random(seed: int, j: int) -> str:
    return f"random:{100 * seed + j}"


def _growth(seed):
    return [["growth", "--d", "2",
             "--alpha", _random(seed, 1), "--alpha", _random(seed, 2),
             "--nmin", "64", "--nmax", "4096",
             "--threads", str(GROWTH_THREADS), "--json", "--no-timing"]]


def _identity(seed):
    calls = []
    for j in (1, 2):
        for d in ("1", "2"):
            for x in ("0.3", "0.7"):
                calls.append(["validate", "--alpha", _random(seed, j),
                              "--d", d, "--N", "64", "--x", x,
                              "--no-timing"])
    base = ["fourier", "--alpha", _random(seed, 1), "--d", "1",
            "--N", "8192", "--x", "0.3", "--no-timing"]
    calls.append(base + ["--component", "dbar4"])
    calls.append(base + ["--component", "dbar5"])
    for mask in ("1,0", "0,1", "1,1"):
        calls.append(base + ["--component", "dbar6", "--mask", mask])
    return calls


def _scan(seed):
    boxes = ["boxes", "--alpha", GOLDEN, "--N", "1024", "--grid", "dyadic"]
    for bucket in DYADIC_BUCKETS:
        boxes += ["--bucket", bucket]
    return [
        ["spectrum", "--alpha", GOLDEN, "--M", "20000000", "--no-timing"],
        ["spectrum", "--alpha", _random(seed, 1), "--d", "2",
         "--M", "10000000", "--no-timing"],
        ["census", "--alpha", GOLDEN, "--N", "1024", "--x", "0.3",
         "--no-timing"],
        ["census", "--alpha", _random(seed, 1), "--d", "2", "--N", "512",
         "--x", "0.3", "--no-timing"],
        boxes + ["--no-timing"],
    ]


def _points(seed):
    # the two x values of one (alpha, d, N) are consecutive, so a point-set
    # cache inside the program would hit on every second call
    calls = []
    for j in range(1, 5):
        for d, n in (("1", 1 << 24), ("2", 4096), ("3", 256)):
            for x in ("0.3", "0.7"):
                calls.append(["discrepancy", "--alpha", _random(seed, j),
                              "--d", d, "--N", str(n), "--x", x,
                              "--no-timing"])
    return calls


_CALL_LISTS = {"growth-d2": _growth, "identity": _identity, "scan": _scan,
               "points": _points}


def calls(workload: str, seed: int) -> list:
    """The workload's argv list for one pass."""
    return _CALL_LISTS[workload](seed)
