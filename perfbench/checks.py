"""Output checks for one pass over a workload's call list.

Every check holds for any seed.  The oracles are computed here, from the
argv and the exact alpha words, not with the package functions that
produced the output; only alpha resolution comes from `equidist`.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction

from equidist import alpha_from_specs

from workloads import growth_schedule

MASK64 = (1 << 64) - 1
MOD = 1 << 128


def options(argv) -> dict:
    """--flag value pairs of an argv; repeated flags collect into lists."""
    out = {}
    i = 1
    while i < len(argv):
        key = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.setdefault(key, []).append(argv[i + 1])
            i += 2
        else:
            out.setdefault(key, []).append(None)
            i += 1
    return out


def _one(opts, key):
    return opts[key][0] if key in opts else None


def _raws(spec: str, d) -> list:
    return [c.raw for c in alpha_from_specs([spec], d).components]


def _to_float(raw: int) -> float:
    # the package's documented raw -> float map: each 64-bit lane rounded once
    return (raw >> 64) * 2.0 ** -64 + (raw & MASK64) * 2.0 ** -128


def jump_scan_delta(raws: list, n: int) -> float:
    """Delta(alpha; N) by an exhaustive scan of both one-sided limits at
    every sorted point, k_i over 1..N (the criterion-1 oracle)."""
    ys = sorted(_to_float(sum(k * a for k, a in zip(ks, raws)) % MOD)
                for ks in itertools.product(range(1, n + 1), repeat=len(raws)))
    m = float(len(ys))
    best = -math.inf
    for j, y in enumerate(ys, start=1):
        best = max(best, j - m * y, m * y - (j - 1))
    return best


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum of floor((a*i + b) / m) over 0 <= i < n, in O(log m) steps."""
    total = 0
    while True:
        if not 0 <= a < m:
            q, a = divmod(a, m)
            total += n * (n - 1) // 2 * q
        if not 0 <= b < m:
            q, b = divmod(b, m)
            total += n * q
        y = a * n + b
        if y < m:
            return total
        n, b, m, a = y // m, y % m, a, m


def exact_count_below(raws: list, n: int, t: int) -> int:
    """Number of k in [1, N]^d with (sum k_i a_i mod 2^128) < t.

    [w mod M < t] = floor(w/M) - floor((w - t)/M) for 0 <= t <= M, so the
    count over the last axis is a difference of two floor sums."""
    *outer, last = raws
    total = 0
    for ks in itertools.product(range(1, n + 1), repeat=len(outer)):
        b = last + sum(k * a for k, a in zip(ks, outer))
        total += floor_sum(n, MOD, last, b) - floor_sum(n, MOD, last, b - t)
    return total


def _check_growth(argv, text):
    opts = options(argv)
    d = int(_one(opts, "--d"))
    sources = opts["--alpha"]
    schedule = growth_schedule(int(_one(opts, "--nmin")),
                               int(_one(opts, "--nmax")))
    records = json.loads(text)["records"]
    keys = [(r["alpha_seed"], r["N"]) for r in records]
    if sorted(keys) != sorted((s, n) for s in sources for n in schedule):
        return "growth records do not cover each (source, N) exactly once"
    for r in records:
        if r["N"] != schedule[0]:
            continue
        oracle = jump_scan_delta(_raws(r["alpha_seed"], d), r["N"])
        if r["delta"] != oracle:
            return (f"{r['alpha_seed']} N={r['N']}: delta {r['delta']!r} "
                    f"!= jump scan {oracle!r}")
    return None


def _check_validate(argv, text):
    out = json.loads(text)
    rows = {r["name"]: r for r in out["rows"]}
    for r in out["rows"]:
        if r["ratio"] != r["value"] / r["normalizer"]:
            return f"row {r['name']}: ratio is not value / normalizer"
    if rows["fourier_vs_direct"]["value"] != abs(
            rows["dbar_fourier"]["value"] - rows["dbar_direct"]["value"]):
        return "fourier_vs_direct is not |dbar_fourier - dbar_direct|"
    if rows["average_vs_pointwise"]["value"] != abs(
            rows["dbar_direct"]["value"] - rows["d_direct"]["value"]):
        return "average_vs_pointwise is not |dbar_direct - d_direct|"
    for name in ("recombination", "fourier_vs_direct"):
        if not rows[name]["ratio"] <= 1.0:
            return f"{name} ratio {rows[name]['ratio']!r} > 1"
    # The exact series is real.  The windowed dbar/dbar1 sums take n_{i+1}
    # offsets -15..16, which are not symmetric under n -> -n, so their
    # imaginary part is truncation error (up to 4e-5 at N=64 for some
    # seeds) and is bounded by the dbar tail bound, as the real part is.
    # The tail bound + 1e-6 is the fourier_vs_direct normalizer.
    bound = rows["fourier_vs_direct"]["normalizer"]
    if not out["imag_residual"] <= bound:
        return (f"imag_residual {out['imag_residual']!r} > tail bound "
                f"+ 1e-6 = {bound!r}")
    return None


def _check_fourier(argv, text):
    out = json.loads(text)
    if out["component"] != _one(options(argv), "--component"):
        return "component name differs from the request"
    return None


def _check_spectrum(argv, text):
    m = int(_one(options(argv), "--M"))
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    total = sum(int(line.split(",")[2]) for line in rows[1:])
    if total != m - 1:
        return f"spectrum counts sum to {total}, not M-1 = {m - 1}"
    return None


def _check_census(argv, text):
    out = json.loads(text)
    if not 0 <= out["big_total"] <= out["pair_total"]:
        return f"big_total {out['big_total']} > pair_total {out['pair_total']}"
    return None


def _check_boxes(argv, text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    for line in rows[1:]:
        grid, l, _, observed, expected, _ = line.split(",")
        l = [int(v) for v in l.split(";")]
        if int(observed) < 0:
            return f"bucket {l}: negative count"
        # dyadic law: 2^(d+1+l_{d+1}) with d + 1 = len(l)
        if grid == "dyadic" and float(expected) != 2.0 ** (len(l) + l[-1]):
            return f"bucket {l}: expected {expected} is not 2^(d+1+l_last)"
    return None


def _check_discrepancy(argv, text):
    opts = options(argv)
    n, d = int(_one(opts, "--N")), int(_one(opts, "--d"))
    x = float(_one(opts, "--x"))
    got = json.loads(text)["D"]
    count = got + n ** d * x
    k = round(count)
    if abs(count - k) > 1e-6 or not 0 <= k <= n ** d:
        return f"D + N^d x = {count!r} is not an integer in [0, {n ** d}]"
    # [0, x) holds the points whose raw word is below ceil(x * 2^128)
    exact = exact_count_below(_raws(_one(opts, "--alpha"), d), n,
                              math.ceil(Fraction(x) * MOD))
    if got != exact - n ** d * x:
        return f"D = {got!r}, but the exact count is {exact}"
    return None


_CHECKS = {"growth": _check_growth, "validate": _check_validate,
           "fourier": _check_fourier, "spectrum": _check_spectrum,
           "census": _check_census, "boxes": _check_boxes,
           "discrepancy": _check_discrepancy}


def _recombination_failures(calls, texts, failures):
    """|dbar4 - c_d/(2 pi)^(d+1) (dbar5 + sum_m (-1)^|m| dbar6[m])| <= 1e-12
    over each group of fourier calls that share (alpha, d, N, x)."""
    groups = {}
    for i, argv in enumerate(calls):
        if argv[0] != "fourier":
            continue
        opts = options(argv)
        key = tuple(_one(opts, k) for k in ("--alpha", "--d", "--N", "--x"))
        groups.setdefault(key, []).append(i)
    for key, idxs in groups.items():
        if any(failures[i] for i in idxs):
            continue
        d = int(key[1])
        parts = {}
        for i in idxs:
            opts = options(calls[i])
            value = json.loads(texts[i])["value"]
            key = (_one(opts, "--component"), _one(opts, "--mask"))
            parts[key] = complex(value["re"], value["im"])
        masks = [",".join(str((b >> i) & 1) for i in range(d + 1))
                 for b in range(1, 1 << (d + 1))]
        need = [("dbar4", None), ("dbar5", None)]
        need += [("dbar6", m) for m in masks]
        if any(k not in parts for k in need):
            reason = "fourier group lacks dbar4, dbar5 or a dbar6 mask"
        else:
            total = parts[("dbar5", None)] + sum(
                (-1) ** m.count("1") * parts[("dbar6", m)] for m in masks)
            coeff = (-1) ** d * 1j ** (d + 1) / (2 * cmath.pi) ** (d + 1)
            gap = abs(parts[("dbar4", None)] - coeff * total)
            reason = (None if gap <= 1e-12
                      else f"recombination gap {gap!r} > 1e-12")
        if reason:
            for i in idxs:
                failures[i] = reason


def check_pass(calls, rcs, texts) -> list:
    """One failure reason (or None) per call of a pass."""
    failures = []
    for argv, rc, text in zip(calls, rcs, texts):
        if rc != 0:
            failures.append(f"exit code {rc}")
            continue
        try:
            failures.append(_CHECKS[argv[0]](argv, text))
        except (ValueError, KeyError, IndexError, TypeError) as e:
            failures.append(f"unreadable output: {e!r}")
    _recombination_failures(calls, texts, failures)
    return failures


def _bump_digit(text: str, start: int) -> str:
    """text with the first digit at or after `start` changed."""
    i = start
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _corruptions(calls, texts):
    """(what, call index, exit code, text) for each corruption that applies
    to this call list."""
    out = [("exit code 2", 0, 2, texts[0])]
    for what, cmd, anchor in (
            ("a changed validate digit", "validate", '"rows"'),
            ("a changed count digit", "discrepancy", '"D"')):
        i = next((i for i, a in enumerate(calls) if a[0] == cmd), None)
        if i is not None:
            at = texts[i].index(anchor)
            if cmd == "validate":
                at = texts[i].index('"value": ', at)
            out.append((what, i, 0, _bump_digit(texts[i], at)))
    i = next((i for i, a in enumerate(calls) if a[0] == "growth"), None)
    if i is not None:
        doc = json.loads(texts[i])
        doc["records"] = doc["records"][1:]
        out.append(("a dropped growth record", i, 0, json.dumps(doc)))
    return out


def self_test(calls, texts, clean, digests_by_pass) -> list:
    """Problems found by feeding corrupted outputs to the checks.

    `clean` is check_pass of the first pass, whose calls must all pass.
    Each corruption that applies to this workload's calls must then make
    its call fail: a non-zero exit, one digit changed in a validate row or
    in a discrepancy D, one growth record dropped.  Identical argv run in
    several passes must give identical digests.
    """
    if any(clean):
        return ["self-test needs a pass whose calls all pass the checks"]
    problems = []
    for what, i, rc, text in _corruptions(calls, texts):
        if check_pass([calls[i]], [rc], [text])[0] is None:
            problems.append(f"{what} in call {i} was not counted as a failure")
    if len(digests_by_pass) < 2:
        problems.append("determinism needs at least two passes")
    elif any(p != digests_by_pass[0] for p in digests_by_pass[1:]):
        problems.append("identical argv gave different digests across passes")
    return problems
