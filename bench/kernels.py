#!/usr/bin/env python3
"""Time defalg's F_p kernels and check them against the reference loops.

For every kernel in defalg._kernels this times the numpy variant on the
full candidate range, and checks it against the literal ``_rref_modp_py``
/ ``_scan_*_py`` loops on a prefix of that range (a smaller matrix for
rref), which is what those loops are kept for.  A numba column is added
when numba is importable.  The shapes are the oracle scans' own: tensors
of truncated algebras k[x]/(x^s) and nilpotent module actions.

Usage:
    python3 bench/kernels.py

Exits 1 when any variant disagrees with the reference, 0 otherwise.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from defalg import _kernels  # noqa: E402

REPEAT = 3  # timed runs per case; the best is shown
SEED = 0  # rng seed of the rref matrices
PREFIX = 512  # candidates checked against the reference loops


def truncated_mul(s: int) -> np.ndarray:
    """Multiplication tensor of k[x]/(x^s) on the basis 1, x, ..., x^(s-1)."""
    mul = np.zeros((s, s, s), np.int64)
    for i in range(s):
        for j in range(s - i):
            mul[i, j, i + j] = 1
    return mul


def shift_action(s: int, t: int) -> np.ndarray:
    """Action of the same algebra on k^t where x acts as a shift."""
    act = np.zeros((s, t, t), np.int64)
    act[0] = np.eye(t, dtype=np.int64)
    for l in range(t - 1):
        act[1, l + 1, l] = 1
    for i in range(2, s):
        act[i] = act[1] @ act[i - 1]
    return act


def nonunit_pairs(s: int):
    pairs = [(i, j) for i in range(1, s) for j in range(i, s)]
    return np.array([i for i, _ in pairs], np.int64), np.array([j for _, j in pairs], np.int64)


def scan_cases(p: int):
    """(label, kernel name, arguments without the lo, hi range, hi)."""
    s, t = 4, 2
    pair_i, pair_j = nonunit_pairs(s)
    yield (
        f"assoc s={s} t={t}",
        "scan_assoc",
        (truncated_mul(s), shift_action(s, t), pair_i, pair_j, p),
        min(p ** (len(pair_i) * t), 1 << 18),
    )
    s, t = 5, 2
    kill = np.zeros((1, s), np.int64)
    kill[0, 1] = 1
    yield (
        f"linmap s={s} t={t}",
        "scan_linmap",
        (truncated_mul(s), shift_action(s, t), kill, p),
        min(p ** (s * t), 1 << 18),
    )
    # images of x in k[x]/(x^s) subject to the single relation x^s = 0
    s = 6
    base = np.zeros((1, s), np.int64)
    base[0, 1] = 1
    coefv = np.zeros((1, s), np.int64)
    coefv[0, 0] = 1
    yield (
        f"polyrel s={s}",
        "scan_polyrel",
        (truncated_mul(s), base, np.eye(s, dtype=np.int64), np.array([0, 1], np.int64), coefv,
         np.array([[s]], np.int64), p),
        min(p**s, 1 << 18),
    )


def rref_result(r):
    red, piv, rank = r
    return red, np.asarray(piv)[:rank], rank


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return all(same(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b))


def best_of(fn, args, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    numba = "numba" in _kernels.available_backends()
    rng = np.random.default_rng(SEED)
    print(f"active backend: {_kernels.BACKEND}; numba {'importable' if numba else 'absent'}")
    print(f"{'kernel':30} {'numpy':>10} {'numba':>10}  reference check")
    bad = 0
    for p in (2, 3):
        full = rng.integers(0, p, size=(220, 330)).astype(np.int64)
        small = rng.integers(0, p, size=(30, 45)).astype(np.int64)
        want = rref_result(_kernels._rref_modp_py(small, p))
        variants = {"numpy": _kernels.rref_modp_numpy}
        if numba:
            variants["numba"] = _kernels.rref_modp_numba
        ok = all(same(rref_result(f(small, p)), want) for f in variants.values())
        times = {k: best_of(f, (full, p), REPEAT) for k, f in variants.items()}
        bad += not ok
        report(f"rref 220x330 mod {p}", times, f"30x45 {'agrees' if ok else 'DISAGREES'}")

        for label, name, kargs, hi in scan_cases(p):
            lo_hi = (0, min(hi, PREFIX))
            want = getattr(_kernels, f"_{name}_py")(*kargs, *lo_hi)
            variants = {"numpy": getattr(_kernels, f"{name}_numpy")}
            if numba:
                variants["numba"] = getattr(_kernels, f"{name}_numba")
            ok = all(same(f(*kargs, *lo_hi), want) for f in variants.values())
            times = {k: best_of(f, (*kargs, 0, hi), REPEAT) for k, f in variants.items()}
            bad += not ok
            check = f"{lo_hi[1]} cands, {len(want)} survivors {'agree' if ok else 'DISAGREE'}"
            report(f"{label} p={p} ({hi} cands)", times, check)
    if bad:
        print(f"{bad} case(s) disagreed with the reference loops")
        return 1
    return 0


def report(label: str, times: dict, check: str) -> None:
    cols = [f"{times[k] * 1e3:8.2f}ms" if k in times else f"{'-':>10}" for k in ("numpy", "numba")]
    print(f"{label:30} {cols[0]:>10} {cols[1]:>10}  {check}")


if __name__ == "__main__":
    sys.exit(main())
