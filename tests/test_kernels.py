"""The linear oracle scans against their literal reference loops.

``scan_assoc`` and ``scan_linmap`` hand their residual conditions to
``solve_affine``, which lists the solution space x0 + span(K) of one
rref in ascending candidate order; ``_scan_assoc_py`` and
``_scan_linmap_py`` evaluate every candidate literally.  Both are
compared on random sub-ranges, including empty ranges and scans with no
digits, on tables that meet the kernels' precondition: e_0 is the unit,
the multiplication is commutative and e_0 acts as the identity.

``solve_affine`` itself is checked against a literal filter of every
candidate, on consistent and inconsistent constants, zero columns, no
digits and windows of the candidate range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defalg import _kernels

PRIMES = [2, 3, 5]
MAX_WIDTH = 200  # candidates run through the literal loops per example


def residues(p, n):
    return st.lists(st.integers(0, p - 1), min_size=n, max_size=n)


@st.composite
def unital_tables(draw, max_s=4, max_t=2):
    """(p, mul, act): a commutative table with unit e_0 on s basis
    elements, acting on k^t with e_0 acting as the identity."""
    p = draw(st.sampled_from(PRIMES))
    s = draw(st.integers(1, max_s))
    t = draw(st.integers(0, max_t))
    mul = np.zeros((s, s, s), np.int64)
    mul[0] = mul[:, 0] = np.eye(s, dtype=np.int64)
    for i in range(1, s):
        for j in range(i, s):
            mul[i, j] = mul[j, i] = draw(residues(p, s))
    act = np.zeros((s, t, t), np.int64)
    act[0] = np.eye(t, dtype=np.int64)
    for i in range(1, s):
        act[i] = np.array(draw(residues(p, t * t)), np.int64).reshape(t, t)
    return p, mul, act


@st.composite
def sub_range(draw, total):
    """A half-open [lo, hi) inside [0, total), possibly empty."""
    lo = draw(st.integers(0, total))
    hi = draw(st.integers(lo, min(total, lo + MAX_WIDTH)))
    return lo, hi


def nonunit_pairs(s):
    pairs = [(i, j) for i in range(1, s) for j in range(i, s)]
    return np.array([i for i, _ in pairs], np.int64), np.array([j for _, j in pairs], np.int64)


@settings(max_examples=80, deadline=None)
@given(st.data(), unital_tables())
def test_scan_assoc_matches_reference_loop(data, tables):
    p, mul, act = tables
    pair_i, pair_j = nonunit_pairs(mul.shape[0])
    total = p ** (len(pair_i) * act.shape[1])
    lo, hi = data.draw(sub_range(total))
    want = _kernels._scan_assoc_py(mul, act, pair_i, pair_j, p, lo, hi)
    got = _kernels.scan_assoc(mul, act, pair_i, pair_j, p, lo, hi)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(st.data(), unital_tables())
def test_scan_linmap_matches_reference_loop(data, tables):
    p, mul, act = tables
    s = mul.shape[0]
    nkill = data.draw(st.integers(0, 2))
    kill = np.array([data.draw(residues(p, s)) for _ in range(nkill)], np.int64).reshape(nkill, s)
    total = p ** (s * act.shape[1])
    lo, hi = data.draw(sub_range(total))
    want = _kernels._scan_linmap_py(mul, act, kill, p, lo, hi)
    got = _kernels.scan_linmap(mul, act, kill, p, lo, hi)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def truncated(s, t):
    """k[x]/(x^s) and its action on k^t with x acting as a shift."""
    mul = np.zeros((s, s, s), np.int64)
    for i in range(s):
        for j in range(s - i):
            mul[i, j, i + j] = 1
    act = np.zeros((s, t, t), np.int64)
    act[0] = np.eye(t, dtype=np.int64)
    for l in range(t - 1):
        act[1, l + 1, l] = 1
    for i in range(2, s):
        act[i] = act[1] @ act[i - 1]
    return mul, act


def test_full_scans_match_reference_loops():
    """Whole candidate spaces with many survivors, split at a boundary
    that is not a multiple of the half size."""
    for p in PRIMES[:2]:
        mul, act = truncated(3, 2)
        pair_i, pair_j = nonunit_pairs(3)
        total = p ** (len(pair_i) * 2)
        want = _kernels._scan_assoc_py(mul, act, pair_i, pair_j, p, 0, total)
        assert len(want) > 1
        cut = total // 3 + 1
        got = np.concatenate([
            _kernels.scan_assoc(mul, act, pair_i, pair_j, p, 0, cut),
            _kernels.scan_assoc(mul, act, pair_i, pair_j, p, cut, total),
        ])
        assert np.array_equal(got, want)

        kill = np.zeros((0, 3), np.int64)
        total = p ** 6
        want = _kernels._scan_linmap_py(mul, act, kill, p, 0, total)
        assert len(want) > 1
        assert np.array_equal(_kernels.scan_linmap(mul, act, kill, p, 0, total), want)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([(2, 61), (2, 62), (3, 38), (3, 40), (5, 26), (5, 27)]))
def test_unique_rows_matches_the_row_sort_on_either_side_of_the_key_bound(data, case):
    """Rows of p^width < 2^62 sort as one packed key each, wider rows as
    rows; both give np.unique's distinct rows (in lexicographic order),
    inverse and counts.  Rows come from a small pool, so most of them
    repeat."""
    p, width = case
    digit = st.sampled_from([0, 1, p - 1])
    pool = data.draw(st.lists(st.lists(digit, min_size=width, max_size=width), min_size=1, max_size=3))
    n = data.draw(st.integers(0, 10))
    rows = np.array([data.draw(st.sampled_from(pool)) for _ in range(n)], np.int64).reshape(n, width)
    uniq, inv, counts = _kernels._unique_rows(rows, p)
    want_uniq, want_inv, want_counts = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    assert uniq.tolist() == want_uniq.tolist()
    assert inv.tolist() == want_inv.ravel().tolist() and counts.tolist() == want_counts.tolist()


def literal_affine(R, c, p):
    """Every n in [0, p^N) whose digits d have d @ R + c == 0 mod p."""
    ndig = R.shape[0]
    out = []
    for n in range(p**ndig):
        d = [(n // p**k) % p for k in range(ndig)]
        if not ((np.array(d, np.int64) @ R + c) % p).any():
            out.append(n)
    return out


def affine_scan(R, c, p, lo=0, hi=None):
    """The candidate indices of ``solve_affine``'s rows."""
    rows = _kernels.solve_affine(R, c, p, lo, hi)
    assert rows.dtype == np.int64 and rows.shape[1] == R.shape[0]
    return [sum(int(d) * p**k for k, d in enumerate(row)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_solve_affine_matches_literal_filter(data, p):
    """Entries often from {0, 1, p - 1}, so dependent rows, zero columns
    and inconsistent constants are common; a window [lo, hi) of the
    candidate range, sometimes empty, is cut from the same solutions."""
    ndig = data.draw(st.integers(0, 5 if p == 2 else 3))
    m = data.draw(st.integers(0, 3))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    R = np.array([[data.draw(entry) for _ in range(m)] for _ in range(ndig)], np.int64).reshape(ndig, m)
    c = np.array([data.draw(entry) for _ in range(m)], np.int64)
    want = literal_affine(R, c, p)
    got = affine_scan(R, c, p)
    assert got == want  # ascending, as the literal filter runs
    total = p**ndig
    lo = data.draw(st.integers(0, total))
    hi = data.draw(st.integers(0, total + 1))
    assert affine_scan(R, c, p, lo, hi) == [n for n in want if lo <= n < hi]


def test_constant_in_a_zero_column_and_no_digits():
    for p in PRIMES:
        # a nonzero constant where every digit's residual is zero: nothing survives
        R = np.array([[1, 0], [p - 1, 0], [2 % p, 0]], np.int64)
        c = np.array([0, 1], np.int64)
        assert literal_affine(R, c, p) == []
        assert affine_scan(R, c, p) == []
        # the same column with a zero constant leaves the first condition
        c0 = np.array([1, 0], np.int64)
        assert affine_scan(R, c0, p) == literal_affine(R, c0, p) != []
        # N = 0: the single empty digit vector survives iff c == 0
        empty = np.zeros((0, 2), np.int64)
        assert affine_scan(empty, np.array([0, 0], np.int64), p) == [0]
        assert affine_scan(empty, np.array([0, 1], np.int64), p) == []


def test_scans_refuse_indices_beyond_int64():
    """2^63 candidates would wrap an int64 index: refused, not wrapped."""
    mul, act = truncated(9, 7)
    kill = np.zeros((0, 9), np.int64)
    with pytest.raises(OverflowError):
        _kernels.scan_linmap(mul, act, kill, 2, 0, 10)
    mul, act = truncated(9, 6)  # 2^54 candidates still index
    assert _kernels.scan_linmap(mul, act, kill, 2, 0, 10).tolist() == _kernels._scan_linmap_py(
        mul, act, kill, 2, 0, 10
    ).tolist()
