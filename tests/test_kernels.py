"""The linear oracle scans against their literal reference loops.

``scan_assoc`` and ``scan_linmap`` solve their residual conditions by
meet-in-the-middle; ``_scan_assoc_py`` and ``_scan_linmap_py`` evaluate
every candidate literally.  Both are compared on random sub-ranges,
including empty ranges and scans with no digits, on tables that meet
the kernels' precondition: e_0 is the unit, the multiplication is
commutative and e_0 acts as the identity.

The row join shared by ``_scan_linear`` and the oracle's base-structure
scan, and the affine form d @ R + c == 0 solved with c as a top digit
fixed to 1, are checked against literal pairing and filtering.
"""

import numpy as np
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


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_join_rows_matches_literal_pairing(data, p):
    """Every (outer, inner) pair with equal rows, outer-major and inner
    ascending; few distinct rows, so groups are large."""
    m = data.draw(st.integers(0, 2))
    n_in = data.draw(st.integers(1, 12))
    n_out = data.draw(st.integers(0, 12))
    row = st.lists(st.integers(0, min(p - 1, 1)), min_size=m, max_size=m)
    inner = np.array(data.draw(st.lists(row, min_size=n_in, max_size=n_in)), np.int64).reshape(n_in, m)
    outer = np.array(data.draw(st.lists(row, min_size=n_out, max_size=n_out)), np.int64).reshape(n_out, m)
    want = [(i, j) for i in range(n_out) for j in range(n_in) if np.array_equal(outer[i], inner[j])]
    i, j = _kernels._join_rows(inner, outer, p)
    assert i.dtype == j.dtype == np.int64
    assert list(zip(i.tolist(), j.tolist())) == want


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([(2, 61), (2, 62), (3, 38), (3, 40), (5, 26), (5, 27)]))
def test_unique_rows_matches_the_row_sort_on_either_side_of_the_key_bound(data, case):
    """Rows of p^width < 2^62 sort as one packed key each, wider rows as
    rows; both give np.unique's distinct rows (in lexicographic order),
    inverse and counts, and the join pairs them the same way.  Rows come
    from a small pool, so most of them repeat."""
    p, width = case
    digit = st.sampled_from([0, 1, p - 1])
    pool = data.draw(st.lists(st.lists(digit, min_size=width, max_size=width), min_size=1, max_size=3))
    n = data.draw(st.integers(0, 10))
    rows = np.array([data.draw(st.sampled_from(pool)) for _ in range(n)], np.int64).reshape(n, width)
    uniq, inv, counts = _kernels._unique_rows(rows, p)
    want_uniq, want_inv, want_counts = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    assert uniq.tolist() == want_uniq.tolist()
    assert inv.tolist() == want_inv.ravel().tolist() and counts.tolist() == want_counts.tolist()
    half = n // 2
    i, j = _kernels._join_rows(rows[:half], rows[half:], p)
    want = [(a, b) for a in range(n - half) for b in range(half) if np.array_equal(rows[half + a], rows[b])]
    assert list(zip(i.tolist(), j.tolist())) == want


def literal_affine(R, c, p):
    """Every n in [0, p^N) whose digits d have d @ R + c == 0 mod p."""
    ndig = R.shape[0]
    out = []
    for n in range(p**ndig):
        d = [(n // p**k) % p for k in range(ndig)]
        if not ((np.array(d, np.int64) @ R + c) % p).any():
            out.append(n)
    return out


def affine_scan(R, c, p):
    total = p ** R.shape[0]
    return _kernels._scan_linear(np.vstack([R, c]), p, total, 2 * total) - total


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_constant_as_top_digit_matches_literal_filter(data, p):
    ndig = data.draw(st.integers(0, 5 if p == 2 else 3))
    m = data.draw(st.integers(1, 3))
    R = np.array([data.draw(residues(p, m)) for _ in range(ndig)], np.int64).reshape(ndig, m)
    c = np.array(data.draw(residues(p, m)), np.int64)
    got = affine_scan(R, c, p)
    assert got.dtype == np.int64
    assert got.tolist() == literal_affine(R, c, p)


def test_constant_in_a_zero_column_and_no_digits():
    for p in PRIMES:
        # a nonzero constant where every digit's residual is zero: nothing survives
        R = np.array([[1, 0], [p - 1, 0], [2 % p, 0]], np.int64)
        c = np.array([0, 1], np.int64)
        assert literal_affine(R, c, p) == []
        assert affine_scan(R, c, p).tolist() == []
        # the same column with a zero constant leaves the first condition
        c0 = np.array([1, 0], np.int64)
        assert affine_scan(R, c0, p).tolist() == literal_affine(R, c0, p) != []
        # N = 0: the single empty digit vector survives iff c == 0
        empty = np.zeros((0, 2), np.int64)
        assert affine_scan(empty, np.array([0, 0], np.int64), p).tolist() == [0]
        assert affine_scan(empty, np.array([0, 1], np.int64), p).tolist() == []
