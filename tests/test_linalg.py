"""Exact linear algebra: elimination, kernels, solving, the agreement
of the numpy row-reduction kernel with its literal reference loop, and
exactness against plain Python arithmetic at every accepted prime and
over Q."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defalg import GF, QQ, PresentedAlgebra, StructureAlgebra
from defalg import _kernels
from defalg.linalg import (
    Matrix,
    complete_basis,
    kernel_basis,
    solve_affine,
    solve_affine_rows,
    vec_is_zero,
)

from .conftest import is_canonical

FIELDS = [GF(2), GF(3), GF(5), QQ]


def random_matrix(field, rng, nrows, ncols):
    if field is QQ:
        rows = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(ncols)] for _ in range(nrows)]
    else:
        rows = [[int(rng.integers(0, field.p)) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix.from_rows(field, rows, ncols=ncols)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_identity_rref_is_itself(field):
    m = Matrix.identity(field, 4)
    red, piv, rank = m.rref()
    assert rank == 4
    assert piv == (0, 1, 2, 3)
    assert red == m


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_rank_nullity(field):
    rng = np.random.default_rng(7)
    for _ in range(20):
        nrows = int(rng.integers(0, 6))
        ncols = int(rng.integers(1, 6))
        m = random_matrix(field, rng, nrows, ncols)
        ker = kernel_basis(m)
        assert m.rank() + ker.ncols == ncols
        for c in range(ker.ncols):
            assert vec_is_zero(field, m.mul_vec(ker.col(c)))
        # the kernel basis itself has full column rank
        assert span_rank(field, [ker.col(c) for c in range(ker.ncols)], ncols) == ker.ncols


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_rref_is_idempotent(field):
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_matrix(field, rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        red, piv, rank = m.rref()
        red2, piv2, rank2 = red.rref()
        assert (piv2, rank2) == (piv, rank)
        assert red2 == red


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_solve_affine_roundtrip(field):
    rng = np.random.default_rng(13)
    hits = 0
    for _ in range(30):
        m = random_matrix(field, rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        x = [field.from_int(int(rng.integers(-2, 3))) for _ in range(m.ncols)]
        b = m.mul_vec(x)
        sol = solve_affine(m, b)
        assert sol is not None, "a consistent system must be solved"
        assert m.mul_vec(sol) == b
        hits += 1
    assert hits == 30


def test_solve_affine_reports_inconsistency():
    f = GF(2)
    m = Matrix.from_rows(f, [[1, 1], [1, 1]])
    assert solve_affine(m, [1, 0]) is None
    assert solve_affine(m, [1, 1]) == [1, 0]


def span_rank(field, vecs, dim):
    return Matrix.from_rows(field, vecs, ncols=dim).rank()


def greedy_complete_basis(field, inner, outer, dim):
    """Reference: keep each outer vector that raises the rank so far."""
    picked = []
    cur = list(inner)
    r = span_rank(field, cur, dim)
    for idx, v in enumerate(outer):
        r2 = span_rank(field, cur + [list(v)], dim)
        if r2 > r:
            picked.append(idx)
            cur = cur + [list(v)]
            r = r2
    return picked


def test_in_span_and_complete_basis():
    f = GF(3)
    vecs = [[1, 0, 0], [0, 1, 0]]
    span = Matrix.from_cols(f, vecs, nrows=3)
    assert solve_affine(span, [2, 1, 0]) == [2, 1]
    assert solve_affine(span, [0, 0, 1]) is None
    picked = complete_basis(f, vecs, [[1, 1, 0], [0, 0, 2], [0, 1, 1]], 3)
    assert picked == [1], "only the first rank-raising vector is kept"
    rng = np.random.default_rng(17)
    for field in FIELDS:
        for _ in range(25):
            dim = int(rng.integers(0, 5))
            # few distinct rows, so that outer vectors often fail to raise the rank
            pool = random_matrix(field, rng, 3, dim).to_rows()
            vecs = [pool[int(rng.integers(0, 3))] for _ in range(int(rng.integers(0, 7)))]
            k = int(rng.integers(0, len(vecs) + 1))
            inner, outer = vecs[:k], vecs[k:]
            assert complete_basis(field, inner, outer, dim) == greedy_complete_basis(field, inner, outer, dim)


def test_rational_rref_exact():
    m = Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    red, piv, rank = m.rref()
    assert rank == 1
    assert piv == (0,)
    assert red.row(0) == [Fraction(1), Fraction(2, 3)]
    assert red.row(1) == [Fraction(0), Fraction(0)]


def test_hstack_vstack_shapes():
    f = GF(2)
    a = Matrix.from_rows(f, [[1, 0], [0, 1]])
    b = Matrix.from_rows(f, [[1], [1]])
    assert a.hstack(b).ncols == 3
    assert a.vstack(a).nrows == 4
    with pytest.raises(ValueError):
        a.hstack(Matrix.from_rows(f, [[1]]))
    with pytest.raises(ValueError):
        a.mul(b.transpose())


@st.composite
def modp_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return p, np.array(data, np.int64)


class TestKernelBackends:
    """The numpy kernel against the literal reference loop."""

    @settings(max_examples=60, deadline=None)
    @given(modp_matrices())
    def test_rref_matches_reference_loop(self, case):
        p, a = case
        r1, piv1, rank1 = _kernels._rref_modp_py(a, p)
        r2, piv2, rank2 = _kernels.rref_modp_numpy(a, p)
        assert rank1 == rank2
        assert np.array_equal(piv1[:rank1], piv2)
        assert np.array_equal(r1, r2)

    @settings(max_examples=60, deadline=None)
    @given(modp_matrices())
    def test_numpy_rref_postconditions(self, case):
        p, a = case
        r, piv, rank = _kernels.rref_modp_numpy(a, p)
        assert rank == len(piv)
        for i, c in enumerate(piv):
            col = r[:, c] % p
            assert col[i] == 1 and sum(col) == 1, "pivot columns are unit vectors"
        # row space is preserved: every original row reduces to zero
        for row in a:
            work = row.copy() % p
            for i, c in enumerate(piv):
                f = int(work[c]) % p
                if f:
                    work = (work - f * r[i]) % p
            assert not work.any()

    def test_active_backend_is_exported(self):
        assert _kernels.BACKEND == "numpy"
        assert _kernels.available_backends() == ("numpy",)
        assert _kernels.rref_modp is _kernels.rref_modp_numpy


# -- exactness at every accepted prime --------------------------------------

EXACT_FIELDS = [GF(2), GF(3), GF(65521), GF(2**31 - 1), QQ]


def canon(field, x):
    return Fraction(x) if field is QQ else x % field.p


def scalars(field):
    if field is QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=5)
    # p - 1 often: three products of it overflow int64 at p = 2^31 - 1
    return st.one_of(st.just(field.p - 1), st.integers(0, field.p - 1))


def draw_rows(data, field, nrows, ncols):
    return [[data.draw(scalars(field)) for _ in range(ncols)] for _ in range(nrows)]


def ref_matmul(field, a, b, ncols):
    return [
        [canon(field, sum(a[i][k] * b[k][j] for k in range(len(b)))) for j in range(ncols)]
        for i in range(len(a))
    ]


def ref_rref(field, rows, ncols):
    """Gauss-Jordan on Python scalars; the RREF is unique."""
    r = [[canon(field, x) for x in row] for row in rows]
    piv = []
    for c in range(ncols):
        rank = len(piv)
        pr = next((i for i in range(rank, len(r)) if not field.is_zero(r[i][c])), None)
        if pr is None:
            continue
        r[rank], r[pr] = r[pr], r[rank]
        inv = field.inv(r[rank][c])
        r[rank] = [field.mul(inv, x) for x in r[rank]]
        for i in range(len(r)):
            if i != rank and not field.is_zero(r[i][c]):
                m = r[i][c]
                r[i] = [field.sub(x, field.mul(m, y)) for x, y in zip(r[i], r[rank])]
        piv.append(c)
    return r, tuple(piv), len(piv)


def exact_type(field, rows):
    return all(is_canonical(field, x) for row in rows for x in row)


@pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_ops_match_python_reference(field, data):
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = draw_rows(data, field, n, k)
    b = draw_rows(data, field, k, m)
    x = [data.draw(scalars(field)) for _ in range(k)]
    A = Matrix.from_rows(field, a, ncols=k)
    prod = A.mul(Matrix.from_rows(field, b, ncols=m)).to_rows()
    assert prod == ref_matmul(field, a, b, m) and exact_type(field, prod)
    vec = A.mul_vec(x)
    assert vec == [row[0] for row in ref_matmul(field, a, [[v] for v in x], 1)]
    assert exact_type(field, [vec])
    red, piv, rank = A.rref()
    assert (red.to_rows(), piv, rank) == ref_rref(field, a, k)
    assert exact_type(field, red.to_rows())


@pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_structure_mul_vec_matches_python_reference(field, data):
    n = data.draw(st.integers(1, 4))
    mul = [draw_rows(data, field, n, n) for _ in range(n)]
    u = [data.draw(scalars(field)) for _ in range(n)]
    v = [data.draw(scalars(field)) for _ in range(n)]
    S = StructureAlgebra(field, [f"e{i}" for i in range(n)], mul)
    got = S.mul_vec(u, v)
    want = [canon(field, sum(u[a] * v[b] * mul[a][b][k] for a in range(n) for b in range(n))) for k in range(n)]
    assert got == want and exact_type(field, [got])


def test_products_do_not_wrap_at_the_largest_prime():
    p = 2**31 - 1
    f = GF(p)
    a = Matrix.from_rows(f, [[p - 1] * 3])
    assert a.mul(a.transpose()).to_rows() == [[3]]
    assert a.mul_vec([p - 1] * 3) == [3]
    S = PresentedAlgebra.from_strings(f, ["x"], ["x^3-5"]).to_structure()
    u = [p - 1, p - 2, p - 3]  # -(1 + 2x + 3x^2)
    assert S.mul_vec(u, u) == [61, 49, 10]


# -- Q products on cleared denominators ---------------------------------


def q_entries(integral):
    """Fractions with numerators past 2^70 and denominators up to 10^6;
    integral draws exercise the path that skips the scaling."""
    nums = st.integers(-3, 3) | st.integers(-(2**80), 2**80)
    dens = st.just(1) if integral else st.integers(1, 10**6)
    return st.builds(Fraction, nums, dens)


def frac_matmul(a, b, ncols):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(ncols)] for i in range(len(a))]


@pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (3, 4, 2)], ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_q_products_match_fraction_reference(shape, data):
    n, k, m = shape
    entries = q_entries(data.draw(st.booleans()))
    a = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[data.draw(entries) for _ in range(m)] for _ in range(k)]
    x = [data.draw(entries) for _ in range(k)]
    A, B = Matrix.from_rows(QQ, a, ncols=k), Matrix.from_rows(QQ, b, ncols=m)
    prod = A.mul(B).to_rows()
    assert prod == frac_matmul(a, b, m) and exact_type(QQ, prod)
    vec = A.mul_vec(x)
    assert vec == [row[0] for row in frac_matmul(a, [[v] for v in x], 1)] and exact_type(QQ, [vec])
    # a 1-D left operand, as StructureAlgebra.mul_vec contracts
    left = QQ.matmul(QQ.array(x), B.to_array()).tolist()
    assert left == frac_matmul([x], b, m)[0] and exact_type(QQ, [left])


# -- Q matrices as integers over one denominator ----------------------------

# numerators at the int64 tier bounds: a product sums k terms of at most
# max|a| max|b|, an elimination step two of at most max^2
TIER_NUMERATORS = [2**31 - 1, 2**31, 2**31 + 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63]


@st.composite
def q_matrix_case(draw):
    """(a, b, c, xs, bs) as Fraction rows of shapes (n, k), (k, m),
    (n, m), (K, k) and (K, n).  Each matrix is integral, over one
    denominator or over mixed ones, with numerators at the int64 tier
    bounds or small, so that both integer tiers run."""
    n, k, m, K = (draw(st.integers(0, 3)) for _ in range(4))
    nums = st.sampled_from([s * x for x in TIER_NUMERATORS for s in (1, -1)]) | st.integers(-3, 3)
    dens = st.sampled_from([1, 2, 3, 2**31 - 1, 2**31]) | st.integers(1, 2**31)

    def matrix(rows, cols):
        mode = draw(st.sampled_from(["integral", "one", "mixed"]))
        one = draw(dens)
        den = {"integral": st.just(1), "one": st.just(one), "mixed": dens}[mode]
        return [[Fraction(draw(nums), draw(den)) for _ in range(cols)] for _ in range(rows)]

    return matrix(n, k), matrix(k, m), matrix(n, m), matrix(K, k), matrix(K, n)


def fraction_rref(rows, ncols):
    red, piv, rank = ref_rref(QQ, rows, ncols)
    return [[Fraction(x) for x in row] for row in red], piv, rank


def fraction_kernel(rows, ncols):
    """Columns: 1 on one free coordinate, minus the reduced entries on the pivots."""
    red, piv, rank = fraction_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in piv]
    cols = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -red[i][fc]
        cols.append(v)
    return [[v[i] for v in cols] for i in range(ncols)]


def fraction_solve(rows, b, ncols):
    """The solution with free coordinates zero, or None."""
    red, piv, _ = fraction_rref([row + [x] for row, x in zip(rows, b)], ncols + 1)
    if ncols in piv:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(piv):
        x[pc] = red[i][ncols]
    return x


def transposed(rows, nrows, ncols):
    return [[rows[i][j] for i in range(nrows)] for j in range(ncols)]


@settings(max_examples=150, deadline=None)
@given(q_matrix_case())
# k * max|a| * max|b| = 2^63: the product sums 2^62 + 2^62
@example(([[2**31, 2**31]], [[2**31], [2**31]], [[1]], [], []))
# 2 * max^2 = 2^63: eliminating column 0 gives 2^62 + 2^62 in column 1
@example(([[2**31, 2**31, 1], [-(2**31), 2**31, 1]], [[0]] * 3, [[0], [0]], [], []))
# a common denominator 2 scales 2^62 past int64
@example(([[2**62]], [[1]], [[Fraction(1, 2)]], [[1]], [[2**62]]))
# the kernel negates -2^63, which has no int64 negative
@example(([[2**31 - 1, -(2**63)]], [[0], [0]], [[0]], [], []))
def test_q_matrix_ops_match_plain_fractions(case):
    a, b, c, xs, bs = case
    n, k = len(a), len(b)
    m = len(c[0]) if c else (len(b[0]) if b else 0)
    A = Matrix.from_rows(QQ, a, ncols=k)
    # construction and entry reads
    assert A.to_rows() == a and exact_type(QQ, A.to_rows())
    assert Matrix.from_cols(QQ, transposed(a, n, k), nrows=n) == A
    for i in range(n):
        assert A.row(i) == a[i]
        for j in range(k):
            assert A.entry(i, j) == a[i][j] and is_canonical(QQ, A.entry(i, j))
    for j in range(k):
        assert A.col(j) == [row[j] for row in a]
    assert A.is_zero() == (not any(x for row in a for x in row))
    assert A.transpose().to_rows() == transposed(a, n, k)
    # products
    Bm = Matrix.from_rows(QQ, b, ncols=m)
    prod = A.mul(Bm).to_rows()
    assert prod == frac_matmul(a, b, m) and exact_type(QQ, prod)
    images = [[row[0] for row in frac_matmul(a, [[v] for v in x], 1)] for x in xs]
    assert [A.mul_vec(x) for x in xs] == images
    assert A.mul_rows(QQ.array(xs).reshape(len(xs), k)).tolist() == images
    # stacking over a common denominator
    C = Matrix.from_rows(QQ, c, ncols=m)
    assert A.hstack(C).to_rows() == [ra + rc for ra, rc in zip(a, c)]
    assert Bm.vstack(C).to_rows() == b + c
    # elimination, kernel and solutions
    red, piv, rank = A.rref()
    assert (red.to_rows(), piv, rank) == fraction_rref(a, k) and exact_type(QQ, red.to_rows())
    ker = kernel_basis(A)
    assert ker.to_rows() == fraction_kernel(a, k) and exact_type(QQ, ker.to_rows())
    ok, sol = solve_affine_rows(A, QQ.array(bs).reshape(len(bs), n))
    for row, good, x in zip(bs, ok.tolist(), sol.tolist()):
        want = fraction_solve(a, row, k)
        assert good == (want is not None)
        assert x == (want if good else [0] * k) and exact_type(QQ, [x])


@pytest.mark.parametrize("row", [[1, -(2**63)], [2**31 - 1, -(2**63)]], ids=["one", "prime"])
def test_q_kernel_of_int64_minimum_is_annihilated(row):
    """-2^63 is the one int64 whose negative wraps: the kernel widens it."""
    A = Matrix.from_rows(QQ, [row])
    K = kernel_basis(A)
    assert K.ncols == 1 and A.mul(K).is_zero()
    assert K.to_rows() == fraction_kernel([[Fraction(x) for x in row]], 2)


def test_near_miss_q_product_is_nonzero():
    eps = Fraction(1, 10**30)
    A = Matrix.from_rows(QQ, [[Fraction(1, 3), Fraction(-1, 3) + eps]])
    prod = A.mul(Matrix.from_rows(QQ, [[1], [1]]))
    assert not prod.is_zero() and prod.to_rows() == [[eps]]
    assert A.mul_vec([Fraction(1), Fraction(1)]) == [eps]


@pytest.mark.parametrize("which", [0, 1], ids=["D1.D0", "W.D1"])
def test_cochain_identities_catch_a_near_miss(monkeypatch, which):
    """Moving one entry of D0 (or D1) by 10^-30 breaks D1.D0 = 0 (or
    W.D1 = 0), and building the maps says so."""
    import dataclasses

    from defalg import cotangent
    from defalg.algebras import FiniteModule

    B = PresentedAlgebra.from_strings(QQ, ["x", "y"], ["x^2", "x*y", "y^2"])
    J = FiniteModule.regular(B)
    cx = cotangent.cotangent_complex(B)
    maps = cotangent.cochain_maps(cx, J)
    after = maps.d1 if which == 0 else maps.w
    col = next(c for c in range(after.ncols) if any(after.col(c)))
    # the nudge sits in column 0; row 0 of D0 is zero, so a nudged D1
    # still passes the low-degree check and reaches the top-degree one
    assert not any(maps.d0.row(0))
    built = []
    block_matrix = cotangent.block_matrix

    def nudged(*args):
        m = block_matrix(*args)
        if len(built) == which:
            rows = m.to_rows()
            rows[col][0] += Fraction(1, 10**30)
            m = Matrix.from_rows(QQ, rows)
        built.append(m)
        return m

    monkeypatch.setattr(cotangent, "block_matrix", nudged)
    degree = "low" if which == 0 else "top"
    # a replaced copy of the complex builds maps of its own
    with pytest.raises(AssertionError, match=f"compose to zero in {degree} degree"):
        cotangent.cochain_maps(dataclasses.replace(cx), J)


# -- memoized monomial actions ------------------------------------------


def explicit_action(J, m):
    """mats[n-1]^e ... mats[0]^e, one product at a time from the identity."""
    w = Matrix.identity(J.field, J.rank)
    for v, e in enumerate(m):
        for _ in range(e):
            w = J.mats[v].mul(w)
    return w


@pytest.mark.parametrize("field", [GF(3), QQ], ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_memoized_action_matches_explicit_products(field, data):
    """Monomials asked for in a random order, on a module whose matrices
    need not commute (from_matrices does not validate), so the cache is
    filled out of order and the product order is tested too."""
    from defalg.algebras import FiniteModule

    B = PresentedAlgebra.from_strings(field, ["x", "y", "z"], ["x^3", "y^3", "z^3"])
    t = 3
    mats = [[[data.draw(scalars(field)) for _ in range(t)] for _ in range(t)] for _ in range(3)]
    J = FiniteModule.from_matrices(B, ["a", "b", "c"], mats)
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=8))
    for m in monos:
        assert J.monomial_action(m) == explicit_action(J, m)
    poly = sum((B.var(v) ** e for v, e in enumerate(monos[0])), B.zero_poly()) + B.var(0) * B.var(2)
    want = [[field.zero()] * t for _ in range(t)]
    for m, c in poly.terms.items():
        w = explicit_action(J, m).to_rows()
        want = [[field.add(a, field.mul(c, b)) for a, b in zip(r, rw)] for r, rw in zip(want, w)]
    assert J.action_of_poly(poly).to_rows() == want
    # a stack of actions shares one product: here with a zero polynomial
    stack = J.action_stack([poly, B.zero_poly(), B.var(1)])
    assert stack[0].tolist() == want and not stack[1].any()
    assert stack[2].tolist() == explicit_action(J, (0, 1, 0)).to_rows()
