"""Canonical rationals over Q: every Q operation against a plain
``Fraction`` reference, the scalar contract (an int when integral, a
Fraction only when not, never a float), and exactness for numpy inputs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defalg import QQ
from defalg.fields import rational
from defalg.groebner import buchberger, normal_form
from defalg.poly import Polynomial

from .conftest import is_canonical


class PlainQ:
    """The reference: every scalar a Fraction, every operation plain
    Fraction arithmetic (the scalar half of a field, as Polynomial and
    the Groebner engine use it)."""

    name = "Q"
    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return a == 0


PLAIN = PlainQ()

# integral and non-integral values, small and past 2^64, some given as a
# Fraction with denominator 1 (not canonical on input)
fractions = st.builds(
    Fraction,
    st.integers(-6, 6) | st.integers(-(2**70), 2**70),
    st.sampled_from([1, 1, 1, 2, 3, 4, 10**6]),
)


def canonical_rows(rows):
    return all(is_canonical(QQ, x) for row in rows for x in row)


# -- the helper -----------------------------------------------------------


def test_rational_keeps_ints_and_drops_denominator_one():
    assert type(rational(7)) is int and rational(7) == 7
    assert type(rational(Fraction(6, 3))) is int and rational(Fraction(6, 3)) == 2
    assert rational(Fraction(1, 2)) == Fraction(1, 2)
    assert type(rational(np.int64(-5))) is int
    assert type(rational(True)) is int and rational(True) == 1


@pytest.mark.parametrize("bad", [0.5, 1.0, np.float64(2.0), 1j, "1/2", None], ids=repr)
def test_floats_and_non_numbers_are_refused(bad):
    with pytest.raises(TypeError):
        rational(bad)
    with pytest.raises(TypeError):
        QQ.from_int(bad)
    with pytest.raises(TypeError):
        QQ.array([[1, bad]])


def test_numpy_int64_near_2_62_stays_exact():
    big = np.int64(2**62)
    assert QQ.mul(QQ.from_int(big), 4) == 2**64
    assert QQ.add(QQ.from_int(big), QQ.from_int(big)) == 2**63
    a = QQ.array(np.full((2, 3), 2**62, np.int64))
    assert all(type(x) is int for x in a.ravel())
    assert QQ.matmul(a, a.T).tolist() == [[3 * 2**124] * 2] * 2
    inside = QQ.from_int(Fraction(big, np.int64(3)))
    assert type(inside.numerator) is int and QQ.mul(inside, 4) == Fraction(2**64, 3)
    assert type(QQ.from_int(Fraction(big, np.int64(1)))) is int
    r = QQ.reduce(np.array([big, np.int64(-(2**62))], object))
    assert all(type(x) is int for x in r) and QQ.reduce(r * 4).tolist() == [2**64, -(2**64)]


# -- scalar operations ------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(a=fractions, b=fractions)
def test_scalar_ops_match_plain_fractions(a, b):
    qa, qb = QQ.from_int(a), QQ.from_int(b)
    got = [QQ.add(qa, qb), QQ.sub(qa, qb), QQ.neg(qa), QQ.mul(qa, qb)]
    want = [a + b, a - b, -a, a * b]
    if b != 0:
        got += [QQ.inv(qb), QQ.div(qa, qb)]
        want += [1 / b, a / b]
    assert got == want
    assert all(is_canonical(QQ, x) for x in got)
    assert QQ.is_zero(qa) == (a == 0)


def test_zero_one_and_division_by_zero():
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    assert QQ.div(6, 3) == 2 and type(QQ.div(6, 3)) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(Fraction(1, 3))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


# -- arrays ------------------------------------------------------------------


def rows_of(n, k):
    return st.lists(st.lists(fractions, min_size=k, max_size=k), min_size=n, max_size=n)


def plain_rref(rows, ncols):
    """Gauss-Jordan on Fractions; the RREF is unique."""
    r = [list(row) for row in rows]
    piv = []
    for c in range(ncols):
        pr = next((i for i in range(len(piv), len(r)) if r[i][c] != 0), None)
        if pr is None:
            continue
        top = len(piv)
        r[top], r[pr] = r[pr], r[top]
        r[top] = [x / r[top][c] for x in r[top]]
        for i in range(len(r)):
            if i != top and r[i][c] != 0:
                m = r[i][c]
                r[i] = [x - m * y for x, y in zip(r[i], r[top])]
        piv.append(c)
    return r, tuple(piv)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_ops_match_plain_fractions(data):
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(rows_of(n, k)), data.draw(rows_of(k, m))
    A, B = QQ.array(a).reshape(n, k), QQ.array(b).reshape(k, m)
    assert A.tolist() == a and canonical_rows(A.tolist())
    # reduce brings object-array arithmetic back to canonical form
    twice = QQ.reduce(A + A)
    assert twice.tolist() == [[2 * x for x in row] for row in a] and canonical_rows(twice.tolist())
    prod = QQ.matmul(A, B).tolist()
    assert prod == [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)] for i in range(n)]
    assert canonical_rows(prod)
    # the reduction works on integer storage: the reduced integers over one denominator
    ints, den = QQ.ints(A)
    assert QQ.scalars(ints, den).tolist() == a
    red, rden, piv, rank = QQ.rref(ints)
    want, want_piv = plain_rref(a, k)
    assert (QQ.scalars(red, rden).tolist(), piv, rank) == (want, want_piv, len(want_piv))
    assert canonical_rows(QQ.scalars(red, rden).tolist())


@st.composite
def bounded_products(draw):
    """(a, b) as Fraction lists of shapes (n, k) and (k, m) whose cleared
    integers fall on either side of the int64 bound of matmul."""
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    top = draw(st.sampled_from([3, 2**29, 2**31, 2**33]))
    entries = st.builds(Fraction, st.integers(-top, top), st.sampled_from([1, 1, 2, 3]))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    return a, b


@settings(max_examples=120, deadline=None)
@given(bounded_products())
def test_matmul_on_either_side_of_the_int64_bound_matches_plain_fractions(case):
    a, b = case
    k = len(b)
    want = [[sum((row[t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(len(b[0]))] for row in a]
    got = QQ.matmul(QQ.array(a), QQ.array(b)).tolist()
    assert got == want and canonical_rows(got)


def test_matmul_bound_is_strict():
    # k * max|a| * max|b| = 2^63 exactly: the sum would wrap in int64
    a = QQ.array([[2**31, 2**31]])
    assert QQ.matmul(a, a.T).tolist() == [[2**63]]
    assert type(QQ.matmul(a, a.T)[0, 0]) is int
    # one below the bound takes int64 and still returns Python ints
    c = QQ.array([[2**31 - 1, 2**31 - 1]])
    got = QQ.matmul(c, c.T)
    assert got.tolist() == [[2 * (2**31 - 1) ** 2]] and type(got[0, 0]) is int


def test_reduced_storage_returns_to_int64_when_it_fits():
    # Python-int entries that fit go back to int64, with or without a
    # common factor to divide out, so later products take the int64 path
    for den, want in ((1, ([[2, 6], [0, 4]], 1)), (3, ([[2, 6], [0, 4]], 3)), (4, ([[1, 3], [0, 2]], 2))):
        a, d = QQ.lowest(np.array([[2, 6], [0, 4]], object), den)
        assert a.dtype == np.int64 and (a.tolist(), d) == want
    # the elimination passes through Python ints, the reduced form is small
    r, den, piv, rank = QQ.rref(np.array([[2**40, 1], [1, 2**40]], object))
    assert (r.tolist(), den, piv, rank) == ([[1, 0], [0, 1]], 1, (0, 1), 2)
    assert r.dtype == np.int64
    big, _ = QQ.lowest(np.array([[2**63, 1]], object), 1)
    assert big.dtype == object


# -- polynomials and Groebner normal forms ---------------------------------


@st.composite
def plain_polys(draw, nvars=2, max_terms=4, max_exp=3):
    raw = draw(
        st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * nvars), fractions, max_size=max_terms)
    )
    return {m: c for m, c in raw.items() if c != 0}


def both(terms, nvars=2):
    """The same polynomial over Q and over the plain reference."""
    return Polynomial(QQ, nvars, {m: QQ.from_int(c) for m, c in terms.items()}), Polynomial(PLAIN, nvars, terms)


def canonical_poly(p):
    return all(is_canonical(QQ, c) for c in p.terms.values())


@settings(max_examples=80, deadline=None)
@given(plain_polys(), plain_polys(), fractions)
def test_polynomial_arithmetic_matches_plain_fractions(f, g, c):
    (qf, pf), (qg, pg) = both(f), both(g)
    qc = QQ.from_int(c)
    for got, want in [
        (qf + qg, pf + pg),
        (qf - qg, pf - pg),
        (-qf, -pf),
        (qf * qg, pf * pg),
        (qf * qc, pf * c),
        (qf.derivative(0), pf.derivative(0)),
    ]:
        assert got.terms == want.terms and canonical_poly(got)
    point = [QQ.from_int(c), 3]
    assert qf.evaluate(point) == pf.evaluate([c, Fraction(3)])


@settings(max_examples=40, deadline=None)
@given(st.lists(plain_polys(max_terms=3, max_exp=2), min_size=1, max_size=3), plain_polys())
def test_groebner_normal_forms_match_plain_fractions(gens, f):
    q_gens, p_gens = zip(*(both(g) for g in gens))
    q_gb, p_gb = buchberger(list(q_gens)), buchberger(list(p_gens))
    assert [b.terms for b in q_gb.basis] == [b.terms for b in p_gb.basis]
    assert all(canonical_poly(b) for b in q_gb.basis)
    qf, pf = both(f)
    got, want = normal_form(qf, q_gb), normal_form(pf, p_gb)
    assert got.terms == want.terms and canonical_poly(got)
