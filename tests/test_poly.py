"""Polynomial arithmetic, monomial orders, and the text grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defalg import GF, QQ
from defalg.poly import GREVLEX, LEX, MonomialOrder, Polynomial, mono_deg
from defalg.problems import ParseError, parse_polynomial

NAMES = ("x", "y", "z")


@st.composite
def polys(draw, field=None, nvars=3, max_terms=5, max_exp=3):
    f = field or draw(st.sampled_from([GF(2), GF(3), QQ]))
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        m = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        c = f.from_int(draw(st.integers(-4, 4)))
        terms[m] = f.add(terms.get(m, f.zero()), c)
    return Polynomial(f, nvars, terms)


@st.composite
def poly_pairs(draw):
    f = draw(st.sampled_from([GF(2), GF(3), QQ]))
    return draw(polys(field=f)), draw(polys(field=f))


@st.composite
def poly_triples(draw):
    f = draw(st.sampled_from([GF(2), GF(3), QQ]))
    return draw(polys(field=f)), draw(polys(field=f)), draw(polys(field=f))


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_commutative_ring_laws(pair):
    p, q = pair
    assert p + q == q + p
    assert p * q == q * p
    assert p - p == Polynomial.zero(p.field, p.nvars)


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_distributivity_and_associativity(triple):
    p, q, r = triple
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60, deadline=None)
@given(poly_pairs(), st.integers(0, 2))
def test_derivative_is_leibniz(pair, var):
    p, q = pair
    lhs = (p * q).derivative(var)
    rhs = p.derivative(var) * q + p * q.derivative(var)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polys(field=GF(5)))
def test_evaluate_agrees_with_substitution_by_constants(p):
    f = p.field
    vals = [f.from_int(2), f.from_int(3), f.from_int(4)]
    images = [Polynomial.constant(f, 0, v) for v in vals]
    assert p.substitute(images).constant_term() == p.evaluate(vals)


class TestMonomialOrders:
    def test_unit_is_minimal(self):
        for order in (GREVLEX, LEX):
            unit = (0, 0, 0)
            for m in [(1, 0, 0), (0, 2, 1), (3, 3, 3)]:
                assert order.key(unit) < order.key(m)

    def test_grevlex_vs_lex_disagree(self):
        # x^2 vs y^3: grevlex ranks by total degree first, lex by x first
        a, b = (2, 0), (0, 3)
        g = MonomialOrder("grevlex")
        l = MonomialOrder("lex")
        assert g.key(a) < g.key(b)
        assert l.key(a) > l.key(b)

    def test_grevlex_last_variable_is_smallest(self):
        g = MonomialOrder("grevlex")
        assert g.key((0, 1)) < g.key((1, 0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([GREVLEX, LEX]),
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    )
    def test_multiplicative_total_order(self, order, a, b, c):
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        if ka < kb:
            # multiplying both sides by c preserves the comparison
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.key(ac) < order.key(bc)

    def test_permuted_order(self):
        plain = MonomialOrder("lex")
        swapped = MonomialOrder("lex", perm=(1, 0))
        assert plain.key((1, 0)) > plain.key((0, 1))
        assert swapped.key((1, 0)) < swapped.key((0, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MonomialOrder("degrevlex")

    def test_leading_term(self):
        f = GF(2)
        p = parse_polynomial("x^2 + x*y + y", NAMES[:2], f)
        m, c = p.leading_term(GREVLEX)
        assert m == (2, 0) and c == 1


class TestGrammar:
    def test_round_trip_through_to_string(self):
        f = GF(3)
        for text in ["x^2 - y", "2*x*y + z^3", "x - x", "1", "x*y*z - 2"]:
            p = parse_polynomial(text, NAMES, f)
            again = parse_polynomial(p.to_string(NAMES), NAMES, f)
            assert again == p

    @settings(max_examples=80, deadline=None)
    @given(polys())
    def test_round_trip_random(self, p):
        text = p.to_string(NAMES)
        assert parse_polynomial(text, NAMES, p.field) == p

    def test_rational_coefficients(self):
        p = parse_polynomial("1/2*x + 2/3", ("x",), QQ)
        from fractions import Fraction

        assert p.terms[(1,)] == Fraction(1, 2)
        assert p.terms[(0,)] == Fraction(2, 3)

    def test_implicit_multiplication_is_an_error(self):
        with pytest.raises(ParseError):
            parse_polynomial("2x", NAMES, GF(2))

    @pytest.mark.parametrize(
        "text",
        ["", "x +", "x ^ y", "x^^2", "(x", "x)", "w", "x // 2", "*x", "1/0"],
    )
    def test_bad_inputs_raise_with_offset(self, text):
        with pytest.raises(ParseError) as ei:
            parse_polynomial(text, NAMES, GF(3))
        assert ei.value.offset >= 0
        assert "offset" in str(ei.value)

    def test_unary_minus_and_parens(self):
        f = GF(5)
        p = parse_polynomial("-(x - y)^2 + x^2", ("x", "y"), f)
        q = parse_polynomial("2*x*y - y^2", ("x", "y"), f)
        assert p == q


@pytest.mark.parametrize("e", [0, 1, 2, 5, 8, 13])
def test_power_by_squaring_matches_repeated_products(e):
    f = QQ
    p = parse_polynomial("x + 2*y - 1/3", NAMES, f)
    want = Polynomial.one(f, 3)
    for _ in range(e):
        want = want * p
    assert p**e == want


def test_huge_monomial_power_takes_log_many_products():
    x = Polynomial.variable(GF(3), 1, 0)
    assert (x ** (10**9)).terms == {(10**9,): 1}
    # the parser refuses what the Groebner engine could not pack
    with pytest.raises(ParseError, match="packed exponent field"):
        parse_polynomial("x^1000000000", ("x",), GF(3))


def test_degree_and_embed():
    f = GF(2)
    p = parse_polynomial("x*y + x", ("x", "y"), f)
    assert p.degree() == 2
    assert Polynomial.zero(f, 2).degree() == -1
    q = p.embed(3, [0, 2])
    assert q.terms == {(1, 0, 1): 1, (1, 0, 0): 1}
    assert mono_deg((1, 0, 1)) == 2
