"""Buchberger postconditions: canonical bases, certified membership,
and complete syzygy modules."""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from defalg import GF, QQ
from defalg import groebner
from defalg.groebner import (
    MAX_EXPONENT,
    _Engine,
    _pack,
    _v_divmod,
    buchberger,
    ideal_member,
    module_groebner,
    module_syzygies,
    normal_form,
    normal_form_quotients,
    syzygy_basis,
)
from defalg.algebras import PresentedAlgebra
from defalg.linalg import Matrix
from defalg.poly import GREVLEX, LEX, MonomialOrder, Polynomial, mono_div, mono_divides, mono_mul
from defalg.problems import ParseError
from defalg.problems import parse_polynomial

NAMES = ("x", "y", "z")


def polys_of(field, *texts):
    return [parse_polynomial(t, NAMES, field) for t in texts]


WORKED_IDEALS = [
    ["x^2", "x*y", "y^2"],
    ["x*y", "x^3", "y^2"],
    ["x^2 - y", "y^2"],
    ["x^2 - y^2", "x*y"],
    ["x^3 - x", "y - x^2"],
]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("texts", WORKED_IDEALS, ids=["fat", "mix", "chain", "conic", "curve"])
def test_reduced_basis_is_generator_order_independent(field, texts):
    gens = polys_of(field, *texts)
    want = {p.key() for p in buchberger(gens).basis}
    for perm in itertools.permutations(gens):
        got = {p.key() for p in buchberger(list(perm)).basis}
        assert got == want


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
def test_cofactor_certificates_re_expand(field):
    gens = polys_of(field, "x^2 - y", "y^2")
    gb = buchberger(gens)
    # basis[j] really equals sum_i to_gens[j][i] * gens[i]
    for j, b in enumerate(gb.basis):
        acc = Polynomial.zero(field, 3)
        for i, u in enumerate(gb.to_gens[j]):
            acc = acc + u * gens[i]
        assert acc == b
    # and the other way around
    for i, g in enumerate(gens):
        acc = Polynomial.zero(field, 3)
        for j, u in enumerate(gb.from_gens[i]):
            acc = acc + u * gb.basis[j]
        assert acc == g


def test_normal_form_is_canonical():
    f = GF(3)
    gens = polys_of(f, "x^2", "x*y", "y^2")
    gb = buchberger(gens)
    p = polys_of(f, "x^2 + x + 1")[0]
    q = polys_of(f, "x*y + x + 1")[0]
    assert normal_form(p, gb) == normal_form(q, gb) == polys_of(f, "x + 1")[0]
    nf, quots = normal_form_quotients(p, gb)
    acc = nf
    for u, b in zip(quots, gb.basis):
        acc = acc + u * b
    assert acc == p


def test_contains_one_detects_the_unit_ideal():
    f = GF(2)
    assert buchberger(polys_of(f, "x", "x + 1")).contains_one()
    assert not buchberger(polys_of(f, "x^2", "y")).contains_one()


def test_ideal_member_certificate():
    f = QQ
    gens = polys_of(f, "x^2 - y", "y^2")
    member, cof = ideal_member(polys_of(f, "x^4")[0], gens)
    assert member
    acc = Polynomial.zero(f, 3)
    for c, g in zip(cof, gens):
        acc = acc + c * g
    assert acc == polys_of(f, "x^4")[0]
    member, cof = ideal_member(polys_of(f, "x^3")[0], gens)
    assert not member and cof is None


def test_division_refuses_input_from_another_ring():
    f = GF(3)
    B = PresentedAlgebra.from_strings(f, ["x", "y"], ["x^2", "y^2"])
    gb = B.groebner()
    # x*z in three variables once read as x by the two-variable layout
    xz = polys_of(f, "x*z")[0]
    for divide in (B.coordinates, B.normal_form, lambda p: normal_form(p, gb), lambda p: gb.divide(p.terms)):
        with pytest.raises(ValueError):
            divide(xz)
    # Q polynomials, whether or not their coefficients look like residues
    for text in ("x", "1/2*x", "-x + y"):
        q = parse_polynomial(text, B.names, QQ)
        for divide in (B.coordinates, lambda p: normal_form_quotients(p, gb), lambda p: ideal_member(p, gb)):
            with pytest.raises(ValueError):
                divide(q)
    for coeff in (Fraction(1, 2), 3, -1):
        with pytest.raises(ValueError):
            gb.divide({(1, 0): coeff})
    assert B.coordinates(parse_polynomial("2*x + 1", B.names, f)) == [1, 0, 2, 0]  # basis 1, y, x, x*y
    # a module basis refuses another rank, field or number of variables
    mgb = module_groebner([polys_of(f, "x", "y")], 2)
    foreign = [
        polys_of(f, "x"),
        polys_of(f, "x", "y", "z"),
        polys_of(QQ, "x", "y"),
        [Polynomial.variable(f, 2, 0), Polynomial.zero(f, 2)],
    ]
    for vec in foreign:
        with pytest.raises(ValueError):
            mgb.normal_form(vec)
    assert mgb.contains(polys_of(f, "x*z", "y*z"))


def test_divide_and_certify_agree_with_the_polynomial_api():
    for f in (GF(3), QQ):
        gb = buchberger(polys_of(f, "x^2 - 1/5*y", "x*y - z", "y^2"))
        p = polys_of(f, "x^3*y + 2/7*x*z + z^2")[0]
        nf, division = gb.divide(p.terms)
        assert Polynomial(f, 3, nf) == normal_form(p, gb)
        member, cof = ideal_member(p - Polynomial(f, 3, nf), gb)
        assert member and cof == [Polynomial(f, 3, h) for h in gb.certify(division)]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("texts", WORKED_IDEALS, ids=["fat", "mix", "chain", "conic", "curve"])
def test_syzygies_pair_to_zero_and_catch_koszul(field, texts):
    gens = polys_of(field, *texts)
    syz = syzygy_basis(gens)
    for col in syz.columns:
        acc = Polynomial.zero(field, 3)
        for h, g in zip(col, gens):
            acc = acc + h * g
        assert acc.is_zero()
    # completeness: every Koszul relation g_j e_i - g_i e_j reduces to
    # zero against the syzygy module
    if len(gens) >= 2 and syz.columns:
        mgb = module_groebner([list(c) for c in syz.columns], len(gens))
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                vec = [Polynomial.zero(field, 3) for _ in gens]
                vec[i] = gens[j]
                vec[j] = -gens[i]
                assert mgb.contains(vec), "Koszul syzygy missed"


def test_module_syzygies_of_unit_vectors_vanish():
    f = GF(2)
    e1 = [Polynomial.one(f, 3), Polynomial.zero(f, 3)]
    e2 = [Polynomial.zero(f, 3), Polynomial.one(f, 3)]
    assert module_syzygies([e1, e2], 2) == []


def test_collapsed_generator_yields_a_syzygy():
    # x and x appear twice: e_1 - e_2 must be found
    f = GF(3)
    x = parse_polynomial("x", NAMES, f)
    syz = syzygy_basis([x, x])
    assert syz.columns
    found = any(
        col[0] + col[1] == Polynomial.zero(f, 3) and not col[0].is_zero() for col in syz.columns
    )
    assert found


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(["x^2", "x*y", "y^2", "x^2 - y", "y^3", "x*z - y"]), min_size=1, max_size=4),
    st.sampled_from([GF(2), GF(3)]),
)
def test_normal_form_respects_ring_operations(texts, field):
    gens = polys_of(field, *texts)
    gb = buchberger(gens)
    p = polys_of(field, "x^2 + y*z")[0]
    q = polys_of(field, "x + y + 1")[0]
    lhs = normal_form(p * q, gb)
    rhs = normal_form(normal_form(p, gb) * normal_form(q, gb), gb)
    assert lhs == rhs
    assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)


# ---------------------------------------------------------------------------
# packed terms: order, divisibility and shifts, up to the top of the field

ORDERS = [GREVLEX, LEX, MonomialOrder("grevlex", perm=(2, 0, 1))]


def _tuple_key(order):
    """The term-over-position order on (component, monomial) tuples:
    ring order first, ties toward the earlier component."""
    return lambda t: (order.key(t[1]), -t[0])


def _packed(pack, v):
    return {pack.mono(m) + groebner._unit(c): coeff for (c, m), coeff in v.items()}


def _unpacked(pack, v):
    return {(groebner._comp(t), pack.exponents(t)): c for t, c in v.items()}


def _division_data(basis, pack):
    """The division data of a monic basis of packed vectors (rationals or
    residues), each tail built by _tail from the vector's integral form."""
    leads = [max(v) for v in basis]
    tails = [groebner._tail(groebner._integral(QQ, v)[1], lead) for v, lead in zip(basis, leads)]
    return groebner._Division(leads, tails, pack)


@st.composite
def monomials(draw, order, nvars=3):
    """Exponent vectors that fit the packed field of order: under grevlex
    the degree is at most MAX_EXPONENT, under lex each exponent is."""
    top = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))
    if order.kind == "lex":
        return tuple(draw(top) for _ in range(nvars))
    out, room = [], MAX_EXPONENT
    for _ in range(nvars):
        e = min(draw(top), room)
        out.append(e)
        room -= e
    perm = draw(st.permutations(range(nvars)))
    return tuple(out[i] for i in perm)


@st.composite
def packed_pairs(draw):
    order = draw(st.sampled_from(ORDERS))
    comps = st.integers(0, 3)
    return order, draw(monomials(order)), draw(comps), draw(monomials(order)), draw(comps)


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_packing_preserves_order_divisibility_and_shift(case):
    order, a, ca, b, cb = case
    pack = _pack(3, order)
    ta, tb = pack.mono(a) + groebner._unit(ca), pack.mono(b) + groebner._unit(cb)
    assert pack.exponents(ta) == a and groebner._comp(ta) == ca
    key = _tuple_key(order)
    assert (ta < tb) == (key((ca, a)) < key((cb, b)))
    assert (ta == tb) == ((ca, a) == (cb, b))
    divides = ca == cb and mono_divides(a, b)
    assert (not (tb - ta) & pack.divmask) == divides
    if divides:
        assert tb - ta == pack.mono(mono_div(b, a))
    # a shift is one add; a sum past the field is refused, never wrapped
    total = mono_mul(a, b)
    fits = (sum(total) if order.kind == "grevlex" else max(total)) <= MAX_EXPONENT
    if fits:
        assert pack.mono(a) + tb == pack.mono(total) + groebner._unit(cb)
    else:
        with pytest.raises(OverflowError):
            pack.check([pack.mono(a) + tb])
        with pytest.raises(OverflowError):
            pack.mono(total)


def test_exponent_past_the_field_is_refused():
    f = GF(3)
    x, y = Polynomial.variable(f, 2, 0), Polynomial.variable(f, 2, 1)
    with pytest.raises(OverflowError, match="does not fit"):
        buchberger([x ** (MAX_EXPONENT + 1)])
    # the lcm of an S-pair grows past the degrees of its inputs
    with pytest.raises(OverflowError):
        buchberger([x**20000 * y, x * y**20000])
    # lex division raises exponents: x^16384 reduces to y^32768 by x - y^2
    gb = buchberger([x - y**2], LEX)
    with pytest.raises(OverflowError):
        normal_form(x**16384, gb)
    assert normal_form(x**16383, gb) == y ** (MAX_EXPONENT - 1)
    with pytest.raises(ParseError, match="packed exponent field"):
        parse_polynomial("x^40000", NAMES, f)


# ---------------------------------------------------------------------------
# heap-driven division against the literal "max over work" loop


def _reference_divmod(field, v, basis, leads, order):
    """Full division on tuple-keyed vectors, one term at a time: always
    the largest term of what is left, always the first basis element
    whose lead divides it."""
    key = _tuple_key(order)
    work = dict(v)
    nf = {}
    quots = [dict() for _ in basis]
    while work:
        t = max(work, key=key)
        comp, mono = t
        coeff = work[t]
        hit = next(
            (k for k, (lc, lm) in enumerate(leads) if lc == comp and mono_divides(lm, mono)), -1
        )
        if hit < 0:
            nf[t] = coeff
            del work[t]
            continue
        shift = mono_div(mono, leads[hit][1])
        quots[hit][shift] = field.add(quots[hit].get(shift, field.zero()), coeff)
        for (bc, bm), bcoeff in basis[hit].items():
            u = (bc, mono_mul(shift, bm))
            nc = field.sub(work.get(u, field.zero()), field.mul(coeff, bcoeff))
            if field.is_zero(nc):
                work.pop(u, None)
            else:
                work[u] = nc
    return nf, quots


@st.composite
def module_division_inputs(draw):
    """(field, order, v, basis, leads), tuple-keyed: basis monic."""
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    order = draw(st.sampled_from(ORDERS))
    ncomp = draw(st.integers(1, 3))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).map(QQ.from_int)
    else:
        scalars = st.integers(0, field.p - 1).map(field.from_int)
    terms = st.tuples(st.integers(0, ncomp - 1), st.tuples(*[st.integers(0, 3)] * 3))

    def vector(min_size):
        raw = draw(st.dictionaries(terms, scalars, min_size=min_size, max_size=5))
        return {t: c for t, c in raw.items() if not field.is_zero(c)}

    key = _tuple_key(order)
    basis, leads = [], []
    for _ in range(draw(st.integers(1, 4))):
        b = vector(1)
        if not b:
            continue
        lead = max(b, key=key)
        inv = field.inv(b[lead])
        basis.append({t: field.mul(inv, c) for t, c in b.items()})
        leads.append(lead)
    return field, order, vector(0), basis, leads


@settings(max_examples=200, deadline=None)
@given(module_division_inputs())
def test_heap_division_matches_the_max_over_work_loop(inputs):
    field, order, v, basis, leads = inputs
    pack = _pack(3, order)
    data = _division_data([_packed(pack, b) for b in basis], pack)
    assert [(groebner._comp(t), pack.exponents(t)) for t in data.leads] == leads
    nf, quots = _v_divmod(field, _packed(pack, v), data)
    want_nf, want_quots = _reference_divmod(field, v, basis, leads, order)
    # equal term by term, in the same insertion order, once unpacked
    assert list(_unpacked(pack, nf).items()) == list(want_nf.items())
    got_quots = [[(pack.exponents(s), c) for s, c in q.items()] for q in quots]
    assert got_quots == [list(q.items()) for q in want_quots]


PRIMES_TO_97 = [q for q in range(2, 98) if all(q % d for d in range(2, q))]


@st.composite
def coprime_denominator_inputs(draw):
    """(order, v, basis, leads) over Q, tuple-keyed: every coefficient has
    a prime denominator up to 97, so the monic tails carry large coprime
    denominators and the division rescales its work again and again."""
    order = draw(st.sampled_from(ORDERS))
    ncomp = draw(st.integers(1, 2))
    scalars = st.builds(Fraction, st.integers(1, 90) | st.integers(-90, -1), st.sampled_from(PRIMES_TO_97))
    terms = st.tuples(st.integers(0, ncomp - 1), st.tuples(*[st.integers(0, 3)] * 3))
    key = _tuple_key(order)
    basis, leads = [], []
    for _ in range(draw(st.integers(1, 4))):
        b = {t: QQ.from_int(c) for t, c in draw(st.dictionaries(terms, scalars, min_size=2, max_size=5)).items()}
        lead = max(b, key=key)
        inv = QQ.inv(b[lead])
        basis.append({t: QQ.mul(inv, c) for t, c in b.items()})
        leads.append(lead)
    v = {t: QQ.from_int(c) for t, c in draw(st.dictionaries(terms, scalars, max_size=8)).items()}
    return order, v, basis, leads


@settings(max_examples=150, deadline=None)
@given(coprime_denominator_inputs())
def test_division_with_large_coprime_denominators_matches_the_reference(inputs):
    order, v, basis, leads = inputs
    pack = _pack(3, order)
    data = _division_data([_packed(pack, b) for b in basis], pack)
    nf, quots = _v_divmod(QQ, _packed(pack, v), data)
    want_nf, want_quots = _reference_divmod(QQ, v, basis, leads, order)
    assert list(_unpacked(pack, nf).items()) == list(want_nf.items())
    assert [[(pack.exponents(s), c) for s, c in q.items()] for q in quots] == [list(q.items()) for q in want_quots]
    assert all(type(c) is int or c.denominator > 1 for q in [nf, *quots] for c in q.values())


def test_division_rescales_by_each_new_tail_denominator():
    # x^3 by x - y/97 and y^2 - z/89 leaves y*z / (97^3 * 89): each step
    # by a tail whose denominator does not divide the popped coefficient
    # grows the running denominator, three times by 97 and once by 89
    pack = _pack(3, GREVLEX)
    basis = [
        {(0, (1, 0, 0)): 1, (0, (0, 1, 0)): Fraction(-1, 97)},
        {(0, (0, 2, 0)): 1, (0, (0, 0, 1)): Fraction(-1, 89)},
    ]
    data = _division_data([_packed(pack, b) for b in basis], pack)
    assert [ell for ell, _ in data.tails] == [97, 89]
    v = _packed(pack, {(0, (3, 0, 0)): 1})
    nf, quots, d = groebner._z_divmod(0, v, 1, data.index, pack)
    assert d == 97**3 * 89
    assert _unpacked(pack, {t: Fraction(c, d) for t, c in nf.items()}) == {(0, (0, 1, 1)): Fraction(1, 97**3 * 89)}
    want = _reference_divmod(QQ, {(0, (3, 0, 0)): 1}, basis, [(0, (1, 0, 0)), (0, (0, 2, 0))], GREVLEX)
    assert _v_divmod(QQ, v, data) == (_packed(pack, want[0]), [_packed_shifts(pack, q) for q in want[1]])


def _packed_shifts(pack, q):
    return {pack.mono(m): c for m, c in q.items()}


def _combination(field, pack, reps, gens):
    """sum over (i, m) of rep[(i, m)] * x^m * gens[i], computed on
    tuple-keyed terms from the unpacked inputs."""
    acc = {}
    for (i, m), c in _unpacked(pack, reps).items():
        for (bc, bm), d in _unpacked(pack, gens[i]).items():
            u = (bc, mono_mul(m, bm))
            acc[u] = field.add(acc.get(u, field.zero()), field.mul(c, d))
    return {t: c for t, c in acc.items() if not field.is_zero(c)}


@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
def test_module_buchberger_cofactors_re_expand(field, ncomp):
    # denominators 5, 7 and 11 are units in every field here
    vecs = [
        ["x^2 - 1/5*y", "3*x*z"],
        ["2/7*x*y + z", "y^2 - x"],
        ["y*z", "5/7*x^2 + y"],
        ["x^2 - z^2", "4/11*x*y*z"],
    ]
    p = field.char
    pack = _pack(3, GREVLEX)
    gens = [groebner._vec_to_v(polys_of(field, *texts[:ncomp]), pack) for texts in vecs]
    eng = _Engine(field, pack, ncomp, [groebner._integral(field, g) for g in gens])

    def check():
        # each (r, y) is in lowest terms and re-expands over the generators
        # to a monic vector with the stored lead, whose _tail is the stored one
        for lead, tail, (r, y) in zip(eng.leads, eng.tails, eng.reps):
            assert r > 0 and gcd(r, *y.values()) == 1
            assert not p or (r == 1 and all(0 < c < p for c in y.values()))
            element = _combination(field, pack, groebner._over(y, r), gens)
            assert element[groebner._comp(lead), pack.exponents(lead)] == 1
            z = groebner._integral(field, _packed(pack, element))[1]
            want = groebner._tail(z, lead, p)
            assert (tail[0], sorted(tail[1])) == (want[0], sorted(want[1]))

    assert len(eng.leads) > len(gens)  # some S-pairs survived and got cofactors
    check()
    eng.interreduce()
    check()


def test_division_data_is_built_once_per_basis():
    # the division data of a basis is its engine's: the leads and tails of
    # the returned polynomials, built once
    f = QQ
    gb = buchberger(polys_of(f, "2*x^2 - y", "y^2 + 3/2*x*z", "x*y*z"))
    pack = gb._division.pack
    want = _division_data([groebner._poly_to_v(b, pack) for b in gb.basis], pack)
    assert gb._division.leads == want.leads
    assert [(ell, sorted(t)) for ell, t in gb._division.tails] == [(ell, sorted(t)) for ell, t in want.tails]
    assert gb._division is gb._division
    mgb = module_groebner([polys_of(f, "x", "y"), polys_of(f, "y^2", "0")], 2)
    assert mgb._division is mgb._division
    assert mgb.contains(polys_of(f, "x*y", "y^2"))
    assert not mgb.contains(polys_of(f, "y", "0"))


# ---------------------------------------------------------------------------
# syzygy modules against linear algebra, degree by degree


def _monomials_of_degree(d, nvars=3):
    if d < 0:
        return []
    return sorted(m for m in itertools.product(range(d + 1), repeat=nvars) if sum(m) == d)


@st.composite
def homogeneous_vectors(draw):
    """(field, ncomp, vectors, degrees): 1-3 vectors in k[x,y,z]^ncomp,
    every entry of vector k homogeneous of degree degrees[k] (or zero)."""
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    ncomp = draw(st.integers(1, 2))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(QQ.from_int)
    else:
        scalars = st.integers(1, field.p - 1)
    vectors, degrees = [], []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(1, 3))
        monos = st.sampled_from(_monomials_of_degree(a))
        entries = [draw(st.dictionaries(monos, scalars, max_size=3)) for _ in range(ncomp)]
        vectors.append([Polynomial(field, 3, e) for e in entries])
        degrees.append(a)
    return field, ncomp, vectors, degrees


def _kernel_dim(field, vectors, degrees, ncomp, d):
    """dim of the kernel of (h_k) -> sum_k h_k * vectors[k] on the part
    of shifted degree d, where h_k has degree d - degrees[k]."""
    target = [(j, m) for j in range(ncomp) for m in _monomials_of_degree(d)]
    index = {t: i for i, t in enumerate(target)}
    cols = []
    for v, a in zip(vectors, degrees):
        for m in _monomials_of_degree(d - a):
            col = [field.zero()] * len(target)
            for j, p in enumerate(v):
                for mp, c in (Polynomial.monomial(field, 3, m) * p).terms.items():
                    col[index[j, mp]] = c
            cols.append(col)
    if not cols:
        return 0
    return len(cols) - Matrix.from_cols(field, cols, nrows=len(target)).rank()


def _span_dim(field, columns, degrees, d):
    """dim of the span, in shifted degree d, of the monomial multiples of
    the shifted-degree parts of the syzygy columns."""
    source = [(k, m) for k, a in enumerate(degrees) for m in _monomials_of_degree(d - a)]
    index = {t: i for i, t in enumerate(source)}
    rows = []
    for col in columns:
        parts = {}
        for k, h in enumerate(col):
            for m, c in h.terms.items():
                parts.setdefault(sum(m) + degrees[k], {})[k, m] = c
        for e, part in parts.items():
            for s in _monomials_of_degree(d - e):
                row = [field.zero()] * len(source)
                for (k, m), c in part.items():
                    row[index[k, mono_mul(m, s)]] = c
                rows.append(row)
    if not rows:
        return 0
    return Matrix.from_rows(field, rows, ncols=len(source)).rank()


@settings(max_examples=60, deadline=None)
@given(homogeneous_vectors())
def test_syzygy_modules_match_the_kernels_degree_by_degree(case):
    field, ncomp, vectors, degrees = case
    results = [module_syzygies(vectors, ncomp)]
    if ncomp == 1:
        results.append(syzygy_basis([v[0] for v in vectors]).columns)
    for columns in results:
        for col in columns:
            for j in range(ncomp):
                acc = Polynomial.zero(field, 3)
                for h, v in zip(col, vectors):
                    acc = acc + h * v[j]
                assert acc.is_zero()
        for d in range(max(degrees) + 3):
            assert _span_dim(field, columns, degrees, d) == _kernel_dim(field, vectors, degrees, ncomp, d)


# ---------------------------------------------------------------------------
# the strict chain criterion in the syzygy pass


def _dropped_pairs_lie_in_the_kept_syzygies(field, order, ncomp, vecs):
    """Build the final basis of vecs, lift the syzygy of every
    same-component pair as a polynomial vector over the basis, split
    them by the chain criterion (the kept ones must be what the syzygy
    pass returns), and check that each dropped one lies in the module
    the kept ones generate; returns the number dropped."""
    pack = _pack(3, order)
    eng = _Engine(field, pack, ncomp, [groebner._integral(field, groebner._vec_to_v(v, pack)) for v in vecs])
    eng.interreduce()
    n = len(eng.leads)

    def vector(quots, d):
        # sparse {basis index: quotient} as one polynomial per basis element
        return [groebner._q_to_poly(groebner._over(q, d), pack, field) for q in groebner._dense(quots, n)]

    kept, dropped = [], []
    for i in range(n):
        for j in range(i + 1, n):
            ci = eng.leads[i] & groebner.CMASK
            if eng.leads[j] & groebner.CMASK != ci:
                continue
            lcm = eng._lcm(i, j) + ci
            nf, quots, d = eng._spair_divmod(i, j, lcm)
            assert not nf
            (dropped if eng._chain_skip(i, j, lcm) else kept).append(vector(quots, d))
    assert [vector(quots, d) for quots, d in eng.schreyer()] == kept
    if dropped:
        assert kept, "every pair dropped"
        mgb = module_groebner(kept, n, order)
        for syz in dropped:
            assert mgb.contains(syz), "a dropped pair's syzygy is not generated by the kept ones"
    return len(dropped)


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "permuted"])
@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
def test_the_chain_criterion_keeps_a_generating_set_of_pair_syzygies(field, order):
    # (xy, xz, yz): all three pair lcms are xyz, so no pair may drop
    # another; a non-strict criterion would drop all three in a circle
    assert _dropped_pairs_lie_in_the_kept_syzygies(field, order, 1, [polys_of(field, t) for t in ("x*y", "x*z", "y*z")]) == 0
    # (x^2, xy, y^2): the pair (x^2, y^2) goes through xy
    assert _dropped_pairs_lie_in_the_kept_syzygies(field, order, 1, [polys_of(field, t) for t in ("x^2", "x*y", "y^2")]) == 1
    # both in one module: the chain on the first component, the circle on
    # the second, and no pair across the two
    vecs = [polys_of(field, *v) for v in (["x^2", "0"], ["x*y", "0"], ["y^2", "0"], ["0", "x*y"], ["0", "x*z"], ["0", "y*z"])]
    assert _dropped_pairs_lie_in_the_kept_syzygies(field, order, 2, vecs) == 1


_QUADRICS = _monomials_of_degree(2)
_BELOW_TWO = _monomials_of_degree(0) + _monomials_of_degree(1)


@st.composite
def pair_criterion_inputs(draw):
    """(field, order, ncomp, vectors): 3-7 vectors in k[x,y,z]^ncomp,
    ncomp 1-3, each a quadric monomial on one component plus at most one
    more term of degree at most 2: lcms of quadric leads often pass
    through a third lead, so the criterion has pairs to drop."""
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    order = draw(st.sampled_from(ORDERS))
    ncomp = draw(st.integers(1, 3))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(QQ.from_int)
    else:
        scalars = st.integers(1, field.p - 1)
    comps = st.integers(0, ncomp - 1)
    extra = st.tuples(comps, st.sampled_from(_QUADRICS + _BELOW_TWO))
    vecs = []
    for _ in range(draw(st.integers(3, 7))):
        entries = [dict() for _ in range(ncomp)]
        entries[draw(comps)][draw(st.sampled_from(_QUADRICS))] = draw(scalars)
        for (c, m), x in draw(st.dictionaries(extra, scalars, max_size=1)).items():
            entries[c][m] = x
        vecs.append([Polynomial(field, 3, e) for e in entries])
    return field, order, ncomp, vecs


@settings(max_examples=120, deadline=None)
@given(pair_criterion_inputs())
def test_every_dropped_pair_syzygy_lies_in_the_kept_ones(case):
    _dropped_pairs_lie_in_the_kept_syzygies(*case)


# ---------------------------------------------------------------------------
# the kept division index and the overflow guard


@st.composite
def engine_inputs(draw):
    """(field, order, ncomp, vectors): 1-5 tuple-keyed vectors over F3 or
    Q in k[x,y,z]^ncomp, ncomp 1-2, for an engine to take one by one;
    each is 1-3 quadric terms, so that the bases stay small under every
    order."""
    field = draw(st.sampled_from([GF(3), QQ]))
    order = draw(st.sampled_from(ORDERS))
    ncomp = draw(st.integers(1, 2))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5)).map(QQ.from_int)
    else:
        scalars = st.integers(1, 2)
    terms = st.tuples(st.integers(0, ncomp - 1), st.sampled_from(_QUADRICS))
    vecs = [draw(st.dictionaries(terms, scalars, min_size=1, max_size=3)) for _ in range(draw(st.integers(1, 5)))]
    return field, order, ncomp, vecs


@settings(max_examples=100, deadline=None)
@given(engine_inputs())
def test_the_engine_keeps_its_division_index(case):
    # after every add, run and interreduce, the index the engine divides
    # by is the one built afresh from its leads and tails
    field, order, ncomp, vecs = case
    pack = _pack(3, order)
    eng = _Engine(field, pack, ncomp, [])

    def check():
        assert eng.index == groebner._index(eng.leads, eng.tails)

    check()
    gens = [groebner._integral(field, _packed(pack, v)) for v in vecs]
    for i, (d, z) in enumerate(gens):
        eng.add(z, d, (1, {groebner._unit(i): 1}))
        check()
        eng.run()
        check()
    eng.interreduce()
    check()
    # and it divides as the basis does: every generator reduces to zero
    assert len(eng.divide_gens(gens)) == len(gens)


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "permuted"])
def test_pack_check_refuses_a_guard_bit_in_any_term(order):
    pack = _pack(3, order)
    top = MAX_EXPONENT
    if order.kind == "grevlex":  # the degree is the field at its limit
        edge = [(top, 0, 0), (0, top, 0), (1, top - 2, 1), (0, 0, top), (top - 1, 0, 1)]
    else:  # each exponent is
        edge = [(top, top, top), (top, 0, 0), (0, top, 1), (1, 1, top), (0, 0, 0)]
    terms = [pack.mono(m) + groebner._unit(c) for c, m in enumerate(edge)]
    assert [pack.exponents(t) for t in terms] == edge
    pack.check(terms)
    pack.check(dict.fromkeys(terms, 1))
    pack.check([])
    guards = [1 << k for k in range(pack.guard.bit_length()) if pack.guard >> k & 1]
    # grevlex: the degree and one partial sum, then the three exponents
    assert len(guards) == (2 + 3 if order.kind == "grevlex" else 3)
    for bit in guards:
        for at in (0, len(terms) // 2, len(terms) - 1):
            bad = list(terms)
            bad[at] |= bit
            with pytest.raises(OverflowError, match="exceeds the packed field"):
                pack.check(bad)
    # a sum one past the limit sets a guard bit
    with pytest.raises(OverflowError):
        pack.check([terms[0], terms[1] + pack.mono((1, 0, 0))])
