"""Buchberger postconditions: canonical bases, certified membership,
and complete syzygy modules."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from defalg import GF, QQ
from defalg.groebner import (
    _Engine,
    _v_divmod,
    _v_mul_poly,
    _v_sub_into,
    _vkey,
    buchberger,
    ideal_member,
    module_groebner,
    module_syzygies,
    normal_form,
    normal_form_quotients,
    syzygy_basis,
)
from defalg.poly import GREVLEX, LEX, MonomialOrder, Polynomial, mono_div, mono_divides, mono_mul
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
# heap-driven division against the literal "max over work" loop

ORDERS = [GREVLEX, LEX, MonomialOrder("grevlex", perm=(2, 0, 1))]


def _reference_divmod(field, v, basis, leads, order):
    """Full division, one term at a time: always the largest term of
    what is left, always the first basis element whose lead divides it."""
    key = _vkey(order)
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
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    order = draw(st.sampled_from(ORDERS))
    ncomp = draw(st.integers(1, 3))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        scalars = st.integers(0, field.p - 1).map(field.from_int)
    terms = st.tuples(st.integers(0, ncomp - 1), st.tuples(*[st.integers(0, 3)] * 3))

    def vector(min_size):
        raw = draw(st.dictionaries(terms, scalars, min_size=min_size, max_size=5))
        return {t: c for t, c in raw.items() if not field.is_zero(c)}

    key = _vkey(order)
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
    nf, quots = _v_divmod(field, v, basis, leads, order)
    want_nf, want_quots = _reference_divmod(field, v, basis, leads, order)
    # equal term by term, in the same insertion order
    assert list(nf.items()) == list(want_nf.items())
    assert [list(q.items()) for q in quots] == [list(q.items()) for q in want_quots]


def _combination(field, reps, gens):
    """sum over (i, m) of rep[(i, m)] * x^m * gens[i], as a module vector."""
    acc = {}
    for (i, m), c in reps.items():
        _v_sub_into(field, acc, _v_mul_poly(field, gens[i], {m: field.neg(c)}))
    return acc


@pytest.mark.parametrize("ncomp", [1, 2])
def test_module_buchberger_cofactors_re_expand_over_q(ncomp):
    f = QQ
    vecs = [
        ["x^2 - 1/2*y", "3*x*z"],
        ["2/3*x*y + z", "y^2 - x"],
        ["y*z", "5/7*x^2 + y"],
        ["x^2 - z^2", "x*y*z"],
    ]
    gens = []
    for texts in vecs:
        polys = polys_of(f, *texts[:ncomp])
        gens.append({(c, m): a for c, p in enumerate(polys) for m, a in p.terms.items()})
    eng = _Engine(f, 3, ncomp, GREVLEX)
    eng.seed(gens)
    eng.run()
    assert len(eng.basis) > len(gens)  # some S-pairs survived and got cofactors
    for b, rep in zip(eng.basis, eng.reps):
        assert _combination(f, rep, gens) == b
    eng.interreduce()
    for b, rep in zip(eng.basis, eng.reps):
        assert _combination(f, rep, gens) == b


def test_division_data_is_built_once_per_basis():
    f = QQ
    gb = buchberger(polys_of(f, "x^2 - y", "y^2"))
    assert gb._division is gb._division
    mgb = module_groebner([polys_of(f, "x", "y"), polys_of(f, "y^2", "0")], 2)
    assert mgb._division is mgb._division
    assert mgb.contains(polys_of(f, "x*y", "y^2"))
    assert not mgb.contains(polys_of(f, "y", "0"))
