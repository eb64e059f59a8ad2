"""Presented algebras, structure tables, modules, and homomorphisms."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defalg import GF, QQ
from defalg.algebras import (
    AlgebraHom,
    FiniteModule,
    PresentedAlgebra,
    StructureAlgebra,
    compose,
    evaluate_stack,
    truncate,
    validate,
)
from defalg.poly import Polynomial, mono_mul
from defalg.problems import parse_polynomial

from .conftest import dual_numbers, fat_point, make_algebra


class TestPresentedAlgebra:
    def test_dual_numbers_basis(self, any_field):
        B = dual_numbers(any_field)
        assert B.dim() == 2
        assert B.std_monomials() == ((0,), (1,))
        assert [B.mono_label(m) for m in B.std_monomials()] == ["1", "x"]

    def test_fat_point_basis(self, any_field):
        B = fat_point(any_field)
        assert B.dim() == 3
        coords = B.coordinates(parse_polynomial("1 + 2*x - y", B.names, any_field))
        by_label = {B.mono_label(m): c for m, c in zip(B.std_monomials(), coords)}
        assert by_label == {
            "1": any_field.from_int(1),
            "x": any_field.from_int(2),
            "y": any_field.from_int(-1),
        }

    def test_infinite_dimensional_detected(self):
        B = make_algebra(GF(2), ["x", "y"], ["x*y"])
        assert not B.is_finite_dimensional()
        with pytest.raises(ValueError, match="not finite-dimensional"):
            B.std_monomials()

    def test_truncation_makes_it_finite(self):
        B = make_algebra(GF(2), ["x", "y"], ["x*y"])
        B4 = B.truncated_presentation(4)
        # basis 1, x, y, x^2, y^2, x^3, y^3
        assert B4.dim() == 7
        S = truncate(B, 4)
        assert S.dim == 7
        assert S.truncated_from is B and S.truncation_degree == 4

    def test_normal_form_reduces_relations(self, any_field):
        B = make_algebra(any_field, ["x"], ["x^3 - x"])
        p = parse_polynomial("x^5", B.names, any_field)
        assert B.normal_form(p) == parse_polynomial("x", B.names, any_field)

    def test_zero_ring_flagged(self):
        B = PresentedAlgebra.from_strings(GF(2), ["x"], ["x", "x + 1"])
        assert B.is_zero_ring()
        assert validate(B) != []
        ok = PresentedAlgebra.from_strings(GF(2), ["x"], ["x", "x + 1"], allow_zero=True)
        assert validate(ok) == []

    def test_relative_presentation_flattens(self):
        B = make_algebra(GF(3), ["x"], ["x^2 - s"], base_gens=["s"], base_relations=["s^2"])
        assert B.names == ("s", "x")
        assert B.n_base == 1 and B.n_gens == 1
        assert B.dim() == 4  # 1, s, x, sx with x^2 = s
        base = B.base_algebra()
        assert base.names == ("s",) and base.dim() == 2

    def test_base_relation_cannot_use_relative_generator(self):
        f = GF(2)
        bad = parse_polynomial("x", ("s", "x"), f)
        with pytest.raises(ValueError, match="base relation"):
            PresentedAlgebra(f, ("s",), (bad,), ("x",), ())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_algebra(GF(2), ["x", "x"], [])


class TestStructureAlgebra:
    def test_table_of_dual_numbers(self, any_field):
        S = dual_numbers(any_field).to_structure()
        assert S.dim == 2
        assert validate(S) == []
        x = S.gen_images[0]
        assert S.mul_vec(x, x) == S.zero_vector()
        assert S.mul_vec(S.unit_vector(), x) == list(x)

    def test_evaluate_matches_normal_form(self, prime_field):
        B = fat_point(prime_field)
        S = B.to_structure()
        p = parse_polynomial("x^2 + x + y + 1", B.names, prime_field)
        got = S.evaluate(p, [list(v) for v in S.gen_images])
        assert got == B.coordinates(p)

    def test_relation_tensor_is_built_once_and_read_only(self, any_field):
        B = fat_point(any_field)
        W, D = B.relation_tensor()
        s = B.dim()
        assert W.shape == (3 * s, s * s) and D.shape == (3, B.nvars * s)
        assert B.relation_tensor()[0] is W
        with pytest.raises(ValueError, match="read-only"):
            W[0, 0] = any_field.one()

    def test_relation_tensor_refuses_a_relation_outside_the_ideal(self):
        # a relation added after the Groebner basis is fixed does not
        # vanish in B, so its value would escape the fiber
        B = dual_numbers(GF(3))
        B.to_structure()
        B.relations += (parse_polynomial("x", B.names, GF(3)),)
        with pytest.raises(AssertionError, match="escaped the fiber"):
            B.relation_tensor()

    def test_validate_catches_broken_tables(self):
        import numpy as np

        f = GF(2)
        S = dual_numbers(f).to_structure()
        bad = np.array(S.mul)
        bad[0, 1, 1] = 0  # 1 * x = 0 while x * 1 = x
        T = type(S)(field=f, labels=S.labels, mul=bad)
        assert validate(T) != []

    def test_table_is_built_once_and_read_only(self, any_field):
        B = fat_point(any_field)
        S = B.to_structure()
        assert B.to_structure() is S
        with pytest.raises(ValueError, match="read-only"):
            S.mul[1, 1, 0] = any_field.one()
        assert validate(S) == []

    def test_product_cofactors_are_certified(self, any_field):
        B = make_algebra(any_field, ["x", "y"], ["x^2 - y^2", "x*y", "y^3"])
        pairs, terms, coeffs = B.product_cofactors()
        assert B.product_cofactors()[2] is coeffs
        assert coeffs.shape == (len(pairs), len(terms)) and pairs
        # each non-standard product re-expands: std_i std_j = nf + sum coeff * mo * gens[g]
        std, gens = B.std_monomials(), B.ideal_gens()
        S = B.to_structure()
        for q, (i, j) in enumerate(pairs):
            want = Polynomial.monomial(any_field, B.nvars, mono_mul(std[i], std[j]))
            got = sum(
                (gens[g] * Polynomial.monomial(any_field, B.nvars, mo) * c
                 for (g, mo), c in zip(terms, coeffs[q].tolist())),
                Polynomial.zero(any_field, B.nvars),
            )
            for k, c in enumerate(S.mul_entry(i, j)):
                got = got + Polynomial.monomial(any_field, B.nvars, std[k]) * c
            assert got == want
        # a corrupted quotient is caught when the cofactors are built
        C = make_algebra(any_field, ["x", "y"], ["x^2 - y^2", "x*y", "y^3"])
        C.to_structure()
        key, (d, z, e, nf, quots) = next(iter(C._divisions.items()))
        # one more unit in the quotient of basis element 0 (quotients are
        # sparse, {basis index: quotient}): shift 0 is the packed monomial 1
        first = quots.get(0, {})
        C._divisions[key] = (d, z, e, nf, {**quots, 0: {**first, 0: first.get(0, 0) + e}})
        with pytest.raises(AssertionError, match="certificate"):
            C.product_cofactors()

    def test_tables_and_coordinates_build_no_polynomial(self, any_field, monkeypatch):
        # x is not standard (x = y), so the generator cofactors divide too
        B = make_algebra(any_field, ["x", "y"], ["x - y", "y^3"], ["s"], ["s^2"])
        p = parse_polynomial("x^3*y + s*x + 2", B.names, any_field)
        B.groebner()
        built = []
        init = Polynomial.__init__
        monkeypatch.setattr(Polynomial, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        S = B.to_structure()
        assert B.product_cofactors()[0] and B.generator_cofactors()[0] == (1,)
        assert B.coordinates(p) == S.evaluate(p, S.gen_images)
        J = FiniteModule.regular(B)
        assert built == []
        assert validate(J) == []

    def test_truncate_leaves_the_source_memo_untouched(self, any_field):
        B = make_algebra(any_field, ["x", "y"], ["x^3", "y^2"])
        S = B.to_structure()
        cof = B.product_cofactors()
        T = truncate(B, 2)
        assert T is not S and T.truncated_from is B and T.truncation_degree == 2
        assert B.to_structure() is S and B.product_cofactors() is cof
        assert S.truncated_from is None and S.truncation_degree is None
        assert S.dim == 6 and T.dim == 3


class TestFiniteModule:
    def test_trivial_module(self, any_field):
        B = fat_point(any_field)
        J = FiniteModule.trivial(B)
        assert J.rank == 1
        assert validate(J) == []
        x = parse_polynomial("x", B.names, any_field)
        assert J.action_of_poly(x).is_zero()

    def test_trivial_module_refuses_a_relation_with_a_constant_term(self, any_field):
        # x^2 - 1 is a unit at the origin: k is not a module over k[x]/(x^2 - 1)
        B = make_algebra(any_field, ["x"], ["x^2 - 1"])
        with pytest.raises(ValueError, match="acts nontrivially"):
            FiniteModule.trivial(B)
        based = make_algebra(any_field, ["x"], ["x^2"], ["s"], ["s^2 + 1"])
        with pytest.raises(ValueError, match="acts nontrivially"):
            FiniteModule.trivial(based)

    def test_labels_must_be_strings(self):
        # extension tables name their fiber basis "eps:" + label
        B = fat_point(GF(2))
        with pytest.raises(TypeError, match="labels must be strings"):
            FiniteModule.trivial(B, 1)

    def test_regular_module(self, prime_field):
        B = dual_numbers(prime_field)
        J = FiniteModule.regular(B)
        assert J.rank == 2
        assert validate(J) == []
        x = parse_polynomial("x", B.names, prime_field)
        assert J.action_of_poly(x).col(0) == [0, 1]  # x * 1 = x

    @pytest.mark.parametrize(
        "gens, rels, base",
        [
            (["x", "y"], ["x^2", "y^2"], ()),
            (["x", "y"], ["x^3 - y^2", "x*y", "y^3"], ()),
            (["x", "y", "z"], ["x^2 - y*z", "y^2", "z^2", "x*y"], ()),
            (["x", "y"], ["x^2 + s", "x*y", "y^2 - s*x"], (["s"], ["s^2"])),
        ],
        ids=["square", "cusp", "three", "based"],
    )
    def test_regular_module_matches_the_divided_products(self, any_field, gens, rels, base):
        # every column equals the coordinates of the product x_v * m
        B = make_algebra(any_field, gens, rels, *(base or ((), ())))
        J = FiniteModule.regular(B)
        std = B.std_monomials()
        for v, mat in enumerate(J.mats):
            want = [B.coordinates(B.var(v) * Polynomial.monomial(any_field, B.nvars, m)) for m in std]
            assert [mat.col(c) for c in range(len(std))] == want
        assert validate(J) == []
        assert B.std_index() is B.std_index()
        assert list(B.std_index()) == list(std)

    def test_truncated_regular(self, monkeypatch):
        B = make_algebra(GF(2), ["x", "y"], ["x*y"])
        built = []
        init = FiniteModule.__init__
        monkeypatch.setattr(FiniteModule, "__init__", lambda self, *a: built.append(a[0]) or init(self, *a))
        J = FiniteModule.truncated_regular(B, 2)
        assert built == [B]  # no module over the truncated presentation on the way
        assert J.rank == 3  # 1, x, y
        assert validate(J) == []

    def test_relations_must_act_by_zero(self):
        B = dual_numbers(GF(2))
        from defalg.linalg import Matrix

        bad = FiniteModule(B, ("j0",), (Matrix.from_rows(GF(2), [[1]]),))
        assert any("acts nontrivially" in msg for msg in validate(bad))

    def test_structure_module_from_table(self, prime_field):
        B = fat_point(prime_field)
        S = B.to_structure()
        J = FiniteModule.trivial(B)
        act = J.basis_action_tensor(S)
        assert act.shape == (3, 1, 1)
        assert act[0, 0, 0] == 1 and not act[1:].any()
        # an equal table of another presentation is not the owner's table
        with pytest.raises(ValueError, match="owner"):
            J.basis_action_tensor(fat_point(prime_field).to_structure())


    def test_action_block_is_built_once_and_read_only(self, any_field, monkeypatch):
        B = fat_point(any_field)
        J = FiniteModule.regular(B)
        block = J.action_block()
        assert block.shape == (3, 3, 3)
        # [i, b] is the action of the i-th standard monomial on basis vector b
        x = J.monomial_action(B.std_monomials()[1])
        assert block[1].tolist() == x.transpose().to_rows()
        calls = []
        monkeypatch.setattr(J, "monomial_action", lambda m: calls.append(m))
        assert J.action_block() is block and calls == []
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0, 0] = any_field.one()


def _chain_evaluate(S, p, images):
    """evaluate as a fresh chain of mul_vec calls from the unit for
    every monomial, variables ascending."""
    acc = S.zero_vector()
    for m, c in p.terms.items():
        w = S.unit_vector()
        for v, e in enumerate(m):
            for _ in range(e):
                w = S.mul_vec(w, images[v])
        acc = S.add(acc, S.scale(c, w))
    return acc


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([GF(2), GF(3), GF(2**31 - 1), QQ]),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([1, 3]),
    st.booleans(),
    st.data(),
)
def test_evaluate_matches_the_mul_vec_chain(field, dim, nvars, K, shared, data):
    # any tensor, not only associative or commutative ones: both sides
    # multiply on the right in the same order.  K image tuples in one
    # shared table or in one table each; variable nvars (the last) is in
    # no polynomial, so its images are never multiplied in
    def scalars(n):
        big = 2**40
        return [field.from_int(c) for c in data.draw(st.lists(st.integers(-big, big), min_size=n, max_size=n))]

    tables = [np.array(scalars(dim**3), field.dtype).reshape(dim, dim, dim) for _ in range(1 if shared else K)]
    images = [
        [scalars(dim) if data.draw(st.booleans()) else [field.zero()] * dim for _ in range(nvars + 1)]
        for _ in range(K)
    ]
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=6, unique=True))
    drawn = {m + (0,): c for m, c in zip(monos, scalars(len(monos)))}
    polys = [
        Polynomial(field, nvars + 1, drawn),
        Polynomial(field, nvars + 1, {**drawn, (0,) * (nvars + 1): field.from_int(data.draw(st.integers(1, 9)))}),
        Polynomial.zero(field, nvars + 1),
        Polynomial.constant(field, nvars + 1, 5),
    ]
    got = evaluate_stack(field, field.array(tables[0] if shared else tables), polys, field.array(images))
    assert got.shape == (K, len(polys), dim)
    for k in range(K):
        S = StructureAlgebra(field, [f"e{i}" for i in range(dim)], tables[0 if shared else k])
        chains = [_chain_evaluate(S, p, images[k]) for p in polys]
        assert got[k].tolist() == chains
        assert [S.evaluate(p, images[k]) for p in polys] == chains


def test_evaluate_leaves_nothing_for_the_cyclic_collector(any_field):
    B = make_algebra(any_field, ["x", "y"], ["x^3", "y^2"])
    S = B.to_structure()
    p = parse_polynomial("x^2*y + 2*x*y - 3", B.names, any_field)
    images = [list(v) for v in S.gen_images]
    expected = S.evaluate(p, images)
    gc.collect()
    gc.disable()
    try:
        assert S.evaluate(p, images) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestAlgebraHom:
    def test_valid_quotient_map(self, prime_field):
        B = make_algebra(prime_field, ["x"], ["x^4"])
        C = make_algebra(prime_field, ["x"], ["x^2"]).to_structure()
        hom = AlgebraHom(B, C, (C.gen_images[0],))
        assert hom.is_valid()

    def test_invalid_map_reported(self, prime_field):
        B = dual_numbers(prime_field)
        C = make_algebra(prime_field, ["x"], ["x^3"]).to_structure()
        hom = AlgebraHom(B, C, (C.gen_images[0],))
        assert any("does not map to zero" in m for m in hom.validate())

    def test_compose(self):
        f = GF(2)
        B = make_algebra(f, ["x"], ["x^8"])
        C = make_algebra(f, ["x"], ["x^4"])
        D = make_algebra(f, ["x"], ["x^2"]).to_structure()
        g1 = AlgebraHom(B, C, (parse_polynomial("x", C.names, f),))
        g2 = AlgebraHom(C, D, (D.gen_images[0],))
        h = compose(g1, g2)
        assert h.source is B and h.target is D
        assert h.is_valid()

    def test_base_images_must_be_canonical(self):
        f = GF(2)
        B = make_algebra(f, ["x"], [], base_gens=["s"], base_relations=["s^2"])
        C = make_algebra(f, ["x"], ["x^2"], base_gens=["s"], base_relations=["s^2"]).to_structure()
        good = AlgebraHom(B, C, (C.base_images[0], C.gen_images[1]))
        assert good.is_valid()
        bad = AlgebraHom(B, C, (C.zero_vector(), C.gen_images[1]))
        assert any("canonical image" in m for m in bad.validate())
