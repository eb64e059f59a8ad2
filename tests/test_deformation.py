"""Square-zero extensions, the Baer group law, homomorphism lifting, and
obstruction classes for deformations across a thickened base."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defalg import GF, QQ, deformation, groebner, reports
from defalg.algebras import FiniteModule, StructureAlgebra, table_findings
from defalg.cotangent import (
    CohomologyClass,
    are_coboundaries,
    cochain_maps,
    cotangent_complex,
    is_coboundary,
    t_modules,
)
from defalg.linalg import Matrix
from defalg.poly import Polynomial, mono_mul
from defalg.corpus import deformation_problem_set
from defalg.problems import load_problem_file, parse_polynomial
from defalg.deformation import (
    BaseDeformationProblem,
    ExtensionStack,
    LiftProblem,
    SquareZeroExtension,
    baer_difference,
    baer_sum,
    baer_sums,
    classify_extensions,
    cocycle_from_extension,
    cocycles_from_extensions,
    equivalent_extensions,
    extension_class,
    extension_from_cocycle,
    extensions_equivalent,
    extensions_from_cocycles,
    is_trivial_extension,
    lift_homomorphism,
    obstruction_class,
    realize_deformation,
    torsor_action,
    trivial_extension,
)
from defalg.fields import PrimeField
from defalg.linalg import vec_add, vec_is_zero, vec_scale
from defalg.oracle import enumerate_extensions

from . import aprime_reference
from .conftest import dual_numbers, fat_point, make_algebra


def _fat_setup(field):
    B = fat_point(field)
    J = FiniteModule.trivial(B)
    return B, J


class TestSquareZeroExtension:
    def test_trivial_extension_is_trivial(self, prime_field):
        B, J = _fat_setup(prime_field)
        ext = trivial_extension(B, J)
        assert ext.validate() == []
        assert is_trivial_extension(ext)
        cls = extension_class(ext)
        assert all(prime_field.is_zero(c) for c in cls.vector)

    def test_projection_and_section_split_linearly(self, prime_field):
        B, J = _fat_setup(prime_field)
        ext = trivial_extension(B, J)
        one = prime_field.one()
        bvec = [one] * B.dim()
        assert ext.project(ext.section(bvec)) == bvec
        jvec = [one] * J.rank
        assert ext.fiber_part(ext.include_fiber(jvec)) == jvec
        assert vec_is_zero(prime_field, ext.project(ext.include_fiber(jvec)))

    def test_tables_reuse_the_divided_products(self, monkeypatch):
        B, J = _fat_setup(GF(3))
        _, r1, _ = t_modules(B, J)
        first = extension_from_cocycle(B, J, list(r1.reps[0]))
        calls = []
        divmod_ = groebner._z_divmod
        monkeypatch.setattr(groebner, "_z_divmod", lambda *args: calls.append(args) or divmod_(*args))
        second = extension_from_cocycle(B, J, list(r1.reps[1]))
        assert baer_sum(first, second).validate() == []
        assert calls == []

    def test_validate_names_each_broken_block(self):
        B, J = _fat_setup(GF(3))
        ext = trivial_extension(B, J)
        s = ext.s
        cases = {
            "fiber is not square-zero": (s, s, 0),
            "fiber is not an ideal": (1, s, 1),
            "fiber action disagrees with the module structure": (0, s, s),
            "section does not project onto the product of B": (1, 1, 0),
        }
        for msg, (i, j, k) in cases.items():
            mul = ext.table.mul.copy()
            mul[i, j, k] = mul[j, i, k] = (mul[i, j, k] + 1) % 3
            T = type(ext.table)(GF(3), ext.table.labels, mul)
            assert msg in type(ext)(B, J, T).validate()

    def test_nontrivial_extension_from_cocycle(self, prime_field):
        B, J = _fat_setup(prime_field)
        _, r1, _ = t_modules(B, J)
        psi = list(r1.reps[0])
        ext = extension_from_cocycle(B, J, psi)
        assert ext.validate() == []
        assert not is_trivial_extension(ext)

    def test_cocycle_round_trip(self, prime_field):
        B, J = _fat_setup(prime_field)
        _, r1, _ = t_modules(B, J)
        psi = list(r1.reps[-1])
        ext = extension_from_cocycle(B, J, psi)
        back = cocycle_from_extension(ext)
        again = extension_from_cocycle(B, J, list(back))
        assert extensions_equivalent(ext, again)

    def test_extension_reproduces_psi_on_relation_values(self, prime_field):
        # x*x in the extension falls into the fiber and equals the psi
        # entry attached to the relation x^2
        B, J = _fat_setup(prime_field)
        _, r1, _ = t_modules(B, J)
        psi = list(r1.reps[0])
        ext = extension_from_cocycle(B, J, psi)
        x = ext.gen_image(0)
        prod = ext.table.mul_vec(x, x)
        assert vec_is_zero(prime_field, ext.project(prod))
        assert ext.fiber_part(prod) == psi[: J.rank]


class TestClassification:
    def test_fat_point_has_eight_classes(self):
        B, J = _fat_setup(GF(2))
        cl = classify_extensions(B, J)
        assert cl.t1_dim == 3
        assert cl.count == 8 and cl.complete
        assert len(cl.representatives) == 8
        seen = {cl.class_of(rep) for rep in cl.representatives}
        assert seen == set(range(8))

    def test_representatives_are_pairwise_inequivalent(self):
        B, J = _fat_setup(GF(2))
        cl = classify_extensions(B, J)
        reps = cl.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not extensions_equivalent(reps[i], reps[j])

    def test_dual_numbers_over_f3(self):
        B = dual_numbers(GF(3))
        J = FiniteModule.trivial(B)
        cl = classify_extensions(B, J)
        assert cl.t1_dim == 1 and cl.count == 3 and cl.complete

    def test_max_reps_cutoff_keeps_a_spanning_family(self):
        B, J = _fat_setup(GF(2))
        cl = classify_extensions(B, J, max_reps=4)
        assert not cl.complete
        assert cl.count == 8
        # trivial plus one representative per basis class
        assert len(cl.representatives) == 1 + cl.t1_dim


class TestBaerGroupLaw:
    def test_sum_matches_cocycle_addition(self, prime_field):
        B, J = _fat_setup(prime_field)
        _, r1, _ = t_modules(B, J)
        a, b = list(r1.reps[0]), list(r1.reps[1])
        ea = extension_from_cocycle(B, J, a)
        eb = extension_from_cocycle(B, J, b)
        s = baer_sum(ea, eb)
        direct = extension_from_cocycle(B, J, vec_add(prime_field, a, b))
        assert extensions_equivalent(s, direct)

    def test_sum_refuses_tables_off_the_fibered_product(self):
        B, J = _fat_setup(GF(3))
        e = trivial_extension(B, J)
        s = e.s
        # the B blocks disagree, or a fiber product has a B part
        for i, j, k in ((1, 1, 0), (1, s, 0)):
            mul = e.table.mul.copy()
            mul[i, j, k] = mul[j, i, k] = (mul[i, j, k] + 1) % 3
            bad = type(e)(B, J, type(e.table)(GF(3), e.table.labels, mul))
            with pytest.raises(AssertionError, match="fibered subalgebra"):
                baer_sum(bad, e)

    def test_refuses_extensions_by_different_modules(self):
        # class (1, 0) of the regular module and class (1, 0) of a rank-2
        # module with zero action have cocycles of the same length
        f = GF(3)
        B = dual_numbers(f)
        regular = FiniteModule.regular(B)
        flat = FiniteModule.from_matrices(B, ("a", "b"), [[[0, 0], [0, 0]]])
        e1 = extension_from_cocycle(B, regular, [1, 0])
        e2 = extension_from_cocycle(B, flat, [1, 0])
        for op in (baer_sum, extensions_equivalent):
            with pytest.raises(ValueError, match="not by the same module"):
                op(e1, e2)
        # an equal module built a second time is the same module
        again = extension_from_cocycle(B, FiniteModule.regular(B), [1, 0])
        assert cocycle_from_extension(baer_sum(e1, again)) == (2, 0)
        assert extensions_equivalent(e1, again)

    def test_trivial_is_the_identity(self, prime_field):
        B, J = _fat_setup(prime_field)
        _, r1, _ = t_modules(B, J)
        e = extension_from_cocycle(B, J, list(r1.reps[0]))
        t = trivial_extension(B, J)
        assert extensions_equivalent(baer_sum(e, t), e)
        assert extensions_equivalent(baer_sum(t, e), e)

    def test_difference_with_itself_is_trivial(self, prime_field):
        B, J = _fat_setup(prime_field)
        cl = classify_extensions(B, J, max_reps=16)
        for rep in cl.representatives:
            assert is_trivial_extension(baer_difference(rep, rep))

    def test_commutative_on_class_indices(self):
        B, J = _fat_setup(GF(2))
        cl = classify_extensions(B, J)
        reps = cl.representatives
        for i in (1, 3, 5):
            for j in (2, 4):
                lhs = cl.class_of(baer_sum(reps[i], reps[j]))
                rhs = cl.class_of(baer_sum(reps[j], reps[i]))
                assert lhs == rhs

    def test_associative_on_a_triple(self):
        B, J = _fat_setup(GF(2))
        cl = classify_extensions(B, J)
        a, b, c = cl.representatives[1], cl.representatives[2], cl.representatives[4]
        left = baer_sum(baer_sum(a, b), c)
        right = baer_sum(a, baer_sum(b, c))
        assert cl.class_of(left) == cl.class_of(right)


class TestTorsorAction:
    def test_action_on_trivial_reaches_every_class(self):
        B, J = _fat_setup(GF(2))
        cl = classify_extensions(B, J)
        _, r1, _ = t_modules(B, J)
        t = trivial_extension(B, J)
        hit = set()
        for rep in cl.representatives:
            psi = cocycle_from_extension(rep)
            moved = torsor_action(t, CohomologyClass(B, J, 1, tuple(psi)))
            hit.add(cl.class_of(moved))
        assert hit == set(range(8))

    def test_acting_twice_in_characteristic_two_returns(self):
        B, J = _fat_setup(GF(2))
        _, r1, _ = t_modules(B, J)
        cls = t_modules(B, J)[1].classes()[0]
        e = trivial_extension(B, J)
        once = torsor_action(e, cls)
        twice = torsor_action(once, cls)
        assert not extensions_equivalent(once, e)
        assert extensions_equivalent(twice, e)

    def test_rejects_wrong_degree(self):
        B, J = _fat_setup(GF(2))
        _, _, r2 = t_modules(B, J)
        e = trivial_extension(B, J)
        with pytest.raises(ValueError):
            torsor_action(e, r2.classes()[0])


class TestLifting:
    def _solvable_problem(self, field):
        B = dual_numbers(field)
        Cp = make_algebra(field, ["w", "e"], ["w^2", "w*e", "e^2"])
        ideal = [parse_polynomial("e", Cp.names, field)]
        phi = [parse_polynomial("w", Cp.names, field)]
        return LiftProblem.from_presented(B, Cp, ideal, phi)

    def _unsolvable_problem(self, field):
        B = dual_numbers(field)
        Cp = make_algebra(field, ["w"], ["w^4"])
        ideal = [parse_polynomial("w^2", Cp.names, field)]
        phi = [parse_polynomial("w", Cp.names, field)]
        return LiftProblem.from_presented(B, Cp, ideal, phi)

    def test_solvable_lift(self, prime_field):
        prob = self._solvable_problem(prime_field)
        assert prob.J.rank == 1
        res = lift_homomorphism(prob)
        assert res.solvable
        assert res.freedom_dim == 1
        assert res.count == prime_field.p
        # plugging the lifted images back in leaves no defect
        relifted = LiftProblem(prob.B, prob.Cprime, prob.n_basis, res.lifted_images)
        assert vec_is_zero(prime_field, relifted.defect())

    def test_unsolvable_lift(self, prime_field):
        prob = self._unsolvable_problem(prime_field)
        res = lift_homomorphism(prob)
        assert not res.solvable
        assert res.count == 0
        assert res.lifted_images is None and res.correction is None
        ok, _ = is_coboundary(res.obstruction)
        assert not ok, "the obstruction of an unsolvable problem is essential"

    def test_zero_defect_gives_zero_obstruction(self, prime_field):
        prob = self._solvable_problem(prime_field)
        res = lift_homomorphism(prob)
        assert res.obstruction.is_cocycle_of(cochain_maps(cotangent_complex(prob.B), prob.J))
        ok, _ = is_coboundary(res.obstruction)
        assert ok

    def test_ideal_must_be_square_zero(self):
        field = GF(2)
        B = dual_numbers(field)
        Cp = make_algebra(field, ["w"], ["w^4"])
        ideal = [parse_polynomial("w", Cp.names, field)]
        phi = [parse_polynomial("w", Cp.names, field)]
        with pytest.raises(ValueError, match="ideal is not square-zero"):
            LiftProblem.from_presented(B, Cp, ideal, phi)
        # the span of w^2 squares to zero, but w times it leaves it
        C = Cp.to_structure()
        with pytest.raises(ValueError, match="ideal is not stable under the generator images"):
            LiftProblem(B, C, (C.basis_vector(2),), (C.basis_vector(1),))
        A = make_algebra(field, [], [], base_gens=["s"], base_relations=["s^2"])
        Ap = make_algebra(field, ["s"], ["s^4"])
        with pytest.raises(ValueError, match="designated ideal of the total ring is not square-zero"):
            BaseDeformationProblem.from_presented_total(A, FiniteModule.trivial(A), Ap, [parse_polynomial("s", ("s",), field)])

    def test_relation_value_must_land_in_the_ideal(self):
        field = GF(2)
        B = dual_numbers(field)
        Cp = make_algebra(field, ["w"], ["w^4"])
        ideal = [parse_polynomial("w^3", Cp.names, field)]
        phi = [parse_polynomial("w", Cp.names, field)]
        prob = LiftProblem.from_presented(B, Cp, ideal, phi)
        with pytest.raises(ValueError, match="does not land"):
            prob.defect()

    def test_base_relation_must_hold_in_the_total_ring(self, any_field):
        # s -> w with s^2 = 0 in the base, but w^2 != 0 in C'
        B = make_algebra(any_field, ["x"], ["x"], base_gens=["s"], base_relations=["s^2"])
        Cp = make_algebra(any_field, ["w", "e"], ["w^3", "w*e", "e^2"])
        ideal = [parse_polynomial("e", Cp.names, any_field)]
        phi = [parse_polynomial(t, Cp.names, any_field) for t in ("w", "0")]
        prob = LiftProblem.from_presented(B, Cp, ideal, phi)
        with pytest.raises(ValueError, match="a base relation fails in the total ring"):
            prob.defect()

    def test_corrected_images_are_checked(self, any_field, monkeypatch):
        # the relation values at the corrected images come from the second
        # evaluation; a nonzero one there must be caught
        prob = self._solvable_problem(any_field)
        evaluate_many = StructureAlgebra.evaluate_many
        calls = []

        def perturbed(self, polys, images):
            vals = evaluate_many(self, polys, images).copy()
            calls.append(polys)
            if len(calls) == 2:
                vals[0, 0] = self.field.add(vals[0, 0], self.field.one())
            return vals

        monkeypatch.setattr(StructureAlgebra, "evaluate_many", perturbed)
        with pytest.raises(AssertionError, match="corrected images do not satisfy the relations"):
            lift_homomorphism(prob)
        assert len(calls) == 2


def _base_problem(field, gens, relations, thick_rel, ideal_str, base_rel):
    B = make_algebra(field, gens, relations, base_gens=["s"], base_relations=[base_rel])
    J = FiniteModule.trivial(B)
    Ap = make_algebra(field, ["s"], [thick_rel])
    gen = parse_polynomial(ideal_str, ("s",), field)
    return BaseDeformationProblem.from_presented_total(B, J, Ap, [gen])


class TestObstructions:
    def test_unobstructed_complete_intersection(self, prime_field):
        prob = _base_problem(prime_field, ["x"], ["x^2 - s"], "s^3", "s^2", "s^2")
        res = obstruction_class(prob)
        assert not res.obstructed
        assert res.witness is not None

    def test_pinch_point_is_obstructed(self, prime_field):
        prob = _base_problem(
            prime_field, ["x", "y"], ["x^2 + s", "x*y", "y^2 + s"], "s^3", "s^2", "s^2"
        )
        res = obstruction_class(prob)
        assert res.obstructed
        cls = res.cohomology_class()
        assert cls.degree == 2
        ok, _ = is_coboundary(cls)
        assert not ok

    def test_second_lift_gives_the_same_class(self, prime_field):
        prob = _base_problem(prime_field, ["x"], ["x^2 - s"], "s^3", "s^2", "s^2")
        for seed in (1, 7, 23):
            res = obstruction_class(prob, second_lift_seed=seed)
            assert not res.obstructed

    def test_realize_unobstructed(self, prime_field):
        prob = _base_problem(prime_field, ["x"], ["x^2 - s"], "s^3", "s^2", "s^2")
        real = realize_deformation(prob)
        # one image for the base generator s, one for the nilpotent s^2,
        # and the table realizes s*s = s^2 with (s^2)^2 = 0
        s_img, nil_img = real.aprime_images
        assert list(real.table.mul_vec(list(s_img), list(s_img))) == list(nil_img)
        sq = real.table.mul_vec(list(nil_img), list(nil_img))
        assert all(prime_field.is_zero(c) for c in sq)

    def test_realize_refuses_obstructed(self):
        prob = _base_problem(
            GF(2), ["x", "y"], ["x^2 + s", "x*y", "y^2 + s"], "s^3", "s^2", "s^2"
        )
        with pytest.raises(ValueError, match="obstruction"):
            realize_deformation(prob)

    def test_realize_refuses_bad_twist(self):
        # a fiber module with a nilpotent generator action makes d1 nonzero,
        # so non-cocycle twists exist and must be rejected
        field = GF(2)
        B = make_algebra(
            field,
            ["x", "y"],
            ["x^2", "x*y", "y^2"],
            base_gens=["s"],
            base_relations=["s"],
        )
        zero2 = [[0, 0], [0, 0]]
        nil = [[0, 1], [0, 0]]
        J = FiniteModule.from_matrices(B, ("j0", "j1"), [zero2, nil, zero2])
        Ap = make_algebra(field, ["s"], ["s^2"])
        gen = parse_polynomial("s", ("s",), field)
        phi = Matrix.from_cols(field, [[field.one(), field.zero()]], nrows=2)
        prob = BaseDeformationProblem.from_presented_total(B, J, Ap, [gen], phi=phi)
        res = obstruction_class(prob)
        assert not res.obstructed
        maps = cochain_maps(res.complex, J)
        bad = None
        for i in range(maps.d1.ncols):
            v = [field.zero()] * maps.d1.ncols
            v[i] = field.one()
            if any(not field.is_zero(c) for c in maps.d1.mul_vec(v)):
                bad = v
                break
        assert bad is not None
        with pytest.raises(ValueError, match="twist"):
            realize_deformation(prob, result=res, twist=bad)

    @pytest.mark.parametrize(
        "where, msg",
        [(0, "a relation value escaped the fiber"), (1, "relation values disagree with the chosen witness")],
        ids=["base-part", "fiber-part"],
    )
    def test_realize_checks_the_relation_values(self, any_field, monkeypatch, where, msg):
        # one more unit in the first relation's value of the deformed
        # table, in its B part or in its first fiber coordinate
        prob = _base_problem(any_field, ["x"], ["x^2 - s"], "s^3", "s^2", "s^2")
        evaluate_many = StructureAlgebra.evaluate_many
        s = prob.B.dim()

        def perturbed(self, polys, images):
            vals = evaluate_many(self, polys, images).copy()
            if list(polys) == list(prob.B.relations):
                k = 0 if where == 0 else s
                vals[0, k] = self.field.add(vals[0, k], self.field.one())
            return vals

        monkeypatch.setattr(StructureAlgebra, "evaluate_many", perturbed)
        with pytest.raises(AssertionError, match=msg):
            realize_deformation(prob)

    def test_realize_refuses_infinite_dimensional(self):
        field = GF(2)
        B = make_algebra(
            field, ["x", "y"], ["x*y"], base_gens=["s"], base_relations=["s"]
        )
        J = FiniteModule.trivial(B)
        Ap = make_algebra(field, ["s"], ["s^2"])
        gen = parse_polynomial("s", ("s",), field)
        prob = BaseDeformationProblem.from_presented_total(B, J, Ap, [gen])
        with pytest.raises(ValueError, match="finite-dimensional"):
            realize_deformation(prob)

    def test_twisted_realizations_differ(self):
        field = GF(2)
        prob = _base_problem(field, ["x"], ["x^2 - s"], "s^3", "s^2", "s^2")
        res = obstruction_class(prob)
        _, r1, _ = t_modules(prob.B, prob.J)
        assert r1.dim >= 1
        plain = realize_deformation(prob, result=res)
        twisted = realize_deformation(prob, result=res, twist=list(r1.reps[0]))
        assert plain.xi != twisted.xi


def _per_entry_table(B, J, values, prob=None):
    """(table, generator images) by the definition, entry by entry: a
    word p of B goes to the section coordinates of its normal form plus
    sum_r rho_J(cof_r) values_r over its division cofactors, and in a
    deformation plus its base cofactors' share reduced in A' and pushed
    into J; B acts on the fiber through J and the fiber squares to zero."""
    f = B.field
    std = B.std_monomials()
    s, t, nb = len(std), J.rank, len(B.base_relations)
    zr = None if prob is None else aprime_reference.ZRing(prob)

    def mono(m):
        return Polynomial.monomial(f, B.nvars, m)

    def word(p):
        gb = B.groebner()
        nf, division = gb.divide(p.terms)
        cof = [Polynomial(f, B.nvars, h) for h in gb.certify(division)]
        vec = [f.zero()] * (s + t)
        for m, c in nf.items():
            vec[std.index(m)] = c
        fiber = vec[s:]
        for r in range(len(B.relations)):
            fiber = vec_add(f, fiber, J.action_of_poly(cof[nb + r]).mul_vec(list(values[r * t : (r + 1) * t])))
        if prob is not None:
            gpart = sum((c * g for c, g in zip(cof, B.base_relations)), B.zero_poly())
            fiber = vec_add(f, fiber, aprime_reference.push_fiber(prob, zr.reduce_to_fiber(gpart)))
        return vec[:s] + fiber

    zero = [f.zero()] * (s + t)
    mul = [[word(mono(mono_mul(a, b))) for b in std] + [list(zero) for _ in range(t)] for a in std]
    mul += [[list(zero) for _ in range(s + t)] for _ in range(t)]
    for i, a in enumerate(std):
        act = J.action_of_poly(mono(a))
        for b in range(t):
            mul[i][s + b][s:] = mul[s + b][i][s:] = act.col(b)
    return mul, [word(B.var(v)) for v in range(B.nvars)]


# one pure power per generator, so B is finite; a cube only in one
# variable keeps dim B at most 8
_POWERS = {1: [["x^2", "x^3"]], 2: [["x^2"], ["y^2"]]}
_BASED_POWERS = {1: [["x^2 + s", "x^2 - s", "x^3 - s*x"]], 2: [["x^2 + s", "x^2 - s"], ["y^2 + s", "y^2 - s"]]}
# y - s makes the base generator s a non-standard monomial
_MIXED = ["x*y", "x^2 - y^2", "x*y + s", "x^2 + s*y", "y - s"]


@st.composite
def table_cases(draw):
    """(field, gens, relations, base?, module kind): one or two
    generators with at most one mixed relation; a based case lives over
    k[s]/(s^2)."""
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    n = draw(st.integers(1, 2))
    based = draw(st.booleans())
    pools = [p + q for p, q in zip(_POWERS[n], _BASED_POWERS[n] if based else [[]] * n)]
    rels = [draw(st.sampled_from(pool)) for pool in pools]
    if n == 2:
        rels += draw(st.lists(st.sampled_from(_MIXED if based else _MIXED[:2]), max_size=1))
    return field, ["x", "y"][:n], rels, based, draw(st.sampled_from(["trivial", "regular"]))


def _small_coef(field, data):
    return field.from_int(data.draw(st.integers(-2, 2)))


def _random_cocycle(field, r1, data):
    """T1 representatives plus a coboundary, with small coefficients."""
    psi = r1.maps.d0.mul_vec([_small_coef(field, data) for _ in range(r1.maps.d0.ncols)])
    for rep in r1.reps:
        psi = vec_add(field, psi, vec_scale(field, _small_coef(field, data), list(rep)))
    return psi


def _case_algebra(case):
    """(B, J) of a table case: the regular module up to dim B = 8, the
    largest B drawn, so every case may get it."""
    field, gens, rels, based, kind = case
    B = make_algebra(field, gens, rels, *((["s"], ["s^2"]) if based else ()))
    regular = kind == "regular" and B.dim() <= 8
    return B, FiniteModule.regular(B) if regular else FiniteModule.trivial(B)


@settings(max_examples=25, deadline=None)
@given(table_cases(), st.data())
def test_tables_match_the_per_entry_definition(case, data):
    field, _, _, based, _ = case
    B, J = _case_algebra(case)
    regular = J.rank > 1
    _, r1, _ = t_modules(B, J)
    psi, chi = _random_cocycle(field, r1, data), _random_cocycle(field, r1, data)
    ext = extension_from_cocycle(B, J, psi)
    table, images = _per_entry_table(B, J, psi)
    assert ext.table.mul.tolist() == table
    assert [list(v) for v in ext.table.gen_images] == images
    # the Baer sum adds the fiber corrections
    total = extension_from_cocycle(B, J, vec_add(field, psi, chi))
    assert baer_sum(ext, extension_from_cocycle(B, J, chi)).table.mul.tolist() == total.table.mul.tolist()
    if not based:
        return
    # deform across k[s]/(s^3) -> k[s]/(s^2), the fiber s^2 sent to s
    Ap = make_algebra(field, ["s"], ["s^3"])
    phi = Matrix.from_cols(field, [B.coordinates(B.var(0))]) if regular else None
    prob = BaseDeformationProblem.from_presented_total(B, J, Ap, [parse_polynomial("s^2", ("s",), field)], phi)
    res = obstruction_class(prob)
    seed = data.draw(st.integers(0, 99))
    assert list(res.psi) == aprime_reference.obstruction_vector(prob, res.complex)
    seeded = deformation._obstruction_vector(prob, res.complex, deformation._lift_noise(prob, seed))
    assert seeded.tolist() == aprime_reference.obstruction_vector(prob, res.complex, seed)
    if res.obstructed:
        return
    real = realize_deformation(prob, res, twist=psi)
    table, images = _per_entry_table(B, J, real.xi, prob)
    assert real.table.mul.tolist() == table
    assert [list(v) for v in real.table.gen_images] == images


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
def test_non_standard_generator_images_match_the_definition(field):
    # y - s makes the base generator s a non-standard monomial: its image
    # picks up the fiber value of its division cofactors
    prob = _base_problem(field, ["x", "y"], ["x^2", "x*y", "y^2", "y - s"], "s^3", "s^2", "s^2")
    B, J = prob.B, prob.J
    assert (1, 0, 0) not in B.std_monomials()
    res = obstruction_class(prob)
    _, r1, _ = t_modules(B, J)
    d0 = r1.maps.d0
    # the coboundary of eta moves the value of y - s, and with it the image of s
    twists = [list(rep) for rep in r1.reps] + [d0.mul_vec([field.one()] * d0.ncols)]
    fibers = []
    for twist in twists:
        real = realize_deformation(prob, res, twist=twist)
        table, images = _per_entry_table(B, J, real.xi, prob)
        assert real.table.mul.tolist() == table
        assert [list(v) for v in real.table.gen_images] == images
        fibers.append(images[0][B.dim() :])
    assert any(not field.is_zero(c) for fiber in fibers for c in fiber)


def test_obstruction_vectors_match_the_literal_reduction():
    # psi, the seeded second lifts and the base relations' share of the
    # tables, read off certified base cofactors, against the reduction
    # in a presentation of A'[x], on every corpus deformation problem
    cases = []
    for fname in ("F2", "F3", "F5", "Q"):
        ps = load_problem_file(deformation_problem_set(fname))
        cases += [(ps, spec) for spec in ps.problems if spec.kind == "deform"]
    assert len(cases) == 50
    nonzero = {"psi": 0, "seeded": 0, "share": 0}
    for ps, spec in cases:
        prob = reports._build_deform_problem(ps, spec)
        B = prob.B
        cx = cotangent_complex(B)
        psi = deformation._obstruction_vector(prob, cx).tolist()
        assert psi == aprime_reference.obstruction_vector(prob, cx)
        nonzero["psi"] += any(psi)
        for seed in (3, 17, 99):
            seeded = deformation._obstruction_vector(prob, cx, deformation._lift_noise(prob, seed)).tolist()
            assert seeded == aprime_reference.obstruction_vector(prob, cx, seed)
            nonzero["seeded"] += seeded != psi
        if B.is_finite_dimensional():
            for _, terms, coeffs in (B.product_cofactors(), B.generator_cofactors()):
                share = deformation._base_share(B, prob.J, terms, coeffs, prob).tolist()
                assert share == aprime_reference.base_share(prob, terms, coeffs).tolist()
                nonzero["share"] += any(map(any, share))
    assert all(nonzero.values()), nonzero


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_the_seeded_second_lift_check_compares_different_cocycles(seed):
    # node4.dual over F2 is the corpus problem whose noise term moves psi,
    # so the second-lift check there compares two different cocycles
    ps = load_problem_file(deformation_problem_set("F2"))
    spec = next(s for s in ps.problems if s.name == "node4.dual")
    prob = reports._build_deform_problem(ps, spec)
    B, J = prob.B, prob.J
    cx = cotangent_complex(B)
    maps = cochain_maps(cx, J)
    psi = deformation._obstruction_vector(prob, cx)
    seeded = deformation._obstruction_vector(prob, cx, deformation._lift_noise(prob, seed))
    assert (seeded != psi).any()
    ok, witnesses = are_coboundaries(B, J, 2, [B.field.reduce(seeded - psi).tolist()])
    assert ok.all() and witnesses[0].any()
    obstruction_class(prob, second_lift_seed=seed)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=lambda f: f.name)
def test_round_trip_with_a_non_standard_base_generator(field):
    # s = y^2 - x^2 lies in the ideal, so the base generator s is not a
    # standard monomial: its image must carry the fiber value of its
    # division cofactors, or the class read back is not psi (nor
    # cohomologous to it)
    B = make_algebra(field, ["x", "y"], ["x^2", "y^2 + s", "x^2 - y^2"], ["s"], ["s^2"])
    J = FiniteModule.trivial(B)
    assert (1, 0, 0) not in B.std_monomials()
    # d1 = 0 here, so every psi in J^3 is a cocycle
    assert cochain_maps(cotangent_complex(B), J).d1.is_zero()
    for psi in itertools.product(field.elements(), repeat=3):
        ext = extension_from_cocycle(B, J, list(psi))
        assert cocycle_from_extension(ext) == psi


def _literal_class(ext, offsets):
    """The fiber parts of the relations evaluated literally in the table
    at its generator images, each relative one shifted by its offset."""
    B, f = ext.B, ext.B.field
    imgs = [list(v) for v in ext.table.gen_images]
    for i, off in enumerate(offsets):
        imgs[B.n_base + i] = vec_add(f, imgs[B.n_base + i], ext.include_fiber(off))
    out = []
    for r in B.relations:
        val = ext.table.evaluate(r, imgs)
        assert vec_is_zero(f, ext.project(val))
        out.extend(ext.fiber_part(val))
    return tuple(out)


def _with_table(ext, mul=None, gen_images=None):
    T = ext.table
    table = StructureAlgebra(
        T.field,
        T.labels,
        T.mul if mul is None else mul,
        gen_names=T.gen_names,
        gen_images=T.gen_images if gen_images is None else gen_images,
        base_names=T.base_names,
        base_images=T.base_images,
    )
    return SquareZeroExtension(ext.B, ext.J, table)


def _scan_table_sample(B, J, data):
    """One eta-free oracle scan table, when the scan is small."""
    f = B.field
    s, t = B.dim(), J.rank
    if not isinstance(f, PrimeField) or f.p ** ((s - 1) * s // 2 * t) > 3**10:
        return []
    scan = enumerate_extensions(B, J)
    plain = [state for state in scan.states if not any(state[1])]
    return [scan.table_of(data.draw(st.sampled_from(plain)))]


@settings(max_examples=30, deadline=None)
@given(table_cases(), st.data())
def test_class_read_matches_literal_evaluation(case, data):
    field = case[0]
    B, J = _case_algebra(case)
    _, r1, _ = t_modules(B, J)
    psi, chi = _random_cocycle(field, r1, data), _random_cocycle(field, r1, data)
    ext = extension_from_cocycle(B, J, psi)
    assert cocycle_from_extension(ext) == tuple(psi)
    exts = [
        ext,
        baer_sum(ext, extension_from_cocycle(B, J, chi)),
        torsor_action(ext, CohomologyClass(B, J, 1, tuple(chi))),
    ] + _scan_table_sample(B, J, data)
    s, t = B.dim(), J.rank
    if s > 2:
        # a correction on one side of a pair only: the read follows
        # evaluate's left-to-right order, it does not symmetrize C
        mul = ext.table.mul.copy()
        i, j = data.draw(st.sampled_from([(i, j) for i in range(1, s) for j in range(1, s) if i != j]))
        mul[i, j, s + data.draw(st.integers(0, t - 1))] += field.one()
        exts.append(_with_table(ext, mul=field.reduce(mul)))
    for e in exts:
        offsets = [[_small_coef(field, data) for _ in range(t)] for _ in range(B.n_gens)]
        assert cocycle_from_extension(e, offsets) == _literal_class(e, offsets)
        assert cocycle_from_extension(e) == _literal_class(e, [[field.zero()] * t] * B.n_gens)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("kind", ["trivial", "regular"])
def test_class_read_matches_every_small_scan_table(field, kind):
    # x*x = x^2 is a standard pair, so the scan finds tables with fiber
    # corrections that no cocycle table has
    B = make_algebra(field, ["x"], ["x^3"])
    J = FiniteModule.regular(B) if kind == "regular" else FiniteModule.trivial(B)
    scan = enumerate_extensions(B, J)
    assert any(cd[: J.rank] != (0,) * J.rank for cd, _ in scan.states)
    one = [[field.one()] * J.rank]
    for state in scan.states:
        ext = scan.table_of(state)
        assert cocycle_from_extension(ext, one) == _literal_class(ext, one)


def test_class_read_follows_the_order_of_evaluate(any_field):
    # x^3 is evaluated as (x*x)*x: its value reads the correction on
    # (x^2, x) and not the one on (x, x^2), so a table that corrects only
    # one of the two tells the orders apart
    field = any_field
    B = make_algebra(field, ["x"], ["x^3"])
    J = FiniteModule.trivial(B)
    ext = trivial_extension(B, J)
    x, x2, s = 1, 2, ext.s
    assert B.std_monomials()[x2] == (2,)
    for i, j, value in ((x2, x, field.one()), (x, x2, field.zero())):
        mul = ext.table.mul.copy()
        mul[i, j, s] = field.one()
        skew = _with_table(ext, mul=mul)
        assert cocycle_from_extension(skew) == _literal_class(skew, [[field.zero()]]) == (value,)


def test_class_read_refuses_tables_off_the_section(any_field):
    field = any_field
    # d(x^3 + x^2)/dx is nonzero in every characteristic
    B = make_algebra(field, ["x"], ["x^3 + x^2"])
    J = FiniteModule.regular(B)
    ext = extension_from_cocycle(B, J, [field.one(), field.zero(), field.one()])
    s = ext.s
    cases = {
        "product of B": (1, 1, 0),
        "not square-zero": (s, s + 1, s),
        "action disagrees": (1, s, s + 1),
        "not an ideal": (1, s, 0),
    }
    for msg, (i, j, k) in cases.items():
        mul = ext.table.mul.copy()
        mul[i, j, k] = mul[j, i, k] = field.add(mul[i, j, k], field.one())
        with pytest.raises(ValueError, match=msg):
            cocycle_from_extension(_with_table(ext, mul=mul))
    imgs = [list(v) for v in ext.table.gen_images]
    imgs[0][1] = field.add(imgs[0][1], field.one())
    with pytest.raises(ValueError, match="off the section"):
        cocycle_from_extension(_with_table(ext, gen_images=imgs))
    # the fiber part of an image is an offset, not an error
    imgs = [list(v) for v in ext.table.gen_images]
    imgs[0][s] = field.one()
    moved = _with_table(ext, gen_images=imgs)
    assert cocycle_from_extension(moved) == _literal_class(moved, [[field.zero()] * J.rank])
    assert cocycle_from_extension(moved) != cocycle_from_extension(ext)


def test_module_action_block_is_shared_by_tables_and_reads(monkeypatch):
    B = make_algebra(GF(3), ["x"], ["x^3"])
    J = FiniteModule.regular(B)
    ext = extension_from_cocycle(B, J, [1, 0, 2])
    block = J.action_block()
    calls = []
    monkeypatch.setattr(J, "monomial_action", lambda m: calls.append(m))
    assert ext.validate() == []
    cocycle_from_extension(ext)
    assert calls == [] and J.action_block() is block


# ---------------------------------------------------------------------------
# stacks: every stacked primitive equals the per-extension results


def _each(fn, *stacks):
    """fn on the k-th extension of each stack alone, for every k: the
    per-extension results a stacked call must equal."""
    return [fn(*(s.extension(k) for s in stacks)) for k in range(len(stacks[0]))]


def _bounds_alone(maps, vec):
    """Whether vec bounds, decided by ranks alone: rank [d0 | vec] = rank d0."""
    aug = maps.d0.hstack(Matrix.from_cols(maps.d0.field, [list(vec)], nrows=maps.d0.nrows))
    return aug.rank() == maps.d0.rank()


@settings(max_examples=20, deadline=None)
@given(table_cases(), st.data())
def test_stacks_equal_the_per_extension_results(case, data):
    field = case[0]
    B, J = _case_algebra(case)
    _, r1, _ = t_modules(B, J)
    maps = r1.maps
    k = data.draw(st.integers(0, 3), label="K")
    rows = [_random_cocycle(field, r1, data) for _ in range(k)]
    more = [_random_cocycle(field, r1, data) for _ in range(k)]
    stack = extensions_from_cocycles(B, J, rows)
    other = extensions_from_cocycles(B, J, more)
    assert stack.mul.shape == (k,) + (B.dim() + J.rank,) * 3
    assert stack.images.shape == (k, B.nvars, B.dim() + J.rank)
    # tables and generator images, against the per-entry definition
    for psi, mul, images in zip(rows, stack.mul, stack.images):
        table, imgs = _per_entry_table(B, J, psi)
        assert mul.tolist() == table and images.tolist() == imgs
    assert stack.findings() == _each(SquareZeroExtension.validate, stack) == [[]] * k
    # class reads, with and without offsets, against literal evaluation
    t = J.rank
    offsets = [[[_small_coef(field, data) for _ in range(t)] for _ in range(B.n_gens)] for _ in range(k)]
    reads = cocycles_from_extensions(stack, offsets)
    assert reads.shape == (k, len(B.relations) * t)
    assert reads.tolist() == [list(_literal_class(e, off)) for e, off in zip(stack.extensions(), offsets)]
    assert cocycles_from_extensions(stack).tolist() == rows
    assert [tuple(r) for r in cocycles_from_extensions(stack).tolist()] == _each(cocycle_from_extension, stack)
    # Baer sums: the table of the summed cocycles, pair by pair
    sums = baer_sums(stack, other)
    assert sums.mul.tolist() == [e.table.mul.tolist() for e in _each(baer_sum, stack, other)]
    summed = extensions_from_cocycles(B, J, [vec_add(field, a, b) for a, b in zip(rows, more)])
    assert sums.mul.tolist() == summed.mul.tolist()
    # coboundary decisions: the differences, half of them shifted onto a coboundary
    diffs = field.reduce(cocycles_from_extensions(stack) - cocycles_from_extensions(other))
    for i in range(0, k, 2):
        diffs[i] = field.array(maps.d0.mul_vec([_small_coef(field, data) for _ in range(maps.d0.ncols)]))
    ok, witnesses = are_coboundaries(B, J, 1, diffs)
    alone = [is_coboundary(CohomologyClass(B, J, 1, tuple(v))) for v in diffs.tolist()]
    assert ok.tolist() == [a for a, _ in alone] == [_bounds_alone(maps, v) for v in diffs.tolist()]
    assert [w for w, a in zip(witnesses.tolist(), ok) if a] == [w for a, w in alone if a]
    assert equivalent_extensions(stack, other).tolist() == _each(extensions_equivalent, stack, other)
    assert equivalent_extensions(stack, summed).tolist() == [
        _bounds_alone(maps, vec_scale(field, field.from_int(-1), b)) for b in more
    ]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
def test_empty_and_single_stacks(field):
    B = make_algebra(field, ["x", "y"], ["x^2", "x*y", "y^2"], ["s"], ["s^2"])
    J = FiniteModule.regular(B)
    maps = cochain_maps(cotangent_complex(B), J)
    n, width = B.dim() + J.rank, len(B.relations) * J.rank
    empty = extensions_from_cocycles(B, J, [])
    assert len(empty) == 0 and empty.mul.shape == (0, n, n, n) and empty.images.shape == (0, B.nvars, n)
    assert empty.findings() == [] and empty.extensions() == ()
    assert cocycles_from_extensions(empty).shape == (0, width)
    assert len(baer_sums(empty, empty)) == 0
    assert equivalent_extensions(empty, empty).shape == (0,)
    ok, witnesses = are_coboundaries(B, J, 1, np.zeros((0, width), field.dtype))
    assert ok.shape == (0,) and witnesses.shape == (0, maps.d0.ncols)
    # K = 1 is the scalar call
    _, r1, _ = t_modules(B, J)
    psi = list(r1.reps[-1])
    one = extensions_from_cocycles(B, J, [psi])
    ext = extension_from_cocycle(B, J, psi)
    assert one.mul[0].tolist() == ext.table.mul.tolist()
    assert one.extension(0).table.gen_images == ext.table.gen_images
    assert cocycles_from_extensions(one).tolist() == [list(cocycle_from_extension(ext))] == [psi]
    assert one.extension(0).cocycle == ext.cocycle == tuple(psi)


def test_a_corrupted_table_is_reported_for_itself_only(any_field):
    field = any_field
    B = make_algebra(field, ["x"], ["x^3"])
    J = FiniteModule.regular(B)
    _, r1, _ = t_modules(B, J)
    stack = extensions_from_cocycles(B, J, [list(r1.reps[0]), list(r1.reps[0]), [field.zero()] * J.rank])
    s, x, x2 = B.dim(), 1, 2
    # x^2 * x^2 = x: unit and commutativity hold, associativity fails
    mul = stack.mul.copy()
    mul[1, x2, x2, x] = field.one()
    assert table_findings(field, mul) == [[], ["multiplication is not associative"], []]
    # a unit off in the middle table only
    mul = stack.mul.copy()
    mul[1, 0, x, x] = field.zero()
    assert table_findings(field, mul)[0::2] == [[], []] and "basis element 0 is not a left unit" in table_findings(field, mul)[1]
    # the fiber squares to something in the middle table only
    mul = stack.mul.copy()
    mul[1, s, s, 0] = field.one()
    bad = ExtensionStack(B, J, mul, stack.images)
    assert bad.section_findings() == [[], ["fiber is not square-zero"], []]
    findings = bad.findings()
    assert findings[0] == findings[2] == [] and "fiber is not square-zero" in findings[1]
    assert findings == _each(SquareZeroExtension.validate, bad)
    with pytest.raises(ValueError, match="not in section form"):
        cocycles_from_extensions(bad)
    with pytest.raises(AssertionError, match="fibered subalgebra"):
        baer_sums(bad, stack)
    # a generator image off the section in the middle table only
    images = stack.images.copy()
    images[1, 0, 0] = field.one()
    moved = ExtensionStack(B, J, stack.mul, images)
    assert moved.section_findings() == [[], ["a generator image is off the section"], []]
    with pytest.raises(AssertionError, match="Baer sum failed validation"):
        baer_sums(moved, stack)


def test_a_non_cocycle_in_the_middle_of_a_stack_is_refused():
    # three relations give Koszul syzygies, so d1 is nonzero on J = B
    field = GF(3)
    B = fat_point(field)
    J = FiniteModule.regular(B)
    maps = cochain_maps(cotangent_complex(B), J)
    _, r1, _ = t_modules(B, J)
    width = maps.d1.ncols
    units = [[field.one() if i == j else field.zero() for i in range(width)] for j in range(width)]
    bad = next(u for u in units if not vec_is_zero(field, maps.d1.mul_vec(u)))
    good = list(r1.reps[0])
    with pytest.raises(ValueError, match="not a cocycle"):
        extensions_from_cocycles(B, J, [good, bad, good])
    with pytest.raises(ValueError, match="not a cocycle"):
        are_coboundaries(B, J, 1, [good, bad, good])


def test_classification_reads_every_class_in_one_stack():
    B, J = _fat_setup(GF(3))
    cl = classify_extensions(B, J)
    assert len(cl.stack) == cl.count == 27
    assert [cl.class_of(rep) for rep in cl.representatives] == list(range(27))
    # the n-th representative has the base-3 digits of n on the T1 basis
    _, r1, _ = t_modules(B, J)
    psi = vec_add(GF(3), vec_scale(GF(3), 2, list(r1.reps[0])), list(r1.reps[2]))
    assert cl.representatives[2 + 9].cocycle == tuple(psi)


class TestComparable:
    def test_refuses_extensions_over_different_presentations(self, prime_field):
        # both algebras have the standard monomials 1, x; the cocycles have
        # different lengths
        f = prime_field
        B1 = make_algebra(f, ["x"], ["x^2"])
        B2 = make_algebra(f, ["x"], ["x^2", "x^3"])
        e1 = extension_from_cocycle(B1, FiniteModule.trivial(B1), [f.one()])
        e2 = extension_from_cocycle(B2, FiniteModule.trivial(B2), [f.one(), f.zero()])
        for op in (baer_sum, extensions_equivalent):
            for a, b in ((e1, e2), (e2, e1)):
                with pytest.raises(ValueError, match="not over the same algebra"):
                    op(a, b)

    def test_equal_presentations_built_twice_are_comparable(self, prime_field):
        f = prime_field
        B1, B2 = fat_point(f), fat_point(f)
        _, r1, _ = t_modules(B1, FiniteModule.trivial(B1))
        psi = list(r1.reps[0])
        e1 = extension_from_cocycle(B1, FiniteModule.trivial(B1), psi)
        e2 = extension_from_cocycle(B2, FiniteModule.trivial(B2), psi)
        assert extensions_equivalent(e1, e2) and extensions_equivalent(e2, e1)
        assert cocycle_from_extension(baer_sum(e1, e2)) == tuple(vec_add(f, psi, psi))


def _division_span(A, ideal_gens):
    """The ideal's row-reduced basis the long way: g * std_m multiplied
    out as a polynomial and divided by the basis of A, for every pair."""
    f, std = A.field, A.std_monomials()
    vecs = [A.coordinates(g * Polynomial.monomial(f, A.nvars, mo)) for g in ideal_gens for mo in std]
    red, _, rank = Matrix.from_rows(f, vecs, ncols=len(std)).rref()
    return [red.row(i) for i in range(rank)]


@pytest.mark.parametrize("field", ["F2", "F3", "Q"])
def test_ideal_span_from_the_table_is_the_division_span(field):
    from defalg import corpus
    from defalg.deformation import _ideal_span
    from defalg.problems import load_problem_file

    ps = load_problem_file(corpus.lift_problem_set(field))
    lifts = [spec for spec in ps.problems if spec.kind == "lift"]
    assert lifts
    for spec in lifts:
        Cp = ps.algebra(spec.through)
        ideal = [parse_polynomial(s, Cp.names, ps.field) for s in spec.ideal]
        assert _ideal_span(Cp, ideal) == _division_span(Cp, ideal), spec.name
