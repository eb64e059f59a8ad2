"""Cohomology of the three-term complex: frozen dimensions, structural
identities, and coboundary decisions.

The dimension table below was frozen from exhaustive enumeration runs
over F2 and F3 (see the oracle tests); the rational entries agree with
the finite-field ones on the same presentations.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defalg import GF, QQ, groebner
from defalg.algebras import FiniteModule, PresentedAlgebra
from defalg.cotangent import (
    CohomologyClass,
    CotangentComplex,
    base_vectors,
    are_coboundaries,
    cochain_maps,
    cotangent_complex,
    is_coboundary,
    koszul_vectors,
    t_module,
    t_modules,
)
from defalg.deformation import BaseDeformationProblem, obstruction_class
from defalg.differential import block_matrix, jacobian_entries, relation_syzygies
from defalg.groebner import module_groebner, module_syzygies, syzygy_basis
from defalg.linalg import Matrix, complete_basis, kernel_basis, vec_add
from defalg.problems import parse_polynomial

from .conftest import dual_numbers, fat_point, make_algebra

# (gens, relations, J, expected (t0, t1, t2)); J "k" is the trivial module
FROZEN = [
    (["x"], ["x^2"], "k", (1, 1, 0)),
    (["x"], ["x^3"], "k", (1, 1, 0)),
    (["x"], ["x^4"], "k", (1, 1, 0)),
    (["x", "y"], ["x^2", "x*y", "y^2"], "k", (2, 3, 2)),
    (["x", "y"], ["x*y"], "k", (2, 1, 0)),
    (["x", "y"], ["x^2 - y^2", "x*y"], "k", (2, 2, 0)),
    (["x", "y"], ["x*y", "x^3", "y^2"], "k", (2, 3, 2)),
    (["x"], [], "k", (1, 0, 0)),
    (["x", "y"], [], "k", (2, 0, 0)),
    (["x", "y", "z"], [], "k", (3, 0, 0)),
]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
@pytest.mark.parametrize(
    "gens,rels,mod,dims", FROZEN, ids=[f"case{i}" for i in range(len(FROZEN))]
)
def test_frozen_dimensions(field, gens, rels, mod, dims):
    B = make_algebra(field, gens, rels)
    J = FiniteModule.trivial(B)
    r0, r1, r2 = t_modules(B, J)
    assert (r0.dim, r1.dim, r2.dim) == dims


@pytest.mark.parametrize(
    "field,dims", [(GF(2), (2, 2)), (GF(3), (3, 3)), (QQ, (2, 2))], ids=["F2", "F3", "Q"]
)
def test_cubic_regular_module_depends_on_characteristic(field, dims):
    # J = B itself: the Jacobian entry 3x^2 vanishes exactly in char 3
    B = make_algebra(field, ["x"], ["x^3"])
    J = FiniteModule.regular(B)
    r0, r1, _ = t_modules(B, J)
    assert (r0.dim, r1.dim) == dims


def test_truncated_node_dimensions():
    # k[x,y]/(xy) truncated at degree 4; T1 was confirmed by enumeration
    B = make_algebra(GF(2), ["x", "y"], ["x*y"]).truncated_presentation(4)
    r0, r1, r2 = t_modules(B, FiniteModule.trivial(B))
    assert r1.dim == 3


def test_pinch_dimensions():
    # the obstructed relative instance: T2 is 1-dimensional
    B = make_algebra(
        GF(2),
        ["x", "y"],
        ["x^2 + s", "x*y", "y^2 + s"],
        base_gens=["s"],
        base_relations=["s^2"],
    )
    r0, r1, r2 = t_modules(B, FiniteModule.trivial(B))
    assert (r1.dim, r2.dim) == (3, 1)


def test_complex_identities(any_field):
    B = fat_point(any_field)
    cx = cotangent_complex(B)
    maps = cochain_maps(cx, FiniteModule.trivial(B))
    assert maps.d1.mul(maps.d0).is_zero()
    assert maps.w.mul(maps.d1).is_zero()
    assert cx.n_rels == 3 and cx.n_gens == 2
    # the pruned generators, Koszul and base vectors span every syzygy
    mgb = module_groebner(list(cx.syz) + list(cx.kos) + base_vectors(B), cx.n_rels)
    assert all(mgb.contains(vec) for vec in relation_syzygies(B))


def test_complex_is_built_and_checked_once_per_algebra(any_field, monkeypatch):
    from defalg import cotangent

    checks = []
    vanish = cotangent.combinations_vanish
    monkeypatch.setattr(cotangent, "combinations_vanish", lambda *a, **kw: checks.append(a) or vanish(*a, **kw))
    B = fat_point(any_field)
    cx = cotangent_complex(B)
    assert len(checks) == 4
    assert cotangent_complex(B) is cx and len(checks) == 4
    # a build whose syzygy no longer pairs to zero is caught, and not kept
    fresh = fat_point(any_field)
    with pytest.raises(AssertionError, match="syzygy"):
        _corrupted_build(monkeypatch, fresh, syz=_bump(B, cx.syz, 0, 0))
    assert fresh._cotangent is None


def _bump(B, vectors, k, j):
    """vectors with entry j of vector k raised by 1."""
    bad = list(vectors[k])
    bad[j] = bad[j] + B.one_poly()
    return vectors[:k] + (tuple(bad),) + vectors[k + 1 :]


def _corrupted_build(monkeypatch, B, **fields):
    """Build the complex of B as _build_complex makes it, but with the
    given fields in place of the ones it computes."""
    from defalg import cotangent

    made = cotangent.CotangentComplex
    monkeypatch.setattr(cotangent, "CotangentComplex", lambda *args: dataclasses.replace(made(*args), **fields))
    cotangent_complex(B)


def test_corrupted_syzygy_is_caught(any_field, monkeypatch):
    cx = cotangent_complex(fat_point(any_field))
    B = fat_point(any_field)
    with pytest.raises(AssertionError, match="syzygy does not pair to zero over the base"):
        _corrupted_build(monkeypatch, B, syz=_bump(B, cx.syz, 0, 0))


def test_corrupted_relation_row_is_caught(any_field, monkeypatch):
    # the first row's entry on syz[0] gains 1, so the row adds syz[0] itself,
    # whose entries y and -x are not in the ideal
    cx = cotangent_complex(fat_point(any_field))
    B = fat_point(any_field)
    with pytest.raises(AssertionError, match="relation row does not kill the syzygy classes"):
        _corrupted_build(monkeypatch, B, w_rows=_bump(B, cx.w_rows, 0, 0))


def test_corrupted_koszul_vector_is_caught(any_field, monkeypatch):
    cx = cotangent_complex(fat_point(any_field))
    B = fat_point(any_field)
    with pytest.raises(AssertionError, match="Koszul vector is not a syzygy"):
        _corrupted_build(monkeypatch, B, kos=_bump(B, cx.kos, 0, 0))


def test_syzygy_off_the_cached_jacobian_is_caught(any_field, monkeypatch):
    # A syzygy that pairs to zero over the base composes to zero with the
    # true Jacobian mod the ideal (differentiate sum s_j f_j = sum a_l g_l),
    # so the check reads the Jacobian rows that D0 is built from: its
    # d(xy)/dx entry gains 1, and syz[0] = (0, y, -x) pairs it to y + y^2 - ...
    cx = cotangent_complex(fat_point(any_field))
    B = fat_point(any_field)
    with pytest.raises(AssertionError, match="syzygy does not compose to zero with the Jacobian"):
        _corrupted_build(monkeypatch, B, jac=_bump(B, cx.jac, 1, 0))


def _unpruned_complex(B):
    """The complex on every vector of relation_syzygies, W from the whole
    family syz + Kos + base, as it was built before pruning."""
    syz = relation_syzygies(B)
    kos = koszul_vectors(B)
    w_rows = []
    if syz:
        for rel in module_syzygies(syz + kos + base_vectors(B), len(B.relations)):
            crow = tuple(B.normal_form(rel[k]) for k in range(len(syz)))
            if not all(p.is_zero() for p in crow):
                w_rows.append(crow)
    jac = tuple(tuple(r) for r in jacobian_entries(B))
    return CotangentComplex(B, jac, tuple(map(tuple, syz)), tuple(map(tuple, kos)), tuple(w_rows))


def test_complex_is_pruned_and_certified(any_field, monkeypatch):
    # the chain-reduced Schreyer syzygies of the fat point are already
    # minimal modulo Koszul; those of these five relations in four
    # variables are not (27 -> 5 over F3 and Q, 18 -> 2 over F2)
    B = make_algebra(
        any_field, ["x", "y", "z", "w"], ["x^2 + y*z + w^2", "y^2 - x*w", "z^3", "w^3 - x*y", "x*z - y*w"]
    )
    cx = cotangent_complex(B)
    assert cx.n_syz < len(relation_syzygies(B))
    # a corrupted cofactor in the certificate of a dropped generator is caught
    # on the next build
    certify = groebner._certify

    def corrupted(field, cof, *rest):
        term, c = next(iter(cof.items()))  # a packed term
        bad = dict(cof)
        bad[term] = field.add(c, field.one())
        certify(field, bad, *rest)

    monkeypatch.setattr(groebner, "_certify", corrupted)
    B._cotangent = None
    with pytest.raises(AssertionError, match="certificate"):
        cotangent_complex(B)


_RELATIONS = {
    2: ["x^2", "x*y", "y^2", "x^3", "y^3", "x^2 - y^2", "x^2 + x*y", "x*y - y^3"],
    3: ["x^2", "y^2", "z^2", "x*y", "x*z", "y*z - x^2", "x*y*z", "z^3 - x*y"],
}
_POWERS = {"x": ["x^2", "x^3"], "y": ["y^2", "y^3"], "z": ["z^2"]}
_BASE_POWERS = {"x": ["x^2 + s", "x^2 - s"], "y": ["y^2 + s", "y^3 - s"], "z": ["z^2 + s"]}


@st.composite
def presented_cases(draw):
    """(field, gens, relations, base?, module kind): 2-3 variables and 2-4
    relations; the regular module gets pure powers, so B is finite."""
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    gens = ["x", "y", "z"][: draw(st.integers(2, 3))]
    based = draw(st.booleans())
    kind = draw(st.sampled_from(["trivial", "regular"]))
    pool = _RELATIONS[len(gens)] + (["x*y + s", "x^2 + s*y"] if based else [])
    if kind == "regular":
        powers = _BASE_POWERS if based else _POWERS
        rels = [draw(st.sampled_from(powers[g])) for g in gens]
        rels += draw(st.lists(st.sampled_from(pool), max_size=4 - len(gens), unique=True))
    else:
        rels = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True))
    return field, gens, rels, based, kind


@settings(max_examples=30, deadline=None)
@given(presented_cases())
def test_pruned_complex_agrees_with_unpruned(case):
    field, gens, rels, based, kind = case
    base = (["s"], ["s^2"]) if based else ((), ())
    B = make_algebra(field, gens, rels, *base)
    J = FiniteModule.trivial(B) if kind == "trivial" else FiniteModule.regular(B)
    prob = None
    if based:
        # deform across k[s]/(s^3) -> k[s]/(s^2), the fiber s^2 sent to s
        Ap = make_algebra(field, ["s"], ["s^3"])
        phi = None if kind == "trivial" else Matrix.from_cols(field, [B.coordinates(B.var(0))])
        prob = BaseDeformationProblem.from_presented_total(
            B, J, Ap, [parse_polynomial("s^2", ("s",), field)], phi
        )

    def invariants():
        dims = tuple(res.dim for res in t_modules(B, J))
        return dims, (obstruction_class(prob).obstructed if prob else None)

    pruned = invariants()
    assert cotangent_complex(B).n_syz <= len(relation_syzygies(B))
    B._cotangent = _unpruned_complex(B)
    assert invariants() == pruned


def _reference_relation_syzygies(B):
    """relation_syzygies as built on polynomials: the syzygy columns of
    relations + base relations, their relation part reduced modulo the
    base ideal, zero vectors and duplicates dropped, sorted."""
    m = len(B.relations)
    out, seen = [], set()
    for col in syzygy_basis(list(B.relations) + list(B.base_relations)).columns:
        vec = [B.base_normal_form(col[j]) for j in range(m)]
        key = tuple(p.key() for p in vec)
        if all(p.is_zero() for p in vec) or key in seen:
            continue
        seen.add(key)
        out.append(vec)
    return sorted(out, key=lambda v: [p.key() for p in v])


def _algebra_of(case):
    field, gens, rels, based, _ = case
    return make_algebra(field, gens, rels, *((["s"], ["s^2"]) if based else ((), ())))


@settings(max_examples=30, deadline=None)
@given(presented_cases())
def test_relation_syzygies_match_the_polynomial_reference(case):
    B = _algebra_of(case)
    assert relation_syzygies(B) == _reference_relation_syzygies(B)


def test_relation_syzygies_read_the_held_basis_without_an_engine(any_field, monkeypatch):
    # relative relations with base relations: both bases built first, then
    # the syzygies start no Buchberger engine of their own
    B = make_algebra(any_field, ["x", "y"], ["x^2 + s", "x*y", "y^2 + s"], ["s"], ["s^2"])
    B.groebner(), B.base_groebner()
    started = []
    init = groebner._Engine.__init__

    def spy(self, *args):
        started.append(args)
        init(self, *args)

    monkeypatch.setattr(groebner._Engine, "__init__", spy)
    assert relation_syzygies(B) and not started


@pytest.mark.parametrize(
    "rels, base",
    [(["x - 1", "x*y"], ((), ())), (["x^2 + s", "x*y - s*y", "y^3"], (["s"], ["s^2"]))],
    ids=["unit-ideal", "based"],
)
def test_relation_syzygies_of_the_held_basis_match_the_reference(any_field, rels, base):
    # the unit ideal collapses every generator into the basis {1}: its
    # syzygies all come from the rows of I - V.U
    B = PresentedAlgebra.from_strings(any_field, ["x", "y"], rels, *base, allow_zero=True)
    assert relation_syzygies(B) == _reference_relation_syzygies(B)


@settings(max_examples=30, deadline=None)
@given(presented_cases(), st.sampled_from([None, 2, 3]))
def test_d1_reads_normal_form_syzygies(case, truncation):
    # every module kind: the syzygies' normal forms give the D1 of the
    # honest syzygies, since J is a B-module, and W D1 = 0 still holds
    field, _, _, _, kind = case
    B = _algebra_of(case)
    if truncation is not None:
        J = FiniteModule.truncated_regular(B, truncation)
    else:
        J = FiniteModule.trivial(B) if kind == "trivial" else FiniteModule.regular(B)
    cx = cotangent_complex(B)
    assert all(B.normal_form(p) == p for v in cx.syz_nf for p in v)
    assert [tuple(map(B.normal_form, v)) for v in cx.syz] == list(cx.syz_nf)
    maps = cochain_maps(cx, J)
    assert maps.d1 == block_matrix(J, cx.syz, cx.n_syz, cx.n_rels)
    assert maps.w.mul(maps.d1).is_zero()


def test_a_replaced_complex_builds_its_own_normal_forms(any_field):
    B = fat_point(any_field)
    cx = cotangent_complex(B)
    J = FiniteModule.regular(B)
    flipped = dataclasses.replace(cx, syz=cx.syz[::-1])
    assert cx.syz_nf and flipped.syz_nf == cx.syz_nf[::-1]
    # D1 is read off the complex it is given, not the one cached on B,
    # and each complex keeps maps of its own
    unpruned = _unpruned_complex(B)
    for other in (flipped, unpruned):
        maps = cochain_maps(other, J)
        assert maps.d1 == block_matrix(J, other.syz, other.n_syz, other.n_rels)
        assert maps.complex is other and cochain_maps(other, J) is maps
        assert maps is not cochain_maps(cx, J)
    assert cochain_maps(flipped, J).d1 != cochain_maps(cx, J).d1


def _spans_within(rows, others, B, r):
    """Whether every row lies in the B-submodule of B^r spanned by the
    other rows: containment in their span plus the ideal in every slot."""
    ideal = [[g if k == j else B.zero_poly() for k in range(r)] for g in B.ideal_gens() for j in range(r)]
    mgb = module_groebner([list(row) for row in others] + ideal, r)
    return all(mgb.contains(list(row)) for row in rows)


@settings(max_examples=30, deadline=None)
@given(presented_cases())
def test_w_rows_span_the_relations_from_a_fresh_syzygy_run(case):
    B = _algebra_of(case)
    cx = cotangent_complex(B)
    r = cx.n_syz
    if not r:
        return
    family = [list(v) for v in cx.syz] + koszul_vectors(B) + base_vectors(B)
    fresh = [[B.normal_form(rel[k]) for k in range(r)] for rel in module_syzygies(family, len(B.relations))]
    assert _spans_within(cx.w_rows, fresh, B, r)
    assert _spans_within(fresh, cx.w_rows, B, r)


def test_module_action_matters():
    # a rank-two module with a nilpotent action is not two copies of k;
    # over F3 the coefficient 2x survives and the action shows up
    field = GF(3)
    B = dual_numbers(field)
    nil = [[0, 1], [0, 0]]
    J = FiniteModule.from_matrices(B, ("j0", "j1"), [nil])
    r0, r1, r2 = t_modules(B, J)
    triv = t_modules(B, FiniteModule.trivial(B))
    assert r2.dim == 0 and triv[2].dim == 0
    assert (r0.dim, r1.dim) != (2 * triv[0].dim, 2 * triv[1].dim)


def test_quotient_accounting(any_field):
    B = fat_point(any_field)
    J = FiniteModule.trivial(B)
    _, r1, _ = t_modules(B, J)
    assert r1.dim == r1.cocycle_dim - r1.coboundary_dim
    assert len(r1.reps) == r1.dim
    for rep in r1.classes():
        assert rep.is_cocycle_of(r1.maps)
        bounds, _ = is_coboundary(rep)
        assert not bounds, "chosen representatives span a transversal"


@pytest.mark.parametrize(
    "gens, rels",
    [(["x", "y"], ["x^2", "x*y", "y^2"]), (["x", "y", "z"], ["x^2", "y^2", "z^2", "x*y*z"]), (["x"], ["x^4"])],
)
def test_representatives_are_the_greedy_transversal(any_field, gens, rels):
    # the picks read off the free rows are the cocycle columns that each
    # raise the rank of the coboundaries and the columns before them
    B = make_algebra(any_field, gens, rels)
    res = t_modules(B, FiniteModule.regular(B))
    maps = res[0].maps
    for r, prev, nxt in ((res[1], maps.d0, maps.d1), (res[2], maps.d1, maps.w)):
        outer = [kernel_basis(nxt).col(c) for c in range(r.cocycle_dim)]
        inner = [prev.col(c) for c in range(prev.ncols)]
        picked = complete_basis(any_field, inner, outer, prev.nrows)
        assert r.reps == tuple(tuple(outer[i]) for i in picked)
        assert r.coboundary_dim == prev.rank()


def test_t_modules_checks_its_kernel_and_transversal(monkeypatch):
    from defalg import cotangent

    f = GF(3)
    B = fat_point(f)
    J = FiniteModule.regular(B)
    kernel = cotangent.kernel_basis
    transversal = cotangent._transversal
    # twice a kernel basis is no longer the identity on its free coordinates
    monkeypatch.setattr(cotangent, "kernel_basis", lambda m: kernel(m).mul(_twice(f, kernel(m).ncols)))
    with pytest.raises(AssertionError, match="identity on its free coordinates"):
        t_modules(B, J)
    monkeypatch.setattr(cotangent, "kernel_basis", kernel)
    # one representative short of the rank count
    monkeypatch.setattr(cotangent, "_transversal", lambda prev, nxt: transversal(prev, nxt)[1:])
    with pytest.raises(AssertionError, match="transversal size disagrees"):
        t_modules(B, J)


def _twice(f, n):
    return Matrix.from_rows(f, [[2 * (i == j) for j in range(n)] for i in range(n)], ncols=n)


def test_is_coboundary_accepts_boundaries(prime_field):
    B = fat_point(prime_field)
    J = FiniteModule.trivial(B)
    maps = cochain_maps(cotangent_complex(B), J)
    eta = [prime_field.one()] * maps.d0.ncols
    bound = maps.d0.mul_vec(eta)
    ok, witness = is_coboundary(CohomologyClass(B, J, 1, tuple(bound)))
    assert ok
    assert maps.d0.mul_vec(witness) == bound


@pytest.mark.parametrize("degree", [1, 2])
def test_stacked_coboundaries_match_one_by_one(any_field, degree):
    # one reduction decides every row; each witness is the one a single
    # solve finds, and a row that does not bound gets none
    f = any_field
    B = make_algebra(f, ["x", "y"], ["x^2", "x*y", "y^2"], ["s"], ["s^2"])
    J = FiniteModule.regular(B)
    r0, r1, r2 = t_modules(B, J)
    maps = r1.maps
    prev, res = (maps.d0, r1) if degree == 1 else (maps.d1, r2)
    images = {}
    for j in range(prev.ncols):
        v = prev.mul_vec([f.one() if i == j else f.zero() for i in range(prev.ncols)])
        if any(v):
            images.setdefault(tuple(v), v)
    rows = list(images.values())[:3]
    rows += [list(res.reps[0]), [f.zero()] * prev.nrows, vec_add(f, rows[0], list(res.reps[-1]))]
    assert res.dim >= 1 and len(rows) == 6
    ok, witnesses = are_coboundaries(B, J, degree, rows)
    alone = [is_coboundary(CohomologyClass(B, J, degree, tuple(r))) for r in rows]
    assert ok.tolist() == [a for a, _ in alone] == [True, True, True, False, True, False]
    for row, bound, w, (_, single) in zip(rows, ok, witnesses.tolist(), alone):
        if bound:
            assert w == single and prev.mul_vec(w) == row
        else:
            assert single is None and not any(w)


def test_a_bad_stacked_witness_is_caught(monkeypatch):
    from defalg import cotangent

    B = fat_point(GF(3))
    J = FiniteModule.regular(B)
    maps = cochain_maps(cotangent_complex(B), J)
    solve = cotangent.solve_affine_rows

    def swapped(m, b):
        ok, x = solve(m, b)
        return ok, x[::-1].copy()

    monkeypatch.setattr(cotangent, "solve_affine_rows", swapped)
    e = [[GF(3).one() if i == j else 0 for i in range(maps.d0.ncols)] for j in (0, 1)]
    rows = [maps.d0.mul_vec(v) for v in e]
    assert rows[0] != rows[1]
    with pytest.raises(AssertionError, match="bad witness"):
        are_coboundaries(B, J, 1, rows)


def test_is_coboundary_rejects_non_cocycles():
    # three relations give Koszul syzygies, so d1 is nonzero on J = B
    B = fat_point(GF(2))
    J = FiniteModule.regular(B)
    maps = cochain_maps(cotangent_complex(B), J)
    bad = None
    for i in range(maps.d1.ncols):
        v = [GF(2).zero()] * maps.d1.ncols
        v[i] = GF(2).one()
        if any(c for c in maps.d1.mul_vec(v)):
            bad = v
            break
    assert bad is not None
    with pytest.raises(ValueError, match="not a cocycle"):
        is_coboundary(CohomologyClass(B, J, 1, tuple(bad)))


def test_classes_add(prime_field):
    B = fat_point(prime_field)
    J = FiniteModule.trivial(B)
    _, r1, _ = t_modules(B, J)
    assert r1.dim >= 2
    a, b = list(r1.reps[0]), list(r1.reps[1])
    s = vec_add(prime_field, a, b)
    cls = CohomologyClass(B, J, 1, tuple(s))
    assert cls.is_cocycle_of(r1.maps)
    bounds, _ = is_coboundary(cls)
    assert not bounds, "sum of independent classes stays nonzero"


def test_degree_validation():
    B = dual_numbers(GF(2))
    J = FiniteModule.trivial(B)
    with pytest.raises(ValueError):
        t_module(B, J, 3)
    assert t_module(B, J, 1).dim == 1


def test_a_repeated_read_of_a_pair_builds_nothing(any_field, monkeypatch):
    # the second t_modules, is_coboundary or equivalent_extensions on one
    # (B, J) reads the pair's kept complex, maps and cohomology
    from defalg import cotangent
    from defalg.deformation import ExtensionStack, equivalent_extensions, extension_from_cocycle

    B = fat_point(any_field)
    J = FiniteModule.regular(B)

    def reads():
        res = t_modules(B, J)
        cls = res[1].classes()[0]
        stack = ExtensionStack.of([extension_from_cocycle(B, J, cls.vector)])
        return res, is_coboundary(cls), equivalent_extensions(stack, stack).tolist()

    first = reads()

    def refused(*args, **kwargs):
        raise AssertionError("a repeated read built something")

    for name in ("block_matrix", "combinations_vanish", "kernel_basis"):
        monkeypatch.setattr(cotangent, name, refused)
    again = reads()
    assert again[0] is first[0] and again[1:] == first[1:] == ((False, None), [True])


@pytest.mark.parametrize("field", [GF(3), QQ], ids=lambda f: f.name)
def test_a_degree_zero_cocycle_is_killed_by_d0(field):
    # on F3[x]/(x^2) with J = B, D0 sends (1, 0) to (0, 2) and (0, 1) to 0
    B = make_algebra(field, ["x"], ["x^2"])
    J = FiniteModule.regular(B)
    r0, _, _ = t_modules(B, J)
    maps = r0.maps
    assert maps.d0.mul_vec([field.one(), field.zero()]) == [field.zero(), field.from_int(2)]
    assert not CohomologyClass(B, J, 0, (field.one(), field.zero())).is_cocycle_of(maps)
    assert CohomologyClass(B, J, 0, (field.zero(), field.one())).is_cocycle_of(maps)
    assert all(rep.is_cocycle_of(maps) for rep in r0.classes())
    for degree in (-1, 3, 5):
        with pytest.raises(ValueError, match="degree must be 0, 1 or 2"):
            CohomologyClass(B, J, degree, (field.one(), field.zero())).is_cocycle_of(maps)
