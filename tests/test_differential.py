"""Derivation spaces, differentials, and syzygy-based presentations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defalg import GF, QQ
from defalg.algebras import FiniteModule
from defalg.differential import (
    Derivation,
    block_matrix,
    conormal,
    derivation_space,
    kaehler,
    relation_syzygies,
)
from defalg.linalg import Matrix, vec_add, vec_is_zero
from defalg.poly import Polynomial
from defalg.problems import parse_polynomial

from .conftest import dual_numbers, fat_point, is_canonical, make_algebra


KNOWN_DIMS = [
    # (gens, relations, expected dim of Der(B, k))
    (["x"], ["x^2"], 1),
    (["x"], ["x^3"], 1),
    (["x", "y"], ["x^2", "x*y", "y^2"], 2),
    (["x", "y"], ["x*y"], 2),
    (["x"], [], 1),
    (["x", "y"], [], 2),
]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("gens,rels,dim", KNOWN_DIMS)
def test_derivation_dimensions_into_k(field, gens, rels, dim):
    B = make_algebra(field, gens, rels)
    J = FiniteModule.trivial(B)
    assert derivation_space(B, J).dim == dim


def test_derivations_into_the_regular_module():
    # d/dx on k[x]/(x^3) over F2: images of x with 3c x^2 = 0 is all of B
    B = make_algebra(GF(3), ["x"], ["x^3"])
    J = FiniteModule.regular(B)
    ds = derivation_space(B, J)
    # D(x) = a + bx + cx^2 needs 3x^2 D(x) = 0: automatic in char 3
    assert ds.dim == 3
    B2 = make_algebra(QQ, ["x"], ["x^3"])
    ds2 = derivation_space(B2, FiniteModule.regular(B2))
    # over Q the same condition forces x^2 * D(x) = 0
    assert ds2.dim == 2


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0, 1]), st.data())
def test_leibniz_on_random_elements(which, data):
    f = GF(3)
    B = fat_point(f)
    J = FiniteModule.regular(B)
    ds = derivation_space(B, J)
    assert ds.dim > 0
    D = ds.basis[which % ds.dim]
    coeffs = data.draw(
        st.lists(st.integers(0, 2), min_size=3, max_size=3), label="coefficients"
    )
    names = B.names
    p = parse_polynomial(f"{coeffs[0]} + {coeffs[1]}*x + {coeffs[2]}*y", names, f)
    q = parse_polynomial("x + 2*y", names, f)
    lhs = D.apply(p * q)
    pq = J.action_of_poly(p).mul_vec(D.apply(q))
    qp = J.action_of_poly(q).mul_vec(D.apply(p))
    assert lhs == vec_add(f, pq, qp)


def test_derivation_kills_relations(any_field):
    B = make_algebra(any_field, ["x", "y"], ["x^2 - y^2", "x*y"])
    J = FiniteModule.trivial(B)
    for D in derivation_space(B, J).basis:
        for r in B.ideal_gens():
            assert vec_is_zero(any_field, D.apply(r))


def test_a_wrong_kept_d0_is_caught(any_field):
    # derivation_space reads D0 off the maps kept for (B, J); a zero D0
    # makes every vector a kernel vector, and x -> 1, y -> 0 is not a
    # derivation of k[x,y]/(x^2, xy, y^2) into B (it sends xy to y)
    import dataclasses

    from defalg.cotangent import cochain_maps, cotangent_complex

    B = fat_point(any_field)
    J = FiniteModule.regular(B)
    cx = cotangent_complex(B)
    maps = cochain_maps(cx, J)
    cx._maps[J] = dataclasses.replace(maps, d0=Matrix.zeros(any_field, maps.d0.nrows, maps.d0.ncols))
    with pytest.raises(AssertionError, match="kernel vector is not a derivation"):
        derivation_space(B, J)


def test_base_linearity():
    # derivations over the base kill the base generators by definition
    B = make_algebra(GF(2), ["x"], ["x^2 - s"], base_gens=["s"], base_relations=["s^2"])
    J = FiniteModule.trivial(B)
    ds = derivation_space(B, J)
    s_poly = parse_polynomial("s", B.names, GF(2))
    for D in ds.basis:
        assert vec_is_zero(GF(2), D.apply(s_poly))


def test_kaehler_hom_dim_matches_derivations(any_field):
    for gens, rels, _ in KNOWN_DIMS[:4]:
        B = make_algebra(any_field, gens, rels)
        J = FiniteModule.trivial(B)
        assert kaehler(B).hom_dim(J) == derivation_space(B, J).dim


def test_relation_syzygies_pair_into_base_ideal(any_field):
    B = fat_point(any_field)
    syz = relation_syzygies(B)
    assert syz, "the fat point has Koszul syzygies at least"
    for vec in syz:
        acc = B.zero_poly()
        for h, r in zip(vec, B.relations):
            acc = acc + h * r
        assert acc.is_zero()  # no base relations here, so exactly zero


def test_conormal_builds_and_checks(any_field):
    pres = conormal(fat_point(any_field))
    assert len(pres.gen_labels) == 3
    assert pres.rows, "syzygy rows present"
    J = FiniteModule.trivial(fat_point(any_field))
    # Hom(I/I^2, k) of the fat point is 3-dimensional (one per relation)
    assert pres.hom_dim(J) == 3


def test_derivation_requires_one_image_per_generator():
    B = dual_numbers(GF(2))
    J = FiniteModule.trivial(B)
    with pytest.raises(ValueError):
        Derivation(B, J, ((0,), (1,)))


@pytest.mark.parametrize("field", [GF(3), QQ], ids=lambda f: f.name)
def test_block_matrix_places_each_action_block(field):
    B = fat_point(field)
    J = FiniteModule.regular(B)
    t = J.rank
    entries = [
        [parse_polynomial(s, B.names, field) for s in row]
        for row in (["x + 2*y", "0", "y"], ["1", "x*y - x", "0"])
    ]
    got = block_matrix(J, entries, 2, 3)
    rows = []
    for row in entries:
        blocks = [J.action_of_poly(p) for p in row]
        for r in range(t):
            rows.append([b.entry(r, c) for b in blocks for c in range(t)])
    assert got == Matrix.from_rows(field, rows, ncols=3 * t)
    assert all(is_canonical(field, x) for row in got.to_rows() for x in row)
    assert block_matrix(J, [], 0, 3) == Matrix.zeros(field, 0, 3 * t)
