"""Low-degree cohomology of a presentation with module coefficients.

The three-term complex attached to B = A[x_1..x_n]/(f_1..f_m) runs

    (syzygies of f mod Koszul)  ->  free rank m  ->  free rank n

and applying Hom(-, J) gives a cochain complex of finite k-spaces

    J^n  --D0-->  J^m  --D1-->  {Psi in J^r : W Psi = 0}

whose cohomology spaces are computed here.  D0 acts by the Jacobian,
D1 by generators s^(1)..s^(r) of the syzygies modulo the Koszul
syzygies and the base relations times the free module: the syzygy
generators pruned by one incremental module Groebner basis, each one
dropped certified redundant by exact re-expansion.  The W rows record
every relation among the s's modulo the same submodule, so the last
term is the honest Hom out of the quotient.  They come from the prune's
own final basis, a Groebner basis of Kos + base + kept s's: its
Schreyer syzygies, restricted to the s's and reduced modulo the ideal
while still packed.  The identities D1 D0 = 0 and W D1 = 0 hold
exactly at the matrix level and are asserted.

Each object is built, and its identities asserted, once: the complex
per algebra, kept on B; the cochain maps and T^0, T^1, T^2 per
coefficient module, kept on the complex.  Every reader looks them up.

D1 reads the s's with every entry in normal form modulo the ideal
(``syz_nf``, built once per complex): J is a B-module, so its matrix is
the same, from smaller entries.  Two of the checks read those normal
forms too, the Jacobian one and the W one, which assert the same
identities since s = nf(s) modulo the ideal.  The pairing over the base
reads the honest s, whose pairing lands in the base ideal only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebras import FiniteModule, PresentedAlgebra
from .differential import block_matrix, jacobian_entries, relation_syzygies
from .groebner import combinations_vanish, prune_generators
from .linalg import Matrix, free_columns, kernel_basis, solve_affine_rows, vec_is_zero
from .poly import GREVLEX, Polynomial


@dataclass(frozen=True)
class CotangentComplex:
    """Presentation data of the three-term complex of B."""

    B: PresentedAlgebra
    jac: Tuple[Tuple[Polynomial, ...], ...]       # m rows, n cols
    syz: Tuple[Tuple[Polynomial, ...], ...]       # r vectors in the rank-m free module
    kos: Tuple[Tuple[Polynomial, ...], ...]       # Koszul vectors, for reference
    w_rows: Tuple[Tuple[Polynomial, ...], ...]    # relations among the syzygy classes

    @cached_property
    def syz_nf(self) -> Tuple[Tuple[Polynomial, ...], ...]:
        """syz with every entry in normal form modulo B's ideal: the same
        classes in B^m, built once per complex."""
        return tuple(tuple(self.B.normal_form(p) for p in v) for v in self.syz)

    @cached_property
    def _maps(self) -> Dict[FiniteModule, "CochainMaps"]:  # J -> its cochain maps, see cochain_maps
        return {}

    @property
    def n_gens(self) -> int:
        return self.B.n_gens

    @property
    def n_rels(self) -> int:
        return len(self.B.relations)

    @property
    def n_syz(self) -> int:
        return len(self.syz)


def koszul_vectors(B: PresentedAlgebra) -> List[List[Polynomial]]:
    m = len(B.relations)
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            vec = [B.zero_poly() for _ in range(m)]
            vec[i] = B.relations[j]
            vec[j] = -B.relations[i]
            out.append(vec)
    return out


def base_vectors(B: PresentedAlgebra) -> List[List[Polynomial]]:
    """g * e_b for every base relation g and every relation slot b."""
    m = len(B.relations)
    out = []
    for g in B.base_relations:
        for b in range(m):
            vec = [B.zero_poly() for _ in range(m)]
            vec[b] = g
            out.append(vec)
    return out


def cotangent_complex(B: PresentedAlgebra) -> CotangentComplex:
    """The complex of B, built and checked once per algebra and cached on
    B, the way its Groebner basis is: see _build_complex."""
    if B._cotangent is None:
        B._cotangent = _build_complex(B)
    return B._cotangent


def _build_complex(B: PresentedAlgebra) -> CotangentComplex:
    """The complex of B, its structural identities asserted before it is
    returned, the Jacobian one against the rows that D0 is built from."""
    m = len(B.relations)
    gb = B.groebner()
    jac = jacobian_entries(B)
    kos = koszul_vectors(B)
    base = base_vectors(B)
    # every phi in Hom(P^m, J) kills Kos and base.P^m: generators of Syz
    # modulo those suffice, and each one dropped is certified redundant;
    # the prune's final basis also gives the relations among the kept
    # syzygies modulo Kos + base, reduced modulo the ideal: the W rows
    syz = relation_syzygies(B)
    keep, w_rows = prune_generators(kos + base, syz, m, gb, GREVLEX)
    cx = CotangentComplex(
        B,
        jac,
        tuple(tuple(syz[k]) for k in keep),
        tuple(tuple(v) for v in kos),
        tuple(w_rows),
    )

    rels = [(r,) for r in B.relations]
    # each check: one packed combination per vector, then one division
    # per component by the cached basis
    if not combinations_vanish(cx.syz, rels, B.base_groebner()):
        raise AssertionError("syzygy does not pair to zero over the base")
    if not combinations_vanish(cx.syz_nf, cx.jac, gb):
        raise AssertionError("syzygy does not compose to zero with the Jacobian")
    if not combinations_vanish(cx.kos, rels, gb, reduce=False):
        raise AssertionError("Koszul vector is not a syzygy")
    # the c-part of each relation row must pair with the syzygy vectors into the ideal
    if not combinations_vanish(cx.w_rows, cx.syz_nf, gb):
        raise AssertionError("relation row does not kill the syzygy classes")
    return cx


@dataclass
class CochainMaps:
    """Scalar matrices of the Hom complex for one coefficient module."""

    complex: CotangentComplex
    J: FiniteModule
    d0: Matrix  # J^n -> J^m
    d1: Matrix  # J^m -> J^r
    w: Matrix   # J^r -> J^(#w_rows)

    @cached_property
    def cohomology(self) -> Tuple["TModuleResult", "TModuleResult", "TModuleResult"]:
        """T^0, T^1, T^2, computed on first read: one reduction per
        differential gives its rank and the kernel of the next, and one
        more per degree 1 and 2 picks the representatives."""
        k0 = kernel_basis(self.d0)
        if k0.select(rows=free_columns(self.d0)) != Matrix.identity(self.J.field, k0.ncols):
            raise AssertionError("kernel basis is not the identity on its free coordinates")
        out = [_quotient_result(self, 0, k0, range(k0.ncols), 0)]
        for degree, prev, nxt in ((1, self.d0, self.d1), (2, self.d1, self.w)):
            out.append(_quotient_result(self, degree, kernel_basis(nxt), _transversal(prev, nxt), prev.rank()))
        return tuple(out)


def cochain_maps(cx: CotangentComplex, J: FiniteModule) -> CochainMaps:
    """The cochain maps of cx with coefficients in J, built and checked
    once per (complex, J) and kept on the complex: see _build_maps."""
    got = cx._maps.get(J)
    if got is None:
        got = cx._maps[J] = _build_maps(cx, J)
    return got


def _build_maps(cx: CotangentComplex, J: FiniteModule) -> CochainMaps:
    """D0, D1 and W, with D1 D0 = 0 and W D1 = 0 asserted."""
    m, n, r = cx.n_rels, cx.n_gens, cx.n_syz
    d0 = block_matrix(J, cx.jac, m, n)
    d1 = block_matrix(J, cx.syz_nf, r, m)
    w = block_matrix(J, [[row[k] for k in range(r)] for row in cx.w_rows], len(cx.w_rows), r)
    if not d1.mul(d0).is_zero():
        raise AssertionError("cochain maps do not compose to zero in low degree")
    if not w.mul(d1).is_zero():
        raise AssertionError("cochain maps do not compose to zero in top degree")
    return CochainMaps(cx, J, d0, d1, w)


@dataclass
class CohomologyClass:
    """An element of T^degree, stored as a flat cocycle vector."""

    B: PresentedAlgebra
    J: FiniteModule
    degree: int
    vector: tuple

    def is_cocycle_of(self, maps: CochainMaps) -> bool:
        """Whether the differential out of this degree kills the vector."""
        if self.degree not in (0, 1, 2):
            raise ValueError("degree must be 0, 1 or 2")
        nxt = (maps.d0, maps.d1, maps.w)[self.degree]
        return vec_is_zero(self.J.field, nxt.mul_vec(list(self.vector)))


@dataclass
class TModuleResult:
    """One cohomology space: dimension plus representative cocycles."""

    B: PresentedAlgebra
    J: FiniteModule
    degree: int
    dim: int
    reps: Tuple[tuple, ...]
    cocycle_dim: int
    coboundary_dim: int
    maps: CochainMaps

    def classes(self) -> Tuple[CohomologyClass, ...]:
        return tuple(CohomologyClass(self.B, self.J, self.degree, v) for v in self.reps)


def _quotient_result(
    maps: CochainMaps, degree: int, cocycles: Matrix, picked: Sequence[int], cob_rank: int
) -> TModuleResult:
    """The quotient of the cocycles (the columns of a kernel basis) by
    coboundaries of rank cob_rank, with the picked columns as its
    representatives."""
    dim = cocycles.ncols - cob_rank
    if len(picked) != dim:
        raise AssertionError("transversal size disagrees with the rank count")
    reps = tuple(map(tuple, cocycles.select(cols=picked).transpose().to_rows()))
    return TModuleResult(maps.complex.B, maps.J, degree, dim, reps, cocycles.ncols, cob_rank, maps)


def _transversal(prev: Matrix, nxt: Matrix) -> List[int]:
    """The columns of kernel_basis(nxt) that extend the image of prev to
    the whole kernel, each kept when it is not in the span of the image
    and the columns before it.

    A kernel vector is its coordinates on the free columns of nxt, where
    the kernel basis is the identity; there the image of prev is spanned
    by the free rows of prev.  Column j is kept exactly when no image
    vector has its last nonzero coordinate at j, and those last
    coordinates are the pivots of one rref of the free rows, transposed
    with their order reversed."""
    free = free_columns(nxt)
    last = {len(free) - 1 - c for c in prev.select(rows=free[::-1]).transpose().rref()[1]}
    return [j for j in range(len(free)) if j not in last]


def t_modules(B: PresentedAlgebra, J: FiniteModule) -> Tuple[TModuleResult, TModuleResult, TModuleResult]:
    """T^0, T^1, T^2 of B over its base with coefficients in J, computed
    once per (B, J) and kept with its cochain maps."""
    return cochain_maps(cotangent_complex(B), J).cohomology


def t_module(B: PresentedAlgebra, J: FiniteModule, degree: int) -> TModuleResult:
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    return t_modules(B, J)[degree]


def is_coboundary(cls: CohomologyClass) -> Tuple[bool, Optional[list]]:
    """Decide whether a cocycle bounds; the witness is the preimage
    under the previous differential, re-verified before returning."""
    ok, witnesses = are_coboundaries(cls.B, cls.J, cls.degree, [cls.vector])
    return (bool(ok[0]), witnesses[0].tolist() if ok[0] else None)


def are_coboundaries(B: PresentedAlgebra, J: FiniteModule, degree: int, vectors) -> Tuple[np.ndarray, np.ndarray]:
    """Decide for each row of a (K, N) array of degree-one or degree-two
    cocycles whether it bounds: (ok, witnesses), witnesses[k] the preimage
    of row k under the previous differential (free coordinates zero, a
    zero row where it does not bound).  One reduction of [prev | rows^T]
    decides all K; the witnesses are re-verified by one product.  Raises
    ValueError when a row is not a cocycle.  In any other degree nothing
    bounds but zero, and the witnesses are empty."""
    f = J.field
    if degree not in (1, 2):
        ok = np.array([vec_is_zero(f, list(v)) for v in vectors], bool)
        return ok, np.zeros((len(ok), 0), f.dtype)
    maps = cochain_maps(cotangent_complex(B), J)
    prev, nxt = (maps.d0, maps.d1) if degree == 1 else (maps.d1, maps.w)
    vecs = f.array(vectors).reshape(len(vectors), prev.nrows)
    if nxt.mul_rows(vecs).any():
        raise ValueError("vector is not a cocycle")
    ok, witnesses = solve_affine_rows(prev, vecs)
    if not np.array_equal(prev.mul_rows(witnesses[ok]), vecs[ok]):
        raise AssertionError("solver returned a bad witness")
    return ok, witnesses
