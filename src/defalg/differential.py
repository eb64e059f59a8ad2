"""Derivations and the classical differential modules of a presentation.

For B = A[x_1..x_n]/(f_1..f_m) and a finite B-module J, an A-linear
derivation D: B -> J is determined by the images D(x_i); the images must
kill every relation through the chain rule, which is one block-linear
condition per relation.  The same Jacobian data presents the module of
differentials, and the syzygies of the relations present the conormal
module of the ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .algebras import FiniteModule, PresentedAlgebra
from .groebner import basis_syzygy_rows, buchberger, normal_form
from .linalg import Matrix, kernel_basis, vec_add, vec_is_zero
from .poly import GREVLEX, Polynomial


def block_matrix(J: FiniteModule, entries: Sequence[Sequence[Polynomial]], nrows: int, ncols: int) -> Matrix:
    """Assemble the scalar matrix of a map J^ncols -> J^nrows whose
    (j, i) block acts by the polynomial entries[j][i]: every block from
    one ``action_ints``, integers over one denominator."""
    t = J.rank
    blocks, den = J.action_ints([entries[j][i] for j in range(nrows) for i in range(ncols)])
    a = blocks.reshape(nrows, ncols, t, t).transpose(0, 2, 1, 3).reshape(nrows * t, ncols * t)
    return Matrix(J.field, nrows * t, ncols * t, a, den)


def jacobian_entries(B: PresentedAlgebra) -> Tuple[Tuple[Polynomial, ...], ...]:
    """Partials of the relative relations by the relative generators,
    reduced to normal form; entry [j][i] is d f_j / d x_i mod the ideal.
    Built once per algebra and kept on B."""
    if B._jacobian is None:
        nb = B.n_base
        B._jacobian = tuple(
            tuple(B.normal_form(fj.derivative(nb + i)) for i in range(B.n_gens)) for fj in B.relations
        )
    return B._jacobian


@dataclass
class Derivation:
    """An A-linear derivation B -> J, stored by generator images."""

    B: PresentedAlgebra
    J: FiniteModule
    images: tuple  # one J-vector per relative generator

    def __post_init__(self):
        self.images = tuple(tuple(v) for v in self.images)
        if len(self.images) != self.B.n_gens:
            raise ValueError("need one image per relative generator")

    def apply(self, p: Polynomial) -> list:
        """D(p) for any representative p; independent of the choice."""
        B, J = self.B, self.J
        f = J.field
        nb = B.n_base
        out = [f.zero()] * J.rank
        for i in range(B.n_gens):
            part = p.derivative(nb + i)
            if part.is_zero():
                continue
            w = J.action_of_poly(part).mul_vec(list(self.images[i]))
            out = vec_add(f, out, w)
        return out

    def is_zero(self) -> bool:
        return all(vec_is_zero(self.J.field, v) for v in self.images)


@dataclass
class DerivationSpace:
    """Basis of the derivations of B over its base with values in J."""

    B: PresentedAlgebra
    J: FiniteModule
    matrix: Matrix
    basis: Tuple[Derivation, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def derivation_from_flat(B: PresentedAlgebra, J: FiniteModule, flat: Sequence) -> Derivation:
    t = J.rank
    imgs = [tuple(flat[i * t : (i + 1) * t]) for i in range(B.n_gens)]
    return Derivation(B, J, tuple(imgs))


def derivation_space(B: PresentedAlgebra, J: FiniteModule) -> DerivationSpace:
    """The kernel of D0, the map J^n -> J^m of the Hom complex of (B, J),
    each basis vector re-checked against every ideal generator."""
    from .cotangent import cochain_maps, cotangent_complex  # cotangent imports this module

    mat = cochain_maps(cotangent_complex(B), J).d0
    ker = kernel_basis(mat)
    basis = tuple(derivation_from_flat(B, J, ker.col(c)) for c in range(ker.ncols))
    for d in basis:
        for r in B.ideal_gens():
            if not vec_is_zero(J.field, d.apply(r)):
                raise AssertionError("kernel vector is not a derivation")
    return DerivationSpace(B, J, mat, basis)


@dataclass
class _ModulePresentation:
    """A B-module by generators and relation rows with polynomial entries."""

    B: PresentedAlgebra
    gen_labels: Tuple[str, ...]
    rows: Tuple[Tuple[Polynomial, ...], ...]

    def hom_dim(self, J: FiniteModule) -> int:
        """dim Hom_B(M, J): the solutions in J^gens of every relation row."""
        mat = block_matrix(J, [list(r) for r in self.rows], len(self.rows), len(self.gen_labels))
        return kernel_basis(mat).ncols


class KaehlerPresentation(_ModulePresentation):
    """The module of relative differentials, by generators and relations.

    One generator per relative variable; one relation row per relative
    relation, with Jacobian entries in normal form.  hom_dim(J) must
    match the derivation space of J.
    """


def kaehler(B: PresentedAlgebra) -> KaehlerPresentation:
    labels = tuple("d" + n for n in B.gen_names)
    return KaehlerPresentation(B, labels, jacobian_entries(B))


def relation_syzygies(B: PresentedAlgebra) -> List[List[Polynomial]]:
    """Generators of the syzygies of the relative relations over the base
    polynomial ring, as vectors with entries reduced modulo the base ideal.

    Each returned vector s satisfies: sum_j s_j f_j lies in the ideal of
    the base relations, exactly, in the flattened ring.  They are the
    relation components of the syzygies of B's ideal generators (base
    relations first), read off the Groebner basis that B already holds,
    with no second run.  Zero vectors and duplicates are dropped and the
    rest sorted by their terms; with no base relations nothing is
    reduced.
    """
    if not B.relations:
        return []
    base = B.base_groebner() if B.base_relations else None
    return [list(v) for v in basis_syzygy_rows(B.groebner(), len(B.base_relations), base)]


class ConormalPresentation(_ModulePresentation):
    """I/I^2 as a B-module: one generator per relation, one relation row
    per syzygy, entries in normal form modulo the full ideal."""


def conormal(B: PresentedAlgebra) -> ConormalPresentation:
    m = len(B.relations)
    labels = tuple(f"[{fj.to_string(B.names)}]" for fj in B.relations)
    syz = relation_syzygies(B)
    rows = tuple(tuple(B.normal_form(s) for s in vec) for vec in syz)
    # each reduced row must pair with the relations into the square of the ideal
    if m:
        sq_gens = [B.relations[i] * B.relations[j] for i in range(m) for j in range(i, m)]
        sq = buchberger(sq_gens + list(B.base_relations) or [B.zero_poly()], GREVLEX)
        for vec in rows:
            q = B.zero_poly()
            for j in range(m):
                q = q + vec[j] * B.relations[j]
            if not normal_form(q, sq).is_zero():
                raise AssertionError("conormal relation does not land in the ideal square")
    return ConormalPresentation(B, labels, rows)

