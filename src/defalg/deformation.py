"""Square-zero extensions, lifting of maps, and base-change obstructions.

Everything here works with one concrete picture.  A square-zero
extension of B by the module J is a structure table on (basis of B)
followed by (basis of J), in the coordinates of the monomial section.
It is the trivial extension (the product of B, B acting on the fiber
through J, a zero fiber square) plus a fiber correction on each product
of standard monomials, linear in the relation cocycle: the cocycle fed
through the division cofactors of that product.  Every such table is
built as one array from the algebra's one product table
(``PresentedAlgebra.to_structure``: each product divided once) and its
certified cofactors (``product_cofactors``); a deformation adds the
base relations' share, and a Baer sum adds the corrections of two
tables.  The class of an extension is read linearly off its fiber
block: the relation values are the fiber corrections pushed through
the algebra's one relation tensor (``relation_tensor``) and J's action,
plus the fiber parts of the generator images through the Jacobian;
the blocks that reading relies on are checked on every read.
Obstruction classes against a base extension
0 -> I -> A' -> A -> 0 are computed literally: pair each syzygy with
the relations, reduce the result in a presentation of A' where I is
spanned by explicit nilpotent variables, and push the coefficients
into J.  All identities that make these constructions well defined
are asserted at runtime rather than trusted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebras import (
    AlgebraHom,
    FiniteModule,
    PresentedAlgebra,
    StructureAlgebra,
    validate,
)
from .cotangent import (
    CochainMaps,
    CohomologyClass,
    CotangentComplex,
    cochain_maps,
    cotangent_complex,
    is_coboundary,
    t_modules,
)
from .differential import derivation_space
from .fields import PrimeField, Scalar
from .groebner import buchberger, normal_form
from .linalg import Matrix, in_span, solve_affine, vec_add, vec_is_zero, vec_scale, vec_sub
from .poly import GREVLEX, Polynomial


# ---------------------------------------------------------------------------
# square-zero extensions of B by J


@dataclass
class SquareZeroExtension:
    """0 -> J -> B' -> B -> 0 with J^2 = 0, in section coordinates."""

    B: PresentedAlgebra
    J: FiniteModule
    table: StructureAlgebra
    cocycle: Optional[tuple] = None  # flat vector in J^m, when known

    @property
    def s(self) -> int:
        return self.B.dim()

    @property
    def t(self) -> int:
        return self.J.rank

    def project(self, vec: Sequence[Scalar]) -> list:
        return list(vec[: self.s])

    def fiber_part(self, vec: Sequence[Scalar]) -> list:
        return list(vec[self.s :])

    def include_fiber(self, jvec: Sequence[Scalar]) -> list:
        return [self.J.field.zero()] * self.s + list(jvec)

    def section(self, bvec: Sequence[Scalar]) -> list:
        return list(bvec) + [self.J.field.zero()] * self.t

    def gen_image(self, v: int) -> list:
        return list(self.table.gen_images[v])

    def validate(self) -> List[str]:
        return validate(self.table) + self.section_findings()

    def section_findings(self) -> List[str]:
        """Block by block, how the table fails to be in section form
        over B by J: the product of B on the B block, a square-zero
        fiber that is an ideal on which B acts through J, and generator
        images whose B parts are those of B.  Array compares only."""
        B, f = self.B, self.B.field
        s, t = self.s, self.t
        S = B.to_structure()
        mul = self.table.mul
        if mul.shape != (s + t,) * 3:
            return ["table does not have the dimension of B plus J"]
        act = self.J.action_block()
        out = []
        if not (mul[:s, :s, :s] == S.mul).all():
            out.append("section does not project onto the product of B")
        if mul[s:, s:].any():
            out.append("fiber is not square-zero")
        if mul[:s, s:, :s].any() or mul[s:, :s, :s].any():
            out.append("fiber is not an ideal")
        if not (mul[:s, s:, s:] == act).all() or not (mul[s:, :s, s:] == act.transpose(1, 0, 2)).all():
            out.append("fiber action disagrees with the module structure")
        imgs = f.array(self.table.gen_images).reshape(-1, s + t)
        if imgs.shape[0] != B.nvars or not (imgs[:, :s] == f.array(S.gen_images).reshape(-1, s)).all():
            out.append("a generator image is off the section")
        return out


def extension_from_cocycle(B: PresentedAlgebra, J: FiniteModule, psi: Sequence[Scalar]) -> SquareZeroExtension:
    """Build the extension table whose relation values are psi.

    psi is a flat vector in J^m (one J-value per relative relation); it
    must be killed by the syzygies, which is re-checked through the
    associativity of the produced table.
    """
    if len(psi) != len(B.relations) * J.rank:
        raise ValueError("cocycle vector has the wrong length")
    gen_images = _gen_images(B, J, psi)
    tab = _extension_table(B, J, psi, gen_images, base_names=B.base_names, base_images=gen_images[: B.n_base])
    bad = validate(tab)
    if bad:
        raise ValueError(f"not a cocycle: the table fails validation: {bad}")
    return SquareZeroExtension(B, J, tab, cocycle=tuple(psi))


def _term_values(
    B: PresentedAlgebra, J: FiniteModule, values: Sequence[Scalar], terms, prob: Optional["BaseDeformationProblem"] = None
) -> np.ndarray:
    """(len(terms), t) array: the fiber value of each cofactor term
    (g, mo), mo times the g-th ideal generator, when relative relation r
    takes the value values[r*t:(r+1)*t] in J.  A relative relation's term
    is rho_J(mo) applied to its value; a base relation's term is zero in
    an extension, and in a deformation of prob its reduction in A'
    pushed into J."""
    f = B.field
    t = J.rank
    nb = len(B.base_relations)
    rows = []
    for g, mo in terms:
        if g >= nb:
            r = g - nb
            rows.append(J.monomial_action(mo).mul_vec(values[r * t : (r + 1) * t]))
        elif prob is None:
            rows.append([f.zero()] * t)
        else:
            p = Polynomial.monomial(f, B.nvars, mo) * B.base_relations[g]
            rows.append(_push_fiber(prob, prob.aprime_presentation().reduce_to_fiber(p)))
    return f.array(rows).reshape(len(rows), t)


def _gen_images(
    B: PresentedAlgebra, J: FiniteModule, values: Sequence[Scalar], prob: Optional["BaseDeformationProblem"] = None
) -> list:
    """The generator images in section coordinates: sigma(x_v), plus on
    each generator that is not a standard monomial the fiber value of
    its division cofactors (through _term_values), as any other
    reducible word gets in _extension_table."""
    f = B.field
    fiber = np.zeros((B.nvars, J.rank), f.dtype)
    gens, terms, coeffs = B.generator_cofactors()
    if gens:
        fiber[list(gens)] = f.matmul(coeffs, _term_values(B, J, values, terms, prob))
    return [list(v) + row for v, row in zip(B.to_structure().gen_images, fiber.tolist())]


def _extension_table(
    B: PresentedAlgebra,
    J: FiniteModule,
    values: Sequence[Scalar],
    gen_images,
    prob: Optional["BaseDeformationProblem"] = None,
    **kwargs,
) -> StructureAlgebra:
    """Table on (basis of B) + (basis of J) in section coordinates.

    The trivial extension (the product of B, B acting on the fiber
    through J, a zero fiber square) plus, on each product of standard
    monomials that is not standard, the fiber value of its division
    cofactors: coeffs @ _term_values over B.product_cofactors().
    """
    f = B.field
    S = B.to_structure()
    s, t = S.dim, J.rank
    mul = np.zeros((s + t,) * 3, f.dtype)
    mul[:s, :s, :s] = S.mul
    act = J.action_block()
    mul[:s, s:, s:] = act
    mul[s:, :s, s:] = act.transpose(1, 0, 2)
    pairs, terms, coeffs = B.product_cofactors()
    if pairs:
        i, j = np.array(pairs).T
        mul[i, j, s:] = mul[j, i, s:] = f.matmul(coeffs, _term_values(B, J, values, terms, prob))
    labels = S.labels + tuple("eps:" + l for l in J.labels)
    return StructureAlgebra(f, labels, mul, gen_names=B.names, gen_images=gen_images, **kwargs)


def cocycle_from_extension(ext: SquareZeroExtension, gen_offsets: Optional[Sequence[Sequence[Scalar]]] = None) -> tuple:
    """Relation values of the extension under the monomial section,
    optionally shifted by J-offsets on the relative generator images.

    Different offsets change the answer by a coboundary and nothing
    else; with zero offsets this inverts extension_from_cocycle exactly.

    Read linearly off the table through B.relation_tensor(): the fiber
    corrections C = mul[:s, :s, s:] through W, then J's action, plus
    the fiber parts of the generator images through the Jacobian.  The
    blocks that reading relies on are checked first, so a table off the
    section raises instead of giving a wrong class.
    """
    bad = ext.section_findings()
    if bad:
        raise ValueError(f"the table is not in section form: {bad}")
    B, J = ext.B, ext.J
    f = B.field
    s, t, n = ext.s, ext.t, B.nvars
    mul = ext.table.mul
    act = J.action_block()
    offsets = f.array(ext.table.gen_images).reshape(n, s + t)[:, s:]
    if gen_offsets is not None:
        if len(gen_offsets) != B.n_gens:
            raise ValueError("need one offset per relative generator")
        offsets[B.n_base :] = f.reduce(offsets[B.n_base :] + f.array(gen_offsets).reshape(B.n_gens, t))
    W, D = B.relation_tensor()
    m = len(B.relations)
    # rows (r, k): sum_ij W C[i, j], then rho_J(e_k) applied and summed
    corr = f.matmul(W, mul[:s, :s, s:].reshape(s * s, t))
    # rows (v, k): rho_J(e_k) o_v, paired with the Jacobian coordinates
    moved = f.matmul(offsets, act.transpose(1, 0, 2).reshape(t, s * t))
    vals = f.matmul(corr.reshape(m, s * t), act.reshape(s * t, t)) + f.matmul(D, moved.reshape(n * s, t))
    return tuple(f.reduce(vals).reshape(-1).tolist())


def trivial_extension(B: PresentedAlgebra, J: FiniteModule) -> SquareZeroExtension:
    t = J.rank
    return extension_from_cocycle(B, J, [B.field.zero()] * (len(B.relations) * t))


def extension_class(ext: SquareZeroExtension) -> CohomologyClass:
    return CohomologyClass(ext.B, ext.J, 1, cocycle_from_extension(ext))


def is_trivial_extension(ext: SquareZeroExtension, maps: Optional[CochainMaps] = None) -> bool:
    ok, _ = is_coboundary(extension_class(ext), maps)
    return ok


def _check_comparable(e1: SquareZeroExtension, e2: SquareZeroExtension) -> None:
    """Both extensions must be of the same algebra by the same module."""
    if e1.B is not e2.B and e1.B.std_monomials() != e2.B.std_monomials():
        raise ValueError("extensions are not over the same algebra")
    J1, J2 = e1.J, e2.J
    if J1 is not J2 and (J1.rank != J2.rank or J1.mats != J2.mats):
        raise ValueError("extensions are not by the same module")


def extensions_equivalent(e1: SquareZeroExtension, e2: SquareZeroExtension, maps: Optional[CochainMaps] = None) -> bool:
    _check_comparable(e1, e2)
    f = e1.B.field
    c1 = cocycle_from_extension(e1)
    c2 = cocycle_from_extension(e2)
    diff = vec_sub(f, list(c1), list(c2))
    ok, _ = is_coboundary(CohomologyClass(e1.B, e1.J, 1, tuple(diff)), maps)
    return ok


def baer_sum(e1: SquareZeroExtension, e2: SquareZeroExtension) -> SquareZeroExtension:
    """Geometric Baer sum: fibered product over B, then quotient by the
    antidiagonal copy of J, re-coordinatized to section form.

    On the basis (sigma(b), sigma(b)), (eps_b, 0) of the fibered product
    the class map (u + j1, u + j2) -> (u, j1 + j2) gives the table of e1
    with the fiber corrections of e2 added on the B block."""
    _check_comparable(e1, e2)
    B, J = e1.B, e1.J
    f = B.field
    s = e1.s
    m1, m2 = e1.table.mul, e2.table.mul
    if not np.array_equal(m1[:s, :s, :s], m2[:s, :s, :s]) or np.any(m1[:, s:, :s]):
        raise AssertionError("product left the fibered subalgebra")
    mul = m1.copy()
    mul[:s, :s, s:] = f.reduce(m1[:s, :s, s:] + m2[:s, :s, s:])
    T = e1.table
    tab = StructureAlgebra(
        f,
        T.labels,
        mul,
        gen_names=T.gen_names,
        gen_images=T.gen_images,
        base_names=T.base_names,
        base_images=T.base_images,
    )
    out = SquareZeroExtension(B, J, tab)
    bad = out.validate()
    if bad:
        raise AssertionError(f"Baer sum failed validation: {bad}")
    return out


def baer_difference(e1: SquareZeroExtension, e2: SquareZeroExtension) -> SquareZeroExtension:
    f = e1.B.field
    c2 = cocycle_from_extension(e2)
    neg = [f.neg(c) for c in c2]
    return baer_sum(e1, extension_from_cocycle(e1.B, e1.J, neg))


@dataclass
class ExtensionClassification:
    """The group of extension classes of B by J over the base."""

    B: PresentedAlgebra
    J: FiniteModule
    t1_dim: int
    representatives: Tuple[SquareZeroExtension, ...]
    count: Optional[int]  # number of classes when the field is finite
    complete: bool        # whether representatives covers every class
    maps: CochainMaps = dc_field(repr=False, compare=False)  # cochain maps of B with coefficients in J

    def class_of(self, ext: SquareZeroExtension) -> int:
        """Index of the representative equivalent to ext."""
        for i, rep in enumerate(self.representatives):
            if extensions_equivalent(ext, rep, self.maps):
                return i
        raise AssertionError("extension matches no representative")


def classify_extensions(B: PresentedAlgebra, J: FiniteModule, max_reps: int = 4096) -> ExtensionClassification:
    _, r1, _ = t_modules(B, J)
    f = B.field
    count = f.p**r1.dim if isinstance(f, PrimeField) else None
    if count is not None and count <= max_reps:
        # every class once: span the representative cocycles over the field
        p = f.p
        reps = []
        for n in range(count):
            vec = [f.zero()] * (len(B.relations) * J.rank)
            mcur = n
            for rep in r1.reps:
                dig = mcur % p
                mcur //= p
                if dig:
                    vec = vec_add(f, vec, vec_scale(f, dig, list(rep)))
            reps.append(extension_from_cocycle(B, J, vec))
        return ExtensionClassification(B, J, r1.dim, tuple(reps), count, True, r1.maps)
    reps = [trivial_extension(B, J)]
    for rep in r1.reps:
        reps.append(extension_from_cocycle(B, J, list(rep)))
    return ExtensionClassification(B, J, r1.dim, tuple(reps), count, r1.dim == 0, r1.maps)


def torsor_action(ext: SquareZeroExtension, cls: CohomologyClass) -> SquareZeroExtension:
    """Translate an extension by a degree-one class."""
    if cls.degree != 1:
        raise ValueError("extensions are translated by degree-one classes")
    f = ext.B.field
    psi = vec_add(f, list(cocycle_from_extension(ext)), list(cls.vector))
    return extension_from_cocycle(ext.B, ext.J, psi)


# ---------------------------------------------------------------------------
# lifting homomorphisms through a square-zero quotient


@dataclass
class LiftProblem:
    """Lift phi: B -> C through the square-zero quotient C' -> C.

    Concretely: C' is a structure table, the ideal N is the span of the
    last fiber_dim basis vectors... no assumption that strong: N is any
    list of coordinate vectors in C' closed under multiplication by C'
    with N*N = 0, and C-data is derived.  phi is recorded by preimage
    vectors in C' for every flattened generator of B.
    """

    B: PresentedAlgebra
    Cprime: StructureAlgebra
    n_basis: Tuple[tuple, ...]       # k-basis of the ideal, as C' vectors
    preimages: Tuple[tuple, ...]     # one C' vector per flattened generator of B
    J: FiniteModule = dc_field(init=False)

    def __post_init__(self):
        B, Cp = self.B, self.Cprime
        f = B.field
        if f != Cp.field:
            raise ValueError("field mismatch")
        nb = [list(v) for v in self.n_basis]
        t = len(nb)
        if t == 0:
            raise ValueError("the ideal must be nonzero to pose a lifting problem")
        nmat = Matrix.from_rows(f, nb, ncols=Cp.dim)
        if nmat.rank() != t:
            raise ValueError("ideal basis is linearly dependent")
        for u in nb:
            for v in nb:
                if any(not f.is_zero(c) for c in Cp.mul_vec(u, v)):
                    raise ValueError("ideal is not square-zero")
        # J: the ideal as a B-module through the preimages
        mats = []
        for v in range(B.nvars):
            cols = []
            for w in nb:
                prod = Cp.mul_vec(list(self.preimages[v]), w)
                coords = in_span(f, nb, prod)
                if coords is None:
                    raise ValueError("ideal is not stable under the generator images")
                cols.append(coords)
            mats.append(Matrix.from_cols(f, cols, nrows=t))
        labels = tuple(f"n{i}" for i in range(t))
        self.J = FiniteModule(B, labels, tuple(mats))
        bad = validate(self.J)
        if bad:
            raise ValueError(f"ideal does not carry a module structure over B: {bad}")

    @classmethod
    def from_presented(
        cls,
        B: PresentedAlgebra,
        Cprime_pres: PresentedAlgebra,
        ideal_gens: Sequence[Polynomial],
        phi_images: Sequence[Polynomial],
    ) -> "LiftProblem":
        """Build the problem from a presented C' with a designated ideal."""
        Cp = Cprime_pres.to_structure()
        nb = _ideal_span(Cprime_pres, ideal_gens)
        pre = [Cprime_pres.coordinates(img) for img in phi_images]
        return cls(B, Cp, tuple(tuple(v) for v in nb), tuple(tuple(v) for v in pre))

    def defect(self) -> list:
        """f_j at the preimages, written in ideal coordinates (flat J^m)."""
        B, Cp = self.B, self.Cprime
        f = B.field
        out = []
        imgs = [list(v) for v in self.preimages]
        for fj in B.relations:
            val = Cp.evaluate(fj, imgs)
            coords = in_span(f, self.n_basis, val)
            if coords is None:
                raise ValueError("a relation value is not in the ideal: the map does not land in C")
            out.extend(coords)
        # base relations must hold on the nose for the base structure to lift
        for g in B.base_relations:
            val = Cp.evaluate(g, imgs)
            if any(not f.is_zero(c) for c in val):
                raise ValueError("a base relation fails in the total ring")
        return out


def _ideal_span(A: PresentedAlgebra, ideal_gens: Sequence[Polynomial]) -> List[list]:
    """Row-reduced basis, as coordinate vectors, of the ideal of A that
    ideal_gens generate: the span of each generator times each standard
    monomial."""
    f = A.field
    std = A.std_monomials()
    vecs = [A.coordinates(g * Polynomial.monomial(f, A.nvars, mo)) for g in ideal_gens for mo in std]
    mat = Matrix.from_rows(f, vecs, ncols=len(std)) if vecs else Matrix.zeros(f, 0, len(std))
    red, _, rank = mat.rref()
    return [red.row(i) for i in range(rank)]


@dataclass
class LiftResult:
    problem: LiftProblem
    solvable: bool
    obstruction: CohomologyClass          # degree-one class of the defect
    correction: Optional[tuple]           # eta in J^n with D0 eta = -defect
    lifted_images: Optional[Tuple[tuple, ...]]
    freedom_dim: int                      # derivations = ambiguity of the lift
    count: Optional[int]                  # number of lifts over a finite field
    maps: CochainMaps = dc_field(repr=False, compare=False)  # cochain maps of B with coefficients in J


def lift_homomorphism(problem: LiftProblem) -> LiftResult:
    B, J = problem.B, problem.J
    f = B.field
    delta = problem.defect()
    maps = cochain_maps(cotangent_complex(B), J)
    cls = CohomologyClass(B, J, 1, tuple(delta))
    if not cls.is_cocycle_of(maps):
        raise AssertionError("defect is not a cocycle")
    neg = [f.neg(c) for c in delta]
    eta = solve_affine(maps.d0, neg)
    ds = derivation_space(B, J)
    t = J.rank
    if eta is None:
        return LiftResult(problem, False, cls, None, None, ds.dim, 0 if isinstance(f, PrimeField) else None, maps)
    # corrected preimages: v_i + eta_i, verified to kill every relation
    Cp = problem.Cprime
    nb = [list(v) for v in problem.n_basis]
    imgs = []
    for v in range(B.nvars):
        vec = list(problem.preimages[v])
        if v >= B.n_base:
            i = v - B.n_base
            off = eta[i * t : (i + 1) * t]
            lift_off = [f.zero()] * Cp.dim
            for b, c in enumerate(off):
                if not f.is_zero(c):
                    lift_off = vec_add(f, lift_off, vec_scale(f, c, nb[b]))
            vec = vec_add(f, vec, lift_off)
        imgs.append(vec)
    for fj in list(B.relations) + list(B.base_relations):
        val = Cp.evaluate(fj, imgs)
        if any(not f.is_zero(c) for c in val):
            raise AssertionError("corrected images do not satisfy the relations")
    count = f.p**ds.dim if isinstance(f, PrimeField) else None
    return LiftResult(problem, True, cls, tuple(eta), tuple(tuple(v) for v in imgs), ds.dim, count, maps)


# ---------------------------------------------------------------------------
# obstructions against a base extension


@dataclass
class BaseDeformationProblem:
    """Deform B = A[x]/(f) across 0 -> I -> A' -> A -> 0, coefficients in J.

    I is a finite A-module with one action matrix per base generator;
    alpha records the value of each base relation inside I (the cocycle
    of the base extension); phi: I -> J is an A-linear map into the
    coefficient module.
    """

    B: PresentedAlgebra
    J: FiniteModule
    i_labels: Tuple[str, ...]
    i_mats: Tuple[Matrix, ...]     # action of each base generator on I
    alpha: Tuple[tuple, ...]       # one I-vector per base relation
    phi: Matrix                    # J.rank x len(i_labels)

    def __post_init__(self):
        B = self.B
        f = B.field
        tI = len(self.i_labels)
        if len(self.i_mats) != B.n_base:
            raise ValueError("need one action matrix per base generator")
        if len(self.alpha) != len(B.base_relations):
            raise ValueError("need one cocycle value per base relation")
        if self.phi.nrows != self.J.rank or self.phi.ncols != tI:
            raise ValueError("phi has the wrong shape")
        # I as a module over the base, validated through the machinery
        # for the base presented as an algebra over the ground field
        A = B.base_algebra()
        self._A = A
        I = FiniteModule(A, self.i_labels, self.i_mats)
        bad = validate(I)
        if bad:
            raise ValueError(f"I is not a module over the base: {bad}")
        self._I = I
        # alpha must be a cocycle for the base over the ground field,
        # which is exactly the condition that the base extension exists
        flat = [c for vec in self.alpha for c in vec]
        a_maps = cochain_maps(cotangent_complex(A), I)
        if not CohomologyClass(A, I, 1, tuple(flat)).is_cocycle_of(a_maps):
            raise ValueError("alpha is not a cocycle: no base extension has these values")
        # phi must intertwine the base actions
        for v in range(B.n_base):
            left = self.phi.mul(self.i_mats[v])
            right = self.J.action_of_poly(B.var(v)).mul(self.phi)
            if left != right:
                raise ValueError("phi is not linear over the base")
        self._zring = _ZRing(self)

    @classmethod
    def from_presented_total(
        cls,
        B: PresentedAlgebra,
        J: FiniteModule,
        Aprime: PresentedAlgebra,
        ideal_gens: Sequence[Polynomial],
        phi: Optional[Matrix] = None,
    ) -> "BaseDeformationProblem":
        """Read off I, alpha and the actions from a presented total ring.

        Aprime must use the same base generator names; its quotient by
        the span of ideal_gens must present the base of B.
        """
        f = B.field
        if Aprime.names != B.base_names:
            raise ValueError("total ring must be presented on the base generators")
        nb = _ideal_span(Aprime, ideal_gens)
        rank = len(nb)
        for u in nb:
            for v in nb:
                if not vec_is_zero(f, Aprime.to_structure().mul_vec(u, v)):
                    raise ValueError("designated ideal of the total ring is not square-zero")
        labels = tuple(f"i{k}" for k in range(rank))
        mats = []
        for v in range(Aprime.nvars):
            cols = []
            for u in nb:
                w = Aprime.to_structure().mul_vec(Aprime.coordinates(Aprime.var(v)), u)
                coords = in_span(f, nb, w)
                if coords is None:
                    raise ValueError("ideal is not stable in the total ring")
                cols.append(coords)
            mats.append(Matrix.from_cols(f, cols, nrows=rank))
        alpha = []
        for g in B.base_algebra().relations:
            val = Aprime.coordinates(g)
            coords = in_span(f, nb, val)
            if coords is None:
                raise ValueError("a base relation does not land in the ideal of the total ring")
            alpha.append(tuple(coords))
        if phi is None:
            if J.rank != rank:
                raise ValueError("phi omitted but J does not have the rank of I")
            phi = Matrix.identity(f, rank)
        return cls(B, J, labels, tuple(mats), tuple(alpha), phi)

    def aprime_presentation(self) -> "_ZRing":
        return self._zring


class _ZRing:
    """Presentation of A' on (base gens, nilpotents, relative gens):
    base relations shifted by their cocycle values, products of
    nilpotents, and the action rows; reduction modulo it linearizes
    anything that lands in the ideal of the base relations."""

    def __init__(self, prob: BaseDeformationProblem):
        B = prob.B
        f = B.field
        nb = B.n_base
        tI = len(prob.i_labels)
        n = B.n_gens
        self.nvars = nb + tI + n
        self.nb, self.tI, self.n = nb, tI, n
        self.field = f
        # old flattened index -> new index (base first, x's after the z block)
        self.embed_map = list(range(nb)) + [nb + tI + i for i in range(n)]
        rels = _aprime_relations(prob, n)
        self.gb = buchberger(rels or [Polynomial.zero(f, self.nvars)], GREVLEX)

    def embed(self, p: Polynomial) -> Polynomial:
        return p.embed(self.nvars, self.embed_map)

    def reduce_to_fiber(self, p: Polynomial) -> List[Tuple[int, Polynomial]]:
        """Normal form of an element of the base-relation ideal, split as
        nilpotent-index, cofactor pairs; asserts the linear shape."""
        return _split_fiber(self, normal_form(self.embed(p), self.gb))


def _push_fiber(prob: BaseDeformationProblem, pairs: List[Tuple[int, Polynomial]]) -> list:
    """Send sum_b z_b * q_b(x) to sum_b rho_J(q_b) phi(iota_b) in J."""
    J = prob.J
    f = J.field
    out = [f.zero()] * J.rank
    for b, q in pairs:
        w = J.action_of_poly(q).mul_vec(prob.phi.col(b))
        out = vec_add(f, out, w)
    return out


@dataclass
class ObstructionResult:
    problem: BaseDeformationProblem
    complex: CotangentComplex
    maps: CochainMaps
    psi: tuple                       # cocycle in J^r
    obstructed: bool
    witness: Optional[tuple]         # xi in J^m with D1 xi = psi, when unobstructed

    def cohomology_class(self) -> CohomologyClass:
        return CohomologyClass(self.problem.B, self.problem.J, 2, self.psi)


def obstruction_class(prob: BaseDeformationProblem, second_lift_seed: Optional[int] = None) -> ObstructionResult:
    """The class in T^2 blocking a flat extension of B across the base
    extension, pushed into J; computed from the literal syzygy pairings.

    With a seed the class is computed a second time, with the relations
    lifted as f_j + (nilpotent noise); the two must differ by a
    coboundary only."""
    B, J = prob.B, prob.J
    f = B.field
    cx = cotangent_complex(B)
    maps = cochain_maps(cx, J)
    zr = prob.aprime_presentation()
    m = len(B.relations)
    psi_t = _obstruction_vector(prob, cx, [Polynomial.zero(f, zr.nvars)] * m)
    cls = CohomologyClass(B, J, 2, psi_t)
    if not cls.is_cocycle_of(maps):
        raise AssertionError("obstruction vector is not killed by the relation rows")
    if second_lift_seed is not None:
        # noise: for each relation a z-linear polynomial with small x-monomials
        rng = random.Random(second_lift_seed)
        if isinstance(f, PrimeField):
            pick = lambda: rng.randrange(f.p)
        else:
            pick = lambda: rng.randrange(-2, 3)
        nb, tI, n = zr.nb, zr.tI, zr.n
        xmonos = [(0,) * n] + [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        noise: List[Polynomial] = []
        for _ in range(m):
            terms = {}
            for b in range(tI):
                for xm in xmonos:
                    c = pick()
                    if c:
                        terms[(0,) * nb + tuple(1 if k == b else 0 for k in range(tI)) + xm] = f.from_int(c)
            noise.append(Polynomial(f, zr.nvars, terms))
        shifted = _obstruction_vector(prob, cx, noise)
        diff = vec_sub(f, list(shifted), list(psi_t))
        ok, _ = is_coboundary(CohomologyClass(B, J, 2, tuple(diff)), maps)
        if not ok:
            raise AssertionError("two lifts of the relations gave inequivalent classes")
    xi = solve_affine(maps.d1, list(psi_t))
    return ObstructionResult(prob, cx, maps, psi_t, xi is None, tuple(xi) if xi is not None else None)


def _obstruction_vector(prob: BaseDeformationProblem, cx: CotangentComplex, noise: Sequence[Polynomial]) -> tuple:
    """Pair each syzygy with the relations lifted to A' as f_j + noise_j,
    reduce in A' and push the result into J."""
    zr = prob.aprime_presentation()
    lifted = [zr.embed(fj) + nj for fj, nj in zip(prob.B.relations, noise)]
    psi: List[Scalar] = []
    for vec in cx.syz:
        sigma = Polynomial.zero(zr.field, zr.nvars)
        for c, lj in zip(vec, lifted):
            sigma = sigma + zr.embed(c) * lj
        psi.extend(_push_fiber(prob, _split_fiber(zr, normal_form(sigma, zr.gb))))
    return tuple(psi)


def _split_fiber(zr: _ZRing, nf: Polynomial) -> List[Tuple[int, Polynomial]]:
    f = zr.field
    grouped: dict = {}
    for mo, c in nf.terms.items():
        zdeg = sum(mo[zr.nb : zr.nb + zr.tI])
        ydeg = sum(mo[: zr.nb])
        if zdeg != 1 or ydeg != 0:
            raise AssertionError("reduction is not linear in the nilpotents")
        b = next(k for k in range(zr.tI) if mo[zr.nb + k] == 1)
        xmono = tuple(mo[zr.nb + zr.tI + i] for i in range(zr.n))
        grouped.setdefault(b, {})[xmono] = c
    res = []
    for b in sorted(grouped):
        terms = {}
        for xmono, c in grouped[b].items():
            full = tuple([0] * zr.nb) + tuple(xmono)
            terms[full] = c
        res.append((b, Polynomial(f, zr.nb + zr.n, terms)))
    return res


# ---------------------------------------------------------------------------
# realizing an unobstructed deformation


@dataclass
class RealizedDeformation:
    problem: BaseDeformationProblem
    xi: tuple                       # relation values in J^m
    table: StructureAlgebra         # the deformed algebra B'
    aprime_images: Tuple[tuple, ...]  # images of (base gens, nilpotents) in B'

    def section(self, bvec):
        s = self.problem.B.dim()
        return list(bvec) + [self.problem.B.field.zero()] * (self.table.dim - s)


def realize_deformation(prob: BaseDeformationProblem, result: Optional[ObstructionResult] = None, twist: Optional[Sequence[Scalar]] = None) -> RealizedDeformation:
    """Build the deformed algebra over the extended base when the
    obstruction vanishes, then validate the entire diagram."""
    B, J = prob.B, prob.J
    f = B.field
    if not B.is_finite_dimensional():
        raise ValueError(
            "the algebra is not finite-dimensional; realize a truncation instead"
        )
    if result is None:
        result = obstruction_class(prob)
    if result.obstructed:
        raise ValueError("the obstruction class does not vanish")
    xi = list(result.witness)
    if twist is not None:
        tw = list(twist)
        if not vec_is_zero(f, result.maps.d1.mul_vec(tw)):
            raise ValueError("twist is not a cocycle")
        xi = vec_add(f, xi, tw)

    s = B.dim()
    t = J.rank
    gen_images = _gen_images(B, J, xi, prob)
    tab = _extension_table(B, J, xi, gen_images, prob)
    bad = validate(tab)
    if bad:
        raise AssertionError(f"deformed table failed validation: {bad}")

    # the extended base must map in: base gens to their sections, the
    # nilpotents to phi of the corresponding fiber vectors
    tI = len(prob.i_labels)
    ap_names = tuple(B.base_names) + tuple("z:" + l for l in prob.i_labels)
    Aprime = PresentedAlgebra.over_ground(f, ap_names, _aprime_relations(prob, 0))
    imgs = []
    for v in range(B.n_base):
        imgs.append(tuple(gen_images[v]))
    for b in range(tI):
        vec = [f.zero()] * s + prob.phi.col(b)
        imgs.append(tuple(vec))
    hom = AlgebraHom(Aprime, tab, tuple(imgs))
    bad = hom.validate()
    if bad:
        raise AssertionError(f"extended base does not map to the deformation: {bad}")

    # the quotient by the fiber must return B with its base structure:
    # relation values of B' must land in the fiber and equal xi
    for j, fj in enumerate(B.relations):
        val = tab.evaluate(fj, [list(v) for v in gen_images])
        if any(not f.is_zero(c) for c in val[:s]):
            raise AssertionError("a relation value escaped the fiber")
        if val[s:] != xi[j * t : (j + 1) * t]:
            raise AssertionError("relation values disagree with the chosen witness")
    return RealizedDeformation(prob, tuple(xi), tab, tuple(imgs))


def _aprime_relations(prob: BaseDeformationProblem, n_trailing: int) -> List[Polynomial]:
    """The relations of A' on (base gens, nilpotents) followed by
    n_trailing variables they do not involve: base relations shifted by
    their cocycle values, products of nilpotents, and the action rows."""
    B = prob.B
    f = B.field
    nb, tI = B.n_base, len(prob.i_labels)
    nvars = nb + tI + n_trailing

    def mono(*ks) -> Polynomial:
        exps = [0] * nvars
        for k in ks:
            exps[k] += 1
        return Polynomial.monomial(f, nvars, tuple(exps))

    rels = []
    for a, g in enumerate(B.base_algebra().relations):
        p = g.embed(nvars, range(nb))
        for b, c in enumerate(prob.alpha[a]):
            if not f.is_zero(c):
                p = p - mono(nb + b) * c
        rels.append(p)
    for b in range(tI):
        for c in range(b, tI):
            rels.append(mono(nb + b, nb + c))
    for v in range(nb):
        for b in range(tI):
            p = mono(v, nb + b)
            for c, coeff in enumerate(prob.i_mats[v].col(b)):
                if not f.is_zero(coeff):
                    p = p - mono(nb + c) * coeff
            rels.append(p)
    return rels
