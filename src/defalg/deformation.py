"""Square-zero extensions, lifting of maps, and base-change obstructions.

Everything here works with one concrete picture.  A square-zero
extension of B by the module J is a structure table on (basis of B)
followed by (basis of J), in the coordinates of the monomial section.
It is the trivial extension (the product of B, B acting on the fiber
through J, a zero fiber square) plus a fiber correction on each product
of standard monomials, linear in the relation cocycle: the cocycle fed
through the division cofactors of that product.

The extension primitives work on stacks (``ExtensionStack``): K
extensions of one B by one J as one (K, n, n, n) table array and one
(K, nvars, n) array of generator images, and each scalar primitive is
the K = 1 call of its stacked one.  Tables are built from a (K, m*t)
cocycle array by two products through linear maps kept once per (B, J)
(from the algebra's one product table, ``PresentedAlgebra.to_structure``,
and its certified cofactors, ``product_cofactors``) and written over the
trivial extension by one writer (``_extension_tables``), which the
oracle scans share; a deformation adds the base relations' share, and a
Baer sum adds the corrections of two stacks.  Every table of every
stack is validated (``table_findings``: batched unit, commutativity and
associativity checks).  The class of an extension is read linearly off
its fiber block: the relation values are the fiber corrections pushed
through the algebra's one relation tensor (``relation_tensor``) and J's
action, plus the fiber parts of the generator images through the
Jacobian, batched over the stack; the blocks that reading relies on are
checked on every read.  Equivalence is decided for a whole stack by one
reduction (``are_coboundaries``).
Obstruction classes against a base extension
0 -> I -> A' -> A -> 0 are read off the base relations g_a: each
syzygy s pairs the relations into their ideal, sum_j s_j f_j =
sum_a h_a g_a with certified cofactors h_a (one division by the base
Groebner basis), and since g_a lifts to alpha_a in I, the pairing
lifts to sum_a h_a alpha_a, which phi sends to sum_a rho_J(h_a)
phi(alpha_a) in J (the transitivity picture of Lichtenbaum and
Schlessinger, "The cotangent complex of a morphism", 1967).  A
deformation's tables take the base relations' share the same way:
mo * g_a goes to rho_J(mo) phi(alpha_a).  All identities that make
these constructions well defined are asserted at runtime rather than
trusted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebras import (
    AlgebraHom,
    FiniteModule,
    PresentedAlgebra,
    StructureAlgebra,
    table_findings,
    validate,
)
from .cotangent import (
    CohomologyClass,
    CotangentComplex,
    are_coboundaries,
    cochain_maps,
    cotangent_complex,
    is_coboundary,
    t_modules,
)
from .differential import derivation_space
from .fields import PrimeField, Scalar
from .linalg import Matrix, solve_affine, solve_affine_rows, vec_add, vec_is_zero
from .poly import Polynomial


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
        """How the table fails to be in section form over B by J (see
        ExtensionStack.section_findings)."""
        if self.table.mul.shape != (self.s + self.t,) * 3:
            return [_WRONG_DIMENSION]
        return ExtensionStack.of([self]).section_findings()[0]


_WRONG_DIMENSION = "table does not have the dimension of B plus J"


def _labels(B: PresentedAlgebra, J: FiniteModule) -> tuple:
    return B.to_structure().labels + tuple("eps:" + l for l in J.labels)


def _nonzero(a: np.ndarray, axis) -> np.ndarray:
    return (a != 0).any(axis=axis)


@dataclass(eq=False)
class ExtensionStack:
    """K extensions of one B by one J, in section coordinates: mul is
    their (K, n, n, n) table array and images their (K, nvars, n)
    generator images, n = dim B + rank J, both read-only; cocycles is
    the (K, m*t) array of relation values they were built from, when
    known.  misfit marks the extensions whose generator images did not
    have the right number or length: their rows hold the images of the
    trivial extension, and their section findings say so."""

    B: PresentedAlgebra
    J: FiniteModule
    mul: np.ndarray
    images: np.ndarray
    cocycles: Optional[np.ndarray] = None
    misfit: Optional[np.ndarray] = None

    def __post_init__(self):
        self.mul.flags.writeable = self.images.flags.writeable = False

    def __len__(self) -> int:
        return len(self.mul)

    @classmethod
    def of(cls, exts: Sequence[SquareZeroExtension]) -> "ExtensionStack":
        """The stack of one or more extensions of one B by one J."""
        first = exts[0]
        B, J, n = first.B, first.J, first.s + first.t
        images, misfit = [], []
        for e in exts:
            _check_comparable(first, e)
            if e.table.mul.shape != (n,) * 3:
                raise ValueError(f"the table is not in section form: {[_WRONG_DIMENSION]}")
            imgs = e.table.gen_images
            misfit.append(len(imgs) != B.nvars or any(len(v) != n for v in imgs))
            images.append(_extension_maps(B, J).images.tolist() if misfit[-1] else imgs)
        images = B.field.array(images).reshape(len(exts), B.nvars, n)
        mul = np.stack([e.table.mul for e in exts])
        return cls(B, J, mul, images, misfit=np.array(misfit) if any(misfit) else None)

    def take(self, idx) -> "ExtensionStack":
        """The sub-stack at an index array."""
        pick = lambda a: None if a is None else a[idx]
        return ExtensionStack(self.B, self.J, self.mul[idx], self.images[idx], pick(self.cocycles), pick(self.misfit))

    def extension(self, k: int) -> SquareZeroExtension:
        B = self.B
        imgs = self.images[k].tolist()
        table = StructureAlgebra(
            B.field,
            _labels(B, self.J),
            self.mul[k],
            gen_names=B.names,
            gen_images=imgs,
            base_names=B.base_names,
            base_images=imgs[: B.n_base],
        )
        cocycle = None if self.cocycles is None else tuple(self.cocycles[k].tolist())
        return SquareZeroExtension(B, self.J, table, cocycle)

    def extensions(self) -> Tuple[SquareZeroExtension, ...]:
        return tuple(self.extension(k) for k in range(len(self)))

    def findings(self) -> List[List[str]]:
        """validate's findings for each extension: its table's, then
        its section's."""
        return [a + b for a, b in zip(table_findings(self.B.field, self.mul), self.section_findings())]

    def section_findings(self) -> List[List[str]]:
        """For each table, block by block, how it fails to be in section
        form over B by J: the product of B on the B block, a square-zero
        fiber that is an ideal on which B acts through J, and generator
        images whose B parts are those of B.  Array compares only."""
        B, f = self.B, self.B.field
        S = B.to_structure()
        s = S.dim
        mul = self.mul
        act = self.J.action_block()
        blocks = (1, 2, 3)
        checks = (
            ((mul[:, :s, :s, :s] == S.mul).all(axis=blocks), "section does not project onto the product of B"),
            (~_nonzero(mul[:, s:, s:], blocks), "fiber is not square-zero"),
            (
                ~(_nonzero(mul[:, :s, s:, :s], blocks) | _nonzero(mul[:, s:, :s, :s], blocks)),
                "fiber is not an ideal",
            ),
            (
                (mul[:, :s, s:, s:] == act).all(axis=blocks) & (mul[:, s:, :s, s:] == act.transpose(1, 0, 2)).all(axis=blocks),
                "fiber action disagrees with the module structure",
            ),
            (
                (self.images[:, :, :s] == f.array(S.gen_images).reshape(B.nvars, s)).all(axis=(1, 2))
                & (True if self.misfit is None else ~self.misfit),
                "a generator image is off the section",
            ),
        )
        return [[msg for ok, msg in checks if not ok[k]] for k in range(len(self))]


class _ExtensionMaps:
    """What every extension table of B by J starts from, the trivial
    extension in section coordinates (B's product, B acting on the fiber
    through J, a zero fiber square), and the linear maps from a cocycle
    (a flat row in J^m) to what the others add to it.  The trivial
    extension needs only B's product and J's action; the cocycle maps,
    which read B's division cofactors, are built when first read."""

    def __init__(self, B: PresentedAlgebra, J: FiniteModule):
        f = B.field
        S = B.to_structure()
        s, t = S.dim, J.rank
        self.B, self.J = B, J
        self.mul = np.zeros((s + t,) * 3, f.dtype)  # (n, n, n)
        self.mul[:s, :s, :s] = S.mul
        act = J.action_block()
        self.mul[:s, s:, s:] = act
        self.mul[s:, :s, s:] = act.transpose(1, 0, 2)
        self.images = np.zeros((B.nvars, s + t), f.dtype)  # (nvars, n): sigma(x_v) with a zero fiber part
        self.images[:, :s] = f.array(S.gen_images).reshape(B.nvars, s)
        self.mul.flags.writeable = self.images.flags.writeable = False

    @cached_property
    def cocycle_maps(self) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """(pairs, to_pairs, gens, to_gens): the (i, j) of the products
        of standard monomials that are not standard, the (m t, len(pairs)
        t) map from a cocycle to the fiber corrections on them, the
        generators that are not standard monomials, and the (m t,
        len(gens) t) map to the fiber parts of their images."""
        B, J = self.B, self.J
        pairs, pterms, pcoeffs = B.product_cofactors()
        gens, gterms, gcoeffs = B.generator_cofactors()
        to_pairs = _cocycle_map(B, J, pterms, pcoeffs)
        to_gens = _cocycle_map(B, J, gterms, gcoeffs)
        to_pairs.flags.writeable = to_gens.flags.writeable = False
        return tuple(np.array(pairs, np.intp).reshape(len(pairs), 2).T), to_pairs, np.array(gens, np.intp), to_gens


def _extension_maps(B: PresentedAlgebra, J: FiniteModule) -> _ExtensionMaps:
    """The maps of (B, J), built once and kept on B."""
    got = B._extension_maps.get(J)
    if got is None:
        got = B._extension_maps[J] = _ExtensionMaps(B, J)
    return got


def _extension_tables(
    B: PresentedAlgebra, J: FiniteModule, pairs, corr: np.ndarray, gens, fiber: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(mul, images), (K, n, n, n) and (K, nvars, n): K copies of the
    trivial extension of B by J in section coordinates, the k-th with
    corr[k], a row of len(pairs[0]) fiber corrections in J, written on
    the products (i, j) and (j, i) of pairs, and fiber[k], a row of
    len(gens) values in J, as the fiber parts of the images of gens."""
    maps = _extension_maps(B, J)
    k, s, t = len(corr), B.dim(), J.rank
    i, j = pairs
    mul = np.repeat(maps.mul[None], k, axis=0)
    mul[:, i, j, s:] = mul[:, j, i, s:] = corr.reshape(k, len(i), t)
    images = np.repeat(maps.images[None], k, axis=0)
    images[:, gens, s:] = fiber.reshape(k, len(gens), t)
    return mul, images


def _cocycle_map(B: PresentedAlgebra, J: FiniteModule, terms, coeffs: np.ndarray) -> np.ndarray:
    """(m t, len(coeffs) t): the cocycle psi -> coeffs @ (the fiber value
    of each cofactor term (g, mo), mo times the g-th ideal generator).
    A relative relation r's term is rho_J(mo) applied to its value
    psi[r*t:(r+1)*t]; a base relation's term is zero in an extension
    (see _base_share for a deformation)."""
    f = B.field
    t, m, nb = J.rank, len(B.relations), len(B.base_relations)
    per_term = np.zeros((len(terms), t, m, t), f.dtype)
    for k, (g, mo) in enumerate(terms):
        if g >= nb:
            per_term[k, :, g - nb] = J.monomial_action(mo).to_rows()
    rows = len(coeffs)
    out = f.matmul(coeffs, per_term.reshape(len(terms), t * m * t)).reshape(rows, t, m * t)
    return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(m * t, rows * t)


def _base_share(B: PresentedAlgebra, J: FiniteModule, terms, coeffs: np.ndarray, prob: "BaseDeformationProblem") -> np.ndarray:
    """(len(coeffs), t): coeffs @ (the fiber value, in a deformation of
    prob, of each base relation's cofactor term (a, mo): mo g_a lifts to
    mo alpha_a in I, which goes to rho_J(mo) phi(alpha_a); zero on a
    relative relation's term), from one action_stack."""
    f = B.field
    nb = len(B.base_relations)
    base = [k for k, (g, _) in enumerate(terms) if g < nb]
    acts = J.action_stack([Polynomial.monomial(f, B.nvars, terms[k][1]) for k in base])
    vals = np.zeros((len(terms), J.rank), f.dtype)
    vals[base] = f.matmul(acts, prob.phi_alpha[[terms[k][0] for k in base], :, None])[:, :, 0]
    return f.matmul(coeffs, vals)


def _extension_arrays(
    B: PresentedAlgebra, J: FiniteModule, cocycles: np.ndarray, prob: Optional["BaseDeformationProblem"] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """(mul, images), (K, n, n, n) and (K, nvars, n), of the extensions
    whose relation values are the rows of the (K, m t) array cocycles.

    The trivial extension plus, on each product of standard monomials
    that is not standard and on the image of each generator that is not
    a standard monomial, the fiber value of its division cofactors: two
    products through the maps of (B, J); in a deformation of prob, plus
    the base relations' share of those values."""
    f = B.field
    pairs, to_pairs, gens, to_gens = _extension_maps(B, J).cocycle_maps
    corr = f.matmul(cocycles, to_pairs)
    fiber = f.matmul(cocycles, to_gens)
    if prob is not None:
        corr = f.reduce(corr + _base_share(B, J, *B.product_cofactors()[1:], prob).reshape(-1))
        fiber = f.reduce(fiber + _base_share(B, J, *B.generator_cofactors()[1:], prob).reshape(-1))
    return _extension_tables(B, J, pairs, corr, gens, fiber)


def extensions_from_cocycles(B: PresentedAlgebra, J: FiniteModule, cocycles) -> ExtensionStack:
    """The stack of extensions whose relation values are the rows of
    cocycles, a (K, m t) array of flat vectors in J^m (one J-value per
    relative relation).  Each row must be killed by the syzygies, which
    is re-checked through the associativity of every table."""
    f = B.field
    width = len(B.relations) * J.rank
    psi = f.array(cocycles)
    if psi.shape == (0,):
        psi = psi.reshape(0, width)
    if psi.ndim != 2 or psi.shape[1] != width:
        raise ValueError("cocycle vector has the wrong length")
    mul, images = _extension_arrays(B, J, psi)
    for bad in table_findings(f, mul):
        if bad:
            raise ValueError(f"not a cocycle: the table fails validation: {bad}")
    return ExtensionStack(B, J, mul, images, psi)


def extension_from_cocycle(B: PresentedAlgebra, J: FiniteModule, psi: Sequence[Scalar]) -> SquareZeroExtension:
    """Build the extension table whose relation values are psi, a flat
    vector in J^m: the K = 1 call of extensions_from_cocycles."""
    if len(psi) != len(B.relations) * J.rank:
        raise ValueError("cocycle vector has the wrong length")
    return extensions_from_cocycles(B, J, [list(psi)]).extension(0)


def cocycles_from_extensions(stack: ExtensionStack, gen_offsets=None) -> np.ndarray:
    """Relation values, as a (K, m t) array, of each extension of the
    stack under the monomial section, optionally shifted by J-offsets on
    the relative generator images, a (K, n_gens, t) array.

    Different offsets change the answer by a coboundary and nothing
    else; with zero offsets this inverts extensions_from_cocycles exactly.

    Read linearly off the tables through B.relation_tensor(): the fiber
    corrections C = mul[:, :s, :s, s:] through W, then J's action, plus
    the fiber parts of the generator images through the Jacobian, each
    one batched product over the stack.  The blocks that reading relies
    on are checked first, so a table off the section raises instead of
    giving a wrong class.
    """
    bad = next((b for b in stack.section_findings() if b), None)
    if bad:
        raise ValueError(f"the table is not in section form: {bad}")
    B, J = stack.B, stack.J
    f = B.field
    k, s, t, n, m = len(stack), B.dim(), J.rank, B.nvars, len(B.relations)
    act = J.action_block()
    offsets = stack.images[:, :, s:].copy()
    if gen_offsets is not None:
        off = f.array(gen_offsets)
        if off.shape != (k, B.n_gens, t) and off.size + k * B.n_gens * t:
            raise ValueError("need one offset per relative generator")
        offsets[:, B.n_base :] = f.reduce(offsets[:, B.n_base :] + off.reshape(k, B.n_gens, t))
    W, D = B.relation_tensor()
    # rows (r, b): sum_ij W C[i, j], then rho_J(e_b) applied and summed
    corr = f.matmul(W, stack.mul[:, :s, :s, s:].reshape(k, s * s, t))
    # rows (v, b): rho_J(e_b) o_v, paired with the Jacobian coordinates
    moved = f.matmul(offsets, act.transpose(1, 0, 2).reshape(t, s * t))
    vals = f.matmul(corr.reshape(k, m, s * t), act.reshape(s * t, t)) + f.matmul(D, moved.reshape(k, n * s, t))
    return f.reduce(vals).reshape(k, m * t)


def cocycle_from_extension(ext: SquareZeroExtension, gen_offsets: Optional[Sequence[Sequence[Scalar]]] = None) -> tuple:
    """Relation values of one extension: the K = 1 call of
    cocycles_from_extensions, with one offset per relative generator."""
    offsets = None if gen_offsets is None else [gen_offsets]
    return tuple(cocycles_from_extensions(ExtensionStack.of([ext]), offsets)[0].tolist())


def trivial_extension(B: PresentedAlgebra, J: FiniteModule) -> SquareZeroExtension:
    t = J.rank
    return extension_from_cocycle(B, J, [B.field.zero()] * (len(B.relations) * t))


def extension_class(ext: SquareZeroExtension) -> CohomologyClass:
    return CohomologyClass(ext.B, ext.J, 1, cocycle_from_extension(ext))


def is_trivial_extension(ext: SquareZeroExtension) -> bool:
    ok, _ = is_coboundary(extension_class(ext))
    return ok


def _same_presentation(B1: PresentedAlgebra, B2: PresentedAlgebra) -> bool:
    return B1 is B2 or (
        B1.field == B2.field
        and (B1.base_names, B1.gen_names) == (B2.base_names, B2.gen_names)
        and (B1.base_relations, B1.relations) == (B2.base_relations, B2.relations)
    )


def _check_comparable(e1, e2) -> None:
    """Both extensions (or stacks) must be of one presented algebra by
    one module: the field, the generator names, the relations and the
    base relations must agree, and so must the module's action."""
    if not _same_presentation(e1.B, e2.B):
        raise ValueError("extensions are not over the same algebra")
    J1, J2 = e1.J, e2.J
    if J1 is not J2 and (J1.rank != J2.rank or J1.mats != J2.mats):
        raise ValueError("extensions are not by the same module")


def _check_pairable(s1: ExtensionStack, s2: ExtensionStack) -> None:
    _check_comparable(s1, s2)
    if len(s1) != len(s2):
        raise ValueError("stacks of different lengths")


def equivalent_extensions(s1: ExtensionStack, s2: ExtensionStack) -> np.ndarray:
    """Whether the k-th extensions of two stacks are equivalent, for
    every k: their class reads differ by a coboundary, decided for all
    K by one reduction."""
    _check_pairable(s1, s2)
    f = s1.B.field
    diff = f.reduce(cocycles_from_extensions(s1) - cocycles_from_extensions(s2))
    ok, _ = are_coboundaries(s1.B, s1.J, 1, diff)
    return ok


def extensions_equivalent(e1: SquareZeroExtension, e2: SquareZeroExtension) -> bool:
    return bool(equivalent_extensions(ExtensionStack.of([e1]), ExtensionStack.of([e2]))[0])


def baer_sums(s1: ExtensionStack, s2: ExtensionStack) -> ExtensionStack:
    """Geometric Baer sums of two stacks, table by table: fibered
    product over B, then quotient by the antidiagonal copy of J,
    re-coordinatized to section form.

    On the basis (sigma(b), sigma(b)), (eps_b, 0) of the fibered product
    the class map (u + j1, u + j2) -> (u, j1 + j2) gives the table of the
    first with the fiber corrections of the second added on the B block."""
    _check_pairable(s1, s2)
    f = s1.B.field
    s = s1.B.dim()
    m1, m2 = s1.mul, s2.mul
    if not np.array_equal(m1[:, :s, :s, :s], m2[:, :s, :s, :s]) or _nonzero(m1[:, :, s:, :s], None):
        raise AssertionError("product left the fibered subalgebra")
    mul = m1.copy()
    mul[:, :s, :s, s:] = f.reduce(m1[:, :s, :s, s:] + m2[:, :s, :s, s:])
    out = ExtensionStack(s1.B, s1.J, mul, s1.images, misfit=s1.misfit)
    bad = next((b for b in out.findings() if b), None)
    if bad:
        raise AssertionError(f"Baer sum failed validation: {bad}")
    return out


def baer_sum(e1: SquareZeroExtension, e2: SquareZeroExtension) -> SquareZeroExtension:
    """The Baer sum of two extensions: the K = 1 call of baer_sums."""
    return baer_sums(ExtensionStack.of([e1]), ExtensionStack.of([e2])).extension(0)


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
    stack: ExtensionStack = dc_field(repr=False, compare=False)  # the representatives as one stack

    def class_of(self, ext: SquareZeroExtension) -> int:
        """Index of the representative equivalent to ext: one read of
        ext, one stacked read of the representatives, one stacked solve."""
        one = ExtensionStack.of([ext])
        _check_comparable(one, self.stack)
        diff = self.B.field.reduce(cocycles_from_extensions(one) - cocycles_from_extensions(self.stack))
        ok, _ = are_coboundaries(self.B, self.J, 1, diff)
        hits = np.flatnonzero(ok)
        if not len(hits):
            raise AssertionError("extension matches no representative")
        return int(hits[0])


def classify_extensions(B: PresentedAlgebra, J: FiniteModule, max_reps: int = 4096) -> ExtensionClassification:
    _, r1, _ = t_modules(B, J)
    f = B.field
    count = f.p**r1.dim if isinstance(f, PrimeField) else None
    reps = f.array(list(r1.reps)).reshape(r1.dim, len(B.relations) * J.rank)
    complete = count is not None and count <= max_reps
    if complete:
        # every class once: the n-th cocycle has the base-p digits of n
        # as its coordinates on the representatives
        digits = (np.arange(count)[:, None] // f.p ** np.arange(r1.dim)) % f.p
        cocycles = f.matmul(digits, reps)
    else:
        cocycles = np.concatenate([np.zeros((1, reps.shape[1]), f.dtype), reps])
    stack = extensions_from_cocycles(B, J, cocycles)
    return ExtensionClassification(
        B, J, r1.dim, stack.extensions(), count, complete or r1.dim == 0, stack
    )


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

    C' is a structure table and the ideal N is the span of n_basis, any
    linearly independent coordinate vectors of C' with N*N = 0 and N
    stable under multiplication by every preimage; C = C'/N is not
    built, its data is read through N.  phi is recorded by one preimage vector in C' per
    flattened generator of B, and J is N as a B-module through them.
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
        # J: the ideal as a B-module through the preimages
        square_zero, mats = _ideal_module(Cp, nb, self.preimages)
        if not square_zero:
            raise ValueError("ideal is not square-zero")
        if mats is None:
            raise ValueError("ideal is not stable under the generator images")
        labels = tuple(f"n{i}" for i in range(t))
        self.J = FiniteModule(B, labels, mats)
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
        m = len(B.relations)
        vals = Cp.evaluate_many([*B.relations, *B.base_relations], self.preimages)
        ok, coords = solve_affine_rows(Matrix.from_cols(f, self.n_basis, nrows=Cp.dim), vals[:m])
        if not ok.all():
            raise ValueError("a relation value is not in the ideal: the map does not land in C")
        # base relations must hold on the nose for the base structure to lift
        if vals[m:].any():
            raise ValueError("a base relation fails in the total ring")
        return coords.ravel().tolist()


def _ideal_module(C: StructureAlgebra, basis, elements) -> Tuple[bool, Optional[Tuple[Matrix, ...]]]:
    """The ideal of C spanned by basis, a list of independent vectors,
    as a module: whether it squares to zero, and the matrix, on basis,
    of multiplication by each vector of elements (None when a product
    leaves the span), from one solve over every product."""
    f, d, t = C.field, C.dim, len(basis)
    N = f.array([list(v) for v in basis]).reshape(t, d)

    def products(vecs: np.ndarray) -> np.ndarray:
        """(len(vecs), t, d): each of vecs times each basis vector."""
        left = f.matmul(vecs, C.mul.reshape(d, d * d)).reshape(len(vecs), d, d)
        return f.matmul(N, left)

    square_zero = not products(N).astype(bool).any()
    prods = products(f.array([list(v) for v in elements]).reshape(len(elements), d))
    ok, x = solve_affine_rows(Matrix.from_array(f, N.T), prods.reshape(len(elements) * t, d))
    if not ok.all():
        return square_zero, None
    return square_zero, tuple(Matrix.from_array(f, m.T) for m in x.reshape(len(elements), t, t))


def _ideal_span(A: PresentedAlgebra, ideal_gens: Sequence[Polynomial]) -> List[list]:
    """Row-reduced basis, as coordinate vectors, of the ideal of A that
    ideal_gens generate: the span of each generator times each standard
    monomial, read from the structure table (row m of the product of g's
    coordinates with the table is g * std_m), in one rref."""
    f, S = A.field, A.to_structure()
    n = S.dim
    table = S.mul.reshape(n, n * n)
    rows = [f.matmul(f.array(A.coordinates(g)), table).reshape(n, n) for g in ideal_gens]
    vecs = np.concatenate(rows) if rows else np.zeros((0, n), f.dtype)
    red, _, rank = Matrix.from_array(f, vecs).rref()
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
        return LiftResult(problem, False, cls, None, None, ds.dim, 0 if isinstance(f, PrimeField) else None)
    # corrected preimages: v_i + eta_i, the ideal coordinates eta_i of
    # each relative generator read through n_basis, verified to kill
    # every relation
    imgs = f.array(problem.preimages)
    offsets = f.matmul(f.array(eta).reshape(B.n_gens, t), f.array(problem.n_basis))
    imgs[B.n_base :] = f.reduce(imgs[B.n_base :] + offsets)
    if problem.Cprime.evaluate_many([*B.relations, *B.base_relations], imgs).any():
        raise AssertionError("corrected images do not satisfy the relations")
    count = f.p**ds.dim if isinstance(f, PrimeField) else None
    return LiftResult(problem, True, cls, tuple(eta), tuple(map(tuple, imgs.tolist())), ds.dim, count)


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
        I = FiniteModule(A, self.i_labels, self.i_mats)
        bad = validate(I)
        if bad:
            raise ValueError(f"I is not a module over the base: {bad}")
        # alpha must be a cocycle for the base over the ground field,
        # which is exactly the condition that the base extension exists
        flat = [c for vec in self.alpha for c in vec]
        if not CohomologyClass(A, I, 1, tuple(flat)).is_cocycle_of(cochain_maps(cotangent_complex(A), I)):
            raise ValueError("alpha is not a cocycle: no base extension has these values")
        # phi must intertwine the base actions
        for v in range(B.n_base):
            left = self.phi.mul(self.i_mats[v])
            right = self.J.action_of_poly(B.var(v)).mul(self.phi)
            if left != right:
                raise ValueError("phi is not linear over the base")

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
        S = Aprime.to_structure()
        square_zero, mats = _ideal_module(S, nb, S.gen_images)
        if not square_zero:
            raise ValueError("designated ideal of the total ring is not square-zero")
        if mats is None:
            raise ValueError("ideal is not stable in the total ring")
        labels = tuple(f"i{k}" for k in range(rank))
        rels = B.base_algebra().relations
        vals = f.array([Aprime.coordinates(g) for g in rels]).reshape(len(rels), S.dim)
        ok, alpha = solve_affine_rows(Matrix.from_cols(f, nb, nrows=S.dim), vals)
        if not ok.all():
            raise ValueError("a base relation does not land in the ideal of the total ring")
        if phi is None:
            if J.rank != rank:
                raise ValueError("phi omitted but J does not have the rank of I")
            phi = Matrix.identity(f, rank)
        return cls(B, J, labels, mats, tuple(map(tuple, alpha.tolist())), phi)

    @cached_property
    def phi_alpha(self) -> np.ndarray:
        """(base relations, t), read-only: phi(alpha_a), where each base
        relation g_a lands in J once lifted to A'."""
        alpha = self.B.field.array([list(a) for a in self.alpha]).reshape(len(self.alpha), len(self.i_labels))
        out = self.phi.mul_rows(alpha)
        out.flags.writeable = False
        return out


@dataclass
class ObstructionResult:
    problem: BaseDeformationProblem
    complex: CotangentComplex
    psi: tuple                       # cocycle in J^r
    obstructed: bool
    witness: Optional[tuple]         # xi in J^m with D1 xi = psi, when unobstructed

    def cohomology_class(self) -> CohomologyClass:
        return CohomologyClass(self.problem.B, self.problem.J, 2, self.psi)


def obstruction_class(prob: BaseDeformationProblem, second_lift_seed: Optional[int] = None) -> ObstructionResult:
    """The class in T^2 blocking a flat extension of B across the base
    extension, pushed into J; computed from the syzygy pairings.

    With a seed the class is computed a second time, with the relations
    lifted as f_j + (nilpotent noise); the two must differ by a
    coboundary only."""
    B, J = prob.B, prob.J
    f = B.field
    cx = cotangent_complex(B)
    maps = cochain_maps(cx, J)
    psi = _obstruction_vector(prob, cx)
    psi_t = tuple(psi.tolist())
    cls = CohomologyClass(B, J, 2, psi_t)
    if not cls.is_cocycle_of(maps):
        raise AssertionError("obstruction vector is not killed by the relation rows")
    if second_lift_seed is not None:
        shifted = _obstruction_vector(prob, cx, _lift_noise(prob, second_lift_seed))
        ok, _ = is_coboundary(CohomologyClass(B, J, 2, tuple(f.reduce(shifted - psi).tolist())))
        if not ok:
            raise AssertionError("two lifts of the relations gave inequivalent classes")
    xi = solve_affine(maps.d1, list(psi_t))
    return ObstructionResult(prob, cx, psi_t, xi is None, tuple(xi) if xi is not None else None)


def _lift_noise(prob: BaseDeformationProblem, seed: int) -> List[List[Polynomial]]:
    """noise[j][b]: a second lift of the relations to A'[x] is
    f_j + sum_b z_b noise[j][b], z_b the b-th basis vector of I, with
    noise[j][b] drawn from seed: small coefficients on 1 and on each
    relative generator."""
    B = prob.B
    f = B.field
    rng = random.Random(seed)
    lo, hi = (0, f.p) if isinstance(f, PrimeField) else (-2, 3)
    xmonos = [(0,) * B.nvars] + [tuple(int(k == v) for k in range(B.nvars)) for v in range(B.n_base, B.nvars)]
    return [
        [Polynomial(f, B.nvars, {xm: f.from_int(rng.randrange(lo, hi)) for xm in xmonos}) for _ in prob.i_labels]
        for _ in B.relations
    ]


def _obstruction_vector(
    prob: BaseDeformationProblem, cx: CotangentComplex, noise: Optional[Sequence[Sequence[Polynomial]]] = None
) -> np.ndarray:
    """psi, flat in J^r: each syzygy s pairs the relations into the base
    ideal, sum_j s_j f_j = sum_a h_a g_a (one division by the base
    Groebner basis, its cofactors certified), and psi_s = sum_a
    rho_J(h_a) phi(alpha_a).  With noise (see _lift_noise), the
    relations lifted as f_j + sum_b z_b noise[j][b] add sum_j sum_b
    rho_J(s_j noise[j][b]) phi(e_b)."""
    B, J = prob.B, prob.J
    f, gb = B.field, B.base_groebner()
    nb = len(B.base_relations)
    cofactors = []
    for vec in cx.syz:
        paired = sum((c * fj for c, fj in zip(vec, B.relations)), B.zero_poly())
        nf, division = gb.divide(paired.terms)
        if nf:
            raise AssertionError("syzygy does not pair to zero over the base")
        cofactors.append([Polynomial(f, B.nvars, h) for h in gb.certify(division)[:nb]])
    psi = _pushed(J, cofactors, prob.phi_alpha)
    if noise is not None:
        moved = [
            [sum((c * nj[b] for c, nj in zip(vec, noise)), B.zero_poly()) for b in range(len(prob.i_labels))]
            for vec in cx.syz
        ]
        psi = f.reduce(psi + _pushed(J, moved, prob.phi.to_array().T))
    return psi.reshape(-1)


def _pushed(J: FiniteModule, polys: Sequence[Sequence[Polynomial]], values: np.ndarray) -> np.ndarray:
    """(len(polys), t): row k is sum_a rho_J(polys[k][a]) values[a], for
    values an (A, t) array: one action_stack, one product."""
    f, t = J.field, J.rank
    k, a = len(polys), len(values)
    acts = J.action_stack([p for row in polys for p in row]).reshape(k, a, t, t)
    return f.matmul(acts.transpose(0, 2, 1, 3).reshape(k * t, a * t), values.reshape(a * t, 1)).reshape(k, t)


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
        if not vec_is_zero(f, cochain_maps(result.complex, J).d1.mul_vec(tw)):
            raise ValueError("twist is not a cocycle")
        xi = vec_add(f, xi, tw)

    s = B.dim()
    t = J.rank
    mul, images = _extension_arrays(B, J, f.array([xi]).reshape(1, len(xi)), prob)
    gen_images = images[0].tolist()
    tab = StructureAlgebra(f, _labels(B, J), mul[0], gen_names=B.names, gen_images=gen_images)
    bad = validate(tab)
    if bad:
        raise AssertionError(f"deformed table failed validation: {bad}")

    # the extended base must map in: base gens to their sections, the
    # nilpotents to phi of the corresponding fiber vectors
    ap_names = tuple(B.base_names) + tuple("z:" + l for l in prob.i_labels)
    Aprime = PresentedAlgebra.over_ground(f, ap_names, _aprime_relations(prob))
    imgs = [tuple(gen_images[v]) for v in range(B.n_base)]
    imgs += [tuple([f.zero()] * s + prob.phi.col(b)) for b in range(len(prob.i_labels))]
    hom = AlgebraHom(Aprime, tab, tuple(imgs))
    bad = hom.validate()
    if bad:
        raise AssertionError(f"extended base does not map to the deformation: {bad}")

    # the quotient by the fiber must return B with its base structure:
    # relation values of B' must land in the fiber and equal xi
    for j, val in enumerate(tab.evaluate_many(B.relations, gen_images).tolist()):
        if any(not f.is_zero(c) for c in val[:s]):
            raise AssertionError("a relation value escaped the fiber")
        if val[s:] != xi[j * t : (j + 1) * t]:
            raise AssertionError("relation values disagree with the chosen witness")
    return RealizedDeformation(prob, tuple(xi), tab, tuple(imgs))


def _aprime_relations(prob: BaseDeformationProblem) -> List[Polynomial]:
    """The relations of A' on (base gens, nilpotents): base relations
    shifted by their cocycle values, products of nilpotents, and the
    action rows."""
    B = prob.B
    f = B.field
    nb, tI = B.n_base, len(prob.i_labels)
    nvars = nb + tI

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
