"""Exhaustive enumeration oracles over small prime fields.

Everything in this module re-derives, by brute-force scan, what the
rest of the library computes through linear algebra: derivations,
square-zero extension tables, homomorphism lifts, and deformations
across a base extension.  The scans are independent of the cochain
machinery (they only consume multiplication tables and module action
tensors), so an agreement between the two sides is genuine evidence
and a disagreement is a bug, not a sampling artifact.

One piece is shared with ``deformation.py``: the section-form table
builder, that is the trivial extension of B by J (``_extension_maps``,
of which the oracle reads only the table and the section images) and
the writer that adds fiber corrections on basis pairs and fiber parts
on generator images (``_extension_tables``).  Both are built from the
algebra's product table and the module's action alone; the division
cofactors, the relation tensor and the cochain maps are never read.

Every scan is one linear solve over the candidate digits (see
``_kernels.solve_affine``): its survivors are an affine subspace of
F_p^N, listed point by point in ascending candidate order straight from
one rref.  Associativity and the Leibniz rule are linear in the digits;
a lift's relation values and a base structure's relation values are
affine, because the fiber squares to zero, and are read off the zero
and unit candidates by a stacked evaluation (``evaluate_stack``) of
the relations at all of them.  A base structure is solved jointly with
its table digits, so the states come out table-major with the base
digits ascending.  Every lift and every state found that way is
re-checked by literal evaluation.  The reads and the re-checks evaluate
stacks of at most CHUNK tables or image tuples.

Classification is one projection.  A section change moves a state by
a constant vector, so the isomorphism classes are the cosets of the
span of those shifts met with the survivor set: each state is labelled
by its image in F_p^N modulo that span and the labels are grouped.

Candidate spaces grow exponentially; every scan charges its full size
against an EnumerationBudget before touching a single candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Tuple

import numpy as np

from . import _kernels
from .algebras import (
    FiniteModule,
    PresentedAlgebra,
    StructureAlgebra,
    evaluate_stack,
)
from .budget import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceeded,
    EnumerationBudget,
    as_budget,
)
from .deformation import (
    BaseDeformationProblem,
    ExtensionStack,
    LiftProblem,
    RealizedDeformation,
    SquareZeroExtension,
    _extension_maps,
    _extension_tables,
)
from .differential import Derivation
from .fields import PrimeField
from .poly import Polynomial

__all__ = [
    "BudgetExceeded",
    "DEFAULT_ENUM_BUDGET",
    "DerivationScan",
    "DeformationScan",
    "EnumerationBudget",
    "ExtensionScan",
    "LiftScan",
    "TorsorCheck",
    "check_torsor_action",
    "enumerate_deformations",
    "enumerate_derivations",
    "enumerate_extensions",
    "enumerate_lifts",
    "state_of_table",
]

# a state is (c-digits, eta-digits): the fiber corrections of all
# non-unit basis pair products, then the fiber parts of the base
# generator images, both flattened to tuples of ints
State = Tuple[Tuple[int, ...], Tuple[int, ...]]

# the most tables or image tuples in one stacked evaluation of the
# affine reads and the literal re-checks, which bounds their memory
CHUNK = 64


def _structure_context(B: PresentedAlgebra, J: FiniteModule):
    f = B.field
    if not isinstance(f, PrimeField):
        raise TypeError("oracles only run over prime fields")
    if J.owner is not B:
        raise TypeError("the module must be presented over the scanned algebra")
    S = B.to_structure()
    mul = S.mul
    act = J.basis_action_tensor(S)
    return S, mul, act


@lru_cache(maxsize=None)
def _pairs(s: int) -> Tuple[np.ndarray, np.ndarray]:
    """(pair_i, pair_j): the non-unit basis pairs i <= j, row-major;
    built once per s, read-only."""
    pair_i, pair_j = np.triu_indices(s - 1)
    pair_i, pair_j = pair_i + 1, pair_j + 1
    pair_i.flags.writeable = pair_j.flags.writeable = False
    return pair_i, pair_j


def state_of_table(B: PresentedAlgebra, table: StructureAlgebra) -> State:
    """Digit state of an extension or deformation table written in
    section coordinates over the standard monomial basis of B: its
    fiber corrections and the fiber parts of its base generator images."""
    s = B.dim()
    t = table.dim - s
    if t < 0:
        raise ValueError("table is smaller than the algebra it should extend")
    pair_i, pair_j = _pairs(s)
    cdig = tuple(table.mul[pair_i, pair_j, s:].ravel().tolist())
    eta = tuple(int(c) for v in range(B.n_base) for c in table.gen_images[v][s:])
    return cdig, eta


def _probe_values(values, ndig: int) -> np.ndarray:
    """values at the zero digit row, then at each unit digit row (for an
    affine map d -> d @ R + c these are c, then R + c), CHUNK rows per
    call."""
    probes = np.eye(ndig + 1, ndig, -1, dtype=np.int64)
    return np.concatenate([values(probes[lo : lo + CHUNK]) for lo in range(0, ndig + 1, CHUNK)])


def _structure_states(B, J, pairs, R_assoc, targets, bud, what) -> np.ndarray:
    """The associative fiber-correction tables c (the survivors of the
    residual R_assoc, in scan order), extended by base-generator images:
    keep the pairs (c, eta) whose structure map sends each base relation
    to the required fiber value (zero for extensions, phi of the base
    cocycle for deformations).  One row per state, its c digits then its
    eta digits.

    The fiber squares to zero and eta acts only through the module, so
    the relation values are affine in (c, eta) with no c*eta term.  They
    are read off a stacked evaluation at the zero and unit digits.
    One solve over the digits (eta, c), eta least significant, under
    the base conditions and the associativity residual R_assoc of c,
    gives every state survivor-major with eta ascending.  Its charge,
    the p^(N - rank R_assoc) survivors times p^neta base images, is read
    off one rref of R_assoc before anything is enumerated.  Every state
    is then re-checked by literal evaluation.  Both evaluate stacks of
    at most CHUNK tables."""
    f = B.field
    p = f.p
    s, t = B.dim(), J.rank
    nbv = B.n_base
    if nbv == 0:
        return _kernels.solve_affine(R_assoc, 0, p)
    neta = t * nbv
    ndig = R_assoc.shape[0]
    bud.charge(p ** (ndig - _kernels.rref_modp(R_assoc.T % p, p)[2] + neta), what)
    gs = B.base_algebra().relations
    want = np.array([[0] * s + [int(x) % p for x in tv] for tv in targets], np.int64).reshape(-1)

    def values(rows):
        """The base relation values of the states (eta digits, then c
        digits) in rows, one row of values per state."""
        tabs, imgs = _extension_tables(B, J, pairs, rows[:, neta:], np.arange(nbv), rows[:, :neta])
        return evaluate_stack(f, tabs, gs, imgs[:, :nbv]).reshape(len(rows), len(want))

    vals = _probe_values(values, neta + ndig)
    R = np.hstack([vals[1:] - vals[0], np.vstack([np.zeros((neta, R_assoc.shape[1]), np.int64), R_assoc])])
    rows = _kernels.solve_affine(R, np.concatenate([vals[0] - want, np.zeros(R_assoc.shape[1], np.int64)]), p)
    for lo in range(0, len(rows), CHUNK):
        if np.any(values(rows[lo : lo + CHUNK]) != want):
            raise AssertionError("base structure scan produced a wrong state")
    return np.hstack([rows[:, neta:], rows[:, :neta]])


def _section_change_deltas(S, J, act, pairs, p: int) -> np.ndarray:
    """One row per elementary section change L (one basis element gi of
    B to one basis element gb of J, zero elsewhere, gi-major): the
    constant shift, mod p, that it applies to the (c, eta) digits of a
    state: c(i, j) gains L(x_i x_j) - x_i L(x_j) - x_j L(x_i) and eta
    gains L of the base generator images."""
    s, t = S.dim, J.rank
    pair_i, pair_j = pairs
    hit = np.eye(s, dtype=np.int64)[:, 1:]  # hit[k, gi - 1] = [k == gi]
    one = np.eye(t, dtype=np.int64)
    base = _extension_maps(J.owner, J).images[: J.owner.n_base, :s]
    dc = (
        np.einsum("qg,qlb->gbql", hit[pair_j], act[pair_i])
        + np.einsum("qg,qlb->gbql", hit[pair_i], act[pair_j])
        - np.einsum("qg,lb->gbql", S.mul[pair_i, pair_j, 1:], one)
    )
    de = np.einsum("vg,lb->gbvl", base[:, 1:], one)
    n = (s - 1) * t
    return np.hstack([-dc.reshape(n, len(pair_i) * t), de.reshape(n, len(base) * t)]) % p


def _as_states(X: np.ndarray, nc: int) -> List[State]:
    """The rows of X, c digits (the first nc) then eta digits, as states."""
    return [(tuple(r[:nc]), tuple(r[nc:])) for r in X.tolist()]


def _classify_states(X: np.ndarray, nc: int, deltas: np.ndarray, f: PrimeField):
    """The orbits of the survivor set under section changes, which are
    its intersections with the cosets of the span of the deltas: (orbit
    representatives as states, the orbit of each row of X, rank of the
    deltas), X holding one state per row, its nc c digits first.

    Each state is labelled by its projection onto F_p^N / span: the
    digits minus the pivot digits times the reduced deltas.  Every
    orbit is one isomorphism class of p^rank states, which is checked;
    the representative is the lexicographically smallest state of the
    orbit.  Once every orbit is checked to be a whole coset, that state
    is the label itself (its pivot digits are zero), and
    ``_kernels._unique_rows`` sorts the labels in that order."""
    red, _, piv, rank = f.rref(deltas)
    labels = (X - f.matmul(X[:, list(piv)], red[:rank])) % f.p
    reps, inv, counts = _kernels._unique_rows(labels, f.p)
    if np.any(counts != f.p**rank):
        raise AssertionError("a section change left the survivor set")
    return tuple(_as_states(reps, nc)), inv, rank


# ---------------------------------------------------------------------------
# derivations


@dataclass(eq=False)
class DerivationScan:
    """Every k-linear self-consistent Leibniz map found by scanning all
    of Hom_k(B, J); gen_images holds the induced values on the relative
    generators, flattened to J-coordinates."""

    B: PresentedAlgebra
    J: FiniteModule
    candidates: int
    matrices: Tuple[Tuple[int, ...], ...]
    gen_images: Tuple[Tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.matrices)

    def to_derivation(self, k: int) -> Derivation:
        t = self.J.rank
        flat = self.gen_images[k]
        images = tuple(tuple(flat[i * t : (i + 1) * t]) for i in range(self.B.n_gens))
        return Derivation(self.B, self.J, images)


def enumerate_derivations(B: PresentedAlgebra, J: FiniteModule, budget=None) -> DerivationScan:
    """Scan all linear maps B -> J for the Leibniz rule and vanishing
    on the base, with no help from the presentation's relations."""
    S, mul, act = _structure_context(B, J)
    bud = as_budget(budget)
    p = B.field.p
    s, t = S.dim, J.rank
    nbv = B.n_base
    images = _extension_maps(B, J).images[:, :s]
    total = p ** (s * t)
    bud.charge(total, "derivation scan")
    rows = _kernels.solve_affine(_kernels._linmap_residual(mul, act, images[:nbv]), 0, p)
    # row digit w*t + l is D(e_w)_l, so generator g's image is images[nbv + g] @ D
    gen = B.field.matmul(images[nbv:], rows.reshape(len(rows), s, t)).reshape(len(rows), B.n_gens * t)
    gen_imgs = tuple(map(tuple, gen.tolist()))
    if len(set(gen_imgs)) != len(gen_imgs):
        raise AssertionError("two distinct scan survivors share their generator images")
    return DerivationScan(B, J, total, tuple(map(tuple, rows.tolist())), gen_imgs)


# ---------------------------------------------------------------------------
# square-zero extensions and deformations


@dataclass(eq=False)
class _StructureScan:
    """Surviving states of a table scan over B by J in section
    coordinates, with their isomorphism classes.

    The scan keeps its survivors as one row per state (c digits, then
    eta digits) and the orbit of each row; ``states`` and ``orbit_of``
    are built from them when first read.  Membership and ``class_of``
    find a state's row by its candidate index."""

    B: PresentedAlgebra
    J: FiniteModule
    candidates: int
    _rows: np.ndarray
    orbit_reps: Tuple[State, ...]
    _orbit_index: np.ndarray
    delta_rank: int  # of the section-change shifts: every orbit holds p^delta_rank states
    _pairs: Tuple[np.ndarray, np.ndarray]

    @property
    def count(self) -> int:
        return len(self._rows)

    @property
    def class_count(self) -> int:
        return len(self.orbit_reps)

    @property
    def _nc(self) -> int:
        return len(self._pairs[0]) * self.J.rank

    @cached_property
    def states(self) -> Tuple[State, ...]:
        return tuple(_as_states(self._rows, self._nc))

    @cached_property
    def orbit_of(self) -> Dict[State, int]:
        return dict(zip(self.states, self._orbit_index.tolist()))

    @cached_property
    def _weights(self) -> List[int]:
        """p^k for the digit each column is of the candidate index: the
        scan solves the eta digits least significant, then the c digits."""
        n = self._rows.shape[1]
        return [self.B.field.p ** int(k) for k in np.roll(np.arange(n), self._nc)]

    @cached_property
    def _keys(self) -> np.ndarray:
        """The candidate index of each row; the scan lists its rows in
        that order, so the keys ascend, which is checked."""
        dtype = np.int64 if self.B.field.p ** self._rows.shape[1] < 2**63 else object
        keys = self._rows.astype(dtype) @ np.array(self._weights, dtype)
        if np.any(keys[1:] <= keys[:-1]):
            raise AssertionError("scan rows are not in ascending candidate order")
        return keys

    def _row_of(self, state: State) -> int:
        """The row of state, or -1 when it is not a surviving state."""
        row = [int(d) for d in state[0]] + [int(d) for d in state[1]]
        p = self.B.field.p
        if len(row) != len(self._weights) or not all(0 <= d < p for d in row):
            return -1
        i = int(np.searchsorted(self._keys, sum(d * w for d, w in zip(row, self._weights))))
        return i if i < self.count and self._rows[i].tolist() == row else -1

    def __contains__(self, state: State) -> bool:
        return self._row_of(state) >= 0

    def class_of(self, state: State) -> int:
        i = self._row_of(state)
        if i < 0:
            raise KeyError(state)
        return int(self._orbit_index[i])

    def has_band(self, t0_dim: int) -> bool:
        """Whether every orbit has p^((s-1)t - t0_dim) states.

        The section changes form a group of size p^((s-1)t) and the
        stabilizer of a state is Der_A(B, J), so with t0_dim = dim T0
        this is the band of the gerbe of extensions.  The scan checked
        that every orbit holds p^delta_rank states, so this compares the
        exponents; it holds also when there are no states, since the
        shifts that vanish are exactly the derivations."""
        return self.delta_rank == (self.B.dim() - 1) * self.J.rank - t0_dim

    def _extension(self, cd: Tuple[int, ...], eta: Tuple[int, ...]) -> SquareZeroExtension:
        """The extension with the fiber corrections cd on the non-unit
        basis pairs and the fiber parts eta on the base generators,
        validated."""
        B, J = self.B, self.J
        corr, fiber = np.array([cd], np.int64), np.array([eta], np.int64)
        mul, images = _extension_tables(B, J, self._pairs, corr, np.arange(B.n_base), fiber)
        ext = ExtensionStack(B, J, mul, images).extension(0)
        if bad := ext.validate():
            raise AssertionError(f"scan survivor fails table validation: {bad}")
        return ext


def _scan_structures(scan_cls, B, J, targets, budget, what, **extra):
    """Scan every symmetric fiber-correction table for associativity,
    then every base-generator image for the base relations hitting
    their fiber targets; the orbits of the surviving states under
    section changes are the isomorphism classes."""
    S, mul, act = _structure_context(B, J)
    bud = as_budget(budget)
    pairs = _pairs(S.dim)
    total = B.field.p ** (len(pairs[0]) * J.rank)
    bud.charge(total, what[0])
    R_assoc = _kernels._assoc_residual(mul, act, *pairs)
    X = _structure_states(B, J, pairs, R_assoc, targets, bud, what[1])
    deltas = _section_change_deltas(S, J, act, pairs, B.field.p)
    nc = len(pairs[0]) * J.rank
    reps, inv, rank = _classify_states(X, nc, deltas, B.field)
    return scan_cls(B, J, total, X, reps, inv, rank, pairs, **extra)


@dataclass(eq=False)
class ExtensionScan(_StructureScan):
    """All square-zero extension tables of B by J."""

    def table_of(self, state: State) -> SquareZeroExtension:
        cd, eta = state
        if any(eta):
            raise ValueError("state carries a nontrivial base structure; build it from the table directly")
        return self._extension(cd, eta)

    def state_of(self, ext: SquareZeroExtension) -> State:
        return state_of_table(self.B, ext.table)


def enumerate_extensions(B: PresentedAlgebra, J: FiniteModule, budget=None) -> ExtensionScan:
    """The surviving states are exactly the square-zero extensions of B
    by J in section coordinates: every base relation goes to zero."""
    targets = [[0] * J.rank for _ in B.base_relations]
    return _scan_structures(
        ExtensionScan, B, J, targets, budget,
        ("extension table scan", "base structure scan"),
    )


# ---------------------------------------------------------------------------
# homomorphism lifts


@dataclass(eq=False)
class LiftScan:
    """All lifts of the recorded map through the square-zero quotient,
    as full image tuples and as ideal-coordinate offsets against the
    chosen preimages."""

    problem: LiftProblem
    candidates: int
    images: Tuple[Tuple[tuple, ...], ...]
    offsets: Tuple[Tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.images)


def _base_images_fail(B: PresentedAlgebra, C: StructureAlgebra, base_imgs) -> bool:
    """Whether a relation of B fails in C at these images of the base
    generators whatever the relative generators go to: evaluated at
    them, the base coefficient of its relative monomial 1 is nonzero
    and that of every other relative monomial is zero."""
    f, nb = B.field, B.n_base
    groups = []
    for r in B.ideal_gens():
        parts: Dict[tuple, dict] = {}
        for m, c in r.terms.items():
            parts.setdefault(m[nb:], {})[m[:nb]] = c
        groups.append(parts)
    polys = [Polynomial(f, nb, part) for parts in groups for part in parts.values()]
    nonzero = iter(evaluate_stack(f, C.mul, polys, f.array(base_imgs).reshape(1, nb, C.dim))[0].any(axis=1).tolist())
    one = (0,) * B.n_gens
    # zip takes from nonzero only while parts lasts: each group reads its own values
    return any({e for e, nz in zip(parts, nonzero) if nz} == {one} for parts in groups)


def enumerate_lifts(problem: LiftProblem, budget=None) -> LiftScan:
    """Scan the coset preimage + ideal for every relative generator
    image and keep the tuples that satisfy all relations exactly.

    The ideal squares to zero, so each relation value is affine in the
    offset digits: f(pre + n) = f(pre) + sum_g df/dx_g(pre) n_g.  It is
    read as d @ R + c from a stacked evaluation of every relation at
    the preimages and at each unit offset, and solved as one affine
    system.  Every lift found is re-checked by literal evaluation.  Both
    evaluate stacks of at most CHUNK image tuples."""
    B, Cp = problem.B, problem.Cprime
    f = B.field
    if not isinstance(f, PrimeField):
        raise TypeError("oracles only run over prime fields")
    bud = as_budget(budget)
    p = f.p
    ng = B.n_gens
    nbv = B.n_base
    t = len(problem.n_basis)
    ndig = ng * t
    total = p**ndig
    if _base_images_fail(B, Cp, problem.preimages[:nbv]):
        return LiftScan(problem, 0, (), ())
    bud.charge(total, "lift scan")
    rels = list(B.relations) + list(B.base_relations)
    pre = [list(v) for v in problem.preimages]
    s = Cp.dim
    pre_a = f.array(pre).reshape(B.nvars, s)
    N = f.array([list(v) for v in problem.n_basis]).reshape(t, s)

    def moved(offsets):
        """The relative generator images at these offsets: digit
        g*t + d moves generator g by n_d."""
        return f.reduce(f.matmul(offsets.reshape(len(offsets), ng, t), N) + pre_a[nbv:])

    def values(offsets):
        K = len(offsets)
        imgs = np.concatenate([np.broadcast_to(pre_a[:nbv], (K, nbv, s)), moved(offsets)], axis=1)
        return evaluate_stack(f, Cp.mul, rels, imgs).reshape(K, len(rels) * s)

    vals = _probe_values(values, ndig)
    offsets = _kernels.solve_affine(vals[1:] - vals[0], vals[0], p)
    for lo in range(0, len(offsets), CHUNK):
        if np.any(values(offsets[lo : lo + CHUNK])):
            raise AssertionError("scan produced an invalid lift")
    images_out = tuple(tuple(map(tuple, pre[:nbv] + row)) for row in moved(offsets).tolist())
    return LiftScan(problem, total, images_out, tuple(map(tuple, offsets.tolist())))


@dataclass
class TorsorCheck:
    ok: bool
    empty: bool
    message: str


def check_torsor_action(lifts: LiftScan, ders: DerivationScan) -> TorsorCheck:
    """The derivation set must act simply transitively on the lift set:
    from any lift, adding each derivation's generator values (through
    the ideal basis) reaches every lift exactly once."""
    if lifts.count == 0:
        return TorsorCheck(True, True, "pseudo-torsor check: the lift set is empty")
    dset = set(ders.gen_images)
    p = lifts.problem.B.field.p
    if len(dset) != lifts.count:
        return TorsorCheck(
            False, False, f"{lifts.count} lifts against {len(dset)} derivations"
        )
    for o1 in lifts.offsets:
        diffs = set()
        for o2 in lifts.offsets:
            diffs.add(tuple((a - b) % p for a, b in zip(o2, o1)))
        if diffs != dset:
            return TorsorCheck(
                False, False, "lift differences do not match the derivation set"
            )
    return TorsorCheck(True, False, f"torsor of size {lifts.count} verified")


# ---------------------------------------------------------------------------
# deformations across a base extension


@dataclass(eq=False)
class DeformationScan(_StructureScan):
    """All flat structures over the extended base: associative tables
    paired with base images whose relation values hit the prescribed
    fiber targets."""

    problem: BaseDeformationProblem

    @property
    def solvable(self) -> bool:
        return self.count > 0

    def table_of(self, state: State) -> StructureAlgebra:
        """The table of a surviving state, its base-generator images
        carrying the fiber parts eta as in realize_deformation,
        revalidated."""
        return self._extension(*state).table

    def state_of(self, realized: RealizedDeformation) -> State:
        return state_of_table(self.B, realized.table)


def enumerate_deformations(problem: BaseDeformationProblem, budget=None) -> DeformationScan:
    """Scan every candidate structure over the extended base.

    A state survives when its table is associative and its base images
    send each base relation to the image under phi of that relation's
    value in the extension ideal; an empty result is exactly a nonzero
    obstruction class, and orbit representatives enumerate the
    isomorphism classes of deformations otherwise."""
    B, J = problem.B, problem.J
    if not B.is_finite_dimensional():
        raise ValueError("oracle scans need a finite-dimensional algebra; truncate first")
    targets = [problem.phi.mul_vec(list(a)) for a in problem.alpha]
    return _scan_structures(
        DeformationScan, B, J, targets, budget,
        ("deformation table scan", "deformation base scan"), problem=problem,
    )
