"""Exhaustive enumeration oracles over small prime fields.

Everything in this module re-derives, by brute-force scan, what the
rest of the library computes through linear algebra: derivations,
square-zero extension tables, homomorphism lifts, and deformations
across a base extension.  The scans are independent of the cochain
machinery (they only consume multiplication tables and module action
tensors), so an agreement between the two sides is genuine evidence
and a disagreement is a bug, not a sampling artifact.

Candidate spaces grow exponentially; every scan charges its full size
against an EnumerationBudget before touching a single candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .algebras import (
    FiniteModule,
    PresentedAlgebra,
    StructureAlgebra,
    _encode_relations,
    validate,
)
from .budget import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceeded,
    EnumerationBudget,
    as_budget,
)
from .deformation import (
    BaseDeformationProblem,
    LiftProblem,
    RealizedDeformation,
    SquareZeroExtension,
)
from .differential import Derivation
from .fields import PrimeField

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


def _structure_context(B: PresentedAlgebra, J: FiniteModule):
    f = B.field
    if not isinstance(f, PrimeField):
        raise TypeError("oracles only run over prime fields")
    if J.kind != "presented" or J.owner is not B:
        raise TypeError("the module must be presented over the scanned algebra")
    S = B.to_structure()
    mul = S.mul
    act = J.basis_action_tensor(S)
    return S, mul, act


def _pair_list(s: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(1, s) for j in range(i, s)]


def _decode_digits(n: int, ndig: int, p: int) -> Tuple[int, ...]:
    out = []
    for _ in range(ndig):
        out.append(n % p)
        n //= p
    return tuple(out)


def _table_template(B: PresentedAlgebra, S: StructureAlgebra, J: FiniteModule, act) -> np.ndarray:
    """Multiplication tensor of the trivial extension: the B block, the
    fiber action, and a zero fiber square; candidates only add the
    symmetric fiber corrections on top."""
    s, t = S.dim, J.rank
    dim = s + t
    mul = np.zeros((dim, dim, dim), np.int64)
    mul[:s, :s, :s] = S.mul
    for i in range(s):
        for w in range(t):
            for l in range(t):
                v = int(act[i, l, w])
                if v:
                    mul[i, s + w, s + l] = v
                    mul[s + w, i, s + l] = v
    return mul


def _assemble_table(
    B: PresentedAlgebra,
    S: StructureAlgebra,
    J: FiniteModule,
    template: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    cdig: Tuple[int, ...],
) -> StructureAlgebra:
    f = B.field
    s, t = S.dim, J.rank
    mul = template.copy()
    for q, (i, j) in enumerate(pairs):
        for l in range(t):
            d = cdig[q * t + l]
            if d:
                mul[i, j, s + l] = d
                mul[j, i, s + l] = d
    labels = tuple(S.labels) + tuple("eps:" + l for l in J.labels)
    gen_images = [list(v) + [f.zero()] * t for v in S.gen_images]
    return StructureAlgebra(
        field=f,
        labels=labels,
        mul=mul,
        gen_names=B.names,
        gen_images=gen_images,
        base_names=B.base_names,
        base_images=gen_images[: B.n_base],
    )


def state_of_table(B: PresentedAlgebra, table: StructureAlgebra, base_images=None) -> State:
    """Digit state of an extension or deformation table written in
    section coordinates over the standard monomial basis of B.

    base_images overrides the table's own base generator images; pass
    the structure-map images when they differ from the recorded ones.
    """
    s = B.dim()
    t = table.dim - s
    if t < 0:
        raise ValueError("table is smaller than the algebra it should extend")
    pairs = _pair_list(s)
    cdig = []
    for i, j in pairs:
        for l in range(t):
            cdig.append(int(table.mul[i, j, s + l]))
    imgs = base_images if base_images is not None else table.gen_images[: B.n_base]
    eta = []
    for v in range(B.n_base):
        eta.extend(int(c) for c in imgs[v][s:])
    return tuple(cdig), tuple(eta)


def _scan_tables(B, S, J, mul, act, bud, what):
    p = B.field.p
    s, t = S.dim, J.rank
    pairs = _pair_list(s)
    total = p ** (len(pairs) * t)
    bud.charge(total, what)
    pair_i = np.array([i for i, _ in pairs], np.int64)
    pair_j = np.array([j for _, j in pairs], np.int64)
    idxs = _kernels.scan_assoc(mul, act, pair_i, pair_j, p, 0, total)
    ndig = len(pairs) * t
    survivors = [_decode_digits(int(n), ndig, p) for n in idxs]
    return pairs, total, survivors


def _base_structure_states(B, S, J, template, pairs, survivors, targets, bud, what):
    """Extend table survivors by base-generator images: keep the pairs
    (table, eta) whose structure map sends each base relation to the
    required fiber value (zero for extensions, phi of the base cocycle
    for deformations)."""
    f = B.field
    p = f.p
    s, t = S.dim, J.rank
    nbv = B.n_base
    gs = list(B.base_algebra().relations) if nbv else []
    if nbv == 0:
        return [(cd, ()) for cd in survivors]
    total_eta = p ** (t * nbv)
    bud.charge(len(survivors) * total_eta, what)
    want = [[0] * s + [int(c) % p for c in tv] for tv in targets]
    states: List[State] = []
    for cd in survivors:
        tab = _assemble_table(B, S, J, template, pairs, cd)
        for m in range(total_eta):
            eta = _decode_digits(m, t * nbv, p)
            yimgs = [
                [int(c) for c in S.base_images[v]] + list(eta[v * t : (v + 1) * t])
                for v in range(nbv)
            ]
            ok = True
            for a, g in enumerate(gs):
                if tab.evaluate(g, yimgs) != want[a]:
                    ok = False
                    break
            if ok:
                states.append((cd, eta))
    return states


def _section_change_deltas(S, J, mul, act, pairs):
    """Per elementary section change L (one basis element of B to one
    basis element of J, zero elsewhere): the constant shifts it applies
    to the c-digits and the eta-digits of a state."""
    s, t = S.dim, J.rank
    nbv = len(S.base_images)
    base_coords = [[int(c) for c in v] for v in S.base_images]
    deltas = []
    for gi in range(1, s):
        for gb in range(t):
            dc = []
            for i, j in pairs:
                for l in range(t):
                    v = 0
                    if j == gi:
                        v += int(act[i, l, gb])
                    if i == gi:
                        v += int(act[j, l, gb])
                    if l == gb:
                        v -= int(mul[i, j, gi])
                    dc.append(v)
            de = []
            for v in range(nbv):
                for l in range(t):
                    de.append(base_coords[v][gi] if l == gb else 0)
            deltas.append((tuple(dc), tuple(de)))
    return deltas


def _classify_states(states: List[State], deltas, p: int):
    """Union-find closure of the survivor set under section changes.
    Every orbit is one isomorphism class; the representative is the
    lexicographically smallest state of the orbit."""
    index: Dict[State, int] = {st: k for k, st in enumerate(states)}
    parent = list(range(len(states)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k, (cd, eta) in enumerate(states):
        for dc, de in deltas:
            nc = tuple((a - b) % p for a, b in zip(cd, dc))
            ne = tuple((a + b) % p for a, b in zip(eta, de))
            j = index.get((nc, ne))
            if j is None:
                raise AssertionError("a section change left the survivor set")
            ra, rb = find(k), find(j)
            if ra != rb:
                parent[rb] = ra
    groups: Dict[int, List[State]] = {}
    for k, st in enumerate(states):
        groups.setdefault(find(k), []).append(st)
    reps = sorted(min(g) for g in groups.values())
    orbit_of: Dict[State, int] = {}
    rep_index = {rep: i for i, rep in enumerate(reps)}
    for g in groups.values():
        i = rep_index[min(g)]
        for st in g:
            orbit_of[st] = i
    return tuple(reps), orbit_of


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
    bud = as_budget(budget if budget is not None else DEFAULT_ENUM_BUDGET)
    p = B.field.p
    s, t = S.dim, J.rank
    nbv = B.n_base
    if nbv:
        kill = np.array([[int(c) for c in S.base_images[v]] for v in range(nbv)], np.int64)
    else:
        kill = np.zeros((0, s), np.int64)
    total = p ** (s * t)
    bud.charge(total, "derivation scan")
    idxs = _kernels.scan_linmap(mul, act, kill, p, 0, total)
    mats = []
    gen_imgs = []
    for n in idxs:
        dig = _decode_digits(int(n), s * t, p)
        mats.append(dig)
        flat = []
        for g in range(B.n_gens):
            coords = [int(c) for c in S.gen_images[nbv + g]]
            for l in range(t):
                flat.append(sum(coords[w] * dig[w * t + l] for w in range(s)) % p)
        gen_imgs.append(tuple(flat))
    if len(set(gen_imgs)) != len(gen_imgs):
        raise AssertionError("two distinct scan survivors share their generator images")
    return DerivationScan(B, J, total, tuple(mats), tuple(gen_imgs))


# ---------------------------------------------------------------------------
# square-zero extensions


@dataclass(eq=False)
class ExtensionScan:
    """All square-zero extension tables of B by J in section
    coordinates, with their isomorphism classes when classify is on."""

    B: PresentedAlgebra
    J: FiniteModule
    candidates: int
    states: Tuple[State, ...]
    orbit_reps: Tuple[State, ...]
    orbit_of: Dict[State, int]
    _S: StructureAlgebra
    _template: np.ndarray
    _pairs: Tuple[Tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.states)

    @property
    def class_count(self) -> int:
        return len(self.orbit_reps)

    def table_of(self, state: State) -> SquareZeroExtension:
        cd, eta = state
        if any(eta):
            raise ValueError("state carries a nontrivial base structure; build it from the table directly")
        tab = _assemble_table(self.B, self._S, self.J, self._template, self._pairs, cd)
        ext = SquareZeroExtension(self.B, self.J, tab)
        bad = ext.validate()
        if bad:
            raise AssertionError(f"scan survivor fails table validation: {bad}")
        return ext

    def state_of(self, ext: SquareZeroExtension) -> State:
        return state_of_table(self.B, ext.table)

    def class_of(self, state: State) -> int:
        return self.orbit_of[state]


def enumerate_extensions(
    B: PresentedAlgebra,
    J: FiniteModule,
    budget=None,
    classify: bool = True,
) -> ExtensionScan:
    """Scan every symmetric fiber-correction table for associativity,
    then every base-generator image for the relations of the base.

    The surviving states are exactly the square-zero extensions of B
    by J in section coordinates; their orbits under section changes
    are the isomorphism classes."""
    S, mul, act = _structure_context(B, J)
    bud = as_budget(budget if budget is not None else DEFAULT_ENUM_BUDGET)
    pairs, total, survivors = _scan_tables(B, S, J, mul, act, bud, "extension table scan")
    template = _table_template(B, S, J, act)
    targets = [[0] * J.rank for _ in B.base_relations]
    states = _base_structure_states(
        B, S, J, template, pairs, survivors, targets, bud, "base structure scan"
    )
    reps: Tuple[State, ...] = ()
    orbit_of: Dict[State, int] = {}
    if classify:
        deltas = _section_change_deltas(S, J, mul, act, pairs)
        reps, orbit_of = _classify_states(states, deltas, B.field.p)
    return ExtensionScan(
        B, J, total, tuple(states), reps, orbit_of, S, template, tuple(pairs)
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


def enumerate_lifts(problem: LiftProblem, budget=None) -> LiftScan:
    """Scan the coset preimage + ideal for every relative generator
    image and keep the tuples that satisfy all relations exactly."""
    B, Cp = problem.B, problem.Cprime
    f = B.field
    if not isinstance(f, PrimeField):
        raise TypeError("oracles only run over prime fields")
    bud = as_budget(budget if budget is not None else DEFAULT_ENUM_BUDGET)
    p = f.p
    ng = B.n_gens
    nbv = B.n_base
    t = len(problem.n_basis)
    total = p ** (ng * t)
    rel_rows = _encode_relations(B, Cp, base_imgs=problem.preimages[:nbv])
    if rel_rows is None:
        # the forced base images already violate a base relation
        return LiftScan(problem, 0, (), ())
    bud.charge(total, "lift scan")
    span = [list(v) for v in problem.n_basis]
    if ng == 0:
        ok = True
        for rows in rel_rows:
            val = Cp.zero_vector()
            for _, w in rows:
                val = Cp.add(val, list(w))
            if any(not f.is_zero(c) for c in val):
                ok = False
                break
        imgs = tuple(tuple(v) for v in problem.preimages)
        return LiftScan(problem, total, (imgs,) if ok else (), ((),) if ok else ())
    ptr = [0]
    coefv = []
    exps = []
    for rows in rel_rows:
        for e, w in rows:
            coefv.append([int(x) for x in w])
            exps.append(list(e))
        ptr.append(len(coefv))
    mulc = Cp.mul
    base = np.array([[int(c) for c in problem.preimages[nbv + i]] for i in range(ng)], np.int64)
    span_a = np.array(span, np.int64).reshape(t, Cp.dim)
    rel_ptr = np.array(ptr, np.int64)
    coefv_a = np.array(coefv, np.int64).reshape(len(coefv), Cp.dim)
    exps_a = np.array(exps, np.int64).reshape(len(exps), ng)
    idxs = _kernels.scan_polyrel(mulc, base, span_a, rel_ptr, coefv_a, exps_a, p, 0, total)
    images = []
    offsets = []
    for n in idxs:
        dig = _decode_digits(int(n), ng * t, p)
        imgs = [list(v) for v in problem.preimages]
        for g in range(ng):
            vec = imgs[nbv + g]
            for d in range(t):
                c = dig[g * t + d]
                if c:
                    vec = [(a + c * b) % p for a, b in zip(vec, span[d])]
            imgs[nbv + g] = vec
        for r in list(B.relations) + list(B.base_relations):
            val = Cp.evaluate(r, imgs)
            if any(not f.is_zero(c) for c in val):
                raise AssertionError("scan produced an invalid lift")
        images.append(tuple(tuple(v) for v in imgs))
        offsets.append(dig)
    return LiftScan(problem, total, tuple(images), tuple(offsets))


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
class DeformationScan:
    """All flat structures over the extended base in section
    coordinates: associative tables paired with base images whose
    relation values hit the prescribed fiber targets."""

    problem: BaseDeformationProblem
    candidates: int
    states: Tuple[State, ...]
    orbit_reps: Tuple[State, ...]
    orbit_of: Dict[State, int]
    _S: StructureAlgebra
    _template: np.ndarray
    _pairs: Tuple[Tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.states)

    @property
    def solvable(self) -> bool:
        return bool(self.states)

    @property
    def class_count(self) -> int:
        return len(self.orbit_reps)

    def table_of(self, state: State):
        """The multiplication table and base-generator images of a
        surviving state, revalidated."""
        B, J = self.problem.B, self.problem.J
        cd, eta = state
        tab = _assemble_table(B, self._S, J, self._template, self._pairs, cd)
        bad = validate(tab)
        if bad:
            raise AssertionError(f"scan survivor fails table validation: {bad}")
        t = J.rank
        yimgs = []
        for v in range(B.n_base):
            yimgs.append(
                tuple([int(c) for c in self._S.base_images[v]] + list(eta[v * t : (v + 1) * t]))
            )
        return tab, tuple(yimgs)

    def state_of(self, realized: RealizedDeformation) -> State:
        B = self.problem.B
        s = B.dim()
        return state_of_table(B, realized.table, base_images=realized.aprime_images[: B.n_base])

    def class_of(self, state: State) -> int:
        return self.orbit_of[state]


def enumerate_deformations(
    problem: BaseDeformationProblem,
    budget=None,
    classify: bool = True,
) -> DeformationScan:
    """Scan every candidate structure over the extended base.

    A state survives when its table is associative and its base images
    send each base relation to the image under phi of that relation's
    value in the extension ideal; an empty result is exactly a nonzero
    obstruction class, and orbit representatives enumerate the
    isomorphism classes of deformations otherwise."""
    B, J = problem.B, problem.J
    if not B.is_finite_dimensional():
        raise ValueError("oracle scans need a finite-dimensional algebra; truncate first")
    S, mul, act = _structure_context(B, J)
    bud = as_budget(budget if budget is not None else DEFAULT_ENUM_BUDGET)
    pairs, total, survivors = _scan_tables(B, S, J, mul, act, bud, "deformation table scan")
    template = _table_template(B, S, J, act)
    targets = [problem.phi.mul_vec(list(a)) for a in problem.alpha]
    states = _base_structure_states(
        B, S, J, template, pairs, survivors, targets, bud, "deformation base scan"
    )
    reps: Tuple[State, ...] = ()
    orbit_of: Dict[State, int] = {}
    if classify:
        deltas = _section_change_deltas(S, J, mul, act, pairs)
        reps, orbit_of = _classify_states(states, deltas, B.field.p)
    return DeformationScan(
        problem, total, tuple(states), reps, orbit_of, S, template, tuple(pairs)
    )
