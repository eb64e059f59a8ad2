"""Finitely presented commutative algebras and their finite companions.

A PresentedAlgebra is B = A[x_1..x_n]/(f_1..f_m) where the base ring
A = k[y_1..y_b]/(g_1..g_c) is itself presented over the ground field.
Internally everything is flattened into k[y_1..y_b, x_1..x_n]: base
variables first, then relative ones, with a cached Groebner basis of
the flattened ideal providing canonical normal forms.

A StructureAlgebra is a finite-dimensional algebra given by its basis
and multiplication tensor; basis element 0 is always the unit.  A
FiniteModule carries one commuting action matrix per flattened
generator of a presented algebra.  An AlgebraHom maps a presented
algebra to either representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fields import Field, PrimeField, Scalar, int_scale
from .groebner import GroebnerBasis, buchberger, normal_form
from .linalg import Matrix
from .poly import GREVLEX, Monomial, Polynomial, mono_deg, mono_divides, mono_mul


class PresentedAlgebra:
    """B = A[x..]/(relations), flattened over the ground field."""

    def __init__(
        self,
        field: Field,
        base_names: Sequence[str],
        base_relations: Sequence[Polynomial],
        gen_names: Sequence[str],
        relations: Sequence[Polynomial],
        allow_zero: bool = False,
    ):
        self.field = field
        self.base_names = tuple(base_names)
        self.gen_names = tuple(gen_names)
        self.names = self.base_names + self.gen_names
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        self.nvars = len(self.names)
        self.base_relations = tuple(base_relations)
        self.relations = tuple(relations)
        self.allow_zero = allow_zero
        for p in self.base_relations + self.relations:
            if p.nvars != self.nvars or p.field != field:
                raise ValueError("relation not in the flattened ring")
        for p in self.base_relations:
            for m in p.terms:
                if any(m[i] for i in range(len(self.base_names), self.nvars)):
                    raise ValueError("base relation uses a relative generator")
        self._gb: Optional[GroebnerBasis] = None
        self._base_gb: Optional[GroebnerBasis] = None
        self._std: Optional[Tuple[Monomial, ...]] = None
        self._std_index: Optional[Dict[Monomial, int]] = None  # see std_index
        self._cotangent = None  # cotangent.CotangentComplex, see cotangent_complex
        self._structure: Optional["StructureAlgebra"] = None  # see to_structure
        self._divisions: Optional[dict] = None  # (i, j) -> packed division of std[i] * std[j], see to_structure
        self._cofactors = None  # see product_cofactors
        self._gen_cofactors = None  # see generator_cofactors
        self._relation_tensor = None  # see relation_tensor
        self._base_algebra: Optional["PresentedAlgebra"] = None  # see base_algebra
        self._jacobian = None  # see differential.jacobian_entries
        self._extension_maps: dict = {}  # FiniteModule -> deformation._ExtensionMaps, built once per module

    # -- construction conveniences --------------------------------------

    @classmethod
    def over_ground(cls, field: Field, gen_names: Sequence[str], relations: Sequence[Polynomial]):
        return cls(field, (), (), gen_names, relations)

    @classmethod
    def from_strings(
        cls,
        field: Field,
        gen_names: Sequence[str],
        relation_strs: Sequence[str],
        base_names: Sequence[str] = (),
        base_relation_strs: Sequence[str] = (),
        allow_zero: bool = False,
    ):
        from .problems import parse_polynomial

        names = tuple(base_names) + tuple(gen_names)
        base_rels = [parse_polynomial(s, names, field) for s in base_relation_strs]
        rels = [parse_polynomial(s, names, field) for s in relation_strs]
        return cls(field, base_names, base_rels, gen_names, rels, allow_zero=allow_zero)

    # -- ring structure ---------------------------------------------------

    @property
    def n_base(self) -> int:
        return len(self.base_names)

    @property
    def n_gens(self) -> int:
        return len(self.gen_names)

    def var(self, i: int) -> Polynomial:
        return Polynomial.variable(self.field, self.nvars, i)

    def zero_poly(self) -> Polynomial:
        return Polynomial.zero(self.field, self.nvars)

    def one_poly(self) -> Polynomial:
        return Polynomial.one(self.field, self.nvars)

    def ideal_gens(self) -> Tuple[Polynomial, ...]:
        return self.base_relations + self.relations

    def base_algebra(self) -> "PresentedAlgebra":
        """The base ring as an algebra over the ground field, in its own
        variables (base relations contracted out of the flattened ring),
        built once."""
        if self._base_algebra is None:
            nb = self.n_base
            rels = [Polynomial(self.field, nb, {m[:nb]: c for m, c in p.terms.items()}) for p in self.base_relations]
            self._base_algebra = PresentedAlgebra.over_ground(self.field, self.base_names, rels)
        return self._base_algebra

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            gens = list(self.ideal_gens()) or [self.zero_poly()]
            self._gb = buchberger(gens, GREVLEX)
        return self._gb

    def base_groebner(self) -> GroebnerBasis:
        if self._base_gb is None:
            gens = list(self.base_relations) or [self.zero_poly()]
            self._base_gb = buchberger(gens, GREVLEX)
        return self._base_gb

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative modulo the full flattened ideal."""
        return normal_form(p, self.groebner())

    def base_normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative modulo the base ideal only."""
        return normal_form(p, self.base_groebner())

    def is_zero_ring(self) -> bool:
        return self.groebner().contains_one()

    # -- finiteness and bases ----------------------------------------------

    def std_monomials(self) -> Tuple[Monomial, ...]:
        """Monomials not divisible by any leading monomial of the ideal,
        sorted ascending; the k-basis of B when finite."""
        if self._std is not None:
            return self._std
        gb = self.groebner()
        lts = gb.leading_monomials()
        if gb.contains_one():
            self._std = ()
            return self._std
        for v in range(self.nvars):
            if not any(all(m[i] == 0 for i in range(self.nvars) if i != v) and m[v] > 0 for m in lts):
                raise ValueError(
                    f"not finite-dimensional: no pure power of {self.names[v]} leads the ideal"
                )
        unit = (0,) * self.nvars
        seen = {unit}
        queue = [unit]
        out = []
        while queue:
            m = queue.pop()
            out.append(m)
            for v in range(self.nvars):
                m2 = tuple(e + 1 if i == v else e for i, e in enumerate(m))
                if m2 in seen or any(mono_divides(lt, m2) for lt in lts):
                    continue
                seen.add(m2)
                queue.append(m2)
        out.sort(key=GREVLEX.key)
        self._std = tuple(out)
        return self._std

    def is_finite_dimensional(self) -> bool:
        try:
            self.std_monomials()
            return True
        except ValueError:
            return False

    def dim(self) -> int:
        return len(self.std_monomials())

    def mono_label(self, m: Monomial) -> str:
        if mono_deg(m) == 0:
            return "1"
        parts = []
        for i, e in enumerate(m):
            if e == 1:
                parts.append(self.names[i])
            elif e > 1:
                parts.append(f"{self.names[i]}^{e}")
        return "*".join(parts)

    def std_index(self) -> Dict[Monomial, int]:
        """Each standard monomial's position in std_monomials(), built
        once per algebra."""
        if self._std_index is None:
            self._std_index = {m: i for i, m in enumerate(self.std_monomials())}
        return self._std_index

    def coordinates(self, p: Polynomial) -> List[Scalar]:
        """Coordinates of p's class in the std-monomial basis."""
        if p.nvars != self.nvars or p.field != self.field:
            raise ValueError("polynomial not in the flattened ring")
        return self._coordinates(p.terms)

    def _coordinates(self, terms: Dict[Monomial, Scalar]) -> List[Scalar]:
        """The same for {monomial: scalar} terms, divided as they are."""
        index = self.std_index()
        out = [self.field.zero()] * len(index)
        for m, c in self.groebner().divide(terms)[0].items():
            out[index[m]] = c
        return out

    # -- truncation -----------------------------------------------------------

    def truncation_relations(self, d: int, relative_only: bool = True) -> List[Polynomial]:
        lo = self.n_base if relative_only else 0
        idxs = range(lo, self.nvars)
        out = []
        for combo in itertools.combinations_with_replacement(idxs, d):
            m = [0] * self.nvars
            for i in combo:
                m[i] += 1
            out.append(Polynomial.monomial(self.field, self.nvars, tuple(m)))
        return out

    def truncated_presentation(self, d: int, relative_only: bool = True) -> "PresentedAlgebra":
        """Quotient by the d-th power of the ideal generated by the
        relative generators (or by all generators), as a new presentation."""
        if d < 1:
            raise ValueError("truncation degree must be >= 1")
        extra = self.truncation_relations(d, relative_only)
        return PresentedAlgebra(
            self.field,
            self.base_names,
            self.base_relations,
            self.gen_names,
            self.relations + tuple(extra),
            allow_zero=self.allow_zero,
        )

    def to_structure(self) -> "StructureAlgebra":
        """Structure table on the standard monomials, built once.

        Each product of two standard monomials is divided once; the
        packed division of every product that is not itself standard is
        kept for product_cofactors."""
        if self._structure is not None:
            return self._structure
        std = self.std_monomials()
        n = len(std)
        if n == 0:
            raise ValueError("zero ring has no structure table here")
        if std[0] != (0,) * self.nvars:
            raise AssertionError("unit monomial missing from basis")
        f = self.field
        gb = self.groebner()
        index = self.std_index()
        mul = np.zeros((n, n, n), f.dtype)
        self._divisions = {}
        for i in range(n):
            for j in range(i, n):
                mo = mono_mul(std[i], std[j])
                if mo in index:
                    mul[i, j, index[mo]] = mul[j, i, index[mo]] = 1
                    continue
                nf, self._divisions[i, j] = gb.divide({mo: f.one()})
                for m, c in nf.items():
                    mul[i, j, index[m]] = mul[j, i, index[m]] = c
        units = [tuple(int(w == v) for w in range(self.nvars)) for v in range(self.nvars)]
        gen_images = tuple(self._coordinates({mo: f.one()}) for mo in units)
        self._structure = StructureAlgebra(
            f,
            tuple(self.mono_label(m) for m in std),
            mul,
            gen_names=self.names,
            gen_images=gen_images,
            base_names=self.base_names,
            base_images=gen_images[: self.n_base],
        )
        return self._structure

    def product_cofactors(self) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, Monomial], ...], np.ndarray]:
        """Division cofactors of the standard-monomial products that are
        not standard, as (pairs, terms, coeffs): for (i, j) = pairs[q],
        std[i]*std[j] = (normal form) + sum_k coeffs[q, k] * mo * gens[g]
        with (g, mo) = terms[k] and gens = ideal_gens().  Built once from
        the divisions of to_structure, each certificate re-expanded and
        checked."""
        if self._cofactors is None:
            self.to_structure()
            self._cofactors = (tuple(self._divisions), *self._cofactor_table(list(self._divisions.values())))
        return self._cofactors

    def generator_cofactors(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, Monomial], ...], np.ndarray]:
        """The same for the generators that are not standard monomials,
        as (variables, terms, coeffs): x_v = (normal form) + sum_k
        coeffs[q, k] * mo * gens[g] for v = variables[q].  Built once."""
        if self._gen_cofactors is None:
            std = self.std_index()
            divisions = {}
            for v in range(self.nvars):
                mo = tuple(int(w == v) for w in range(self.nvars))
                if mo not in std:
                    divisions[v] = self.groebner().divide({mo: self.field.one()})[1]
            self._gen_cofactors = (tuple(divisions), *self._cofactor_table(list(divisions.values())))
        return self._gen_cofactors

    def _cofactor_table(self, divisions) -> Tuple[Tuple[Tuple[int, Monomial], ...], np.ndarray]:
        """(terms, coeffs) of the certified cofactors of each packed
        division (see GroebnerBasis.divide), one coeffs row per division."""
        terms: dict = {}
        entries = []
        for q, division in enumerate(divisions):
            for g, h in enumerate(self.groebner().certify(division)):
                for mo, c in h.items():
                    entries.append((q, terms.setdefault((g, mo), len(terms)), c))
        coeffs = np.zeros((len(divisions), len(terms)), self.field.dtype)
        for q, k, c in entries:
            coeffs[q, k] = c
        return tuple(terms), self.field.array(coeffs)

    def relation_tensor(self) -> Tuple[np.ndarray, np.ndarray]:
        """(W, D), built once: the relative relations' values in any
        square-zero extension of B by a module J, linear in its fiber
        corrections and its generator offsets.

        Take a table on (basis of B) + (basis of J) whose B block is
        to_structure().mul, on whose fiber B acts through J and which
        squares to zero, with generator images sigma(b_v) + o_v.  Then
        relation r takes the fiber value

            sum_k rho_J(e_k) (sum_ij W[r*s + k, i*s + j] C[i, j])
              + sum_v rho_J(D[r, v*s:(v+1)*s]) o_v,

        C = mul[:s, :s, s:], s = dim B.  W is built like
        ``evaluate_stack``, along the same ``_prefix_chain``, one
        monomial from its prefix with one power of its last variable
        fewer: W_(a+e_v) = W_a L(x_v) + b_a (x) x_v (x) e_0, with L(x_v)
        the multiplication by x_v and b_a = x^a in B; D holds the
        coordinates of df_r/dx_v.  That each relation vanishes in B, so
        that its value lies in the fiber, is asserted here once."""
        if self._relation_tensor is None:
            S = self.to_structure()
            f = self.field
            s = S.dim
            gens = [f.array(v) for v in S.gen_images]
            by_right = S.mul.transpose(1, 0, 2).reshape(s, s * s)
            L = [f.matmul(g, by_right).reshape(s, s) for g in gens]
            memo = {(0,) * self.nvars: (f.array(S.unit_vector()), np.zeros((s * s, s), f.dtype))}
            for a, prefix, v in _prefix_chain([a for r in self.relations for a in r.terms]):
                b, w = memo[prefix]
                w = f.matmul(w, L[v])
                w[:, 0] = f.reduce(w[:, 0] + np.multiply.outer(b, gens[v]).reshape(-1))
                memo[a] = (f.matmul(b, L[v]), w)
            blocks = []
            for r in self.relations:
                b = f.array(S.zero_vector())
                w = np.zeros((s * s, s), f.dtype)
                for a, c in r.terms.items():
                    ba, wa = memo[a]
                    b, w = f.reduce(b + c * ba), f.reduce(w + c * wa)
                if np.any(b):
                    raise AssertionError("relation value escaped the fiber")
                blocks.append(w.T)
            W = np.concatenate(blocks) if blocks else np.zeros((0, s * s), f.dtype)
            D = f.array(
                [[c for v in range(self.nvars) for c in self.coordinates(r.derivative(v))] for r in self.relations]
            ).reshape(len(self.relations), self.nvars * s)
            W.flags.writeable = D.flags.writeable = False
            self._relation_tensor = (W, D)
        return self._relation_tensor

    def __repr__(self):
        rels = ", ".join(p.to_string(self.names) for p in self.relations) or "0"
        if self.base_names:
            base = ", ".join(p.to_string(self.names) for p in self.base_relations) or "0"
            return (
                f"<{self.field.name}[{','.join(self.base_names)}]/({base})"
                f"[{','.join(self.gen_names)}]/({rels})>"
            )
        return f"<{self.field.name}[{','.join(self.gen_names)}]/({rels})>"


def truncate(B: PresentedAlgebra, d: int) -> "StructureAlgebra":
    """Structure table of B modulo the d-th power of the relative
    generators' ideal, with the quotient hom attached."""
    S = B.truncated_presentation(d).to_structure()
    S.truncated_from = B
    S.truncation_degree = d
    return S


def _prefix_chain(monomials) -> List[Tuple[Monomial, Monomial, int]]:
    """Every non-unit monomial that building the given ones needs, as
    (m, prefix, v) in build order: m is its prefix, one power of its
    last variable v fewer, times x_v, and every prefix comes before the
    monomials built from it."""
    out, seen = [], set()
    for m in monomials:
        todo = []
        while any(m) and m not in seen:
            seen.add(m)
            v = len(m) - 1
            while not m[v]:
                v -= 1
            prefix = m[:v] + (m[v] - 1,) + m[v + 1 :]
            todo.append((m, prefix, v))
            m = prefix
        out.extend(reversed(todo))
    return out


def evaluate_stack(field: Field, mul: np.ndarray, polys: Sequence[Polynomial], images: np.ndarray) -> np.ndarray:
    """The values of polys at K image tuples, as a (K, len(polys), n)
    array of canonical scalars.

    images is a (K, nvars, n) field array, one image per variable in
    each tuple; mul is one (n, n, n) table shared by all K tuples or a
    (K, n, n, n) stack, one table per tuple.

    Literal: each monomial is the unit multiplied on the right by its
    variables in ascending order, as a chain of mul_vec calls would; but
    every monomial is its prefix (one power of its last variable fewer)
    times that variable, built once for all polys, and the
    multiplication by each variable that occurs is one (K, n, n) stack
    of matrices, contracted over the images' joint support.  The
    coefficients then combine the monomial values in one product.
    Every product is one ``field.matmul``, exact at every prime and
    over Q."""
    f = field
    K, nvars, n = images.shape
    if any(p.nvars != nvars for p in polys):
        raise ValueError("need one image per variable")
    unit = np.zeros((K, 1, n), f.dtype)
    unit[:, :, 0] = f.one()
    memo = {(0,) * nvars: unit}
    right = {}
    support = (images != 0).any(axis=0)
    for m, prefix, v in _prefix_chain([m for p in polys for m in p.terms]):
        if v not in right:
            # right[v][k, a] = sum_b images[k, v, b] mul[(k,) a, b], over
            # the b where some image is nonzero
            nz = np.flatnonzero(support[v])
            right[v] = f.matmul(images[:, v][:, None, None, nz], mul[..., nz, :]).reshape(K, n, n)
        memo[m] = f.matmul(memo[prefix], right[v])
    monos = {m: k for k, m in enumerate(memo)}
    return f.matmul(_coefficients(f, polys, monos), np.concatenate(list(memo.values()), axis=1))


def _coefficients(field: Field, polys: Sequence[Polynomial], monos: Dict[Monomial, int]) -> np.ndarray:
    """The coefficient matrix of polys as a field array: [i, monos[m]]
    is the coefficient of m in polys[i], for every monomial m they use."""
    coeffs = np.zeros((len(polys), len(monos)), field.dtype)
    for i, p in enumerate(polys):
        for m, c in p.terms.items():
            coeffs[i, monos[m]] = c
    return coeffs


class StructureAlgebra:
    """Finite-dimensional commutative algebra by multiplication table.

    mul[i][j][k] is the e_k coefficient of e_i * e_j; basis element 0 is
    the unit.  mul is read-only: an algebra shares its one table (see
    PresentedAlgebra.to_structure).  Vectors are lists of field scalars.
    """

    def __init__(
        self,
        field: Field,
        labels: Sequence[str],
        mul,
        gen_names: Sequence[str] = None,
        gen_images: Sequence[Sequence[Scalar]] = None,
        base_names: Sequence[str] = (),
        base_images: Sequence[Sequence[Scalar]] = (),
    ):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.mul = field.array(mul)
        self.mul.flags.writeable = False
        if self.mul.shape != (self.dim, self.dim, self.dim):
            raise ValueError("multiplication tensor shape mismatch")
        if gen_names is None:
            # default designated generators: every non-unit basis element
            gen_names = self.labels[1:]
            gen_images = tuple(self.basis_vector(i) for i in range(1, self.dim))
        self.gen_names = tuple(gen_names)
        self.gen_images = tuple(tuple(v) for v in gen_images)
        self.base_names = tuple(base_names)
        self.base_images = tuple(tuple(v) for v in base_images)
        self.truncated_from: Optional[PresentedAlgebra] = None
        self.truncation_degree: Optional[int] = None

    # -- vectors ---------------------------------------------------------

    def zero_vector(self) -> list:
        return [self.field.zero()] * self.dim

    def unit_vector(self) -> list:
        v = self.zero_vector()
        v[0] = self.field.one()
        return v

    def basis_vector(self, i: int) -> list:
        v = self.zero_vector()
        v[i] = self.field.one()
        return v

    def add(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
        f = self.field
        return [f.add(a, b) for a, b in zip(u, v)]

    def sub(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
        f = self.field
        return [f.sub(a, b) for a, b in zip(u, v)]

    def scale(self, c: Scalar, v: Sequence[Scalar]) -> list:
        f = self.field
        return [f.mul(c, a) for a in v]

    def mul_vec(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
        f = self.field
        ua = f.array(u)
        va = f.array(v)
        # contract over the nonzero coordinates only: over Q every term
        # is a Python-object product
        a = np.flatnonzero(ua)
        b = np.flatnonzero(va)
        coef = f.reduce(ua[a, None] * va[b]).reshape(-1)
        return f.matmul(coef, self.mul[a][:, b].reshape(-1, self.dim)).tolist()

    def evaluate_many(self, polys: Sequence[Polynomial], images: Sequence[Sequence[Scalar]]) -> np.ndarray:
        """The values of polys at algebra elements, one per variable, as
        a (len(polys), dim) array: the K = 1 case of ``evaluate_stack``."""
        imgs = self.field.array(images).reshape(1, len(images), self.dim)
        return evaluate_stack(self.field, self.mul, polys, imgs)[0]

    def evaluate(self, p: Polynomial, images: Sequence[Sequence[Scalar]]) -> list:
        """The value of one polynomial, as canonical scalars."""
        return self.evaluate_many([p], images)[0].tolist()

    def mul_entry(self, i: int, j: int) -> list:
        return self.mul[i, j].tolist()

    def __repr__(self):
        return f"<StructureAlgebra dim {self.dim} over {self.field.name}>"


class FiniteModule:
    """Finite-dimensional module over a presented algebra: one action
    matrix per flattened generator."""

    def __init__(self, owner: PresentedAlgebra, labels: Sequence[str], mats: Sequence[Matrix]):
        self.owner = owner
        self.labels = tuple(labels)
        self.mats = tuple(mats)
        bad = [l for l in self.labels if not isinstance(l, str)]
        if bad:
            raise TypeError(f"module basis labels must be strings, got {bad!r}")
        self._monomial_actions = {}  # exponent tuple -> Matrix, see monomial_action
        self._action_block: Optional[np.ndarray] = None  # see action_block
        t = len(self.labels)
        for m in self.mats:
            if m.nrows != t or m.ncols != t:
                raise ValueError("action matrix shape mismatch")

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def field(self) -> Field:
        return self.owner.field

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_matrices(cls, B: PresentedAlgebra, labels, mats) -> "FiniteModule":
        return cls(B, labels, [m if isinstance(m, Matrix) else Matrix.from_rows(B.field, m) for m in mats])

    @classmethod
    def trivial(cls, B: PresentedAlgebra, label: str = "j0") -> "FiniteModule":
        """The residue module k at the origin: every generator acts by
        zero.  It is a B-module only when no relation has a constant
        term; one that has is refused with validate's finding."""
        bad = [
            f"relation {r.to_string(B.names)} acts nontrivially"
            for r in B.ideal_gens()
            if not B.field.is_zero(r.terms.get((0,) * B.nvars, B.field.zero()))
        ]
        if bad:
            raise ValueError(f"the residue field at the origin is not a module over B: {bad}")
        z = Matrix.zeros(B.field, 1, 1)
        return cls(B, (label,), tuple(z for _ in range(B.nvars)))

    @classmethod
    def regular(cls, B: PresentedAlgebra) -> "FiniteModule":
        """B as a module over itself (finite-dimensional B only): column
        m of the action of x_v holds the coordinates of the monomial
        x_v * m."""
        return cls(B, *_regular_action(B))

    @classmethod
    def truncated_regular(cls, B: PresentedAlgebra, d: int) -> "FiniteModule":
        """B / (all generators)^d as a B-module: the regular action of
        that quotient, on its own presentation, given to B."""
        return cls(B, *_regular_action(B.truncated_presentation(d, relative_only=False)))

    # -- action ------------------------------------------------------------

    def action_of_poly(self, p: Polynomial) -> Matrix:
        a, den = self.action_ints([p])
        return Matrix(self.field, self.rank, self.rank, a[0], den)

    def action_stack(self, polys: Sequence[Polynomial]) -> np.ndarray:
        """The actions of polys, as a (len(polys), t, t) field array."""
        return self.field.scalars(*self.action_ints(polys))

    def action_ints(self, polys: Sequence[Polynomial]) -> Tuple[np.ndarray, int]:
        """The actions of polys in integer storage (see ``fields``): a
        (len(polys), t, t) integer array over one denominator, from one
        product of their coefficient matrix with the stacked memoized
        actions of the monomials they use."""
        f, t = self.field, self.rank
        if any(p.nvars != self.owner.nvars for p in polys):
            raise ValueError("polynomial not in the flattened ring")
        monos = {m: k for k, m in enumerate(dict.fromkeys(m for p in polys for m in p.terms))}
        coeffs, cden = f.ints(_coefficients(f, polys, monos))
        acts = [self.monomial_action(m) for m in monos]
        den = lcm(*(w._den for w in acts))
        blocks = [w._a if w._den == den else int_scale(w._a, den // w._den) for w in acts]
        stack = np.array(blocks) if blocks else np.zeros((0, t, t), np.int64)
        prod = f.int_matmul(coeffs, stack.reshape(len(monos), t * t)).reshape(len(polys), t, t)
        return f.lowest(prod, cden * den)

    def monomial_action(self, m: tuple) -> Matrix:
        """Action of the monomial with exponents m, memoized: mats[v]
        times the action of m with one power of x_v fewer, v its last
        variable, so the product is mats[n-1]^e ... mats[0]^e in that
        order whether or not the matrices commute."""
        w = self._monomial_actions.get(m)
        if w is None:
            v = max((i for i, e in enumerate(m) if e), default=None)
            if v is None:
                w = Matrix.identity(self.field, self.rank)
            else:
                w = self.mats[v].mul(self.monomial_action(m[:v] + (m[v] - 1,) + m[v + 1 :]))
            self._monomial_actions[m] = w
        return w

    def action_block(self) -> np.ndarray:
        """(s, t, t) array over the owner's standard monomials, built
        once and read-only: [i, b] is the action of the i-th standard
        monomial on the b-th basis vector."""
        if self._action_block is None:
            t = self.rank
            rows = [self.monomial_action(mo).transpose().to_rows() for mo in self.owner.std_monomials()]
            block = self.field.array(rows).reshape(len(rows), t, t)
            block.flags.writeable = False
            self._action_block = block
        return self._action_block

    def basis_action_tensor(self, S: StructureAlgebra) -> np.ndarray:
        """Action of each basis element of S on this module, as an
        int64 tensor for the scan kernels (prime fields only): [i, l, b]
        is the l-th coordinate of basis element i acting on the b-th
        basis vector."""
        if not isinstance(self.field, PrimeField):
            raise TypeError("tensor form only exists over prime fields")
        if S is not self.owner.to_structure():
            raise ValueError("structure algebra was not built from this module's owner")
        return np.ascontiguousarray(self.action_block().transpose(0, 2, 1))

    def __repr__(self):
        return f"<FiniteModule rank {self.rank} over {self.owner!r}>"


def _regular_action(A: PresentedAlgebra) -> Tuple[Tuple[str, ...], List[Matrix]]:
    """(labels, mats) of A acting on itself: the standard monomials, and
    for each generator x_v the matrix whose column m holds the
    coordinates of x_v * m."""
    std = A.std_monomials()
    one = A.field.one()
    mats = []
    for v in range(A.nvars):
        cols = [A._coordinates({m[:v] + (m[v] + 1,) + m[v + 1 :]: one}) for m in std]
        mats.append(Matrix.from_cols(A.field, cols, nrows=len(std)))
    return tuple(A.mono_label(m) for m in std), mats


@dataclass
class AlgebraHom:
    """Algebra map from a presented algebra, given by one image per
    flattened generator (base first).  Images are polynomials when the
    target is presented, coordinate vectors when the target is a
    structure algebra.
    """

    source: PresentedAlgebra
    target: Union[PresentedAlgebra, StructureAlgebra]
    images: tuple

    def __post_init__(self):
        if not isinstance(self.source, PresentedAlgebra):
            raise TypeError("the source must be a presented algebra")
        self.images = tuple(
            tuple(v) if not isinstance(v, Polynomial) else v for v in self.images
        )

    def apply_poly(self, p: Polynomial):
        """Image of a flattened-ring polynomial of the source."""
        if isinstance(self.target, PresentedAlgebra):
            imgs = [im if isinstance(im, Polynomial) else None for im in self.images]
            return self.target.normal_form(p.substitute(imgs))
        return self.target.evaluate(p, [list(im) for im in self.images])

    def validate(self) -> List[str]:
        if len(self.images) != self.source.nvars:
            return ["wrong number of generator images"]
        rels = self.source.ideal_gens()
        if isinstance(self.target, StructureAlgebra):
            bad = self.target.evaluate_many(rels, self.images).any(axis=1).tolist()
        else:
            bad = [not self.apply_poly(r).is_zero() for r in rels]
        out = [f"relation {r.to_string(self.source.names)} does not map to zero" for r, b in zip(rels, bad) if b]
        out.extend(self._base_compat())
        return out

    def _base_compat(self) -> List[str]:
        B, T = self.source, self.target
        if not B.base_names:
            return []
        if T.base_names != B.base_names:
            return ["target does not declare the same base ring"]
        structure = isinstance(T, StructureAlgebra)
        out = []
        for v in range(B.n_base):
            im = self.images[v]
            same = tuple(im) == T.base_images[v] if structure else T.normal_form(im - T.var(v)).is_zero()
            if not same:
                out.append(f"base generator {B.base_names[v]} is not sent to its canonical image")
        return out

    def is_valid(self) -> bool:
        return not self.validate()


def compose(f: AlgebraHom, g: AlgebraHom) -> AlgebraHom:
    """compose(f, g) applies f first: the result maps x to g(f(x))."""
    if f.target is not g.source:
        raise ValueError("compose needs f.target to be g.source")
    return AlgebraHom(f.source, g.target, tuple(g.apply_poly(im) for im in f.images))


def validate(obj) -> List[str]:
    """Structural soundness report: empty list means no findings."""
    if isinstance(obj, PresentedAlgebra):
        out = []
        if obj.is_zero_ring() and not obj.allow_zero:
            out.append("flattened ideal contains 1 (zero ring not flagged as intended)")
        for r in obj.relations:
            if not obj.normal_form(r).is_zero():
                out.append("relation does not reduce to zero in its own quotient")
        return out
    if isinstance(obj, StructureAlgebra):
        return table_findings(obj.field, obj.mul)[0]
    if isinstance(obj, FiniteModule):
        return _validate_module(obj)
    if isinstance(obj, AlgebraHom):
        return obj.validate()
    raise TypeError(f"cannot validate {type(obj).__name__}")


# entries of one batch of the associativity products: a bound on the
# temporaries of table_findings, whatever the number of tables
_ASSOC_BATCH = 2**13


def table_findings(field: Field, mul: np.ndarray) -> List[List[str]]:
    """Structural findings of each multiplication table of a stack
    (..., n, n, n), in the order of its leading axes: the unit,
    commutativity and associativity checks of validate, as array
    compares and batched products over the whole stack."""
    f = field
    n = mul.shape[-1]
    tabs = mul.reshape(int(np.prod(mul.shape[:-3])), n, n, n)
    ident = f.array(np.eye(n, dtype=np.int64))
    left = (tabs[:, 0] == ident).all(axis=(1, 2))
    right = (tabs[:, :, 0] == ident).all(axis=(1, 2))
    comm = (tabs == tabs.transpose(0, 2, 1, 3)).all(axis=(1, 2, 3))
    # (e_i e_j) e_k and e_i (e_j e_k), both indexed [table, i, j, k, l]
    assoc = np.ones(len(tabs), bool)
    step = max(1, _ASSOC_BATCH // n**4)
    for lo in range(0, len(tabs), step):
        T = tabs[lo : lo + step]
        flat = T.reshape(-1, n * n, n)
        lhs = f.matmul(flat, T.reshape(-1, n, n * n)).reshape(-1, n, n, n, n)
        rhs = f.matmul(flat, T.transpose(0, 2, 1, 3).reshape(-1, n, n * n)).reshape(-1, n, n, n, n)
        assoc[lo : lo + step] = (lhs == rhs.transpose(0, 3, 1, 2, 4)).all(axis=(1, 2, 3, 4))
    checks = (
        (left, "basis element 0 is not a left unit"),
        (right, "basis element 0 is not a right unit"),
        (comm, "multiplication is not commutative"),
        (assoc, "multiplication is not associative"),
    )
    return [[msg for ok, msg in checks if not ok[k]] for k in range(len(tabs))]


def _validate_module(J: FiniteModule) -> List[str]:
    out = []
    B = J.owner
    for v in range(B.nvars):
        for w in range(v + 1, B.nvars):
            if J.mats[v].mul(J.mats[w]) != J.mats[w].mul(J.mats[v]):
                out.append(f"actions of {B.names[v]} and {B.names[w]} do not commute")
    for r, action in zip(B.ideal_gens(), J.action_stack(B.ideal_gens())):
        if action.any():
            out.append(f"relation {r.to_string(B.names)} acts nontrivially")
    return out
