"""Buchberger engine for ideals and submodules of free modules, with
cofactor tracking and Schreyer syzygies.

Everything runs at module level internally: a vector in P^c is a dict
from (component, monomial) to coefficient, ordered term-over-position
(ring order on the monomial, ties broken toward the earlier component).
Ring polynomials are the c = 1 case.  The working basis is kept monic.

Division (``_v_divmod``) keeps the pending terms in a heap and reduces
the largest one each step by the first basis element, among those of
its component, whose leading term divides it: the reduction order of
"take the max over what is left", at a heap pop per step.  A basis
carries its division data (vectors and leading terms), built once.  The
engine builds the cofactors of an S-pair only when its remainder is
nonzero and joins the basis; most pairs reduce to zero.

``prune_generators`` keeps, of a family of candidate vectors, those
needed beside a fixed family to generate the same submodule: one engine
is seeded with the fixed vectors, and each candidate in (degree, index)
order either reduces to zero against the current basis, and is dropped
with its cofactors re-expanded and checked exactly, or joins the basis.

Correctness notes baked into the code:
  * the product (coprime-lcm) criterion is applied only to ring-level
    pairs; it is not sound for module pairs sharing a leading component;
  * the chain criterion is applied in both settings, with the strict
    lcm inequalities that prevent circular skipping;
  * the syzygy pass reduces every same-component pair of the final
    reduced basis and skips nothing, since a skipped pair would silently
    drop a syzygy generator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .fields import Field, Scalar
from .poly import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

VTerm = Tuple[int, Monomial]
VDict = Dict[VTerm, Scalar]
QDict = Dict[Monomial, Scalar]


def _vkey(order: MonomialOrder):
    def key(t: VTerm):
        return (order.key(t[1]), -t[0])

    return key


def _v_is_zero(v: VDict) -> bool:
    return not v


def _v_shift_diff(field: Field, a: VDict, sa: Monomial, b: VDict, sb: Monomial) -> VDict:
    """x^sa * a - x^sb * b."""
    out = {(comp, mono_mul(sa, m)): c for (comp, m), c in a.items()}
    _v_sub_into(field, out, {(comp, mono_mul(sb, m)): c for (comp, m), c in b.items()})
    return out


def _v_sub_into(field: Field, acc: VDict, v: VDict) -> None:
    for t, c in v.items():
        cur = acc.get(t)
        nc = field.neg(c) if cur is None else field.sub(cur, c)
        if field.is_zero(nc):
            acc.pop(t, None)
        else:
            acc[t] = nc


def _v_mul_poly(field: Field, v: VDict, q: QDict) -> VDict:
    out: VDict = {}
    for (comp, m), c in v.items():
        for qm, qc in q.items():
            t = (comp, mono_mul(m, qm))
            cur = out.get(t)
            nc = field.mul(c, qc)
            nc = nc if cur is None else field.add(cur, nc)
            if field.is_zero(nc):
                out.pop(t, None)
            else:
                out[t] = nc
    return out


def _v_combine(field: Field, quots: Sequence[QDict], vecs: Sequence[VDict]) -> VDict:
    """sum_k quots[k] * vecs[k]."""
    out: VDict = {}
    for q, v in zip(quots, vecs):
        if q:
            _v_sub_into(field, out, _v_mul_poly(field, v, {m: field.neg(c) for m, c in q.items()}))
    return out


def _v_split(v: VDict, ncomp: int) -> List[QDict]:
    """The components of v, as ring polynomials."""
    out: List[QDict] = [dict() for _ in range(ncomp)]
    for (comp, m), c in v.items():
        out[comp][m] = c
    return out


def _v_divmod(
    field: Field, v: VDict, basis: Sequence[VDict], leads: Sequence[VTerm], order: MonomialOrder
) -> Tuple[VDict, List[QDict]]:
    """Full division of v by a monic basis: (normal form, quotients).

    Deterministic: always reduces the currently largest term, choosing
    the first basis element whose leading term divides it.  Pending
    terms sit in a heap keyed by the descending order, with lazy
    deletion: a popped term no longer in ``work`` was cancelled.  Every
    term that a reduction step creates is smaller than the term it
    reduces, so a term once popped never comes back.
    """
    rkey = order.rkey
    by_comp: Dict[int, List[Tuple[int, Monomial]]] = {}
    for idx, (lc, lm) in enumerate(leads):
        by_comp.setdefault(lc, []).append((idx, lm))
    work = dict(v)
    heap = [(rkey(m), c, m) for c, m in work]
    heapq.heapify(heap)
    nf: VDict = {}
    quots: List[QDict] = [dict() for _ in basis]
    add, mul, is_zero = field.add, field.mul, field.is_zero
    while heap:
        _, comp, mono = heapq.heappop(heap)
        t = (comp, mono)
        coeff = work.pop(t, None)
        if coeff is None:
            continue
        for hit, lm in by_comp.get(comp, ()):
            if mono_divides(lm, mono):
                break
        else:
            nf[t] = coeff
            continue
        shift = mono_div(mono, lm)
        quots[hit][shift] = coeff  # terms only decrease: no shift comes twice
        # work -= coeff * x^shift * basis[hit], whose lead cancels t
        neg = field.neg(coeff)
        for (bc, bm), bcoeff in basis[hit].items():
            if bm == lm and bc == comp:
                continue
            m = mono_mul(shift, bm)
            u = (bc, m)
            c = mul(neg, bcoeff)
            cur = work.get(u)
            if cur is None:
                work[u] = c
                heapq.heappush(heap, (rkey(m), bc, m))
            elif is_zero(c := add(cur, c)):
                del work[u]
            else:
                work[u] = c
    return nf, quots


class _Engine:
    """Tracked module-level Buchberger + interreduction."""

    def __init__(self, field: Field, nvars: int, ncomp: int, order: MonomialOrder):
        self.field = field
        self.nvars = nvars
        self.ncomp = ncomp
        self.order = order
        self.basis: List[VDict] = []
        self.leads: List[VTerm] = []
        self.reps: List[VDict] = []  # basis[i] as combination of original gens
        self.pairs: list = []
        self.done: set = set()

    def _push_pairs(self, j: int) -> None:
        cj, mj = self.leads[j]
        for i in range(j):
            ci, mi = self.leads[i]
            if ci != cj:
                continue
            if self.ncomp == 1 and mono_coprime(mi, mj):
                self.done.add((i, j))
                continue
            lcm = mono_lcm(mi, mj)
            heapq.heappush(self.pairs, (self.order.key(lcm), i, j, lcm))

    def add(self, v: VDict, rep: VDict) -> None:
        if _v_is_zero(v):
            return
        key = _vkey(self.order)
        lt = max(v, key=key)
        lc = v[lt]
        inv = self.field.inv(lc)
        v = {t: self.field.mul(inv, c) for t, c in v.items()}
        rep = {t: self.field.mul(inv, c) for t, c in rep.items()}
        self.basis.append(v)
        self.leads.append(lt)
        self.reps.append(rep)
        self._push_pairs(len(self.basis) - 1)

    def seed(self, gens_v: Sequence[VDict]) -> None:
        unit = (0,) * self.nvars
        for i, g in enumerate(gens_v):
            self.add(dict(g), {(i, unit): self.field.one()})

    def _chain_skip(self, i: int, j: int, lcm: Monomial) -> bool:
        comp = self.leads[i][0]
        for k in range(len(self.basis)):
            if k == i or k == j:
                continue
            ck, mk = self.leads[k]
            if ck != comp or not mono_divides(mk, lcm):
                continue
            lik = mono_lcm(self.leads[i][1], mk)
            ljk = mono_lcm(self.leads[j][1], mk)
            if lik == lcm or ljk == lcm:
                continue
            if (min(i, k), max(i, k)) in self.done and (min(j, k), max(j, k)) in self.done:
                return True
        return False

    def run(self) -> None:
        f = self.field
        while self.pairs:
            _, i, j, lcm = heapq.heappop(self.pairs)
            if (i, j) in self.done:
                continue
            self.done.add((i, j))
            if self._chain_skip(i, j, lcm):
                continue
            si = mono_div(lcm, self.leads[i][1])
            sj = mono_div(lcm, self.leads[j][1])
            s = _v_shift_diff(f, self.basis[i], si, self.basis[j], sj)
            nf, quots = _v_divmod(f, s, self.basis, self.leads, self.order)
            if _v_is_zero(nf):
                continue
            # the cofactors of a new basis element; most S-pairs reduce to zero
            rep = _v_shift_diff(f, self.reps[i], si, self.reps[j], sj)
            _v_sub_into(f, rep, _v_combine(f, quots, self.reps))
            self.add(nf, rep)

    def interreduce(self) -> None:
        f = self.field
        key = _vkey(self.order)
        idx = sorted(range(len(self.basis)), key=lambda i: (key(self.leads[i]), i))
        kept: List[int] = []
        for i in idx:
            ci, mi = self.leads[i]
            if any(
                self.leads[k][0] == ci and mono_divides(self.leads[k][1], mi) for k in kept
            ):
                continue
            kept.append(i)
        basis = [self.basis[i] for i in kept]
        leads = [self.leads[i] for i in kept]
        reps = [self.reps[i] for i in kept]
        for pos in range(len(basis)):
            others = basis[:pos] + basis[pos + 1 :]
            oleads = leads[:pos] + leads[pos + 1 :]
            nf, quots = _v_divmod(f, basis[pos], others, oleads, self.order)
            rep = reps[pos]
            _v_sub_into(f, rep, _v_combine(f, quots, reps[:pos] + reps[pos + 1 :]))
            basis[pos] = nf
            reps[pos] = rep
        self.basis = basis
        self.leads = leads
        self.reps = reps

    def divide_gens(self, gens_v: Sequence[VDict]) -> List[List[QDict]]:
        out = []
        for g in gens_v:
            nf, quots = _v_divmod(self.field, g, self.basis, self.leads, self.order)
            if not _v_is_zero(nf):
                raise AssertionError("generator does not reduce to zero against its own basis")
            out.append(quots)
        return out

    def schreyer(self) -> List[VDict]:
        """Syzygies of the final basis, one candidate per same-component
        pair, each fully reduced; no pair criteria applied here."""
        f = self.field
        n = len(self.basis)
        out: List[VDict] = []
        for i in range(n):
            ci, mi = self.leads[i]
            for j in range(i + 1, n):
                cj, mj = self.leads[j]
                if ci != cj:
                    continue
                lcm = mono_lcm(mi, mj)
                si = mono_div(lcm, mi)
                sj = mono_div(lcm, mj)
                s = _v_shift_diff(f, self.basis[i], si, self.basis[j], sj)
                nf, quots = _v_divmod(f, s, self.basis, self.leads, self.order)
                if not _v_is_zero(nf):
                    raise AssertionError("S-vector of a Groebner basis fails to reduce to zero")
                syz: VDict = {(i, si): f.one()}
                _v_sub_into(f, syz, {(j, sj): f.one()})
                for k, q in enumerate(quots):
                    if q:
                        _v_sub_into(f, syz, {(k, m): c for m, c in q.items()})
                if not _v_is_zero(syz):
                    out.append(syz)
        return out


# ---------------------------------------------------------------------------
# polynomial-facing API


def _poly_to_v(p: Polynomial, comp: int = 0) -> VDict:
    return {(comp, m): c for m, c in p.terms.items()}


def _vec_to_v(vec: Sequence[Polynomial]) -> VDict:
    out: VDict = {}
    for comp, p in enumerate(vec):
        for m, c in p.terms.items():
            out[(comp, m)] = c
    return out


def _v_to_vec(v: VDict, field: Field, nvars: int, ncomp: int) -> List[Polynomial]:
    return [Polynomial(field, nvars, b) for b in _v_split(v, ncomp)]


def _q_to_poly(q: QDict, field: Field, nvars: int) -> Polynomial:
    return Polynomial(field, nvars, dict(q))


def _division_data(vb: List[VDict], order: MonomialOrder) -> Tuple[List[VDict], List[VTerm]]:
    """(basis vectors, their leading terms): what _v_divmod divides by,
    built once per basis."""
    return vb, [max(v, key=_vkey(order)) for v in vb]


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic basis plus the transformation data both ways:
    basis[j] = sum_i to_gens[j][i] * gens[i] and
    gens[i]  = sum_j from_gens[i][j] * basis[j]."""

    field: Field
    nvars: int
    order: MonomialOrder
    gens: Tuple[Polynomial, ...]
    basis: Tuple[Polynomial, ...]
    to_gens: Tuple[Tuple[Polynomial, ...], ...]
    from_gens: Tuple[Tuple[Polynomial, ...], ...]

    @cached_property
    def _division(self) -> Tuple[List[VDict], List[VTerm]]:
        return _division_data([_poly_to_v(b) for b in self.basis], self.order)

    def contains_one(self) -> bool:
        return any(p.is_constant() and not p.is_zero() for p in self.basis)

    def leading_monomials(self) -> List[Monomial]:
        return [p.leading_term(self.order)[0] for p in self.basis]


@dataclass(frozen=True)
class ModuleGroebnerBasis:
    field: Field
    nvars: int
    ncomp: int
    order: MonomialOrder
    basis: Tuple[Tuple[Polynomial, ...], ...]

    @cached_property
    def _division(self) -> Tuple[List[VDict], List[VTerm]]:
        return _division_data([_vec_to_v(b) for b in self.basis], self.order)

    def normal_form(self, vec: Sequence[Polynomial]) -> List[Polynomial]:
        nf, _ = _v_divmod(self.field, _vec_to_v(vec), *self._division, self.order)
        return _v_to_vec(nf, self.field, self.nvars, self.ncomp)

    def contains(self, vec: Sequence[Polynomial]) -> bool:
        return all(p.is_zero() for p in self.normal_form(vec))


@dataclass(frozen=True)
class SyzygyMatrix:
    """Columns generate the syzygy module of the input tuple."""

    field: Field
    nvars: int
    gens: Tuple[Tuple[Polynomial, ...], ...]
    columns: Tuple[Tuple[Polynomial, ...], ...]


def _context(polys: Sequence[Polynomial]):
    first = polys[0]
    for p in polys:
        if p.field != first.field or p.nvars != first.nvars:
            raise ValueError("mixed fields or variable counts")
    return first.field, first.nvars


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced monic Groebner basis with cofactors both ways.

    The reduced basis is unique for a fixed order, so the output is
    independent of the generator order (the transformation data is not,
    since it refers to the input tuple)."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator (possibly zero)")
    field, nvars = _context(gens)
    eng = _Engine(field, nvars, 1, order)
    eng.seed([_poly_to_v(g) for g in gens])
    eng.run()
    eng.interreduce()
    vdivs = eng.divide_gens([_poly_to_v(g) for g in gens])
    basis = tuple(_v_to_vec(v, field, nvars, 1)[0] for v in eng.basis)
    to_gens = tuple(
        tuple(_v_to_vec(rep, field, nvars, len(gens))) for rep in eng.reps
    )
    from_gens = tuple(
        tuple(_q_to_poly(q, field, nvars) for q in quots) for quots in vdivs
    )
    return GroebnerBasis(field, nvars, order, tuple(gens), basis, to_gens, from_gens)


def module_groebner(
    vecs: Sequence[Sequence[Polynomial]], ncomp: int, order: MonomialOrder = GREVLEX
) -> ModuleGroebnerBasis:
    vecs = [list(v) for v in vecs]
    if not vecs:
        raise ValueError("need at least one vector")
    field, nvars = _context([p for v in vecs for p in v])
    eng = _Engine(field, nvars, ncomp, order)
    eng.seed([_vec_to_v(v) for v in vecs])
    eng.run()
    eng.interreduce()
    basis = tuple(tuple(_v_to_vec(v, field, nvars, ncomp)) for v in eng.basis)
    return ModuleGroebnerBasis(field, nvars, ncomp, order, basis)


def _divide(f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder]):
    """(basis, normal form, quotient dicts) of f divided by gb, which is
    built from generators first when it is not a GroebnerBasis."""
    if not isinstance(gb, GroebnerBasis):
        gb = buchberger(list(gb), order or GREVLEX)
    nf, quots = _v_divmod(gb.field, _poly_to_v(f), *gb._division, gb.order)
    return gb, _v_to_vec(nf, gb.field, gb.nvars, 1)[0], quots


def normal_form(f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder] = None) -> Polynomial:
    """Canonical representative of f modulo the ideal; the quotients of
    the division are dropped as dicts, never built as polynomials."""
    return _divide(f, gb, order)[1]


def normal_form_quotients(
    f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder] = None
) -> Tuple[Polynomial, List[Polynomial]]:
    """(normal form, quotients over gb.basis): f = sum q_j basis_j + nf."""
    gb, nf, quots = _divide(f, gb, order)
    return nf, [_q_to_poly(q, gb.field, gb.nvars) for q in quots]


def ideal_member(
    f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder] = None
) -> Tuple[bool, Optional[List[Polynomial]]]:
    """Membership with certificate: cofactors over the *original*
    generators, re-expanded and checked exactly before returning."""
    if not isinstance(gb, GroebnerBasis):
        gb = buchberger(list(gb), order or GREVLEX)
    nf, quots = normal_form_quotients(f, gb)
    if not nf.is_zero():
        return False, None
    return True, certified_cofactors(f, gb, nf, quots)


def certified_cofactors(f: Polynomial, gb: GroebnerBasis, nf: Polynomial, quots: Sequence[Polynomial]) -> List[Polynomial]:
    """Cofactors over gb.gens of the division f = nf + sum_j quots_j basis_j:
    f = nf + sum_i cof_i gens_i, re-expanded and checked exactly."""
    cof = [Polynomial.zero(gb.field, gb.nvars) for _ in gb.gens]
    for j, q in enumerate(quots):
        if q.is_zero():
            continue
        for i, u in enumerate(gb.to_gens[j]):
            if not u.is_zero():
                cof[i] = cof[i] + q * u
    check = nf
    for c, g in zip(cof, gb.gens):
        check = check + c * g
    if check != f:
        raise AssertionError("division certificate failed to re-expand")
    return cof


def _syzygies_raw(
    gens_v: List[VDict], ncomp: int, field: Field, nvars: int, order: MonomialOrder
) -> List[VDict]:
    eng = _Engine(field, nvars, ncomp, order)
    eng.seed(gens_v)
    eng.run()
    eng.interreduce()
    ngens = len(gens_v)
    out: List[VDict] = []
    for sig in eng.schreyer():
        tau: VDict = {}
        _v_sub_into(field, tau, _v_combine(field, _v_split(sig, len(eng.reps)), eng.reps))
        if not _v_is_zero(tau):
            out.append(tau)
    # rows of I - V.U catch generators that collapsed into the basis
    vdivs = eng.divide_gens(gens_v)
    unit = (0,) * nvars
    for i in range(ngens):
        row: VDict = {(i, unit): field.one()}
        _v_sub_into(field, row, _v_combine(field, vdivs[i], eng.reps))
        if not _v_is_zero(row):
            out.append(row)
    # deterministic presentation: drop duplicates, sort canonically
    seen = set()
    uniq = []
    for v in out:
        k = tuple(sorted(v.items()))
        if k not in seen:
            seen.add(k)
            uniq.append(v)
    uniq.sort(key=lambda v: tuple(sorted(v.items())))
    return uniq


def syzygy_basis(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> SyzygyMatrix:
    """Generators of {(h_1..h_r) : sum h_i gens_i = 0} as columns."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    field, nvars = _context(gens)
    raw = _syzygies_raw([_poly_to_v(g) for g in gens], 1, field, nvars, order)
    cols = tuple(tuple(_v_to_vec(v, field, nvars, len(gens))) for v in raw)
    return SyzygyMatrix(field, nvars, tuple((g,) for g in gens), cols)


def module_syzygies(
    vecs: Sequence[Sequence[Polynomial]], ncomp: int, order: MonomialOrder = GREVLEX
) -> List[List[Polynomial]]:
    """Generators of the syzygy module of a tuple of vectors in P^ncomp."""
    vecs = [list(v) for v in vecs]
    if not vecs:
        return []
    field, nvars = _context([p for v in vecs for p in v])
    raw = _syzygies_raw([_vec_to_v(v) for v in vecs], ncomp, field, nvars, order)
    return [_v_to_vec(v, field, nvars, len(vecs)) for v in raw]


def _certify(field: Field, cof: VDict, gens_v: Sequence[VDict], target: VDict) -> None:
    """Re-expand cofactors over gens_v and compare with target exactly."""
    if _v_combine(field, _v_split(cof, len(gens_v)), gens_v) != target:
        raise AssertionError("prune certificate failed to re-expand")


def prune_generators(
    fixed: Sequence[Sequence[Polynomial]],
    candidates: Sequence[Sequence[Polynomial]],
    ncomp: int,
    order: MonomialOrder = GREVLEX,
) -> List[int]:
    """Indices, ascending, of candidates that generate together with the
    fixed vectors the submodule that all of them generate.

    One incremental module Groebner basis, seeded with the fixed vectors:
    the candidates are taken by (degree, index); one that does not reduce
    to zero is kept and joins the basis, one that does is dropped, and its
    cofactors over fixed and kept are re-expanded and checked exactly."""
    if not candidates:
        return []
    field, nvars = _context([p for v in [*fixed, *candidates] for p in v])
    gens = [_vec_to_v(v) for v in fixed]
    cands = [_vec_to_v(v) for v in candidates]
    eng = _Engine(field, nvars, ncomp, order)
    eng.seed(gens)
    eng.run()
    unit = (0,) * nvars
    kept: List[int] = []
    for k in sorted(range(len(cands)), key=lambda k: (max((sum(m) for _, m in cands[k]), default=0), k)):
        nf, quots = _v_divmod(field, cands[k], eng.basis, eng.leads, order)
        if _v_is_zero(nf):
            _certify(field, _v_combine(field, quots, eng.reps), gens, cands[k])
            continue
        eng.add(cands[k], {(len(gens), unit): field.one()})
        gens.append(cands[k])
        kept.append(k)
        eng.run()
    return sorted(kept)
