"""Buchberger engine for ideals and submodules of free modules, with
cofactor tracking and Schreyer syzygies.

Everything runs at module level internally: a vector in P^c is a dict
from term to coefficient, ordered term-over-position (ring order on the
monomial, ties broken toward the earlier component).  Ring polynomials
are the c = 1 case.  The working basis is kept monic.

Terms are packed exponent vectors (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
2007).  A term x^m e_comp is one Python int; a ``_Pack`` holds the
layout for one (nvars, order), from the high bits down:

  * the order key, a list of linear forms in the exponents.  For grevlex
    (variables taken in the order's priority, y_0 most significant) it
    is the degree, then y_0 + .. + y_(i-1) for i = n-1 down to 2; for lex
    it is empty;
  * the exponents y_0, .., y_(n-1), most significant first;
  * CMASK - comp in the low COMP_BITS bits.

Each field of the key and of the exponents is FIELD_BITS wide: value
bits and a guard bit on top, which a valid term keeps clear.  Every
field is linear in the exponents, so x^s * t is the integer sum s + t
(a shift s has zero low bits), and comparing two terms as integers is
comparing them in the term-over-position order.  The lead L divides
the term T, component included, exactly when (T - L) & DIVMASK == 0,
where DIVMASK holds the exponent guard bits and the component bits: a
field of T below that of L borrows, which sets its guard bit, and a
component mismatch leaves the low bits nonzero.  When the test holds,
T - L is the packed shift.

Overflow rule: packing refuses (OverflowError) an exponent or, for a
graded order, a degree above MAX_EXPONENT, and a component above CMASK.
The sum of two valid terms is still exact, with at most a guard bit set,
so every sum that can grow past the degrees of its inputs (S-vectors,
cofactor combinations, lcms, division steps under lex) is checked
against the guard mask before it is used again.  Under grevlex a
division step never raises a field above the degree of the term it
reduces; its check never fires, and nothing ever wraps.  Polynomials
keep tuple monomials; terms are packed and unpacked at the API below.

Division (``_v_divmod``) keeps the pending terms in a heap of negated
ints and reduces the largest one each step by the first basis element,
among those of its component, whose leading term divides it: the
reduction order of "take the max over what is left", at a heap pop per
step.  A basis carries its division data (leading terms, tails and the
pack), built once.  The engine builds the cofactors of an S-pair only
when its remainder is nonzero and joins the basis; most pairs reduce to
zero.

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
import operator
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .fields import Field, Scalar
from .poly import GREVLEX, Monomial, MonomialOrder, Polynomial, mono_coprime, mono_lcm

FIELD_BITS = 16  # two bytes: see _Pack.exponents
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
COMP_BITS = 16
CMASK = (1 << COMP_BITS) - 1

VDict = Dict[int, Scalar]  # packed term -> coefficient
QDict = Dict[int, Scalar]  # packed shift (zero low bits) -> coefficient
Tail = Tuple[Tuple[int, Scalar], ...]


class _Pack:
    """The packed term layout for one (nvars, order); see the module doc."""

    __slots__ = ("nvars", "graded", "units", "guard", "divmask", "expmask", "_unpack", "_where")

    def __init__(self, nvars: int, order: MonomialOrder):
        prio = order.perm if order.perm is not None else tuple(range(nvars))
        self.nvars = nvars
        self.graded = order.kind == "grevlex"
        key = [prio, *(prio[:i] for i in range(nvars - 1, 1, -1))] if self.graded else []
        fields = key + [(v,) for v in prio]  # most significant first
        at = [COMP_BITS + FIELD_BITS * (len(fields) - 1 - f) for f in range(len(fields))]
        self.units = tuple(
            sum(1 << at[f] for f, vs in enumerate(fields) if v in vs) for v in range(nvars)
        )
        # the exponent fields are the lowest ones above the component:
        # two bytes each, read back in one struct call
        self.expmask = (1 << (FIELD_BITS * nvars)) - 1
        self._unpack = struct.Struct(f">{nvars}H").unpack
        self._where = None if prio == tuple(range(nvars)) else tuple(prio.index(v) for v in range(nvars))
        guards = [1 << (a + FIELD_BITS - 1) for a in at]
        self.guard = sum(guards)
        self.divmask = sum(guards[len(key):]) | CMASK

    def mono(self, m: Monomial) -> int:
        """x^m as a packed shift."""
        top = sum(m) if self.graded else max(m, default=0)
        if top > MAX_EXPONENT:
            what = "degree" if self.graded else "exponent"
            raise OverflowError(
                f"{what} {top} does not fit the packed field (at most {MAX_EXPONENT})"
            )
        return sum(map(operator.mul, m, self.units))

    def exponents(self, t: int) -> Monomial:
        e = self._unpack(((t >> COMP_BITS) & self.expmask).to_bytes(2 * self.nvars, "big"))
        return e if self._where is None else tuple([e[i] for i in self._where])

    def check(self, v) -> None:
        """Refuse terms whose sum overflowed a field (a set guard bit)."""
        guard = self.guard
        if any(t & guard for t in v):
            raise OverflowError(
                f"a product exceeds the packed field (exponents at most {MAX_EXPONENT})"
            )


@lru_cache(maxsize=None)
def _pack(nvars: int, order: MonomialOrder) -> _Pack:
    return _Pack(nvars, order)


def _unit(comp: int) -> int:
    """The term 1 * e_comp."""
    if not 0 <= comp <= CMASK:
        raise OverflowError(f"component {comp} does not fit the packed field")
    return CMASK - comp


def _comp(t: int) -> int:
    return CMASK - (t & CMASK)


def _tail(v: VDict, lead: int) -> Tail:
    return tuple(item for item in v.items() if item[0] != lead)


def _v_shift_diff(field: Field, a: VDict, sa: int, b: VDict, sb: int, pack: _Pack) -> VDict:
    """x^sa * a - x^sb * b."""
    out = {sa + t: c for t, c in a.items()}
    neg, sub = field.neg, field.sub
    for t, c in b.items():
        u = sb + t
        cur = out.get(u)
        if cur is None:
            out[u] = neg(c)
        elif not (c := sub(cur, c)):
            del out[u]
        else:
            out[u] = c
    pack.check(out)
    return out


def _v_combine(
    field: Field,
    quots: Sequence[QDict],
    vecs: Sequence[VDict],
    pack: _Pack,
    acc: Optional[VDict] = None,
    negate: bool = False,
) -> VDict:
    """acc + sum_k quots[k] * vecs[k] (minus the sum when negate),
    accumulated in place in one dict (a new one when acc is None)."""
    out: VDict = {} if acc is None else acc
    get = out.get
    add, mul, neg = field.add, field.mul, field.neg
    # field results are canonical scalars, so a zero sum is falsy
    for q, v in zip(quots, vecs):
        if not q:
            continue
        items = v.items()
        for s, c in q.items():
            if negate:
                c = neg(c)
            for t, d in items:
                u = s + t
                p = mul(c, d)
                cur = get(u)
                if cur is None:
                    out[u] = p
                elif not (p := add(cur, p)):
                    del out[u]
                else:
                    out[u] = p
    pack.check(out)
    return out


def _v_split(v: VDict, ncomp: int) -> List[QDict]:
    """The components of v, as ring polynomials keyed by packed shifts."""
    out: List[QDict] = [dict() for _ in range(ncomp)]
    for t, c in v.items():
        out[_comp(t)][t & ~CMASK] = c
    return out


def _v_divmod(
    field: Field, v: VDict, leads: Sequence[int], tails: Sequence[Tail], pack: _Pack
) -> Tuple[VDict, List[QDict]]:
    """Full division of v by a monic basis, given by its leading terms and
    tails: (normal form, quotients).

    Deterministic: always reduces the currently largest term, choosing
    the first basis element whose leading term divides it.  Pending
    terms sit in a heap of negated terms, with lazy deletion: a popped
    term no longer in ``work`` was cancelled.  Every term that a
    reduction step creates is smaller than the term it reduces, so a
    term once popped never comes back.
    """
    by_comp: Dict[int, List[Tuple[int, int, Tail]]] = {}
    for idx, lead in enumerate(leads):
        by_comp.setdefault(lead & CMASK, []).append((idx, lead, tails[idx]))
    divmask, guard = pack.divmask, pack.guard
    work = dict(v)
    heap = [-t for t in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    nf: VDict = {}
    quots: List[QDict] = [dict() for _ in leads]
    get = work.get
    add, mul, neg = field.add, field.mul, field.neg
    while heap:
        t = -heappop(heap)
        coeff = work.pop(t, None)
        if coeff is None:
            continue
        for hit, lead, tail in by_comp.get(t & CMASK, ()):
            if not (t - lead) & divmask:
                break
        else:
            nf[t] = coeff
            continue
        shift = t - lead
        quots[hit][shift] = coeff  # terms only decrease: no shift comes twice
        # work -= coeff * x^shift * basis[hit], whose lead cancels t
        c0 = neg(coeff)
        for bt, bc in tail:
            u = shift + bt
            c = mul(c0, bc)
            cur = get(u)
            if cur is None:
                if u & guard:
                    pack.check((u,))
                work[u] = c
                heappush(heap, -u)
            elif not (c := add(cur, c)):
                del work[u]
            else:
                work[u] = c
    return nf, quots


class _Engine:
    """Tracked module-level Buchberger + interreduction."""

    def __init__(self, field: Field, pack: _Pack, ncomp: int):
        self.field = field
        self.pack = pack
        self.ncomp = ncomp
        self.basis: List[VDict] = []
        self.leads: List[int] = []
        self.tails: List[Tail] = []
        self.lead_exps: List[Monomial] = []  # for lcms and the coprime test
        self.reps: List[VDict] = []  # basis[i] as combination of original gens
        self.pairs: list = []
        self.done: set = set()

    def _lcm(self, i: int, j: int) -> int:
        """The lcm of two leading monomials, as a packed shift."""
        return self.pack.mono(mono_lcm(self.lead_exps[i], self.lead_exps[j]))

    def _push_pairs(self, j: int) -> None:
        cj = self.leads[j] & CMASK
        for i in range(j):
            if self.leads[i] & CMASK != cj:
                continue
            if self.ncomp == 1 and mono_coprime(self.lead_exps[i], self.lead_exps[j]):
                self.done.add((i, j))
                continue
            heapq.heappush(self.pairs, (self._lcm(i, j), i, j))

    def add(self, v: VDict, rep: VDict) -> None:
        if not v:
            return
        lt = max(v)
        inv = self.field.inv(v[lt])
        if inv != 1:
            v = {t: self.field.mul(inv, c) for t, c in v.items()}
            rep = {t: self.field.mul(inv, c) for t, c in rep.items()}
        self.basis.append(v)
        self.leads.append(lt)
        self.tails.append(_tail(v, lt))
        self.lead_exps.append(self.pack.exponents(lt))
        self.reps.append(rep)
        self._push_pairs(len(self.basis) - 1)

    def seed(self, gens_v: Sequence[VDict]) -> None:
        one = self.field.one()
        for i, g in enumerate(gens_v):
            self.add(g, {_unit(i): one})

    def _chain_skip(self, i: int, j: int, lcm: int) -> bool:
        divmask = self.pack.divmask
        lcm_exps = self.pack.exponents(lcm)
        for k in range(len(self.basis)):
            if k == i or k == j or (lcm - self.leads[k]) & divmask:
                continue
            mk = self.lead_exps[k]
            if mono_lcm(self.lead_exps[i], mk) == lcm_exps or mono_lcm(self.lead_exps[j], mk) == lcm_exps:
                continue
            if (min(i, k), max(i, k)) in self.done and (min(j, k), max(j, k)) in self.done:
                return True
        return False

    def run(self) -> None:
        f, pack = self.field, self.pack
        while self.pairs:
            lcm, i, j = heapq.heappop(self.pairs)
            if (i, j) in self.done:
                continue
            self.done.add((i, j))
            lcm += self.leads[i] & CMASK
            if self._chain_skip(i, j, lcm):
                continue
            si = lcm - self.leads[i]
            sj = lcm - self.leads[j]
            s = _v_shift_diff(f, self.basis[i], si, self.basis[j], sj, pack)
            nf, quots = _v_divmod(f, s, self.leads, self.tails, pack)
            if not nf:
                continue
            # the cofactors of a new basis element; most S-pairs reduce to zero
            rep = _v_shift_diff(f, self.reps[i], si, self.reps[j], sj, pack)
            self.add(nf, _v_combine(f, quots, self.reps, pack, rep, negate=True))

    def interreduce(self) -> None:
        f, pack = self.field, self.pack
        idx = sorted(range(len(self.basis)), key=lambda i: (self.leads[i], i))
        kept: List[int] = []
        for i in idx:
            lead = self.leads[i]
            if any(not (lead - self.leads[k]) & pack.divmask for k in kept):
                continue
            kept.append(i)
        basis = [self.basis[i] for i in kept]
        leads = [self.leads[i] for i in kept]
        tails = [self.tails[i] for i in kept]
        lead_exps = [self.lead_exps[i] for i in kept]
        reps = [self.reps[i] for i in kept]
        for pos in range(len(basis)):
            nf, quots = _v_divmod(
                f, basis[pos], leads[:pos] + leads[pos + 1 :], tails[:pos] + tails[pos + 1 :], pack
            )
            _v_combine(f, quots, reps[:pos] + reps[pos + 1 :], pack, reps[pos], negate=True)
            basis[pos] = nf
            tails[pos] = _tail(nf, leads[pos])
        self.basis = basis
        self.leads = leads
        self.tails = tails
        self.lead_exps = lead_exps
        self.reps = reps

    def divide_gens(self, gens_v: Sequence[VDict]) -> List[List[QDict]]:
        out = []
        for g in gens_v:
            nf, quots = _v_divmod(self.field, g, self.leads, self.tails, self.pack)
            if nf:
                raise AssertionError("generator does not reduce to zero against its own basis")
            out.append(quots)
        return out

    def schreyer(self) -> List[VDict]:
        """Syzygies of the final basis, one candidate per same-component
        pair, each fully reduced; no pair criteria applied here."""
        f, pack = self.field, self.pack
        one = f.one()
        n = len(self.basis)
        units = [{_unit(k): one} for k in range(n)]
        out: List[VDict] = []
        for i in range(n):
            ci = self.leads[i] & CMASK
            for j in range(i + 1, n):
                if self.leads[j] & CMASK != ci:
                    continue
                lcm = self._lcm(i, j) + ci
                si = lcm - self.leads[i]
                sj = lcm - self.leads[j]
                s = _v_shift_diff(f, self.basis[i], si, self.basis[j], sj, pack)
                nf, quots = _v_divmod(f, s, self.leads, self.tails, pack)
                if nf:
                    raise AssertionError("S-vector of a Groebner basis fails to reduce to zero")
                # x^si e_i - x^sj e_j - sum_k quots[k] e_k
                syz = {si + _unit(i): one, sj + _unit(j): f.neg(one)}
                _v_combine(f, quots, units, pack, syz, negate=True)
                if syz:
                    out.append(syz)
        return out


# ---------------------------------------------------------------------------
# polynomial-facing API


def _poly_to_q(p: Polynomial, pack: _Pack) -> QDict:
    return {pack.mono(m): c for m, c in p.terms.items()}


def _poly_to_v(p: Polynomial, pack: _Pack, comp: int = 0) -> VDict:
    low = _unit(comp)
    return {pack.mono(m) + low: c for m, c in p.terms.items()}


def _vec_to_v(vec: Sequence[Polynomial], pack: _Pack) -> VDict:
    out: VDict = {}
    for comp, p in enumerate(vec):
        out.update(_poly_to_v(p, pack, comp))
    return out


def _v_to_vec(v: VDict, pack: _Pack, field: Field, ncomp: int) -> List[Polynomial]:
    out: List[Dict[Monomial, Scalar]] = [dict() for _ in range(ncomp)]
    for t, c in v.items():
        out[_comp(t)][pack.exponents(t)] = c
    return [Polynomial(field, pack.nvars, b) for b in out]


def _q_to_poly(q: QDict, pack: _Pack, field: Field) -> Polynomial:
    return Polynomial(field, pack.nvars, {pack.exponents(s): c for s, c in q.items()})


@dataclass(frozen=True)
class _Division:
    """What _v_divmod divides by, built once per basis."""

    leads: List[int]
    tails: List[Tail]
    pack: _Pack


def _division_data(vb: List[VDict], pack: _Pack) -> _Division:
    leads = [max(v) for v in vb]
    return _Division(leads, [_tail(v, lt) for v, lt in zip(vb, leads)], pack)


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
    def _division(self) -> _Division:
        pack = _pack(self.nvars, self.order)
        return _division_data([_poly_to_v(b, pack) for b in self.basis], pack)

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
    def _division(self) -> _Division:
        pack = _pack(self.nvars, self.order)
        return _division_data([_vec_to_v(b, pack) for b in self.basis], pack)

    def normal_form(self, vec: Sequence[Polynomial]) -> List[Polynomial]:
        d = self._division
        nf, _ = _v_divmod(self.field, _vec_to_v(vec, d.pack), d.leads, d.tails, d.pack)
        return _v_to_vec(nf, d.pack, self.field, self.ncomp)

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
    pack = _pack(nvars, order)
    gens_v = [_poly_to_v(g, pack) for g in gens]
    eng = _Engine(field, pack, 1)
    eng.seed(gens_v)
    eng.run()
    eng.interreduce()
    vdivs = eng.divide_gens(gens_v)
    basis = tuple(_v_to_vec(v, pack, field, 1)[0] for v in eng.basis)
    to_gens = tuple(tuple(_v_to_vec(rep, pack, field, len(gens))) for rep in eng.reps)
    from_gens = tuple(tuple(_q_to_poly(q, pack, field) for q in quots) for quots in vdivs)
    return GroebnerBasis(field, nvars, order, tuple(gens), basis, to_gens, from_gens)


def module_groebner(
    vecs: Sequence[Sequence[Polynomial]], ncomp: int, order: MonomialOrder = GREVLEX
) -> ModuleGroebnerBasis:
    vecs = [list(v) for v in vecs]
    if not vecs:
        raise ValueError("need at least one vector")
    field, nvars = _context([p for v in vecs for p in v])
    pack = _pack(nvars, order)
    eng = _Engine(field, pack, ncomp)
    eng.seed([_vec_to_v(v, pack) for v in vecs])
    eng.run()
    eng.interreduce()
    basis = tuple(tuple(_v_to_vec(v, pack, field, ncomp)) for v in eng.basis)
    return ModuleGroebnerBasis(field, nvars, ncomp, order, basis)


def _divide(f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder]):
    """(basis, normal form, quotient dicts) of f divided by gb, which is
    built from generators first when it is not a GroebnerBasis."""
    if not isinstance(gb, GroebnerBasis):
        gb = buchberger(list(gb), order or GREVLEX)
    d = gb._division
    nf, quots = _v_divmod(gb.field, _poly_to_v(f, d.pack), d.leads, d.tails, d.pack)
    return gb, _v_to_vec(nf, d.pack, gb.field, 1)[0], quots


def normal_form(f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder] = None) -> Polynomial:
    """Canonical representative of f modulo the ideal; the quotients of
    the division are dropped as dicts, never built as polynomials."""
    return _divide(f, gb, order)[1]


def normal_form_quotients(
    f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder] = None
) -> Tuple[Polynomial, List[Polynomial]]:
    """(normal form, quotients over gb.basis): f = sum q_j basis_j + nf."""
    gb, nf, quots = _divide(f, gb, order)
    pack = gb._division.pack
    return nf, [_q_to_poly(q, pack, gb.field) for q in quots]


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


def combinations_vanish(
    rows: Sequence[Sequence[Polynomial]],
    vecs: Sequence[Sequence[Polynomial]],
    gb: GroebnerBasis,
    reduce: bool = True,
) -> bool:
    """Whether, for every row r, each component of sum_k r[k] * vecs[k]
    reduces to zero by gb (is zero outright when reduce is False): one
    packed combination per row, then one division per component."""
    d = gb._division
    pack = d.pack
    pvecs = [_vec_to_v(v, pack) for v in vecs]
    for row in rows:
        acc = _v_combine(gb.field, [_poly_to_q(p, pack) for p in row], pvecs, pack)
        if not reduce:
            if acc:
                return False
            continue
        parts: Dict[int, VDict] = {}
        for t, c in acc.items():
            parts.setdefault(t & CMASK, {})[t | CMASK] = c  # moved to component 0
        for part in parts.values():
            if _v_divmod(gb.field, part, d.leads, d.tails, pack)[0]:
                return False
    return True


def _canonical_key(v: VDict, pack: _Pack):
    """v's terms as sorted ((component, exponents), coefficient) items."""
    return tuple(sorted(((_comp(t), pack.exponents(t)), c) for t, c in v.items()))


def _syzygies_raw(gens_v: List[VDict], ncomp: int, field: Field, pack: _Pack) -> List[VDict]:
    eng = _Engine(field, pack, ncomp)
    eng.seed(gens_v)
    eng.run()
    eng.interreduce()
    ngens = len(gens_v)
    out: List[VDict] = []
    for sig in eng.schreyer():
        tau = _v_combine(field, _v_split(sig, len(eng.reps)), eng.reps, pack, negate=True)
        if tau:
            out.append(tau)
    # rows of I - V.U catch generators that collapsed into the basis
    vdivs = eng.divide_gens(gens_v)
    one = field.one()
    for i in range(ngens):
        row = _v_combine(field, vdivs[i], eng.reps, pack, {_unit(i): one}, negate=True)
        if row:
            out.append(row)
    # deterministic presentation: drop duplicates, sort canonically on
    # the unpacked terms
    keyed: Dict[tuple, VDict] = {}
    for v in out:
        keyed.setdefault(_canonical_key(v, pack), v)
    return [keyed[k] for k in sorted(keyed)]


def syzygy_basis(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> SyzygyMatrix:
    """Generators of {(h_1..h_r) : sum h_i gens_i = 0} as columns."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    field, nvars = _context(gens)
    pack = _pack(nvars, order)
    raw = _syzygies_raw([_poly_to_v(g, pack) for g in gens], 1, field, pack)
    cols = tuple(tuple(_v_to_vec(v, pack, field, len(gens))) for v in raw)
    return SyzygyMatrix(field, nvars, tuple((g,) for g in gens), cols)


def module_syzygies(
    vecs: Sequence[Sequence[Polynomial]], ncomp: int, order: MonomialOrder = GREVLEX
) -> List[List[Polynomial]]:
    """Generators of the syzygy module of a tuple of vectors in P^ncomp."""
    vecs = [list(v) for v in vecs]
    if not vecs:
        return []
    field, nvars = _context([p for v in vecs for p in v])
    pack = _pack(nvars, order)
    raw = _syzygies_raw([_vec_to_v(v, pack) for v in vecs], ncomp, field, pack)
    return [_v_to_vec(v, pack, field, len(vecs)) for v in raw]


def _scaled(field: Field, d: Scalar, v: VDict) -> VDict:
    return v if d == 1 else {t: field.mul(d, c) for t, c in v.items()}


def _integral(field: Field, v: VDict) -> Tuple[int, VDict]:
    """(d, d * v), with d the common denominator of v's coefficients."""
    d = field.denominator(v.values())
    return d, _scaled(field, d, v)


def _z_combine(field: Field, quots: Sequence[QDict], vecs: Sequence[VDict], pack: _Pack) -> VDict:
    """sum_k quots[k] * vecs[k] for int coefficients (integral rationals or
    residues): summed as Python ints, each term mapped into the field once."""
    out: Dict[int, int] = {}
    get = out.get
    for q, v in zip(quots, vecs):
        items = v.items()
        for s, c in q.items():
            for t, d in items:
                u = s + t
                out[u] = get(u, 0) + c * d
    pack.check(out)
    from_int = field.from_int
    return {t: y for t, x in out.items() if x and (y := from_int(x))}


def _certify(field: Field, cof: VDict, d: int, gens_e: Sequence[VDict], e: int, target: VDict, pack: _Pack) -> None:
    """Re-expand the cofactors cof / d over the generators and compare
    with target exactly.  cof is integral and gens_e holds the generators
    scaled by their common denominator e, so the sums run on ints:
    sum_i cof_i * (e gens_i) == d e target."""
    if _z_combine(field, _v_split(cof, len(gens_e)), gens_e, pack) != _scaled(field, d * e, target):
        raise AssertionError("prune certificate failed to re-expand")


def _integral_combination(
    field: Field, quots: Sequence[QDict], int_vecs: Sequence[Tuple[int, VDict]], pack: _Pack
) -> Tuple[VDict, int]:
    """(d * sum_k quots[k] * vecs[k], d) for int_vecs[k] = _integral(vecs[k]),
    summed on ints."""
    parts = []
    for q, (dv, v) in zip(quots, int_vecs):
        if q:
            dq, q = _integral(field, q)
            parts.append((dq * dv, q, v))
    d = lcm(1, *(dk for dk, _, _ in parts))
    return _z_combine(field, [_scaled(field, d // dk, q) for dk, q, _ in parts], [v for _, _, v in parts], pack), d


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
    pack = _pack(nvars, order)
    gens = [_vec_to_v(v, pack) for v in fixed]
    cands = [_vec_to_v(v, pack) for v in candidates]
    eng = _Engine(field, pack, ncomp)
    eng.seed(gens)
    eng.run()
    kept: List[int] = []
    int_reps: List[Tuple[int, VDict]] = []  # _integral(eng.reps[j]), built as the basis grows
    # the generators scaled by their common denominator e, kept as they grow
    e, gens_e = 1, []
    for g in gens:
        e, gens_e = _join_scaled(field, e, gens_e, g)
    degree = [max((sum(m) for p in v for m in p.terms), default=0) for v in candidates]
    for k in sorted(range(len(cands)), key=lambda k: (degree[k], k)):
        nf, quots = _v_divmod(field, cands[k], eng.leads, eng.tails, pack)
        if not nf:
            int_reps += [_integral(field, rep) for rep in eng.reps[len(int_reps) :]]
            _certify(field, *_integral_combination(field, quots, int_reps, pack), gens_e, e, cands[k], pack)
            continue
        eng.add(cands[k], {_unit(len(gens_e)): field.one()})
        e, gens_e = _join_scaled(field, e, gens_e, cands[k])
        kept.append(k)
        eng.run()
    return sorted(kept)


def _join_scaled(field: Field, e: int, gens_e: List[VDict], g: VDict) -> Tuple[int, List[VDict]]:
    """(e', gens_e') for the family gens_e = e * gens joined by g: e' the
    common denominator of gens and g, the old members rescaled by e'/e
    only when it grows."""
    e2 = lcm(e, field.denominator(g.values()))
    if e2 != e:
        gens_e = [_scaled(field, e2 // e, v) for v in gens_e]
    gens_e.append(_scaled(field, e2, g))
    return e2, gens_e
