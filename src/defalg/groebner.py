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

Division (``_z_divmod``) keeps the pending terms in a heap of negated
ints and reduces the largest one each step by the first basis element,
among those of its component, whose leading term divides it: the
reduction order of "take the max over what is left", at a heap pop per
step.  It runs on Python ints over both fields.  Over F_p the residues
are summed unreduced and reduced mod p when a term is popped.  Over Q
the dividend is v / D with v integral, and a monic basis element keeps
its tail as (l, l * tail), l the common denominator of the tail; when
l does not divide the popped coefficient, the pending terms, the normal
form and the quotients are scaled by l / gcd and D with them
(fraction-free, after Bareiss 1968).  A basis carries this division
data with its leading terms and pack, built once.  Callers that only
test the remainder for zero (S-pairs, ``combinations_vanish``) never
build a Fraction; ``_v_divmod`` returns canonical scalars, one ratio
per term.  The engine builds the cofactors of an S-pair only when its
remainder is nonzero and joins the basis; most pairs reduce to zero.

``prune_generators`` keeps, of a family of candidate vectors, those
needed beside a fixed family to generate the same submodule: one engine
is seeded with the fixed vectors, and each candidate in (degree, index)
order either reduces to zero against the current basis, and is dropped
with its cofactors re-expanded and checked exactly, or joins the basis.
The final basis also gives, by Schreyer's syzygies, the relations among
the kept candidates modulo the fixed ones, with no second engine run.

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
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .fields import Field, RationalField, Scalar, _ratio
from .poly import GREVLEX, Monomial, MonomialOrder, Polynomial, mono_coprime, mono_lcm

FIELD_BITS = 16  # two bytes: see _Pack.exponents
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
COMP_BITS = 16
CMASK = (1 << COMP_BITS) - 1

VDict = Dict[int, Scalar]  # packed term -> coefficient
QDict = Dict[int, Scalar]  # packed shift (zero low bits) -> coefficient
ZDict = Dict[int, int]  # either of those with integer coefficients
Tail = Tuple[int, Tuple[Tuple[int, int], ...]]  # (l, l * tail): see _tail


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


def _tail(v: VDict, lead: int, p: int = 0) -> Tail:
    """The terms of the monic v below its lead as (l, l * tail), l the
    common denominator of their coefficients: (1, tail) over F_p (p > 0)."""
    items = tuple(item for item in v.items() if item[0] != lead)
    if p:
        return 1, items
    ell = lcm(1, *{c.denominator for _, c in items})
    return ell, tuple((t, c.numerator * (ell // c.denominator)) for t, c in items)


def _integral(field: Field, v: VDict) -> Tuple[int, ZDict]:
    """(d, d * v) as ints, with d the common denominator of v's
    coefficients: (1, v) over F_p."""
    if field.char:
        return 1, v
    d = lcm(1, *{c.denominator for c in v.values()})
    return d, {t: c.numerator * (d // c.denominator) for t, c in v.items()}


def _over(field: Field, z: ZDict, d: int) -> VDict:
    """z / d as canonical field scalars, one ratio per term; over F_p z
    holds residues already and d is 1."""
    if field.char or (d == 1 and isinstance(field, RationalField)):
        return z
    if isinstance(field, RationalField):
        return {t: _ratio(x, d) for t, x in z.items()}
    from_int, den = field.from_int, field.from_int(d)
    return {t: field.div(from_int(x), den) for t, x in z.items()}


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


def _z_divmod(
    p: int, v: ZDict, d: int, leads: Sequence[int], tails: Sequence[Tail], pack: _Pack
) -> Tuple[ZDict, List[ZDict], int]:
    """Full division of v / d, v integral, by a monic basis given by its
    leading terms and tails (see ``_tail``): (nf, quots, d') with the
    normal form nf / d' and the quotients quots / d'.

    Deterministic: always reduces the currently largest term, choosing
    the first basis element whose leading term divides it.  Pending
    terms sit in a heap of negated terms, with lazy deletion: a popped
    term no longer in ``work`` was cancelled.  Every term that a
    reduction step creates is smaller than the term it reduces, so a
    term once popped never comes back.  Over F_p (p > 0) the sums run on
    unreduced ints, reduced mod p when popped, and d stays 1.  Over Q a
    step by a tail (l, l * tail) whose l does not divide the popped
    coefficient first scales work, normal form and quotients by
    l / gcd, and d with them.
    """
    by_comp: Dict[int, List[Tuple[int, int, int, tuple]]] = {}
    for idx, lead in enumerate(leads):
        by_comp.setdefault(lead & CMASK, []).append((idx, lead, *tails[idx]))
    divmask, guard = pack.divmask, pack.guard
    work = dict(v)
    heap = [-t for t in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    nf: ZDict = {}
    quots: List[ZDict] = [dict() for _ in leads]
    get = work.get
    while heap:
        t = -heappop(heap)
        coeff = work.pop(t, None)
        if coeff is None:
            continue
        if p:
            coeff %= p
            if not coeff:
                continue
        for hit, lead, ell, tail in by_comp.get(t & CMASK, ()):
            if not (t - lead) & divmask:
                break
        else:
            nf[t] = coeff
            continue
        if ell != 1 and coeff % ell:
            s = ell // gcd(coeff, ell)
            d *= s
            coeff *= s
            for z in (work, nf, *quots):
                for u in z:
                    z[u] *= s
        shift = t - lead
        quots[hit][shift] = coeff  # terms only decrease: no shift comes twice
        # work -= coeff * x^shift * basis[hit], whose lead cancels t
        c0 = -coeff // ell
        for bt, bc in tail:
            u = shift + bt
            c = c0 * bc
            cur = get(u)
            if cur is None:
                if u & guard:
                    pack.check((u,))
                work[u] = c
                heappush(heap, -u)
            elif not (c := cur + c):
                del work[u]
            else:
                work[u] = c
    return nf, quots, d


def _v_divmod(
    field: Field, v: VDict, leads: Sequence[int], tails: Sequence[Tail], pack: _Pack
) -> Tuple[VDict, List[QDict]]:
    """_z_divmod on field scalars: (normal form, quotients) of v."""
    if field.char:
        return _z_divmod(field.char, v, 1, leads, tails, pack)[:2]
    d, z = _integral(field, v)
    nf, quots, d = _z_divmod(0, z, d, leads, tails, pack)
    return _over(field, nf, d), [_over(field, q, d) for q in quots]


def _z_spair(ti: Tail, si: int, tj: Tail, sj: int, pack: _Pack) -> Tuple[ZDict, int]:
    """(S, l) with S / l = x^si * b_i - x^sj * b_j for the monic b_i, b_j
    with tails ti, tj and shifts onto a common lead, which cancels."""
    (li, ti), (lj, tj) = ti, tj
    ell = lcm(li, lj)
    a, b = ell // li, ell // lj
    out = {si + t: a * c for t, c in ti}
    for t, c in tj:
        u = sj + t
        if x := out.get(u, 0) - b * c:
            out[u] = x
        else:
            del out[u]
    pack.check(out)
    return out, ell


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
        self.tails.append(_tail(v, lt, self.field.char))
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

    def _spair_divmod(self, i: int, j: int, si: int, sj: int) -> Tuple[ZDict, List[ZDict], int]:
        """The S-vector of basis elements i and j divided by the basis,
        on ints: (nf, quots, d) as from _z_divmod."""
        s, d = _z_spair(self.tails[i], si, self.tails[j], sj, self.pack)
        return _z_divmod(self.field.char, s, d, self.leads, self.tails, self.pack)

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
            nf, quots, d = self._spair_divmod(i, j, si, sj)
            if not nf:
                continue
            # the cofactors of a new basis element; most S-pairs reduce to zero
            one = f.one()
            rep = _v_combine(f, [{si: one}, {sj: f.neg(one)}], [self.reps[i], self.reps[j]], pack)
            quots = [_over(f, q, d) for q in quots]
            self.add(_over(f, nf, d), _v_combine(f, quots, self.reps, pack, rep, negate=True))

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
            tails[pos] = _tail(nf, leads[pos], f.char)
        self.basis = basis
        self.leads = leads
        self.tails = tails
        self.lead_exps = lead_exps
        self.reps = reps

    def divide_gens(self, gens_v: Sequence[VDict]) -> List[Tuple[List[ZDict], int]]:
        """(quots, d) per generator: its quotients quots / d by the basis."""
        out = []
        for g in gens_v:
            d, z = _integral(self.field, g)
            nf, quots, d = _z_divmod(self.field.char, z, d, self.leads, self.tails, self.pack)
            if nf:
                raise AssertionError("generator does not reduce to zero against its own basis")
            out.append((quots, d))
        return out

    def schreyer(self) -> List[Tuple[List[ZDict], int]]:
        """Syzygies of the final basis, one per same-component pair, each
        fully reduced; no pair criteria applied here.  Each is (z, d) with
        z[k] / d the coefficient of basis element k in minus the syzygy
        x^si e_i - x^sj e_j - sum_k quots_k e_k."""
        n = len(self.basis)
        out = []
        for i in range(n):
            ci = self.leads[i] & CMASK
            for j in range(i + 1, n):
                if self.leads[j] & CMASK != ci:
                    continue
                lcm = self._lcm(i, j) + ci
                si = lcm - self.leads[i]
                sj = lcm - self.leads[j]
                nf, quots, d = self._spair_divmod(i, j, si, sj)
                if nf:
                    raise AssertionError("S-vector of a Groebner basis fails to reduce to zero")
                quots[i][si] = quots[i].get(si, 0) - d
                quots[j][sj] = quots[j].get(sj, 0) + d
                out.append((quots, d))
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


def _division_data(vb: List[VDict], pack: _Pack, p: int = 0) -> _Division:
    leads = [max(v) for v in vb]
    return _Division(leads, [_tail(v, lt, p) for v, lt in zip(vb, leads)], pack)


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
        return _division_data([_poly_to_v(b, pack) for b in self.basis], pack, self.field.char)

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
        return _division_data([_vec_to_v(b, pack) for b in self.basis], pack, self.field.char)

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
    from_gens = tuple(tuple(_q_to_poly(_over(field, q, d), pack, field) for q in quots) for quots, d in vdivs)
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
    packed combination per row, then one division per component, all on
    ints, the row and the vectors scaled by their common denominators."""
    d = gb._division
    field, pack = gb.field, d.pack
    zvecs = _integral_family(field, [_vec_to_v(v, pack) for v in vecs])
    for row in rows:
        zrow = _integral_family(field, [_poly_to_q(p, pack) for p in row])
        acc = _z_combine(field, zrow, zvecs, pack)
        if not reduce:
            if acc:
                return False
            continue
        parts: Dict[int, ZDict] = {}
        for t, c in acc.items():
            parts.setdefault(t & CMASK, {})[t | CMASK] = c  # moved to component 0
        for part in parts.values():
            if _z_divmod(field.char, part, 1, d.leads, d.tails, pack)[0]:
                return False
    return True


def _canonical_key(v: VDict, pack: _Pack):
    """v's terms as sorted ((component, exponents), coefficient) items."""
    return tuple(sorted(((_comp(t), pack.exponents(t)), c) for t, c in v.items()))


def _engine_syzygies(eng: _Engine, gens_v: Sequence[VDict]) -> List[Tuple[ZDict, int]]:
    """Generators of the syzygies of gens_v, from an engine that holds a
    Groebner basis of them with cofactors over them: the Schreyer
    syzygies of the basis mapped through the cofactors, and the rows of
    I - V.U, which catch generators that collapsed into the basis.  Each
    is (z, d), the syzygy z / d, summed on ints.  The basis is
    interreduced first, which leaves fewer pairs."""
    eng.interreduce()
    f, pack = eng.field, eng.pack
    int_reps = [_integral(f, rep) for rep in eng.reps]
    out = [_integral_combination(f, quots, d, int_reps, pack) for quots, d in eng.schreyer()]
    for i, (quots, d) in enumerate(eng.divide_gens(gens_v)):
        # e_i - sum_k quots[k] / d * reps[k], e_i as one more vector
        minus = [{s: -c for s, c in q.items()} for q in quots]
        out.append(_integral_combination(f, minus + [{0: d}], d, int_reps + [(1, {_unit(i): 1})], pack))
    return [(z, d) for z, d in out if z]


def _syzygies_raw(gens_v: List[VDict], ncomp: int, field: Field, pack: _Pack) -> List[VDict]:
    """Syzygy generators of gens_v in a deterministic presentation:
    duplicates dropped, sorted canonically on the unpacked terms."""
    eng = _Engine(field, pack, ncomp)
    eng.seed(gens_v)
    eng.run()
    keyed: Dict[tuple, VDict] = {}
    for z, d in _engine_syzygies(eng, gens_v):
        v = _over(field, z, d)
        keyed.setdefault(_canonical_key(v, pack), v)
    return [keyed[k] for k in sorted(keyed)]


def _reduced_rows(
    field: Field, pack: _Pack, rows: Iterable[Tuple[List[ZDict], int]], modulo: Optional[GroebnerBasis]
) -> List[Tuple[Polynomial, ...]]:
    """The rows z / d of packed ring polynomials, every entry reduced on
    ints modulo the ring basis ``modulo`` (left as it is when that is
    None), zero rows and duplicates dropped, as polynomial tuples sorted
    by their terms."""
    div = modulo._division if modulo is not None else None
    seen = set()
    out = []
    for row, d in rows:
        if div is not None:
            row = [_reduced_entry(field, q, d, div) for q in row]
        else:
            row = [_over(field, q, d) for q in row]
        if not any(row):
            continue
        key = tuple(tuple(sorted(q.items())) for q in row)
        if key not in seen:
            seen.add(key)
            out.append(tuple(_q_to_poly(q, pack, field) for q in row))
    out.sort(key=lambda row: [p.key() for p in row])
    return out


def _reduced_entry(field: Field, q: ZDict, d: int, div: _Division) -> QDict:
    """The normal form of the ring polynomial q / d (packed shifts, q
    integral) by a ring basis: moved to component 0 and back."""
    if not q:
        return q
    nf, _, d = _z_divmod(field.char, {s | CMASK: c for s, c in q.items()}, d, div.leads, div.tails, div.pack)
    return _over(field, {t & ~CMASK: c for t, c in nf.items()}, d)


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


def syzygy_rows(
    gens: Sequence[Polynomial], r: int, modulo: Optional[GroebnerBasis] = None, order: MonomialOrder = GREVLEX
) -> List[Tuple[Polynomial, ...]]:
    """The first r entries of generators of the syzygies of gens, each
    entry reduced modulo the ring basis ``modulo`` (left as it is when
    that is None), zero rows and duplicates dropped, sorted by their
    terms.  Packed throughout: each entry becomes a Polynomial once."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    field, nvars = _context(gens)
    pack = _pack(nvars, order)
    eng = _Engine(field, pack, 1)
    gens_v = [_poly_to_v(g, pack) for g in gens]
    eng.seed(gens_v)
    eng.run()
    rows = ((_v_split(z, len(gens))[:r], d) for z, d in _engine_syzygies(eng, gens_v))
    return _reduced_rows(field, pack, rows, modulo)


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


def _integral_family(field: Field, vs: Sequence[VDict]) -> List[ZDict]:
    """[e * v for v in vs] as ints, e the common denominator of the
    family: vs over F_p."""
    ints = [_integral(field, v) for v in vs]
    e = lcm(1, *(d for d, _ in ints))
    return [z if d == e else {t: c * (e // d) for t, c in z.items()} for d, z in ints]


def _z_combine(field: Field, quots: Sequence[ZDict], vecs: Sequence[ZDict], pack: _Pack) -> ZDict:
    """sum_k quots[k] * vecs[k] for int coefficients (integral rationals or
    residues), summed as Python ints: reduced once per term over F_p."""
    out: Dict[int, int] = {}
    get = out.get
    for q, v in zip(quots, vecs):
        items = v.items()
        for s, c in q.items():
            for t, d in items:
                u = s + t
                out[u] = get(u, 0) + c * d
    pack.check(out)
    if p := field.char:
        return {t: y for t, x in out.items() if (y := x % p)}
    return {t: x for t, x in out.items() if x}


def _certify(field: Field, cof: VDict, d: int, gens_e: Sequence[VDict], e: int, target: VDict, pack: _Pack) -> None:
    """Re-expand the cofactors cof / d over the generators and compare
    with target exactly.  cof is integral and gens_e holds the generators
    scaled by their common denominator e, so the sums run on ints:
    sum_i cof_i * (e gens_i) == d e target, both sides times the
    common denominator of target."""
    dt, zt = _integral(field, target)
    lhs = _z_combine(field, _v_split(cof, len(gens_e)), gens_e, pack)
    if {t: dt * c for t, c in lhs.items()} != {t: d * e * x for t, x in zt.items()}:
        raise AssertionError("prune certificate failed to re-expand")


def _integral_combination(
    field: Field, quots: Sequence[ZDict], d: int, int_vecs: Sequence[Tuple[int, ZDict]], pack: _Pack
) -> Tuple[VDict, int]:
    """(d' * sum_k (quots[k] / d) * vecs[k], d') for integral quots and
    int_vecs[k] = _integral(vecs[k]), summed on ints."""
    parts = [(dv, q, v) for q, (dv, v) in zip(quots, int_vecs) if q]
    e = lcm(1, *(dv for dv, _, _ in parts))
    scaled = [q if dv == e else {s: c * (e // dv) for s, c in q.items()} for dv, q, _ in parts]
    return _z_combine(field, scaled, [v for _, _, v in parts], pack), d * e


def prune_generators(
    fixed: Sequence[Sequence[Polynomial]],
    candidates: Sequence[Sequence[Polynomial]],
    ncomp: int,
    modulo: GroebnerBasis,
    order: MonomialOrder = GREVLEX,
) -> Tuple[List[int], List[Tuple[Polynomial, ...]]]:
    """(kept, relations): the indices, ascending, of candidates that
    generate together with the fixed vectors the submodule that all of
    them generate, and generators of the relations among the kept
    candidates modulo the fixed vectors.

    One incremental module Groebner basis, seeded with the fixed vectors:
    the candidates are taken by (degree, index); one that does not reduce
    to zero is kept and joins the basis, one that does is dropped, and its
    cofactors over fixed and kept are re-expanded and checked exactly.
    The final basis then gives the syzygies of kept + fixed; a relation
    is the kept part of one, its entries reduced modulo the ring basis
    ``modulo``, zero rows and duplicates dropped, sorted by their terms."""
    if not candidates:
        return [], []
    field, nvars = _context([p for v in [*fixed, *candidates] for p in v])
    pack = _pack(nvars, order)
    gens = [_vec_to_v(v, pack) for v in fixed]
    cands = [_vec_to_v(v, pack) for v in candidates]
    eng = _Engine(field, pack, ncomp)
    eng.seed(gens)
    eng.run()
    joined: List[int] = []  # kept candidates in the order they joined
    int_reps: List[Tuple[int, ZDict]] = []  # _integral(eng.reps[j]), built as the basis grows
    # the generators scaled by their common denominator e, kept as they grow
    e, gens_e = 1, []
    for g in gens:
        e, gens_e = _join_scaled(field, e, gens_e, g)
    degree = [max((sum(m) for p in v for m in p.terms), default=0) for v in candidates]
    for k in sorted(range(len(cands)), key=lambda k: (degree[k], k)):
        d, z = _integral(field, cands[k])
        nf, quots, d = _z_divmod(field.char, z, d, eng.leads, eng.tails, pack)
        if not nf:
            int_reps += [_integral(field, rep) for rep in eng.reps[len(int_reps) :]]
            _certify(field, *_integral_combination(field, quots, d, int_reps, pack), gens_e, e, cands[k], pack)
            continue
        eng.add(cands[k], {_unit(len(gens_e)): field.one()})
        e, gens_e = _join_scaled(field, e, gens_e, cands[k])
        joined.append(k)
        eng.run()
    kept = sorted(joined)
    if not kept:
        return [], []
    # engine component len(gens) + a is candidate joined[a]
    column = {len(gens) + a: kept.index(k) for a, k in enumerate(joined)}
    rows = []
    for z, d in _engine_syzygies(eng, gens + [cands[k] for k in joined]):
        row: List[ZDict] = [dict() for _ in kept]
        for t, c in z.items():
            col = column.get(_comp(t))
            if col is not None:
                row[col][t & ~CMASK] = c
        rows.append((row, d))
    return kept, _reduced_rows(field, pack, rows, modulo)


def _join_scaled(field: Field, e: int, gens_e: List[VDict], g: VDict) -> Tuple[int, List[VDict]]:
    """(e', gens_e') for the family gens_e = e * gens joined by g: e' the
    common denominator of gens and g, the old members rescaled by e'/e
    only when it grows."""
    e2 = lcm(e, field.denominator(g.values()))
    if e2 != e:
        gens_e = [_scaled(field, e2 // e, v) for v in gens_e]
    gens_e.append(_scaled(field, e2, g))
    return e2, gens_e
