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

One representation runs from seed to certificate: a packed dict z of
ints over a positive denominator d, for z / d (over F_p, residues and
d = 1).  The engine keeps each monic basis element as its lead and its
tail (l, l * tail), l the least common denominator of the tail
(``_tail``), and its cofactors over the seeded generators as (r, y),
y / r in lowest terms; ``_monic`` makes a new element monic and
rescales its cofactors to match (an inverse mod p, a gcd over Q).
Cofactors are combined on ints (``_integral_combination``), and only
for S-pairs with a nonzero remainder, which are few.  ``GroebnerBasis``
and ``ModuleGroebnerBasis`` take their division data (leads, tails,
pack, and the index built from them once) from the engine and keep
their cofactors packed.  The packed
format stays in this module: ``GroebnerBasis.divide`` takes and returns
{monomial: scalar} terms, with the division itself as an opaque packed
tuple that only ``GroebnerBasis.certify`` reads, and a scalar becomes a
Fraction only where a result leaves, one ratio per term (``_over``).

Division (``_z_divmod``) keeps the pending terms in a heap of negated
ints and reduces the largest one each step by the first basis element,
among those of its component, whose leading term divides it: the
reduction order of "take the max over what is left", at a heap pop per
step.  It reads the basis from an index, {component: [(k, lead, l,
l * tail), ...]} in basis order (``_index``), which is kept with the
basis rather than built per division: the engine appends to it as
elements join and replaces one entry as each is re-reduced, and a
``_Division`` builds it once.  ``skip`` leaves one element out, which is
how interreduction divides an element by all the others.  Quotients
come back sparse, {basis index: quotient} for the elements used; the
dense list, one quotient per element, is built only where a result
leaves (``_v_divmod``, ``from_gens``, ``normal_form_quotients``).  Over
F_p the residues are summed unreduced and reduced mod p when a term is
popped.  Over Q, when the l of the reducing tail does not divide the
popped coefficient, the pending terms, the normal form and the
quotients are scaled by l / gcd, and d with them (fraction-free, after
Bareiss 1968).

``prune_generators`` keeps, of a family of candidate vectors, those
needed beside a fixed family to generate the same submodule: one engine
is seeded with the fixed vectors, and each candidate in (degree, index)
order either reduces to zero against the current basis, and is dropped
with its cofactors re-expanded and checked exactly, or joins the basis.
The final basis also gives, by Schreyer's syzygies, the relations among
the kept candidates modulo the fixed ones, with no second engine run;
``basis_syzygy_rows`` reads the syzygies of the generators of a finished
ring basis the same way, off an engine that holds it (``_Engine.holding``).
There is one certificate rule, ``_certify``: the cofactors, combined
with the generators on ints, must give the target exactly.
``GroebnerBasis.certify`` checks a division by the basis with it too.

Correctness notes baked into the code:
  * the product (coprime-lcm) criterion is applied only to ring-level
    pairs; it is not sound for module pairs sharing a leading component;
  * one chain test (``_chain_skip``) serves Buchberger's loop and the
    syzygy pass.  It drops the pair (i, j) when the lead of some k
    divides lcm(i, j) and lcm(i, k), lcm(j, k) both divide it strictly.
    The leading-term syzygies then satisfy
    tau_ij = (m_ij / m_ik) tau_ik + (m_ij / m_kj) tau_kj, and both
    partners have a strictly smaller lcm: dropping is well-founded on
    lcm divisibility, so the kept tau still generate Syz(LT), with no
    circular skipping;
  * Buchberger's loop also needs both partner pairs already processed;
    the syzygy pass works over the final basis and needs nothing more.
    By the lifting theorem the reductions of the kept pairs generate
    Syz(G) (Moeller, Mora and Traverso, "Groebner bases computation
    using syzygies", ISSAC 1992; Gebauer and Moeller, "On an
    installation of Buchberger's algorithm", 1988), and every kept
    S-vector reducing to zero is still a complete Groebner-basis test:
    Buchberger's criterion needs only a generating set of Syz(LT).
"""

from __future__ import annotations

import dataclasses
import heapq
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .fields import Field, Scalar, _ratio
from .poly import GREVLEX, Monomial, MonomialOrder, Polynomial, mono_coprime, mono_lcm

FIELD_BITS = 16  # two bytes: see _Pack.exponents
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
COMP_BITS = 16
CMASK = (1 << COMP_BITS) - 1

VDict = Dict[int, Scalar]  # packed term -> coefficient
QDict = Dict[int, Scalar]  # packed shift (zero low bits) -> coefficient
ZDict = Dict[int, int]  # either of those with integer coefficients
Tail = Tuple[int, Tuple[Tuple[int, int], ...]]  # (l, l * tail): see _tail
Rep = Tuple[int, ZDict]  # (d, z) for the vector z / d, d > 0: see _integral, _Engine
Quots = Dict[int, ZDict]  # basis index -> quotient, only the nonzero ones: see _z_divmod
Index = Dict[int, List[Tuple[int, int, int, tuple]]]  # component bits -> (k, lead, l, l * tail): see _index


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
        """Refuse terms whose sum overflowed a field (a set guard bit):
        one OR over the terms, which has a guard bit set exactly when
        some term has."""
        if reduce(operator.or_, v, 0) & self.guard:
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


def _tail(z: ZDict, lead: int, p: int = 0) -> Tail:
    """The terms below the lead of the monic multiple of z (integral, or
    residues over F_p for p > 0) as (l, l * tail), l the least common
    denominator of their coefficients: (1, tail) over F_p."""
    c = z[lead]
    if p:
        inv = pow(c, -1, p)
        return 1, tuple((t, x * inv % p) for t, x in z.items() if t != lead)
    g = gcd(*z.values())
    if c < 0:
        g = -g
    return c // g, tuple((t, x // g) for t, x in z.items() if t != lead)


def _monic(p: int, z: ZDict, d: int, lead: int, rep: Rep) -> Tuple[Tail, Rep]:
    """The tail of the monic multiple of the vector z / d (see _tail), and
    its cofactors rep = (r, y), y / r, scaled to match: y * d / (r * lc),
    in lowest terms with a positive denominator."""
    r, y = rep
    k, r = d, r * z[lead]
    if p:
        k = k * pow(r, -1, p) % p
        return _tail(z, lead, p), (1, {t: x * k % p for t, x in y.items()})
    if r < 0:
        k, r = -k, -r
    y = {t: k * x for t, x in y.items()}
    g = gcd(r, *y.values())
    if g > 1:
        r, y = r // g, {t: x // g for t, x in y.items()}
    return _tail(z, lead), (r, y)


def _integral(field: Field, v: VDict) -> Rep:
    """(d, d * v) as ints, with d the common denominator of v's
    coefficients: (1, v) over F_p."""
    if field.char:
        return 1, v
    d = lcm(1, *{c.denominator for c in v.values()})
    return d, {t: c.numerator * (d // c.denominator) for t, c in v.items()}


def _over(z: ZDict, d: int) -> VDict:
    """z / d as canonical field scalars, one ratio per term; over F_p z
    holds residues already and d is 1."""
    return z if d == 1 else {t: _ratio(x, d) for t, x in z.items()}


def _minus(quots: Quots) -> Quots:
    return {k: {s: -c for s, c in q.items()} for k, q in quots.items()}


def _index(leads: Sequence[int], tails: Sequence[Tail]) -> Index:
    """The division index of a monic basis: for each component, its
    elements (k, lead, l, l * tail) in basis order."""
    index: Index = {}
    for k, (lead, tail) in enumerate(zip(leads, tails)):
        index.setdefault(lead & CMASK, []).append((k, lead, *tail))
    return index


def _v_split(v: VDict, ncomp: int) -> List[QDict]:
    """The components of v, as ring polynomials keyed by packed shifts."""
    out: List[QDict] = [dict() for _ in range(ncomp)]
    for t, c in v.items():
        out[_comp(t)][t & ~CMASK] = c
    return out


def _z_divmod(
    p: int, v: ZDict, d: int, index: Index, pack: _Pack, skip: int = -1
) -> Tuple[ZDict, Quots, int]:
    """Full division of v / d, v integral, by a monic basis given by its
    index (see ``_index``), leaving out basis element skip: (nf, quots,
    d') with the normal form nf / d' and the quotients quots / d', as
    {basis index: quotient} for the elements that were used.

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
    divmask, guard = pack.divmask, pack.guard
    work = dict(v)
    heap = [-t for t in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    nf: ZDict = {}
    quots: Quots = {}
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
        for hit, lead, ell, tail in index.get(t & CMASK, ()):
            if not (t - lead) & divmask and hit != skip:
                break
        else:
            nf[t] = coeff
            continue
        if ell != 1 and coeff % ell:
            s = ell // gcd(coeff, ell)
            d *= s
            coeff *= s
            for z in (work, nf, *quots.values()):
                for u in z:
                    z[u] *= s
        shift = t - lead
        q = quots.get(hit)
        if q is None:
            quots[hit] = q = {}
        q[shift] = coeff  # terms only decrease: no shift comes twice
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


def _dense(quots: Quots, n: int) -> List[ZDict]:
    """Sparse quotients as one dict per basis element, empty when unused."""
    return [quots.get(k, {}) for k in range(n)]


def _v_divmod(field: Field, v: VDict, div: "_Division") -> Tuple[VDict, List[QDict]]:
    """_z_divmod on field scalars: (normal form, quotients) of v, one
    quotient per basis element."""
    d, z = _integral(field, v)
    nf, quots, d = _z_divmod(field.char, z, d, div.index, div.pack)
    return _over(nf, d), [_over(q, d) for q in _dense(quots, len(div.leads))]


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
    """Tracked module-level Buchberger + interreduction, on ints, started
    on the generators gens, each (d, z) for z / d, and run.  Basis
    element i is the monic vector with leading term leads[i] and tail
    tails[i] (see _tail); reps[i] = (r, y) gives it as y / r over the
    generators (component k for generator k), in lowest terms.  index
    is the division index of leads and tails (``_index``), kept up to
    date as they change."""

    def __init__(self, field: Field, pack: _Pack, ncomp: int, gens: Sequence[Rep]):
        self._hold(field, pack, ncomp, [], [], [])
        for i, (d, z) in enumerate(gens):
            self.add(z, d, (1, {_unit(i): 1}))
        self.run()

    @classmethod
    def holding(cls, gb: "GroebnerBasis") -> "_Engine":
        """An engine that holds the finished ring basis gb, with its
        cofactors over gb's generators, and runs nothing: its Schreyer
        syzygies are those of gb's own basis."""
        eng = cls.__new__(cls)
        div = gb._division
        eng._hold(gb.field, div.pack, 1, list(div.leads), list(div.tails), list(gb._to_gens))
        return eng

    def _hold(
        self, field: Field, pack: _Pack, ncomp: int, leads: List[int], tails: List[Tail], reps: List[Rep]
    ) -> None:
        self.field = field
        self.p = field.char
        self.pack = pack
        self.ncomp = ncomp
        self.leads = leads
        self.tails = tails
        self.index: Index = _index(leads, tails)
        self.lead_exps: List[Monomial] = [pack.exponents(t) for t in leads]  # for lcms and the coprime test
        self.reps = reps
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

    def add(self, z: ZDict, d: int, rep: Rep) -> None:
        """Join the vector z / d, with cofactors rep, made monic."""
        if not z:
            return
        lt = max(z)
        tail, rep = _monic(self.p, z, d, lt, rep)
        self.index.setdefault(lt & CMASK, []).append((len(self.leads), lt, *tail))
        self.leads.append(lt)
        self.tails.append(tail)
        self.lead_exps.append(self.pack.exponents(lt))
        self.reps.append(rep)
        self._push_pairs(len(self.leads) - 1)

    def _chain_skip(self, i: int, j: int, lcm: int, done: Optional[set] = None) -> bool:
        """The strict chain criterion for the pair (i, j) on its lcm term:
        some k whose lead divides lcm, with lcm(i, k) != lcm != lcm(j, k)
        and, when done is given, both pairs (i, k) and (j, k) in it."""
        divmask = self.pack.divmask
        lcm_exps = self.pack.exponents(lcm)
        for k in range(len(self.leads)):
            if k == i or k == j or (lcm - self.leads[k]) & divmask:
                continue
            mk = self.lead_exps[k]
            if mono_lcm(self.lead_exps[i], mk) == lcm_exps or mono_lcm(self.lead_exps[j], mk) == lcm_exps:
                continue
            if done is None or ((min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done):
                return True
        return False

    def _spair_divmod(self, i: int, j: int, lcm: int) -> Tuple[ZDict, Quots, int]:
        """The S-vector of basis elements i and j, on their lcm term,
        divided by the basis: (nf, quots, d) with
        nf / d = -sum_k quots[k] / d * basis[k], the S-vector's own
        shifts taken into quots[i] and quots[j]."""
        si = lcm - self.leads[i]
        sj = lcm - self.leads[j]
        s, d = _z_spair(self.tails[i], si, self.tails[j], sj, self.pack)
        nf, quots, d = _z_divmod(self.p, s, d, self.index, self.pack)
        for k, shift, c in ((i, si, -d), (j, sj, d)):
            q = quots.setdefault(k, {})
            q[shift] = q.get(shift, 0) + c
        return nf, quots, d

    def run(self) -> None:
        while self.pairs:
            lcm, i, j = heapq.heappop(self.pairs)
            if (i, j) in self.done:
                continue
            self.done.add((i, j))
            lcm += self.leads[i] & CMASK
            if self._chain_skip(i, j, lcm, self.done):
                continue
            nf, quots, d = self._spair_divmod(i, j, lcm)
            if nf:  # most S-pairs reduce to zero and build no cofactors
                self.add(nf, d, _integral_combination(self.field, _minus(quots), d, self.reps, self.pack))

    def interreduce(self) -> None:
        divmask = self.pack.divmask
        kept: List[int] = []
        for i in sorted(range(len(self.leads)), key=lambda i: (self.leads[i], i)):
            if not any(not (self.leads[i] - self.leads[k]) & divmask for k in kept):
                kept.append(i)
        self.leads = leads = [self.leads[i] for i in kept]
        self.tails = tails = [self.tails[i] for i in kept]
        self.reps = reps = [self.reps[i] for i in kept]
        self.lead_exps = [self.lead_exps[i] for i in kept]
        self.index = _index(leads, tails)
        for pos, lead in enumerate(leads):
            ell, tail = tails[pos]
            # nf / d = basis[pos] - sum_k quots[k] / d * basis[k], k != pos, still monic
            nf, quots, d = _z_divmod(self.p, {lead: ell, **dict(tail)}, ell, self.index, self.pack, skip=pos)
            rep = _integral_combination(self.field, {pos: {0: d}, **_minus(quots)}, d, reps, self.pack)
            tails[pos], reps[pos] = _monic(self.p, nf, d, lead, rep)
            entries = self.index[lead & CMASK]
            at = next(a for a, e in enumerate(entries) if e[0] == pos)
            entries[at] = (pos, lead, *tails[pos])

    def vectors(self) -> List[VDict]:
        """The basis as field scalars."""
        return [{lead: 1, **_over(dict(tail), ell)} for lead, (ell, tail) in zip(self.leads, self.tails)]

    def divide_gens(self, gens: Sequence[Rep]) -> List[Tuple[Quots, int]]:
        """(quots, d) per generator (e, z), z / e: its quotients quots / d."""
        out = []
        for e, z in gens:
            nf, quots, d = _z_divmod(self.p, z, e, self.index, self.pack)
            if nf:
                raise AssertionError("generator does not reduce to zero against its own basis")
            out.append((quots, d))
        return out

    def schreyer(self) -> List[Tuple[Quots, int]]:
        """Generators of the syzygies of the final basis: one per
        same-component pair that the strict chain criterion keeps, each
        fully reduced.  The kept leading-term syzygies generate Syz(LT),
        so their lifts generate the syzygies of the basis, and each kept
        S-vector must reduce to zero (see the module doc).  No product
        criterion: a coprime pair still carries a generator.  Each is
        (quots, d) from _spair_divmod, quots[k] / d the coefficient of
        basis element k in minus the syzygy
        x^si e_i - x^sj e_j - sum_k q_k e_k."""
        n = len(self.leads)
        out = []
        for i in range(n):
            ci = self.leads[i] & CMASK
            for j in range(i + 1, n):
                if self.leads[j] & CMASK != ci:
                    continue
                lcm = self._lcm(i, j) + ci
                if self._chain_skip(i, j, lcm):
                    continue
                nf, quots, d = self._spair_divmod(i, j, lcm)
                if nf:
                    raise AssertionError("S-vector of a Groebner basis fails to reduce to zero")
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
    """What _z_divmod divides by: an engine's leading terms and tails,
    and their index, built once when first read."""

    leads: List[int]
    tails: List[Tail]
    pack: _Pack

    @cached_property
    def index(self) -> Index:
        return _index(self.leads, self.tails)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic basis plus the transformation data both ways:
    basis[j] = sum_i to_gens[j][i] * gens[i] and
    gens[i]  = sum_j from_gens[i][j] * basis[j].

    Packed, as the engine leaves them, and left out of equality: the
    generators as (e, z), z / e; to_gens as the engine's reps; from_gens
    as (quots, d) per generator.  Polynomials are built only when read."""

    field: Field
    nvars: int
    order: MonomialOrder
    gens: Tuple[Polynomial, ...]
    basis: Tuple[Polynomial, ...]
    _division: _Division = dataclasses.field(compare=False, repr=False)
    _gens: Tuple[Rep, ...] = dataclasses.field(compare=False, repr=False)
    _to_gens: Tuple[Rep, ...] = dataclasses.field(compare=False, repr=False)
    _from_gens: Tuple[Tuple[Quots, int], ...] = dataclasses.field(compare=False, repr=False)

    @cached_property
    def to_gens(self) -> Tuple[Tuple[Polynomial, ...], ...]:
        pack, n = self._division.pack, len(self.gens)
        return tuple(tuple(_v_to_vec(_over(y, r), pack, self.field, n)) for r, y in self._to_gens)

    @cached_property
    def from_gens(self) -> Tuple[Tuple[Polynomial, ...], ...]:
        pack, n = self._division.pack, len(self.basis)
        return tuple(
            tuple(_q_to_poly(_over(q, d), pack, self.field) for q in _dense(quots, n)) for quots, d in self._from_gens
        )

    def divide(self, terms: Dict[Monomial, Scalar]) -> Tuple[Dict[Monomial, Scalar], tuple]:
        """(normal form, division) of the polynomial whose {monomial:
        scalar} terms are given, in this basis's ring.  The normal form
        is {monomial: scalar} too; the division is packed, read only in
        this module (``certify``): (d, z, e, nf, quots) for the dividend
        z / d, the normal form nf / e and the quotients over basis
        quots / e, {basis index: quotient}.  Terms from another ring are
        refused: a monomial of another length, or a coefficient that is
        not a canonical scalar of this field."""
        field, div = self.field, self._division
        p, pack = field.char, div.pack
        for m, c in terms.items():
            if len(m) != self.nvars or not (type(c) is int and 0 <= c < p if p else type(c) in (int, Fraction)):
                raise ValueError(f"the term {c!r} * x^{m} is not in the ring of the basis, over {field.name}")
        d, z = _integral(field, {pack.mono(m) + CMASK: c for m, c in terms.items()})
        nf, quots, e = _z_divmod(p, z, d, div.index, pack)
        return {pack.exponents(t): c for t, c in _over(nf, e).items()}, (d, z, e, nf, quots)

    def certify(self, division: tuple) -> List[Dict[Monomial, Scalar]]:
        """The cofactors over gens, as {monomial: scalar} dicts, of a
        division from ``divide``: dividend = normal form + sum_i cof_i
        gens_i.  The quotients are mapped through the packed cofactors
        of the basis and the sum is re-expanded, all on ints
        (``_certify``)."""
        d, z, e, nf, quots = division
        field, pack = self.field, self._division.pack
        ec, cof = _integral_combination(field, quots, e, self._to_gens, pack)
        _certify(field, cof, ec, self._gens, (d * e, _z_combine(field, [{0: e}, {0: -d}], [z, nf], pack)), pack)
        return [{pack.exponents(s): c for s, c in _over(q, ec).items()} for q in _v_split(cof, len(self.gens))]

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
    _division: _Division = dataclasses.field(compare=False, repr=False)

    def normal_form(self, vec: Sequence[Polynomial]) -> List[Polynomial]:
        if len(vec) != self.ncomp or any(p.field != self.field or p.nvars != self.nvars for p in vec):
            raise ValueError(f"the vector is not in the free module of rank {self.ncomp} over the ring of the basis")
        d = self._division
        nf, _ = _v_divmod(self.field, _vec_to_v(vec, d.pack), d)
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
    gens_z = tuple(_integral(field, _poly_to_v(g, pack)) for g in gens)
    eng = _Engine(field, pack, 1, gens_z)
    eng.interreduce()
    from_gens = tuple(eng.divide_gens(gens_z))
    basis = tuple(_v_to_vec(v, pack, field, 1)[0] for v in eng.vectors())
    division = _Division(eng.leads, eng.tails, pack)
    return GroebnerBasis(field, nvars, order, tuple(gens), basis, division, gens_z, tuple(eng.reps), from_gens)


def module_groebner(
    vecs: Sequence[Sequence[Polynomial]], ncomp: int, order: MonomialOrder = GREVLEX
) -> ModuleGroebnerBasis:
    vecs = [list(v) for v in vecs]
    if not vecs:
        raise ValueError("need at least one vector")
    field, nvars = _context([p for v in vecs for p in v])
    pack = _pack(nvars, order)
    eng = _Engine(field, pack, ncomp, [_integral(field, _vec_to_v(v, pack)) for v in vecs])
    eng.interreduce()
    basis = tuple(tuple(_v_to_vec(v, pack, field, ncomp)) for v in eng.vectors())
    return ModuleGroebnerBasis(field, nvars, ncomp, order, basis, _Division(eng.leads, eng.tails, pack))


def _basis(f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder]) -> GroebnerBasis:
    """gb, built from generators first when it is not a GroebnerBasis;
    f must lie in its ring."""
    if not isinstance(gb, GroebnerBasis):
        gb = buchberger(list(gb), order or GREVLEX)
    if f.field != gb.field or f.nvars != gb.nvars:
        raise ValueError("the polynomial is not in the ring of the basis")
    return gb


def normal_form(f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder] = None) -> Polynomial:
    """Canonical representative of f modulo the ideal."""
    gb = _basis(f, gb, order)
    return Polynomial(gb.field, gb.nvars, gb.divide(f.terms)[0])


def normal_form_quotients(
    f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder] = None
) -> Tuple[Polynomial, List[Polynomial]]:
    """(normal form, quotients over gb.basis): f = sum q_j basis_j + nf."""
    gb = _basis(f, gb, order)
    nf, (_, _, e, _, quots) = gb.divide(f.terms)
    pack = gb._division.pack
    return Polynomial(gb.field, gb.nvars, nf), [_q_to_poly(_over(q, e), pack, gb.field) for q in _dense(quots, len(gb.basis))]


def ideal_member(
    f: Polynomial, gb: Union[GroebnerBasis, Sequence[Polynomial]], order: Optional[MonomialOrder] = None
) -> Tuple[bool, Optional[List[Polynomial]]]:
    """Membership with certificate: cofactors over the *original*
    generators, re-expanded and checked exactly before returning."""
    gb = _basis(f, gb, order)
    nf, division = gb.divide(f.terms)
    if nf:
        return False, None
    return True, [Polynomial(gb.field, gb.nvars, h) for h in gb.certify(division)]


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
    _, zvecs = _integral_family(field, [_vec_to_v(v, pack) for v in vecs])
    for row in rows:
        _, zrow = _integral_family(field, [_poly_to_q(p, pack) for p in row])
        acc = _z_combine(field, zrow, zvecs, pack)
        if not reduce:
            if acc:
                return False
            continue
        parts: Dict[int, ZDict] = {}
        for t, c in acc.items():
            parts.setdefault(t & CMASK, {})[t | CMASK] = c  # moved to component 0
        for part in parts.values():
            if _z_divmod(field.char, part, 1, d.index, pack)[0]:
                return False
    return True


def _engine_syzygies(eng: _Engine, divisions: Sequence[Tuple[Quots, int]], first: int = 0) -> List[Rep]:
    """Generators of the syzygies of an engine's generators, from its
    final (interreduced) basis with cofactors over them and divisions, the
    quotients (quots, d) of each generator by that basis: the Schreyer
    syzygies of the basis mapped through the cofactors, and the rows of
    I - V.U, which catch generators that collapsed into the basis.  Only
    components first and up are summed: the cofactors and the unit
    vectors are restricted to them before they are combined.  Each is
    (d, z), the syzygy z / d, summed on ints."""
    f, pack = eng.field, eng.pack
    reps = [(r, {t: c for t, c in y.items() if _comp(t) >= first}) for r, y in eng.reps]
    out = [_integral_combination(f, quots, d, reps, pack) for quots, d in eng.schreyer()]
    n = len(reps)
    for i, (quots, d) in enumerate(divisions):
        # e_i - sum_k quots[k] / d * reps[k], e_i as one more vector
        unit = {_unit(i): 1} if i >= first else {}
        out.append(_integral_combination(f, {**_minus(quots), n: {0: d}}, d, [*reps, (1, unit)], pack))
    return [(d, z) for d, z in out if z]


def _syzygy_rows(vecs: Sequence[Sequence[Polynomial]], ncomp: int, order: MonomialOrder) -> List[Tuple[Polynomial, ...]]:
    """Generators of the syzygies of vecs in P^ncomp as ``_reduced_rows``
    gives them, unreduced.  Packed throughout: each entry becomes a
    Polynomial once."""
    field, nvars = _context([p for v in vecs for p in v])
    pack = _pack(nvars, order)
    gens = [_integral(field, _vec_to_v(v, pack)) for v in vecs]
    eng = _Engine(field, pack, ncomp, gens)
    eng.interreduce()  # fewer pairs
    syz = _engine_syzygies(eng, eng.divide_gens(gens))
    return _reduced_rows(field, pack, ((_v_split(z, len(gens)), d) for d, z in syz), None)


def basis_syzygy_rows(
    gb: GroebnerBasis, first: int, modulo: Optional[GroebnerBasis] = None
) -> List[Tuple[Polynomial, ...]]:
    """Generators of the syzygies of gb's generators, read off gb's own
    basis, cofactors and generator divisions with no second Groebner
    run: their entries from first on, as ``_reduced_rows`` gives them."""
    eng = _Engine.holding(gb)
    syz = _engine_syzygies(eng, gb._from_gens, first)
    return _reduced_rows(gb.field, eng.pack, ((_v_split(z, len(gb.gens))[first:], d) for d, z in syz), modulo)


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
            row = [_over(q, d) for q in row]
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
    nf, _, d = _z_divmod(field.char, {s | CMASK: c for s, c in q.items()}, d, div.index, div.pack)
    return _over({t & ~CMASK: c for t, c in nf.items()}, d)


def syzygy_basis(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> SyzygyMatrix:
    """Generators of {(h_1..h_r) : sum h_i gens_i = 0} as columns, zero
    columns and duplicates dropped, sorted by their terms."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    cols = _syzygy_rows([[g] for g in gens], 1, order)
    return SyzygyMatrix(gens[0].field, gens[0].nvars, tuple((g,) for g in gens), tuple(cols))


def module_syzygies(
    vecs: Sequence[Sequence[Polynomial]], ncomp: int, order: MonomialOrder = GREVLEX
) -> List[List[Polynomial]]:
    """Generators of the syzygy module of a tuple of vectors in P^ncomp,
    zero rows and duplicates dropped, sorted by their terms."""
    if not vecs:
        return []
    return [list(row) for row in _syzygy_rows(vecs, ncomp, order)]


def _integral_family(field: Field, vs: Sequence[VDict]) -> Tuple[int, List[ZDict]]:
    """(e, [e * v for v in vs]) as ints, e the common denominator of the
    family: (1, vs) over F_p."""
    ints = [_integral(field, v) for v in vs]
    e = lcm(1, *(d for d, _ in ints))
    return e, [z if d == e else {t: c * (e // d) for t, c in z.items()} for d, z in ints]


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


def _integral_combination(
    field: Field, quots: Quots, d: int, vecs: Sequence[Rep], pack: _Pack
) -> Rep:
    """(d', z) with z / d' = sum_k (quots[k] / d) * vecs[k] over the k
    that quots holds, for integral quots and vecs[k] = (dv, v) standing
    for v / dv, summed on ints."""
    parts = [(vecs[k][0], q, vecs[k][1]) for k, q in quots.items() if q]
    e = lcm(1, *(dv for dv, _, _ in parts))
    scaled = [q if dv == e else {s: c * (e // dv) for s, c in q.items()} for dv, q, _ in parts]
    return d * e, _z_combine(field, scaled, [v for _, _, v in parts], pack)


def _certify(field: Field, cof: ZDict, d: int, gens: Sequence[Rep], target: Rep, pack: _Pack) -> None:
    """The one certificate rule: the cofactors cof / d (cof integral,
    component i that of generator i) re-expanded over the generators,
    each (e, z) for z / e, must give target = (dt, zt), zt / dt, exactly.
    Both sides are summed on ints."""
    e, lhs = _integral_combination(field, dict(enumerate(_v_split(cof, len(gens)))), d, gens, pack)
    dt, zt = target
    if {t: dt * c for t, c in lhs.items()} != {t: e * x for t, x in zt.items()}:
        raise AssertionError("division certificate failed to re-expand")


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
    gens = [_integral(field, _vec_to_v(v, pack)) for v in fixed]  # the engine's generators, as they join
    cands = [_integral(field, _vec_to_v(v, pack)) for v in candidates]
    eng = _Engine(field, pack, ncomp, gens)
    nfixed = len(gens)
    joined: List[int] = []  # kept candidates in the order they joined
    degree = [max((sum(m) for p in v for m in p.terms), default=0) for v in candidates]
    for k in sorted(range(len(cands)), key=lambda k: (degree[k], k)):
        e, z = cands[k]
        nf, quots, d = _z_divmod(field.char, z, e, eng.index, pack)
        if not nf:
            d, cof = _integral_combination(field, quots, d, eng.reps, pack)
            _certify(field, cof, d, gens, cands[k], pack)
            continue
        eng.add(z, e, (1, {_unit(len(gens)): 1}))
        gens.append(cands[k])
        joined.append(k)
        eng.run()
    kept = sorted(joined)
    if not kept:
        return [], []
    # engine component nfixed + a is candidate joined[a]
    column = {nfixed + a: kept.index(k) for a, k in enumerate(joined)}
    rows = []
    eng.interreduce()  # fewer pairs
    for d, z in _engine_syzygies(eng, eng.divide_gens(gens), nfixed):
        row: List[ZDict] = [dict() for _ in kept]
        for t, c in z.items():
            row[column[_comp(t)]][t & ~CMASK] = c
        rows.append((row, d))
    return kept, _reduced_rows(field, pack, rows, modulo)
