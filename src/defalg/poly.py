"""Multivariate polynomials with exact coefficients and monomial orders.

Variables are indexed 0..nvars-1 internally; names exist only at the
input/output boundary.  A monomial is a plain exponent tuple.  A
polynomial is an immutable thin wrapper around a dict from monomial to
nonzero coefficient in a fixed field.  The Groebner engine packs these
tuples into ints at its own boundary (see ``groebner``).
"""

from __future__ import annotations

import operator
from typing import Dict, Optional, Sequence, Tuple

from .fields import Field, Scalar

Monomial = Tuple[int, ...]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """a | b componentwise."""
    return all(map(operator.le, a, b))


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a; caller guarantees divisibility."""
    return tuple(map(operator.sub, b, a))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_deg(a: Monomial) -> int:
    return sum(a)


class MonomialOrder:
    """Total order on monomials: 'grevlex' or 'lex', with an optional
    variable priority permutation (perm[0] is the most significant
    variable index).  key() returns an ascending sort key: the unit
    monomial is minimal."""

    __slots__ = ("kind", "perm")

    def __init__(self, kind: str = "grevlex", perm: Optional[Sequence[int]] = None):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.perm = tuple(perm) if perm is not None else None

    def key(self, m: Monomial):
        if self.perm is not None:
            m = tuple(m[i] for i in self.perm)
        if self.kind == "grevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        return tuple(m)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.perm == self.perm
        )

    def __hash__(self):
        return hash((self.kind, self.perm))

    def __repr__(self):
        if self.perm is None:
            return f"MonomialOrder({self.kind!r})"
        return f"MonomialOrder({self.kind!r}, perm={self.perm})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class Polynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: Dict[Monomial, Scalar]):
        self.field = field
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if not field.is_zero(c)}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "Polynomial":
        if isinstance(c, int):
            c = field.from_int(c)
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, field: Field, nvars: int) -> "Polynomial":
        return cls.constant(field, nvars, 1)

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {m: field.one()})

    @classmethod
    def monomial(cls, field: Field, nvars: int, m: Monomial, c=None) -> "Polynomial":
        return cls(field, nvars, {tuple(m): field.one() if c is None else c})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def leading_term(self, order: MonomialOrder):
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def sorted_terms(self, order: MonomialOrder = GREVLEX, reverse: bool = True):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=reverse)

    def key(self):
        """Canonical hashable form (for dedup and deterministic sorts)."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = f.add(out.get(m, f.zero()), c)
        return Polynomial(f, self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = f.sub(out.get(m, f.zero()), c)
        return Polynomial(f, self.nvars, out)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, self.nvars, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        f = self.field
        if not isinstance(other, Polynomial):
            c = f.from_int(other) if isinstance(other, int) else other
            return Polynomial(f, self.nvars, {m: f.mul(a, c) for m, a in self.terms.items()})
        out: Dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prev = out.get(m)
                v = f.mul(c1, c2)
                out[m] = v if prev is None else f.add(prev, v)
        return Polynomial(f, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        """self^e by repeated squaring: O(log e) products."""
        if e < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.field, self.nvars)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, self.key()))

    # -- calculus / evaluation ----------------------------------------------

    def derivative(self, var: int) -> "Polynomial":
        f = self.field
        out: Dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            dm = tuple(x - 1 if i == var else x for i, x in enumerate(m))
            v = f.mul(c, f.from_int(e))
            prev = out.get(dm)
            out[dm] = v if prev is None else f.add(prev, v)
        return Polynomial(f, self.nvars, out)

    def evaluate(self, values: Sequence[Scalar]) -> Scalar:
        """Evaluate at field scalars."""
        f = self.field
        acc = f.zero()
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                for _ in range(e):
                    v = f.mul(v, values[i])
            acc = f.add(acc, v)
        return acc

    def embed(self, nvars: int, var_map: Sequence[int]) -> "Polynomial":
        """Re-index variables into a larger ring: old var i becomes var_map[i]."""
        out: Dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            m2 = [0] * nvars
            for i, e in enumerate(m):
                m2[var_map[i]] += e
            out[tuple(m2)] = c
        return Polynomial(self.field, nvars, out)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Ring map sending variable i to images[i]."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        tgt_nvars = images[0].nvars if images else 0
        f = self.field
        acc = Polynomial.zero(f, tgt_nvars)
        for m, c in self.terms.items():
            term = Polynomial.constant(f, tgt_nvars, c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * images[i]
            acc = acc + term
        return acc

    # -- rendering ----------------------------------------------------------

    def to_string(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        f = self.field
        bits = []
        for m, c in self.sorted_terms():
            parts = []
            for i, e in enumerate(m):
                if e == 1:
                    parts.append(names[i])
                elif e > 1:
                    parts.append(f"{names[i]}^{e}")
            neg = False
            cs = str(c)
            if cs.startswith("-"):
                neg = True
                cs = cs[1:]
            if not parts:
                body = cs
            elif cs == "1":
                body = "*".join(parts)
            else:
                body = cs + "*" + "*".join(parts)
            if not bits:
                bits.append(("-" if neg else "") + body)
            else:
                bits.append(("- " if neg else "+ ") + body)
        return " ".join(bits)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"<{self.to_string(names)} over {self.field.name}>"

