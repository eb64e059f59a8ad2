"""Exact coefficient fields: prime fields GF(p) and the rationals.

Scalars are plain Python objects: ints in ``range(p)`` for GF(p);
canonical rationals for Q, that is a Python ``int`` when the value is
integral and a ``fractions.Fraction`` (in lowest terms, denominator > 1)
only when it is not.  ``rational`` is the one place that rule lives;
every Q operation returns canonical values, so integral relations, their
syzygies, divisions and matrices run on Python ints.  ``==``, ``hash``
and ``str`` agree between an int and the equal ``Fraction``.  A field
object bundles the arithmetic so matrices and polynomials can stay
field-agnostic.

Arrays of scalars (matrices, multiplication tables) are numpy arrays
whose dtype the field decides: int64 residues for GF(p), object arrays
of canonical rationals for Q.  The field owns the operations that differ
between the two: building an array from scalars (``array``), bringing
entries back to canonical form (``reduce``), the reduced product
(``matmul``) and row reduction (``rref``).  Both fields multiply integer
arrays by one rule: in int64 while contraction length * max|a| * max|b|
< 2^63, so no partial sum can wrap, and on Python ints beyond it.  Over
GF(p) the bound is length * (p-1)^2, so every accepted p gets exact
answers.  Over Q, ``matmul`` clears the denominators of each operand
once, multiplies the two integer arrays by that rule and divides by the
product of the two denominators only where an entry is not a multiple
of it: exact at any size, with no ``Fraction`` arithmetic inside the
sums.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

import numpy as np

from . import _kernels

Scalar = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """GF(p) with elements represented as ints in ``range(p)``."""

    __slots__ = ("p", "char")

    dtype = np.int64

    def __init__(self, p: int):
        # one product of residues must fit in int64; sums of them are
        # kept exact by matmul, see the module docstring
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p >= 2**31:
            raise ValueError(f"modulus {p} too large for int64 kernels")
        self.p = self.char = p  # an attribute, not a property: read per Groebner division

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in " + self.name)
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def denominator(self, values) -> int:
        """A nonzero d with every d * x integral: always 1 here."""
        return 1

    def elements(self):
        return range(self.p)

    def array(self, data) -> np.ndarray:
        """Residues of (nested) integer scalars as an int64 array."""
        try:
            return np.asarray(data, np.int64) % self.p
        except OverflowError:
            return (np.asarray(data, object) % self.p).astype(np.int64)

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a % self.p

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod p, in int64 while its sums cannot wrap."""
        prod = _int_matmul(a, b, a.shape[-1] * (self.p - 1) ** 2)
        return (prod % self.p).astype(np.int64, copy=False)

    def rref(self, a: np.ndarray):
        """(reduced array, pivot column tuple, rank) through the kernels."""
        r, piv, rank = _kernels.rref_modp(a, self.p)
        return r, tuple(int(c) for c in piv), rank

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


def rational(x) -> Scalar:
    """x as a canonical rational: an int when integral, else a Fraction.

    Python ints pass unchanged; numpy integers become ints through
    ``operator.index``, also inside a Fraction, so no int64 numerator
    can wrap later; a Fraction with denominator 1 becomes its numerator.
    Floats and anything else that is not an exact integer or Fraction
    raise ``TypeError``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        n, d = x.numerator, x.denominator
        if type(n) is not int or type(d) is not int:
            # numpy integers inside a Fraction would wrap in later arithmetic
            n, d = operator.index(n), operator.index(d)
            x = Fraction(n, d)
        return n if d == 1 else x
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"not an exact rational: {x!r}") from None


def _int_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """a @ b for arrays of integers, exact at any size: in int64 while
    bound, at least contraction length * max|a| * max|b|, is below 2^63
    (no partial sum can wrap), on Python ints otherwise."""
    if bound < 2**63:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object, copy=False) @ b.astype(object, copy=False)


def _ratio(x: int, den: int) -> Scalar:
    """The canonical rational x / den of two ints."""
    q, r = divmod(x, den)
    return Fraction(x, den) if r else q


def _clear_denominators(xs):
    """(integers, den) with xs[i] == integers[i] / den, where den is the
    lcm of the denominators of the canonical rationals xs."""
    dens = {x.denominator for x in xs if type(x) is not int}
    if not dens:
        return xs, 1
    den = lcm(*dens)
    return [x * den if type(x) is int else x.numerator * (den // x.denominator) for x in xs], den


def _as_int_rows(rows):
    """Clear denominators: each row scaled to coprime integers."""
    out = []
    for row in rows:
        ints, _ = _clear_denominators(row)
        g = gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


def _rref_fracfree(rows, ncols):
    """Full RREF over Q. Returns (canonical rows, pivot cols)."""
    work = _as_int_rows(rows)
    nrows = len(work)
    pivots = []
    rank = 0
    for col in range(ncols):
        pr = -1
        for r in range(rank, nrows):
            if work[r][col] != 0:
                pr = r
                break
        if pr < 0:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        pv = work[rank][col]
        for r in range(nrows):
            if r == rank or work[r][col] == 0:
                continue
            f = work[r][col]
            row = [work[r][c] * pv - work[rank][c] * f for c in range(ncols)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            work[r] = row
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    out = []
    for r in range(nrows):
        if r < rank:
            pv = work[r][pivots[r]]
            out.append([_ratio(x, pv) for x in work[r]])
        else:
            out.append([0] * ncols)
    return out, pivots


_to_rationals = np.frompyfunc(rational, 1, 1)


class RationalField:
    """The rationals; scalars are canonical (see ``rational``): an int
    when integral, a Fraction in lowest terms otherwise."""

    __slots__ = ()

    name = "Q"
    char = 0
    dtype = object

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n) -> Scalar:
        return rational(n)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        c = a + b
        return c if type(c) is int else rational(c)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        c = a - b
        return c if type(c) is int else rational(c)

    def neg(self, a: Scalar) -> Scalar:
        return -a

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        c = a * b
        return c if type(c) is int else rational(c)

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return self.div(1, a)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        if type(a) is int and type(b) is int:
            return _ratio(a, b)
        return rational(Fraction(a, b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def denominator(self, values) -> int:
        """The lcm of the denominators of canonical rationals: the least
        d > 0 with every d * x an int."""
        return lcm(1, *{x.denominator for x in values if type(x) is not int})

    def array(self, data) -> np.ndarray:
        """(Nested) scalars as an object array of canonical rationals."""
        return self.reduce(np.array(data, object))

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Every entry canonical: sums that came out integral become ints."""
        return _to_rationals(a)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b on cleared-denominator integers (int64 when bounded, as
        for GF(p)), divided once per entry that is not a multiple of the
        common denominator."""
        ia, da = _clear_denominators(a.ravel().tolist())
        ib, db = _clear_denominators(b.ravel().tolist())
        # at least 1 per factor, so a bound below 2^63 also fits each entry
        bound = a.shape[-1] * max(1, max(map(abs, ia), default=0)) * max(1, max(map(abs, ib), default=0))
        prod = _int_matmul(np.array(ia, object).reshape(a.shape), np.array(ib, object).reshape(b.shape), bound)
        den = da * db
        if den == 1:
            return prod.astype(object, copy=False)  # Python ints, also from int64
        return np.array([_ratio(x, den) for x in prod.ravel().tolist()], object).reshape(prod.shape)

    def rref(self, a: np.ndarray):
        """(reduced array, pivot column tuple, rank), fraction-free:
        integer rows, gcd-normalized after every update."""
        rows, piv = _rref_fracfree(a.tolist(), a.shape[1])
        return np.array(rows, object).reshape(a.shape), tuple(piv), len(piv)

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")


Field = Union[PrimeField, RationalField]

QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


_FIELD_NAMES = {"Q": lambda: QQ, "QQ": lambda: QQ}


def field_by_name(name: str) -> Field:
    """Resolve "F2", "F3", "F5", ..., "Q" to a field object."""
    if not isinstance(name, str):
        raise ValueError(f"field name must be a string, not {name!r}")
    key = name.strip()
    if key in _FIELD_NAMES:
        return _FIELD_NAMES[key]()
    if key.startswith("F") and key[1:].isdigit():
        return GF(int(key[1:]))
    if key.startswith("GF(") and key.endswith(")") and key[3:-1].isdigit():
        return GF(int(key[3:-1]))
    raise ValueError(f"unknown field name {name!r}")
