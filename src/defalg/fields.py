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

Arrays of scalars (multiplication tables, cocycles) are numpy arrays
whose dtype the field decides: int64 residues for GF(p), object arrays
of canonical rationals for Q.  The field owns the operations that differ
between the two: building an array from scalars (``array``), bringing
entries back to canonical form (``reduce``) and the reduced product
(``matmul``).

Matrices (see ``linalg``) keep integer storage instead: an integer array
over one positive denominator.  Over GF(p) that is the residues over 1;
over Q the numerators of all entries over their common denominator.
``ints`` clears the denominators of scalars once, ``scalars`` builds
canonical entries back, and ``int_matmul``, ``lowest`` and ``rref``
work on the integers alone.  An integer array is int64 while its
entries fit, and Python ints beyond.  Every operation keeps int64 only
while nothing can wrap: a product while contraction length * max|a| *
max|b| < 2^63, an elimination step while 2 * max^2 < 2^63; over GF(p)
the product bound is length * (p-1)^2, so every accepted p gets exact
answers.  Past a bound the operation runs on Python ints, exact at any
size.
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

    # -- integer storage: residues over the denominator 1 ----------------

    def ints(self, data):
        return self.array(data), 1

    def scalars(self, a: np.ndarray, den: int) -> np.ndarray:
        return a

    int_matmul = matmul

    def lowest(self, a: np.ndarray, den: int):
        return a, 1

    def rref(self, a: np.ndarray):
        """(reduced array, 1, pivot column tuple, rank) through the kernels."""
        r, piv, rank = _kernels.rref_modp(a, self.p)
        return r, 1, tuple(piv[:rank].tolist()), rank

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


_INT64 = 2**63


def _max_abs(a: np.ndarray) -> int:
    """max |entry| of an integer array, 0 when it is empty."""
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max(map(abs, a.ravel().tolist()))
    return max(int(a.max()), -int(a.min()))


def _int_array(data) -> np.ndarray:
    """(Nested) Python ints as int64 when every one fits, else as an
    object array of Python ints."""
    try:
        return np.array(data, np.int64)
    except OverflowError:
        return np.array(data, object)


def _tiered(a: np.ndarray) -> np.ndarray:
    """An integer array as int64 when every entry fits."""
    if a.dtype != object:
        return a
    try:
        return a.astype(np.int64)
    except OverflowError:
        return a


def _int_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """a @ b for arrays of integers, exact at any size: in int64 while
    bound, at least contraction length * max|a| * max|b|, is below 2^63
    (no partial sum can wrap), on Python ints otherwise."""
    if bound < _INT64:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object, copy=False) @ b.astype(object, copy=False)


def _ratio(x: int, den: int) -> Scalar:
    """The canonical rational x / den of two ints."""
    q, r = divmod(x, den)
    return Fraction(x, den) if r else q


def int_scale(a: np.ndarray, s: int) -> np.ndarray:
    """s * a for an integer array, on Python ints where int64 could wrap."""
    if s == 1 or not a.any():
        return a
    if a.dtype != object and _max_abs(a) * abs(s) >= _INT64:
        a = a.astype(object)
    return a * s


def _rref_int(a: np.ndarray):
    """(r, den, pivot list) with r / den the reduced row echelon form of
    the integer array a, in lowest terms: integer-preserving Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968), each updated row divided
    by the gcd of its entries where Bareiss divides by the previous
    pivot, then each pivot row scaled to the lcm den of the pivots.
    Steps run in int64 while 2 * max^2 < 2^63, on Python ints past it."""
    nrows, ncols = a.shape
    work = _tiered(np.array(a))
    if nrows and ncols:
        g = np.gcd.reduce(work, axis=1)
        g[g == 0] = 1
        work //= g[:, None]
    top = _max_abs(work)  # an upper bound of every |entry|
    piv = []
    for col in range(ncols):
        rank = len(piv)
        if rank == nrows:
            break
        nz = np.flatnonzero(work[rank:, col])
        if not nz.size:
            continue
        if nz[0]:
            work[[rank, rank + nz[0]]] = work[[rank + nz[0], rank]]
        piv.append(col)
        factors = work[:, col].copy()
        factors[rank] = 0
        rows = np.flatnonzero(factors)
        if not rows.size:
            continue
        if work.dtype != object and 2 * top * top >= _INT64:
            top = _max_abs(work)
            if 2 * top * top >= _INT64:
                work = work.astype(object)
        upd = work[rows] * work[rank, col] - factors[rows, None] * work[rank]
        g = np.gcd.reduce(upd, axis=1)
        g[g == 0] = 1
        upd //= g[:, None]
        work[rows] = upd
        if work.dtype != object:
            top = max(top, _max_abs(upd))
    rank = len(piv)
    pivots = [int(work[i, c]) for i, c in enumerate(piv)]
    den = lcm(1, *pivots)
    scale = [den // pv for pv in pivots]
    head = work[:rank]
    if head.dtype != object and _max_abs(head) * max(map(abs, scale), default=1) >= _INT64:
        head = head.astype(object)
    out = np.zeros((nrows, ncols), head.dtype)
    out[:rank] = head * np.array(scale, head.dtype).reshape(rank, 1)
    return (*_lowest(out, den), piv)


def _lowest(a: np.ndarray, den: int):
    """(a, den) divided by the gcd of den and every entry of a, the
    entries in int64 when they fit."""
    a = _tiered(a)
    if den == 1:
        return a, 1
    if a.dtype == object:
        g = gcd(den, *a.ravel().tolist())
    else:
        g = gcd(den, int(np.gcd.reduce(a.ravel())) if a.size else 0)
    if g == den and not a.any():
        return a, 1
    if g == 1:
        return a, den
    return _tiered(a // g), den // g


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

    def array(self, data) -> np.ndarray:
        """(Nested) scalars as an object array of canonical rationals."""
        return self.reduce(np.array(data, object))

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Every entry canonical: sums that came out integral become ints."""
        return _to_rationals(a)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b of canonical arrays, through their integer storage."""
        ia, da = self.ints(a)
        ib, db = self.ints(b)
        return self.scalars(self.int_matmul(ia, ib), da * db)

    # -- integer storage: numerators over one positive denominator -------

    def ints(self, data):
        """(integer array, den) with data == array / den, den the lcm of
        the denominators of the (nested) scalars data."""
        a = self.array(data)
        flat = a.ravel().tolist()
        dens = {x.denominator for x in flat if type(x) is not int}
        if not dens:
            return _int_array(flat).reshape(a.shape), 1
        den = lcm(*dens)
        flat = [x * den if type(x) is int else x.numerator * (den // x.denominator) for x in flat]
        return _int_array(flat).reshape(a.shape), den

    def scalars(self, a: np.ndarray, den: int) -> np.ndarray:
        """The canonical object array a / den."""
        if den == 1:
            return a.astype(object)
        return np.array([_ratio(x, den) for x in a.ravel().tolist()], object).reshape(a.shape)

    def int_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b of integer arrays, in int64 while no sum can wrap."""
        # at least 1 per factor, so a bound below 2^63 also fits each
        # entry; an operand on Python ints takes the Python-int product
        big = a.dtype == object or b.dtype == object
        bound = _INT64 if big else a.shape[-1] * max(1, _max_abs(a)) * max(1, _max_abs(b))
        return _tiered(_int_matmul(a, b, bound))

    def lowest(self, a: np.ndarray, den: int):
        """(a, den) in lowest terms: den and the entries of a coprime."""
        return _lowest(a, den)

    def rref(self, a: np.ndarray):
        """(reduced integer array, den, pivot column tuple, rank) of an
        integer array: its rref is the array over den."""
        r, den, piv = _rref_int(a)
        return r, den, tuple(piv), len(piv)

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
