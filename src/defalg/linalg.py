"""Dense exact linear algebra over GF(p) and Q.

A matrix is one integer array over one positive denominator, in the
storage its field owns (see ``fields``): int64 residues over 1 for
GF(p), row-reduced by the numpy kernel in ``_kernels``; for Q the
numerators of every entry over their common denominator, int64 while
nothing can wrap and Python ints beyond.  Products, stacking, transposes
and row reduction work on the integers: a Q product is one integer
product over the product of the two denominators, and the Q row
reduction is fraction-free, its reduced form the integers over the
common pivot.  Canonical scalars (an int when integral, a ``Fraction``
only when not) are built only where a caller reads entries.  Pivoting
is deterministic: first nonzero entry scanning rows top-down, columns
left-to-right, so identical input yields identical output.

Vectors are plain Python lists of field scalars; several at once are a
(K, n) field array (see ``solve_affine_rows``).
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence, Tuple

import numpy as np

from .fields import Field, Scalar, int_scale


class Matrix:
    """Immutable dense matrix over a fixed field: the integer array a
    over the positive denominator den, in lowest terms."""

    __slots__ = ("field", "nrows", "ncols", "_a", "_den", "_rref")

    def __init__(self, field: Field, nrows: int, ncols: int, a: np.ndarray, den: int = 1):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._a, self._den = field.lowest(a, den)
        self._rref = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_array(cls, field: Field, a: np.ndarray) -> "Matrix":
        """The matrix of a 2-D array of field scalars."""
        return cls(field, a.shape[0], a.shape[1], *field.ints(a))

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Scalar]], ncols: Optional[int] = None):
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        a, den = field.ints(rows)
        return cls(field, len(rows), ncols, a.reshape(len(rows), ncols), den)

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence[Scalar]], nrows: Optional[int] = None):
        cols = [list(c) for c in cols]
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        return cls.from_rows(field, cols, ncols=nrows).transpose()

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int):
        return cls(field, nrows, ncols, np.zeros((nrows, ncols), np.int64))

    @classmethod
    def identity(cls, field: Field, n: int):
        return cls(field, n, n, np.eye(n, dtype=np.int64))

    # -- access -------------------------------------------------------

    def to_array(self) -> np.ndarray:
        """The entries as a new field array of canonical scalars."""
        return self.field.scalars(self._a.copy(), self._den)

    def entry(self, i: int, j: int) -> Scalar:
        return self.field.scalars(self._a[i : i + 1, j], self._den).item(0)

    def row(self, i: int) -> list:
        return self.field.scalars(self._a[i], self._den).tolist()

    def col(self, j: int) -> list:
        return self.field.scalars(self._a[:, j], self._den).tolist()

    def to_rows(self) -> list:
        return self.field.scalars(self._a, self._den).tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.field, self.nrows, self.ncols, self._den) != (other.field, other.nrows, other.ncols, other._den):
            return False
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self._den, tuple(map(tuple, self._a.tolist()))))

    def __repr__(self) -> str:
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not np.any(self._a)

    # -- arithmetic ---------------------------------------------------

    def select(self, rows: Optional[Sequence[int]] = None, cols: Optional[Sequence[int]] = None) -> "Matrix":
        """The submatrix on the given rows and columns (all when None), in order."""
        a = self._a if rows is None else self._a[list(rows)]
        a = a if cols is None else a[:, list(cols)]
        return Matrix(self.field, a.shape[0], a.shape[1], a, self._den)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows, self._a.T.copy(), self._den)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        prod = self.field.int_matmul(self._a, other._a)
        return Matrix(self.field, self.nrows, other.ncols, prod, self._den * other._den)

    def mul_vec(self, x: Sequence[Scalar]) -> list:
        if len(x) != self.ncols:
            raise ValueError("shape mismatch")
        return self.mul_rows(self.field.array(list(x)).reshape(1, self.ncols))[0].tolist()

    def mul_rows(self, x: np.ndarray) -> np.ndarray:
        """The image of every row of a (K, ncols) field array, as (K, nrows)."""
        if x.shape[-1] != self.ncols:
            raise ValueError("shape mismatch")
        f = self.field
        ix, dx = f.ints(x)
        return f.scalars(*f.lowest(f.int_matmul(ix, self._a.T), dx * self._den))

    def _stack(self, other: "Matrix", axis: int) -> Tuple[np.ndarray, int]:
        """Both integer arrays over their common denominator, concatenated."""
        den = lcm(self._den, other._den)
        return np.concatenate([int_scale(m._a, den // m._den) for m in (self, other)], axis=axis), den

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("shape mismatch")
        return Matrix(self.field, self.nrows, self.ncols + other.ncols, *self._stack(other, 1))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix(self.field, self.nrows + other.nrows, self.ncols, *self._stack(other, 0))

    # -- elimination --------------------------------------------------

    def rref(self):
        """(reduced matrix, pivot column tuple, rank); cached.  The
        reduction of a / den is the reduction of a alone."""
        if self._rref is None:
            r, den, piv, rank = self.field.rref(self._a)
            self._rref = (Matrix(self.field, self.nrows, self.ncols, r, den), piv, rank)
        return self._rref

    def rank(self) -> int:
        return self.rref()[2]


def rref(m: Matrix):
    return m.rref()


def free_columns(m: Matrix) -> list:
    """The columns of m without a pivot in its rref, ascending."""
    piv = set(m.rref()[1])
    return [c for c in range(m.ncols) if c not in piv]


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the right kernel of ``m``.

    Free coordinates are set to 1 one at a time in ascending column
    order, which makes the basis deterministic and echelon-shaped: the
    identity on the free rows, minus the reduced matrix's free columns
    on the pivot rows, all over the reduced matrix's denominator.  Over
    Q the negation widens to Python ints: -(-2^63) has no int64."""
    f = m.field
    red, piv, rank = m.rref()
    free = free_columns(m)
    block = red._a[:rank, free]
    block = f.neg(block) if f.char else int_scale(block, -1)
    ker = np.zeros((m.ncols, len(free)), block.dtype)
    ker[free, np.arange(len(free))] = red._den
    ker[list(piv)] = block
    return Matrix(f, m.ncols, len(free), ker, red._den)


def solve_affine(m: Matrix, b: Sequence[Scalar]) -> Optional[list]:
    """One solution of m x = b, or None when the system is inconsistent.

    The returned solution sets every free coordinate to zero; it is the
    unique deterministic representative used everywhere downstream.
    """
    if len(b) != m.nrows:
        raise ValueError("shape mismatch")
    ok, x = solve_affine_rows(m, m.field.array(list(b)).reshape(1, m.nrows))
    return x[0].tolist() if ok[0] else None


def solve_affine_rows(m: Matrix, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """solve_affine for every row of a (K, nrows) field array b at once,
    by one rref of [m | b^T]: (ok, x) with ok[k] whether m x = b[k] is
    consistent and x[k] its solution with every free coordinate zero (a
    zero row where it is not), as a field array.

    The columns of m are reduced first, so a right-hand side is
    consistent exactly when its column vanishes below the rank of m, and
    then its entries above are the pivot coordinates: a pivot taken in an
    inconsistent column lies in a row where every consistent column is
    zero, so it moves none of them."""
    if b.ndim != 2 or b.shape[1] != m.nrows:
        raise ValueError("shape mismatch")
    f = m.field
    n, k = m.ncols, b.shape[0]
    red, piv, _ = m.hstack(Matrix.from_array(f, b.T)).rref()
    piv = [c for c in piv if c < n]
    a = red._a
    rank = len(piv)
    ok = ~a[rank:, n:].astype(bool).any(axis=0)
    x = np.zeros((k, n), a.dtype)
    x[:, piv] = a[:rank, n:].T
    x[~ok] = 0
    return ok, f.scalars(*f.lowest(x, red._den))


# -- span utilities ---------------------------------------------------


def vec_add(field: Field, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
    return [field.add(a, b) for a, b in zip(u, v)]

def vec_sub(field: Field, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
    return [field.sub(a, b) for a, b in zip(u, v)]

def vec_scale(field: Field, c: Scalar, u: Sequence[Scalar]) -> list:
    return [field.mul(c, a) for a in u]

def vec_is_zero(field: Field, u: Sequence[Scalar]) -> bool:
    return all(field.is_zero(a) for a in u)


def complete_basis(field: Field, inner: Sequence[Sequence[Scalar]], outer: Sequence[Sequence[Scalar]], dim: int) -> list:
    """Indices into ``outer`` whose vectors extend span(inner) to span(inner+outer).

    Keeps each vector of outer, in order, that raises the rank of the
    vectors before it: the pivot columns of one rref of [inner | outer].
    """
    k = len(inner)
    cols = [list(v) for v in inner] + [list(v) for v in outer]
    _, piv, _ = Matrix.from_cols(field, cols, nrows=dim).rref()
    return [c - k for c in piv if c >= k]
