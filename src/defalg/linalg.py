"""Dense exact linear algebra over GF(p) and Q.

A matrix is one numpy array whose dtype and arithmetic its field owns
(see ``fields``): int64 residues for GF(p), row-reduced by the numpy
kernel in ``_kernels``; canonical rationals for Q (an int when integral,
a ``Fraction`` only when not), row-reduced fraction-free (integer rows,
gcd-normalized after every update) to control coefficient growth.
Products are exact for every accepted prime.  Pivoting is
deterministic: first nonzero entry scanning rows top-down, columns
left-to-right, so identical input yields identical output.

Vectors are plain Python lists of field scalars throughout; entries
leave a matrix through ``tolist``, as Python ints or (over Q, for
non-integral values only) Fractions.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .fields import Field, Scalar


class Matrix:
    """Immutable dense matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "_a", "_rref")

    def __init__(self, field: Field, nrows: int, ncols: int, a: np.ndarray):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._a = a
        self._rref = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Scalar]], ncols: Optional[int] = None):
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(field, len(rows), ncols, field.array(rows).reshape(len(rows), ncols))

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence[Scalar]], nrows: Optional[int] = None):
        cols = [list(c) for c in cols]
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        return cls.from_rows(field, cols, ncols=nrows).transpose()

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int):
        return cls(field, nrows, ncols, np.full((nrows, ncols), field.zero(), field.dtype))

    @classmethod
    def identity(cls, field: Field, n: int):
        return cls(field, n, n, field.array(np.eye(n, dtype=np.int64)))

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self._a.item(i, j)

    def row(self, i: int) -> list:
        return self._a[i].tolist()

    def col(self, j: int) -> list:
        return self._a[:, j].tolist()

    def to_rows(self) -> list:
        return self._a.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.field, self.nrows, self.ncols) != (other.field, other.nrows, other.ncols):
            return False
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, tuple(map(tuple, self.to_rows()))))

    def __repr__(self) -> str:
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not np.any(self._a)

    # -- arithmetic ---------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows, self._a.T.copy())

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return Matrix(self.field, self.nrows, other.ncols, self.field.matmul(self._a, other._a))

    def mul_vec(self, x: Sequence[Scalar]) -> list:
        if len(x) != self.ncols:
            raise ValueError("shape mismatch")
        f = self.field
        return f.matmul(self._a, f.array(list(x))).tolist()

    def mul_rows(self, x: np.ndarray) -> np.ndarray:
        """The image of every row of a (K, ncols) array, as (K, nrows)."""
        if x.shape[-1] != self.ncols:
            raise ValueError("shape mismatch")
        return self.field.matmul(x, self._a.T)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("shape mismatch")
        a = np.concatenate([self._a, other._a], axis=1)
        return Matrix(self.field, self.nrows, self.ncols + other.ncols, a)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        a = np.concatenate([self._a, other._a], axis=0)
        return Matrix(self.field, self.nrows + other.nrows, self.ncols, a)

    # -- elimination --------------------------------------------------

    def rref(self):
        """(reduced matrix, pivot column tuple, rank); cached."""
        if self._rref is None:
            r, piv, rank = self.field.rref(self._a)
            self._rref = (Matrix(self.field, self.nrows, self.ncols, r), piv, rank)
        return self._rref

    def rank(self) -> int:
        return self.rref()[2]


def rref(m: Matrix):
    return m.rref()


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the right kernel of ``m``.

    Free coordinates are set to 1 one at a time in ascending column
    order, which makes the basis deterministic and echelon-shaped.
    """
    f = m.field
    red, piv, rank = m.rref()
    pivset = set(piv)
    free = [c for c in range(m.ncols) if c not in pivset]
    cols = []
    for fc in free:
        v = [f.zero()] * m.ncols
        v[fc] = f.one()
        for i, pc in enumerate(piv):
            v[pc] = f.neg(red.entry(i, fc))
        cols.append(v)
    return Matrix.from_cols(f, cols, nrows=m.ncols)


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
    """solve_affine for every row of a (K, nrows) array b at once, by one
    rref of [m | b^T]: (ok, x) with ok[k] whether m x = b[k] is
    consistent and x[k] its solution with every free coordinate zero (a
    zero row where it is not).

    The columns of m are reduced first, so a right-hand side is
    consistent exactly when its column vanishes below the rank of m, and
    then its entries above are the pivot coordinates: a pivot taken in an
    inconsistent column lies in a row where every consistent column is
    zero, so it moves none of them."""
    if b.ndim != 2 or b.shape[1] != m.nrows:
        raise ValueError("shape mismatch")
    f = m.field
    n, k = m.ncols, b.shape[0]
    red, piv, _ = m.hstack(Matrix(f, m.nrows, k, np.ascontiguousarray(b.T))).rref()
    piv = [c for c in piv if c < n]
    a = red._a
    rank = len(piv)
    ok = ~a[rank:, n:].astype(bool).any(axis=0)
    x = np.zeros((k, n), f.dtype)
    x[:, piv] = a[:rank, n:].T
    x[~ok] = f.zero()
    return ok, x


# -- span utilities ---------------------------------------------------


def vec_add(field: Field, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
    return [field.add(a, b) for a, b in zip(u, v)]

def vec_sub(field: Field, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
    return [field.sub(a, b) for a, b in zip(u, v)]

def vec_scale(field: Field, c: Scalar, u: Sequence[Scalar]) -> list:
    return [field.mul(c, a) for a in u]

def vec_is_zero(field: Field, u: Sequence[Scalar]) -> bool:
    return all(field.is_zero(a) for a in u)


def span_rank(field: Field, vecs: Sequence[Sequence[Scalar]], dim: int) -> int:
    if not vecs:
        return 0
    return Matrix.from_rows(field, vecs, ncols=dim).rank()


def in_span(field: Field, vecs: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> Optional[list]:
    """Coordinates of v in the given spanning set, or None."""
    m = Matrix.from_cols(field, [list(w) for w in vecs], nrows=len(v))
    return solve_affine(m, v)


def complete_basis(field: Field, inner: Sequence[Sequence[Scalar]], outer: Sequence[Sequence[Scalar]], dim: int) -> list:
    """Indices into ``outer`` whose vectors extend span(inner) to span(inner+outer).

    Keeps each vector of outer, in order, that raises the rank of the
    vectors before it: the pivot columns of one rref of [inner | outer].
    """
    k = len(inner)
    cols = [list(v) for v in inner] + [list(v) for v in outer]
    _, piv, _ = Matrix.from_cols(field, cols, nrows=dim).rref()
    return [c - k for c in piv if c >= k]
