"""Hot numeric loops: mod-p row reduction and exhaustive oracle scans.

Every kernel is plain numpy.  Beside each one sits a literal Python loop
(``_rref_modp_py``, ``_scan_*_py``), kept as the reference that tests and
``bench/kernels.py`` compare the kernel with on small inputs.

Conventions shared by all scan kernels: a candidate is an integer index
whose base-p digits, least significant first, fill the unknown table
entries; survivors come back in ascending order over a half-open range
[lo, hi), so results are deterministic and partitionable.  All arrays
are int64 with entries already reduced mod p.

The associativity and Leibniz conditions are linear in the digits, so
those two scans never evaluate a candidate: they build a residual matrix
R whose row k is the residual of the candidate with digit k equal to 1
and every other digit 0, and hand it to ``solve_affine``.  The survivors
of d @ R + c == 0 mod p form an affine subspace x0 + span(K) of F_p^N,
which one rref of [R^T | -c^T] yields; its p^(N - rank) points are listed
directly, already ascending, with no sort and no candidate evaluation.
The oracle's lift and base-structure scans are affine and call
``solve_affine`` with their constant.  The polynomial-relation scan is
not linear and evaluates candidates in batches; no library code calls
it, and it stays for the benchmark's kernel timings.

Overflow: a solution row sums one residue and k products of two, k the
number of free digits, and is asserted to fit int64; ``scan_assoc`` and
``scan_linmap`` refuse p^N >= 2^63, whose indices would not fit.
``scan_polyrel`` sums up to width^2 products of three residues, width
being the largest table dimension it contracts over.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

# numpy is the only backend; the benchmark records it with its results
BACKEND = "numpy"


def available_backends():
    return ("numpy",)


# ---------------------------------------------------------------------------
# reduced row echelon form mod p


def _rref_modp_py(a, p):
    r = a.copy() % p
    nrows, ncols = r.shape
    piv = np.empty(min(nrows, ncols), np.int64)
    rank = 0
    for col in range(ncols):
        pr = -1
        for row in range(rank, nrows):
            if r[row, col] % p != 0:
                pr = row
                break
        if pr < 0:
            continue
        if pr != rank:
            tmp = r[pr].copy()
            r[pr] = r[rank]
            r[rank] = tmp
        inv = 1
        x = r[rank, col] % p
        e = p - 2
        b = x
        while e > 0:
            if e & 1:
                inv = (inv * b) % p
            b = (b * b) % p
            e >>= 1
        for c in range(ncols):
            r[rank, c] = (r[rank, c] * inv) % p
        for row in range(nrows):
            if row != rank and r[row, col] % p != 0:
                f = r[row, col] % p
                for c in range(ncols):
                    r[row, c] = (r[row, c] - f * r[rank, c]) % p
        piv[rank] = col
        rank += 1
        if rank == nrows:
            break
    return r, piv, rank


def rref_modp_numpy(a, p):
    """RREF of ``a`` mod p: (reduced matrix, pivot columns, rank)."""
    a = np.asarray(a, np.int64)
    if a.size == 0:
        return a % p if a.size else a.copy(), np.empty(0, np.int64), 0
    r = a.copy() % p
    nrows, ncols = r.shape
    piv = []
    rank = 0
    for col in range(ncols):
        nz = r[rank:, col].nonzero()[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            r[[rank, pr]] = r[[pr, rank]]
        r[rank] = (r[rank] * pow(int(r[rank, col]), p - 2, p)) % p
        mask = r[:, col].nonzero()[0]
        mask = mask[mask != rank]
        if mask.size:
            r[mask] = (r[mask] - r[mask, col, None] * r[rank]) % p
        piv.append(col)
        rank += 1
        if rank == nrows:
            break
    return r, np.array(piv, np.int64), rank


# ---------------------------------------------------------------------------
# linear scans: the solution space of one rref, enumerated in order


def _digits(ns, ndig, p):
    """Base-p digits of each candidate in ns, least significant first."""
    pows = p ** np.arange(ndig, dtype=np.int64)
    return (ns[:, None] // pows[None, :]) % p


def _unique_rows(rows, p):
    """(distinct rows, inverse, counts) of a 2-D array of residues mod p,
    as ``np.unique(rows, axis=0, ...)`` returns them, rows ascending in
    lexicographic order.

    While p^width < 2^62 each row is one int64 key, its digits in base p
    with the first column most significant, so key order is row order
    and one 1-D sort replaces the row sort.  Wider rows are sorted as
    rows, narrowed to the smallest unsigned type holding p - 1."""
    width = rows.shape[1]
    if int(p) ** width >= 2**62:
        uniq, inv, counts = np.unique(
            rows.astype(np.min_scalar_type(p - 1)), axis=0, return_inverse=True, return_counts=True
        )
        return uniq, inv.ravel(), counts
    keys = rows.astype(np.int64) @ (p ** np.arange(width - 1, -1, -1, dtype=np.int64))
    _, first, inv, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    return rows[first], inv.ravel(), counts


def solve_affine(R, c, p, lo=0, hi=None):
    """Every digit row d with d @ R + c == 0 mod p whose candidate index
    sum_k d_k p^k lies in [lo, hi) (hi None: no upper end), ascending.
    R is (N x m): row k is the residual of digit k; c is an m-vector or
    a scalar for every column.

    One rref of [R^T | -c^T] gives the solutions as x0 + u @ K, u over
    F_p^k, one row of K per free column.  A pivot digit depends only on
    the free digits above it, so two solutions first differ, from the
    top digit down, in a free digit: counting u in base p with the
    lowest free column least significant lists them ascending, and the
    window [lo, hi) is a range of that count, found by bisection."""
    R = np.asarray(R, np.int64) % p
    ndig = R.shape[0]
    # K @ R, x0 @ R + c and each row x0 + u @ K sum at most ndig
    # products of two residues and one residue
    assert ndig * (p - 1) ** 2 + (p - 1) < 2**63, "sums would overflow int64"
    c = np.asarray(c, np.int64) % p  # a scalar stands for every column
    live = R.any(axis=0) | (c != 0)
    system = np.empty((np.count_nonzero(live), ndig + 1), np.int64)
    system[:, :ndig] = R[:, live].T
    system[:, ndig] = -(c[live] if c.ndim else c) % p
    red, piv, rank = rref_modp(system, p)
    piv = piv[:rank]
    if rank and piv[-1] == ndig:  # a pivot in the constant column: 0 == 1
        return np.empty((0, ndig), np.int64)
    free = np.ones(ndig, bool)
    free[piv] = False
    free = free.nonzero()[0]
    x0 = np.zeros(ndig, np.int64)
    x0[piv] = red[:rank, ndig]
    K = np.zeros((len(free), ndig), np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, piv] = -red[:rank, free].T % p
    assert not (K @ R % p).any() and not ((x0 @ R + c) % p).any(), "wrong solution basis"
    count = p ** len(free)
    assert count < 2**63, "more solutions than int64 can count"

    def row(u):
        return (x0 + _digits(np.asarray(u, np.int64), len(free), p) @ K) % p

    def index(u):  # candidate index of solution number u
        return sum(int(d) * p**k for k, d in enumerate(row([u])[0]))

    first = 0 if lo <= 0 else bisect_left(range(count), lo, key=index)
    stop = count if hi is None else bisect_left(range(count), hi, key=index)
    return row(np.arange(first, max(first, stop), dtype=np.int64))


def _scan_indices(R, p, lo, hi):
    """Candidates n in [lo, hi), ascending, whose digits d have
    d @ R == 0 mod p, as int64 indices."""
    ndig = R.shape[0]
    if p**ndig >= 2**63:
        raise OverflowError(f"{p}^{ndig} candidates do not fit int64 indices")
    return solve_affine(R, 0, p, lo, hi) @ (p ** np.arange(ndig, dtype=np.int64))


# ---------------------------------------------------------------------------
# oracle scan: associativity filter for square-zero multiplication tables
#
# Candidate n encodes a symmetric table c(e_i, e_j) in J for non-unit basis
# pairs, one base-p digit per J-coordinate, pairs in the order given by
# pair_i/pair_j.  A candidate survives when the table satisfies the
# associativity condition of the would-be extension algebra:
#   act[k] @ c[i,j] + sum_m mul[i,j,m] c[m,k]
#     == act[i] @ c[j,k] + sum_m mul[j,k,m] c[i,m]
# for all basis triples.  The residual is linear in c, hence in the
# digits, so _assoc_residual evaluates it on the unit-digit tables only
# and solve_affine finds the survivors.
#
# Precondition: mul is commutative with unit e_0 and act[0] is the
# identity.  The literal loop then checks only i, j >= 1 and k >= i: the
# unit rows vanish and swapping (i, k) negates the residual.  The numpy
# kernel checks every triple, so on tables without these properties the
# two can disagree.


def _scan_assoc_py(mul, act, pair_i, pair_j, p, lo, hi):
    s = mul.shape[0]
    t = act.shape[1]
    npairs = pair_i.shape[0]
    out = np.empty(hi - lo, np.int64)
    nout = 0
    c = np.zeros((s, s, t), np.int64)
    for n in range(lo, hi):
        m = n
        for q in range(npairs):
            i = pair_i[q]
            j = pair_j[q]
            for l in range(t):
                d = m % p
                m //= p
                c[i, j, l] = d
                c[j, i, l] = d
        ok = True
        for i in range(1, s):
            if not ok:
                break
            for j in range(1, s):
                if not ok:
                    break
                for k in range(i, s):
                    bad = False
                    for l in range(t):
                        v = 0
                        for w in range(s):
                            v += mul[i, j, w] * c[w, k, l] - mul[j, k, w] * c[i, w, l]
                        for w in range(t):
                            v += act[k, l, w] * c[i, j, w] - act[i, l, w] * c[j, k, w]
                        if v % p != 0:
                            bad = True
                            break
                    if bad:
                        ok = False
                        break
        if ok:
            out[nout] = n
            nout += 1
    return out[:nout]


def _assoc_residual(mul, act, pair_i, pair_j):
    s = mul.shape[0]
    t = act.shape[1]
    ndig = pair_i.shape[0] * t
    # row k: the table whose digit k is 1 and every other digit 0
    unit = np.eye(ndig, dtype=np.int64).reshape(ndig, pair_i.shape[0], t)
    c = np.zeros((ndig, s, s, t), np.int64)
    c[:, pair_i, pair_j, :] = unit
    c[:, pair_j, pair_i, :] = unit
    res = (
        np.einsum("ijm,Bmkl->Bijkl", mul, c)
        + np.einsum("klm,Bijm->Bijkl", act, c)
        - np.einsum("jkm,Biml->Bijkl", mul, c)
        - np.einsum("ilm,Bjkm->Bijkl", act, c)
    )
    return res.reshape(ndig, s * s * s * t)


def scan_assoc_numpy(mul, act, pair_i, pair_j, p, lo, hi):
    return _scan_indices(_assoc_residual(mul, act, pair_i, pair_j), p, lo, hi)


# ---------------------------------------------------------------------------
# oracle scan: Leibniz filter for candidate derivations
#
# Candidate n encodes a k-linear map D on the full algebra basis, digits
# D[i, l] for i over basis elements and l over J-coordinates.  Survivors
# satisfy D(e_i e_j) = e_i D(e_j) + e_j D(e_i) on every basis pair and
# vanish on the listed vectors (images of base-ring generators).  Both
# conditions are linear in D, so _linmap_residual evaluates them on the
# unit-digit maps only and solve_affine finds the survivors.
#
# Precondition: mul is commutative.  The Leibniz residual is then
# symmetric in (i, j), so the literal loop checks only j >= i; the numpy
# kernel checks every pair, so on a non-commutative table the two can
# disagree.


def _scan_linmap_py(mul, act, kill, p, lo, hi):
    s = mul.shape[0]
    t = act.shape[1]
    nkill = kill.shape[0]
    out = np.empty(hi - lo, np.int64)
    nout = 0
    D = np.zeros((s, t), np.int64)
    for n in range(lo, hi):
        m = n
        for i in range(s):
            for l in range(t):
                D[i, l] = m % p
                m //= p
        ok = True
        for b in range(nkill):
            for l in range(t):
                v = 0
                for i in range(s):
                    v += kill[b, i] * D[i, l]
                if v % p != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for i in range(s):
                if not ok:
                    break
                for j in range(i, s):
                    bad = False
                    for l in range(t):
                        v = 0
                        for w in range(s):
                            v += mul[i, j, w] * D[w, l]
                        for w in range(t):
                            v -= act[i, l, w] * D[j, w] + act[j, l, w] * D[i, w]
                        if v % p != 0:
                            bad = True
                            break
                    if bad:
                        ok = False
                        break
        if ok:
            out[nout] = n
            nout += 1
    return out[:nout]


def _linmap_residual(mul, act, kill):
    s = mul.shape[0]
    t = act.shape[1]
    ndig = s * t
    # row k: the map whose digit k is 1 and every other digit 0
    D = np.eye(ndig, dtype=np.int64).reshape(ndig, s, t)
    res = (
        np.einsum("ijm,Bml->Bijl", mul, D)
        - np.einsum("ilm,Bjm->Bijl", act, D)
        - np.einsum("jlm,Bim->Bijl", act, D)
    )
    kres = np.einsum("bi,Bil->Bbl", kill, D)
    return np.concatenate([res.reshape(ndig, s * s * t), kres.reshape(ndig, kill.shape[0] * t)], axis=1)


def scan_linmap_numpy(mul, act, kill, p, lo, hi):
    return _scan_indices(_linmap_residual(mul, act, kill), p, lo, hi)


# ---------------------------------------------------------------------------
# oracle scan: polynomial relation filter for candidate generator images
#
# Candidate n encodes, for each of nv generators, a vector
#   img[v] = base[v] + sum_d digit[v,d] * span[d]
# in a structure algebra with multiplication tensor mulc (basis element 0
# is the unit).  Survivors make every encoded relation vanish.  A
# relation is a sum of terms coefv[term] * prod_v img[v]^exps[term, v]
# where coefv[term] is a *vector* coefficient in the target algebra;
# scalar coefficients c are encoded as c * unit, and contributions of
# generators with forced images are folded into coefv by the caller.


def _scan_polyrel_py(mulc, base, span, rel_ptr, coefv, exps, p, lo, hi):
    sc = mulc.shape[0]
    nv = base.shape[0]
    nspan = span.shape[0]
    nrel = rel_ptr.shape[0] - 1
    out = np.empty(hi - lo, np.int64)
    nout = 0
    img = np.zeros((nv, sc), np.int64)
    for n in range(lo, hi):
        m = n
        for v in range(nv):
            for a in range(sc):
                img[v, a] = base[v, a]
            for d in range(nspan):
                dig = m % p
                m //= p
                if dig != 0:
                    for a in range(sc):
                        img[v, a] = (img[v, a] + dig * span[d, a]) % p
        ok = True
        for r in range(nrel):
            acc = np.zeros(sc, np.int64)
            for term in range(rel_ptr[r], rel_ptr[r + 1]):
                w = coefv[term].copy()
                for v in range(nv):
                    for _ in range(exps[term, v]):
                        nw = np.zeros(sc, np.int64)
                        for a in range(sc):
                            if w[a] == 0:
                                continue
                            for b in range(sc):
                                if img[v, b] == 0:
                                    continue
                                f = w[a] * img[v, b]
                                for kk in range(sc):
                                    nw[kk] = (nw[kk] + f * mulc[a, b, kk]) % p
                        w = nw
                for a in range(sc):
                    acc[a] = (acc[a] + w[a]) % p
            for a in range(sc):
                if acc[a] % p != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out[nout] = n
            nout += 1
    return out[:nout]


def scan_polyrel_numpy(mulc, base, span, rel_ptr, coefv, exps, p, lo, hi, batch=2048):
    sc = mulc.shape[0]
    nv = base.shape[0]
    nspan = span.shape[0]
    nrel = rel_ptr.shape[0] - 1
    ndig = nv * nspan
    chunks = []
    for start in range(lo, hi, batch):
        stop = min(start + batch, hi)
        ns = np.arange(start, stop, dtype=np.int64)
        nb = len(ns)
        dig = _digits(ns, ndig, p).reshape(nb, nv, nspan)
        img = (base[None, :, :] + np.einsum("Bvd,da->Bva", dig, span)) % p
        ok = np.ones(nb, bool)
        for r in range(nrel):
            acc = np.zeros((nb, sc), np.int64)
            for term in range(rel_ptr[r], rel_ptr[r + 1]):
                w = np.tile(coefv[term], (nb, 1))
                for v in range(nv):
                    for _ in range(int(exps[term, v])):
                        w = np.einsum("Ba,Bb,abk->Bk", w, img[:, v, :], mulc) % p
                acc = (acc + w) % p
            ok &= ~np.any(acc, axis=1)
        chunks.append(ns[ok])
    if not chunks:
        return np.empty(0, np.int64)
    return np.concatenate(chunks)


rref_modp = rref_modp_numpy
scan_assoc = scan_assoc_numpy
scan_linmap = scan_linmap_numpy
scan_polyrel = scan_polyrel_numpy
