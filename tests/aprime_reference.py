"""The literal reduction in A', kept as the reference for obstruction
vectors and for the base relations' share of deformation tables.

A'[x] is presented on (base generators, nilpotents z_b, relative
generators) by the relations of A' (base relations shifted by their
cocycle values, products of nilpotents, the action rows of I), with its
own Groebner basis.  An element of the base-relation ideal reduces
modulo it to sum_b z_b q_b(x), which goes to sum_b rho_J(q_b) phi(e_b)
in J.  The library reads the same vectors off certified base-relation
cofactors instead; these functions compute them the long way.
"""

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from defalg.deformation import BaseDeformationProblem, _aprime_relations
from defalg.fields import PrimeField
from defalg.groebner import buchberger, normal_form
from defalg.linalg import vec_add
from defalg.poly import GREVLEX, Polynomial


class ZRing:
    """A'[x] on (base gens, nilpotents, relative gens), with the
    flattened ring of B embedded around the nilpotent block."""

    def __init__(self, prob: BaseDeformationProblem):
        B = prob.B
        f = B.field
        nb, tI, n = B.n_base, len(prob.i_labels), B.n_gens
        self.nb, self.tI, self.n = nb, tI, n
        self.nvars = nb + tI + n
        self.field = f
        # old flattened index -> new index (base first, x's after the z block)
        self.embed_map = list(range(nb)) + [nb + tI + i for i in range(n)]
        rels = [p.embed(self.nvars, range(nb + tI)) for p in _aprime_relations(prob)]
        self.gb = buchberger(rels or [Polynomial.zero(f, self.nvars)], GREVLEX)

    def embed(self, p: Polynomial) -> Polynomial:
        return p.embed(self.nvars, self.embed_map)

    def reduce_to_fiber(self, p: Polynomial) -> List[Tuple[int, Polynomial]]:
        """Normal form of an element of the base-relation ideal, split as
        (nilpotent index, cofactor) pairs; asserts the linear shape."""
        return split_fiber(self, normal_form(self.embed(p), self.gb))


def split_fiber(zr: ZRing, nf: Polynomial) -> List[Tuple[int, Polynomial]]:
    grouped: dict = {}
    for mo, c in nf.terms.items():
        if sum(mo[zr.nb : zr.nb + zr.tI]) != 1 or sum(mo[: zr.nb]) != 0:
            raise AssertionError("reduction is not linear in the nilpotents")
        b = next(k for k in range(zr.tI) if mo[zr.nb + k] == 1)
        grouped.setdefault(b, {})[(0,) * zr.nb + mo[zr.nb + zr.tI :]] = c
    return [(b, Polynomial(zr.field, zr.nb + zr.n, grouped[b])) for b in sorted(grouped)]


def push_fiber(prob: BaseDeformationProblem, pairs: Sequence[Tuple[int, Polynomial]]) -> list:
    """Send sum_b z_b * q_b(x) to sum_b rho_J(q_b) phi(e_b) in J."""
    J = prob.J
    f = J.field
    out = [f.zero()] * J.rank
    for b, q in pairs:
        out = vec_add(f, out, J.action_of_poly(q).mul_vec(prob.phi.col(b)))
    return out


def lift_noise(zr: ZRing, m: int, seed: int) -> List[Polynomial]:
    """For each of m relations a z-linear polynomial with small
    x-monomials, drawn from seed."""
    f = zr.field
    rng = random.Random(seed)
    if isinstance(f, PrimeField):
        pick = lambda: rng.randrange(f.p)
    else:
        pick = lambda: rng.randrange(-2, 3)
    nb, tI, n = zr.nb, zr.tI, zr.n
    xmonos = [(0,) * n] + [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    noise = []
    for _ in range(m):
        terms = {}
        for b in range(tI):
            for xm in xmonos:
                c = pick()
                if c:
                    terms[(0,) * nb + tuple(1 if k == b else 0 for k in range(tI)) + xm] = f.from_int(c)
        noise.append(Polynomial(f, zr.nvars, terms))
    return noise


def obstruction_vector(prob: BaseDeformationProblem, cx, seed: Optional[int] = None) -> list:
    """Pair each syzygy with the relations lifted to A'[x] (as f_j, or
    with a seed as f_j + noise_j), reduce in A'[x] and push into J."""
    zr = ZRing(prob)
    m = len(prob.B.relations)
    noise = [Polynomial.zero(zr.field, zr.nvars)] * m if seed is None else lift_noise(zr, m, seed)
    lifted = [zr.embed(fj) + nj for fj, nj in zip(prob.B.relations, noise)]
    psi: list = []
    for vec in cx.syz:
        sigma = Polynomial.zero(zr.field, zr.nvars)
        for c, lj in zip(vec, lifted):
            sigma = sigma + zr.embed(c) * lj
        psi.extend(push_fiber(prob, split_fiber(zr, normal_form(sigma, zr.gb))))
    return psi


def base_share(prob: BaseDeformationProblem, terms, coeffs: np.ndarray) -> np.ndarray:
    """coeffs @ (each base relation's cofactor term mo * g_a reduced in
    A'[x] and pushed into J; zero on a relative relation's term)."""
    B, J = prob.B, prob.J
    f = B.field
    zr = ZRing(prob)
    nb = len(B.base_relations)
    vals = np.zeros((len(terms), J.rank), f.dtype)
    for k, (g, mo) in enumerate(terms):
        if g < nb:
            p = Polynomial.monomial(f, B.nvars, mo) * B.base_relations[g]
            vals[k] = push_fiber(prob, zr.reduce_to_fiber(p))
    return f.matmul(coeffs, vals)
