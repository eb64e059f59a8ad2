"""Shared fixtures and small builders used across the test modules."""

from fractions import Fraction

import pytest

from defalg import GF, QQ
from defalg.algebras import FiniteModule, PresentedAlgebra


@pytest.fixture(params=["F2", "F3", "Q"], ids=["F2", "F3", "Q"])
def any_field(request):
    return {"F2": GF(2), "F3": GF(3), "Q": QQ}[request.param]


@pytest.fixture(params=["F2", "F3"], ids=["F2", "F3"])
def prime_field(request):
    return GF(2) if request.param == "F2" else GF(3)


def is_canonical(field, x):
    """The scalar contract: an int in range(p) over GF(p); over Q an int
    when integral and a Fraction only when its denominator exceeds 1
    (never a Fraction with denominator 1, never a float)."""
    if field is not QQ:
        return type(x) is int and 0 <= x < field.p
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def make_algebra(field, gens, relations, base_gens=(), base_relations=()):
    return PresentedAlgebra.from_strings(
        field, list(gens), list(relations), list(base_gens), list(base_relations)
    )


def fat_point(field):
    """k[x, y] / (x^2, xy, y^2), dimension 3."""
    return make_algebra(field, ["x", "y"], ["x^2", "x*y", "y^2"])


def dual_numbers(field):
    """k[x] / (x^2)."""
    return make_algebra(field, ["x"], ["x^2"])


def trivial_module(B):
    return FiniteModule.trivial(B)
