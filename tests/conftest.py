"""Shared fixtures and small builders used across the test modules, and
the time per test file printed at the end of a run."""

from collections import defaultdict
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


def pytest_terminal_summary(terminalreporter):
    """Time per test file, setup, call and teardown summed, longest
    first: beside --durations, which names single tests."""
    per_file = defaultdict(float)
    for reports in terminalreporter.stats.values():
        for rep in reports:
            if getattr(rep, "when", None) in ("setup", "call", "teardown"):
                per_file[rep.nodeid.split("::")[0]] += rep.duration
    if not per_file:
        return
    terminalreporter.write_sep("=", f"time per test file ({sum(per_file.values()):.2f}s in all)")
    for path, secs in sorted(per_file.items(), key=lambda kv: (-kv[1], kv[0])):
        terminalreporter.write_line(f"{secs:8.2f}s  {path}")
