"""Span tracing of defalg's layers from outside the package.

``Tracer.install`` wraps the functions listed in ``TARGETS``; ``uninstall``
puts the originals back and reports any attribute it could not restore.
A plain function is replaced under every ``defalg.*`` module attribute
bound to the same object, because ``from .x import f`` copies the name;
a method is replaced on its class.

Each call records a span (name, start, end, parent span, job id) in
memory; counters for countable work (candidates, matrix cells, budget
charges) are kept beside the spans.  A span's self time is its duration
minus the time its child spans cover.  ``poly`` and ``fields`` are too
fine-grained to wrap: their time is self time of the nearest wrapped
caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from defalg.budget import BudgetExceeded
from defalg.fields import PrimeField


def _field_tag(args) -> str:
    # Matrix methods, kernel_basis and solve_affine take a Matrix first,
    # complete_basis takes the field itself
    f = getattr(args[0], "field", args[0])
    return "fp" if isinstance(f, PrimeField) else "q"


def _linalg(name: str) -> Callable:
    def namer(args):
        return f"linalg.{_field_tag(args)}.{name}"

    namer.variants = [f"linalg.{tag}.{name}" for tag in ("fp", "q")]
    return namer


def _run_problem(args) -> str:
    return f"reports.run_problem.{args[1].kind}"


_run_problem.variants = [f"reports.run_problem.{k}" for k in ("tmods", "exal", "lift", "deform")]


def _matrix_cells(args, kwargs, result, exc):
    m = args[0]
    return [("cells", m.nrows * m.ncols)]


def _basis_cells(args, kwargs, result, exc):
    _, inner, outer, dim = args[:4]
    return [("cells", (len(inner) + len(outer)) * dim)]


def _scan_counts(args, kwargs, result, exc):
    lo, hi = args[-2], args[-1]
    if result is None:
        return [("candidates", hi - lo)]
    return [("candidates", hi - lo), ("survivors", len(result))]


def _rref_cells(args, kwargs, result, exc):
    return [("cells", int(args[0].size))]


def _charge_counts(args, kwargs, result, exc):
    if isinstance(exc, BudgetExceeded):
        return [("exceeded", 1)]
    return [("charged", args[1])]


def _coboundary_rebuilds(args, kwargs, result, exc):
    maps = args[1] if len(args) > 1 else kwargs.get("maps")
    return [("rebuilds", int(maps is None))]


# counters each hook adds to its span's record
HOOK_STATS = {
    _matrix_cells: ("cells",),
    _basis_cells: ("cells",),
    _scan_counts: ("candidates", "survivors"),
    _rref_cells: ("cells",),
    _charge_counts: ("charged", "exceeded"),
    _coboundary_rebuilds: ("rebuilds",),
}

# (module, attribute or Class.method, span name or a function of the call
# arguments that returns one of its .variants, counter hook or None)
TARGETS: List[Tuple[str, str, object, Optional[Callable]]] = [
    ("defalg._kernels", "scan_assoc", "kernels.scan_assoc", _scan_counts),
    ("defalg._kernels", "scan_linmap", "kernels.scan_linmap", _scan_counts),
    ("defalg._kernels", "scan_polyrel", "kernels.scan_polyrel", _scan_counts),
    ("defalg._kernels", "rref_modp", "kernels.rref_modp", _rref_cells),
    ("defalg.oracle", "enumerate_derivations", "oracle.enumerate_derivations", None),
    ("defalg.oracle", "enumerate_extensions", "oracle.enumerate_extensions", None),
    ("defalg.oracle", "enumerate_lifts", "oracle.enumerate_lifts", None),
    ("defalg.oracle", "enumerate_deformations", "oracle.enumerate_deformations", None),
    ("defalg.oracle", "check_torsor_action", "oracle.check_torsor_action", None),
    ("defalg.budget", "EnumerationBudget.charge", "budget.charge", _charge_counts),
    ("defalg.groebner", "buchberger", "groebner.buchberger", None),
    ("defalg.groebner", "module_syzygies", "groebner.module_syzygies", None),
    ("defalg.groebner", "syzygy_basis", "groebner.syzygy_basis", None),
    ("defalg.groebner", "normal_form", "groebner.normal_form", None),
    ("defalg.groebner", "normal_form_quotients", "groebner.normal_form_quotients", None),
    ("defalg.cotangent", "cotangent_complex", "cotangent.cotangent_complex", None),
    ("defalg.cotangent", "cochain_maps", "cotangent.cochain_maps", None),
    ("defalg.cotangent", "t_modules", "cotangent.t_modules", None),
    ("defalg.cotangent", "is_coboundary", "cotangent.is_coboundary", _coboundary_rebuilds),
    ("defalg.linalg", "Matrix.mul", _linalg("Matrix.mul"), _matrix_cells),
    ("defalg.linalg", "Matrix.rref", _linalg("Matrix.rref"), _matrix_cells),
    ("defalg.linalg", "kernel_basis", _linalg("kernel_basis"), _matrix_cells),
    ("defalg.linalg", "solve_affine", _linalg("solve_affine"), _matrix_cells),
    ("defalg.linalg", "complete_basis", _linalg("complete_basis"), _basis_cells),
    ("defalg.algebras", "PresentedAlgebra.to_structure", "algebras.to_structure", None),
    ("defalg.algebras", "FiniteModule.action_of_poly", "algebras.action_of_poly", None),
    ("defalg.algebras", "FiniteModule.basis_action_tensor", "algebras.basis_action_tensor", None),
    ("defalg.differential", "block_matrix", "differential.block_matrix", None),
    ("defalg.differential", "derivation_space", "differential.derivation_space", None),
    ("defalg.deformation", "classify_extensions", "deformation.classify_extensions", None),
    ("defalg.deformation", "baer_sum", "deformation.baer_sum", None),
    ("defalg.deformation", "extension_from_cocycle", "deformation.extension_from_cocycle", None),
    ("defalg.deformation", "extensions_equivalent", "deformation.extensions_equivalent", None),
    ("defalg.deformation", "obstruction_class", "deformation.obstruction_class", None),
    ("defalg.deformation", "realize_deformation", "deformation.realize_deformation", None),
    ("defalg.deformation", "lift_homomorphism", "deformation.lift_homomorphism", None),
    ("defalg.problems", "load_problem_file", "problems.load_problem_file", None),
    ("defalg.problems", "parse_polynomial", "problems.parse_polynomial", None),
    ("defalg.reports", "run_problem", _run_problem, None),
    ("defalg.corpus", "run_suite", "corpus.run_suite", None),
]

JOB_SPAN = "job"


def span_stats() -> Dict[str, Tuple[str, ...]]:
    """Every span name the targets can record, with its counters."""
    out = {}
    for _, _, name, hook in TARGETS:
        for n in name.variants if callable(name) else [name]:
            out[n] = HOOK_STATS.get(hook, ())
    return out


class Tracer:
    """Spans and counters of one traced pass; reusable across passes."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        self.job: Optional[str] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, Callable] = {}

    # -- recording ----------------------------------------------------

    def _call(self, name, fn, hook, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        result = exc = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                for stat, n in hook(args, kwargs, result, exc):
                    self.counts[(name, stat)] += n

    def run_job(self, job_id: str, fn: Callable):
        """Run one job under a root span that all its spans share."""
        self.job = job_id
        try:
            return self._call(JOB_SPAN, fn, None, (), {})
        finally:
            self.job = None

    def _wrap(self, orig, name, hook):
        namer = name if callable(name) else (lambda args, _n=name: _n)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self._call(namer(args), orig, hook, args, kwargs)

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "defalg" or n.startswith("defalg.")]
        for modname, path, name, hook in TARGETS:
            owner = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._patched.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, name, hook))
                continue
            orig = getattr(owner, path)
            wrapper = self._wrap(orig, name, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> List[str]:
        """Restore every patched attribute; return those still not the
        original object, and any defalg attribute still bound to a
        wrapper (both empty when unwrapping worked)."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, orig in self._patched
            if vars(owner).get(attr) is not orig
        ]
        for n, mod in sorted(sys.modules.items()):
            if n == "defalg" or n.startswith("defalg."):
                scopes = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
                for scope in scopes:
                    for attr, value in vars(scope).items():
                        if id(value) in self._wrappers:
                            bad.append(f"{n}.{getattr(scope, '__name__', '')}.{attr}")
        self._patched.clear()
        self._wrappers.clear()
        return sorted(set(bad))

    # -- results ------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s and self_s, plus counters."""
        child = [0.0] * len(self.spans)
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        durations = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            d = end - start
            durations.append(d)
            if parent >= 0:
                child[parent] += d
        for i, span in enumerate(self.spans):
            rec = out[span[0]]
            rec["calls"] += 1
            rec["total_s"] += durations[i]
            rec["self_s"] += durations[i] - child[i]
        for (name, stat), n in self.counts.items():
            out[name][stat] = out[name].get(stat, 0) + n
        return dict(out)

    def calls_by_job(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, job in self.spans:
            out[job][name] += 1
        return {j: dict(c) for j, c in out.items()}

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, job."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
