"""Run problem specs and collect the results into a report.

A report is a plain dict tree so it can be rendered as text or dumped
as JSON; everything in it is deterministic except the timing fields,
which strip_timing removes for byte-for-byte comparisons.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence

from . import __version__
from .algebras import PresentedAlgebra
from .budget import DEFAULT_ENUM_BUDGET, BudgetExceeded, EnumerationBudget
from .cotangent import is_coboundary, t_modules
from .deformation import (
    BaseDeformationProblem,
    LiftProblem,
    classify_extensions,
    lift_homomorphism,
    obstruction_class,
    realize_deformation,
)
from .fields import PrimeField
from .oracle import (
    check_torsor_action,
    enumerate_deformations,
    enumerate_derivations,
    enumerate_extensions,
    enumerate_lifts,
)
from .linalg import Matrix
from .problems import (
    DeformSpec,
    ExalSpec,
    LiftSpec,
    ProblemFileError,
    ProblemSet,
    ParseError,
    TModsSpec,
    parse_polynomial,
    parse_scalar,
)

__all__ = [
    "Report",
    "RunOptions",
    "run_problem",
    "run_problem_set",
    "strip_timing",
]


@dataclass
class RunOptions:
    """How problems are run.  truncate and seed override each problem's
    own keys, but they are applied when a problem set is loaded (by the
    CLI and by the corpus suites, through ``load_problem_file``): the
    runners read each problem's settled ``spec.truncate`` and
    ``spec.seed``, and seed here only labels the report."""

    oracle: bool = False
    budget: Optional[int] = None
    seed: Optional[int] = None
    truncate: Optional[int] = None

    def budget_for(self, ps: ProblemSet) -> EnumerationBudget:
        limit = self.budget
        if limit is None:
            limit = ps.options.get("budget", DEFAULT_ENUM_BUDGET)
        return EnumerationBudget(limit=limit)


def _oracle_feasibility(B: PresentedAlgebra, width: Callable[[], int]) -> Optional[str]:
    """Why the oracle scans cannot run, or None; width() is the largest
    table dimension they contract over."""
    if not isinstance(B.field, PrimeField):
        return "oracle scans need a prime field"
    if not B.is_finite_dimensional():
        return "oracle scans need a finite-dimensional algebra"
    # the bound of the polynomial-relation scan, width^2 int64 products
    # of three residues; the oracles now run only linear scans, which
    # need less, but relaxing it would change which reports are skipped
    if width() ** 2 * (B.field.p - 1) ** 3 >= 2**63:
        return "oracle scans would overflow int64 at this prime"
    return None


def _run_oracle(data: dict, B: PresentedAlgebra, width: Callable[[], int], oracle: Callable[[], dict]) -> None:
    """Set data["oracle"] to oracle()'s block, or to why it was skipped."""
    reason = _oracle_feasibility(B, width)
    if reason is not None:
        data["oracle"] = {"skipped": reason, "match": None}
        return
    try:
        data["oracle"] = oracle()
    except BudgetExceeded as e:
        data["oracle"] = {"skipped": "budget", "needed": e.needed, "limit": e.limit, "match": None}


def run_tmods(ps: ProblemSet, spec: TModsSpec, opts: RunOptions) -> dict:
    B = ps.algebra(spec.algebra, truncate=spec.truncate)
    J = ps.module(spec.module, B)
    t0, t1, t2 = t_modules(B, J)
    data = {
        "algebra": spec.algebra,
        "module": spec.module,
        "module_rank": J.rank,
        "t0": t0.dim,
        "t1": t1.dim,
        "t2": t2.dim,
    }
    if B.is_finite_dimensional():
        data["algebra_dim"] = B.dim()
    if opts.oracle:

        def oracle():
            bud = opts.budget_for(ps)
            p = B.field.p
            ders = enumerate_derivations(B, J, bud)
            ext = enumerate_extensions(B, J, bud)
            match = ders.count == p**t0.dim and ext.class_count == p**t1.dim and ext.has_band(t0.dim)
            return {
                "derivations": ders.count,
                "expected_derivations": p**t0.dim,
                "extension_classes": ext.class_count,
                "expected_classes": p**t1.dim,
                "candidates": bud.spent,
                "match": match,
            }

        _run_oracle(data, B, lambda: B.dim() + J.rank, oracle)
    return data


def run_exal(ps: ProblemSet, spec: ExalSpec, opts: RunOptions) -> dict:
    B = ps.algebra(spec.algebra, truncate=spec.truncate)
    J = ps.module(spec.module, B)
    cls = classify_extensions(B, J)
    data = {
        "algebra": spec.algebra,
        "module": spec.module,
        "t1": cls.t1_dim,
        "classes": cls.count,
        "complete": cls.complete,
    }
    if opts.oracle:

        def oracle():
            bud = opts.budget_for(ps)
            scan = enumerate_extensions(B, J, bud)
            match = scan.class_count == cls.count
            hit_orbits = None
            if cls.complete:
                hit = {scan.class_of(scan.state_of(e)) for e in cls.representatives}
                hit_orbits = len(hit)
                match = match and hit_orbits == scan.class_count
            return {
                "tables": scan.count,
                "classes": scan.class_count,
                "representatives_hit": hit_orbits,
                "candidates": bud.spent,
                "match": match,
            }

        _run_oracle(data, B, lambda: B.dim() + J.rank, oracle)
    return data


def _parse_ideal(ps: ProblemSet, spec, names) -> list:
    """The polynomials of spec.ideal in the named variables."""
    try:
        return [parse_polynomial(s, names, ps.field) for s in spec.ideal]
    except ParseError as e:
        raise ProblemFileError(f"problem {spec.name}.ideal", str(e)) from e


def _build_lift_problem(ps: ProblemSet, spec: LiftSpec) -> LiftProblem:
    B = ps.algebra(spec.algebra)
    Cp = ps.algebra(spec.through)
    f = ps.field
    loc = f"problem {spec.name}"
    ideal = _parse_ideal(ps, spec, Cp.names)
    images = []
    for nm in B.names:
        if nm not in spec.images:
            raise ProblemFileError(f"{loc}.images", f"missing image for generator {nm!r}")
        try:
            images.append(parse_polynomial(spec.images[nm], Cp.names, f))
        except ParseError as e:
            raise ProblemFileError(f"{loc}.images.{nm}", str(e)) from e
    extra = set(spec.images) - set(B.names)
    if extra:
        raise ProblemFileError(f"{loc}.images", f"images for unknown generators {sorted(extra)}")
    try:
        return LiftProblem.from_presented(B, Cp, ideal, images)
    except ValueError as e:
        raise ProblemFileError(loc, str(e)) from e


def run_lift(ps: ProblemSet, spec: LiftSpec, opts: RunOptions) -> dict:
    problem = _build_lift_problem(ps, spec)
    res = lift_homomorphism(problem)
    data = {
        "algebra": spec.algebra,
        "through": spec.through,
        "solvable": res.solvable,
        "freedom_dim": res.freedom_dim,
        "count": res.count,
    }
    if not res.solvable:
        vanishes, _ = is_coboundary(res.obstruction)
        data["class_vanishes"] = vanishes
    if opts.oracle:
        B = problem.B

        def oracle():
            bud = opts.budget_for(ps)
            scan = enumerate_lifts(problem, bud)
            ders = enumerate_derivations(B, problem.J, bud)
            torsor = check_torsor_action(scan, ders)
            match = torsor.ok and scan.count == (res.count or 0)
            if res.solvable and res.lifted_images is not None:
                match = match and res.lifted_images in scan.images
            return {
                "lifts": scan.count,
                "derivations": ders.count,
                "torsor": torsor.message,
                "candidates": bud.spent,
                "match": match,
            }

        _run_oracle(data, B, lambda: max(problem.Cprime.dim, B.dim() + problem.J.rank), oracle)
    return data


def _build_deform_problem(ps: ProblemSet, spec: DeformSpec) -> BaseDeformationProblem:
    B = ps.algebra(spec.algebra, truncate=spec.truncate)
    J = ps.module(spec.module, B)
    Ap = ps.algebra(spec.extended_base)
    f = ps.field
    loc = f"problem {spec.name}"
    ideal = _parse_ideal(ps, spec, Ap.names)
    phi = None
    if spec.phi is not None:
        rows = [
            [parse_scalar(f, v, f"{loc}.phi[{i}][{j}]") for j, v in enumerate(r)]
            for i, r in enumerate(spec.phi)
        ]
        if len(rows) != J.rank or any(len(r) != len(rows[0]) for r in rows):
            raise ProblemFileError(f"{loc}.phi", f"expected {J.rank} rows of equal length")
        phi = Matrix.from_rows(f, rows, ncols=len(rows[0]) if rows else 0)
    try:
        return BaseDeformationProblem.from_presented_total(B, J, Ap, ideal, phi=phi)
    except ValueError as e:
        raise ProblemFileError(loc, str(e)) from e


def run_deform(ps: ProblemSet, spec: DeformSpec, opts: RunOptions) -> dict:
    problem = _build_deform_problem(ps, spec)
    B, J = problem.B, problem.J
    res = obstruction_class(problem, second_lift_seed=spec.seed)
    t0, t1, t2 = t_modules(B, J)
    f = B.field
    classes = None
    if isinstance(f, PrimeField):
        classes = 0 if res.obstructed else f.p**t1.dim
    data = {
        "algebra": spec.algebra,
        "module": spec.module,
        "extended_base": spec.extended_base,
        "obstructed": res.obstructed,
        "t1": t1.dim,
        "t2": t2.dim,
        "classes": classes,
        "second_lift_seed": spec.seed,
    }
    realized = None
    if not res.obstructed and B.is_finite_dimensional():
        realized = realize_deformation(problem, res)
        data["realized"] = True
    if opts.oracle:

        def oracle():
            bud = opts.budget_for(ps)
            scan = enumerate_deformations(problem, bud)
            match = scan.solvable == (not res.obstructed) and scan.has_band(t0.dim)
            if classes is not None:
                match = match and scan.class_count == classes
            if realized is not None:
                match = match and scan.state_of(realized) in scan
            return {
                "tables": scan.count,
                "classes": scan.class_count,
                "solvable": scan.solvable,
                "candidates": bud.spent,
                "match": match,
            }

        _run_oracle(data, B, lambda: B.dim() + J.rank, oracle)
    return data


_RUNNERS = {
    "tmods": run_tmods,
    "exal": run_exal,
    "lift": run_lift,
    "deform": run_deform,
}


def run_problem(ps: ProblemSet, spec, opts: RunOptions) -> dict:
    start = time.perf_counter()
    data = _RUNNERS[spec.kind](ps, spec, opts)
    entry = {"name": spec.name, "kind": spec.kind}
    entry.update(data)
    if getattr(spec, "expected", None):
        off = {
            k: {"expected": v, "got": entry.get(k)}
            for k, v in spec.expected.items()
            if entry.get(k) != v
        }
        entry["expected"] = {"values": dict(spec.expected), "match": not off}
        if off:
            entry["expected"]["mismatched"] = off
    entry["timing_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    return entry


@dataclass
class Report:
    field: str
    problems: List[dict] = dc_field(default_factory=list)
    seed: Optional[int] = None

    @property
    def mismatches(self) -> List[str]:
        out = []
        for e in self.problems:
            orc = e.get("oracle")
            exp = e.get("expected")
            if (
                (orc is not None and orc.get("match") is False)
                or (exp is not None and exp.get("match") is False)
                or e.get("ok") is False
            ):
                out.append(e["name"])
        return out

    @property
    def over_budget(self) -> List[dict]:
        """Entries whose oracle was skipped because its scan exceeded the budget."""
        return [e for e in self.problems if (e.get("oracle") or {}).get("skipped") == "budget"]

    def exit_code(self) -> int:
        if self.mismatches:
            return 3
        return 2 if self.over_budget else 0

    def to_dict(self) -> dict:
        return {
            "tool": "defalg",
            "version": __version__,
            "field": self.field,
            "seed": self.seed,
            "problems": self.problems,
            "summary": {
                "problems": len(self.problems),
                "oracle_checked": sum(
                    1
                    for e in self.problems
                    if e.get("oracle") is not None and e["oracle"].get("match") is not None
                ),
                "mismatches": self.mismatches,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        for e in self.problems:
            head = f"[{e['kind']}] {e['name']}:"
            if e["kind"] == "tmods":
                head += f" T0 {e['t0']}  T1 {e['t1']}  T2 {e['t2']}"
            elif e["kind"] == "exal":
                c = "?" if e["classes"] is None else e["classes"]
                head += f" T1 {e['t1']}, {c} classes"
                if not e["complete"]:
                    head += " (representatives incomplete)"
            elif e["kind"] == "lift":
                if e["solvable"]:
                    head += f" solvable, {e['count']} lifts, freedom {e['freedom_dim']}"
                else:
                    head += " unsolvable"
                    if e.get("class_vanishes") is False:
                        head += " (obstruction class nonzero)"
            elif e["kind"] == "deform":
                if e["obstructed"]:
                    head += " obstructed"
                else:
                    c = "?" if e["classes"] is None else e["classes"]
                    head += f" unobstructed, {c} classes"
                head += f" (T1 {e['t1']}, T2 {e['t2']})"
            elif e["kind"] == "check":
                head += f" {e['detail']} -> {'ok' if e['ok'] else 'FAILED'}"
            lines.append(head)
            exp = e.get("expected")
            if exp is not None and not exp["match"]:
                for k, d in exp["mismatched"].items():
                    lines.append(f"    expected {k} {d['expected']}, got {d['got']} -> MISMATCH")
            orc = e.get("oracle")
            if orc is not None:
                if orc.get("skipped") == "budget":
                    lines.append(f"    oracle skipped: budget, needs {orc['needed']} candidates, limit {orc['limit']}")
                elif orc.get("match") is None:
                    lines.append(f"    oracle skipped: {orc['skipped']}")
                else:
                    verdict = "MATCH" if orc["match"] else "MISMATCH"
                    parts = [
                        f"{k} {v}"
                        for k, v in orc.items()
                        if k not in ("match", "skipped") and v is not None
                    ]
                    lines.append(f"    oracle: {', '.join(parts)} -> {verdict}")
        ms = self.mismatches
        over = [e["name"] for e in self.over_budget]
        lines.append(
            f"{len(self.problems)} problems, "
            + (f"MISMATCHES: {', '.join(ms)}" if ms else "all oracle checks in agreement")
            + (f"; oracle over budget: {', '.join(over)}" if over else "")
        )
        return "\n".join(lines)


def run_problem_set(
    ps: ProblemSet,
    opts: RunOptions,
    kinds: Optional[Sequence[str]] = None,
) -> Report:
    report = Report(field=ps.field.name, seed=opts.seed)
    for spec in ps.problems:
        if kinds is not None and spec.kind not in kinds:
            continue
        report.problems.append(run_problem(ps, spec, opts))
    return report


def strip_timing(obj):
    """A deep copy with every timing field removed, for byte-exact
    determinism comparisons."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj
