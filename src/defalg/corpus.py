"""Built-in validation suites.

Each suite builds a problem set (or loads a packaged one), runs it, and
appends whatever cross-checks go beyond single problems: Baer sum
agreement, presentation independence, seed and section independence,
and byte-for-byte report determinism under permuted input.

Expected values baked into the suites were frozen from exhaustive
enumeration runs over F2 and F3; rerun any suite with oracle checks on
to reproduce them.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cotangent import CohomologyClass, is_coboundary
from .deformation import (
    baer_sums,
    classify_extensions,
    cocycle_from_extension,
    cocycles_from_extensions,
    equivalent_extensions,
    extension_from_cocycle,
    extensions_equivalent,
    extensions_from_cocycles,
    obstruction_class,
)
from .fields import field_by_name
from .linalg import vec_sub
from .problems import ProblemFileError, load_problem_file
from .reports import Report, RunOptions, _build_deform_problem, run_problem_set, strip_timing

__all__ = [
    "describe",
    "run_suite",
    "suite_names",
    "free_problem_set",
    "lift_problem_set",
    "classification_problem_set",
    "deformation_problem_set",
    "presentation_problem_set",
    "rational_problem_set",
    "showcase_problem_set",
]

_SUITES: Dict[str, Tuple[str, Callable]] = {}


def _suite(name: str, description: str):
    def deco(fn):
        _SUITES[name] = (description, fn)
        return fn

    return deco


def suite_names() -> List[str]:
    return list(_SUITES)


def describe(name: str) -> str:
    return _SUITES[name][0]


def run_suite(name: str, field: Optional[str] = None, opts: Optional[RunOptions] = None) -> Report:
    if name not in _SUITES:
        raise ProblemFileError("suite", f"unknown suite {name!r}")
    return _SUITES[name][1](field, opts or RunOptions())


def _check_entry(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "kind": "check", "ok": bool(ok), "detail": detail}


def _load(data: dict, opts: RunOptions, field: Optional[str] = None):
    """The problem set of data with the truncate and seed of opts
    settled into its problems, as the CLI loads a file."""
    return load_problem_file(data, field=field, truncate=opts.truncate, seed=opts.seed)


def _packaged(name: str) -> dict:
    text = resources.files("defalg").joinpath(f"data/{name}").read_text(encoding="utf-8")
    return json.loads(text)


# ----------------------------------------------------------------------
# showcase: the packaged tour file


def showcase_problem_set(field: Optional[str] = None) -> dict:
    d = _packaged("showcase.json")
    if field is not None:
        d["field"] = field
    return d


@_suite("showcase", "one worked problem of every kind, with frozen expected values")
def _run_showcase(field, opts):
    ps = _load(showcase_problem_set(field), opts)
    return run_problem_set(ps, opts)


# ----------------------------------------------------------------------
# free: polynomial algebras have no deformation cohomology


def free_problem_set(field: str = "F2") -> dict:
    algebras = {
        "A": {"gens": ["s"], "relations": ["s^2"]},
        "poly1": {"gens": ["x"], "relations": []},
        "poly2": {"gens": ["x", "y"], "relations": []},
        "poly3": {"gens": ["x", "y", "z"], "relations": []},
        "rel1": {"base": "A", "gens": ["x"], "relations": []},
        "rel2": {"base": "A", "gens": ["x", "y"], "relations": []},
        "rel3": {"base": "A", "gens": ["x", "y", "z"], "relations": []},
    }
    free_names = ["poly1", "poly2", "poly3", "rel1", "rel2", "rel3"]
    modules = {}
    problems = []
    for nm in free_names:
        gens = algebras[nm]["gens"]
        names = (["s"] if "base" in algebras[nm] else []) + gens
        zero = [[0, 0], [0, 0]]
        nil = [[0, 1], [0, 0]]
        action = {g: (nil if g == gens[0] else zero) for g in names}
        modules[f"{nm}.triv"] = {"algebra": nm, "kind": "trivial"}
        modules[f"{nm}.trunc"] = {"algebra": nm, "kind": "truncated", "degree": 2}
        modules[f"{nm}.ex2"] = {"algebra": nm, "labels": ["j0", "j1"], "action": action}
        for mod in ("triv", "trunc", "ex2"):
            problems.append(
                {
                    "kind": "tmods",
                    "name": f"{nm}.{mod}",
                    "algebra": nm,
                    "module": f"{nm}.{mod}",
                    "expected": {"t1": 0, "t2": 0},
                }
            )
    return {"field": field, "algebras": algebras, "modules": modules, "problems": problems, "options": {}}


@_suite("free", "polynomial algebras: T1 and T2 vanish for every coefficient module")
def _run_free(field, opts):
    ps = _load(free_problem_set(field or "F2"), opts)
    return run_problem_set(ps, opts)


# ----------------------------------------------------------------------
# lifts: maps through square-zero quotients, checked as torsors

_LIFT_COMMON = {
    "xsq.t0": True, "xsq.t1": False,
    "xcube.t0": True, "xcube.t1": False,
    "x4.t0": True, "x4.t1": False,
    "x4w.t0": True, "x4w.t1": False, "x4w.t2": False,
    "fat.t0": True, "fat.t1": False, "fat.t2": False,
    "fat.t3": False, "fat.t4": False, "fat.t5": False,
    "mix.t0": True, "mix.t1": False, "mix.t2": False,
    "mix.t3": False, "mix.t4": False,
    "conic.t0": True, "conic.t1": False, "conic.t2": False, "conic.t3": False,
    "xsqw.t0": True, "xsqw.t1": False,
    "chain2.t0": True, "chain2.t1": True, "chain2.t2": False,
    "xsq.usq": True,
}

# the one entry that depends on the characteristic: lifting x across
# x^2 = x*e needs (1 + 2c) to vanish, which only 3 | 3 allows
_LIFT_SOLVABLE: Dict[str, Dict[str, bool]] = {
    "F2": {**_LIFT_COMMON, "xsqw.t2": False},
    "F3": {**_LIFT_COMMON, "xsqw.t2": True},
}


def lift_problem_set(field: str = "F2") -> dict:
    algebras: Dict[str, dict] = {}
    problems: List[dict] = []

    def add(bname, gens, rels, nilrows, twists):
        algebras[bname] = {"gens": gens, "relations": rels}
        for ti, tw in enumerate(twists):
            cname = f"{bname}_c{ti}"
            crels = [r if not t else f"{r} - {t}" for r, t in zip(rels, tw)]
            algebras[cname] = {"gens": gens + ["e"], "relations": crels + nilrows}
            entry = {
                "kind": "lift",
                "name": f"{bname}.t{ti}",
                "algebra": bname,
                "through": cname,
                "ideal": ["e"],
                "images": {g: g for g in gens},
            }
            solvable = _LIFT_SOLVABLE.get(field, {}).get(entry["name"])
            if solvable is not None:
                entry["expected"] = {"solvable": solvable}
            problems.append(entry)

    add("xsq", ["x"], ["x^2"], ["x*e", "e^2"], [[""], ["e"]])
    add("xcube", ["x"], ["x^3"], ["x*e", "e^2"], [[""], ["e"]])
    add("x4", ["x"], ["x^4"], ["x*e", "e^2"], [[""], ["e"]])
    add("x4w", ["x"], ["x^4"], ["x^2*e", "e^2"], [[""], ["e"], ["x*e"]])
    add(
        "fat",
        ["x", "y"],
        ["x^2", "x*y", "y^2"],
        ["x*e", "y*e", "e^2"],
        [
            ["", "", ""],
            ["e", "", ""],
            ["", "e", ""],
            ["", "", "e"],
            ["e", "e", ""],
            ["e", "e", "e"],
        ],
    )
    add(
        "mix",
        ["x", "y"],
        ["x*y", "x^3", "y^2"],
        ["x*e", "y*e", "e^2"],
        [["", "", ""], ["e", "", ""], ["", "e", ""], ["", "", "e"], ["e", "", "e"]],
    )
    add(
        "conic",
        ["u", "v"],
        ["u^2 - v^2", "u*v"],
        ["u*e", "v*e", "e^2"],
        [["", ""], ["e", ""], ["", "e"], ["e", "e"]],
    )
    add("xsqw", ["x"], ["x^2"], ["e^2"], [[""], ["e"], ["x*e"]])
    add(
        "chain2",
        ["x", "y"],
        ["x^2 - y", "y^2"],
        ["x*e", "y*e", "e^2"],
        [["", ""], ["e", ""], ["", "e"]],
    )
    # one lift whose map is not the identity on generators
    algebras["uring"] = {"gens": ["u"], "relations": ["u^3"]}
    problems.append(
        {
            "kind": "lift",
            "name": "xsq.usq",
            "algebra": "xsq",
            "through": "uring",
            "ideal": ["u^2"],
            "images": {"x": "u^2"},
        }
    )
    solvable = _LIFT_SOLVABLE.get(field, {}).get("xsq.usq")
    if solvable is not None:
        problems[-1]["expected"] = {"solvable": solvable}
    return {"field": field, "algebras": algebras, "modules": {}, "problems": problems, "options": {}}


@_suite("lifts", "lifting through square-zero quotients; lift sets are derivation torsors")
def _run_lifts(field, opts):
    ps = _load(lift_problem_set(field or "F2"), opts)
    return run_problem_set(ps, opts)


# ----------------------------------------------------------------------
# extensions: classification plus Baer sum agreement


def classification_problem_set(field: str = "F2") -> dict:
    d = _packaged("classification.json")
    if field != d["field"]:
        d["field"] = field
        try:
            p = field_by_name(field).p
        except (ValueError, AttributeError):
            p = None
        # the truncated node needs a 3^21 scan over F3; only the F2 run
        # keeps it within an exhaustible range
        d["problems"] = [e for e in d["problems"] if e["name"] != "node4"]
        for entry in d["problems"]:
            exp = entry.get("expected")
            if exp and "classes" in exp:
                if p is None:
                    del exp["classes"]
                else:
                    exp["classes"] = p ** exp["t1"]
    return d


# table entries per batch of the Baer check: bounds its stacks' memory
# whatever the class count
_BAER_BATCH = 2**13


@_suite("extensions", "classify square-zero extensions; Baer sums agree with cocycle sums")
def _run_extensions(field, opts):
    ps = _load(classification_problem_set(field or "F2"), opts)
    report = run_problem_set(ps, opts)
    for spec in ps.problems:
        if spec.kind != "exal":
            continue
        B = ps.algebra(spec.algebra, truncate=spec.truncate)
        J = ps.module(spec.module, B)
        cls = classify_extensions(B, J)
        if not cls.complete:
            report.problems.append(
                _check_entry(f"baer.{spec.name}", True, "skipped: representative list incomplete")
            )
            continue
        f = B.field
        reps = cls.stack
        cocycles = cocycles_from_extensions(reps)
        # every pair i <= j, in batches of a bounded number of table entries
        first, second = np.triu_indices(len(reps))
        step = max(1, _BAER_BATCH // reps.mul[0].size)
        total, bad = len(first), 0
        for lo in range(0, total, step):
            i, j = first[lo : lo + step], second[lo : lo + step]
            geometric = baer_sums(reps.take(i), reps.take(j))
            algebraic = extensions_from_cocycles(B, J, f.reduce(cocycles[i] + cocycles[j]))
            bad += int(np.count_nonzero(~equivalent_extensions(geometric, algebraic)))
        report.problems.append(
            _check_entry(
                f"baer.{spec.name}",
                bad == 0,
                f"{total} pairs: pullback construction vs summed cocycles, {bad} disagree",
            )
        )
    return report


# ----------------------------------------------------------------------
# deformations: obstruction classes against exhaustive table scans

# (t1, t2, obstructed) per problem, identical over F2 and F3; the class
# count is p^t1 when unobstructed and 0 otherwise
_DEFORM_FACTS: Dict[str, Tuple[int, int, bool]] = {
    "fat.i0": (0, 0, False),
    "xcube.i0": (0, 0, False),
    "base_only": (0, 0, False),
    "base_only3": (0, 0, False),
    "ci_xsq": (1, 0, False),
    "ci.rank2": (2, 0, False),
    "pinch": (3, 1, True),
    "fat.dual": (3, 2, False),
    "x4.dual": (1, 0, False),
    "relfat_y": (3, 2, False),
    "conic.dual": (2, 0, False),
    "mix.dual": (3, 2, False),
    "ci_xcube": (1, 0, False),
    "node4.dual": (3, 2, False),
}


def _deform_expected(field: str, name: str) -> Optional[dict]:
    if field not in ("F2", "F3") or name not in _DEFORM_FACTS:
        return None
    p = 2 if field == "F2" else 3
    t1, t2, obstructed = _DEFORM_FACTS[name]
    return {"t1": t1, "t2": t2, "obstructed": obstructed, "classes": 0 if obstructed else p**t1}


def deformation_problem_set(field: str = "F2") -> dict:
    algebras = {
        "k": {"gens": [], "relations": []},
        "A0": {"gens": ["s"], "relations": ["s"]},
        "dual": {"gens": ["s"], "relations": ["s^2"]},
        "A2": {"gens": ["s"], "relations": ["s^3"]},
        "A3": {"gens": ["s"], "relations": ["s^4"]},
        "fat": {"gens": ["x", "y"], "relations": ["x^2", "x*y", "y^2"]},
        "xcube": {"gens": ["x"], "relations": ["x^3"]},
        "base_only": {"base": "dual", "gens": [], "relations": []},
        "base_only3": {"base": "A2", "gens": [], "relations": []},
        "ci_xsq": {"base": "dual", "gens": ["x"], "relations": ["x^2 - s"]},
        "ci_xcube": {"base": "dual", "gens": ["x"], "relations": ["x^3 - s"]},
        "pinch": {"base": "dual", "gens": ["x", "y"], "relations": ["x^2 + s", "x*y", "y^2 + s"]},
        "fat_rel": {"base": "A0", "gens": ["x", "y"], "relations": ["x^2", "x*y", "y^2"]},
        "x4_rel": {"base": "A0", "gens": ["x"], "relations": ["x^4"]},
        "node_rel": {"base": "A0", "gens": ["x", "y"], "relations": ["x*y"]},
        "relfat_y": {"base": "dual", "gens": ["x", "y"], "relations": ["x^2", "x*y", "y^2 - s"]},
        "conic_rel": {"base": "A0", "gens": ["u", "v"], "relations": ["u^2 - v^2", "u*v"]},
        "mix_rel": {"base": "A0", "gens": ["x", "y"], "relations": ["x*y", "x^3", "y^2"]},
    }
    modules = {
        "fat.zero": {"algebra": "fat", "kind": "explicit", "labels": [], "action": {"x": [], "y": []}},
        "xcube.zero": {"algebra": "xcube", "kind": "explicit", "labels": [], "action": {"x": []}},
        "base.only.k": {"algebra": "base_only", "kind": "trivial"},
        "base.only3.k": {"algebra": "base_only3", "kind": "trivial"},
        "ci.xsq.k": {"algebra": "ci_xsq", "kind": "trivial"},
        "ci.xsq.k2": {
            "algebra": "ci_xsq",
            "kind": "explicit",
            "labels": ["j0", "j1"],
            "action": {"s": [[0, 0], [0, 0]], "x": [[0, 0], [0, 0]]},
        },
        "ci.xcube.k": {"algebra": "ci_xcube", "kind": "trivial"},
        "pinch.k": {"algebra": "pinch", "kind": "trivial"},
        "fat.rel.k": {"algebra": "fat_rel", "kind": "trivial"},
        "x4.rel.k": {"algebra": "x4_rel", "kind": "trivial"},
        "node.rel.k": {"algebra": "node_rel", "kind": "trivial"},
        "relfat.y.k": {"algebra": "relfat_y", "kind": "trivial"},
        "conic.rel.k": {"algebra": "conic_rel", "kind": "trivial"},
        "mix.rel.k": {"algebra": "mix_rel", "kind": "trivial"},
    }

    def deform(name, algebra, module, extended_base, ideal, truncate=None, phi=None):
        entry = {
            "kind": "deform",
            "name": name,
            "algebra": algebra,
            "module": module,
            "extended_base": extended_base,
            "ideal": ideal,
        }
        if truncate is not None:
            entry["truncate"] = truncate
        if phi is not None:
            entry["phi"] = phi
        exp = _deform_expected(field, name)
        if exp is not None:
            entry["expected"] = exp
        return entry

    problems = [
        deform("fat.i0", "fat", "fat.zero", "k", []),
        deform("xcube.i0", "xcube", "xcube.zero", "k", []),
        deform("base_only", "base_only", "base.only.k", "A2", ["s^2"]),
        deform("base_only3", "base_only3", "base.only3.k", "A3", ["s^3"]),
        deform("ci_xsq", "ci_xsq", "ci.xsq.k", "A2", ["s^2"]),
        deform("ci.rank2", "ci_xsq", "ci.xsq.k2", "A2", ["s^2"], phi=[[1], [1]]),
        deform("pinch", "pinch", "pinch.k", "A2", ["s^2"]),
        deform("fat.dual", "fat_rel", "fat.rel.k", "dual", ["s"]),
        deform("x4.dual", "x4_rel", "x4.rel.k", "dual", ["s"]),
        deform("relfat_y", "relfat_y", "relfat.y.k", "A2", ["s^2"]),
        deform("conic.dual", "conic_rel", "conic.rel.k", "dual", ["s"]),
        deform("mix.dual", "mix_rel", "mix.rel.k", "dual", ["s"]),
    ]
    if field == "F2":
        # larger scans, kept out of the slower odd-characteristic runs
        problems.append(deform("ci_xcube", "ci_xcube", "ci.xcube.k", "A2", ["s^2"]))
        problems.append(deform("node4.dual", "node_rel", "node.rel.k", "dual", ["s"], truncate=4))
    return {
        "field": field,
        "algebras": algebras,
        "modules": modules,
        "problems": problems,
        "options": {"budget": 8388608},
    }


@_suite("deformations", "obstruction classes decide solvability; class counts follow T1")
def _run_deformations(field, opts):
    ps = _load(deformation_problem_set(field or "F2"), opts)
    return run_problem_set(ps, opts)


# ----------------------------------------------------------------------
# presentations: invariants do not depend on the chosen presentation

_PRESENTATION_PAIRS = [
    ("p1", {"gens": ["x"], "relations": ["x^3"]},
           {"gens": ["x", "w"], "relations": ["w - x^2", "w*x"]}),
    ("p2", {"gens": ["v"], "relations": ["v^2"]},
           {"gens": ["u", "v"], "relations": ["u - v", "u*v"]}),
    ("p3", {"gens": ["x", "y"], "relations": ["x*y"]},
           {"gens": ["a", "b"], "relations": ["a*b + b^2"]}),
    ("p4", {"gens": ["x", "y"], "relations": ["x^2", "x*y", "y^2"]},
           {"gens": ["x", "y"], "relations": ["x^2", "x*y", "y^2", "x^2 + y^2"]}),
    ("p5", {"gens": ["x"], "relations": ["x^4"]},
           {"gens": ["x", "y"], "relations": ["y - x^2", "y^2"]}),
    ("p6", {"gens": ["x", "y"], "relations": ["x^2", "x*y", "y^2"]},
           {"gens": ["y", "x"], "relations": ["y^2", "y*x", "x^2"]}),
]


def presentation_problem_set(field: str = "F2") -> dict:
    algebras = {}
    modules = {}
    problems = []
    for pair, da, db in _PRESENTATION_PAIRS:
        for side, d in (("a", da), ("b", db)):
            nm = f"{pair}{side}"
            algebras[nm] = d
            modules[f"{nm}.triv"] = {"algebra": nm, "kind": "trivial"}
            modules[f"{nm}.trunc"] = {"algebra": nm, "kind": "truncated", "degree": 2}
            for mod in ("triv", "trunc"):
                problems.append(
                    {"kind": "tmods", "name": f"{pair}.{side}.{mod}", "algebra": nm, "module": f"{nm}.{mod}"}
                )
    return {"field": field, "algebras": algebras, "modules": modules, "problems": problems, "options": {}}


@_suite("presentations", "T module dimensions agree across presentations of the same algebra")
def _run_presentations(field, opts):
    ps = _load(presentation_problem_set(field or "F2"), opts)
    report = run_problem_set(ps, opts)
    by_name = {e["name"]: e for e in report.problems}
    for pair, _, _ in _PRESENTATION_PAIRS:
        for mod in ("triv", "trunc"):
            ea = by_name[f"{pair}.a.{mod}"]
            eb = by_name[f"{pair}.b.{mod}"]
            da = (ea["t0"], ea["t1"], ea["t2"])
            db = (eb["t0"], eb["t1"], eb["t2"])
            report.problems.append(
                _check_entry(f"agree.{pair}.{mod}", da == db, f"dims {da} vs {db}")
            )
    return report


# ----------------------------------------------------------------------
# integrity: internal choices leave the answers invariant


@_suite("integrity", "seed, section and input-order choices never change an answer")
def _run_integrity(field, opts):
    fname = field or "F2"
    report = Report(field=fname, seed=opts.seed)

    # 1. the obstruction class does not depend on the second relation lift
    ps = load_problem_file(deformation_problem_set(fname))
    spec_by_name = {s.name: s for s in ps.problems}
    for nm in ("ci_xsq", "pinch", "fat.dual"):
        prob = _build_deform_problem(ps, spec_by_name[nm])
        r1 = obstruction_class(prob, second_lift_seed=17)
        r2 = obstruction_class(prob, second_lift_seed=101)
        same_verdict = r1.obstructed == r2.obstructed
        diff = vec_sub(prob.B.field, list(r1.psi), list(r2.psi))
        cls = CohomologyClass(prob.B, prob.J, 2, tuple(diff))
        bounds, _ = is_coboundary(cls)
        report.problems.append(
            _check_entry(
                f"seeds.{nm}",
                same_verdict and bounds,
                "verdicts agree and the two obstruction cocycles differ by a coboundary",
            )
        )

    # 2. the extension cocycle moves by a coboundary under section changes
    f = field_by_name(fname)
    fat = ps.algebra("fat")
    from .algebras import FiniteModule

    J = FiniteModule.trivial(fat)
    cls_fat = classify_extensions(fat, J)
    checked = agree = 0
    for rep in cls_fat.representatives[: 4 if cls_fat.complete else 1]:
        c0 = cocycle_from_extension(rep)
        c1 = cocycle_from_extension(rep, gen_offsets=[[f.one()], [f.one()]])
        diff = vec_sub(f, list(c0), list(c1))
        ok1, _ = is_coboundary(CohomologyClass(fat, J, 1, tuple(diff)))
        ok2 = extensions_equivalent(rep, extension_from_cocycle(fat, J, c1))
        checked += 1
        agree += ok1 and ok2
    report.problems.append(
        _check_entry(
            "sections.fat",
            agree == checked,
            f"{checked} representatives: shifted sections give cohomologous cocycles",
        )
    )

    # 3. permuting the input relations or generators leaves the report
    # byte-identical
    def order_report(gens, rels, run_opts, kinds=None):
        d = {
            "field": fname,
            "algebras": {"fat": {"gens": gens, "relations": rels}},
            "modules": {"fat.k": {"algebra": "fat", "kind": "trivial"}},
            "problems": [
                {"kind": "tmods", "name": "perm", "algebra": "fat", "module": "fat.k"},
                {"kind": "exal", "name": "perm.e", "algebra": "fat", "module": "fat.k"},
            ],
            "options": {},
        }
        rep = run_problem_set(load_problem_file(d), run_opts, kinds)
        return json.dumps(strip_timing(rep.to_dict()), sort_keys=True)

    j1 = order_report(["x", "y"], ["x^2", "x*y", "y^2"], RunOptions(oracle=opts.oracle))
    j2 = order_report(["x", "y"], ["y^2", "x*y", "x^2"], RunOptions(oracle=opts.oracle))
    report.problems.append(
        _check_entry("perm.relations", j1 == j2, "relation order: reports are byte-identical")
    )
    g1 = order_report(["x", "y"], ["x^2", "x*y", "y^2"], RunOptions(), ["tmods"])
    g2 = order_report(["y", "x"], ["y^2", "y*x", "x^2"], RunOptions(), ["tmods"])
    report.problems.append(
        _check_entry("perm.generators", g1 == g2, "generator order: reports are byte-identical")
    )
    return report


# ----------------------------------------------------------------------
# rational: exact arithmetic over Q, cross-checked over small primes


def rational_problem_set() -> dict:
    return {
        "field": "Q",
        "algebras": {
            "xsq": {"gens": ["x"], "relations": ["x^2"]},
            "node": {"gens": ["x", "y"], "relations": ["x*y"]},
        },
        "modules": {
            "xsq.k": {"algebra": "xsq", "kind": "trivial"},
            "node.k": {"algebra": "node", "kind": "trivial"},
        },
        "problems": [
            {"kind": "tmods", "name": "xsq", "algebra": "xsq", "module": "xsq.k",
             "expected": {"t0": 1, "t1": 1, "t2": 0}},
            {"kind": "tmods", "name": "node", "algebra": "node", "module": "node.k",
             "expected": {"t0": 2, "t1": 1, "t2": 0}},
        ],
        "options": {},
    }


@_suite("rational", "dimensions over Q, recomputed over F2 and F3 with oracle checks")
def _run_rational(field, opts):
    ps = _load(rational_problem_set(), opts)
    report = run_problem_set(ps, opts)
    report.field = "Q (cross-checked over F2, F3)"
    for fname in ("F2", "F3"):
        psp = _load(rational_problem_set(), opts, fname)
        sub = run_problem_set(psp, RunOptions(oracle=True, budget=opts.budget))
        for entry in sub.problems:
            entry["name"] = f"{fname.lower()}.{entry['name']}"
            report.problems.append(entry)
    by_name = {e["name"]: e for e in report.problems}
    for nm in ("xsq", "node"):
        dims = {
            f: (by_name[k]["t0"], by_name[k]["t1"], by_name[k]["t2"])
            for f, k in (("Q", nm), ("F2", f"f2.{nm}"), ("F3", f"f3.{nm}"))
        }
        ok = len(set(dims.values())) == 1
        report.problems.append(
            _check_entry(f"fields.{nm}", ok, f"dims agree across Q, F2, F3: {dims['Q']}")
        )
    return report
