"""Jobs of the benchmark workloads, and how their answers are checked.

A job is one call into defalg's public runners: ``corpus.run_suite`` on a
built-in suite, or ``reports.run_problem_set`` on a problem set built
here.  Each call loads a fresh problem set, so no memoised Groebner basis
or cached rref survives from one job to the next.

Answers are the ``strip_timing`` problem entries of each job's report.
They are compared with ``reference.json``, recorded with the package as
it stood when the benchmark was introduced; ``python3 bench/run.py
--record`` rewrites that file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# called through their modules, so the tracer's patches are seen
from defalg import corpus, problems, reports

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# t0, t1, t2 of the two larger tmods inputs; over Q the regular module of
# reg3 has smaller T0 and T1 than over F3
_TMODS_EXPECTED = {
    ("gb4", "F3"): (4, 5, 5),
    ("reg3", "F3"): (45, 45, 6),
    ("gb4", "Q"): (4, 5, 5),
    ("reg3", "Q"): (39, 39, 6),
}

_TMODS_INPUTS = {
    "gb4": (
        ["x", "y", "z", "w"],
        ["x^2+y*z+w^2", "y^2-x*w", "z^3", "w^3-x*y", "x*z-y*w"],
        "trivial",
    ),
    "reg3": (["x", "y", "z"], ["x^3", "y^3", "z^3", "x*y*z"], "regular"),
}


def tmods_problem_set(name: str, field: str) -> dict:
    """One tmods problem on the gb4 or reg3 input, with its expected dims."""
    gens, rels, kind = _TMODS_INPUTS[name]
    t0, t1, t2 = _TMODS_EXPECTED[(name, field)]
    return {
        "field": field,
        "algebras": {name: {"gens": gens, "relations": rels}},
        "modules": {f"{name}.m": {"algebra": name, "kind": kind}},
        "problems": [
            {
                "kind": "tmods",
                "name": name,
                "algebra": name,
                "module": f"{name}.m",
                "expected": {"t0": t0, "t1": t1, "t2": t2},
            }
        ],
        "options": {},
    }


def _without(problem_set: dict, name: str) -> dict:
    problem_set["problems"] = [e for e in problem_set["problems"] if e["name"] != name]
    return problem_set


def _rational_sets(field):
    return [{**corpus.rational_problem_set(), "field": f} for f in ("Q", "F2", "F3")]


# the problem sets each suite loads, so that set-up can build them ahead
_SUITE_SETS: Dict[str, Callable[[Optional[str]], List[dict]]] = {
    "showcase": lambda f: [corpus.showcase_problem_set(f)],
    "free": lambda f: [corpus.free_problem_set(f)],
    "lifts": lambda f: [corpus.lift_problem_set(f)],
    "extensions": lambda f: [corpus.classification_problem_set(f)],
    "deformations": lambda f: [corpus.deformation_problem_set(f)],
    "presentations": lambda f: [corpus.presentation_problem_set(f or "F2")],
    "integrity": lambda f: [corpus.deformation_problem_set(f)],
    "rational": _rational_sets,
}


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a suite run or a generated problem set."""

    id: str
    oracle: bool
    suite: Optional[str] = None
    field: Optional[str] = None
    problem_set: Optional[Callable[[], dict]] = None

    def problem_sets(self) -> List[dict]:
        if self.suite is not None:
            return _SUITE_SETS[self.suite](self.field)
        return [self.problem_set()]

    def run(self):
        opts = reports.RunOptions(oracle=self.oracle)
        if self.suite is not None:
            return corpus.run_suite(self.suite, self.field, opts)
        return reports.run_problem_set(problems.load_problem_file(self.problem_set()), opts)


def _suite_job(suite: str, field: Optional[str], oracle: bool) -> Job:
    jid = suite if field is None else f"{suite}.{field}"
    return Job(jid + ("+oracle" if oracle else ""), oracle, suite=suite, field=field)


def _tmods_job(name: str, field: str) -> Job:
    return Job(f"tmods.{name}.{field}", False, problem_set=lambda: tmods_problem_set(name, field))


def _trimmed_job(suite: str, make_set, drop: str) -> Job:
    return Job(
        f"{suite}.F2-{drop}+oracle", True, problem_set=lambda: _without(make_set("F2"), drop)
    )


SUITE_FIELDS = [
    ("showcase", None),
    ("free", "F2"),
    ("free", "F3"),
    ("free", "Q"),
    ("lifts", "F2"),
    ("lifts", "F3"),
    ("extensions", "F2"),
    ("extensions", "F3"),
    ("deformations", "F2"),
    ("deformations", "F3"),
    ("presentations", None),
    ("integrity", "F2"),
    ("integrity", "F3"),
    ("rational", None),
]

# The F2 extensions and deformations suites each hold one scan of 2^21
# candidates (node4, node4.dual): about 28 s and 32 s with the numpy
# kernels, too long to repeat inside one timed run.  "oracle-corpus" runs
# those two problem sets without them, and without the Baer-sum checks
# that only the suite adds (analytic runs those).
_TRIMMED = {
    ("extensions", "F2"): _trimmed_job("extensions", corpus.classification_problem_set, "node4"),
    ("deformations", "F2"): _trimmed_job("deformations", corpus.deformation_problem_set, "node4.dual"),
}


def workload_jobs(name: str) -> List[Job]:
    """The jobs of one pass, in their canonical order."""
    if name == "oracle-corpus":
        return [_TRIMMED.get(sf) or _suite_job(*sf, True) for sf in SUITE_FIELDS]
    if name == "analytic":
        return [_suite_job(*sf, False) for sf in SUITE_FIELDS] + [
            _tmods_job("gb4", "F3"),
            _tmods_job("reg3", "F3"),
        ]
    if name == "rational":
        return [_tmods_job("gb4", "Q"), _tmods_job("reg3", "Q"), _suite_job("rational", None, False)]
    raise KeyError(name)


WORKLOADS = ("oracle-corpus", "analytic", "rational")

# one cheap job per workload for --smoke: the same code paths in a second
SMOKE_JOB = {
    "oracle-corpus": "lifts.F2+oracle",
    "analytic": "extensions.F3",
    "rational": "rational",
}


def answers(report) -> List[dict]:
    """The timing-free problem entries of a report: what the job answered."""
    return reports.strip_timing(report.to_dict())["problems"]


def grade(
    got: Optional[List[dict]], want: Optional[List[dict]], mismatches: Sequence[str] = ()
) -> Tuple[int, int]:
    """(attempted, failed) over one job's problems and checks.

    An entry fails when its report lists it in ``mismatches`` (an
    expected, oracle or check entry is false) or when it differs from the
    reference answer; entries missing on either side fail, and a job that
    raised (got is None) fails every entry."""
    attempted = max(len(want or ()), len(got or ()), 1)
    if got is None or want is None:
        return attempted, attempted
    failed = abs(len(got) - len(want))
    for g, w in zip(got, want):
        if g["name"] in mismatches or json.dumps(g, sort_keys=True) != json.dumps(w, sort_keys=True):
            failed += 1
    return attempted, failed


def load_reference() -> Dict[str, List[dict]]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]
