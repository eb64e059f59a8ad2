"""The packaged verification suites and the report machinery around them."""

import copy
import json
from pathlib import Path

import pytest

from defalg.corpus import describe, run_suite, suite_names
from defalg.problems import ProblemFileError, load_problem_file
from defalg.reports import Report, RunOptions, run_problem_set, strip_timing

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"

EXPECTED_SUITES = {
    "showcase",
    "free",
    "lifts",
    "extensions",
    "deformations",
    "presentations",
    "integrity",
    "rational",
}


def record_loads(monkeypatch) -> list:
    """The (field, truncate, seed) of every problem set the corpus loads
    from now on, in order."""
    from defalg import corpus

    loads = []

    def recording(data, field=None, truncate=None, seed=None):
        loads.append((field, truncate, seed))
        return load_problem_file(data, field=field, truncate=truncate, seed=seed)

    monkeypatch.setattr(corpus, "load_problem_file", recording)
    return loads


class TestSuites:
    def test_suite_inventory(self):
        assert set(suite_names()) == EXPECTED_SUITES

    def test_every_suite_has_a_description(self):
        for name in suite_names():
            text = describe(name)
            assert isinstance(text, str) and text

    def test_unknown_suite(self):
        with pytest.raises(ProblemFileError) as exc:
            run_suite("nope")
        assert exc.value.location == "suite"

    def test_showcase_runs_clean(self):
        rep = run_suite("showcase")
        assert rep.exit_code() == 0
        assert rep.mismatches == []
        assert len(rep.problems) > 0

    def test_rational_suite_runs_clean(self):
        rep = run_suite("rational")
        assert rep.exit_code() == 0
        assert rep.field.startswith("Q")

    def test_free_suite_vanishes_identically(self):
        rep = run_suite("free", field="F3")
        assert rep.field == "F3"
        assert rep.exit_code() == 0
        dims = [(e["t1"], e["t2"]) for e in rep.problems if e["kind"] == "tmods"]
        assert dims and all(d == (0, 0) for d in dims)

    @pytest.mark.parametrize("suite", ["extensions", "deformations", "integrity"])
    def test_answers_match_the_benchmark_reference(self, suite):
        # the F3 oracle suites build extension, deformation and Baer-sum
        # tables; their answers must stay byte-identical to the recorded ones
        want = json.loads(REFERENCE.read_text(encoding="utf-8"))["jobs"][f"{suite}.F3+oracle"]
        got = strip_timing(run_suite(suite, "F3", RunOptions(oracle=True)).to_dict())["problems"]
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_baer_check_counts_a_corrupted_sum(self, monkeypatch):
        # in the first batch of sums only, the sum of the first pair is
        # replaced by the sum of the second, which is a different class
        from defalg import corpus
        from defalg.deformation import ExtensionStack

        baer_sums = corpus.baer_sums
        calls = []

        def corrupted(s1, s2):
            out = baer_sums(s1, s2)
            calls.append(len(out))
            if len(calls) > 1:
                return out
            mul, images = out.mul.copy(), out.images.copy()
            mul[0], images[0] = out.mul[1], out.images[1]
            return ExtensionStack(out.B, out.J, mul, images)

        monkeypatch.setattr(corpus, "baer_sums", corrupted)
        rep = run_suite("extensions", "F3")
        baer = {e["name"]: (e["ok"], e["detail"]) for e in rep.problems if e["name"].startswith("baer.")}
        detail = "{} pairs: pullback construction vs summed cocycles, {} disagree"
        assert baer == {
            "baer.xsq": (False, detail.format(6, 1)),
            "baer.xcube": (True, detail.format(6, 0)),
            "baer.fat": (True, detail.format(378, 0)),
        }
        assert calls[0] == 6 and sum(calls) == 390

    def test_overrides_reach_every_deform_entry(self):
        from defalg.corpus import deformation_problem_set

        rep = run_suite("deformations", "F2", RunOptions(truncate=3, seed=5))
        deform = [e for e in rep.problems if e["kind"] == "deform"]
        assert rep.seed == 5 and deform and all(e["second_lift_seed"] == 5 for e in deform)
        by_hand = run_problem_set(load_problem_file(deformation_problem_set("F2"), truncate=3), RunOptions())

        def dims(entries):
            return [(e["name"], e["t1"], e["t2"], e["obstructed"], e["classes"]) for e in entries]

        assert dims(deform) == dims(by_hand.problems)
        # and the truncation moves some of them
        assert dims(deform) != dims(run_suite("deformations", "F2").problems)

    def test_rational_sub_runs_see_the_overrides(self, monkeypatch):
        loads = record_loads(monkeypatch)
        rep = run_suite("rational", opts=RunOptions(truncate=3, seed=5))
        assert loads == [(None, 3, 5), ("F2", 3, 5), ("F3", 3, 5)]
        # truncated, the node is finite-dimensional, so its oracles run
        by_name = {e["name"]: e for e in rep.problems}
        for name in ("f2.node", "f3.node"):
            assert by_name[name]["oracle"]["match"] is True
        plain = {e["name"]: e for e in run_suite("rational").problems}
        assert plain["f2.node"]["oracle"]["match"] is None

    def test_integrity_runs_load_without_overrides(self, monkeypatch):
        loads = record_loads(monkeypatch)
        over = run_suite("integrity", "F2", RunOptions(truncate=3, seed=5))
        assert loads and {(t, s) for _, t, s in loads} == {(None, None)}
        plain = run_suite("integrity", "F2")
        assert over.seed == 5
        assert strip_timing(over.to_dict())["problems"] == strip_timing(plain.to_dict())["problems"]

    def test_presentations_suite_checks_agreement(self):
        rep = run_suite("presentations")
        assert rep.exit_code() == 0
        checks = [e for e in rep.problems if e["kind"] == "check"]
        assert checks and all(e["ok"] for e in checks)


SMALL = {
    "field": "F2",
    "algebras": {"dual": {"gens": ["x"], "relations": ["x^2"]}},
    "modules": {"dual.k": {"algebra": "dual", "kind": "trivial"}},
    "problems": [
        {
            "kind": "tmods",
            "name": "dims",
            "algebra": "dual",
            "module": "dual.k",
            "expected": {"t0": 1, "t1": 1, "t2": 0},
        }
    ],
}


class TestReports:
    def test_expectations_checked(self):
        ps = load_problem_file(SMALL)
        rep = run_problem_set(ps, RunOptions())
        assert isinstance(rep, Report)
        assert rep.exit_code() == 0
        entry = rep.problems[0]
        assert (entry["t0"], entry["t1"], entry["t2"]) == (1, 1, 0)
        assert entry["expected"]["match"] is True

    def test_expectation_mismatch_sets_exit_code_three(self):
        data = copy.deepcopy(SMALL)
        data["problems"][0]["expected"] = {"t1": 5}
        rep = run_problem_set(load_problem_file(data), RunOptions())
        assert rep.exit_code() == 3
        assert rep.mismatches == ["dims"]
        assert "MISMATCH" in rep.render_text()
        assert rep.problems[0]["expected"]["mismatched"]["t1"] == {
            "expected": 5,
            "got": 1,
        }

    def test_oracle_confirmation_recorded(self):
        rep = run_problem_set(load_problem_file(SMALL), RunOptions(oracle=True))
        orc = rep.problems[0]["oracle"]
        assert orc["match"] is True and orc.get("skipped") is None
        assert rep.to_dict()["summary"]["oracle_checked"] == 1

    def test_oracle_skipped_over_the_rationals(self):
        rep = run_problem_set(
            load_problem_file(SMALL, field="Q"), RunOptions(oracle=True)
        )
        orc = rep.problems[0]["oracle"]
        assert orc["match"] is None
        assert "prime field" in orc["skipped"]
        assert "oracle skipped" in rep.render_text()

    def test_kind_filter(self):
        ps = load_problem_file(SMALL)
        rep = run_problem_set(ps, RunOptions(), kinds=["lift"])
        assert rep.problems == []

    def test_json_round_trip_and_determinism(self):
        rep1 = run_problem_set(load_problem_file(SMALL), RunOptions(oracle=True))
        rep2 = run_problem_set(load_problem_file(SMALL), RunOptions(oracle=True))
        d1 = strip_timing(rep1.to_dict())
        d2 = strip_timing(rep2.to_dict())
        assert d1 == d2
        parsed = json.loads(rep1.to_json())
        assert parsed["tool"] == "defalg"
        assert parsed["summary"]["problems"] == 1

    def test_strip_timing_is_recursive_and_non_destructive(self):
        obj = {"timing_ms": 3, "a": [{"timing_ms": 1, "keep": 2}], "b": {"c": 1}}
        out = strip_timing(obj)
        assert out == {"a": [{"keep": 2}], "b": {"c": 1}}
        assert obj["timing_ms"] == 3 and obj["a"][0]["timing_ms"] == 1

    def test_render_text_summarizes_dimensions(self):
        rep = run_problem_set(load_problem_file(SMALL), RunOptions())
        text = rep.render_text()
        assert "[tmods] dims: T0 1  T1 1  T2 0" in text
        assert "1 problems" in text
