"""Problem file loading: the JSON shape, dotted error locations, and the
eager validation of every definition a file contains."""

import copy
import json

import pytest

from defalg.algebras import FiniteModule
from defalg.problems import ProblemFileError, load_problem_file
from defalg.reports import RunOptions, run_problem_set

BASE = {
    "field": "F2",
    "algebras": {
        "dual": {"gens": ["x"], "relations": ["x^2"]},
        "fat": {"gens": ["x", "y"], "relations": ["x^2", "x*y", "y^2"]},
        "node": {"gens": ["x", "y"], "relations": ["x*y"]},
    },
    "modules": {
        "dual.k": {"algebra": "dual", "kind": "trivial"},
        "fat.reg": {"algebra": "fat", "kind": "regular"},
        "node.tr": {"algebra": "node", "kind": "truncated", "degree": 2},
    },
    "problems": [
        {
            "kind": "tmods",
            "name": "first",
            "algebra": "dual",
            "module": "dual.k",
            "expected": {"t1": 1},
        },
        {
            "kind": "tmods",
            "name": "second",
            "algebra": "node",
            "module": "node.tr",
            "truncate": 4,
        },
    ],
    "options": {"budget": 4096, "seed": 7},
}


def variant(**edits):
    data = copy.deepcopy(BASE)
    data.update(edits)
    return data


def err(data, field=None):
    with pytest.raises(ProblemFileError) as exc:
        load_problem_file(data, field=field)
    return exc.value


class TestLoading:
    def test_loads_from_a_dict(self):
        ps = load_problem_file(BASE)
        assert ps.field.name == "F2"
        assert ps.algebra("dual").dim() == 2
        assert ps.algebra("fat").dim() == 3
        assert len(ps.problems) == 2
        assert ps.options == {"budget": 4096, "seed": 7}

    def test_loads_from_a_path(self, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text(json.dumps(BASE))
        ps = load_problem_file(str(path))
        assert [p.name for p in ps.problems] == ["first", "second"]

    def test_missing_file(self):
        e = err("/nonexistent/probs.json")
        assert "no such file" in str(e)
        assert e.location == "/nonexistent/probs.json"

    def test_unparsable_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"field": "F2",}')
        e = err(str(path))
        assert str(path) in e.location and ":" in e.location[len(str(path)) :]

    def test_field_override(self):
        ps = load_problem_file(BASE, field="F3")
        assert ps.field.name == "F3"
        assert ps.algebra("dual").field.char == 3

    def test_unknown_field_name(self):
        e = err(variant(field="F6"))
        assert e.location == "field"

    @pytest.mark.parametrize("value", [None, 3])
    def test_non_string_field_is_a_file_error(self, value):
        e = err(variant(field=value))
        assert e.location == "field"
        assert "must be a string" in str(e)

    def test_degree_past_the_packed_field_is_refused(self):
        algebras = dict(BASE["algebras"], huge={"gens": ["x"], "relations": ["x^1000000"]})
        e = err(variant(algebras=algebras))
        assert e.location == "algebras.huge.relations[0]"
        assert "does not fit the packed exponent field" in str(e)

    def test_truncation_is_honored(self):
        ps = load_problem_file(BASE)
        assert ps.algebra("node", truncate=4).dim() == 7
        with pytest.raises(ValueError, match="not finite-dimensional"):
            ps.algebra("node").std_monomials()

    def test_module_kinds(self):
        ps = load_problem_file(BASE)
        dual = ps.algebra("dual")
        assert ps.module("dual.k", dual).rank == 1
        fat = ps.algebra("fat")
        assert ps.module("fat.reg", fat).rank == 3
        node4 = ps.algebra("node", truncate=4)
        assert ps.module("node.tr", node4).rank == 3


class TestTopLevelErrors:
    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        e = err(str(path))
        assert e.location == "$"

    def test_unknown_top_level_key(self):
        e = err(variant(bogus=1))
        assert e.location.endswith("bogus") and "unknown key" in str(e)

    def test_problems_must_be_a_list(self):
        e = err(variant(problems={}))
        assert e.location == "problems"

    def test_duplicate_problem_names(self):
        data = variant()
        data["problems"][1]["name"] = "first"
        e = err(data)
        assert "duplicate problem name" in str(e)

    def test_options_validation(self):
        e = err(variant(options={"budget": 0}))
        assert e.location == "options.budget"
        e = err(variant(options={"seed": "x"}))
        assert e.location == "options.seed"
        e = err(variant(options={"truncate": -1}))
        assert e.location == "options.truncate"
        e = err(variant(options={"volume": 11}))
        assert e.location == "options.volume"


class TestAlgebraErrors:
    def test_invalid_algebra_name(self):
        data = variant()
        data["algebras"]["has.dot"] = {"gens": ["x"], "relations": []}
        e = err(data)
        assert e.location == "algebras.has.dot"
        assert "not a valid algebra name" in str(e)

    def test_bad_relation_in_an_unused_algebra(self):
        # nothing references it, but the file is still rejected up front
        data = variant()
        data["algebras"]["unused"] = {"gens": ["x"], "relations": ["x^^2"]}
        e = err(data)
        assert e.location == "algebras.unused.relations[0]"
        assert "offset" in str(e)

    def test_unknown_base(self):
        data = variant()
        data["algebras"]["rel"] = {"base": "nope", "gens": ["x"], "relations": []}
        e = err(data)
        assert e.location == "algebras.rel.base"

    def test_circular_base(self):
        data = variant()
        data["algebras"]["loop"] = {"base": "loop", "gens": ["x"], "relations": []}
        e = err(data)
        assert "circular" in str(e)

    def test_base_must_be_over_the_ground_field(self):
        data = variant()
        data["algebras"]["a1"] = {"gens": ["s"], "relations": ["s^2"]}
        data["algebras"]["a2"] = {"base": "a1", "gens": ["x"], "relations": ["x^2"]}
        data["algebras"]["a3"] = {"base": "a2", "gens": ["y"], "relations": ["y^2"]}
        e = err(data)
        assert e.location == "algebras.a3.base"

    def test_relative_presentation_flattens(self):
        data = variant()
        data["algebras"]["a1"] = {"gens": ["s"], "relations": ["s^2"]}
        data["algebras"]["rel"] = {"base": "a1", "gens": ["x"], "relations": ["x^2 - s"]}
        ps = load_problem_file(data)
        B = ps.algebra("rel")
        assert B.names == ("s", "x")
        assert B.dim() == 4

    def test_duplicate_generator_name(self):
        data = variant()
        data["algebras"]["dup"] = {"gens": ["x", "x"], "relations": []}
        e = err(data)
        assert e.location == "algebras.dup.gens"


class TestModuleErrors:
    def test_unknown_algebra_reference(self):
        data = variant()
        data["modules"]["m"] = {"algebra": "ghost", "kind": "trivial"}
        e = err(data)
        assert e.location == "modules.m.algebra"

    def test_unknown_kind(self):
        data = variant()
        data["modules"]["m"] = {"algebra": "dual", "kind": "free"}
        e = err(data)
        assert e.location.endswith(".kind")

    def test_regular_needs_finite_dimensions(self):
        # node is infinite-dimensional and nothing truncates this module
        data = variant()
        data["modules"]["m"] = {"algebra": "node", "kind": "regular"}
        e = err(data)
        assert "not finite-dimensional" in str(e)

    def test_explicit_matrix_shape(self):
        data = variant()
        data["modules"]["m"] = {
            "algebra": "dual",
            "kind": "explicit",
            "labels": ["j0"],
            "action": {"x": [[0, 0]]},
        }
        e = err(data)
        assert e.location.endswith(".action.x")
        assert "1x1" in str(e)

    def test_explicit_action_must_respect_relations(self):
        data = variant()
        data["modules"]["m"] = {
            "algebra": "dual",
            "kind": "explicit",
            "labels": ["j0"],
            "action": {"x": [[1]]},
        }
        e = err(data)
        assert "not a module over" in str(e)

    def test_explicit_missing_generator(self):
        data = variant()
        data["modules"]["m"] = {
            "algebra": "fat",
            "kind": "explicit",
            "labels": ["j0"],
            "action": {"x": [[0]]},
        }
        e = err(data)
        assert "missing matrix" in str(e)

    def test_trivial_module_over_a_ring_not_local_at_the_origin(self):
        # F3[x]/(x^2 - 1) is etale: the residue field at 0 is no module over it
        data = variant(field="F3")
        data["algebras"]["etale"] = {"gens": ["x"], "relations": ["x^2 - 1"]}
        data["modules"]["etale.k"] = {"algebra": "etale", "kind": "trivial"}
        data["problems"].append({"kind": "exal", "name": "e", "algebra": "etale", "module": "etale.k"})
        e = err(data)
        assert e.location == "modules.etale.k"
        assert "acts nontrivially" in str(e)

    def test_truncated_needs_a_degree(self):
        data = variant()
        data["modules"]["m"] = {"algebra": "node", "kind": "truncated", "degree": -1}
        e = err(data)
        assert e.location.endswith(".degree")


class TestProblemErrors:
    def test_unknown_problem_kind(self):
        data = variant()
        data["problems"].append({"kind": "solve", "algebra": "dual"})
        e = err(data)
        assert e.location == "problems[2].kind"

    def test_missing_required_key(self):
        data = variant()
        data["problems"].append({"kind": "tmods", "algebra": "dual"})
        e = err(data)
        assert "missing required key" in str(e) and "'module'" in str(e)

    def test_unknown_key_in_problem(self):
        data = variant()
        data["problems"][0]["extra"] = 1
        e = err(data)
        assert e.location == "problems[0].extra"

    def test_unknown_algebra_in_problem(self):
        data = variant()
        data["problems"][0]["algebra"] = "ghost"
        e = err(data)
        assert e.location == "problems[0].algebra"

    def test_unknown_module_in_problem(self):
        data = variant()
        data["problems"][0]["module"] = "ghost"
        e = err(data)
        assert e.location == "problems[0].module"

    def test_bad_expected(self):
        data = variant()
        data["problems"][0]["expected"] = [1]
        e = err(data)
        assert e.location == "problems[0].expected"

    def test_bad_truncate(self):
        data = variant()
        data["problems"][0]["truncate"] = -2
        e = err(data)
        assert e.location == "problems[0].truncate"

    def test_lift_problem_parses(self):
        data = variant()
        data["algebras"]["thick"] = {"gens": ["w"], "relations": ["w^4"]}
        data["problems"].append(
            {
                "kind": "lift",
                "name": "l0",
                "algebra": "dual",
                "through": "thick",
                "ideal": ["w^2"],
                "images": {"x": "w"},
                "expected": {"solvable": False},
            }
        )
        ps = load_problem_file(data)
        spec = ps.problems[-1]
        assert spec.kind == "lift" and spec.images == {"x": "w"}

    def test_lift_images_must_be_strings(self):
        data = variant()
        data["algebras"]["thick"] = {"gens": ["w"], "relations": ["w^4"]}
        data["problems"].append(
            {
                "kind": "lift",
                "name": "l0",
                "algebra": "dual",
                "through": "thick",
                "ideal": ["w^2"],
                "images": {"x": 3},
            }
        )
        e = err(data)
        assert e.location == "problems[2].images"

    def test_deform_problem_parses(self):
        data = variant()
        data["algebras"]["a1"] = {"gens": ["s"], "relations": ["s^2"]}
        data["algebras"]["a2"] = {"gens": ["s"], "relations": ["s^3"]}
        data["algebras"]["rel"] = {"base": "a1", "gens": ["x"], "relations": ["x^2 - s"]}
        data["modules"]["rel.k"] = {"algebra": "rel", "kind": "trivial"}
        data["problems"].append(
            {
                "kind": "deform",
                "name": "d0",
                "algebra": "rel",
                "module": "rel.k",
                "extended_base": "a2",
                "ideal": ["s^2"],
                "expected": {"obstructed": False},
            }
        )
        ps = load_problem_file(data)
        assert ps.problems[-1].kind == "deform"

    def test_bad_phi(self):
        data = variant()
        data["problems"].append(
            {
                "kind": "deform",
                "name": "d0",
                "algebra": "dual",
                "module": "dual.k",
                "extended_base": "dual",
                "ideal": ["x"],
                "phi": [1, 2],
            }
        )
        e = err(data)
        assert e.location == "problems[2].phi"


class TestTruncationDegree:
    """A truncation degree is at least 1 wherever a file gives one; 0 is
    refused when the file is parsed, at the key that holds it."""

    @pytest.mark.parametrize("kind", ["tmods", "exal"])
    def test_problem_truncate_zero(self, kind):
        data = variant()
        data["problems"][1]["kind"] = kind
        data["problems"][1]["truncate"] = 0
        e = err(data)
        assert e.location == "problems[1].truncate"
        assert "expected a degree >= 1" in str(e)

    def test_deform_truncate_zero(self):
        data = variant()
        data["problems"].append(
            {
                "kind": "deform",
                "name": "d0",
                "algebra": "dual",
                "module": "dual.k",
                "extended_base": "dual",
                "ideal": ["x"],
                "truncate": 0,
            }
        )
        e = err(data)
        assert e.location == "problems[2].truncate"
        assert "expected a degree >= 1" in str(e)

    def test_options_truncate_zero(self):
        e = err(variant(options={"truncate": 0}))
        assert e.location == "options.truncate"
        assert "expected a degree >= 1" in str(e)

    def test_module_degree_zero(self):
        data = variant()
        data["modules"]["node.tr"]["degree"] = 0
        e = err(data)
        assert e.location == "modules.node.tr.degree"
        assert "degree >= 1" in str(e)

    def test_degree_one_is_accepted_everywhere(self):
        data = variant(options={"truncate": 1})
        data["problems"][1]["truncate"] = 1
        data["modules"]["node.tr"]["degree"] = 1
        ps = load_problem_file(data)
        assert ps.algebra("node", truncate=1).dim() == 1
        assert ps.module("node.tr", ps.algebra("node", truncate=1)).rank == 1


class TestOneObjectPerSet:
    """Each algebra, truncation and module is built once per problem set
    and shared by every problem that names it, and by nothing else."""

    def test_algebras_truncations_and_modules_are_kept(self):
        ps = load_problem_file(BASE)
        B = ps.algebra("node", truncate=2)
        assert ps.algebra("node", truncate=2) is B
        assert ps.algebra("node") is ps.algebra("node") is not B
        assert ps.algebra("node", truncate=4) is not B
        assert ps.module("node.tr", B) is ps.module("node.tr", B)
        assert ps.module("node.tr", B) is not ps.module("node.tr", ps.algebra("node", truncate=4))
        dual = ps.algebra("dual")
        assert ps.module("dual.k", dual) is ps.module("dual.k", dual)
        assert B.base_algebra() is B.base_algebra()

    def test_a_shared_truncated_module_is_built_once(self, monkeypatch):
        calls = []
        build = FiniteModule.truncated_regular.__func__
        monkeypatch.setattr(
            FiniteModule, "truncated_regular", classmethod(lambda cls, B, d: calls.append(d) or build(cls, B, d))
        )
        data = variant()
        data["problems"] = [
            {"kind": "tmods", "name": "t", "algebra": "node", "module": "node.tr", "truncate": 4},
            {"kind": "exal", "name": "e", "algebra": "node", "module": "node.tr", "truncate": 4},
        ]
        ps = load_problem_file(data)
        report = run_problem_set(ps, RunOptions())
        assert [e["name"] for e in report.problems] == ["t", "e"]
        assert "error" not in report.problems[0] and "error" not in report.problems[1]
        assert calls == [2]

    def test_a_build_that_raises_is_not_kept(self, monkeypatch):
        calls = []
        build = FiniteModule.regular.__func__
        monkeypatch.setattr(FiniteModule, "regular", classmethod(lambda cls, B: calls.append(B) or build(cls, B)))
        data = variant()
        # node is infinite-dimensional: its regular module exists only
        # over a truncation, which is all the problem asks for
        data["modules"]["node.reg"] = {"algebra": "node", "kind": "regular"}
        data["problems"][1]["module"] = "node.reg"
        ps = load_problem_file(data)
        built = len(calls)
        node = ps.algebra("node")
        for _ in range(2):
            with pytest.raises(ProblemFileError, match="not finite-dimensional") as exc:
                ps.module("node.reg", node)
            assert exc.value.location == "modules.node.reg"
        assert calls[built:] == [node, node]

    def test_two_loads_share_nothing(self):
        sets = [load_problem_file(BASE), load_problem_file(BASE)]
        for ps in sets:
            run_problem_set(ps, RunOptions())
        algebras = [set(map(id, ps._algebras.values())) for ps in sets]
        modules = [set(map(id, ps._modules.values())) for ps in sets]
        bases = [{id(B.groebner()) for B in ps._algebras.values()} for ps in sets]
        assert len(algebras[0]) == len(algebras[1]) == 4  # dual, fat, node and node at degree 4
        assert len(modules[0]) == len(modules[1]) == 3
        assert not algebras[0] & algebras[1]
        assert not modules[0] & modules[1]
        assert not bases[0] & bases[1]
