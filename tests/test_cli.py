"""The command line interface: subcommands, flags, output modes, and the
exit code contract (0 ok, 1 invalid input, 2 budget, 3 mismatch)."""

import json
import shutil
import subprocess
import sys

import pytest

from defalg import __version__
from defalg.cli import main
from defalg.reports import strip_timing

GOOD = {
    "field": "F2",
    "algebras": {
        "dual": {"gens": ["x"], "relations": ["x^2"]},
        "thick": {"gens": ["w"], "relations": ["w^4"]},
    },
    "modules": {"dual.k": {"algebra": "dual", "kind": "trivial"}},
    "problems": [
        {
            "kind": "tmods",
            "name": "dims",
            "algebra": "dual",
            "module": "dual.k",
            "expected": {"t0": 1, "t1": 1, "t2": 0},
        },
        {
            "kind": "lift",
            "name": "blocked",
            "algebra": "dual",
            "through": "thick",
            "ideal": ["w^2"],
            "images": {"x": "w"},
            "expected": {"solvable": False},
        },
    ],
}


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(GOOD))
    return str(path)


def write(tmp_path, data, name="probs.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self, good_file, capsys):
        assert main(["tmods", good_file]) == 0
        out = capsys.readouterr().out
        assert "T0 1  T1 1  T2 0" in out

    def test_invalid_input_is_one(self, tmp_path, capsys):
        bad = {
            "field": "F2",
            "algebras": {"b": {"gens": ["x"], "relations": ["x^^2"]}},
            "problems": [],
        }
        assert main(["tmods", write(tmp_path, bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "algebras.b.relations[0]" in err
        assert "offset" in err

    @pytest.mark.parametrize("degree", ["0", "-3"])
    @pytest.mark.parametrize("command", [["tmods", None], ["corpus", "free"]])
    def test_truncate_below_one_is_invalid_input(self, good_file, capsys, command, degree):
        argv = [good_file if a is None else a for a in command]
        assert main([*argv, "--truncate", degree]) == 1
        assert f"--truncate: expected a degree >= 1, got {int(degree)}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--truncate", "--budget", "--seed"])
    @pytest.mark.parametrize("command", [["tmods", None], ["corpus", "free"]])
    def test_malformed_integer_flag_is_invalid_input(self, good_file, capsys, command, flag):
        argv = [good_file if a is None else a for a in command]
        assert main([*argv, flag, "x"]) == 1
        err = capsys.readouterr().err
        assert f"error: {flag}: expected " in err and "got 'x'" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command", [["tmods", None], ["corpus", "free"]])
    def test_budget_below_one_is_invalid_input(self, good_file, capsys, command, budget):
        argv = [good_file if a is None else a for a in command]
        assert main([*argv, "--oracle", "--budget", budget]) == 1
        assert f"error: --budget: expected a positive integer, got {int(budget)}" in capsys.readouterr().err

    def test_truncate_one_is_accepted(self, good_file, capsys):
        # dual truncated at degree 1 is the ground field: T1 becomes 0,
        # against the expected 1
        assert main(["tmods", good_file, "--truncate", "1"]) == 3
        assert "T0 0  T1 0  T2 0" in capsys.readouterr().out

    def test_missing_file_is_one(self, capsys):
        assert main(["tmods", "/does/not/exist.json"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_budget_exceeded_is_two(self, good_file, capsys):
        assert main(["tmods", good_file, "--oracle", "--budget", "1"]) == 2
        assert "budget exceeded:" in capsys.readouterr().err

    def test_over_budget_oracle_keeps_the_report(self, good_file, capsys):
        # "dims" needs 6 candidates, "blocked" needs 16
        assert main(["oracle", good_file, "--budget", "4", "--json"]) == 2
        cap = capsys.readouterr()
        dims, blocked = json.loads(cap.out)["problems"]
        assert dims["oracle"]["match"] is True
        assert blocked["oracle"] == {"skipped": "budget", "needed": 16, "limit": 4, "match": None}
        assert "budget exceeded: problem blocked" in cap.err
        assert main(["oracle", good_file, "--budget", "4"]) == 2
        assert "oracle over budget: blocked" in capsys.readouterr().out

    def test_oracle_skipped_where_int64_would_overflow(self, good_file, capsys):
        assert main(["tmods", good_file, "--field", "F2147483647", "--oracle"]) == 0
        assert "oracle skipped: oracle scans would overflow int64" in capsys.readouterr().out

    def test_mismatch_is_three(self, tmp_path, capsys):
        data = json.loads(json.dumps(GOOD))
        data["problems"][0]["expected"]["t1"] = 9
        assert main(["tmods", write(tmp_path, data)]) == 3
        assert "MISMATCH" in capsys.readouterr().out


class TestSubcommands:
    def test_kind_filtering(self, good_file, capsys):
        assert main(["lift", good_file]) == 0
        out = capsys.readouterr().out
        assert "blocked" in out and "dims" not in out
        assert "unsolvable" in out

    def test_oracle_command_runs_everything_checked(self, good_file, capsys):
        assert main(["oracle", good_file]) == 0
        out = capsys.readouterr().out
        assert "dims" in out and "blocked" in out
        assert "MATCH" in out and "MISMATCH" not in out

    def test_field_override_skips_oracles(self, good_file, capsys):
        assert main(["tmods", good_file, "--field", "Q", "--oracle"]) == 0
        assert "oracle skipped" in capsys.readouterr().out

    def test_corpus_list(self, capsys):
        assert main(["corpus", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("showcase", "free", "rational", "integrity"):
            assert name in out

    def test_corpus_runs_a_suite(self, capsys):
        assert main(["corpus", "showcase"]) == 0
        assert "problems" in capsys.readouterr().out

    def test_corpus_unknown_suite(self, capsys):
        assert main(["corpus", "nope"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_corpus_requires_a_suite(self, capsys):
        assert main(["corpus"]) == 1
        assert "choose a suite" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestJsonOutput:
    def test_json_is_valid_and_complete(self, good_file, capsys):
        assert main(["oracle", good_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "defalg"
        assert doc["version"] == __version__
        assert doc["summary"]["problems"] == 2
        assert doc["summary"]["mismatches"] == []
        assert doc["summary"]["oracle_checked"] == 2

    def test_json_is_deterministic_modulo_timing(self, good_file, capsys):
        assert main(["oracle", good_file, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["oracle", good_file, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert strip_timing(first) == strip_timing(second)


class TestRealProcess:
    def test_module_entry_point(self, good_file):
        proc = subprocess.run(
            [sys.executable, "-m", "defalg.cli", "tmods", good_file, "--oracle"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "MATCH" in proc.stdout

    def test_console_script(self):
        exe = shutil.which("defalg")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert __version__ in proc.stdout


# k[x,y]/(xy) is infinite-dimensional; truncated at degree 4 it has
# dimension 7 and T = (2, 3, 2) with the trivial module
CROSS = {
    "field": "F2",
    "algebras": {"cross": {"gens": ["x", "y"], "relations": ["x*y"]}, "line": {"gens": ["s"], "relations": ["s^2"]},
                 "rel": {"base": "line", "gens": ["x"], "relations": ["x^2 - s"]}, "thick": {"gens": ["s"], "relations": ["s^3"]}},
    "modules": {"cross.k": {"algebra": "cross", "kind": "trivial"}, "rel.k": {"algebra": "rel", "kind": "trivial"}},
    "problems": [
        {"kind": "tmods", "name": "dims", "algebra": "cross", "module": "cross.k"},
        {"kind": "deform", "name": "def", "algebra": "rel", "module": "rel.k", "extended_base": "thick", "ideal": ["s^2"]},
    ],
}


class TestOptionPrecedence:
    """truncate and seed: the command line, then the problem's own key,
    then the file's options."""

    def run(self, tmp_path, capsys, data, *flags):
        path = write(tmp_path, data)
        got = {}
        for kind in ("tmods", "deform"):
            assert main([kind, path, "--json", *flags]) == 0
            got.update((e["name"], e) for e in json.loads(capsys.readouterr().out)["problems"])
        return got

    def test_options_truncate_and_seed_are_read(self, tmp_path, capsys):
        got = self.run(tmp_path, capsys, {**CROSS, "options": {"truncate": 4, "seed": 11}})
        dims = got["dims"]
        assert (dims["t0"], dims["t1"], dims["t2"], dims["algebra_dim"]) == (2, 3, 2, 7)
        assert got["def"]["second_lift_seed"] == 11

    def test_without_options_nothing_is_truncated(self, tmp_path, capsys):
        got = self.run(tmp_path, capsys, CROSS)
        assert (got["dims"]["t0"], got["dims"]["t1"], got["dims"]["t2"]) == (2, 1, 0)
        assert "algebra_dim" not in got["dims"]
        assert got["def"]["second_lift_seed"] is None

    def test_the_problem_key_beats_the_options(self, tmp_path, capsys):
        data = json.loads(json.dumps(CROSS))
        data["options"] = {"truncate": 2, "seed": 11}
        data["problems"][0]["truncate"] = 4
        data["problems"][1]["seed"] = 5
        got = self.run(tmp_path, capsys, data)
        assert got["dims"]["algebra_dim"] == 7
        assert got["def"]["second_lift_seed"] == 5

    def test_the_command_line_beats_both(self, tmp_path, capsys):
        data = json.loads(json.dumps(CROSS))
        data["options"] = {"truncate": 2, "seed": 11}
        data["problems"][0]["truncate"] = 3
        data["problems"][1]["seed"] = 5
        got = self.run(tmp_path, capsys, data, "--truncate", "4", "--seed", "7")
        assert got["dims"]["algebra_dim"] == 7
        assert got["def"]["second_lift_seed"] == 7

    @pytest.mark.parametrize("where", ["options", "command line"])
    def test_load_builds_modules_over_the_truncation_the_runner_uses(self, tmp_path, capsys, where):
        # the regular module of k[x,y]/(xy) exists only once truncated
        data = json.loads(json.dumps(CROSS))
        data["modules"]["cross.reg"] = {"algebra": "cross", "kind": "regular"}
        data["problems"] = [{"kind": "tmods", "name": "reg", "algebra": "cross", "module": "cross.reg"}]
        flags = ["--truncate", "4"] if where == "command line" else []
        if where == "options":
            data["options"] = {"truncate": 4}
        assert main(["tmods", write(tmp_path, data), "--json", *flags]) == 0
        (reg,) = json.loads(capsys.readouterr().out)["problems"]
        assert reg["module_rank"] == reg["algebra_dim"] == 7
