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
