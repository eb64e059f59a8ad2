"""The Q-against-F_p ratio script reads benchmark results files."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "q_vs_fp.py")


@pytest.fixture(scope="module")
def q_vs_fp():
    spec = importlib.util.spec_from_file_location("q_vs_fp", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def write_results(path, passes):
    path.write_text(json.dumps({"passes": [{"job_scaled_s": p} for p in passes]}))
    return str(path)


def test_ratio_of_median_job_times(q_vs_fp, tmp_path, capsys):
    q = write_results(tmp_path / "q.json", [
        {"tmods.reg3.Q": 0.5, "tmods.gb4.Q": 3.0, "rational": 0.01},
        {"tmods.reg3.Q": 0.3, "tmods.gb4.Q": 4.0, "rational": 0.01},
        {"tmods.reg3.Q": 0.4, "tmods.gb4.Q": 5.0, "rational": 0.01},
    ])
    fp = write_results(tmp_path / "fp.json", [
        {"tmods.reg3.F3": 0.02, "tmods.gb4.F3": 2.0, "free.Q": 0.03},
        {"tmods.reg3.F3": 0.02, "tmods.gb4.F3": 2.0, "free.Q": 0.03},
    ])
    assert q_vs_fp.ratios(q, fp) == [
        ("gb4", "F3", 4.0, 2.0, 2.0),
        ("reg3", "F3", 0.4, 0.02, pytest.approx(20.0)),
    ]
    assert q_vs_fp.main([q, fp]) == 0
    assert "reg3: Q 0.400 s, F3 0.0200 s, Q/F3 20.0x" in capsys.readouterr().out
    assert q_vs_fp.main([q]) == 2
