"""Checks of the benchmark itself: BENCHMARK.json, result shape, tracer, speed scaling.

Run with ``python -m pytest bench``.  The runs use ``--smoke`` (one cheap
job per workload) so the whole file takes seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from speed import REF_LOOP_S, Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import grade  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT, check=True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("analytic", 0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_patched_attribute():
    import defalg
    from defalg import corpus, problems
    from defalg.linalg import Matrix

    orig_load = problems.load_problem_file
    orig_mul = Matrix.__dict__["mul"]
    tracer = Tracer()
    tracer.install()
    try:
        assert corpus.load_problem_file is not orig_load
        assert defalg.load_problem_file is corpus.load_problem_file
        assert Matrix.__dict__["mul"] is not orig_mul
        tracer.run_job("j", lambda: corpus.run_suite("free", "F2"))
    finally:
        assert tracer.uninstall() == []
    assert corpus.load_problem_file is orig_load and defalg.load_problem_file is orig_load
    assert Matrix.__dict__["mul"] is orig_mul
    summary = tracer.summary()
    assert summary["corpus.run_suite"]["calls"] == 1
    assert summary["job"]["total_s"] >= summary["corpus.run_suite"]["total_s"]
    # reports calls t_modules through its own `from .cotangent import` copy
    assert summary["cotangent.t_modules"]["calls"] == 18
    assert all(rec["self_s"] >= 0 for rec in summary.values())


def test_grade_counts_differences_and_raised_jobs():
    want = [{"name": "a", "t1": 1}, {"name": "b", "kind": "check", "ok": True}]
    assert grade(want, want) == (2, 0)
    assert grade([{"name": "a", "t1": 2}, want[1]], want) == (2, 1)
    assert grade([want[0]], want) == (2, 1)
    assert grade(None, want) == (2, 2)
    assert grade([{"name": "c", "kind": "check", "ok": False}], None) == (1, 1)
    failing = [want[0], {"name": "b", "kind": "check", "ok": False}]
    assert grade(failing, failing, ["b"]) == (2, 1)
    assert grade([{"name": "a", "t1": 2}, failing[1]], failing, ["b"]) == (2, 2)


def test_scaled_time_divides_by_the_loop_time_during_the_span():
    speed = Speedometer()
    speed.samples = [(float(t), REF_LOOP_S * (2 if 10 <= t < 20 else 1)) for t in range(30)]
    assert speed.scaled(10, 19.5) == pytest.approx(9.5 / 2)
    assert speed.scaled(0, 9.5) == pytest.approx(9.5)
    # a span holding fewer than MIN_SAMPLES samples borrows the nearest ones
    assert speed.scaled(25.2, 25.4) == pytest.approx(0.2)
