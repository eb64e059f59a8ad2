"""The scripts under tools/: the Q-against-F_p ratio script reads
benchmark results files; the stripped-report script writes every corpus
report in one comparable file and names the reports two such files
differ in; the work-count script counts calls per suite by wrapping
functions by name."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def q_vs_fp():
    return load_tool("q_vs_fp")


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


def test_stripped_reports_of_one_suite(tmp_path, capsys):
    tool = load_tool("stripped_reports")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert tool.main([str(first), "showcase"]) == 0
    assert tool.main([str(second), "showcase"]) == 0
    # the same checkout gives the same bytes, so cmp is the comparison
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert "timing_ms" not in text
    reports = json.loads(text)
    assert list(reports) == sorted(
        [
            f"showcase/{field}/oracle-{mode}"
            for field in ("default", "F2", "F3", "F5", "Q")
            for mode in ("off", "on")
        ]
        + ["showcase/default/overrides"]
    )
    # the overridden run carries its seed into the report and every deform entry
    over = reports["showcase/default/overrides"]
    deform = [e for e in over["problems"] if e["kind"] == "deform"]
    assert over["seed"] == 5 and deform and all(e["second_lift_seed"] == 5 for e in deform)
    assert not any(e.get("oracle") for e in over["problems"])
    assert reports["showcase/F3/oracle-on"]["field"] == "F3"
    assert all(e.get("oracle") for e in reports["showcase/F3/oracle-on"]["problems"])
    assert not any(e.get("oracle") for e in reports["showcase/F3/oracle-off"]["problems"])
    assert tool.main([str(first), "no-such-suite"]) == 2
    assert "no-such-suite" in capsys.readouterr().err
    assert tool.main([]) == 2


def test_stripped_reports_diff_names_the_differing_keys(tmp_path, capsys):
    tool = load_tool("stripped_reports")
    report = {"field": "F2", "problems": [{"name": "a", "ok": True}]}
    base = {"s/F2/oracle-on": report, "s/F2/oracle-off": report, "s/Q/oracle-on": report}
    change = {
        "s/F2/oracle-on": {"field": "F2", "problems": [{"name": "a", "ok": False}]},
        "s/F2/oracle-off": report,
        "s/F3/oracle-on": report,
    }
    paths = {}
    for name, data in (("base", base), ("change", change)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data, indent=1, sort_keys=True))
    capsys.readouterr()
    assert tool.main(["--diff", str(paths["base"]), str(paths["change"])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s/F2/oracle-on",
        "s/F3/oracle-on (only in change)",
        "s/Q/oracle-on (only in base)",
    ]
    assert tool.main(["--diff", str(paths["base"]), str(paths["base"])]) == 0
    assert capsys.readouterr().out == ""
    assert tool.main(["--diff", str(paths["base"])]) == 2


def test_work_counts_of_one_suite_and_their_comparison(tmp_path):
    # in a child process: the counters wrap defalg functions for good
    src = os.path.join(os.path.dirname(TOOLS), "src")
    out = tmp_path / "counts.json"
    run = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "work_counts.py"), "--json", str(out), "showcase"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    counts = json.loads(out.read_text())
    assert list(counts) == ["showcase", "total"]
    assert counts["showcase"] == counts["total"]
    names = ["buchberger", "engines", "z_divmod", "modules", "cotangent", "cochain", "polynomials", "rrefs", "fractions"]
    assert list(counts["total"]) == names
    # the showcase runs over F2: every counter but the Fraction builds moves
    assert all(counts["total"][k] > 0 for k in names[:-1]) and counts["total"]["fractions"] == 0
    # every Groebner run starts one engine; the prunes and module syzygies start their own
    assert counts["total"]["engines"] > counts["total"]["buchberger"]
    assert run.stdout.splitlines()[0].split() == ["suite", *names]
    tool = load_tool("work_counts")
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"showcase": {**counts["showcase"], "modules": None}}))
    lines = tool.compare(str(base), str(out)).splitlines()
    n = counts["showcase"]
    assert lines[0] == (
        f"showcase: buchberger {n['buchberger']} -> {n['buchberger']}, engines {n['engines']} -> {n['engines']}, "
        f"z_divmod {n['z_divmod']} -> {n['z_divmod']}, "
        f"modules - -> {n['modules']}, cotangent {n['cotangent']} -> {n['cotangent']}, "
        f"cochain {n['cochain']} -> {n['cochain']}, "
        f"polynomials {n['polynomials']} -> {n['polynomials']}, rrefs {n['rrefs']} -> {n['rrefs']}, "
        f"fractions {n['fractions']} -> {n['fractions']}"
    )
    assert lines[1].startswith("total: buchberger - -> ")


def test_work_counts_mark_a_missing_function(monkeypatch):
    tool = load_tool("work_counts")
    monkeypatch.setattr(
        tool,
        "TARGETS",
        {
            "ghost": (("defalg.groebner", "_no_such_function"),),
            "half": (("defalg.fields", "PrimeField.rref"), ("defalg.fields", "NoSuchField.rref")),
        },
    )
    counts = {}
    tool.install(counts)
    assert counts == {"ghost": None, "half": None}
    # a counter with a missing function wraps none of the others
    from defalg.fields import PrimeField

    assert not hasattr(PrimeField.rref, "__wrapped__")
