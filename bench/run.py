#!/usr/bin/env python3
"""Benchmark of defalg: timed closed-loop passes over one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 bench/run.py --record

A pass runs every job of the workload once, one after another, in an
order drawn from the seed; the answers never depend on it.  Passes repeat
while the next one, taking as long as the last, would end within
``--seconds`` (at least one pass).  Every answer is
checked against its own expected/oracle/check entries and against
``reference.json``.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json: the median pass time and the median set-up time of fresh
processes, both scaled to a reference host speed (see speed.py), and
this process's peak resident memory.  Raw wall and CPU times go to the
results file.  BLAS runs on one thread.  With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py).  The last line of standard
output is one JSON object; the full results, environment included, go to
``bench/out/``.  ``--smoke`` runs one cheap job per workload instead of a
pass, so tests can check names, units and JSON shape in seconds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_defalg():
    """Import defalg from this checkout's src/, never from elsewhere."""
    pkg = os.path.join(SRC, "defalg")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"defalg sources not found at {pkg}")
    sys.path.insert(0, SRC)
    import defalg

    if os.path.dirname(os.path.abspath(defalg.__file__)) != pkg:
        raise SystemExit(f"imported defalg from {defalg.__file__}, expected {pkg}")


def environment() -> dict:
    import numpy as np
    from defalg import _kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": _kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def _jobs(workload: str, smoke: bool):
    from workloads import SMOKE_JOB, workload_jobs

    jobs = workload_jobs(workload)
    if smoke:
        jobs = [j for j in jobs if j.id == SMOKE_JOB[workload]]
    return jobs


# -- set-up -------------------------------------------------------------


def setup_probe(workload: str, smoke: bool) -> None:
    """What a fresh process does before its first job: import defalg and
    build and validate every problem set of the workload."""
    from defalg.problems import load_problem_file

    for job in _jobs(workload, smoke):
        for ps in job.problem_sets():
            load_problem_file(ps)


def measure_setup(workload: str, smoke: bool, runs: int) -> list:
    """(start, end) of each of ``runs`` fresh set-up processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload]
    if smoke:
        cmd.append("--smoke")
    spans = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        spans.append((start, time.perf_counter()))
    return spans


# -- passes -------------------------------------------------------------


def run_pass(order, tracer=None):
    """Run the jobs in order; return the pass record (wall and CPU
    seconds, (start, end) of each job) and each job's report, or None
    where a job raised."""
    spans, reports = {}, {}
    start, cpu_start = time.perf_counter(), time.process_time()
    for job in order:
        j0 = time.perf_counter()
        try:
            reports[job.id] = tracer.run_job(job.id, job.run) if tracer else job.run()
        except Exception:  # a failing job is counted; the pass goes on
            traceback.print_exc(file=sys.stderr)
            reports[job.id] = None
        spans[job.id] = (j0, time.perf_counter())
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return {"wall_s": wall, "cpu_s": cpu, "order": [j.id for j in order], "job_spans": spans}, reports


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass: calls, self_s and counters
    per wrapped function, plus module totals and shares of the pass."""
    from tracer import JOB_SPAN, span_stats

    summary = tracer.summary()
    m = {}
    modules = {}
    for name, stats in sorted(span_stats().items()):
        rec = summary.get(name, {})
        m[f"{name}.calls"] = (rec.get("calls", 0), "count")
        m[f"{name}.self_s"] = (rec.get("self_s", 0.0), "s")
        m[f"{name}.total_s"] = (rec.get("total_s", 0.0), "s")
        for stat in stats:
            m[f"{name}.{stat}"] = (rec.get(stat, 0), "count")
        mod = ".".join(name.split(".")[:2]) if name.startswith("linalg.") else name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + rec.get("self_s", 0.0)
    for stat in ("candidates", "survivors"):
        total = sum(m[f"kernels.{k}.{stat}"][0] for k in ("scan_assoc", "scan_linmap", "scan_polyrel"))
        m[f"kernels.{stat}"] = (total, "count")
    cands, surv = m["kernels.candidates"][0], m["kernels.survivors"][0]
    m["kernels.survivor_ratio"] = (surv / cands if cands else 0.0, "ratio")
    m["budget.charged"] = m.pop("budget.charge.charged")
    m["budget.exceeded"] = m.pop("budget.charge.exceeded")
    m["unwrapped.self_s"] = (summary.get(JOB_SPAN, {}).get("self_s", 0.0), "s")
    for mod, s in modules.items():
        m[f"layer.{mod}.self_s"] = (s, "s")
        m[f"layer.{mod}.share"] = (s / wall, "ratio")
    m["trace.wall_s"] = (wall, "s")
    return m


def predictions(workload: str, metrics: dict) -> list:
    """The expected layer split of this workload, judged on the numbers."""
    shares = {k[len("layer."):-len(".share")]: v for k, (v, _) in metrics.items()
              if k.startswith("layer.") and k.endswith(".share")}
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    out = []
    if workload == "oracle-corpus":
        s = shares["oracle"] + shares["kernels"] + shares["budget"]
        out.append(("oracle+kernels self time >= 90% of the pass", s >= 0.9, f"share {s:.3f}"))
    else:
        charged, cands = metrics["budget.charged"][0], metrics["kernels.candidates"][0]
        out.append(("no oracle candidates charged", charged == 0,
                    f"budget.charged {charged}, kernels.candidates {cands}"))
    if workload == "analytic":
        gc = shares["groebner"] + shares["cotangent"]
        top = max(s for k, s in shares.items() if k not in ("groebner", "cotangent"))
        out.append(("groebner+cotangent self time is the largest share", gc > top,
                    f"groebner+cotangent {gc:.3f} vs next module {top:.3f}"))
    if workload == "rational":
        out.append(("linalg.q self time is the largest share", ranked[0][0] == "linalg.q",
                    f"linalg.q {shares['linalg.q']:.3f}; largest {ranked[0][0]} {ranked[0][1]:.3f}"))
    out.append(("module shares", None, ", ".join(f"{k} {s:.3f}" for k, s in ranked[:8])))
    return [{"prediction": p, "confirmed": ok, "numbers": n} for p, ok, n in out]


def measure(jobs, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for at most ``seconds`` (at least one pass); with
    ``trace``, untraced and traced passes alternate and at least one of
    each runs."""
    from workloads import answers, grade, load_reference

    reference = load_reference()
    rng = random.Random(seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    r = {"plain": [], "traced": [], "layers": [], "attempted": 0, "failed": 0,
         "unwrap_errors": [], "traced_mismatches": []}
    plain_answers = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(r["traced"]) < len(r["plain"])
        order = rng.sample(jobs, len(jobs))
        if traced:
            tracer.reset()
            try:
                tracer.install()
                rec, reps = run_pass(order, tracer)
            finally:
                r["unwrap_errors"] += tracer.uninstall()
            r["layers"].append(layer_metrics(tracer, rec["wall_s"]))
        else:
            rec, reps = run_pass(order)
        r["traced" if traced else "plain"].append(rec)
        for jid, rep in reps.items():
            got = answers(rep) if rep is not None else None
            attempted, failed = grade(got, reference.get(jid), rep.mismatches if rep else ())
            r["attempted"] += attempted
            r["failed"] += failed
            key = json.dumps(got, sort_keys=True)
            if not traced:
                plain_answers.setdefault(jid, key)
            elif plain_answers[jid] != key:
                r["traced_mismatches"].append(jid)
        # stop before a pass that would end after the deadline, once the
        # run holds at least one pass (one of each kind when tracing)
        if (not trace or r["traced"]) and time.perf_counter() - start + rec["wall_s"] > seconds:
            break
    if tracer is not None:
        r["tracer"] = tracer
    return r


def run(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs = _jobs(args.workload, args.smoke)
    with Speedometer() as speed:
        setup_spans = measure_setup(args.workload, args.smoke, 2 if args.smoke else SETUP_RUNS)
        r = measure(jobs, args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each job and each set-up run is scaled by the host speed during it
    for p in r["plain"] + r["traced"]:
        spans = p.pop("job_spans")
        p["job_s"] = {j: end - start for j, (start, end) in spans.items()}
        p["job_scaled_s"] = {j: speed.scaled(*span) for j, span in spans.items()}
        p["scaled_wall_s"] = sum(p["job_scaled_s"].values())
    setup_times = [end - start for start, end in setup_spans]
    setup_scaled = [speed.scaled(*span) for span in setup_spans]

    def median_of(kind, key):
        return statistics.median(p[key] for p in r[kind])

    metrics = {
        "scaled_wall_s": (median_of("plain", "scaled_wall_s"), "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_s": (min(p["wall_s"] for p in r["plain"]), "s"),
        "wall_median_s": (median_of("plain", "wall_s"), "s"),
        "cpu_s": (median_of("plain", "cpu_s"), "s"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
    }
    checks, preds = {}, []
    if args.trace:
        for name, (_, unit) in r["layers"][0].items():
            metrics[name] = (statistics.median_low(layer[name][0] for layer in r["layers"]), unit)
        ratio = median_of("traced", "scaled_wall_s") / median_of("plain", "scaled_wall_s")
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        checks = {
            "unwrapped_to_originals": not r["unwrap_errors"],
            "unwrap_errors": sorted(set(r["unwrap_errors"])),
            "traced_answers_identical": not r["traced_mismatches"],
            "traced_answer_mismatches": sorted(set(r["traced_mismatches"])),
        }
        preds = predictions(args.workload, metrics)
    correct = r["failed"] == 0 and not r["unwrap_errors"] and not r["traced_mismatches"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics named in BENCHMARK.json were not measured: {missing}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "jobs": [j.id for j in jobs],
        "setup_wall_s_runs": setup_times,
        "setup_scaled_s_runs": setup_scaled,
        "speed_loop": speed.loop_stats(),
        "passes": r["plain"],
        "traced_passes": r["traced"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "failed_ratio": r["failed"] / r["attempted"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "self_checks": checks,
        "predictions": preds,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    if "tracer" in r:
        results["calls_by_job"] = r["tracer"].calls_by_job()
        results["spans_file"] = f"bench/out/{stem}-spans.jsonl.gz"
        r["tracer"].write_spans(os.path.join(ROOT, results["spans_file"]))
    path = os.path.join(OUT, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)

    print_summary(results)
    print(f"results: {os.path.relpath(path, ROOT)}")
    out = {w["name"]: {"value": metrics[w["name"]][0], "unit": w["unit"]} for w in wanted}
    print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": r["failed"], "metrics": out}))
    return 0


def print_summary(results: dict) -> None:
    env = results["environment"]
    print(f"workload {results['workload']}, seed {results['seed']}, {len(results['jobs'])} jobs, trace {results['trace']}")
    print(
        f"python {env['python']}, numpy {env['numpy']}, numba "
        f"{'importable' if env['numba_importable'] else 'absent'}, backend {env['kernel_backend']}, "
        f"nproc {env['nproc']}, blas {env['blas']} {env['blas_threads']}"
    )
    for kind in ("passes", "traced_passes"):
        if results[kind]:
            print(f"  {kind} (wall/cpu/scaled s): " + ", ".join(
                f"{p['wall_s']:.3f}/{p['cpu_s']:.3f}/{p['scaled_wall_s']:.3f}" for p in results[kind]))
    m = results["metrics"]
    for name in ("scaled_wall_s", "wall_s", "wall_median_s", "cpu_s", "setup_s", "setup_wall_s", "peak_rss_mb"):
        print(f"{name} {m[name]['value']:.4f} {m[name]['unit']}")
    print(f"failed_ratio {results['failed_ratio']:.4f} ({results['failed']} of {results['attempted']} problems and checks)")
    for p in results["predictions"]:
        verdict = {True: "confirmed", False: "refuted", None: "info"}[p["confirmed"]]
        print(f"prediction: {p['prediction']}: {verdict} ({p['numbers']})")
    if results["self_checks"]:
        print(f"tracer self-checks: {json.dumps(results['self_checks'])}")


def record() -> int:
    """Run every job of every workload once and store its answers."""
    from workloads import REFERENCE, WORKLOADS, answers, workload_jobs

    jobs = {}
    for w in WORKLOADS:
        for job in workload_jobs(w):
            if job.id in jobs:
                continue
            start = time.perf_counter()
            rep = job.run()
            print(f"{job.id}: {len(rep.problems)} entries, {time.perf_counter() - start:.2f} s", flush=True)
            if rep.mismatches:
                print(f"{job.id}: failing entries {rep.mismatches}; reference not written", file=sys.stderr)
                return 1
            jobs[job.id] = answers(rep)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one cheap job instead of a pass")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # before numpy loads, here and in the set-up processes, which inherit it
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    import_defalg()
    if args.record:
        return record()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.smoke)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
