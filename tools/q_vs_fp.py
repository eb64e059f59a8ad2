#!/usr/bin/env python3
"""Time of a tmods input over Q against the same input over F_p.

    python3 tools/q_vs_fp.py bench/out/rational-seed1-trace0.json bench/out/analytic-seed1-trace0.json

Reads two results files of ``bench/run.py``: one with the Q jobs (the
``rational`` workload) and one with their prime-field twins (the
``analytic`` workload).  Each job's time is the median of its per-pass
scaled time (``job_scaled_s``).  For every ``tmods.<input>.Q`` job that
has a ``tmods.<input>.F<p>`` twin it prints both times and their ratio.
This is a reported figure, not a benchmark metric.
"""

from __future__ import annotations

import json
import statistics
import sys


def job_medians(path: str) -> dict:
    """Median scaled time of each job over the passes of one results file."""
    with open(path) as fh:
        passes = json.load(fh)["passes"]
    times: dict = {}
    for p in passes:
        for job, s in p["job_scaled_s"].items():
            times.setdefault(job, []).append(s)
    return {job: statistics.median(v) for job, v in times.items()}


def ratios(q_path: str, fp_path: str) -> list:
    """(input, prime field, Q seconds, F_p seconds, Q/F_p) per twin pair."""
    q, fp = job_medians(q_path), job_medians(fp_path)
    out = []
    for job, qs in sorted(q.items()):
        kind, _, rest = job.partition(".")
        name, _, field = rest.rpartition(".")
        if kind != "tmods" or field != "Q":
            continue
        for twin, fs in sorted(fp.items()):
            pf = twin.rpartition(".")[2]
            if twin == f"tmods.{name}.{pf}" and pf.startswith("F"):
                out.append((name, pf, qs, fs, qs / fs))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for name, pf, qs, fs, r in ratios(*argv):
        print(f"{name}: Q {qs:.3f} s, {pf} {fs:.4f} s, Q/{pf} {r:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
