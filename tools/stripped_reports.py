#!/usr/bin/env python3
"""Every corpus report with its timing stripped, in one JSON file.

    PYTHONPATH=src python3 tools/stripped_reports.py OUT.json [SUITE ...]
    python3 tools/stripped_reports.py --diff BASE.json CHANGE.json

Runs each built-in suite of ``defalg.corpus`` (all of them when no
SUITE is named) over its default field and over F2, F3, F5 and Q, each
with the oracle checks off and on, and once more over its default field
with the oracle off and the truncate and seed overrides of ``OVERRIDES``.
It writes the ``strip_timing`` form of every report under the key
``suite/field/oracle-off|on`` (``suite/default/overrides`` for the last),
with sorted keys.  Two checkouts give the same reports exactly when the two
files compare equal byte for byte (``cmp``).  ``--diff`` names what
``cmp`` does not: it prints each key whose report differs between two
such files, or that only one of them has, and exits 1 if there is any.
"""

from __future__ import annotations

import json
import sys

FIELDS = (None, "F2", "F3", "F5", "Q")
# RunOptions keywords of the one overridden run per suite
OVERRIDES = {"truncate": 3, "seed": 5}


def stripped_reports(suites) -> dict:
    """Key -> stripped report dict, for every suite, field and oracle
    setting, and for every suite under the overrides."""
    from defalg import corpus
    from defalg.reports import RunOptions, strip_timing

    out = {}
    for suite in suites:
        runs = [
            (f"{field or 'default'}/oracle-{'on' if oracle else 'off'}", field, RunOptions(oracle=oracle))
            for field in FIELDS
            for oracle in (False, True)
        ]
        runs.append(("default/overrides", None, RunOptions(**OVERRIDES)))
        for key, field, opts in runs:
            out[f"{suite}/{key}"] = strip_timing(corpus.run_suite(suite, field=field, opts=opts).to_dict())
    return out


def differing_keys(base: dict, change: dict) -> list:
    """The keys, sorted, whose reports differ or that one side lacks."""
    missing = object()
    return sorted(k for k in base.keys() | change.keys() if base.get(k, missing) != change.get(k, missing))


def diff(base_path: str, change_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    keys = differing_keys(base, change)
    for k in keys:
        side = " (only in base)" if k not in change else " (only in change)" if k not in base else ""
        print(f"{k}{side}")
    return 1 if keys else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--diff"] and len(argv) == 3:
        return diff(argv[1], argv[2])
    if not argv or argv[0].startswith("--"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    from defalg import corpus

    path, suites = argv[0], argv[1:] or corpus.suite_names()
    unknown = sorted(set(suites) - set(corpus.suite_names()))
    if unknown:
        print(f"unknown suites: {', '.join(unknown)}", file=sys.stderr)
        return 2
    with open(path, "w") as fh:
        json.dump(stripped_reports(suites), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
