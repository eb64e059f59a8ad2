#!/usr/bin/env python3
"""Every corpus report with its timing stripped, in one JSON file.

    PYTHONPATH=src python3 tools/stripped_reports.py OUT.json [SUITE ...]

Runs each built-in suite of ``defalg.corpus`` (all of them when no
SUITE is named) over its default field and over F2, F3, F5 and Q, each
with the oracle checks off and on, and writes the ``strip_timing`` form
of every report under the key ``suite/field/oracle-off|on``, with
sorted keys.  Two checkouts give the same reports exactly when the two
files compare equal byte for byte (``cmp``).
"""

from __future__ import annotations

import json
import sys

from defalg import corpus
from defalg.reports import RunOptions, strip_timing

FIELDS = (None, "F2", "F3", "F5", "Q")


def stripped_reports(suites) -> dict:
    """Key -> stripped report dict, for every suite, field and oracle
    setting."""
    out = {}
    for suite in suites:
        for field in FIELDS:
            for oracle in (False, True):
                report = corpus.run_suite(suite, field=field, opts=RunOptions(oracle=oracle))
                key = f"{suite}/{field or 'default'}/oracle-{'on' if oracle else 'off'}"
                out[key] = strip_timing(report.to_dict())
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
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
