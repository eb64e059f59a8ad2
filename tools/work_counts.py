#!/usr/bin/env python3
"""How much work each built-in suite does, counted by wrapping functions.

    PYTHONPATH=src python3 tools/work_counts.py [--json OUT.json] [SUITE ...]
    python3 tools/work_counts.py --compare BASE.json CHANGE.json

Runs one pass of each built-in suite of ``defalg.corpus`` (all of them
when no SUITE is named) at its default field, with the oracle checks
on, and prints per suite, then in total:

  * ``buchberger``: Groebner basis runs (``groebner.buchberger`` calls);
  * ``engines``: Buchberger engines started (``groebner._Engine.__init__``),
    which ``buchberger`` counts miss where a syzygy or prune run starts
    one directly;
  * ``z_divmod``: packed divisions (``groebner._z_divmod`` calls);
  * ``modules``: ``FiniteModule`` builds (``FiniteModule.__init__``);
  * ``cotangent``: cotangent complex builds (``cotangent._build_complex``);
  * ``cochain``: cochain map builds (``cotangent._build_maps``), one per
    (complex, module) where the maps are kept;
  * ``polynomials``: ``Polynomial`` builds (``Polynomial.__init__``);
  * ``rrefs``: matrix row reductions (``PrimeField.rref`` and
    ``RationalField.rref``);
  * ``fractions``: ``Fraction`` builds (``fractions.Fraction.__new__``).

Each function is wrapped by name and called through with ``*args`` and
``**kwargs``, and every ``defalg`` module that imported it by name sees
the wrapper, so the counts read the same on two trees whose signatures
differ.  A counter with a name that a tree lacks counts as None.  ``--json`` also
writes the counts to a file; ``--compare`` prints two such files side by
side as base -> change.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from typing import Dict, Optional

# counter -> the (module, dotted attribute) pairs whose calls it sums
TARGETS = {
    "buchberger": (("defalg.groebner", "buchberger"),),
    "engines": (("defalg.groebner", "_Engine.__init__"),),
    "z_divmod": (("defalg.groebner", "_z_divmod"),),
    "modules": (("defalg.algebras", "FiniteModule.__init__"),),
    "cotangent": (("defalg.cotangent", "_build_complex"),),
    "cochain": (("defalg.cotangent", "_build_maps"),),
    "polynomials": (("defalg.poly", "Polynomial.__init__"),),
    "rrefs": (("defalg.fields", "PrimeField.rref"), ("defalg.fields", "RationalField.rref")),
    "fractions": (("fractions", "Fraction.__new__"),),
}


def _counting(counts: Dict[str, Optional[int]], name: str, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)

    return wrapper


def _resolve(modname: str, path: str):
    """(owner, attribute, function), the function None when missing."""
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, attr, getattr(owner, attr, None)


def install(counts: Dict[str, Optional[int]]) -> None:
    """Wrap every target so that each call adds one to counts[name];
    counts[name] is None when the tree lacks one of its functions."""
    for name, targets in TARGETS.items():
        found = [(path, *_resolve(modname, path)) for modname, path in targets]
        if any(orig is None for *_, orig in found):
            counts[name] = None
            continue
        counts[name] = 0
        for path, owner, attr, orig in found:
            _wrap(counts, name, owner, attr, orig, nested="." in path)


def _wrap(counts: Dict[str, Optional[int]], name: str, owner, attr: str, orig, nested: bool) -> None:
    """Put the counting wrapper of orig in its place, and, for a
    module-level function, in every defalg module that imported it."""
    wrapper = _counting(counts, name, orig)
    setattr(owner, attr, wrapper)
    if nested:
        return
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("defalg") and getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapper)


def suite_counts(suites) -> Dict[str, Dict[str, Optional[int]]]:
    """Suite -> counter -> calls over one pass of that suite."""
    from defalg import corpus
    from defalg.reports import RunOptions

    counts: Dict[str, Optional[int]] = {}
    install(counts)
    out = {}
    for suite in suites:
        before = dict(counts)
        corpus.run_suite(suite, opts=RunOptions(oracle=True))
        out[suite] = {k: None if v is None else v - before[k] for k, v in counts.items()}
    out["total"] = {k: None if any(s[k] is None for s in out.values()) else sum(s[k] for s in out.values()) for k in TARGETS}
    return out


def _cell(v: Optional[int]) -> str:
    return "-" if v is None else str(v)


def render(counts: Dict[str, Dict[str, Optional[int]]]) -> str:
    width = max(map(len, counts))
    lines = [f"{'suite':{width}}  " + "  ".join(f"{k:>11}" for k in TARGETS)]
    for suite, row in counts.items():
        lines.append(f"{suite:{width}}  " + "  ".join(f"{_cell(row.get(k)):>11}" for k in TARGETS))
    return "\n".join(lines)


def compare(base_path: str, change_path: str) -> str:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    lines = []
    for suite in [*dict.fromkeys([*base, *change])]:
        b, c = base.get(suite, {}), change.get(suite, {})
        cells = [f"{k} {_cell(b.get(k))} -> {_cell(c.get(k))}" for k in TARGETS]
        lines.append(f"{suite}: " + ", ".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"] and len(argv) == 3:
        print(compare(argv[1], argv[2]))
        return 0
    out_path = None
    if argv[:1] == ["--json"]:
        if len(argv) < 2:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        out_path, argv = argv[1], argv[2:]
    if any(a.startswith("--") for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    from defalg import corpus

    suites = argv or corpus.suite_names()
    unknown = sorted(set(suites) - set(corpus.suite_names()))
    if unknown:
        print(f"unknown suites: {', '.join(unknown)}", file=sys.stderr)
        return 2
    counts = suite_counts(suites)
    print(render(counts))
    if out_path is not None:
        with open(out_path, "w") as fh:
            json.dump(counts, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
