"""Polynomial parsing and JSON problem bundles.

The polynomial grammar is deliberately small: integers (optionally as
fractions a/b), declared variable names, +, -, *, ^ and parentheses.
Multiplication is always explicit, so "2x" is a parse error while
"2*x" is not.  Errors carry the byte offset into the string.

A problem file is a JSON object with named algebras, named modules,
and a list of problems referencing them; loading validates everything
eagerly and reports failures with a dotted location path.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebras import FiniteModule, PresentedAlgebra, validate
from .fields import Field, Scalar, field_by_name
from .groebner import MAX_EXPONENT
from .linalg import Matrix
from .poly import Polynomial

__all__ = [
    "ParseError",
    "ProblemFileError",
    "ProblemSet",
    "TModsSpec",
    "ExalSpec",
    "LiftSpec",
    "DeformSpec",
    "load_problem_file",
    "parse_polynomial",
    "parse_scalar",
]


class ParseError(ValueError):
    """Bad polynomial text; offset is the byte position of the problem."""

    def __init__(self, message: str, text: str, offset: int):
        self.text = text
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*^()/]))")


def _too_big(degree: int) -> str:
    return f"degree {degree} does not fit the packed exponent field (at most {MAX_EXPONENT})"


def _tokenize(text: str):
    pos = 0
    out = []
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = n - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", text, at)
        if m.group(1) is not None:
            out.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, names: Sequence[str], field: Field):
        self.text = text
        self.names = tuple(names)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.field = field
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        at = tok[2] if tok is not None else len(self.text)
        raise ParseError(message, self.text, at)

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            self.fail(f"expected {op!r}")
        return self.take()

    def parse(self) -> Polynomial:
        if not self.tokens:
            raise ParseError("empty polynomial", self.text, 0)
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError("unexpected trailing input", self.text, tok[2])
        if p.degree() > MAX_EXPONENT:
            raise ParseError(_too_big(p.degree()), self.text, 0)
        return p

    def expr(self) -> Polynomial:
        tok = self.peek()
        negate = False
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return acc
            self.take()
            rhs = self.term()
            acc = acc + rhs if tok[1] == "+" else acc - rhs

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return acc
            self.take()
            acc = acc * self.factor()

    def factor(self) -> Polynomial:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.take()
            etok = self.peek()
            if etok is None or etok[0] != "int":
                self.fail("expected an integer exponent")
            self.take()
            e = int(etok[1])
            if base.degree() * e > MAX_EXPONENT:
                raise ParseError(_too_big(base.degree() * e), self.text, etok[2])
            return base ** e
        return base

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok is None:
            self.fail("expected a number, name, or parenthesized expression")
        kind, text, at = tok
        f = self.field
        nv = len(self.names)
        if kind == "int":
            self.take()
            c = f.from_int(int(text))
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                dtok = self.peek()
                if dtok is None or dtok[0] != "int":
                    self.fail("expected an integer denominator")
                self.take()
                d = f.from_int(int(dtok[1]))
                if f.is_zero(d):
                    raise ParseError("zero denominator", self.text, dtok[2])
                c = f.div(c, d)
            return Polynomial.constant(f, nv, c)
        if kind == "name":
            self.take()
            i = self.index.get(text)
            if i is None:
                raise ParseError(f"unknown name {text!r}", self.text, at)
            return Polynomial.variable(f, nv, i)
        if kind == "op" and text == "(":
            self.take()
            inner = self.expr()
            self.expect_op(")")
            return inner
        self.fail("expected a number, name, or parenthesized expression")


def parse_polynomial(text: str, names: Sequence[str], field: Field) -> Polynomial:
    """Parse text into a polynomial in the given variables.  A degree
    above groebner.MAX_EXPONENT is refused: the Groebner engine could not
    pack it."""
    return _Parser(text, names, field).parse()


def parse_scalar(field: Field, value, location: str = "scalar") -> Scalar:
    """A field element from a JSON value: an int, or a string like
    "7" or "2/3"."""
    if isinstance(value, bool):
        raise ProblemFileError(location, "expected a number, found a boolean")
    if isinstance(value, int):
        return field.from_int(value)
    if isinstance(value, str):
        p = parse_polynomial(value, (), field)
        if not p.is_constant():
            raise ProblemFileError(location, f"{value!r} is not a scalar")
        return p.constant_term()
    raise ProblemFileError(location, f"cannot read a scalar from {value!r}")


# ---------------------------------------------------------------------------
# problem files


class ProblemFileError(ValueError):
    """Invalid problem file; location is a dotted path into the JSON."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _need(obj: dict, key: str, loc: str):
    if key not in obj:
        raise ProblemFileError(loc, f"missing required key {key!r}")
    return obj[key]


def _check_keys(obj: dict, allowed, loc: str):
    for k in obj:
        if k not in allowed:
            raise ProblemFileError(f"{loc}.{k}", "unknown key")


def _str_list(value, loc: str) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ProblemFileError(loc, "expected a list of strings")
    return list(value)


def _gen_names(value, loc: str) -> Tuple[str, ...]:
    names = _str_list(value, loc)
    for nm in names:
        if not _NAME_RE.match(nm):
            raise ProblemFileError(loc, f"{nm!r} is not a valid variable name")
    if len(set(names)) != len(names):
        raise ProblemFileError(loc, "duplicate variable name")
    return tuple(names)


@dataclass
class ModuleSpec:
    name: str
    algebra: str
    kind: str                       # trivial | regular | truncated | explicit
    degree: Optional[int] = None
    labels: Tuple[str, ...] = ()
    action: Optional[Dict[str, list]] = None


@dataclass
class TModsSpec:
    name: str
    algebra: str
    module: str
    truncate: Optional[int] = None
    expected: Optional[Dict[str, object]] = None
    kind: str = dc_field(default="tmods", init=False)


@dataclass
class ExalSpec:
    name: str
    algebra: str
    module: str
    truncate: Optional[int] = None
    expected: Optional[Dict[str, object]] = None
    kind: str = dc_field(default="exal", init=False)


@dataclass
class LiftSpec:
    name: str
    algebra: str
    through: str
    ideal: Tuple[str, ...]
    images: Dict[str, str]
    expected: Optional[Dict[str, object]] = None
    kind: str = dc_field(default="lift", init=False)


@dataclass
class DeformSpec:
    name: str
    algebra: str
    module: str
    extended_base: str
    ideal: Tuple[str, ...]
    truncate: Optional[int] = None
    seed: Optional[int] = None
    phi: Optional[List[list]] = None
    expected: Optional[Dict[str, object]] = None
    kind: str = dc_field(default="deform", init=False)


ProblemSpec = Union[TModsSpec, ExalSpec, LiftSpec, DeformSpec]


@dataclass
class ProblemSet:
    """A loaded problem file: named algebras and modules plus the
    problems posed against them.

    Each algebra, truncation and module is built once per set and shared
    by every problem that names it, with everything memoized on it; a
    build that raises is not kept.  Nothing is shared between two sets,
    even two loads of one file."""

    field: Field
    algebra_defs: Dict[str, dict]
    module_specs: Dict[str, ModuleSpec]
    problems: List[ProblemSpec]
    options: Dict[str, object]
    _algebras: Dict[Tuple[str, Optional[int]], PresentedAlgebra] = dc_field(default_factory=dict)
    _modules: Dict[Tuple[str, PresentedAlgebra], FiniteModule] = dc_field(default_factory=dict)

    def algebra(self, name: str, truncate: Optional[int] = None) -> PresentedAlgebra:
        """The named algebra, truncated at degree truncate when that is
        given, built once per (name, truncate)."""
        if name not in self.algebra_defs:
            raise ProblemFileError(f"algebras.{name}", "never defined")
        B = self._algebras.get((name, truncate))
        if B is None:
            if truncate is None:
                B = self._build_algebra(name, ())
            else:
                try:
                    B = self.algebra(name).truncated_presentation(truncate)
                except ValueError as e:
                    raise ProblemFileError(f"algebras.{name}", str(e)) from e
            self._algebras[name, truncate] = B
        return B

    def _build_algebra(self, name: str, stack: Tuple[str, ...]) -> PresentedAlgebra:
        if name in stack:
            raise ProblemFileError(f"algebras.{name}", "circular base reference")
        d = self.algebra_defs[name]
        loc = f"algebras.{name}"
        gens = _gen_names(_need(d, "gens", loc), f"{loc}.gens")
        rel_strs = _str_list(_need(d, "relations", loc), f"{loc}.relations")
        base_name = d.get("base")
        if base_name is None:
            base_names: Tuple[str, ...] = ()
            base_rels: List[Polynomial] = []
        else:
            if base_name not in self.algebra_defs:
                raise ProblemFileError(f"{loc}.base", f"unknown algebra {base_name!r}")
            A = self._algebras.get((base_name, None))
            if A is None:
                A = self._algebras[base_name, None] = self._build_algebra(base_name, stack + (name,))
            if A.n_base:
                raise ProblemFileError(f"{loc}.base", "base algebras must be defined over the ground field")
            base_names = A.gen_names
            nv = len(base_names) + len(gens)
            base_rels = [r.embed(nv, list(range(len(base_names)))) for r in A.relations]
        names = base_names + gens
        rels = []
        for i, s in enumerate(rel_strs):
            try:
                rels.append(parse_polynomial(s, names, self.field))
            except ParseError as e:
                raise ProblemFileError(f"{loc}.relations[{i}]", str(e)) from e
        try:
            return PresentedAlgebra(self.field, base_names, base_rels, gens, rels)
        except ValueError as e:
            raise ProblemFileError(loc, str(e)) from e

    def module(self, name: str, B: PresentedAlgebra) -> FiniteModule:
        """The named module over B, built once per (name, B)."""
        if name not in self.module_specs:
            raise ProblemFileError(f"modules.{name}", "never defined")
        J = self._modules.get((name, B))
        if J is None:
            J = self._modules[name, B] = self._build_module(self.module_specs[name], B)
        return J

    def _build_module(self, spec: ModuleSpec, B: PresentedAlgebra) -> FiniteModule:
        loc = f"modules.{spec.name}"
        builders = {
            "trivial": lambda: FiniteModule.trivial(B),
            "regular": lambda: FiniteModule.regular(B),
            "truncated": lambda: FiniteModule.truncated_regular(B, spec.degree),
        }
        if spec.kind in builders:
            try:
                return builders[spec.kind]()
            except ValueError as e:
                raise ProblemFileError(loc, str(e)) from e
        # explicit action matrices, one per flattened generator of B
        f = self.field
        t = len(spec.labels)
        mats = []
        for v, nm in enumerate(B.names):
            rows = spec.action.get(nm)
            if rows is None:
                raise ProblemFileError(f"{loc}.action", f"missing matrix for generator {nm!r}")
            if len(rows) != t or any(len(r) != t for r in rows):
                raise ProblemFileError(f"{loc}.action.{nm}", f"expected a {t}x{t} matrix")
            ent = [
                [parse_scalar(f, rows[i][j], f"{loc}.action.{nm}[{i}][{j}]") for j in range(t)]
                for i in range(t)
            ]
            mats.append(Matrix.from_rows(f, ent, ncols=t))
        mod = FiniteModule(B, spec.labels, tuple(mats))
        bad = validate(mod)
        if bad:
            raise ProblemFileError(loc, f"not a module over {spec.algebra}: {bad}")
        return mod


def _is_degree(value) -> bool:
    """Whether value is a truncation degree: an int >= 1."""
    return isinstance(value, int) and value >= 1


def _parse_module_spec(name: str, d: dict, loc: str) -> ModuleSpec:
    _check_keys(d, {"algebra", "kind", "degree", "labels", "action"}, loc)
    algebra = _need(d, "algebra", loc)
    kind = d.get("kind", "explicit" if "action" in d else "trivial")
    if kind not in ("trivial", "regular", "truncated", "explicit"):
        raise ProblemFileError(f"{loc}.kind", f"unknown module kind {kind!r}")
    degree = d.get("degree")
    if kind == "truncated":
        if not _is_degree(degree):
            raise ProblemFileError(f"{loc}.degree", "truncated modules need a degree >= 1")
    if kind == "explicit":
        labels = tuple(_str_list(_need(d, "labels", loc), f"{loc}.labels"))
        action = _need(d, "action", loc)
        if not isinstance(action, dict):
            raise ProblemFileError(f"{loc}.action", "expected an object of matrices")
        return ModuleSpec(name, algebra, kind, None, labels, action)
    return ModuleSpec(name, algebra, kind, degree)


def _parse_expected(d: dict, loc: str) -> Optional[Dict[str, object]]:
    exp = d.get("expected")
    if exp is None:
        return None
    if not isinstance(exp, dict) or not all(
        isinstance(k, str) and isinstance(v, (int, bool)) for k, v in exp.items()
    ):
        raise ProblemFileError(f"{loc}.expected", "expected an object of name: integer or boolean")
    return dict(exp)


def _parse_problem(d: dict, i: int) -> ProblemSpec:
    loc = f"problems[{i}]"
    if not isinstance(d, dict):
        raise ProblemFileError(loc, "expected an object")
    kind = _need(d, "kind", loc)
    name = d.get("name", f"p{i}")
    if not isinstance(name, str):
        raise ProblemFileError(f"{loc}.name", "expected a string")
    expected = _parse_expected(d, loc)
    if kind in ("tmods", "exal"):
        _check_keys(d, {"kind", "name", "algebra", "module", "truncate", "expected"}, loc)
        cls = TModsSpec if kind == "tmods" else ExalSpec
        trunc = d.get("truncate")
        if trunc is not None and not _is_degree(trunc):
            raise ProblemFileError(f"{loc}.truncate", "expected a degree >= 1")
        return cls(name, _need(d, "algebra", loc), _need(d, "module", loc), trunc, expected)
    if kind == "lift":
        _check_keys(d, {"kind", "name", "algebra", "through", "ideal", "images", "expected"}, loc)
        ideal = tuple(_str_list(_need(d, "ideal", loc), f"{loc}.ideal"))
        images = _need(d, "images", loc)
        if not isinstance(images, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in images.items()
        ):
            raise ProblemFileError(f"{loc}.images", "expected an object of generator: polynomial strings")
        return LiftSpec(
            name, _need(d, "algebra", loc), _need(d, "through", loc), ideal, dict(images), expected
        )
    if kind == "deform":
        _check_keys(
            d,
            {"kind", "name", "algebra", "module", "extended_base", "ideal",
             "truncate", "seed", "phi", "expected"},
            loc,
        )
        ideal = tuple(_str_list(_need(d, "ideal", loc), f"{loc}.ideal"))
        trunc = d.get("truncate")
        if trunc is not None and not _is_degree(trunc):
            raise ProblemFileError(f"{loc}.truncate", "expected a degree >= 1")
        seed = d.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ProblemFileError(f"{loc}.seed", "expected an integer")
        phi = d.get("phi")
        if phi is not None and (
            not isinstance(phi, list) or not all(isinstance(r, list) for r in phi)
        ):
            raise ProblemFileError(f"{loc}.phi", "expected a matrix as a list of rows")
        return DeformSpec(
            name,
            _need(d, "algebra", loc),
            _need(d, "module", loc),
            _need(d, "extended_base", loc),
            ideal,
            trunc,
            seed,
            phi,
            expected,
        )
    raise ProblemFileError(f"{loc}.kind", f"unknown problem kind {kind!r}")


def load_problem_file(
    source, field: Optional[str] = None, truncate: Optional[int] = None, seed: Optional[int] = None
) -> ProblemSet:
    """Read and validate a problem file.

    source may be a path to a JSON file or an already-parsed dict.
    field, when given, overrides the file's coefficient field, and
    truncate and seed every problem's own keys, which override options."""
    if isinstance(source, dict):
        data = source
    else:
        path = os.fspath(source)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ProblemFileError(path, "no such file") from None
        except json.JSONDecodeError as e:
            raise ProblemFileError(f"{path}:{e.lineno}:{e.colno}", e.msg) from None
    if not isinstance(data, dict):
        raise ProblemFileError("$", "the top level must be an object")
    _check_keys(data, {"field", "algebras", "modules", "problems", "options"}, "$")
    field_name = data.get("field", "F2") if field is None else field
    try:
        f = field_by_name(field_name)
    except ValueError as e:
        raise ProblemFileError("field", str(e)) from None

    algebras = data.get("algebras", {})
    if not isinstance(algebras, dict):
        raise ProblemFileError("algebras", "expected an object")
    for name, d in algebras.items():
        if not _NAME_RE.match(name):
            raise ProblemFileError(f"algebras.{name}", "not a valid algebra name")
        if not isinstance(d, dict):
            raise ProblemFileError(f"algebras.{name}", "expected an object")
        _check_keys(d, {"base", "gens", "relations"}, f"algebras.{name}")

    modules = data.get("modules", {})
    if not isinstance(modules, dict):
        raise ProblemFileError("modules", "expected an object")
    module_specs = {}
    for name, d in modules.items():
        if not isinstance(d, dict):
            raise ProblemFileError(f"modules.{name}", "expected an object")
        module_specs[name] = _parse_module_spec(name, d, f"modules.{name}")

    raw_problems = data.get("problems", [])
    if not isinstance(raw_problems, list):
        raise ProblemFileError("problems", "expected a list")
    problems = [_parse_problem(d, i) for i, d in enumerate(raw_problems)]
    names = [p.name for p in problems]
    if len(set(names)) != len(names):
        raise ProblemFileError("problems", "duplicate problem name")

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ProblemFileError("options", "expected an object")
    _check_keys(options, {"budget", "seed", "truncate"}, "options")
    if "budget" in options and (not isinstance(options["budget"], int) or options["budget"] < 1):
        raise ProblemFileError("options.budget", "expected a positive integer")
    if "seed" in options and not isinstance(options["seed"], int):
        raise ProblemFileError("options.seed", "expected an integer")
    if "truncate" in options and options["truncate"] is not None:
        if not _is_degree(options["truncate"]):
            raise ProblemFileError("options.truncate", "expected a degree >= 1")

    for spec in problems:
        if spec.kind in ("tmods", "exal", "deform"):
            spec.truncate = next((d for d in (truncate, spec.truncate, options.get("truncate")) if d is not None), None)
        if spec.kind == "deform":
            spec.seed = next((n for n in (seed, spec.seed, options.get("seed")) if n is not None), None)

    ps = ProblemSet(f, dict(algebras), module_specs, problems, dict(options))
    # build every referenced object now, exactly as its problem will use
    # it, so errors surface at load time with a location
    built_modules = set()
    for idx, spec in enumerate(problems):
        if spec.algebra not in ps.algebra_defs:
            raise ProblemFileError(f"problems[{idx}].algebra", f"unknown algebra {spec.algebra!r}")
        if spec.kind in ("tmods", "exal", "deform"):
            if spec.module not in module_specs:
                raise ProblemFileError(f"problems[{idx}].module", f"unknown module {spec.module!r}")
            if module_specs[spec.module].algebra != spec.algebra:
                raise ProblemFileError(
                    f"problems[{idx}].module",
                    f"module {spec.module!r} is defined over {module_specs[spec.module].algebra!r}",
                )
            B = ps.algebra(spec.algebra, truncate=spec.truncate)
            ps.module(spec.module, B)
            built_modules.add(spec.module)
        else:
            ps.algebra(spec.algebra)
        if spec.kind == "lift" and spec.through not in ps.algebra_defs:
            raise ProblemFileError(f"problems[{idx}].through", f"unknown algebra {spec.through!r}")
        if spec.kind == "deform" and spec.extended_base not in ps.algebra_defs:
            raise ProblemFileError(
                f"problems[{idx}].extended_base", f"unknown algebra {spec.extended_base!r}"
            )
    # unused definitions must be well formed too
    for name in algebras:
        ps.algebra(name)
    for name, spec in module_specs.items():
        if spec.algebra not in ps.algebra_defs:
            raise ProblemFileError(f"modules.{name}.algebra", f"unknown algebra {spec.algebra!r}")
        if name not in built_modules:
            ps.module(name, ps.algebra(spec.algebra))
    return ps
