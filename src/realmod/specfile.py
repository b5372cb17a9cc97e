"""Line-oriented input files for the command line tool.

Grammar: one stanza per line, `<kind> <name> key=value ...`; `#` starts a
comment; blank lines are skipped.  Matrices and scalars use the same textual
forms the library prints, so every emitted object parses back bit-exactly.
Errors carry exact 1-based line and column positions.

Stanza kinds and their keys:

    module    <name> dim=<n> inv=<matrix>
    realvs    <name> dim=<n> g=<matrix> J=<matrix>
    hermitian <name> dim=<n> gram=<matrix>
    gate      <name> on=<hermitian> mat=<matrix>
    realset   <name> size=<n> tau=<perm>
    quantize  <name> basis=<labels>
    channel   <name> gate=<gate> rho=<gate>
    check     <name> target=<name> [kind=<kind>]

Names are unique per kind and every reference must already be defined
(definition before use).  A `gate` names a square matrix on a declared
Hermitian space; states for `channel` are declared the same way.

Every matrix is validated, with its shape, when the file is parsed, so a
malformed matrix is a positioned error even in a stanza no command reads.  It
is converted to a `Matrix` only when a command first reads it from
`Stanza.fields`, and that conversion is kept on the stanza.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field

from .linalg import MatrixParseError, parse_matrix
from .scalars import MAX_LITERAL_LENGTH, SCALAR_PATTERN

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KINDS = ("module", "realvs", "hermitian", "gate", "realset", "quantize", "channel", "check")
_KEYS = {
    "module": ("dim", "inv"),
    "realvs": ("dim", "g", "J"),
    "hermitian": ("dim", "gram"),
    "gate": ("on", "mat"),
    "realset": ("size", "tau"),
    "quantize": ("basis",),
    "channel": ("gate", "rho"),
    "check": ("target", "kind"),
}
_OPTIONAL = {"check": ("kind",)}
_MATRIX_KEYS = frozenset(("inv", "g", "J", "gram", "mat"))


class SpecFileError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class _Fields(Mapping):
    """A stanza's parsed values.  A matrix is held as its validated text until
    it is first read, then as the `Matrix` parsed from it."""

    __slots__ = ("_values",)

    def __init__(self, values: dict):
        self._values = values

    def __getitem__(self, key):
        value = self._values[key]
        if key in _MATRIX_KEYS and type(value) is str:
            value = self._values[key] = parse_matrix(value)
        return value

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True, slots=True)
class Stanza:
    kind: str
    name: str
    fields: Mapping
    line: int


@dataclass(frozen=True, slots=True)
class SpecFile:
    stanzas: tuple
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _declared(self) -> dict:
        """kind -> {name: stanza}, in file order; `parse_spec` stores the index it built."""
        if "declared" not in self._memo:
            declared = {}
            for st in self.stanzas:
                declared.setdefault(st.kind, {}).setdefault(st.name, st)
            self._memo["declared"] = declared
        return self._memo["declared"]

    def find(self, kind: str, name: str):
        return self._declared().get(kind, {}).get(name)

    def names(self, kind: str) -> tuple:
        return tuple(self._declared().get(kind, ()))


_TOKEN = re.compile(r"\S+")  # \s is exactly str.isspace()
_INT = re.compile(r"-?[0-9]+")  # ASCII digits, like scalar literals


def _tokens(line: str):
    """(text, 1-based column) pairs, whitespace-separated, comment-stripped."""
    cut = line.find("#")
    return [(m.group(), m.start() + 1)
            for m in _TOKEN.finditer(line, 0, cut if cut >= 0 else len(line))]


def _parse_int(text: str, lineno: int, col: int, minimum: int = 0) -> int:
    if not _INT.fullmatch(text):
        raise SpecFileError(f"expected an integer, got {text!r}", lineno, col)
    if len(text) > MAX_LITERAL_LENGTH:
        raise SpecFileError(f"integer longer than {MAX_LITERAL_LENGTH} characters", lineno, col)
    value = int(text)
    if value < minimum:
        raise SpecFileError(f"integer must be at least {minimum}", lineno, col)
    return value


_MATRIX = re.compile(f"{SCALAR_PATTERN}(?:[,;]{SCALAR_PATTERN})*")


def _matrix_shape(text: str):
    """(rows, cols) of a matrix text that `_MATRIX` accepts and whose rows all
    have one length, else None.  `parse_matrix` accepts every such text."""
    if not _MATRIX.fullmatch(text):
        return None
    rows = text.split(";")
    commas = rows[0].count(",")
    for row in rows:
        if row.count(",") != commas:
            return None
    return len(rows), commas + 1


def _parse_mat(text: str, lineno: int, col: int) -> tuple:
    """(value, shape): the text itself if `_matrix_shape` accepts it, else the
    Matrix `parse_matrix` makes of it, whose errors keep their position."""
    shape = _matrix_shape(text)
    if shape is not None:
        return text, shape
    try:
        m = parse_matrix(text)
    except MatrixParseError as exc:
        raise SpecFileError(str(exc), lineno, col + exc.offset) from None
    return m, m.shape


def _parse_perm(text: str, lineno: int, col: int) -> tuple:
    parts = text.split(",")
    values = []
    at = col
    for part in parts:
        values.append(_parse_int(part, lineno, at))
        at += len(part) + 1
    return tuple(values)


def _parse_labels(text: str, lineno: int, col: int) -> tuple:
    parts = text.split(",")
    at = col
    seen = set()
    for part in parts:
        if not _NAME.match(part):
            raise SpecFileError(f"bad basis label {part!r}", lineno, at)
        if part in seen:
            raise SpecFileError(f"duplicate basis label {part!r}", lineno, at)
        seen.add(part)
        at += len(part) + 1
    return tuple(parts)


def parse_spec(text: str) -> SpecFile:
    """Parse and resolve a spec file; raises SpecFileError with a position."""
    stanzas = []
    declared = {kind: {} for kind in _KINDS}

    def resolve(kind, name, lineno, col):
        if name not in declared[kind]:
            raise SpecFileError(f"unknown {kind} {name!r}", lineno, col)
        return declared[kind][name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        (kind, kcol) = toks[0]
        if kind not in _KINDS:
            raise SpecFileError(f"unknown stanza kind {kind!r}", lineno, kcol)
        if len(toks) < 2:
            raise SpecFileError("stanza needs a name", lineno, kcol + len(kind))
        (name, ncol) = toks[1]
        if not _NAME.match(name):
            raise SpecFileError(f"bad name {name!r}", lineno, ncol)
        if name in declared[kind]:
            raise SpecFileError(f"duplicate {kind} name {name!r}", lineno, ncol)
        fields = {}
        positions = {}
        for (tok, tcol) in toks[2:]:
            eq = tok.find("=")
            if eq <= 0:
                raise SpecFileError(f"expected key=value, got {tok!r}", lineno, tcol)
            key = tok[:eq]
            value = tok[eq + 1:]
            if key not in _KEYS[kind]:
                raise SpecFileError(f"unknown key {key!r} for {kind}", lineno, tcol)
            if key in fields:
                raise SpecFileError(f"duplicate key {key!r}", lineno, tcol)
            if not value:
                raise SpecFileError(f"empty value for {key!r}", lineno, tcol)
            fields[key] = value
            positions[key] = tcol + eq + 1
        for key in _KEYS[kind]:
            if key not in fields and key not in _OPTIONAL.get(kind, ()):
                raise SpecFileError(f"{kind} needs {key}=", lineno, kcol)

        parsed = {}
        if kind == "module":
            parsed["dim"] = _parse_int(fields["dim"], lineno, positions["dim"], minimum=1)
            parsed["inv"], shape = _parse_mat(fields["inv"], lineno, positions["inv"])
            if shape != (parsed["dim"], parsed["dim"]):
                raise SpecFileError("inv must be dim x dim", lineno, positions["inv"])
        elif kind == "realvs":
            parsed["dim"] = _parse_int(fields["dim"], lineno, positions["dim"], minimum=1)
            shapes = {}
            for key in ("g", "J"):
                parsed[key], shapes[key] = _parse_mat(fields[key], lineno, positions[key])
            for key in ("g", "J"):
                if shapes[key] != (parsed["dim"], parsed["dim"]):
                    raise SpecFileError(f"{key} must be dim x dim", lineno, positions[key])
        elif kind == "hermitian":
            parsed["dim"] = _parse_int(fields["dim"], lineno, positions["dim"], minimum=1)
            parsed["gram"], shape = _parse_mat(fields["gram"], lineno, positions["gram"])
            if shape != (parsed["dim"], parsed["dim"]):
                raise SpecFileError("gram must be dim x dim", lineno, positions["gram"])
        elif kind == "gate":
            space = resolve("hermitian", fields["on"], lineno, positions["on"])
            parsed["on"] = fields["on"]
            parsed["mat"], shape = _parse_mat(fields["mat"], lineno, positions["mat"])
            d = space.fields["dim"]
            if shape != (d, d):
                raise SpecFileError(f"mat must be {d}x{d} for {fields['on']}", lineno, positions["mat"])
        elif kind == "realset":
            parsed["size"] = _parse_int(fields["size"], lineno, positions["size"], minimum=0)
            parsed["tau"] = _parse_perm(fields["tau"], lineno, positions["tau"])
            if len(parsed["tau"]) != parsed["size"]:
                raise SpecFileError("tau must list size entries", lineno, positions["tau"])
            if sorted(parsed["tau"]) != list(range(parsed["size"])):
                raise SpecFileError("tau is not a permutation", lineno, positions["tau"])
        elif kind == "quantize":
            parsed["basis"] = _parse_labels(fields["basis"], lineno, positions["basis"])
        elif kind == "channel":
            gate = resolve("gate", fields["gate"], lineno, positions["gate"])
            rho = resolve("gate", fields["rho"], lineno, positions["rho"])
            if gate.fields["on"] != rho.fields["on"]:
                raise SpecFileError("gate and rho live on different spaces", lineno, positions["rho"])
            parsed["gate"] = fields["gate"]
            parsed["rho"] = fields["rho"]
        elif kind == "check":
            target = fields["target"]
            if "kind" in fields:
                tkind = fields["kind"]
                if tkind not in _KINDS or tkind == "check":
                    raise SpecFileError(f"bad kind {tkind!r}", lineno, positions["kind"])
                resolve(tkind, target, lineno, positions["target"])
                parsed["kind"] = tkind
            else:
                hits = [k for k in _KINDS if k != "check" and target in declared[k]]
                if not hits:
                    raise SpecFileError(f"unknown target {target!r}", lineno, positions["target"])
                if len(hits) > 1:
                    raise SpecFileError(
                        f"ambiguous target {target!r}; add kind=", lineno, positions["target"])
                parsed["kind"] = hits[0]
            parsed["target"] = target

        st = Stanza(kind, name, _Fields(parsed), lineno)
        declared[kind][name] = st
        stanzas.append(st)

    spec = SpecFile(tuple(stanzas))
    spec._memo["declared"] = declared
    return spec
