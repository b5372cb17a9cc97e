"""Line-oriented input files for the command line tool.

Grammar: one stanza per line, `<kind> <name> key=value ...`; `#` starts a
comment; blank lines are skipped.  Matrices and scalars use the same textual
forms the library prints, so every emitted object parses back bit-exactly.
Errors carry exact 1-based line and column positions.

Stanza kinds and their keys:

    module    <name> dim=<n> inv=<matrix>
    realvs    <name> dim=<n> g=<matrix> J=<matrix>
    hermitian <name> dim=<n> gram=<matrix>
    gate      <name> on=<space> mat=<matrix>
    realset   <name> size=<n> tau=<perm>
    quantize  <name> basis=<labels>
    channel   <name> gate=<gate> rho=<gate>
    check     <name> target=<name> [kind=<kind>]

Names are unique per kind and every reference must already be defined
(definition before use).  A `gate` names a square matrix on a declared space,
a stanza of a kind in `SPACE_KINDS`; states for `channel` are declared the
same way.  Each reference is resolved once, by `_resolve`, when its line is
parsed: the fields `on`, `gate`, `rho` and `target` hold the (kind, name) of
the stanza they name, so a reader looks it up without knowing which kinds the
key allows.  `_SCHEMA` declares each kind's keys in the order above, its
optional and matrix keys, and its validator.

Lines break only at CR LF, CR and LF, as in Python's tokenizer: the other
breaks of `str.splitlines` are whitespace within a line.  Each line is split
once with `str.split()`, which splits on the same whitespace as `_tokens`; an
error records the token it lies in, and the line is scanned for token columns
only when that error is raised.  Every matrix is validated, with its shape,
when the file is parsed, so a malformed matrix is a positioned error even in a
stanza no command reads.  `linalg._matrix_shape` validates it: text it accepts
is kept as it is, and any other text is handed to `parse_matrix` at once,
whose per-cell scanner converts it or raises a positioned error.  Kept text
is converted to a `Matrix` only when a command first reads it from
`Stanza.fields`: marked as accepted (`linalg._Shaped`), it goes to
`parse_matrix`'s one-pass reader without a second check, and the conversion
is kept on the stanza.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .linalg import MatrixParseError, _Shaped, _matrix_shape, parse_matrix
from .scalars import MAX_LITERAL_LENGTH

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
SPACE_KINDS = ("hermitian",)  # the kinds whose object is a HermitianSpace, what `on=` names


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
        if key in _MATRIX_KEYS and type(value) is str:  # text `_matrix_shape` accepted
            value = self._values[key] = parse_matrix(_Shaped(value))
        return value

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return repr(dict(self))


class Stanza(NamedTuple):
    kind: str
    name: str
    fields: Mapping
    line: int


@dataclass(frozen=True, slots=True)
class SpecFile:
    stanzas: tuple
    declared: dict = field(repr=False, compare=False)  # kind -> {name: stanza}, as parse_spec resolved them

    def find(self, kind: str, name: str):
        """The stanza of `kind` named `name`, or None."""
        return self.declared[kind].get(name)


_TOKEN = re.compile(r"\S+")  # \s is exactly str.isspace(), on which str.split() splits
_INT = re.compile(r"-?[0-9]+")  # ASCII digits, like scalar literals


def _tokens(line: str):
    """(text, 1-based column) pairs, whitespace-separated, comment-stripped."""
    cut = line.find("#")
    return [(m.group(), m.start() + 1)
            for m in _TOKEN.finditer(line, 0, cut if cut >= 0 else len(line))]


class _Bad(Exception):
    """An error on one line before its column is known.  `where` is the index of
    the token it lies in, or the key in whose value it lies, and `offset`
    counts characters from the start of that token or value."""

    def __init__(self, message: str, where, offset: int = 0):
        self.message, self.where, self.offset = message, where, offset

    def positioned(self, line: str, lineno: int) -> SpecFileError:
        toks = _tokens(line)
        where, offset = self.where, self.offset
        if type(where) is str:  # a field key, known and unique by now
            key = where + "="
            where = next(i for i in range(2, len(toks)) if toks[i][0].startswith(key))
            offset += len(key)
        return SpecFileError(self.message, lineno, toks[where][1] + offset)


def _parse_int(text: str, key: str, offset: int = 0, minimum: int = 0) -> int:
    if not _INT.fullmatch(text):
        raise _Bad(f"expected an integer, got {text!r}", key, offset)
    if len(text) > MAX_LITERAL_LENGTH:
        raise _Bad(f"integer longer than {MAX_LITERAL_LENGTH} characters", key, offset)
    value = int(text)
    if value < minimum:
        raise _Bad(f"integer must be at least {minimum}", key, offset)
    return value


def _parse_mat(text: str, key: str) -> tuple:
    """(value, shape): the text itself if `_matrix_shape` accepts it, else the
    Matrix `parse_matrix` makes of it, whose errors keep their position."""
    shape = _matrix_shape(text)
    if shape is not None:
        return text, shape
    try:
        m = parse_matrix(text)
    except MatrixParseError as exc:
        raise _Bad(str(exc), key, exc.offset) from None
    return m, m.shape


def _resolve(declared: dict, kinds: tuple, f: dict, key: str):
    """The stanza `f[key]` names: the first of `kinds` that declares it."""
    name = f[key]
    for kind in kinds:
        st = declared[kind].get(name)
        if st is not None:
            return st
    raise _Bad(f"unknown {' or '.join(kinds)} {name!r}", key)


def _square(f: dict, declared: dict, matrices: tuple) -> dict:
    """dim and the fields `matrices`, each dim x dim; all parse before any shape is checked."""
    dim = _parse_int(f["dim"], "dim", minimum=1)
    values = {"dim": dim}
    for key in matrices:
        values[key] = _parse_mat(f[key], key)
    for key in matrices:
        values[key], shape = values[key]
        if shape != (dim, dim):
            raise _Bad(f"{key} must be dim x dim", key)
    return values


def _gate(f: dict, declared: dict, matrices: tuple) -> dict:
    space = _resolve(declared, SPACE_KINDS, f, "on")
    d = space.fields["dim"]
    mat, shape = _parse_mat(f["mat"], "mat")
    if shape != (d, d):
        raise _Bad(f"mat must be {d}x{d} for {f['on']}", "mat")
    return {"on": (space.kind, space.name), "mat": mat}


def _realset(f: dict, declared: dict, matrices: tuple) -> dict:
    size = _parse_int(f["size"], "size", minimum=1)
    tau = []
    at = 0
    for part in f["tau"].split(","):
        tau.append(_parse_int(part, "tau", at))
        at += len(part) + 1
    if len(tau) != size:
        raise _Bad("tau must list size entries", "tau")
    if sorted(tau) != list(range(size)):
        raise _Bad("tau is not a permutation", "tau")
    return {"size": size, "tau": tuple(tau)}


def _quantize(f: dict, declared: dict, matrices: tuple) -> dict:
    parts = f["basis"].split(",")
    at = 0
    seen = set()
    for part in parts:
        if not _NAME.match(part):
            raise _Bad(f"bad basis label {part!r}", "basis", at)
        if part in seen:
            raise _Bad(f"duplicate basis label {part!r}", "basis", at)
        seen.add(part)
        at += len(part) + 1
    return {"basis": tuple(parts)}


def _channel(f: dict, declared: dict, matrices: tuple) -> dict:
    gate = _resolve(declared, ("gate",), f, "gate")
    rho = _resolve(declared, ("gate",), f, "rho")
    if gate.fields["on"] != rho.fields["on"]:  # keys: comparing stanzas would parse their matrices
        raise _Bad("gate and rho live on different spaces", "rho")
    return {"gate": (gate.kind, gate.name), "rho": (rho.kind, rho.name)}


def _check(f: dict, declared: dict, matrices: tuple) -> dict:
    target = f["target"]
    if "kind" in f:
        kind = f["kind"]
        if kind not in _SCHEMA or kind == "check":
            raise _Bad(f"bad kind {kind!r}", "kind")
        _resolve(declared, (kind,), f, "target")  # raises for an undeclared target
    else:
        hits = [k for k in _SCHEMA if k != "check" and target in declared[k]]
        if not hits:
            raise _Bad(f"unknown target {target!r}", "target")
        if len(hits) > 1:
            raise _Bad(f"ambiguous target {target!r}; add kind=", "target")
        kind = hits[0]
    return {"target": (kind, target)}


# kind -> (keys, optional keys, matrix keys, validator(fields, declared, matrix
# keys)); the validator gives the stanza's parsed values, every one checked
_SCHEMA = {
    "module": (("dim", "inv"), (), ("inv",), _square),
    "realvs": (("dim", "g", "J"), (), ("g", "J"), _square),
    "hermitian": (("dim", "gram"), (), ("gram",), _square),
    "gate": (("on", "mat"), (), ("mat",), _gate),
    "realset": (("size", "tau"), (), (), _realset),
    "quantize": (("basis",), (), (), _quantize),
    "channel": (("gate", "rho"), (), (), _channel),
    "check": (("target", "kind"), ("kind",), (), _check),
}
_MATRIX_KEYS = frozenset(key for row in _SCHEMA.values() for key in row[2])


def _stanza(toks: list, declared: dict, lineno: int) -> Stanza:
    kind = toks[0]
    if kind not in _SCHEMA:
        raise _Bad(f"unknown stanza kind {kind!r}", 0)
    if len(toks) < 2:
        raise _Bad("stanza needs a name", 0, len(kind))
    name = toks[1]
    if not _NAME.match(name):
        raise _Bad(f"bad name {name!r}", 1)
    if name in declared[kind]:
        raise _Bad(f"duplicate {kind} name {name!r}", 1)
    keys, optional, matrices, validate = _SCHEMA[kind]
    fields = {}
    for i in range(2, len(toks)):
        key, eq, value = toks[i].partition("=")
        if not key or not eq:
            raise _Bad(f"expected key=value, got {toks[i]!r}", i)
        if key not in keys:
            raise _Bad(f"unknown key {key!r} for {kind}", i)
        if key in fields:
            raise _Bad(f"duplicate key {key!r}", i)
        if not value:
            raise _Bad(f"empty value for {key!r}", i)
        fields[key] = value
    if len(fields) < len(keys):
        for key in keys:
            if key not in fields and key not in optional:
                raise _Bad(f"{kind} needs {key}=", 0)
    return Stanza(kind, name, _Fields(validate(fields, declared, matrices)), lineno)


def split_lines(text: str) -> list:
    """The lines of `text`, broken only at CR LF, CR and LF."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_spec(text: str) -> SpecFile:
    """Parse and resolve a spec file; raises SpecFileError with a position.

    Each line is split once; a column is worked out only for an error."""
    stanzas = []
    declared = {kind: {} for kind in _SCHEMA}
    for lineno, line in enumerate(split_lines(text), start=1):
        toks = line.partition("#")[0].split()
        if not toks:
            continue
        try:
            st = _stanza(toks, declared, lineno)
        except _Bad as bad:
            raise bad.positioned(line, lineno) from None
        declared[st.kind][st.name] = st
        stanzas.append(st)

    return SpecFile(tuple(stanzas), declared)
