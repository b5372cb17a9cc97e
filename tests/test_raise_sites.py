"""Every `raise` in `src/realmod` is reached by a test.

The scan lists each raise site by AST and keys it by module, function and
message: the literal text, or an f-string's template with its fields as
written.  A re-raise, whose message is not written at the site, is keyed by
the raised expression, and raises that share a message within one function
are told apart by their order (`#1`, `#2`).  `TABLE` gives each key exactly
one entry:

* `Raises`: a library call that must raise exactly that type and message;
* `Reports`: a spec text run through `cli.run`, whose report line and exit
  code are checked;
* `Mutation`: a cross-check that compares two computations sharing no step
  after their inputs (or, in the selftest, the library against the suite's
  own expectation).  Its call passes as the code stands and raises once one
  named helper on one side is patched.

A check that cannot fail has no entry: it is deleted, with a one-line
derivation where the law it tested is implied.  A new raise ships with its
entry, and a deleted one takes its entry with it, or the inventory test
fails.  Each entry's message must match its site's template, so an entry
cannot stand in for another site's message.  Stdlib and pytest only.
"""

import ast
import importlib
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from realmod import density, equivalence, hermitian, linalg, quantization, scalars, selftest
from realmod.cli import run
from realmod.errors import CompositionError, InvariantViolation, ShapeError, SingularMatrixError
from realmod.linalg import Matrix, MatrixParseError
from realmod.modules import RealHom, RealModule, compose
from realmod.scalars import I, ONE, ZERO, Scalar, ScalarFormatError, ScalarParseError
from realmod.specfile import SpecFileError, parse_spec

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realmod"


# -- the scan ------------------------------------------------------------------------


class Site(NamedTuple):
    key: str
    literal: str | None  # the message, when the site writes it without fields
    pattern: str | None  # a regular expression for the message; None for a re-raise


def _message(exc) -> tuple:
    """(text, literal, pattern) of the message of `raise E(message, ...)`; a
    raise with no literal or f-string message gives its raised expression."""
    first = exc.args[0] if isinstance(exc, ast.Call) and exc.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value, first.value, re.escape(first.value)
    if isinstance(first, ast.JoinedStr):
        text, pattern = "", ""
        for part in first.values:
            if isinstance(part, ast.Constant):
                text, pattern = text + part.value, pattern + re.escape(part.value)
            else:
                conversion = "" if part.conversion == -1 else "!" + chr(part.conversion)
                text, pattern = text + "{" + ast.unparse(part.value) + conversion + "}", pattern + ".+"
        return text, None, pattern
    return ("raise" if exc is None else ast.unparse(exc)), None, None


def _scan(source: str, module: str) -> list:
    """The raise sites of one module's source, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                found.append((".".join((module,) + scope),) + _message(child.exc))
            visit(child, scope)

    visit(ast.parse(source), ())
    total = Counter((where, text) for where, text, _, _ in found)
    seen = Counter()
    sites = []
    for where, text, literal, pattern in found:
        seen[where, text] += 1
        order = f" #{seen[where, text]}" if total[where, text] > 1 else ""
        sites.append(Site(f"{where}: {text}{order}", literal, pattern))
    return sites


def _package_sites() -> dict:
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        sites.update((s.key, s) for s in _scan(path.read_text(encoding="utf-8"), path.stem))
    return sites


SITES = _package_sites()


def test_the_scan_keys_each_raise_by_function_and_message():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('a literal')\n"
        "    raise TypeError(f'bad {x!r} at {x + 1}')\n"
        "class C:\n"
        "    def m(self, exc):\n"
        "        try:\n"
        "            pass\n"
        "        except KeyError:\n"
        "            raise ValueError('no key') from None\n"
        "        raise exc\n"
        "    def twice(self):\n"
        "        raise ValueError('same')\n"
        "        raise ValueError('same')\n"
    )
    sites = _scan(source, "mod")
    assert [s.key for s in sites] == [
        "mod.f: a literal",
        "mod.f: bad {x!r} at {x + 1}",
        "mod.C.m: no key",
        "mod.C.m: exc",
        "mod.C.twice: same #1",
        "mod.C.twice: same #2",
    ]
    assert sites[0].literal == "a literal" and re.fullmatch(sites[0].pattern, "a literal")
    assert sites[1].literal is None and re.fullmatch(sites[1].pattern, "bad 'y' at 3")
    assert not re.fullmatch(sites[1].pattern, "bad 'y' on 3")
    assert sites[2].literal == "no key"
    assert sites[3].literal is None and sites[3].pattern is None
    assert sites[4].literal == sites[5].literal == "same"


# -- the entries ---------------------------------------------------------------------


class Raises(NamedTuple):
    call: Callable
    error: type
    message: str | None = None  # None: the site's literal message


class Reports(NamedTuple):
    spec: str | None  # parsed with `parse_spec`; None runs the command without one
    command: str
    target: str | None
    line: str  # one line of the report
    code: int
    cases: int = 100


class Mutation(NamedTuple):
    name: str  # "module.attribute" of realmod that the mutation replaces
    patch: Callable  # the original attribute -> its replacement
    call: Callable
    error: type
    message: str | None = None


def m(rows) -> Matrix:
    return Matrix.from_rows(rows)


def plain(n: int) -> RealModule:
    """The n-dimensional module with plain conjugation as involution."""
    return RealModule(n, Matrix.identity(n))


def std(n: int) -> hermitian.SelfDualRealModule:
    return hermitian.standard_selfdual(n)


J2 = equivalence.standard_complex_structure(2)
ID1, ID2, ID3 = Matrix.identity(1), Matrix.identity(2), Matrix.identity(3)


def complex_with(**fields) -> quantization.InternalComplex:
    return replace(quantization.internal_complex(), **fields)


def selfdual(pairing, coev, icplx=((0, -1), (1, 0))) -> hermitian.SelfDualRealModule:
    """A self-dual structure on the plain 2-dimensional module; icplx defaults to J2."""
    return hermitian.SelfDualRealModule(plain(2), m(pairing), m(coev), m(icplx))


def format_huge():
    """Print a coordinate one digit longer than the interpreter's limit (640
    when it has none)."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        sys.set_int_max_str_digits(640)
    try:
        scalars.format_scalar(Scalar(10 ** (limit or 640)))
    finally:
        sys.set_int_max_str_digits(limit)


def doubled_dagger(adjoint):
    def patched(g, s1, s2):
        hom_mat, dag = adjoint(g, s1, s2)
        return hom_mat, Scalar(2) * dag
    return patched


def spec_error(text: str):
    return lambda: parse_spec(text)


QUBIT = "hermitian q dim=1 gram=1\ngate one on=q mat=1\n"
STATE = m([[1, 0], [0, 0]])

TABLE = {
    # -- cli
    "cli._build_channel: state is not gram-self-adjoint": Reports(
        QUBIT + "gate r on=q mat=i\nchannel c gate=one rho=r", "check", None,
        "check channel c: FAIL (state is not gram-self-adjoint)", 1),
    "cli._Build.find: no {_NOUN.get(kind, kind)} named {name!r}": Reports(
        QUBIT, "dagger", "nope", "error: no gate named 'nope'", 2),
    "cli._Build.stanza: obj.with_traceback(None)": Reports(
        "module m dim=1 inv=2", "check", None, "check module m: FAIL (involutivity: inv*conj(inv) != I)", 1),
    "cli._cmd_check: spec file declares no stanzas": Reports(
        "# nothing", "check", None, "error: spec file declares no stanzas", 2),
    "cli._cmd_check: no stanza named {target!r}": Reports(
        QUBIT, "check", "nope", "error: no stanza named 'nope'", 2),
    "cli._cmd_hermitian: no quantize or hermitian stanza named {target!r}": Reports(
        QUBIT, "hermitian", "nope", "error: no quantize or hermitian stanza named 'nope'", 2),
    "cli._cmd_selftest: --cases must be at least 1, got {cases}": Reports(
        None, "selftest", None, "error: --cases must be at least 1, got 0", 2, cases=0),
    "cli.run: command {command!r} needs --input": Reports(
        None, "check", None, "error: command 'check' needs --input", 2),
    "cli.run: command {command!r} needs --target": Reports(
        QUBIT, "dagger", None, "error: command 'dagger' needs --target", 2),
    "cli.run: unknown command {command!r}": Reports(
        QUBIT, "frobnicate", None, "error: unknown command 'frobnicate'", 2),
    # -- density
    "density.csmat: symmetric icplx-fixed part has dimension {basis.cols}, expected {n * n}": Mutation(
        "density.kron_swap", lambda orig: lambda a, b: Matrix.identity(a * b),
        lambda: density.csmat(std(1)), InvariantViolation,
        "symmetric icplx-fixed part has dimension 2, expected 1"),
    "density.operator_to_fixed_vector: operator must be {space.dim}x{space.dim}": Raises(
        lambda: density.operator_to_fixed_vector(std(1), ID2), ShapeError, "operator must be 1x1"),
    "density.operator_to_fixed_vector: operator is not gram-self-adjoint": Raises(
        lambda: density.operator_to_fixed_vector(std(1), m([[I]])), InvariantViolation),
    "density._square_to_operator: vector is not braiding-symmetric": Raises(
        lambda: density.fixed_vector_to_operator(std(1), m([[0], [1], [0], [0]])), InvariantViolation),
    "density.fixed_vector_to_operator: fixed vector must be an ambient column": Raises(
        lambda: density.fixed_vector_to_operator(std(1), ID2), ShapeError),
    "density.channel: gate must be {n}x{n}": Raises(
        lambda: density.channel(ID2, ID1, std(1)), ShapeError, "gate must be 1x1"),
    "density.channel: state is not gram-self-adjoint": Raises(
        lambda: density.channel(ID1, m([[I]]), std(1)), InvariantViolation),
    "density.channel: channel routes disagree": Mutation(
        "density._operator_to_square", lambda orig: lambda s, rho: Scalar(2) * orig(s, rho),
        lambda: density.channel(hermitian.hadamard(), STATE, std(2)), InvariantViolation),
    "density.random_state: found no positive-trace mixture; the form may lack positive directions": Raises(
        lambda: density.random_state(random.Random(0), hermitian.make_selfdual(
            hermitian.HermitianSpace(1, m([[-1]]))), normalized=True), InvariantViolation),
    # -- equivalence
    "equivalence.RealVS.check: g has the wrong shape": Raises(
        lambda: equivalence.RealVS(2, ID3), InvariantViolation),
    "equivalence.RealVS.check: g must have real entries": Reports(
        "realvs v dim=2 g=i,0;0,1 J=0,-1;1,0", "check", None, "check realvs v: FAIL (g must have real entries)", 1),
    "equivalence.RealVS.check: g must be symmetric": Raises(
        lambda: equivalence.RealVS(2, m([[1, 1], [0, 1]])), InvariantViolation),
    "equivalence.RealVS.check: g must be nondegenerate": Raises(
        lambda: equivalence.RealVS(2, m([[1, 1], [1, 1]])), InvariantViolation),
    "equivalence.RealVS.check: J has the wrong shape": Raises(
        lambda: equivalence.RealVS(2, None, ID3), InvariantViolation),
    "equivalence.RealVS.check: J must have real entries": Reports(
        "realvs v dim=2 g=1,0;0,1 J=0,-i;i,0", "check", None, "check realvs v: FAIL (J must have real entries)", 1),
    "equivalence.RealVS.check: J^2 != -I": Raises(
        lambda: equivalence.RealVS(2, None, ID2), InvariantViolation),
    "equivalence.RealVS.check: J is not a g-isometry": Raises(
        lambda: equivalence.RealVS(2, m([[1, 0], [0, 2]]), J2), InvariantViolation),
    "equivalence._require_g_and_j: needs both g and J": Raises(
        lambda: equivalence.inner_to_hermitian_formula(equivalence.RealVS(2, ID2)), ValueError),
    "equivalence._require_j: needs a complex structure J": Raises(
        lambda: equivalence.hyperbolic_iso(equivalence.RealVS(2, ID2)), ValueError),
    "equivalence.inner_to_hermitian_functorial: functorial and formula routes disagree": Mutation(
        "equivalence._complex_split",
        lambda orig: lambda space: orig(equivalence.RealVS(space.dim, Scalar(2) * space.g, space.J)),
        lambda: equivalence.inner_to_hermitian_functorial(equivalence.RealVS(2, ID2, J2)), InvariantViolation),
    "equivalence.hermitian_form_on_real_basis: real-basis routes disagree": Mutation(
        "equivalence.INV_SQRT2", lambda orig: ONE,
        lambda: equivalence.hermitian_form_on_real_basis(equivalence.RealVS(2, ID2, J2)), InvariantViolation),
    "equivalence.standard_complex_structure: complex structures need even dimension": Raises(
        lambda: equivalence.standard_complex_structure(3), ValueError),
    # -- hermitian
    "hermitian.HermitianSpace.check: gram has the wrong shape": Raises(
        lambda: hermitian.HermitianSpace(2, ID3), InvariantViolation),
    "hermitian.HermitianSpace.check: gram is not conjugate-symmetric": Raises(
        lambda: hermitian.HermitianSpace(1, m([[I]])), InvariantViolation),
    "hermitian.HermitianSpace.check: gram is degenerate": Raises(
        lambda: hermitian.HermitianSpace(1, m([[0]])), InvariantViolation),
    "hermitian.SelfDualRealModule.check: {name} must be dim x dim": Raises(
        lambda: hermitian.SelfDualRealModule(plain(2), ID3, ID2, J2), InvariantViolation,
        "pairing must be dim x dim"),
    "hermitian.SelfDualRealModule.check: pairing is not equivariant": Raises(
        lambda: selfdual([[I, 0], [0, I]], [[-I, 0], [0, -I]]), InvariantViolation),
    "hermitian.SelfDualRealModule.check: snake identities fail": Raises(
        lambda: selfdual([[1, 0], [0, 1]], [[2, 0], [0, 2]]), InvariantViolation),
    "hermitian.SelfDualRealModule.check: pairing is not symmetric": Raises(
        lambda: selfdual([[1, 1], [0, 1]], [[1, -1], [0, 1]]), InvariantViolation),
    "hermitian.SelfDualRealModule.check: icplx is not equivariant": Raises(
        lambda: selfdual([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[I, 0], [0, I]]), InvariantViolation),
    "hermitian.SelfDualRealModule.check: icplx^2 != -I": Raises(
        lambda: selfdual([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]), InvariantViolation),
    "hermitian.SelfDualRealModule.check: icplx is not a pairing isometry": Raises(
        lambda: selfdual([[1, 0], [0, 2]], [[1, 0], [0, Scalar(1) / 2]]), InvariantViolation),
    "hermitian.conjugate_selfdual: frame change has the wrong shape": Raises(
        lambda: hermitian.conjugate_selfdual(std(1), ID3), ShapeError),
    "hermitian._split: make/extract round trip fails": Mutation(
        "hermitian.kernel_basis", lambda orig: lambda mat: Scalar(2) * orig(mat),
        lambda: hermitian.extract_hermitian(std(1)), InvariantViolation),
    "hermitian._internalize_raw: map must be {h2}x{h1}, got {g.rows}x{g.cols}": Raises(
        lambda: hermitian.dagger(ID2, std(1), std(1)), ShapeError, "map must be 1x1, got 2x2"),
    "hermitian.externalize_map: ambient map has the wrong shape": Raises(
        lambda: hermitian.externalize_map(ID3, std(1), std(1)), ShapeError),
    "hermitian.externalize_map: map is not equivariant": Raises(
        lambda: hermitian.externalize_map(m([[1, 0], [0, 2]]), std(1), std(1)), InvariantViolation),
    "hermitian.externalize_map: map does not commute with icplx": Raises(
        lambda: hermitian.externalize_map(m([[0, 1], [1, 0]]), std(1), std(1)), InvariantViolation),
    "hermitian.adjoint_oracle: map/space shape mismatch": Raises(
        lambda: hermitian.adjoint_oracle(ID2, hermitian.HermitianSpace(1, ID1), hermitian.HermitianSpace(1, ID1)),
        ShapeError),
    "hermitian._adjoint: dagger violates the adjoint law": Mutation(
        "hermitian._internalize_raw", lambda orig: lambda g, s1, s2: Scalar(2) * orig(g, s1, s2),
        lambda: hermitian.dagger(hermitian.hadamard(), std(2), std(2)), InvariantViolation),
    "hermitian.is_internal_isometry: isometry routes disagree": Mutation(
        "hermitian._adjoint", doubled_dagger,
        lambda: hermitian.is_unitary(hermitian.hadamard(), std(2), std(2)), InvariantViolation),
    # -- linalg
    "linalg._entry: cannot use {type(value).__name__} as a matrix entry": Raises(
        lambda: Matrix(1, 1, ["x"]), TypeError, "cannot use str as a matrix entry"),
    "linalg.Matrix.__init__: negative matrix dimension": Raises(lambda: Matrix(-1, 0, ()), ShapeError),
    "linalg.Matrix.__init__: entry count does not match shape": Raises(lambda: Matrix(1, 1, ()), ShapeError),
    "linalg.Matrix.__setattr__: Matrix is immutable": Raises(lambda: setattr(ID1, "rows", 2), AttributeError),
    "linalg.Matrix.from_rows: ragged rows": Raises(lambda: m([[1], [1, 2]]), ShapeError),
    "linalg.Matrix.__getitem__: index {ij} out of range for {self.rows}x{self.cols}": Raises(
        lambda: ID1[2, 0], IndexError, "index (2, 0) out of range for 1x1"),
    "linalg.Matrix.__add__: cannot add {self.shape} and {other.shape}": Raises(
        lambda: ID1 + ID2, ShapeError, "cannot add (1, 1) and (2, 2)"),
    "linalg.Matrix.__sub__: cannot subtract {self.shape} and {other.shape}": Raises(
        lambda: ID1 - ID2, ShapeError, "cannot subtract (1, 1) and (2, 2)"),
    "linalg.Matrix.__matmul__: cannot multiply {self.shape} by {other.shape}": Raises(
        lambda: ID1 @ ID2, ShapeError, "cannot multiply (1, 1) by (2, 2)"),
    "linalg.Matrix.trace: trace of a non-square matrix": Raises(lambda: Matrix.zero(1, 2).trace(), ShapeError),
    "linalg._fit: {brows}x{bcols} block at ({r0}, {c0}) leaves the {rows}x{cols} frame": Raises(
        lambda: linalg.place(1, 1, [(0, 0, ID2)]), ShapeError, "2x2 block at (0, 0) leaves the 1x1 frame"),
    "linalg.hstack: hstack of no matrices": Raises(lambda: linalg.hstack([]), ShapeError),
    "linalg.hstack: hstack with mismatched row counts": Raises(lambda: linalg.hstack([ID1, ID2]), ShapeError),
    "linalg.vstack: vstack of no matrices": Raises(lambda: linalg.vstack([]), ShapeError),
    "linalg.vstack: vstack with mismatched column counts": Raises(lambda: linalg.vstack([ID1, ID2]), ShapeError),
    "linalg.unvec: cannot reshape {v.shape} to {rows}x{cols}": Raises(
        lambda: linalg.unvec(ID2, 2, 2), ShapeError, "cannot reshape (2, 2) to 2x2"),
    "linalg.inverse: inverse of a non-square matrix": Raises(lambda: linalg.inverse(Matrix.zero(1, 2)), ShapeError),
    "linalg.inverse: matrix is singular": Raises(lambda: linalg.inverse(Matrix.zero(1, 1)), SingularMatrixError),
    "linalg.solve: cannot solve {a.shape} against {b.shape}": Raises(
        lambda: linalg.solve(ID2, ID1), ShapeError, "cannot solve (2, 2) against (1, 1)"),
    "linalg.det: determinant of a non-square matrix": Raises(lambda: linalg.det(Matrix.zero(1, 2)), ShapeError),
    "linalg.inertia: inertia of a non-square matrix": Raises(
        lambda: linalg.inertia(Matrix.zero(1, 2)), ShapeError),
    "linalg.inertia: inertia of a non-Hermitian matrix": Raises(
        lambda: linalg.inertia(m([[I]])), InvariantViolation),
    "linalg.realify: mat and conj_part must share a shape": Raises(lambda: linalg.realify(ID1, ID2), ShapeError),
    "linalg._scan_cells: MatrixParseError(str(e), col_pos + e.offset)": Raises(
        lambda: linalg.parse_matrix("1,x"), MatrixParseError, "unexpected character 'x'"),
    "linalg._scan_cells: ragged matrix rows": Raises(lambda: linalg.parse_matrix("1,2;3"), MatrixParseError),
    # -- modules
    "modules.RealModule.check: involution matrix must be {self.dim}x{self.dim}, got {self.inv.rows}x{self.inv.cols}":
        Raises(lambda: RealModule(2, ID3), InvariantViolation, "involution matrix must be 2x2, got 3x3"),
    "modules.RealModule.check: involutivity: inv*conj(inv) != I": Raises(
        lambda: RealModule(1, m([[2]])), InvariantViolation),
    "modules.RealHom.check: hom matrix must be {self.target.dim}x{self.source.dim}, got {self.mat.rows}x{self.mat.cols}":
        Raises(lambda: RealHom(plain(1), plain(1), ID2), InvariantViolation, "hom matrix must be 1x1, got 2x2"),
    "modules.RealHom.check: equivariance: mat*inv_src != inv_tgt*conj(mat)": Raises(
        lambda: RealHom(plain(1), plain(1), m([[I]])), InvariantViolation),
    "modules.compose: cannot compose: target of f differs from source of g": Raises(
        lambda: compose(RealHom(plain(2), plain(2), ID2), RealHom(plain(1), plain(1), ID1)), CompositionError),
    # -- quantization
    "quantization.InternalComplex.check: multiplication must be 2x4 and unit 2x1": Raises(
        lambda: complex_with(mult=ID2), ShapeError),
    "quantization.InternalComplex.check: multiplication is not equivariant": Raises(
        lambda: complex_with(mult=I * quantization.internal_complex().mult), InvariantViolation),
    "quantization.InternalComplex.check: unit is not equivariant": Raises(
        lambda: complex_with(unit=m([[I], [0]])), InvariantViolation),
    "quantization.InternalComplex.check: multiplication is not associative": Raises(
        lambda: complex_with(mult=m([[1, 0, 0, 1], [0, 1, 2, 0]])), InvariantViolation),
    "quantization.InternalComplex.check: left unit law fails": Raises(
        lambda: complex_with(unit=m([[2], [0]])), InvariantViolation),
    "quantization.InternalComplex.check: right unit law fails": Raises(
        lambda: complex_with(mult=m([[1, 0, 0, 0], [0, 1, 0, 0]])), InvariantViolation),
    "quantization.InternalComplex.check: conjugation is not multiplicative": Raises(
        lambda: complex_with(conj_endo=Scalar(2) * ID2), InvariantViolation),
    "quantization.InternalComplex.check: conjugation endo is not involutive": Raises(
        lambda: complex_with(conj_endo=Matrix.zero(2, 2)), InvariantViolation),
    "quantization.RealSet.check: size must be nonnegative": Raises(
        lambda: quantization.RealSet(-1, ()), InvariantViolation),
    "quantization.RealSet.check: tau is not a permutation": Raises(
        lambda: quantization.RealSet(2, (0, 0)), InvariantViolation),
    "quantization.RealSet.check: tau is not involutive": Raises(
        lambda: quantization.RealSet(3, (1, 2, 0)), InvariantViolation),
    "quantization.RealSetMap.check: map must assign every point": Raises(
        lambda: quantization.RealSetMap(quantization.free_realset(1), quantization.free_realset(1), (0,)),
        ShapeError),
    "quantization.RealSetMap.check: map leaves the target set": Raises(
        lambda: quantization.RealSetMap(quantization.free_realset(1), quantization.free_realset(1), (5, 0)),
        InvariantViolation),
    "quantization.RealSetMap.check: map does not commute with the involutions": Raises(
        lambda: quantization.RealSetMap(quantization.free_realset(1), quantization.trivial_realset(2), (0, 1)),
        InvariantViolation),
    "quantization.RealBundle.check: one fiber and one identification per point": Raises(
        lambda: quantization.RealBundle(quantization.trivial_realset(1), (), ()), ShapeError),
    "quantization.RealBundle.check: phi[{x}] has the wrong shape": Raises(
        lambda: quantization.RealBundle(quantization.trivial_realset(1), (1,), (ID2,)), ShapeError,
        "phi[0] has the wrong shape"),
    "quantization.RealBundle.check: identification over point {x} does not square to the identity": Raises(
        lambda: quantization.RealBundle(quantization.trivial_realset(1), (1,), (m([[2]]),)), InvariantViolation,
        "identification over point 0 does not square to the identity"),
    "quantization.RealBundleMap.check: base map does not match the bundles": Raises(
        lambda: quantization.RealBundleMap(
            quantization.trivial_line_bundle(quantization.trivial_realset(1)),
            quantization.trivial_line_bundle(quantization.trivial_realset(1)),
            quantization.identity_base_map(quantization.trivial_realset(2)), (ID1,)),
        InvariantViolation),
    "quantization.RealBundleMap.check: one fiber map per point": Raises(
        lambda: quantization.RealBundleMap(
            quantization.trivial_line_bundle(quantization.trivial_realset(1)),
            quantization.trivial_line_bundle(quantization.trivial_realset(1)),
            quantization.identity_base_map(quantization.trivial_realset(1)), ()),
        ShapeError),
    "quantization.RealBundleMap.check: fiber map at {x} has the wrong shape": Raises(
        lambda: quantization.RealBundleMap(
            quantization.trivial_line_bundle(quantization.trivial_realset(1)),
            quantization.trivial_line_bundle(quantization.trivial_realset(1)),
            quantization.identity_base_map(quantization.trivial_realset(1)), (ID2,)),
        ShapeError, "fiber map at 0 has the wrong shape"),
    "quantization.RealBundleMap.check: fiber maps at point {x} break the gluing": Raises(
        lambda: quantization.RealBundleMap(
            quantization.trivial_line_bundle(quantization.free_realset(1)),
            quantization.trivial_line_bundle(quantization.free_realset(1)),
            quantization.identity_base_map(quantization.free_realset(1)), (m([[I]]), m([[I]]))),
        InvariantViolation, "fiber maps at point 0 break the gluing"),
    "quantization.pushforward: bundle does not live over the map's source": Raises(
        lambda: quantization.pushforward(quantization.identity_base_map(quantization.trivial_realset(2)),
                                         quantization.trivial_line_bundle(quantization.trivial_realset(1))),
        InvariantViolation),
    "quantization.quantize_set: points fixed by the involution admit no complex structure": Raises(
        lambda: quantization.quantize_set(quantization.trivial_realset(1)), InvariantViolation),
    "quantization.quantize_set: quantization did not produce the standard inner product": Mutation(
        "hermitian.kernel_basis", lambda orig: lambda mat: Scalar(2) * orig(mat),
        lambda: quantization.quantize(1), InvariantViolation),
    "quantization.random_realset: a fixed-point-free involution needs an even size": Raises(
        lambda: quantization.random_realset(random.Random(0), 3, free=True), ValueError),
    # -- scalars
    "scalars.Scalar.__init__: cannot coerce {type(v).__name__} to a rational": Raises(
        lambda: Scalar(1.5), TypeError, "cannot coerce float to a rational"),
    "scalars.Scalar.inv: scalar division by zero": Raises(lambda: ZERO.inv(), ZeroDivisionError),
    "scalars.Scalar.sign_real: sign_real requires a real scalar": Raises(lambda: I.sign_real(), ValueError),
    "scalars._format_raw: cannot print a scalar coordinate of more than {limit} digits": Raises(
        format_huge, ScalarFormatError,
        f"cannot print a scalar coordinate of more than {sys.get_int_max_str_digits() or 640} digits"),
    "scalars.parse_scalar: empty scalar": Raises(lambda: scalars.parse_scalar(" "), ScalarParseError),
    "scalars.parse_scalar: expected term": Raises(lambda: scalars.parse_scalar("1+"), ScalarParseError),
    "scalars.parse_scalar: literal longer than {MAX_LITERAL_LENGTH} characters": Raises(
        lambda: scalars.parse_scalar("1" * 1001), ScalarParseError, "literal longer than 1000 characters"),
    "scalars.parse_scalar: zero denominator": Raises(lambda: scalars.parse_scalar("1/0"), ScalarParseError),
    "scalars.parse_scalar: unexpected character {text[i]!r} #1": Raises(
        lambda: scalars.parse_scalar("x"), ScalarParseError, "unexpected character 'x'"),
    "scalars.parse_scalar: expected i or r2": Raises(lambda: scalars.parse_scalar("1*x"), ScalarParseError),
    "scalars.parse_scalar: repeated marker": Raises(lambda: scalars.parse_scalar("i*i"), ScalarParseError),
    # a term after a term without a sign between them
    "scalars.parse_scalar: unexpected character {text[i]!r} #2": Raises(
        lambda: scalars.parse_scalar("1 2"), ScalarParseError, "unexpected character '2'"),
    # -- selftest
    "selftest._check: AssertionError(message)": Raises(
        lambda: selftest._check(False, "a law broke"), AssertionError, "a law broke"),
    "selftest._suite_scalars_text: {bad!r} should not parse": Mutation(
        "selftest.parse_scalar", lambda orig: lambda text: orig(text.replace("//", "/")),
        lambda: selftest._suite_scalars_text(random.Random(0), 1), AssertionError, "'1//2' should not parse"),
    "selftest._suite_quant_quantize: fixed point was not rejected": Mutation(
        "quantization.quantize_set", lambda orig: lambda base: None if base.fixed_points() else orig(base),
        lambda: selftest._suite_quant_quantize(random.Random(0), 1), AssertionError),
    "selftest._suite_cli_roundtrip: bad input ({what}) should not parse": Mutation(
        "specfile.parse_spec", lambda orig: lambda text: orig(text.replace("//", "/")),
        lambda: selftest._suite_cli_roundtrip(random.Random(0), 1), AssertionError,
        "bad input (scalar) should not parse"),
    "selftest.run_selftest: cases must be at least 1, got {cases}": Raises(
        lambda: selftest.run_selftest(0, 0), ValueError, "cases must be at least 1, got 0"),
    # -- specfile: parse_spec re-raises each positioned
    "specfile._parse_int: expected an integer, got {text!r}": Raises(
        spec_error("module m dim=x inv=1"), SpecFileError, "expected an integer, got 'x' (line 1, column 14)"),
    "specfile._parse_int: integer longer than {MAX_LITERAL_LENGTH} characters": Raises(
        spec_error("module m dim=" + "1" * 1001 + " inv=1"), SpecFileError,
        "integer longer than 1000 characters (line 1, column 14)"),
    "specfile._parse_int: integer must be at least {minimum}": Raises(
        spec_error("module m dim=0 inv=1"), SpecFileError, "integer must be at least 1 (line 1, column 14)"),
    "specfile._parse_mat: _Bad(str(exc), key, exc.offset)": Raises(
        spec_error("module m dim=1 inv=x"), SpecFileError, "unexpected character 'x' (line 1, column 20)"),
    "specfile._square: {key} must be dim x dim": Raises(
        spec_error("module m dim=2 inv=1"), SpecFileError, "inv must be dim x dim (line 1, column 20)"),
    "specfile._resolve: unknown {' or '.join(kinds)} {name!r}": Raises(
        spec_error("gate g on=q mat=1"), SpecFileError, "unknown hermitian or quantize 'q' (line 1, column 11)"),
    "specfile._gate: mat must be {d}x{d} for {f['on']}": Raises(
        spec_error(QUBIT + "gate g on=q mat=1,0"), SpecFileError, "mat must be 1x1 for q (line 3, column 17)"),
    "specfile._realset: tau must list size entries": Raises(
        spec_error("realset r size=2 tau=0"), SpecFileError, "tau must list size entries (line 1, column 22)"),
    "specfile._realset: tau is not a permutation": Raises(
        spec_error("realset r size=2 tau=0,0"), SpecFileError, "tau is not a permutation (line 1, column 22)"),
    "specfile._quantize: bad basis label {part!r}": Raises(
        spec_error("quantize q basis=a,1"), SpecFileError, "bad basis label '1' (line 1, column 20)"),
    "specfile._quantize: duplicate basis label {part!r}": Raises(
        spec_error("quantize q basis=a,a"), SpecFileError, "duplicate basis label 'a' (line 1, column 20)"),
    "specfile._channel: gate and rho live on different spaces": Raises(
        spec_error(QUBIT + "hermitian p dim=1 gram=1\ngate two on=p mat=1\nchannel c gate=one rho=two"),
        SpecFileError, "gate and rho live on different spaces (line 5, column 24)"),
    "specfile._check: bad kind {kind!r}": Raises(
        spec_error(QUBIT + "check c target=q kind=check"), SpecFileError, "bad kind 'check' (line 3, column 23)"),
    "specfile._check: unknown target {target!r}": Raises(
        spec_error("check c target=q"), SpecFileError, "unknown target 'q' (line 1, column 16)"),
    "specfile._check: ambiguous target {target!r}; add kind=": Raises(
        spec_error(QUBIT + "module q dim=1 inv=1\ncheck c target=q"), SpecFileError,
        "ambiguous target 'q'; add kind= (line 4, column 16)"),
    "specfile._stanza: unknown stanza kind {kind!r}": Raises(
        spec_error("foo m"), SpecFileError, "unknown stanza kind 'foo' (line 1, column 1)"),
    "specfile._stanza: stanza needs a name": Raises(
        spec_error("module"), SpecFileError, "stanza needs a name (line 1, column 7)"),
    "specfile._stanza: bad name {name!r}": Raises(
        spec_error("module 1m"), SpecFileError, "bad name '1m' (line 1, column 8)"),
    "specfile._stanza: duplicate {kind} name {name!r}": Raises(
        spec_error("module m dim=1 inv=1\nmodule m dim=1 inv=1"), SpecFileError,
        "duplicate module name 'm' (line 2, column 8)"),
    "specfile._stanza: space name {name!r} is taken by a {other} stanza": Raises(
        spec_error(QUBIT + "quantize q basis=a"), SpecFileError,
        "space name 'q' is taken by a hermitian stanza (line 3, column 10)"),
    "specfile._stanza: expected key=value, got {toks[i]!r}": Raises(
        spec_error("module m dim"), SpecFileError, "expected key=value, got 'dim' (line 1, column 10)"),
    "specfile._stanza: unknown key {key!r} for {kind}": Raises(
        spec_error("module m foo=1"), SpecFileError, "unknown key 'foo' for module (line 1, column 10)"),
    "specfile._stanza: duplicate key {key!r}": Raises(
        spec_error("module m dim=1 dim=1"), SpecFileError, "duplicate key 'dim' (line 1, column 16)"),
    "specfile._stanza: empty value for {key!r}": Raises(
        spec_error("module m dim="), SpecFileError, "empty value for 'dim' (line 1, column 10)"),
    "specfile._stanza: {kind} needs {key}=": Raises(
        spec_error("module m dim=1"), SpecFileError, "module needs inv= (line 1, column 1)"),
    "specfile.parse_spec: bad.positioned(line, lineno)": Raises(
        spec_error("module m dim=1 inv=1\nfoo x"), SpecFileError, "unknown stanza kind 'foo' (line 2, column 1)"),
}


def _keys(kind) -> list:
    return [key for key, entry in TABLE.items() if isinstance(entry, kind)]


def test_every_raise_site_has_exactly_one_entry():
    untabled = sorted(set(SITES) - set(TABLE))
    stale = sorted(set(TABLE) - set(SITES))
    assert untabled == [], "raise sites with no entry"
    assert stale == [], "entries whose raise site is gone"
    assert len(SITES) == len(TABLE)


def _expected(key: str, message) -> str:
    site = SITES[key]
    expected = site.literal if message is None else message
    assert expected is not None, "an f-string or re-raise site needs its message in the entry"
    if site.pattern is not None:
        assert re.search(site.pattern, expected), "the entry's message is not its site's"
    return expected


def _assert_raises(key: str, call, error, message) -> None:
    expected = _expected(key, message)
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == expected


@pytest.mark.parametrize("key", _keys(Raises))
def test_each_input_raises_at_its_site(key):
    entry = TABLE[key]
    _assert_raises(key, entry.call, entry.error, entry.message)


@pytest.mark.parametrize("key", _keys(Reports))
def test_each_spec_reports_its_site(key):
    entry = TABLE[key]
    _expected(key, entry.line)
    spec = None if entry.spec is None else parse_spec(entry.spec)
    lines, code = run(spec, entry.command, entry.target, cases=entry.cases)
    assert entry.line in lines
    assert code == entry.code


@pytest.mark.parametrize("key", _keys(Mutation))
def test_each_cross_check_fires_under_its_mutation(key, monkeypatch):
    entry = TABLE[key]
    entry.call()  # both sides agree as the code stands
    module_name, attribute = entry.name.rsplit(".", 1)
    module = importlib.import_module(f"realmod.{module_name}")
    monkeypatch.setattr(module, attribute, entry.patch(getattr(module, attribute)))
    _assert_raises(key, entry.call, entry.error, entry.message)


# a selftest suite relies on these library raises instead of testing the law
# again: each mutation above that fires the raise fails the suite with its message
COVERED_SUITES = {
    "equivalence.central": "equivalence.inner_to_hermitian_functorial: functorial and formula routes disagree",
    "hermitian.extract": "hermitian._split: make/extract round trip fails",
    "hermitian.dagger": "hermitian._adjoint: dagger violates the adjoint law",
    "hermitian.unitary": "hermitian.is_internal_isometry: isometry routes disagree",
    "density.dimensions":
        "density.csmat: symmetric icplx-fixed part has dimension {basis.cols}, expected {n * n}",
    "quantization.quantize":
        "quantization.quantize_set: quantization did not produce the standard inner product",
}


@pytest.mark.parametrize("suite", sorted(COVERED_SUITES))
def test_each_mutation_fails_the_suite_that_relies_on_its_raise(suite, monkeypatch):
    key = COVERED_SUITES[suite]
    entry = TABLE[key]
    module_name, attribute = entry.name.rsplit(".", 1)
    module = importlib.import_module(f"realmod.{module_name}")
    monkeypatch.setattr(module, attribute, entry.patch(getattr(module, attribute)))
    result = next(r for r in selftest.run_selftest(0, 4) if r.name == suite)
    assert not result.passed
    assert re.fullmatch(SITES[key].pattern, result.failure)
