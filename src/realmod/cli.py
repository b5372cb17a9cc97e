"""Command line front end.

Reads a declarative spec file (see `specfile`), runs one command against it,
and prints a deterministic report: identical input bytes and flags produce
identical output bytes.  All scalars and matrices are printed in canonical
lowest-terms text that parses back bit-exactly.

Commands:

    check      validate the invariants of every declared object (optionally
               only stanzas whose name equals --target)
    hermitian  extract the Hermitian space of a quantize or hermitian stanza
    dagger     adjoint of a gate, asserted to equal the gram oracle
    unitary    isometry verdict for a gate (exit 0 iff unitary)
    channel    apply a channel stanza: transformed operator plus certificates
    quantize   build a quantize stanza: module, icplx, gram, certificates
    selftest   run the seeded property suites (no input file required)

Every stanza's object is built in one place, the table `_BUILD` (kind ->
builder): a module, realvs, hermitian or realset stanza gives its checked
object, a gate gives (matrix, space) with the space its `on=` resolved to, a
channel gives (gate, state, space) once the state is gram-self-adjoint, a
quantize stanza gives its quantized structure and a check stanza its target's
object.  A reference is built from the (kind, name) that `specfile` resolved
it to.  `check` runs the builder of each stanza and the commands, declared
once in `_COMMANDS`, take their objects from `_Build` only, so `check` asserts
every law whose failure makes a command exit 1; `channel` reads its stanza's
gate and state without the channel builder, as `density.channel` tests the
state law itself.  Each command builds each object once: `run` makes one
`_Build` table, and every stanza that names a built object, or one whose
builder failed, reads it from there.

Exit codes: 0 all verdicts passed, 1 a verdict failed, 2 input error.
"""

from __future__ import annotations

import argparse
import sys

from .density import channel as apply_channel
from .density import positivity_certificate
from .equivalence import HermitianSpace, RealVS
from .errors import RUN_ERRORS, InvariantViolation
from .hermitian import dagger, extract_hermitian, is_unitary, make_selfdual
from .linalg import format_matrix
from .modules import RealModule
from .quantization import RealSet, quantize
from .scalars import ScalarFormatError
from .selftest import run_selftest
from .specfile import SpecFile, SpecFileError, parse_spec, split_lines


class _InputError(Exception):
    pass


def _channel_inputs(build: _Build, f: dict) -> tuple:
    """(gate, state, space) of a channel stanza's fields, the state untested."""
    gate, space = build(*f["gate"])
    return gate, build(*f["rho"])[0], space  # the state is on the gate's space, as parsing ensured


def _build_channel(build: _Build, f: dict) -> tuple:
    gate, rho, space = _channel_inputs(build, f)
    if not space.is_self_adjoint(rho):  # the law `density.channel` asserts on its state
        raise InvariantViolation("state is not gram-self-adjoint")
    return gate, rho, space


# kind -> builder(build, fields): the stanza's object, every law of it checked
_BUILD = {
    "module": lambda build, f: RealModule(f["dim"], f["inv"]),
    "realvs": lambda build, f: RealVS(f["dim"], f["g"], f["J"]),
    "hermitian": lambda build, f: HermitianSpace(f["dim"], f["gram"]),
    "gate": lambda build, f: (f["mat"], build(*f["on"])),
    "realset": lambda build, f: RealSet(f["size"], f["tau"]),
    "quantize": lambda build, f: quantize(len(f["basis"])),  # builds and checks the whole structure
    "channel": _build_channel,
    "check": lambda build, f: build(*f["target"]),
}
_NOUN = {"quantize": "quantize stanza"}


class _Build:
    """The checked objects of one command's spec file, each built once.

    Calling it with `kind, name` gives that stanza's object, or raises again
    the `RUN_ERRORS` exception its builder raised.  Objects are kept by
    (kind, name); a quantize stanza's by its basis size, the only input of
    `quantize`.  `run` makes one per call, so nothing outlives the command.
    """

    def __init__(self, spec: SpecFile):
        self.spec = spec
        self._objects = {}

    def __call__(self, kind: str, name: str):
        return self.stanza(self.find(kind, name))

    def find(self, kind: str, name: str):
        """The stanza of `kind` named `name`, not built."""
        st = self.spec.find(kind, name)
        if st is None:
            raise _InputError(f"no {_NOUN.get(kind, kind)} named {name!r}")
        return st

    def stanza(self, st):
        key = (st.kind, len(st.fields["basis"]) if st.kind == "quantize" else st.name)
        obj = self._objects.get(key)
        if obj is None:
            try:
                obj = _BUILD[st.kind](self, st.fields)
            except RUN_ERRORS as exc:
                obj = exc
            self._objects[key] = obj
        if isinstance(obj, RUN_ERRORS):
            raise obj.with_traceback(None)
        return obj


def _cmd_check(build: _Build, target: str | None) -> tuple[list[str], int]:
    spec = build.spec
    if not spec.stanzas:
        raise _InputError("spec file declares no stanzas")
    lines = []
    failed = False
    stanzas = [st for st in spec.stanzas if target is None or st.name == target]
    if target is not None and not stanzas:
        raise _InputError(f"no stanza named {target!r}")
    for st in stanzas:
        label = st.fields["target"] if st.kind == "check" else (st.kind, st.name)
        try:
            build.stanza(st)
            lines.append(f"check {label[0]} {label[1]}: ok")
        except RUN_ERRORS as exc:
            lines.append(f"check {label[0]} {label[1]}: FAIL ({exc})")
            failed = True
    return lines, 1 if failed else 0


def _cmd_hermitian(build: _Build, target: str) -> tuple[list[str], int]:
    kinds = [kind for kind in ("quantize", "hermitian") if build.spec.find(kind, target) is not None]
    if len(kinds) > 1:
        raise _InputError(f"{target!r} names both a quantize and a hermitian stanza; rename one")
    if not kinds:
        raise _InputError(f"no quantize or hermitian stanza named {target!r}")
    built = build(kinds[0], target)
    h = extract_hermitian(built if kinds[0] == "quantize" else make_selfdual(built))
    lines = [
        f"hermitian {target}: dim={h.dim}",
        f"gram={format_matrix(h.gram)}",
        "conjugate-symmetric: yes",  # HermitianSpace.check raises otherwise
        "invertible: yes",  # HermitianSpace.check raises otherwise
    ]
    return lines, 0


def _cmd_dagger(build: _Build, target: str) -> tuple[list[str], int]:
    mat, space = build("gate", target)
    s = make_selfdual(space)
    lines = [
        f"dagger {target}: mat={format_matrix(dagger(mat, s, s))}",
        "adjoint-law: ok",  # dagger asserts it, as its agreement with the gram oracle
        "oracle-agreement: ok",  # dagger raises otherwise
    ]
    return lines, 0


def _cmd_unitary(build: _Build, target: str) -> tuple[list[str], int]:
    mat, space = build("gate", target)
    s = make_selfdual(space)
    if is_unitary(mat, s, s):
        return [f"unitary {target}: yes"], 0
    return [f"unitary {target}: no (g†g ≠ id)"], 1


def _cmd_channel(build: _Build, target: str) -> tuple[list[str], int]:
    gate, rho, space = _channel_inputs(build, build.find("channel", target).fields)
    s = make_selfdual(space)
    out = apply_channel(gate, rho, s)
    preserved = out.trace() == rho.trace()
    lines = [
        f"channel {target}: rho={format_matrix(out)}",
        # apply_channel returns its direct route only once it equals the transport
        # route, whose symmetric square gives only gram-self-adjoint operators
        "hermitian: yes",
        f"trace-preserved: {'yes' if preserved else 'no'}",
        f"positive: {positivity_certificate(s, out)}",
    ]
    return lines, 0


def _cmd_quantize(build: _Build, target: str) -> tuple[list[str], int]:
    s = build("quantize", target)
    labels = build.spec.find("quantize", target).fields["basis"]
    h = extract_hermitian(s)
    lines = [
        f"quantize {target}: dim={s.H.dim} basis={','.join(labels)}",
        f"inv={format_matrix(s.H.inv)}",
        f"icplx={format_matrix(s.icplx)}",
        f"gram={format_matrix(h.gram)}",
        "pairing-symmetric: yes",  # SelfDualRealModule.check raises otherwise
        "snake-identities: yes",  # SelfDualRealModule.check raises otherwise
        "gram-identity: yes",  # quantize_set raises otherwise
    ]
    return lines, 0


def _cmd_selftest(seed: int, cases: int) -> tuple[list[str], int]:
    if cases < 1:
        raise _InputError(f"--cases must be at least 1, got {cases}")
    results = run_selftest(seed=seed, cases=cases)
    lines = []
    passed = 0
    for r in results:
        if r.passed:
            lines.append(f"selftest {r.name}: ok ({r.cases} cases)")
            passed += 1
        else:
            lines.append(f"selftest {r.name}: FAIL ({r.failure})")
    lines.append(f"selftest: {passed}/{len(results)} suites passed, seed={seed} cases={cases}")
    return lines, 0 if passed == len(results) else 1


# command -> handler(build, target) for every command that reads a spec file
_COMMANDS = {"check": _cmd_check, "hermitian": _cmd_hermitian, "dagger": _cmd_dagger,
             "unitary": _cmd_unitary, "channel": _cmd_channel, "quantize": _cmd_quantize}


def run(spec: SpecFile | None, command: str, target: str | None = None,
        seed: int = 0, cases: int = 100) -> tuple[list[str], int]:
    """Execute one command; returns (report lines, exit code)."""
    try:
        if command == "selftest":
            return _cmd_selftest(seed, cases)
        if spec is None:
            raise _InputError(f"command {command!r} needs --input")
        handler = _COMMANDS.get(command)
        if handler is None:
            raise _InputError(f"unknown command {command!r}")
        if target is None and handler is not _cmd_check:
            raise _InputError(f"command {command!r} needs --target")
        return handler(_Build(spec), target)
    except (_InputError, ScalarFormatError) as exc:
        return [f"error: {exc}"], 2
    except RUN_ERRORS as exc:
        head = command if target is None else f"{command} {target}"
        return [f"{head}: FAIL ({exc})"], 1


_PARSER = argparse.ArgumentParser(
    prog="realmod",
    description="Exact involutive-module toolkit: check, extract, quantize, self-test.")
_PARSER.add_argument("--input", help="spec file path")
_PARSER.add_argument("--command", required=True,
                     help=" | ".join((*_COMMANDS, "selftest")))
_PARSER.add_argument("--target", help="object name the command acts on")
_PARSER.add_argument("--seed", type=int, default=0, help="property-test seed (default 0)")
_PARSER.add_argument("--cases", type=int, default=100, help="property-test case budget (default 100)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    spec = None
    if args.input is not None:
        try:
            with open(args.input, "rb") as fh:
                data = fh.read()
            text = data.decode("utf-8")
        except OSError as exc:
            print(f"error: cannot read {args.input}: {exc.strerror}")
            return 2
        except UnicodeDecodeError as exc:
            # the lines up to the first undecodable byte, which starts the last one
            head = split_lines(data[:exc.start].decode("utf-8") + "?")
            print(f"error: cannot read {args.input}: not UTF-8 text "
                  f"(line {len(head)}, column {len(head[-1])})")
            return 2
        try:
            spec = parse_spec(text)
        except SpecFileError as exc:
            print(f"error: {exc}")
            return 2

    lines, code = run(spec, args.command, args.target, args.seed, args.cases)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
