"""Command line front end.

Reads a declarative spec file (see `specfile`), runs one command against it,
and prints a deterministic report: identical input bytes and flags produce
identical output bytes.  All scalars and matrices are printed in canonical
lowest-terms text that parses back bit-exactly.

Commands:

    check      validate the invariants of every declared object (optionally
               only stanzas whose name equals --target)
    hermitian  extract the Hermitian space of a quantize or hermitian stanza
    dagger     adjoint of a gate, with the gram-oracle cross-check
    unitary    isometry verdict for a gate (exit 0 iff unitary)
    channel    apply a channel stanza: transformed operator plus certificates
    quantize   build a quantize stanza: module, icplx, gram, certificates
    selftest   run the seeded property suites (no input file required)

Exit codes: 0 all verdicts passed, 1 a verdict failed, 2 input error.
"""

from __future__ import annotations

import argparse
import sys

from .density import channel as apply_channel
from .density import positivity_certificate, trace
from .equivalence import HermitianSpace, RealVS
from .errors import InvariantViolation, ShapeError, SingularMatrixError
from .hermitian import (
    SelfDualRealModule,
    adjoint_oracle,
    dagger,
    extract_hermitian,
    is_unitary,
    make_selfdual,
)
from .linalg import format_matrix
from .modules import RealModule
from .quantization import RealSet, quantize
from .scalars import ScalarFormatError
from .selftest import run_selftest
from .specfile import SpecFile, SpecFileError, Stanza, parse_spec

_RUN_ERRORS = (InvariantViolation, ShapeError, SingularMatrixError, ZeroDivisionError)


def _selfdual_for(spec: SpecFile, name: str) -> SelfDualRealModule:
    """A self-dual module named in the file: a quantize or hermitian stanza."""
    q = spec.find("quantize", name)
    h = spec.find("hermitian", name)
    if q is not None and h is not None:
        raise _InputError(f"{name!r} names both a quantize and a hermitian stanza; rename one")
    if q is not None:
        return quantize(len(q.fields["basis"]))
    if h is not None:
        space = HermitianSpace(h.fields["dim"], h.fields["gram"])
        return make_selfdual(space)
    raise _InputError(f"no quantize or hermitian stanza named {name!r}")


class _InputError(Exception):
    pass


def _check_stanza(spec: SpecFile, st: Stanza) -> None:
    """Raise if the stanza's object violates an invariant."""
    f = st.fields
    if st.kind == "module":
        RealModule(f["dim"], f["inv"]).check()
    elif st.kind == "realvs":
        RealVS(f["dim"], f["g"], f["J"]).check()
    elif st.kind == "hermitian":
        HermitianSpace(f["dim"], f["gram"]).check()
    elif st.kind == "gate":
        on = spec.find("hermitian", f["on"])
        HermitianSpace(on.fields["dim"], on.fields["gram"]).check()
    elif st.kind == "realset":
        RealSet(f["size"], f["tau"]).check()
    elif st.kind == "quantize":
        quantize(len(f["basis"]))  # builds and checks the whole structure
    elif st.kind == "channel":
        on = spec.find("hermitian", spec.find("gate", f["gate"]).fields["on"])
        HermitianSpace(on.fields["dim"], on.fields["gram"]).check()
        m = on.fields["gram"] @ spec.find("gate", f["rho"]).fields["mat"]
        if m.conj_transpose() != m:  # the law `channel` asserts on its state
            raise InvariantViolation("state is not gram-self-adjoint")
    elif st.kind == "check":
        _check_stanza(spec, spec.find(f["kind"], f["target"]))


def _cmd_check(spec: SpecFile, target: str | None) -> tuple[list[str], int]:
    if not spec.stanzas:
        raise _InputError("spec file declares no stanzas")
    lines = []
    failed = False
    stanzas = [st for st in spec.stanzas if target is None or st.name == target]
    if target is not None and not stanzas:
        raise _InputError(f"no stanza named {target!r}")
    for st in stanzas:
        label = (st.fields["kind"], st.fields["target"]) if st.kind == "check" else (st.kind, st.name)
        try:
            _check_stanza(spec, st)
            lines.append(f"check {label[0]} {label[1]}: ok")
        except _RUN_ERRORS as exc:
            lines.append(f"check {label[0]} {label[1]}: FAIL ({exc})")
            failed = True
    return lines, 1 if failed else 0


def _cmd_hermitian(spec: SpecFile, target: str) -> tuple[list[str], int]:
    s = _selfdual_for(spec, target)
    h = extract_hermitian(s)
    gram = h.gram
    lines = [
        f"hermitian {target}: dim={h.dim}",
        f"gram={format_matrix(gram)}",
        f"conjugate-symmetric: {'yes' if gram.conj_transpose() == gram else 'no'}",
        "invertible: yes",  # extract_hermitian rejects degenerate pairings
    ]
    return lines, 0


def _gate(spec: SpecFile, name: str) -> tuple[Stanza, HermitianSpace]:
    st = spec.find("gate", name)
    if st is None:
        raise _InputError(f"no gate named {name!r}")
    on = spec.find("hermitian", st.fields["on"])
    return st, HermitianSpace(on.fields["dim"], on.fields["gram"])


def _cmd_dagger(spec: SpecFile, target: str) -> tuple[list[str], int]:
    st, space = _gate(spec, target)
    s = make_selfdual(space)
    d = dagger(st.fields["mat"], s, s)
    oracle = adjoint_oracle(st.fields["mat"], space, space)
    lines = [
        f"dagger {target}: mat={format_matrix(d)}",
        "adjoint-law: ok",  # asserted inside dagger
        f"oracle-agreement: {'ok' if d == oracle else 'FAIL'}",
    ]
    return lines, 0 if d == oracle else 1


def _cmd_unitary(spec: SpecFile, target: str) -> tuple[list[str], int]:
    st, space = _gate(spec, target)
    s = make_selfdual(space)
    if is_unitary(st.fields["mat"], s, s):
        return [f"unitary {target}: yes"], 0
    return [f"unitary {target}: no (g†g ≠ id)"], 1


def _cmd_channel(spec: SpecFile, target: str) -> tuple[list[str], int]:
    st = spec.find("channel", target)
    if st is None:
        raise _InputError(f"no channel named {target!r}")
    gate, space = _gate(spec, st.fields["gate"])
    rho, _ = _gate(spec, st.fields["rho"])
    s = make_selfdual(space)
    out = apply_channel(gate.fields["mat"], rho.fields["mat"], s)
    preserved = trace(out) == trace(rho.fields["mat"])
    lines = [
        f"channel {target}: rho={format_matrix(out)}",
        "hermitian: yes",  # checked inside positivity_certificate, which raises otherwise
        f"trace-preserved: {'yes' if preserved else 'no'}",
        f"positive: {positivity_certificate(s, out)}",
    ]
    return lines, 0


def _cmd_quantize(spec: SpecFile, target: str) -> tuple[list[str], int]:
    st = spec.find("quantize", target)
    if st is None:
        raise _InputError(f"no quantize stanza named {target!r}")
    labels = st.fields["basis"]
    s = quantize(len(labels))
    h = extract_hermitian(s)
    p = s.pair_mat()
    c = s.coev_mat()
    snakes = (c @ p).is_identity() and (p @ c).is_identity()
    lines = [
        f"quantize {target}: dim={s.H.dim} basis={','.join(labels)}",
        f"inv={format_matrix(s.H.inv)}",
        f"icplx={format_matrix(s.icplx)}",
        f"gram={format_matrix(h.gram)}",
        f"pairing-symmetric: {'yes' if p.transpose() == p else 'no'}",
        f"snake-identities: {'yes' if snakes else 'no'}",
        f"gram-identity: {'yes' if h.gram.is_identity() else 'no'}",
    ]
    ok = p.transpose() == p and snakes and h.gram.is_identity()
    return lines, 0 if ok else 1


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


def run(spec: SpecFile | None, command: str, target: str | None = None,
        seed: int = 0, cases: int = 100) -> tuple[list[str], int]:
    """Execute one command; returns (report lines, exit code)."""
    try:
        if command == "selftest":
            return _cmd_selftest(seed, cases)
        if spec is None:
            raise _InputError(f"command {command!r} needs --input")
        if command == "check":
            return _cmd_check(spec, target)
        if command in ("hermitian", "dagger", "unitary", "channel", "quantize"):
            if target is None:
                raise _InputError(f"command {command!r} needs --target")
            handler = {
                "hermitian": _cmd_hermitian,
                "dagger": _cmd_dagger,
                "unitary": _cmd_unitary,
                "channel": _cmd_channel,
                "quantize": _cmd_quantize,
            }[command]
            return handler(spec, target)
        raise _InputError(f"unknown command {command!r}")
    except (_InputError, ScalarFormatError) as exc:
        return [f"error: {exc}"], 2
    except _RUN_ERRORS as exc:
        head = command if target is None else f"{command} {target}"
        return [f"{head}: FAIL ({exc})"], 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="realmod",
        description="Exact involutive-module toolkit: check, extract, quantize, self-test.")
    parser.add_argument("--input", help="spec file path")
    parser.add_argument("--command", required=True,
                        help="check | hermitian | dagger | unitary | channel | quantize | selftest")
    parser.add_argument("--target", help="object name the command acts on")
    parser.add_argument("--seed", type=int, default=0, help="property-test seed (default 0)")
    parser.add_argument("--cases", type=int, default=100, help="property-test case budget (default 100)")
    args = parser.parse_args(argv)

    spec = None
    if args.input is not None:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.input}: {exc.strerror}")
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
