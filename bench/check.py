"""Answer checker: ground truth from construction, numpy where none exists.

Runs after the timed loop, on the report text of each distinct request.  It
never calls realmod.  Facts known from how `workloads` built the inputs are
checked exactly: a gate built unitary is reported unitary, the extracted gram
equals the declared one, a positive-weight mixture is never certified "no",
the fixed locus has real dimension n^2, every generated stanza checks ok.
Values with no construction fact (dagger matrices, channel outputs, the
unitarity of random gates) are compared with a complex128 numpy oracle.

`check(expect, rc, text)` returns None for a correct answer, else the reason.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from workloads import Q

_TERM = re.compile(r"([+-]?)(\d+)(?:/(\d+))?(\*i)?(\*r2)?")


def parse_scalar_text(text: str) -> Q:
    """realmod's canonical scalar text (terms like ``-1/2*i*r2``) as an exact Q."""
    coords = [0, 0, 0, 0]
    pos = 0
    if text == "0":
        return Q()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or (pos > 0 and not m.group(1)):
            raise ValueError(f"bad scalar text {text!r}")
        value = Fraction(int(m.group(2)), int(m.group(3) or 1))
        coords[2 * bool(m.group(4)) + bool(m.group(5))] += -value if m.group(1) == "-" else value
        pos = m.end()
    return Q(*coords)


def parse_matrix_text(text: str) -> list:
    return [[parse_scalar_text(cell) for cell in row.split(",")] for row in text.split(";")]


def to_np(mat: list) -> np.ndarray:
    return np.array([[complex(v) for v in row] for row in mat], dtype=np.complex128)


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return bool(np.abs(got - want).max(initial=0.0) <= 1e-9 * scale)


def _adjoint(space, mat: list) -> np.ndarray:
    """gram^-1 g^dagger gram, the adjoint for the space's gram."""
    return to_np(space.gram_inv) @ to_np(mat).conj().T @ to_np(space.gram)


def _is_unitary(space, mat: list) -> bool:
    g, gram = to_np(mat), to_np(space.gram)
    return _close(g.conj().T @ gram @ g, gram)


def _field(lines: list, prefix: str) -> str | None:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _check_selftest(e, rc, lines):
    summary = f"selftest: {{p}}/{{p}} suites passed, seed={e['seed']} cases={e['cases']}"
    suites = [ln for ln in lines if not ln.startswith("selftest: ")]
    if rc != 0 or not suites or lines[-1] != summary.format(p=len(suites)):
        return "selftest did not pass every suite"
    if any(": ok (" not in ln for ln in suites):
        return "a suite line is not ok"
    return None


def _check_hermitian(e, rc, lines):
    space = e["space"]
    if rc != 0 or lines[:1] != [f"hermitian {e['name']}: dim={space.n}"]:
        return "wrong header or exit code"
    gram = _field(lines, "gram=")
    if gram is None or parse_matrix_text(gram) != space.gram:
        return "extracted gram differs from the declared gram"
    if "conjugate-symmetric: yes" not in lines:
        return "gram not reported conjugate-symmetric"
    return None


def _check_dagger(e, rc, lines):
    mat = _field(lines, f"dagger {e['name']}: mat=")
    if rc != 0 or mat is None or "oracle-agreement: ok" not in lines:
        return "dagger failed or disagreed with its oracle"
    if not _close(to_np(parse_matrix_text(mat)), _adjoint(e["space"], e["mat"])):
        return "dagger differs from gram^-1 g^dagger gram"
    return None


def _check_unitary(e, rc, lines):
    unitary = e["unitary"] if e["unitary"] is not None else _is_unitary(e["space"], e["mat"])
    head = f"unitary {e['name']}: "
    if unitary:
        return None if rc == 0 and lines[:1] == [head + "yes"] else "unitary gate not judged unitary"
    if rc == 1 and lines[:1] and lines[0].startswith(head + "no"):
        return None
    return "non-unitary gate judged unitary"


def _check_channel(e, rc, lines):
    space = e["space"]
    out = _field(lines, f"channel {e['name']}: rho=")
    if rc != 0 or out is None:
        return "channel failed"
    g, rho = to_np(e["mat"]), to_np(e["rho"])
    want = g @ rho @ _adjoint(space, e["mat"])
    if not _close(to_np(parse_matrix_text(out)), want):
        return "channel output differs from g rho dagger(g)"
    if "hermitian: yes" not in lines:
        return "channel output not reported self-adjoint"
    unitary = e["unitary"] if e["unitary"] is not None else _is_unitary(space, e["mat"])
    preserved = unitary or _close(np.array([np.trace(want)]), np.array([np.trace(rho)]))
    if f"trace-preserved: {'yes' if preserved else 'no'}" not in lines:
        return "wrong trace-preserved verdict"
    if _field(lines, "positive: ") not in ("yes", "unknown"):
        return "positive-weight mixture not certified positive"
    return None


def _check_check(e, rc, lines):
    if rc != 0 or any("FAIL" in ln for ln in lines):
        return "a generated stanza failed its check"
    if sorted(lines) != sorted(e["lines"]):
        return "check reported other stanzas than declared"
    return None


def _check_quantize(e, rc, lines):
    n = len(e["labels"])
    if rc != 0 or lines[:1] != [f"quantize {e['name']}: dim={2 * n} basis={','.join(e['labels'])}"]:
        return "wrong quantize header or exit code"
    for verdict in ("pairing-symmetric: yes", "snake-identities: yes", "gram-identity: yes"):
        if verdict not in lines:
            return f"missing {verdict!r}"
    gram = _field(lines, "gram=")
    if gram is None or parse_matrix_text(gram) != [[Q(int(i == j)) for j in range(n)] for i in range(n)]:
        return "quantized gram is not the identity"
    inv, icplx = (_field(lines, key) for key in ("inv=", "icplx="))
    if inv is None or icplx is None:
        return "missing inv or icplx"
    inv, icplx = to_np(parse_matrix_text(inv)), to_np(parse_matrix_text(icplx))
    ident = np.eye(2 * n)
    if not (_close(inv @ inv.conj(), ident) and _close(icplx @ icplx, -ident)):
        return "inv is not an involution or icplx^2 != -1"
    return None


def _check_locus(e, rc, lines):
    n = e["space"].n
    if rc != 0 or lines[:1] != [f"locus n={n}: fixed-locus-dim={n * n}"]:
        return "fixed locus dimension is not n^2"
    if "dense-composite: agrees" not in lines:
        return "dense composite disagrees with dagger"
    mat = _field(lines, "dagger=")
    if mat is None or not _close(to_np(parse_matrix_text(mat)), _adjoint(e["space"], e["mat"])):
        return "dagger differs from gram^-1 g^dagger gram"
    return None


_CHECKS = {
    "selftest": _check_selftest,
    "hermitian": _check_hermitian,
    "dagger": _check_dagger,
    "unitary": _check_unitary,
    "channel": _check_channel,
    "check": _check_check,
    "quantize": _check_quantize,
    "locus": _check_locus,
}


def check(expect: dict, rc, text: str) -> str | None:
    """None if the report is right, else why it is wrong."""
    if rc is None:
        return f"raised: {text.strip().splitlines()[-1] if text.strip() else '?'}"
    if rc == 2:
        return "input error (exit 2)"
    try:
        return _CHECKS[expect["type"]](expect, rc, text.splitlines())
    except (ValueError, IndexError) as exc:
        return f"unreadable report: {exc}"
