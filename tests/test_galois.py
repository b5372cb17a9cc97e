"""A Galois oracle: σ: √2 ↦ −√2 is an automorphism of Q(i, √2) that fixes i, so
every verdict decided by an equality or a rank is the same on σ of its
inputs, and every matrix it computes maps entrywise by σ.  Positivity is the
exception: σ moves the real embedding, so it can flip a `positive:` verdict.

On raw entries σ maps (a, b, c, d, e) to (a, −b, c, −d, e), which keeps them in
lowest terms, so σ of a canonical row is canonical.

Complex conjugation, (a, b, c, d, e) ↦ (a, b, −c, −d, e), is the second
automorphism.  It fixes √2 and moves i, so the model built from conjugated
inputs has the conjugated structure with its complex structure negated: its
+i eigenspace is the conjugate of the original's.  Every matrix maps by it
here too, and positivity keeps its verdict as well, since conj(H) = Hᵀ has
the inertia of H.
"""

import pathlib
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from realmod import cli, linalg, specfile
from realmod.density import positivity_certificate, random_state
from realmod.equivalence import HermitianSpace
from realmod.hermitian import (conjugate_selfdual, dagger, is_unitary, make_selfdual, random_unitary_word,
                               split_eigenspaces)
from realmod.linalg import Matrix, format_matrix, parse_matrix
from realmod.modules import random_invertible, random_matrix
from realmod.scalars import I, SQRT2
from realmod.specfile import parse_spec


CORPUS = sorted((pathlib.Path(__file__).parent / "data").glob("*.spec"))


def sigma_rows(raw: tuple) -> tuple:
    """σ applied to raw rows."""
    return tuple(tuple((j, a, -b, c, -d, e) for j, a, b, c, d, e in row) for row in raw)


def sigma(m: Matrix) -> Matrix:
    return linalg._new(m.rows, m.cols, sigma_rows(m.raw))


def conj(m: Matrix) -> Matrix:
    """Complex conjugation on raw rows, written apart from `Matrix.conj`."""
    return linalg._new(m.rows, m.cols, tuple(tuple((j, a, b, -c, -d, e) for j, a, b, c, d, e in row)
                                             for row in m.raw))


_TERM = re.compile(r"([+-]?)([^+-]+)")


def _flip_terms(text: str, mark: str) -> str:
    """Matrix text, not parsed, with each term that carries `mark` negated."""
    cells = []
    for cell in re.split("([,;])", text):
        if cell in (",", ";"):
            cells.append(cell)
            continue
        terms = []
        for sign, body in _TERM.findall(cell):
            if mark in body:
                sign = "+" if sign == "-" else "-"
            terms.append(sign + body)
        cells.append("".join(terms).removeprefix("+"))
    return "".join(cells)


def sigma_text(text: str) -> str:
    """σ applied to matrix text without parsing it: each term that carries r2
    changes sign."""
    return _flip_terms(text, "r2")


def conj_text(text: str) -> str:
    """Conjugation applied to matrix text: each term that carries i changes sign."""
    return _flip_terms(text, "i")


def _model(rng: random.Random, n: int, conjugated: bool, gram: Matrix, auto=sigma):
    """The structure and its image under the automorphism `auto`, each built
    from its own inputs: the standard model of (n, gram), conjugated by a
    random frame if asked.  An automorphism that moves i negates the image of
    the complex structure."""
    pair = [make_selfdual(HermitianSpace(n, gram)), make_selfdual(HermitianSpace(n, auto(gram)))]
    if conjugated:
        t = random_invertible(rng, 2 * n)
        pair = [conjugate_selfdual(pair[0], t), conjugate_selfdual(pair[1], auto(t))]
    s, image = pair
    i_sign = 1 if auto(Matrix.diagonal([I])) == Matrix.diagonal([I]) else -1
    for m, m_image in ((s.H.inv, image.H.inv), (s.pairing, image.pairing), (s.coev, image.coev),
                       (s.icplx, i_sign * image.icplx)):
        assert auto(m) == m_image
    return s, image


def _gram(rng: random.Random, n: int) -> Matrix:
    """t† D t for a unimodular t, whose entries hold √2, and diagonal signs D."""
    t = random_invertible(rng, n)
    return t.conj_transpose() @ Matrix.diagonal([rng.choice((1, -1)) for _ in range(n)]) @ t


_cases = st.tuples(st.integers(0, 2 ** 32), st.integers(1, 3), st.booleans())


def _parsing_and_printing_commute(case, auto, auto_text):
    seed, n, _ = case
    rng = random.Random(seed)
    m = random_matrix(rng, n, rng.randint(1, 3), span=rng.choice((1, 3, 10 ** 6)))
    text = format_matrix(m)
    assert format_matrix(auto(m)) == auto_text(text)
    assert linalg._matrix_shape(text) is not None  # canonical text takes the one-pass reader
    assert parse_matrix(auto_text(text)) == auto(parse_matrix(text)) == auto(m)
    spaced = text.replace(",", " , ")  # whitespace leaves it to the per-cell scanner
    assert linalg._matrix_shape(" " + spaced) is None
    assert parse_matrix(" " + auto_text(spaced)) == auto(parse_matrix(" " + spaced)) == auto(m)


@given(_cases)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_parsing_and_printing_commute_with_sigma_on_both_paths(case):
    _parsing_and_printing_commute(case, sigma, sigma_text)


@given(_cases)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_parsing_and_printing_commute_with_conjugation_on_both_paths(case):
    _parsing_and_printing_commute(case, conj, conj_text)


@given(_cases)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_dagger_maps_by_sigma_and_unitarity_keeps_its_verdict(case):
    seed, n, conjugated = case
    rng = random.Random(seed)
    identity_gram = rng.random() < 0.5
    s, s_image = _model(rng, n, conjugated, Matrix.identity(n) if identity_gram else _gram(rng, n))
    gates = [random_matrix(rng, n, n)]
    if identity_gram:
        gates.append(random_unitary_word(rng, n))  # its Hadamard blocks hold 1/√2
    for g in gates:
        assert dagger(sigma(g), s_image, s_image) == sigma(dagger(g, s, s))
        assert is_unitary(sigma(g), s_image, s_image) == is_unitary(g, s, s)


@given(_cases)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_dagger_maps_by_conjugation_and_unitarity_and_positivity_keep_their_verdicts(case):
    seed, n, conjugated = case
    rng = random.Random(seed)
    identity_gram = rng.random() < 0.5
    s, s_image = _model(rng, n, conjugated, Matrix.identity(n) if identity_gram else _gram(rng, n), conj)
    gates = [random_matrix(rng, n, n)]
    if identity_gram:
        gates.append(random_unitary_word(rng, n))  # its powers of i move under conjugation
    for g in gates:
        assert dagger(conj(g), s_image, s_image) == conj(dagger(g, s, s))
        assert is_unitary(conj(g), s_image, s_image) == is_unitary(g, s, s)
    # a positive mixture, and gram^-1 (b + b†), whose form b + b† is
    # Hermitian and most often indefinite
    gram_inv = split_eigenspaces(s).space.gram_inv
    b = random_matrix(rng, n, n)
    for rho in (random_state(rng, s), gram_inv @ (b + b.conj_transpose())):
        assert positivity_certificate(s_image, conj(rho)) == positivity_certificate(s, rho)


def test_the_verdicts_see_sqrt2():
    # σ of a unitary word that holds 1/√2 is a different matrix with the same verdict
    rng = random.Random(3)
    s = make_selfdual(HermitianSpace(2, Matrix.identity(2)))
    words = [random_unitary_word(rng, 2) for _ in range(20)]
    moved = [g for g in words if sigma(g) != g]
    assert moved and all(is_unitary(g, s, s) and is_unitary(sigma(g), s, s) for g in moved)


POSITIVE = """\
hermitian h dim=2 gram=1,0;0,1
gate one on=h mat=1,0;0,1
gate rho on=h mat=1,0;0,{}
channel c gate=one rho=rho
"""


def test_sigma_flips_positivity():
    # on G = I, diag(1, −1 + √2) is positive and its σ image diag(1, −1 − √2) is not
    rho = Matrix.diagonal([1, SQRT2 - 1])
    s = make_selfdual(HermitianSpace(2, Matrix.identity(2)))
    assert positivity_certificate(s, rho) == "yes"
    assert positivity_certificate(s, sigma(rho)) == "no"
    lines, rc = cli.run(parse_spec(POSITIVE.format("-1+1*r2")), "channel", "c")
    lines_image, rc_image = cli.run(parse_spec(POSITIVE.format(sigma_text("-1+1*r2"))), "channel", "c")
    assert (rc, rc_image) == (0, 0)
    assert lines == ["channel c: rho=1,0;0,-1+1*r2", "hermitian: yes", "trace-preserved: yes", "positive: yes"]
    assert lines_image == ["channel c: rho=1,0;0,-1-1*r2", "hermitian: yes", "trace-preserved: yes",
                           "positive: no"]


def _reports(text: str) -> list:
    """(lines, exit code) of the whole-file check, then of every command on
    every stanza name, in the order `test_golden.render` runs them."""
    spec = parse_spec(text)
    names = sorted({st.name for st in spec.stanzas})
    return [cli.run(spec, command, target)
            for command, target in [("check", None)] + [(c, n) for n in names for c in cli._COMMANDS]]


def _sigma_spec(text: str) -> str:
    """The spec text with σ applied to every matrix field, comments kept."""
    def field(m):
        return f"{m[1]}={sigma_text(m[2]) if m[1] in specfile._MATRIX_KEYS else m[2]}"
    lines = []
    for line in text.split("\n"):
        code, mark, comment = line.partition("#")
        lines.append(re.sub(r"(\w+)=(\S+)", field, code) + mark + comment)
    return "\n".join(lines)


def test_every_corpus_report_maps_by_sigma():
    # the same exit code and verdicts on σ of every matrix field, `positive:`
    # aside, and each printed matrix, the value after a line's last `=`, maps by σ
    moved = 0
    for path in CORPUS:
        text = path.read_text(encoding="utf-8")
        for (lines, code), (lines_image, code_image) in zip(_reports(text), _reports(_sigma_spec(text)),
                                                           strict=True):
            assert code_image == code and len(lines_image) == len(lines), (path.name, lines)
            for line, line_image in zip(lines, lines_image):
                if not line.startswith("positive:"):
                    head, eq, value = line.rpartition("=")
                    assert line_image == (head + eq + sigma_text(value) if eq else line), path.name
                    moved += line_image != line
    assert moved  # the corpus prints matrices that hold √2
