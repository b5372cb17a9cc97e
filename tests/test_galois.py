"""A Galois oracle: σ: √2 ↦ −√2 is an automorphism of Q(i, √2) that fixes i, so
every verdict decided by an equality or a rank is the same on σ of its
inputs, and every matrix it computes maps entrywise by σ.  Positivity is the
exception: σ moves the real embedding, so it can flip a `positive:` verdict.

On raw entries σ maps (a, b, c, d, e) to (a, −b, c, −d, e), which keeps them in
lowest terms, so σ of a canonical row is canonical.
"""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from realmod import cli, linalg
from realmod.density import positivity_certificate
from realmod.equivalence import HermitianSpace
from realmod.hermitian import conjugate_selfdual, dagger, is_unitary, make_selfdual, random_unitary_word
from realmod.linalg import Matrix, format_matrix, parse_matrix
from realmod.modules import random_invertible, random_matrix
from realmod.scalars import SQRT2
from realmod.specfile import parse_spec


def sigma_rows(raw: tuple) -> tuple:
    """σ applied to raw rows."""
    return tuple(tuple((j, a, -b, c, -d, e) for j, a, b, c, d, e in row) for row in raw)


def sigma(m: Matrix) -> Matrix:
    return linalg._new(m.rows, m.cols, sigma_rows(m.raw))


_TERM = re.compile(r"([+-]?)([^+-]+)")


def sigma_text(text: str) -> str:
    """σ applied to matrix text without parsing it: each term that carries r2
    changes sign."""
    cells = []
    for cell in re.split("([,;])", text):
        if cell in (",", ";"):
            cells.append(cell)
            continue
        terms = []
        for sign, body in _TERM.findall(cell):
            if "r2" in body:
                sign = "+" if sign == "-" else "-"
            terms.append(sign + body)
        cells.append("".join(terms).removeprefix("+"))
    return "".join(cells)


def _model(rng: random.Random, n: int, conjugated: bool, gram: Matrix):
    """The structure and its σ image, each built from its own inputs: the
    standard model of (n, gram), conjugated by a random frame if asked."""
    pair = [make_selfdual(HermitianSpace(n, gram)), make_selfdual(HermitianSpace(n, sigma(gram)))]
    if conjugated:
        t = random_invertible(rng, 2 * n)
        pair = [conjugate_selfdual(pair[0], t), conjugate_selfdual(pair[1], sigma(t))]
    s, image = pair
    for m, m_image in ((s.H.inv, image.H.inv), (s.pairing, image.pairing), (s.coev, image.coev),
                       (s.icplx, image.icplx)):
        assert sigma(m) == m_image
    return s, image


def _gram(rng: random.Random, n: int) -> Matrix:
    """t† D t for a unimodular t, whose entries hold √2, and diagonal signs D."""
    t = random_invertible(rng, n)
    return t.conj_transpose() @ Matrix.diagonal([rng.choice((1, -1)) for _ in range(n)]) @ t


_cases = st.tuples(st.integers(0, 2 ** 32), st.integers(1, 3), st.booleans())


@given(_cases)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_parsing_and_printing_commute_with_sigma_on_both_paths(case):
    seed, n, _ = case
    rng = random.Random(seed)
    m = random_matrix(rng, n, rng.randint(1, 3), span=rng.choice((1, 3, 10 ** 6)))
    text = format_matrix(m)
    assert format_matrix(sigma(m)) == sigma_text(text)
    assert linalg._matrix_shape(text) is not None  # canonical text takes the one-pass reader
    assert parse_matrix(sigma_text(text)) == sigma(parse_matrix(text)) == sigma(m)
    spaced = text.replace(",", " , ")  # whitespace leaves it to the per-cell scanner
    assert linalg._matrix_shape(" " + spaced) is None
    assert parse_matrix(" " + sigma_text(spaced)) == sigma(parse_matrix(" " + spaced)) == sigma(m)


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
