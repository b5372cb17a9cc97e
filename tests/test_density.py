"""Internally symmetric matrices, state transport, positivity certificates."""

import random
from fractions import Fraction

import pytest

from realmod import density, linalg
from realmod.density import (
    channel,
    csmat,
    fixed_locus_real_dimension,
    fixed_vector_to_operator,
    operator_to_fixed_vector,
    positivity_certificate,
    random_state,
)
from realmod.equivalence import HermitianSpace
from realmod.errors import InvariantViolation, ShapeError
from realmod.hermitian import (
    conjugate_selfdual,
    extract_hermitian,
    hadamard,
    make_selfdual,
    random_hermitian_space,
    random_unitary_word,
    split_eigenspaces,
    standard_selfdual,
)
from realmod.linalg import Matrix, kernel_basis, kron, kron_swap
from realmod.modules import random_invertible
from realmod.scalars import I, Scalar


def test_symmetric_subspace_has_complex_dimension_n_squared():
    for n in (1, 2, 3):
        space = csmat(standard_selfdual(n))
        assert space.dim == n * n


def test_fixed_locus_has_real_dimension_n_squared():
    for n in (1, 2, 3):
        space = csmat(standard_selfdual(n))
        assert fixed_locus_real_dimension(space) == n * n


def test_the_zero_structure_has_a_zero_dimensional_locus():
    space = csmat(make_selfdual(HermitianSpace(0, Matrix.zero(0, 0))))
    assert space.dim == 0 and space.basis.shape == (0, 0)
    assert fixed_locus_real_dimension(space) == 0


def _csmat_reference(s):
    """The braiding kernel by elimination, then the icplx (x) icplx kernel within it."""
    d = s.H.dim
    ident = Matrix.identity(d * d)
    sym = kernel_basis(kron_swap(d, d) - ident)
    return sym @ kernel_basis((kron(s.icplx, s.icplx) - ident) @ sym)


def test_csmat_matches_the_two_kernel_reference():
    rng = random.Random(57)
    models = [standard_selfdual(n) for n in range(5)]
    models += [make_selfdual(random_hermitian_space(rng, n)) for n in (1, 2, 3, 4)]
    models += [conjugate_selfdual(make_selfdual(random_hermitian_space(rng, n)), random_invertible(rng, 2 * n))
               for n in (1, 2, 3, 4)]
    for s in models:
        assert csmat(s).basis == _csmat_reference(s)


def test_csmat_eliminates_the_icplx_kernel_only_for_a_dense_icplx(monkeypatch):
    # the braiding's fixed vectors are read off the swap's orbits; a diagonal
    # icplx leaves the icplx kernel's matrix one entry per row (swap partners
    # share a column), so it is read off too, and a conjugated one is eliminated
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda rows: calls.append(rows) or rref(rows))
    for n in (1, 2, 3, 4):
        s = standard_selfdual(n)
        calls.clear()
        assert csmat(s).dim == n * n
        assert calls == []
    moved = conjugate_selfdual(standard_selfdual(2), random_invertible(random.Random(53), 4))
    split_eigenspaces(moved)  # memoized, so what follows is csmat's own work
    calls.clear()
    assert csmat(moved).dim == 4
    assert calls


def test_dimensions_survive_transport():
    rng = random.Random(51)
    s = make_selfdual(random_hermitian_space(rng, 2))
    moved = conjugate_selfdual(s, random_invertible(rng, 4))
    space = csmat(moved)
    assert space.dim == 4
    assert fixed_locus_real_dimension(space) == 4


def test_operator_vector_round_trip():
    rng = random.Random(52)
    for _ in range(10):
        n = rng.randrange(1, 4)
        s = make_selfdual(random_hermitian_space(rng, n))
        rho = random_state(rng, s)
        v = operator_to_fixed_vector(s, rho)
        assert fixed_vector_to_operator(s, v) == rho


def test_round_trip_rejects_non_selfadjoint_operators():
    s = standard_selfdual(2)
    with pytest.raises(InvariantViolation, match="^operator is not gram-self-adjoint$"):
        operator_to_fixed_vector(s, Matrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(ShapeError, match="^operator must be 2x2$"):
        operator_to_fixed_vector(s, Matrix.identity(3))


def test_round_trip_rejects_vectors_off_the_locus():
    s = standard_selfdual(2)
    d = s.H.dim
    with pytest.raises(ShapeError):
        fixed_vector_to_operator(s, Matrix.zero(d, 1))
    skew = Matrix.from_rows([[1 if k == 1 else 0] for k in range(d * d)])
    with pytest.raises(InvariantViolation, match="braiding-symmetric"):
        fixed_vector_to_operator(s, skew)
    # a square off the locus is read as the map it bends to through the
    # pairing: e0 (x) e0 + e2 (x) e2 is involution-fixed but not icplx-fixed,
    # and i (e0 (x) e1 + e1 (x) e0) is neither, which reports equivariance first
    diagonal = Matrix.from_rows([[1 if k in (0, 2 * d + 2) else 0] for k in range(d * d)])
    with pytest.raises(InvariantViolation, match="^map does not commute with icplx$"):
        fixed_vector_to_operator(s, diagonal)
    imaginary = Matrix.from_rows([[I if k in (1, d) else 0] for k in range(d * d)])
    with pytest.raises(InvariantViolation, match="^map is not equivariant$"):
        fixed_vector_to_operator(s, imaginary)


def test_hadamard_channel_on_the_ground_state():
    s = standard_selfdual(2)
    rho = Matrix.from_rows([[1, 0], [0, 0]])
    out = channel(hadamard(), rho, s)
    half = Scalar(Fraction(1, 2))
    assert out == Matrix.from_rows([[half, half], [half, half]])
    assert out.trace() == rho.trace()
    assert positivity_certificate(s, out) == "yes"


def test_channel_transports_the_square_without_reshaping_it(monkeypatch):
    calls = []
    for name in ("vec", "unvec"):
        reshape = getattr(density, name)
        monkeypatch.setattr(density, name,
                            lambda *args, name=name, reshape=reshape: calls.append(name) or reshape(*args))
    s = standard_selfdual(2)
    rho = Matrix.from_rows([[1, 0], [0, 0]])
    channel(hadamard(), rho, s)
    assert calls == []
    assert fixed_vector_to_operator(s, operator_to_fixed_vector(s, rho)) == rho
    assert calls == ["vec", "unvec"]


def test_channel_checks_each_state_law_once(monkeypatch):
    s = standard_selfdual(2)
    split_eigenspaces(s)
    calls = []
    conj_transpose = Matrix.conj_transpose
    monkeypatch.setattr(Matrix, "conj_transpose", lambda m: calls.append("conj_transpose") or conj_transpose(m))
    self_adjoint = HermitianSpace.is_self_adjoint
    monkeypatch.setattr(HermitianSpace, "is_self_adjoint",
                        lambda h, op: calls.append("is_self_adjoint") or self_adjoint(h, op))
    channel(hadamard(), Matrix.from_rows([[1, 0], [0, 0]]), s)
    assert calls.count("conj_transpose") == 2
    assert calls.count("is_self_adjoint") == 1


def test_channel_functoriality_and_trace_preservation():
    rng = random.Random(53)
    s = standard_selfdual(2)
    for _ in range(10):
        rho = random_state(rng, s)
        u1 = random_unitary_word(rng, 2)
        u2 = random_unitary_word(rng, 2)
        step = channel(u2, channel(u1, rho, s), s)
        assert step == channel(u2 @ u1, rho, s)
        assert step.trace() == rho.trace()
        assert extract_hermitian(s).is_self_adjoint(step)


def test_channel_keeps_states_positive():
    rng = random.Random(54)
    s = standard_selfdual(2)
    for _ in range(8):
        rho = random_state(rng, s, normalized=True)
        out = channel(random_unitary_word(rng, 2), rho, s)
        assert positivity_certificate(s, out) != "no"
        assert out.trace() == Scalar(1)


def test_non_unitary_conjugation_still_transports_both_routes():
    # both computations of the pushforward agree even off the unitary locus;
    # trace is generally not preserved there
    rng = random.Random(55)
    s = standard_selfdual(2)
    rho = random_state(rng, s)
    g = Matrix.from_rows([[1, 1], [0, 1]])
    out = channel(g, rho, s)
    assert extract_hermitian(s).is_self_adjoint(out)


def test_positivity_certificates():
    s = standard_selfdual(2)
    assert positivity_certificate(s, Matrix.identity(2)) == "yes"
    assert positivity_certificate(s, Matrix.from_rows([[1, 0], [0, -1]])) == "no"
    assert positivity_certificate(s, Matrix.from_rows([[1, 0], [0, 0]])) == "yes"
    assert positivity_certificate(s, Matrix.from_rows([[0, I], [-I, 0]])) == "no"
    with pytest.raises(InvariantViolation, match="inertia of a non-Hermitian matrix"):
        positivity_certificate(s, Matrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(ShapeError):
        positivity_certificate(s, Matrix.identity(3))
    with pytest.raises(ShapeError):
        positivity_certificate(s, Matrix.from_rows([[1], [0]]))


def test_positivity_forms_the_expectation_form_once(monkeypatch):
    # `inertia`'s Hermitian test is the state law, so gram . rho is formed once
    s = standard_selfdual(2)
    split_eigenspaces(s)
    calls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    conj_transpose = Matrix.conj_transpose
    monkeypatch.setattr(Matrix, "conj_transpose", lambda m: calls.append("conj_transpose") or conj_transpose(m))
    assert positivity_certificate(s, Matrix.from_rows([[1, 0], [0, 0]])) == "yes"
    assert calls == [1, "conj_transpose"]


def test_positivity_of_large_boundary_states_is_decided():
    s = standard_selfdual(9)
    rho = Matrix.from_rows(
        [[1 if i == j and i < 8 else 0 for j in range(9)] for i in range(9)])
    assert positivity_certificate(s, rho) == "yes"
    # zero diagonal with a [[0,1],[1,0]] block: eigenvalues +1 and -1
    swap = Matrix.from_rows(
        [[1 if {i, j} == {0, 1} else 0 for j in range(9)] for i in range(9)])
    assert positivity_certificate(s, swap) == "no"


def test_certificate_sees_through_an_indefinite_gram():
    h = HermitianSpace(2, Matrix.from_rows([[1, 0], [0, -1]]))
    s = make_selfdual(h)
    # rho = diag(1, -1) has expectation form diag(1, 1): a positive state
    assert positivity_certificate(s, Matrix.from_rows([[1, 0], [0, -1]])) == "yes"
    # the identity operator has a negative direction against this form
    assert positivity_certificate(s, Matrix.identity(2)) == "no"
