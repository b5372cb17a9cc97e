"""Internally symmetric matrices, state transport, positivity certificates."""

import random
from fractions import Fraction

import pytest

from realmod.density import (
    channel,
    csmat,
    fixed_locus_real_dimension,
    fixed_vector_to_operator,
    is_density_shaped,
    operator_to_fixed_vector,
    positivity_certificate,
    random_selfadjoint,
    random_state,
    trace,
)
from realmod.equivalence import HermitianSpace
from realmod.errors import InvariantViolation
from realmod.hermitian import (
    conjugate_selfdual,
    hadamard,
    make_selfdual,
    random_hermitian_space,
    random_unitary_word,
    standard_selfdual,
)
from realmod.linalg import Matrix
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
        rho = random_selfadjoint(rng, s)
        v = operator_to_fixed_vector(s, rho)
        assert fixed_vector_to_operator(s, v) == rho


def test_round_trip_rejects_non_selfadjoint_operators():
    s = standard_selfdual(2)
    with pytest.raises(InvariantViolation):
        operator_to_fixed_vector(s, Matrix.from_rows([[0, 1], [0, 0]]))


def test_hadamard_channel_on_the_ground_state():
    s = standard_selfdual(2)
    rho = Matrix.from_rows([[1, 0], [0, 0]])
    out = channel(hadamard(), rho, s)
    half = Scalar(Fraction(1, 2))
    assert out == Matrix.from_rows([[half, half], [half, half]])
    assert trace(out) == trace(rho)
    assert positivity_certificate(s, out) == "yes"


def test_channel_functoriality_and_trace_preservation():
    rng = random.Random(53)
    s = standard_selfdual(2)
    for _ in range(10):
        rho = random_state(rng, s)
        u1 = random_unitary_word(rng, 2)
        u2 = random_unitary_word(rng, 2)
        step = channel(u2, channel(u1, rho, s), s)
        assert step == channel(u2 @ u1, rho, s)
        assert trace(step) == trace(rho)
        assert is_density_shaped(s, step)


def test_channel_keeps_states_positive():
    rng = random.Random(54)
    s = standard_selfdual(2)
    for _ in range(8):
        rho = random_state(rng, s, normalized=True)
        out = channel(random_unitary_word(rng, 2), rho, s)
        assert positivity_certificate(s, out) != "no"
        assert trace(out) == Scalar(1)


def test_non_unitary_conjugation_still_transports_both_routes():
    # both computations of the pushforward agree even off the unitary locus;
    # trace is generally not preserved there
    rng = random.Random(55)
    s = standard_selfdual(2)
    rho = random_state(rng, s)
    g = Matrix.from_rows([[1, 1], [0, 1]])
    out = channel(g, rho, s)
    assert is_density_shaped(s, out)


def test_positivity_certificates():
    s = standard_selfdual(2)
    assert positivity_certificate(s, Matrix.identity(2)) == "yes"
    assert positivity_certificate(s, Matrix.from_rows([[1, 0], [0, -1]])) == "no"
    assert positivity_certificate(s, Matrix.from_rows([[1, 0], [0, 0]])) == "yes"
    assert positivity_certificate(s, Matrix.from_rows([[0, I], [-I, 0]])) == "no"
    with pytest.raises(InvariantViolation):
        positivity_certificate(s, Matrix.from_rows([[0, 1], [0, 0]]))


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
