"""Exact matrices: arithmetic, elimination, tensor calculus, text form."""

import itertools
import random

import pytest

from realmod.errors import InvariantViolation, ShapeError, SingularMatrixError
from realmod.linalg import (
    Matrix,
    MatrixParseError,
    block_diag,
    det,
    format_matrix,
    hstack,
    inertia,
    inverse,
    kernel_basis,
    kron,
    kron_swap,
    parse_matrix,
    rank,
    realify,
    rref,
    solve,
    unvec,
    vec,
    vstack,
)
from realmod.modules import random_invertible, random_matrix
from realmod.scalars import I, ONE, SQRT2, Scalar


def test_constructors_and_shape_checks():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 0] == Scalar(3)
    assert Matrix.identity(2) @ m == m
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1]]) @ Matrix.from_rows([[1, 2], [3, 4]])


def test_arithmetic_against_hand_values():
    a = Matrix.from_rows([[1, I], [0, SQRT2]])
    b = Matrix.from_rows([[ONE, ONE], [ONE, -ONE]])
    assert a + b == Matrix.from_rows([[2, Scalar(1, 0, 1)], [1, Scalar(-1, 1)]])
    assert (a @ b)[0, 0] == Scalar(1, 0, 1)
    assert (SQRT2 * a)[1, 1] == Scalar(2)
    assert a.conj_transpose()[1, 0] == -I
    assert -a + a == Matrix.zero(2, 2)


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        r, pivots = rref(m)
        assert rref(r) == (r, pivots)
        assert rank(m) == len(pivots)
        for row, col in enumerate(pivots):
            assert r[row, col] == ONE


def test_kernel_vectors_annihilate():
    rng = random.Random(12)
    for _ in range(25):
        m = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 5))
        ker = kernel_basis(m)
        assert len(ker) == m.cols - rank(m)
        for k in ker:
            assert m @ k == Matrix.zero(m.rows, 1)


def test_inverse_and_solve():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(1, 5)
        a = random_invertible(rng, n)
        ainv = inverse(a)
        assert (a @ ainv).is_identity() and (ainv @ a).is_identity()
        b = random_matrix(rng, n, 1)
        assert a @ solve(a, b) == b
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.from_rows([[1, 1], [1, 1]]))


def test_determinant_is_multiplicative():
    rng = random.Random(14)
    for _ in range(15):
        n = rng.randrange(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert det(a @ b) == det(a) * det(b)
    assert det(Matrix.identity(4)) == ONE


def _random_hermitian(rng, n):
    """Hermitian, often rank-deficient, sometimes with an all-zero diagonal."""
    kind = rng.randrange(3)
    if kind == 0:
        y = random_matrix(rng, n, n)
        return y + y.conj_transpose()
    if kind == 1:
        m = Matrix.zero(n, n)
        for _ in range(rng.randrange(0, n + 1)):
            w = random_matrix(rng, n, 1)
            m = m + Scalar(rng.choice((1, -1, 2))) * (w @ w.conj_transpose())
        return m
    y = random_matrix(rng, n, n)
    m = y + y.conj_transpose()
    return Matrix.from_rows([[0 if i == j else m[i, j] for j in range(n)] for i in range(n)])


def _is_psd_by_principal_minors(m):
    """Reference: PSD iff every principal minor is nonnegative (2^n dets)."""
    for k in range(1, m.rows + 1):
        for idx in itertools.combinations(range(m.rows), k):
            minor = det(Matrix.from_rows([[m[i, j] for j in idx] for i in idx]))
            assert minor.is_real()
            if minor.sign_real() < 0:
                return False
    return True


def test_inertia_counts_the_signs_of_a_congruent_diagonal():
    # t^dagger D t, as random_hermitian_space builds its grams, here with
    # zeros and Q(sqrt2) entries on the diagonal too
    rng = random.Random(16)
    values = (ONE, -ONE, Scalar(3), Scalar(0), Scalar(1, -1), Scalar(-3, 2))
    for _ in range(25):
        n = rng.randrange(1, 7)
        d = [rng.choice(values) for _ in range(n)]
        t = random_invertible(rng, n)
        signs = [x.sign_real() for x in d]
        expect = (signs.count(1), signs.count(-1), signs.count(0))
        assert inertia(t.conj_transpose() @ Matrix.diagonal(d) @ t) == expect


def test_inertia_is_invariant_under_congruence():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(1, 6)
        a = _random_hermitian(rng, n)
        t = random_invertible(rng, n)
        got = inertia(a)
        assert inertia(t.conj_transpose() @ a @ t) == got
        assert got[0] + got[1] == rank(a)


def test_inertia_agrees_with_the_principal_minor_criterion():
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randrange(1, 7)
        a = _random_hermitian(rng, n)
        pos, neg, zero = inertia(a)
        assert pos + neg + zero == n
        assert (neg == 0) == _is_psd_by_principal_minors(a)
        assert (pos == 0) == _is_psd_by_principal_minors(-a)


def test_inertia_edge_cases():
    assert inertia(Matrix.zero(0, 0)) == (0, 0, 0)
    assert inertia(Matrix.zero(3, 3)) == (0, 0, 3)
    # all-zero diagonal: only the 2x2 congruence pivot can start; with
    # a_01 = 1+i the pivot is nonzero only for the coefficient conj(a_01)
    one_plus_i = ONE + I
    assert inertia(Matrix.from_rows([[0, one_plus_i], [one_plus_i.conj(), 0]])) == (1, 1, 0)
    assert inertia(Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])) == (1, 1, 1)
    with pytest.raises(InvariantViolation):
        inertia(Matrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(InvariantViolation):
        inertia(Matrix.from_rows([[I]]))
    with pytest.raises(ShapeError):
        inertia(Matrix.zero(2, 3))


def test_kron_mixed_product_and_vec():
    rng = random.Random(15)
    for _ in range(10):
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 2, 3)
        c = random_matrix(rng, 2, 2)
        d = random_matrix(rng, 3, 2)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)
        # vec(A X B^T) = (A (x) B) vec(X), row-major vec
        x = random_matrix(rng, 2, 2)
        assert kron(a, c) @ vec(x) == vec(a @ x @ c.transpose())
        assert unvec(vec(x), 2, 2) == x


def test_kron_swap_exchanges_factors():
    rng = random.Random(16)
    a = random_matrix(rng, 2, 2)
    b = random_matrix(rng, 3, 3)
    s_ab = kron_swap(2, 3)
    assert s_ab @ kron(a, b) == kron(b, a) @ s_ab
    assert (kron_swap(3, 2) @ s_ab).is_identity()


def test_stacking_shapes():
    a = Matrix.identity(2)
    b = Matrix.zero(2, 3)
    assert hstack([a, b]).cols == 5
    assert vstack([a, Matrix.zero(1, 2)]).rows == 3
    d = block_diag([a, Matrix.identity(3)])
    assert d.is_identity() and d.rows == 5
    with pytest.raises(ShapeError):
        hstack([a, Matrix.zero(3, 1)])


def test_realify_encodes_antilinear_systems():
    # solutions of x - conj(x) = 0 over the whole plane: the real axis
    sys = realify(Matrix.identity(1), -Matrix.identity(1))
    ker = kernel_basis(sys)
    assert len(ker) == 1
    assert ker[0][0, 0] != 0 and ker[0][1, 0] == 0


def test_matrix_text_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        m = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        assert parse_matrix(format_matrix(m)) == m
    assert format_matrix(Matrix.from_rows([[1, I], [SQRT2, 0]])) == "1,1*i;1*r2,0"


def test_matrix_parse_errors():
    for bad in ("", "1,2;3", "1,,2", ";", "1;2;", "a,b"):
        with pytest.raises(MatrixParseError):
            parse_matrix(bad)
    try:
        parse_matrix("1,2;3,zz")
    except MatrixParseError as exc:
        assert exc.offset == 6
