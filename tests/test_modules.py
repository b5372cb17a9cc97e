"""Involutive modules: structure checks, tensor calculus, fixed points."""

import random
from fractions import Fraction

import pytest

from realmod.errors import CompositionError, InvariantViolation
from realmod.linalg import Matrix, inverse, kron, rank
from realmod.modules import (
    RealHom,
    RealModule,
    braiding,
    compose,
    fixed_points,
    is_real_hom,
    random_invertible,
    random_involution,
    random_matrix,
    random_real_hom,
    random_real_module,
    random_real_scalar,
    random_scalar,
    tensor,
    tensor_hom,
)
from realmod.scalars import I, ONE, SQRT2, ZERO, Scalar

UNIT = RealModule(1, Matrix.identity(1))  # the monoidal unit: the line with plain conjugation


def swap2() -> RealModule:
    return RealModule(2, Matrix.from_rows([[0, 1], [1, 0]]))


def test_check_accepts_genuine_involutions():
    swap2().check()
    RealModule(1, Matrix.identity(1)).check()
    rng = random.Random(21)
    for _ in range(20):
        random_real_module(rng, rng.randrange(1, 5)).check()


def test_check_rejects_non_involutions():
    with pytest.raises(InvariantViolation):
        RealModule(2, Matrix.from_rows([[0, I], [-I, 0]])).check()  # squares to -1
    with pytest.raises(InvariantViolation):
        RealModule(2, Matrix.from_rows([[2, 0], [0, 1]])).check()
    with pytest.raises(InvariantViolation):
        RealModule(2, Matrix.identity(3)).check()


def test_hom_condition_is_equivariance():
    m = swap2()
    assert is_real_hom(m, m, Matrix.identity(2))
    assert is_real_hom(m, m, Matrix.from_rows([[0, 1], [1, 0]]))
    # multiplication by i anti-commutes with an antilinear involution
    assert not is_real_hom(m, m, I * Matrix.identity(2))
    # a matrix of the wrong shape is no map between the modules at all
    assert not is_real_hom(m, m, Matrix.identity(3))
    assert not is_real_hom(m, UNIT, Matrix.identity(2))
    with pytest.raises(InvariantViolation, match=r"^equivariance: mat\*inv_src != inv_tgt\*conj\(mat\)$"):
        RealHom(m, m, I * Matrix.identity(2))


def test_tensor_carries_the_involution():
    rng = random.Random(22)
    a = random_real_module(rng, 2)
    b = random_real_module(rng, 3)
    t = tensor(a, b)
    assert t.dim == 6
    assert t.inv == kron(a.inv, b.inv)
    t.check()
    assert tensor(a, UNIT).dim == a.dim


def test_tensor_of_homs_is_a_hom():
    rng = random.Random(23)
    a, b = random_real_module(rng, 2), random_real_module(rng, 2)
    c, d = random_real_module(rng, 3), random_real_module(rng, 2)
    f = random_real_hom(rng, a, b)
    g = random_real_hom(rng, c, d)
    fg = tensor_hom(f, g)
    fg.check()
    assert fg.mat == kron(f.mat, g.mat)


def test_braiding_squares_to_identity_and_is_equivariant():
    rng = random.Random(24)
    a = random_real_module(rng, 2)
    b = random_real_module(rng, 3)
    sw = braiding(a, b)
    sw.check()
    back = braiding(b, a)
    assert compose(back, sw).mat.is_identity()


def test_compose_checks_boundaries():
    rng = random.Random(25)
    a = random_real_module(rng, 2)
    b = random_real_module(rng, 3)
    f = random_real_hom(rng, a, b)
    with pytest.raises(CompositionError):
        compose(f, f)
    assert compose(f, RealHom(a, a, Matrix.identity(a.dim))).mat == f.mat


def test_fixed_points_have_real_dimension_of_the_module():
    rng = random.Random(26)
    for _ in range(15):
        m = random_real_module(rng, rng.randrange(1, 5))
        fp = fixed_points(m)
        assert fp.shape == (m.dim, m.dim)
        assert m.inv @ fp.conj() == fp
        assert rank(fp) == m.dim


def test_fixed_points_of_the_swap_pair():
    fp = fixed_points(swap2())
    assert fp.shape == (2, 2)
    # fixed vectors of the swap: (z, conj z); the line through (1,1) and
    # the line through (i,-i), the latter up to an overall sign
    spans = [fp.col(j) for j in range(2)]
    assert (ONE, ONE) in spans
    up = (Scalar(0, 0, 1), Scalar(0, 0, -1))
    down = (Scalar(0, 0, -1), Scalar(0, 0, 1))
    assert up in spans or down in spans


def test_seeded_generators_are_reproducible():
    a = random_real_module(random.Random(99), 3)
    b = random_real_module(random.Random(99), 3)
    assert a.inv == b.inv


# -- the seeded generators against their Scalar-built references ------------------
#
# Each reference builds its value through Fraction, Scalar and Scalar arithmetic,
# as the generators once did.  A generator must make the same draws in the same
# order: the same value, and the generator state left the same.


def _random_scalar(rng, span=9):
    def rat():
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    return Scalar(rat(), rat(), rat(), rat())


def _random_real_scalar(rng):
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def _random_matrix(rng, rows, cols, span=3):
    return Matrix(rows, cols, tuple(_random_scalar(rng, span) for _ in range(rows * cols)))


def _random_invertible(rng, n, real=False):
    if n == 0:
        return Matrix.identity(0)
    units = (ONE, -ONE) if real else (ONE, -ONE, I, -I)
    isqrt2 = I * SQRT2
    offs = (ONE, -ONE, SQRT2, -SQRT2) if real else \
        (ONE, -ONE, SQRT2, -SQRT2, I, -I, isqrt2, -isqrt2)
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        op = rng.randrange(3)
        if op == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            s = rng.choice(offs)
            rows[i] = [rows[i][k] + s * rows[j][k] for k in range(n)]
        elif op == 1:
            i = rng.randrange(n)
            u = rng.choice(units)
            rows[i] = [u * x for x in rows[i]]
        elif n >= 2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
    return Matrix.from_rows(rows)


def _random_involution(rng, dim):
    p = _random_invertible(rng, dim)
    d = Matrix.diagonal([rng.choice((1, -1)) for _ in range(dim)])
    return p @ d @ inverse(p.conj())


SEEDS = range(2000)


def assert_same_draws(generator, reference, args):
    """`generator` and `reference` give equal values and leave equal states, at
    every seed; `args(seed)` gives the arguments after the generator."""
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        got, expected = generator(rng, *args(seed)), reference(ref, *args(seed))
        assert got == expected and type(got) is type(expected), (seed, args(seed))
        assert rng.getstate() == ref.getstate(), (seed, args(seed))


@pytest.mark.parametrize("span", [1, 3, 9])
def test_random_scalar_matches_its_reference(span):
    assert_same_draws(random_scalar, _random_scalar, lambda seed: (span,))


def test_random_real_scalar_matches_its_reference():
    assert_same_draws(random_real_scalar, _random_real_scalar, lambda seed: ())


@pytest.mark.parametrize("span", [1, 3, 9])
def test_random_matrix_matches_its_reference(span):
    # every shape from 0x0 to 4x4, zero rows and columns included
    assert_same_draws(random_matrix, _random_matrix, lambda seed: (seed % 5, seed // 5 % 5, span))


@pytest.mark.parametrize("real", [False, True])
def test_random_invertible_matches_its_reference(real):
    assert_same_draws(random_invertible, _random_invertible, lambda seed: (seed % 7, real))


def test_random_involution_matches_its_reference():
    assert_same_draws(random_involution, _random_involution, lambda seed: (seed % 5,))
