"""Involutive modules: structure checks, tensor calculus, fixed points."""

import random

import pytest

from realmod.errors import CompositionError, InvariantViolation
from realmod.linalg import Matrix, kron, rank
from realmod.modules import (
    RealHom,
    RealModule,
    braiding,
    compose,
    fixed_points,
    is_real_hom,
    random_real_hom,
    random_real_module,
    tensor,
    tensor_hom,
)
from realmod.scalars import I, ONE, Scalar

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
