"""Complex vector spaces with antilinear involution, and their equivariant maps.

A module here is a finite-dimensional space over Q(i, sqrt2) together with an
antilinear involution v -> inv * conj(v); validity means inv * conj(inv) = I.
Morphisms are complex-linear maps intertwining the involutions.  The tensor
product carries the entrywise Kronecker involution, the unit is the line with
inv = [[1]], and the braiding is the coordinate swap.  The fixed points of the
involution form a vector space over the real subfield Q(sqrt2) whose dimension
equals the complex dimension; `fixed_points` returns a basis of it as the
columns of one square matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompositionError, InvariantViolation
from .linalg import (
    Matrix,
    inverse,
    kernel_basis,
    kron,
    kron_swap,
    realify,
)
from .scalars import I, ONE, SQRT2, ZERO, Scalar


@dataclass(frozen=True, slots=True)
class RealModule:
    """dim-dimensional complex space with involution v -> inv * conj(v)."""

    dim: int
    inv: Matrix

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if self.inv.shape != (self.dim, self.dim):
            raise InvariantViolation(
                f"involution matrix must be {self.dim}x{self.dim}, got {self.inv.rows}x{self.inv.cols}")
        if not (self.inv @ self.inv.conj()).is_identity():
            raise InvariantViolation("involutivity: inv*conj(inv) != I")

    def involution(self, v: Matrix) -> Matrix:
        """Apply the antilinear involution to a column vector."""
        return self.inv @ v.conj()


@dataclass(frozen=True, slots=True)
class RealHom:
    """Complex-linear map intertwining the involutions of source and target."""

    source: RealModule
    target: RealModule
    mat: Matrix

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if self.mat.shape != (self.target.dim, self.source.dim):
            raise InvariantViolation(
                f"hom matrix must be {self.target.dim}x{self.source.dim}, got {self.mat.rows}x{self.mat.cols}")
        if not is_real_hom(self.source, self.target, self.mat):
            raise InvariantViolation("equivariance: mat*inv_src != inv_tgt*conj(mat)")


def is_real_hom(source: RealModule, target: RealModule, mat: Matrix) -> bool:
    """Does mat intertwine the involutions (mat*inv_s == inv_t*conj(mat))?"""
    if mat.shape != (target.dim, source.dim):
        return False
    return mat @ source.inv == target.inv @ mat.conj()


def tensor(m1: RealModule, m2: RealModule) -> RealModule:
    return RealModule(m1.dim * m2.dim, kron(m1.inv, m2.inv))


def tensor_hom(f: RealHom, g: RealHom) -> RealHom:
    return RealHom(tensor(f.source, g.source), tensor(f.target, g.target),
                   kron(f.mat, g.mat))


def braiding(m1: RealModule, m2: RealModule) -> RealHom:
    """The symmetry v (x) w -> w (x) v; an equivariant isomorphism."""
    return RealHom(tensor(m1, m2), tensor(m2, m1), kron_swap(m1.dim, m2.dim))


def compose(g: RealHom, f: RealHom) -> RealHom:
    """g after f; the intermediate objects must agree exactly."""
    if f.target != g.source:
        raise CompositionError("cannot compose: target of f differs from source of g")
    return RealHom(f.source, g.target, g.mat @ f.mat)


def fixed_points(m: RealModule) -> Matrix:
    """Basis over Q(sqrt2) of the involution-fixed vectors, as the columns of
    one dim x dim matrix: the solutions of inv*conj(v) = v.

    The defining equation is antilinear, so it is realified to a linear system
    over Q(sqrt2) in the (Re v, Im v) coordinates; the kernel (x; y) of that
    system is reassembled into the complex columns x + i*y.
    """
    n = m.dim
    k = kernel_basis(realify(-Matrix.identity(n), m.inv))
    return k.block(0, 0, n, k.cols) + I * k.block(n, 0, n, k.cols)


# -- seeded generators for property suites ----------------------------------------


def random_scalar(rng: random.Random, span: int = 9) -> Scalar:
    def rat():
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    return Scalar(rat(), rat(), rat(), rat())


def random_real_scalar(rng: random.Random) -> Scalar:
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 3) -> Matrix:
    return Matrix(rows, cols,
                  tuple(random_scalar(rng, span) for _ in range(rows * cols)))


def random_invertible(rng: random.Random, n: int, real: bool = False) -> Matrix:
    """Product of elementary shears, unit scalings, and swaps.

    Every factor is unimodular, so the determinant is a unit and the inverse
    stays in the same small ring; downstream exact arithmetic does not blow up
    the way inverting a dense random matrix would.
    """
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


def random_involution(rng: random.Random, dim: int) -> Matrix:
    """inv = P * D * conj(P)^-1 for random invertible P and diagonal signs D.

    Then inv*conj(inv) = P D conj(P)^-1 conj(P) D P^-1 = P D^2 P^-1 = I, so the
    result is always a valid involution matrix.
    """
    p = random_invertible(rng, dim)
    d = Matrix.diagonal([rng.choice((1, -1)) for _ in range(dim)])
    return p @ d @ inverse(p.conj())


def random_real_module(rng: random.Random, dim: int) -> RealModule:
    return RealModule(dim, random_involution(rng, dim))


def random_real_hom(rng: random.Random, source: RealModule, target: RealModule) -> RealHom:
    """Average a random matrix with its involution-transport to force equivariance."""
    a = random_matrix(rng, target.dim, source.dim)
    # p(a) = inv_t * conj(a) * conj(inv_s) is an involution on matrices whose
    # fixed points are exactly the equivariant maps.
    pa = target.inv @ a.conj() @ source.inv.conj()
    return RealHom(source, target, a + pa)
