"""Real bilinear geometry and the hyperbolic splitting of a complexification.

A `RealVS` is a vector space over the real subfield Q(sqrt2), optionally with
a symmetric nondegenerate bilinear form g and an isometric complex structure
J (J^2 = -I, J^T g J = g).  Its complexification carries plain conjugation as
involution, and `fixed_points` recovers the original space on the nose.

When J is present, the complexification splits into the -i and +i eigenspaces
of J.  `hyperbolic_iso` realizes the splitting concretely: on real/imaginary
parts it is (v, v') -> (1/sqrt2) (v - J v', v + J v'), with inverse
(v-, v+) -> (1/sqrt2)(v- + v+) + (i/sqrt2)(J v- - J v+), and it intertwines
conjugation with the swap of the two summands.  Conjugating J through it gives
the block diagonal diag(-i*I, +i*I).

A sesquilinear form emerges on the +i summand.  Two independent computations
must agree exactly:

* formula route:     <v|w> = g(v, w) + i g(J v, w)
* functorial route:  embed both arguments through the inverse hyperbolic
  isomorphism and evaluate the complex-bilinear extension of g.

Both are exposed on the module's real standard basis (an n x n sesquilinear
form matrix, singular as a matrix since the real basis is not a complex basis)
and on a deterministic complex basis of (V, J) (an invertible gram, i.e. a
valid `HermitianSpace`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, SingularMatrixError
from .linalg import Matrix, hstack, inverse, solve, vstack
from .modules import RealHom, RealModule
from .scalars import I, INV_SQRT2, ONE, Scalar


@dataclass(frozen=True, slots=True)
class RealVS:
    """Real-subfield vector space, optional symmetric form g and complex structure J."""

    dim: int
    g: Matrix | None = None
    J: Matrix | None = None

    def check(self) -> None:
        if self.g is not None:
            if self.g.shape != (self.dim, self.dim):
                raise InvariantViolation("g has the wrong shape")
            if any(not x.is_real() for x in self.g.entries):
                raise InvariantViolation("g must have real entries")
            if self.g.transpose() != self.g:
                raise InvariantViolation("g must be symmetric")
            try:
                inverse(self.g)
            except SingularMatrixError:
                raise InvariantViolation("g must be nondegenerate") from None
        if self.J is not None:
            if self.J.shape != (self.dim, self.dim):
                raise InvariantViolation("J has the wrong shape")
            if any(not x.is_real() for x in self.J.entries):
                raise InvariantViolation("J must have real entries")
            if not (self.J @ self.J + Matrix.identity(self.dim)).is_zero():
                raise InvariantViolation("J^2 != -I")
            if self.g is not None and self.J.transpose() @ self.g @ self.J != self.g:
                raise InvariantViolation("J is not a g-isometry")


@dataclass(frozen=True, slots=True)
class HermitianSpace:
    """Complex space with an invertible conjugate-symmetric gram matrix."""

    dim: int
    gram: Matrix

    def check(self) -> None:
        if self.gram.shape != (self.dim, self.dim):
            raise InvariantViolation("gram has the wrong shape")
        if self.gram.conj_transpose() != self.gram:
            raise InvariantViolation("gram is not conjugate-symmetric")
        try:
            inverse(self.gram)
        except SingularMatrixError:
            raise InvariantViolation("gram is degenerate") from None

    def pair(self, v: Matrix, w: Matrix) -> Scalar:
        """<v|w>, antilinear in the first argument."""
        return (v.conj_transpose() @ self.gram @ w)[0, 0]


def complexify(space: RealVS) -> RealModule:
    """Scalars extended to Q(i, sqrt2); the involution is plain conjugation."""
    return RealModule(space.dim, Matrix.identity(space.dim))


def complex_basis(space: RealVS) -> list:
    """Deterministic complex basis of (V, J): greedy over the standard basis.

    Scans e_0, e_1, ... and keeps each vector that is not already in the real
    span of the chosen vectors and their J-images.
    """
    space.check()
    if space.J is None:
        raise ValueError("complex_basis requires a complex structure J")
    n = space.dim
    chosen: list[Matrix] = []
    span_cols: list[Matrix] = []
    for k in range(n):
        if 2 * len(chosen) == n:
            break
        e = Matrix.column([ONE if i == k else Scalar() for i in range(n)])
        if span_cols and solve(hstack(span_cols), e) is not None:
            continue
        chosen.append(e)
        span_cols.append(e)
        span_cols.append(space.J @ e)
    if 2 * len(chosen) != n:
        raise InvariantViolation("J does not halve the dimension")
    return chosen


def _hyperbolic_target(n: int) -> RealModule:
    half = n // 2
    swap = Matrix.from_rows(
        [[ONE if j == i + half else Scalar() for j in range(n)] for i in range(half)]
        + [[ONE if j == i - half else Scalar() for j in range(n)] for i in range(half, n)])
    return RealModule(n, swap)


@dataclass(frozen=True, slots=True)
class HyperbolicIso:
    """Mutually inverse equivariant isomorphisms between the complexification
    and the eigenspace sum, in eigen-coordinates (-i block first, then +i)."""

    forward: RealHom
    inverse: RealHom
    basis: tuple  # the complex basis of (V, J) fixing the eigen-coordinates


def hyperbolic_iso(space: RealVS) -> HyperbolicIso:
    """Split the complexification along the eigenspaces of J.

    The forward map sends v + i v' to ((v - J v')/sqrt2, (v + J v')/sqrt2) and
    intertwines conjugation with the swap involution; the inverse sends
    (v-, v+) to (v- + v+)/sqrt2 + i (J v- - J v+)/sqrt2.  Both composites are
    asserted to be the identity.
    """
    basis = complex_basis(space)
    n = space.dim
    half = n // 2
    J = space.J
    # coordinates on (V, J): columns b_0, J b_0, b_1, J b_1, ...
    frame = hstack([col for b in basis for col in (b, J @ b)])
    frame_inv = inverse(frame)
    # zeta_minus = alpha - i beta and zeta_plus = alpha + i beta rows
    minus_rows = []
    plus_rows = []
    for k in range(half):
        alpha = Matrix(1, n, frame_inv.row(2 * k))
        beta = Matrix(1, n, frame_inv.row(2 * k + 1))
        minus_rows.append(alpha - I * beta)
        plus_rows.append(alpha + I * beta)
    forward_mat = INV_SQRT2 * vstack(minus_rows + plus_rows)
    inv_cols = [INV_SQRT2 * (b + I * (J @ b)) for b in basis]
    inv_cols += [INV_SQRT2 * (b - I * (J @ b)) for b in basis]
    inverse_mat = hstack(inv_cols)
    if not (forward_mat @ inverse_mat).is_identity() or not (inverse_mat @ forward_mat).is_identity():
        raise InvariantViolation("hyperbolic splitting is not invertible")
    source = complexify(space)
    target = _hyperbolic_target(n)
    forward = RealHom(source, target, forward_mat)
    backward = RealHom(target, source, inverse_mat)
    forward.check()
    backward.check()
    return HyperbolicIso(forward, backward, tuple(basis))


def diagonalized_complex_structure(space: RealVS) -> Matrix:
    """Conjugate J through the splitting; must equal diag(-i*I, +i*I)."""
    hyper = hyperbolic_iso(space)
    n = space.dim
    half = n // 2
    d = hyper.forward.mat @ space.J @ hyper.inverse.mat
    expected = Matrix.diagonal([-I] * half + [I] * half)
    if d != expected:
        raise InvariantViolation("complex structure did not diagonalize to diag(-i, +i)")
    return d


def inner_to_hermitian_formula(space: RealVS) -> HermitianSpace:
    """Gram of <v|w> = g(v,w) + i g(Jv,w) on the deterministic complex basis."""
    space.check()
    if space.g is None or space.J is None:
        raise ValueError("needs both g and J")
    basis = complex_basis(space)
    form = space.g + I * (space.J.transpose() @ space.g)
    sel = hstack(basis)
    gram = sel.transpose() @ form @ sel
    result = HermitianSpace(len(basis), gram)
    result.check()
    return result


def inner_to_hermitian_functorial(space: RealVS) -> HermitianSpace:
    """Transport g through the hyperbolic splitting and restrict to the mixed
    summand; must equal the formula route exactly (asserted)."""
    space.check()
    if space.g is None or space.J is None:
        raise ValueError("needs both g and J")
    hyper = hyperbolic_iso(space)
    n = space.dim
    half = n // 2
    hinv = hyper.inverse.mat
    minus_cols = [hinv.column_matrix(k) for k in range(half)]
    plus_cols = [hinv.column_matrix(half + k) for k in range(half)]
    # complex-bilinear extension of g evaluated on the embedded eigenvectors
    gram = Matrix.from_rows(
        [[(mc.transpose() @ space.g @ pc)[0, 0] for pc in plus_cols] for mc in minus_cols])
    # the pairing must vanish on the like-signed summands
    for cols in (minus_cols, plus_cols):
        for u in cols:
            for w in cols:
                if (u.transpose() @ space.g @ w)[0, 0]:
                    raise InvariantViolation("pairing does not vanish on a like-signed summand")
    result = HermitianSpace(half, gram)
    result.check()
    if result != inner_to_hermitian_formula(space):
        raise InvariantViolation("functorial and formula routes disagree")
    return result


def hermitian_form_on_real_basis(space: RealVS, route: str = "formula") -> Matrix:
    """The n x n sesquilinear form matrix on the standard (real) basis of V.

    Singular as a matrix (rank n/2): the real basis is linearly dependent over
    the complex structure.  Routes:

    * ``formula``:    g + i J^T g
    * ``functorial``: embed e_k into the -i summand and e_l into the +i summand
      through the inverse splitting and evaluate bilinear g, i.e.
      (1/2) (I + i J)^T g (I - i J).
    """
    space.check()
    if space.g is None or space.J is None:
        raise ValueError("needs both g and J")
    if route == "formula":
        return space.g + I * (space.J.transpose() @ space.g)
    if route == "functorial":
        n = space.dim
        embed_minus = INV_SQRT2 * (Matrix.identity(n) + I * space.J)
        embed_plus = INV_SQRT2 * (Matrix.identity(n) - I * space.J)
        return embed_minus.transpose() @ space.g @ embed_plus
    raise ValueError(f"unknown route {route!r}")


# -- seeded generators ---------------------------------------------------------------


def standard_complex_structure(n: int) -> Matrix:
    """Block rotation pairing consecutive coordinates; requires n even."""
    if n % 2:
        raise ValueError("complex structures need even dimension")
    rows = []
    for i in range(n):
        row = [Scalar()] * n
        if i % 2 == 0:
            row[i + 1] = -ONE
        else:
            row[i - 1] = ONE
        rows.append(row)
    return Matrix.from_rows(rows)


def random_isometric_pair(rng: random.Random, n: int) -> RealVS:
    """Random (g, J) with g symmetric nondegenerate and J an isometric
    complex structure: J is a conjugated block rotation and g is the
    J-average of a random Gramian, redrawn while degenerate."""
    from .modules import random_invertible

    j0 = standard_complex_structure(n)
    while True:
        q = random_invertible(rng, n, real=True)
        J = q @ j0 @ inverse(q)
        a = random_invertible(rng, n, real=True)
        g0 = a.transpose() @ a
        g = (g0 + J.transpose() @ g0 @ J) * Scalar.of(Fraction(1, 2))
        space = RealVS(n, g, J)
        try:
            space.check()
        except InvariantViolation:
            continue
        return space


def random_real_vs(rng: random.Random, n: int) -> RealVS:
    """Random space with a symmetric nondegenerate g (no complex structure)."""
    from .modules import random_invertible

    a = random_invertible(rng, n, real=True)
    return RealVS(n, a.transpose() @ a, None)
