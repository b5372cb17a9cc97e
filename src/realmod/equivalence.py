"""Real bilinear geometry, and its complexification as a self-dual module.

A `RealVS` is a vector space over the real subfield Q(sqrt2), optionally with
a symmetric nondegenerate bilinear form g and an isometric complex structure
J (J^2 = -I, J^T g J = g).  Its complexification carries plain conjugation as
involution, and `fixed_points` recovers the original space on the nose.

With g and J the complexification is a self-dual module: conjugation as
involution, g as pairing, g^-1 as coevaluation and J as internal complex
structure (without g, the J-invariant form I + J^T J stands in).  `RealVS.check`
already tests each of that module's laws, so no module is built: every
eigenvector of J used here comes from the self-dual engine `hermitian._split`
applied to (conjugation, J, g) directly, and nothing inverts g.
`hyperbolic_iso` views the split as mutually inverse equivariant maps between
the complexification and the -i (+) +i eigenspace sum, where conjugation
becomes the swap of the summands and J becomes diag(-i*I, +i*I); both hold
by construction (`hermitian.EigenSplit`), so neither is tested here.

A sesquilinear form emerges on the +i summand.  Two independent computations
must agree exactly:

* formula route:     <v|w> = g(v, w) + i g(J v, w)
* functorial route:  the Hermitian form the self-dual module extracts, read
  on the +i coordinates of real vectors.

Both are exposed on the module's real standard basis (an n x n sesquilinear
form matrix, singular as a matrix since the real basis is not a complex basis)
and on a deterministic complex basis of (V, J) (an invertible gram, i.e. a
valid `HermitianSpace`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .hermitian import EigenSplit, HermitianSpace, _split, swap_blocks
from .linalg import Matrix, block_diag, inverse, kron, place, rank, rref
from .modules import RealHom, RealModule, random_invertible
from .scalars import I, INV_SQRT2, ONE, ZERO, Scalar


@dataclass(frozen=True, slots=True)
class RealVS:
    """Real-subfield vector space, optional symmetric form g and complex structure J."""

    dim: int
    g: Matrix | None = None
    J: Matrix | None = None

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if self.g is not None:
            if self.g.shape != (self.dim, self.dim):
                raise InvariantViolation("g has the wrong shape")
            if not self.g.imag_part().is_zero():
                raise InvariantViolation("g must have real entries")
            if self.g.transpose() != self.g:
                raise InvariantViolation("g must be symmetric")
            if rank(self.g) != self.dim:
                raise InvariantViolation("g must be nondegenerate")
        if self.J is not None:
            if self.J.shape != (self.dim, self.dim):
                raise InvariantViolation("J has the wrong shape")
            if not self.J.imag_part().is_zero():
                raise InvariantViolation("J must have real entries")
            if not (self.J @ self.J + Matrix.identity(self.dim)).is_zero():
                raise InvariantViolation("J^2 != -I")
            if self.g is not None and self.J.transpose() @ self.g @ self.J != self.g:
                raise InvariantViolation("J is not a g-isometry")


def complexify(space: RealVS) -> RealModule:
    """Scalars extended to Q(i, sqrt2); the involution is plain conjugation."""
    return RealModule(space.dim, Matrix.identity(space.dim))


def _require_g_and_j(space: RealVS) -> None:
    if space.g is None or space.J is None:
        raise ValueError("needs both g and J")


def _require_j(space: RealVS) -> Matrix:
    if space.J is None:
        raise ValueError("needs a complex structure J")
    return space.J


def _complex_basis(space: RealVS) -> Matrix:
    """Deterministic complex basis of (V, J), as the columns of one matrix.

    Greedy over the standard basis: keeps each e_k outside the span of the
    kept vectors and their J-images, which is the J-invariant span of e_j, Je_j
    for j < k, so the kept e_k are the pivots of [e_0 | Je_0 | e_1 | ...].
    """
    n = space.dim
    pairs = kron(Matrix.identity(n), Matrix.from_rows([[1, 0]])) + kron(space.J, Matrix.from_rows([[0, 1]]))
    chosen = [p // 2 for p in rref(pairs)[1] if p % 2 == 0]
    # n/2 are kept: were Je_k = w + c e_k, w in the span left of e_k, then
    # -(1 + c^2) e_k = Jw + cw lies in it, so e_k is a pivot exactly when Je_k is
    return place(n, len(chosen), [(k, j, Matrix.identity(1)) for j, k in enumerate(chosen)])


def _formula_gram(space: RealVS, sel: Matrix) -> Matrix:
    """Gram of <v|w> = g(v,w) + i g(Jv,w) on the columns of sel."""
    form = space.g + I * (space.J.transpose() @ space.g)
    return sel.transpose() @ form @ sel


def _complex_split(space: RealVS) -> EigenSplit:
    """Split of the complexified (V, g, J) by the self-dual engine."""
    J = _require_j(space)
    # With conjugation as involution, a matrix is equivariant iff it is real,
    # so `RealVS.check` has tested each law `SelfDualRealModule.check` would:
    # g real <=> pairing equivariant, J real <=> icplx equivariant, g^T = g
    # <=> pairing symmetric, J^2 = -I, and J^T g J = g <=> icplx a pairing
    # isometry.  The split needs no coevaluation, so g is not inverted; its
    # rank verdict makes the extracted gram nondegenerate.  Without g,
    # G = I + J^T J stands in: real, symmetric, x^T G x = |x|^2 + |Jx|^2 > 0
    # for real x != 0, so positive definite, and J-invariant, as
    # J^T G J = J^T J + (J^2)^T J^2 = J^T J + I.
    g = space.g if space.g is not None else Matrix.identity(space.dim) + J.transpose() @ J
    return _split(Matrix.identity(space.dim), J, g)


@dataclass(frozen=True, slots=True)
class HyperbolicIso:
    """Mutually inverse equivariant isomorphisms between the complexification
    and the eigenspace sum, in eigen-coordinates (-i block first, then +i)."""

    forward: RealHom
    inverse: RealHom


def hyperbolic_iso(space: RealVS) -> HyperbolicIso:
    """Split the complexification along the eigenspaces of J.

    A view over the self-dual split: the inverse is the split's frame, which
    sends +i coordinates to the +i basis and -i coordinates to its
    conjugates, so conjugation becomes the swap of the two summands.  The
    split sets frame_inv = inverse(frame), so the two maps are mutually
    inverse.
    """
    data = _complex_split(space)
    ident = Matrix.identity(data.space.dim)
    source = complexify(space)
    target = RealModule(space.dim, swap_blocks(ident, ident))
    return HyperbolicIso(RealHom(source, target, data.frame_inv), RealHom(target, source, data.frame))


def diagonalized_complex_structure(space: RealVS) -> Matrix:
    """J in the split's eigen-coordinates, diag(-i*I, +i*I) (`hermitian.EigenSplit`)."""
    data = _complex_split(space)
    return data.frame_inv @ space.J @ data.frame


def inner_to_hermitian_formula(space: RealVS) -> HermitianSpace:
    """Gram of <v|w> = g(v,w) + i g(Jv,w) on the deterministic complex basis."""
    _require_g_and_j(space)
    sel = _complex_basis(space)
    return HermitianSpace(sel.cols, _formula_gram(space, sel))


def inner_to_hermitian_functorial(space: RealVS) -> HermitianSpace:
    """The gram the self-dual complexification extracts, on the complex basis.

    T holds twice the +i coordinates of b_k, read off the +i rows of the
    split's inverse frame, and the gram is (1/2) T^dagger G T for the
    extracted gram G.  The formula route, on the same basis, must agree
    (asserted).
    """
    _require_g_and_j(space)
    data = _complex_split(space)
    n, half = space.dim, data.space.dim
    sel = _complex_basis(space)
    t = Scalar(2) * (data.frame_inv.block(half, 0, half, n) @ sel)
    result = HermitianSpace(half, Fraction(1, 2) * (t.conj_transpose() @ data.space.gram @ t))
    if result.gram != _formula_gram(space, sel):
        raise InvariantViolation("functorial and formula routes disagree")
    return result


def hermitian_form_on_real_basis(space: RealVS) -> Matrix:
    """The n x n sesquilinear form matrix on the standard (real) basis of V.

    Singular as a matrix (rank n/2): the real basis is linearly dependent over
    the complex structure.  Two routes are computed and must agree (asserted):

    * formula:    g + i J^T g
    * functorial: embed e_k into the -i summand and e_l into the +i summand
      through the inverse splitting and evaluate bilinear g, i.e.
      (1/2) (I + i J)^T g (I - i J).
    """
    _require_g_and_j(space)
    n = space.dim
    formula = space.g + I * (space.J.transpose() @ space.g)
    embed_minus = INV_SQRT2 * (Matrix.identity(n) + I * space.J)
    embed_plus = INV_SQRT2 * (Matrix.identity(n) - I * space.J)
    if embed_minus.transpose() @ space.g @ embed_plus != formula:
        raise InvariantViolation("real-basis routes disagree")
    return formula


# -- seeded generators ---------------------------------------------------------------


def standard_complex_structure(n: int) -> Matrix:
    """Block rotation pairing consecutive coordinates; requires n even."""
    if n % 2:
        raise ValueError("complex structures need even dimension")
    return block_diag([Matrix.from_rows([[ZERO, -ONE], [ONE, ZERO]])] * (n // 2))


def random_isometric_pair(rng: random.Random, n: int) -> RealVS:
    """Random (g, J) with g symmetric nondegenerate and J an isometric
    complex structure: J is a conjugated block rotation and g is the
    J-average of a random Gramian."""
    q = random_invertible(rng, n, real=True)
    J = q @ standard_complex_structure(n) @ inverse(q)
    a = random_invertible(rng, n, real=True)
    g0 = a.transpose() @ a
    # a is real and invertible, so g0 is positive definite, and so is g: it is
    # nondegenerate, and RealVS's check passes
    return RealVS(n, (g0 + J.transpose() @ g0 @ J) * Scalar(Fraction(1, 2)), J)


def random_real_vs(rng: random.Random, n: int) -> RealVS:
    """Random space with a symmetric nondegenerate g (no complex structure)."""
    a = random_invertible(rng, n, real=True)
    return RealVS(n, a.transpose() @ a, None)
