"""Self-dual involutive modules: Hermitian forms and the emergent adjoint.

A `SelfDualRealModule` is a module H with an equivariant pairing H (x) H -> 1
and coevaluation 1 -> H (x) H satisfying the snake identities, a symmetric
pairing, and an equivariant complex structure icplx (icplx^2 = -I) that is an
isometry of the pairing.  The involution swaps the +-i eigenspaces of icplx;
the +i eigenspace is the underlying Hilbert space.  `split_eigenspaces` is the
one engine that splits a complex structure; `equivalence` splits (V, g, J)
through it too.

Restricting the pairing to (-i) (x) (+i) and pulling back along the involution
witness yields an invertible conjugate-symmetric gram: `extract_hermitian`.
`make_selfdual` builds the standard model back from any Hermitian space, with
the conjugate copy first, the Hilbert space second.

Dualizing a forward map through coevaluation and pairing,

    (id (x) pairing) o (id (x) G (x) id) o (coev (x) id),

produces the Hermitian adjoint: `dagger`.  It is computed by that composite
(contracted as coevmat . G^T . pairmat, which is the same linear map) and
always agrees with the gram-side oracle gram1^-1 . conj_transpose(g) . gram2.
Isometry of a map can be read off either as pairing-preservation of its
internalization or as dagger(g) g = id; both routes are computed and compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InvariantViolation, ShapeError, SingularMatrixError
from .linalg import (
    Matrix,
    block_diag,
    hstack,
    inertia,
    inverse,
    kernel_basis,
    kron,
    unvec,
    vec,
    vstack,
)
from .modules import RealModule, RealHom, is_real_hom, random_invertible
from .scalars import I, INV_SQRT2, ONE, Scalar


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


def swap_blocks(upper: Matrix, lower: Matrix) -> Matrix:
    """[[0, upper], [lower, 0]]; swap_blocks(I, I) is the swap involution."""
    return vstack([hstack([Matrix.zero(upper.rows, lower.cols), upper]),
                   hstack([lower, Matrix.zero(lower.rows, upper.cols)])])


@dataclass(frozen=True, slots=True, eq=False)
class SelfDualRealModule:
    """Module with compatible self-duality and internal complex structure."""

    H: RealModule
    pairing: Matrix  # 1 x dim^2
    coev: Matrix     # dim^2 x 1
    icplx: Matrix    # dim x dim
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, SelfDualRealModule):
            return NotImplemented
        return (self.H, self.pairing, self.coev, self.icplx) == \
            (other.H, other.pairing, other.coev, other.icplx)

    def __hash__(self):
        return hash((self.H, self.pairing, self.coev, self.icplx))

    def pair_mat(self) -> Matrix:
        """pairing reshaped to dim x dim: pairing(u (x) w) = u^T pair_mat w."""
        return unvec(self.pairing.transpose(), self.H.dim, self.H.dim)

    def coev_mat(self) -> Matrix:
        """coev reshaped to dim x dim."""
        return unvec(self.coev, self.H.dim, self.H.dim)

    def check(self) -> None:
        d = self.H.dim
        self.H.check()
        if self.pairing.shape != (1, d * d):
            raise InvariantViolation("pairing must be a 1 x dim^2 row")
        if self.coev.shape != (d * d, 1):
            raise InvariantViolation("coev must be a dim^2 x 1 column")
        if self.icplx.shape != (d, d):
            raise InvariantViolation("icplx must be dim x dim")
        p = self.pair_mat()
        c = self.coev_mat()
        inv = self.H.inv
        # equivariance of the duality data
        if inv.transpose() @ p @ inv != p.conj():
            raise InvariantViolation("pairing is not equivariant")
        if inv @ c.conj() @ inv.transpose() != c:
            raise InvariantViolation("coev is not equivariant")
        # snake identities
        if not (c @ p).is_identity() or not (p @ c).is_identity():
            raise InvariantViolation("snake identities fail")
        # symmetry under the braiding
        if p.transpose() != p:
            raise InvariantViolation("pairing is not symmetric")
        # internal complex structure
        if not is_real_hom(self.H, self.H, self.icplx):
            raise InvariantViolation("icplx is not equivariant")
        if not (self.icplx @ self.icplx + Matrix.identity(d)).is_zero():
            raise InvariantViolation("icplx^2 != -I")
        if self.icplx.transpose() @ p @ self.icplx != p:
            raise InvariantViolation("icplx is not a pairing isometry")


@dataclass(frozen=True, slots=True)
class EigenSplit:
    """Eigenspace bases of icplx, the involution's swap witnesses, the gram.

    `minus` / `plus` hold basis columns of ker(icplx + iI) / ker(icplx - iI)
    and `frame` is the two side by side.  `witness` expresses the involution
    image of each +i basis vector in the -i basis and `rev_witness` the image
    of each -i basis vector in the +i basis; applying the involution twice is
    the identity, so rev_witness . conj(witness) = I.  `gram` is the extracted
    Hermitian form on the +i basis.
    """

    half: int
    minus: Matrix        # dim x half
    plus: Matrix         # dim x half
    witness: Matrix      # half x half
    rev_witness: Matrix  # half x half
    frame: Matrix        # dim x dim
    frame_inv: Matrix
    gram: Matrix         # half x half
    gram_inv: Matrix


def split_eigenspaces(s: SelfDualRealModule) -> EigenSplit:
    """The eigen split of s, checked once and memoized on the structure."""
    if "eigen" in s._memo:
        return s._memo["eigen"]
    s.check()
    d = s.H.dim
    ident = Matrix.identity(d)
    minus_vecs = kernel_basis(s.icplx + I * ident)
    plus_vecs = kernel_basis(s.icplx - I * ident)
    if 2 * len(minus_vecs) != d or 2 * len(plus_vecs) != d:
        raise InvariantViolation("icplx eigenspaces do not halve the dimension")
    minus = hstack(minus_vecs)
    plus = hstack(plus_vecs)
    frame = hstack([minus, plus])
    frame_inv = inverse(frame)
    half = d // 2
    # involution images of the frame, in frame coordinates: the +i basis goes
    # to the -i span (witness), the -i basis to the +i span (rev_witness)
    coords = frame_inv @ s.H.inv @ frame.conj()
    witness = Matrix.from_rows([coords.row(i)[half:] for i in range(half)])
    rev_witness = Matrix.from_rows([coords.row(i)[:half] for i in range(half, d)])
    if coords != swap_blocks(witness, rev_witness):
        raise InvariantViolation("involution does not swap the icplx eigenspaces")
    if rev_witness @ witness.conj() != Matrix.identity(half):
        raise InvariantViolation("involution witness does not square to the identity")
    p = s.pair_mat()
    gram = witness.transpose() @ (minus.transpose() @ p @ plus)
    if (plus.transpose() @ p @ plus) != Matrix.zero(half, half):
        raise InvariantViolation("pairing does not vanish on (+i) (x) (+i)")
    if (minus.transpose() @ p @ minus) != Matrix.zero(half, half):
        raise InvariantViolation("pairing does not vanish on (-i) (x) (-i)")
    if gram.conj_transpose() != gram:
        raise InvariantViolation("extracted gram is not conjugate-symmetric")
    try:
        gram_inv = inverse(gram)
    except SingularMatrixError:
        raise InvariantViolation("pairing restricts degenerately to the eigenspaces") from None
    data = EigenSplit(half, minus, plus, witness, rev_witness, frame, frame_inv, gram, gram_inv)
    s._memo["eigen"] = data
    return data


def extract_hermitian(s: SelfDualRealModule) -> HermitianSpace:
    """Gram of <psi|phi> = pairing(involution(psi) (x) phi) on the +i basis."""
    data = split_eigenspaces(s)
    result = HermitianSpace(data.half, data.gram)
    result.check()
    return result


def make_selfdual(h: HermitianSpace) -> SelfDualRealModule:
    """Standard model: conjugate copy (+) Hilbert space with the swap involution.

    Blocks are ordered (-i summand, +i summand); the pairing carries the gram
    on the mixed blocks symmetrically and the coevaluation is its inverse,
    built from the gram-dual basis in both orders.
    """
    h.check()
    n = h.dim
    ident = Matrix.identity(n)
    module = RealModule(2 * n, swap_blocks(ident, ident))
    icplx = block_diag([Matrix.diagonal([-I] * n), Matrix.diagonal([I] * n)]) if n else Matrix.zero(0, 0)
    pair_mat = swap_blocks(h.gram, h.gram.transpose())
    gram_dual = h.gram.inverse().conj()
    coev_mat = swap_blocks(gram_dual, gram_dual.transpose())
    s = SelfDualRealModule(module, vec(pair_mat).transpose(), vec(coev_mat), icplx)
    s.check()
    return s


def conjugate_selfdual(s: SelfDualRealModule, t: Matrix) -> SelfDualRealModule:
    """Transport the whole structure through an invertible change of frame t."""
    if t.shape != (s.H.dim, s.H.dim):
        raise ShapeError("frame change has the wrong shape")
    t_inv = inverse(t)
    module = RealModule(s.H.dim, t @ s.H.inv @ inverse(t.conj()))
    pair_mat = t_inv.transpose() @ s.pair_mat() @ t_inv
    coev_mat = t @ s.coev_mat() @ t.transpose()
    icplx = t @ s.icplx @ t_inv
    out = SelfDualRealModule(module, vec(pair_mat).transpose(), vec(coev_mat), icplx)
    out.check()
    return out


def _internalize_raw(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> RealHom:
    d1 = split_eigenspaces(s1)
    d2 = split_eigenspaces(s2)
    if g.shape != (d2.half, d1.half):
        raise ShapeError(f"map must be {d2.half}x{d1.half}, got {g.rows}x{g.cols}")
    # the -i block is forced by equivariance: bras transport to bras
    gm = d2.witness @ g.conj() @ d1.rev_witness.conj()
    mat = d2.frame @ block_diag([gm, g]) @ d1.frame_inv
    return RealHom(s1.H, s2.H, mat)


def externalize_map(big: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> Matrix:
    """Read off the +i block of an equivariant icplx-commuting map."""
    d1 = split_eigenspaces(s1)
    d2 = split_eigenspaces(s2)
    if big.shape != (s2.H.dim, s1.H.dim):
        raise ShapeError("ambient map has the wrong shape")
    if not is_real_hom(s1.H, s2.H, big):
        raise InvariantViolation("map is not equivariant")
    if big @ s1.icplx != s2.icplx @ big:
        raise InvariantViolation("map does not commute with icplx")
    coords = d2.frame_inv @ big @ d1.frame
    h1, h2 = d1.half, d2.half
    plus_block = Matrix.from_rows([coords.row(i)[h1:] for i in range(h2, 2 * h2)])
    off_block = Matrix.from_rows([coords.row(i)[:h1] for i in range(h2, 2 * h2)])
    if not off_block.is_zero():
        raise InvariantViolation("map mixes the icplx eigenspaces")
    return plus_block


def internalize_map(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> RealHom:
    """The unique equivariant icplx-commuting map whose +i block is g.

    The -i block carries the adjoint action on bras; the dagger law
    <phi | dagger(g) psi> = <g phi | psi> is asserted through the grams.
    """
    hom = _internalize_raw(g, s1, s2)
    hom.check()
    if hom.mat @ s1.icplx != s2.icplx @ hom.mat:
        raise InvariantViolation("internalized map does not commute with icplx")
    if externalize_map(hom.mat, s1, s2) != g:
        raise InvariantViolation("internalize/externalize failed to invert")
    dag = _dagger_from_hom(hom.mat, g, s1, s2)
    if split_eigenspaces(s1).gram @ dag != g.conj_transpose() @ split_eigenspaces(s2).gram:
        raise InvariantViolation("adjoint law fails")
    return hom


def adjoint_oracle(g: Matrix, h1: HermitianSpace, h2: HermitianSpace) -> Matrix:
    """Reference adjoint from the gram side: gram1^-1 g^dagger gram2.

    For the identity gram this is the conjugate transpose.
    """
    if g.shape != (h2.dim, h1.dim):
        raise ShapeError("map/space shape mismatch")
    return inverse(h1.gram) @ g.conj_transpose() @ h2.gram


def _dagger_from_hom(hom_mat: Matrix, g: Matrix,
                     s1: SelfDualRealModule, s2: SelfDualRealModule) -> Matrix:
    ambient = s1.coev_mat() @ hom_mat.transpose() @ s2.pair_mat()
    out = externalize_map(ambient, s2, s1)
    if split_eigenspaces(s1).gram @ out != g.conj_transpose() @ split_eigenspaces(s2).gram:
        raise InvariantViolation("dagger violates the adjoint law")
    return out


def dagger(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> Matrix:
    """Adjoint of g: H1 -> H2 via dualization, as a map H2 -> H1.

    Computed by bending the internalized map through coevaluation on the source
    and the pairing on the target; the Kronecker composite contracts to
    coev_mat1 . G^T . pair_mat2 acting on ambient coordinates.  The result is
    asserted to satisfy gram1 . dagger(g) = conj_transpose(g) . gram2.
    """
    hom = _internalize_raw(g, s1, s2)
    return _dagger_from_hom(hom.mat, g, s1, s2)


def dagger_composite_dense(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> Matrix:
    """The same dualization composite with the Kronecker factors materialized.

    Exponentially sized in ambient dimension; used to cross-check `dagger` on
    small modules.
    """
    hom = _internalize_raw(g, s1, s2)
    n1, n2 = s1.H.dim, s2.H.dim
    id1 = Matrix.identity(n1)
    id2 = Matrix.identity(n2)
    composite = (kron(id1, s2.pairing)
                 @ kron(id1, kron(hom.mat, id2))
                 @ kron(s1.coev, id2))
    return externalize_map(composite, s2, s1)


def is_internal_isometry(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> bool:
    """Pairing preservation of the internalization == dagger(g) g = id.

    Both are computed; they must agree.
    """
    hom = _internalize_raw(g, s1, s2)
    route_pairing = (hom.mat.transpose() @ s2.pair_mat() @ hom.mat) == s1.pair_mat()
    route_dagger = (_dagger_from_hom(hom.mat, g, s1, s2) @ g).is_identity()
    if route_pairing != route_dagger:
        raise InvariantViolation("isometry routes disagree")
    return route_pairing


def is_unitary(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> bool:
    """Invertible isometry; for square g, isometry already forces invertibility."""
    if not is_internal_isometry(g, s1, s2):
        return False
    if g.rows != g.cols:
        return False
    try:
        inverse(g)
    except SingularMatrixError:
        return False
    return True


def is_positive_definite(h: HermitianSpace) -> bool:
    """Every eigenvalue of the gram positive (exact inertia)."""
    h.check()
    return inertia(h.gram)[0] == h.dim


# -- standard gates and seeded generators -----------------------------------------


def hadamard() -> Matrix:
    return Matrix.from_rows([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]])


def phase_gate() -> Matrix:
    return Matrix.diagonal([ONE, I])


def standard_selfdual(n: int) -> SelfDualRealModule:
    return make_selfdual(HermitianSpace(n, Matrix.identity(n)))


def random_hermitian_space(rng: random.Random, n: int) -> HermitianSpace:
    """t^dagger D t for invertible t and diagonal signs D: conjugate-symmetric,
    invertible, with varied signature."""
    t = random_invertible(rng, n)
    d = Matrix.diagonal([rng.choice((1, -1)) for _ in range(n)])
    return HermitianSpace(n, t.conj_transpose() @ d @ t)


def random_selfdual(rng: random.Random, n: int) -> SelfDualRealModule:
    base = make_selfdual(random_hermitian_space(rng, n))
    t = random_invertible(rng, 2 * n)
    return conjugate_selfdual(base, t)


def random_unitary_word(rng: random.Random, n: int, length: int = 4) -> Matrix:
    """Word in exact unitaries for the identity gram: permutations, diagonal
    powers of i, and a Hadamard block on the first two coordinates."""
    out = Matrix.identity(n)
    for _ in range(length):
        kind = rng.randrange(3 if n >= 2 else 2)
        if kind == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            mat = Matrix.from_rows(
                [[ONE if j == perm[i] else Scalar() for j in range(n)] for i in range(n)])
        elif kind == 1:
            mat = Matrix.diagonal([I ** rng.randrange(4) for _ in range(n)])
        else:
            mat = block_diag([hadamard(), Matrix.identity(n - 2)])
        out = mat @ out
    return out
