"""Self-dual involutive modules: Hermitian forms and the emergent adjoint.

A `SelfDualRealModule` is a module H with an equivariant pairing H (x) H -> 1
and coevaluation 1 -> H (x) H satisfying the snake identities, a symmetric
pairing, and an equivariant complex structure icplx (icplx^2 = -I) that is an
isometry of the pairing.  Pairing and coevaluation are both kept as dim x dim
matrices: pairing(u (x) w) = u^T pairing w and coev = sum_jk coev[j,k] e_j (x) e_k.
The involution swaps the +-i eigenspaces of icplx; the +i eigenspace is the
underlying Hilbert space.  `_split` is the one engine that splits a complex
structure: `split_eigenspaces` memoizes it on a structure, and `equivalence`
splits (V, g, J) through it directly, since (V, g, J) satisfies the same laws.

The split takes one kernel, the +i basis, and its involution image as the -i
basis; in its frame each law of a map is one block condition (see
`EigenSplit`), and `density` reads each law of a state through the same
converters, bending the state's square through the pairing first.
Restricting the pairing to (-i) (x) (+i) on these partner bases yields a
Hermitian space, kept by the split: `extract_hermitian`.
`make_selfdual` builds the standard model back from any Hermitian space, with
the conjugate copy first, the Hilbert space second.

Dualizing a forward map through coevaluation and pairing,

    (id (x) pairing) o (id (x) G (x) id) o (coev (x) id),

produces the Hermitian adjoint: `dagger`.  It is computed by that composite
(contracted as coev . G^T . pairing, which is the same linear map) and
always agrees with the gram-side oracle gram1^-1 . conj_transpose(g) . gram2.
Isometry of a map can be read off either as pairing-preservation of its
internalization or as dagger(g) g = id; `is_internal_isometry` computes both
routes and compares them.  `_adjoint` and `is_internal_isometry` are the one
place each of these steps is written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InvariantViolation, ShapeError, SingularMatrixError
from .linalg import (
    Matrix,
    block_diag,
    hstack,
    inverse,
    kernel_basis,
    kron,
    place,
    vec,
)
from .modules import RealModule, RealHom, is_real_hom, random_invertible
from .scalars import I, INV_SQRT2, ONE, Scalar


@dataclass(frozen=True, slots=True)
class HermitianSpace:
    """Complex space with an invertible conjugate-symmetric gram; `check` keeps its inverse."""

    dim: int
    gram: Matrix
    gram_inv: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if self.gram.shape != (self.dim, self.dim):
            raise InvariantViolation("gram has the wrong shape")
        if self.gram.conj_transpose() != self.gram:
            raise InvariantViolation("gram is not conjugate-symmetric")
        try:
            object.__setattr__(self, "gram_inv", inverse(self.gram))
        except SingularMatrixError:
            raise InvariantViolation("gram is degenerate") from None

    def is_self_adjoint(self, op: Matrix) -> bool:
        """Is op a dim x dim operator with gram . op Hermitian?  The law of a state."""
        if op.shape != (self.dim, self.dim):
            return False
        form = self.gram @ op
        return form.conj_transpose() == form

    def pair(self, v: Matrix, w: Matrix) -> Scalar:
        """<v|w>, antilinear in the first argument."""
        return (v.conj_transpose() @ self.gram @ w)[0, 0]


def swap_blocks(upper: Matrix, lower: Matrix) -> Matrix:
    """[[0, upper], [lower, 0]]; swap_blocks(I, I) is the swap involution."""
    return place(upper.rows + lower.rows, lower.cols + upper.cols,
                 [(0, lower.cols, upper), (upper.rows, 0, lower)])


@dataclass(frozen=True, slots=True)
class SelfDualRealModule:
    """Module with compatible self-duality and internal complex structure."""

    H: RealModule
    pairing: Matrix  # dim x dim: pairing(u (x) w) = u^T pairing w
    coev: Matrix     # dim x dim: coev = sum_jk coev[j,k] e_j (x) e_k
    icplx: Matrix    # dim x dim
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        d = self.H.dim
        for name in ("pairing", "coev", "icplx"):
            if getattr(self, name).shape != (d, d):
                raise InvariantViolation(f"{name} must be dim x dim")
        # Each law is tested once; these tests imply the rest:
        # - c . p = I makes c = p^-1, so p . c = I too, and inverting the
        #   pairing law inv^T . p . inv = conj(p) gives inv . conj(c) . inv^T = c,
        #   so coev is equivariant;
        # - icplx^2 = -I splits the space into its +-i eigenspaces, and the
        #   equivariant involution maps the +i one bijectively onto the -i one,
        #   so each has half the dimension, and swaps the partner bases back;
        # - for +i vectors u, w the isometry gives u^T p w = (iu)^T p (iw) =
        #   -u^T p w, so the pairing vanishes on (+i) (x) (+i), and by the
        #   pairing law on (-i) (x) (-i).
        p, inv = self.pairing, self.H.inv
        if inv.transpose() @ p @ inv != p.conj():
            raise InvariantViolation("pairing is not equivariant")
        if not (self.coev @ p).is_identity():
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
    """The eigenspaces of icplx in conjugate-partner coordinates, and the space.

    `frame` is [minus | plus], each block space.dim columns wide: `plus` is a
    basis of ker(icplx - iI) and `minus` its involution image, a basis of the
    -i eigenspace.  `space` is the extracted Hermitian space on the +i basis,
    with its gram's inverse.  As icplx is equivariant, icplx . minus = -i minus,
    and as inv . conj(inv) = I, inv . conj(frame) = frame . swap: in the frame,
    icplx is diag(-i, +i), the involution the swap and the pairing
    [[0, gram], [gram^T, 0]], so each law of a map is a block condition.
    """

    frame: Matrix        # dim x dim
    frame_inv: Matrix
    space: HermitianSpace


def _split(inv: Matrix, icplx: Matrix, pairing: Matrix) -> EigenSplit:
    """The eigen split of an involution, complex structure and pairing that
    satisfy the laws `SelfDualRealModule.check` tests; the coevaluation is
    not needed."""
    plus = kernel_basis(icplx - I * Matrix.identity(icplx.rows))
    minus = inv @ plus.conj()
    frame = hstack([minus, plus])
    return EigenSplit(frame, inverse(frame),
                      HermitianSpace(plus.cols, minus.transpose() @ pairing @ plus))


def split_eigenspaces(s: SelfDualRealModule) -> EigenSplit:
    """The eigen split of s (`_split`), computed once and memoized on the structure.

    The laws `SelfDualRealModule.check` tests make the split's own laws
    identities (see the comment there): the +i basis and its involution image
    each span half the space, and the pairing vanishes on like-signed pairs.
    """
    if "eigen" not in s._memo:
        s._memo["eigen"] = _split(s.H.inv, s.icplx, s.pairing)
    return s._memo["eigen"]


def extract_hermitian(s: SelfDualRealModule) -> HermitianSpace:
    """Gram of <psi|phi> = pairing(involution(psi) (x) phi) on the +i basis."""
    return split_eigenspaces(s).space


def make_selfdual(h: HermitianSpace) -> SelfDualRealModule:
    """Standard model: conjugate copy (+) Hilbert space with the swap involution.

    Blocks are ordered (-i summand, +i summand); the pairing carries the gram
    on the mixed blocks symmetrically and the coevaluation is its inverse,
    built from the gram-dual basis in both orders.
    """
    n = h.dim
    ident = Matrix.identity(n)
    module = RealModule(2 * n, swap_blocks(ident, ident))
    icplx = Matrix.diagonal([-I] * n + [I] * n)
    gram_dual = h.gram_inv.conj()
    return SelfDualRealModule(module, swap_blocks(h.gram, h.gram.transpose()),
                              swap_blocks(gram_dual, gram_dual.transpose()), icplx)


def conjugate_selfdual(s: SelfDualRealModule, t: Matrix) -> SelfDualRealModule:
    """Transport the whole structure through an invertible change of frame t."""
    if t.shape != (s.H.dim, s.H.dim):
        raise ShapeError("frame change has the wrong shape")
    t_inv = inverse(t)
    module = RealModule(s.H.dim, t @ s.H.inv @ t_inv.conj())
    return SelfDualRealModule(module, t_inv.transpose() @ s.pairing @ t_inv,
                              t @ s.coev @ t.transpose(), t @ s.icplx @ t_inv)


def _internalize_raw(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> Matrix:
    d1 = split_eigenspaces(s1)
    d2 = split_eigenspaces(s2)
    h1, h2 = d1.space.dim, d2.space.dim
    if g.shape != (h2, h1):
        raise ShapeError(f"map must be {h2}x{h1}, got {g.rows}x{g.cols}")
    # the -i block is forced by equivariance: bras transport to bras
    return d2.frame @ block_diag([g.conj(), g]) @ d1.frame_inv


def externalize_map(big: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> Matrix:
    """Read off the +i block of an equivariant icplx-commuting map."""
    d1, d2 = split_eigenspaces(s1), split_eigenspaces(s2)
    if big.shape != (s2.H.dim, s1.H.dim):
        raise ShapeError("ambient map has the wrong shape")
    h1, h2 = d1.space.dim, d2.space.dim
    # on its blocks [[UL, UR], [LL, LR]] big is equivariant iff UL = conj(LR)
    # and UR = conj(LL), and then commutes with icplx iff UR = 0 (`EigenSplit`)
    coords = d2.frame_inv @ big @ d1.frame
    upper_right, plus_block = coords.block(0, h1, h2, h1), coords.block(h2, h1, h2, h1)
    if (coords.block(0, 0, h2, h1) != plus_block.conj()
            or upper_right != coords.block(h2, 0, h2, h1).conj()):
        raise InvariantViolation("map is not equivariant")
    if not upper_right.is_zero():
        raise InvariantViolation("map does not commute with icplx")
    return plus_block


def internalize_map(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> RealHom:
    """The unique equivariant icplx-commuting map whose +i block is g.

    Its -i block is conj(g), the action on bras.  In the frames the map is
    diag(conj(g), g), so `externalize_map` reads g back; `RealHom` checks
    that it is equivariant.
    """
    return RealHom(s1.H, s2.H, _internalize_raw(g, s1, s2))


def adjoint_oracle(g: Matrix, h1: HermitianSpace, h2: HermitianSpace) -> Matrix:
    """Reference adjoint from the gram side: gram1^-1 g^dagger gram2.

    For the identity gram this is the conjugate transpose.
    """
    if g.shape != (h2.dim, h1.dim):
        raise ShapeError("map/space shape mismatch")
    return h1.gram_inv @ g.conj_transpose() @ h2.gram


def _adjoint(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> tuple:
    """(G, dagger(g)) for the internalization G of g: H1 -> H2.

    Bending G through coevaluation on the source and the pairing on the target
    contracts to coev1 . G^T . pairing2 on ambient coordinates; its +i block is
    the adjoint, asserted to satisfy gram1 . dagger(g) = conj_transpose(g) . gram2.
    """
    hom_mat = _internalize_raw(g, s1, s2)
    out = externalize_map(s1.coev @ hom_mat.transpose() @ s2.pairing, s2, s1)
    if split_eigenspaces(s1).space.gram @ out != g.conj_transpose() @ split_eigenspaces(s2).space.gram:
        raise InvariantViolation("dagger violates the adjoint law")
    return hom_mat, out


def dagger(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> Matrix:
    """Adjoint of g: H1 -> H2 via dualization, as a map H2 -> H1 (see `_adjoint`)."""
    return _adjoint(g, s1, s2)[1]


def dagger_composite_dense(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> Matrix:
    """The same dualization composite with the Kronecker factors materialized.

    The middle factor is n1*n2^2 x n1^2*n2, polynomial in the dimensions but
    far larger than the contraction `dagger` uses; used to cross-check `dagger`
    on small modules.
    """
    hom_mat = _internalize_raw(g, s1, s2)
    n1, n2 = s1.H.dim, s2.H.dim
    id1 = Matrix.identity(n1)
    id2 = Matrix.identity(n2)
    composite = (kron(id1, vec(s2.pairing).transpose())
                 @ kron(id1, kron(hom_mat, id2))
                 @ kron(vec(s1.coev), id2))
    return externalize_map(composite, s2, s1)


def is_internal_isometry(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> bool:
    """G^T . pairing2 . G = pairing1 and dagger(g) g = id, insisting they agree."""
    hom_mat, dag = _adjoint(g, s1, s2)
    route_pairing = hom_mat.transpose() @ s2.pairing @ hom_mat == s1.pairing
    if route_pairing != (dag @ g).is_identity():
        raise InvariantViolation("isometry routes disagree")
    return route_pairing


def is_unitary(g: Matrix, s1: SelfDualRealModule, s2: SelfDualRealModule) -> bool:
    """Invertible isometry; for square g, isometry already forces invertibility."""
    return is_internal_isometry(g, s1, s2) and g.rows == g.cols


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


def random_unitary_word(rng: random.Random, n: int) -> Matrix:
    """Word of four exact unitaries for the identity gram: permutations,
    diagonal powers of i, and a Hadamard block on the first two coordinates."""
    out = Matrix.identity(n)
    for _ in range(4):
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
