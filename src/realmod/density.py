"""Density matrices as fixed vectors in the symmetric square.

Inside the tensor square H (x) H of a self-dual module, the subspace fixed by
the braiding and by icplx (x) icplx has dimension n^2 over the scalars, where
n is the Hilbert space dimension; its locus of involution-fixed points has
dimension n^2 over the real subfield.  Its elements correspond exactly to the
operators on the +i eigenspace that are self-adjoint for the extracted gram:
density matrices without positivity.  `csmat` reads the braiding's fixed
vectors off the swap's orbits and takes the kernel of icplx (x) icplx - I
within them: read off when its rows hold one entry each, as a diagonal icplx
gives, and eliminated otherwise.  Either way the kernel is read from that
matrix's entries, so the n^2 is a verdict, not a fact of the construction.

The correspondence sends an operator rho with coefficient matrix
A = rho . gram^-1 to

    v(rho) = sum_kl A[k,l] p_k (x) c_l + conj(A[k,l]) c_k (x) p_l,

with p_k the +i basis and c_l the involution image of p_l.  Conjugation
invariance is automatic; braiding invariance is exactly Hermiticity of A,
equivalently self-adjointness of rho.  Both directions are the map converters
of `hermitian` bent through the (co)pairing, as `hermitian._adjoint` bends a
map: the square of rho is its internalization followed by the coevaluation,
and a square followed by the pairing is a map whose +i block is rho.  So this
module reads no eigen coordinates of its own.

A map g acts on the square as G (x) G with G the internalization of g.
Transporting v(rho) this way and converting back is proven here (by exact
comparison on every call) to equal g . rho . dagger(g): the Hermitian adjoint
appears with no extra choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvariantViolation, ShapeError
from .hermitian import SelfDualRealModule, _adjoint, _internalize_raw, externalize_map, split_eigenspaces
from .linalg import Matrix, _permutation_kernel, inertia, kernel_basis, kron, kron_swap, realify, unvec, vec
from .scalars import Scalar
from .modules import random_matrix


@dataclass(frozen=True, slots=True)
class CSMatSpace:
    """Basis of the braiding- and icplx-symmetric part of H (x) H."""

    parent: SelfDualRealModule
    basis: Matrix  # dim^2 x n^2 columns

    @property
    def dim(self) -> int:
        return self.basis.cols


def csmat(s: SelfDualRealModule) -> CSMatSpace:
    """The braiding's fixed vectors read off the swap's orbits, then the kernel
    of icplx (x) icplx - I within them: read off when its rows hold one entry
    each, eliminated otherwise."""
    n = split_eigenspaces(s).space.dim
    d = s.H.dim
    sym = _permutation_kernel(kron_swap(d, d))
    basis = sym @ kernel_basis((kron(s.icplx, s.icplx) - Matrix.identity(d * d)) @ sym)
    if basis.cols != n * n:
        raise InvariantViolation(
            f"symmetric icplx-fixed part has dimension {basis.cols}, expected {n * n}")
    return CSMatSpace(s, basis)


def fixed_locus_real_dimension(space: CSMatSpace) -> int:
    """Dimension over the real subfield of the involution-fixed locus."""
    s = space.parent
    conj_action = kron(s.H.inv, s.H.inv) @ space.basis.conj()
    return kernel_basis(realify(-space.basis, conj_action)).cols


def _operator_to_square(s: SelfDualRealModule, rho: Matrix) -> Matrix:
    """The fixed vector of a checked rho as the dim x dim matrix Vm it flattens from."""
    return _internalize_raw(rho, s, s) @ s.coev


def operator_to_fixed_vector(s: SelfDualRealModule, rho: Matrix) -> Matrix:
    """Ambient vector of a gram-self-adjoint operator on the +i eigenspace."""
    space = split_eigenspaces(s).space
    if rho.shape != (space.dim, space.dim):
        raise ShapeError(f"operator must be {space.dim}x{space.dim}")
    if not space.is_self_adjoint(rho):
        raise InvariantViolation("operator is not gram-self-adjoint")
    return vec(_operator_to_square(s, rho))


def _square_to_operator(s: SelfDualRealModule, vm: Matrix) -> Matrix:
    """Inverse of `_operator_to_square`; rejects squares outside the locus."""
    if vm.transpose() != vm:
        raise InvariantViolation("vector is not braiding-symmetric")
    # The square bends to the map vm . pairing.  As icplx is a pairing
    # isometry, vm is fixed by icplx (x) icplx iff the map commutes with
    # icplx; as the pairing is equivariant, vm is involution-fixed iff the map
    # is equivariant.  In eigen coordinates (`EigenSplit`) the pairing is
    # [[0, gram], [gram^T, 0]], so a map diag(conj(rho), rho) comes from
    # vm = [[0, conj(A)], [A, 0]] with A = rho . gram^-1: the square of rho.
    # vm symmetric makes A Hermitian, so gram . rho = gram . A . gram is too:
    # rho is a state.
    return externalize_map(vm @ s.pairing, s, s)


def fixed_vector_to_operator(s: SelfDualRealModule, v: Matrix) -> Matrix:
    """Inverse of `operator_to_fixed_vector`; rejects vectors outside the locus."""
    d = s.H.dim
    if v.shape != (d * d, 1):
        raise ShapeError("fixed vector must be an ambient column")
    return _square_to_operator(s, unvec(v, d, d))


def channel(g: Matrix, rho: Matrix, s: SelfDualRealModule) -> Matrix:
    """Apply g to a state both ways and insist they agree.

    Direct route: g . rho . dagger(g).  Transport route: push the fixed vector
    of rho through G (x) G (as G Vm G^T on the reshaped square) and convert
    back.  The transport route can only return a gram-self-adjoint operator.
    Whether g is unitary is not decided here: a caller that needs trace
    preservation compares the traces, or asks `hermitian.is_unitary`.
    """
    space = split_eigenspaces(s).space
    n = space.dim
    if g.shape != (n, n):
        raise ShapeError(f"gate must be {n}x{n}")
    if not space.is_self_adjoint(rho):
        raise InvariantViolation("state is not gram-self-adjoint")
    hom_mat, dag = _adjoint(g, s, s)
    direct = g @ rho @ dag
    vm = _operator_to_square(s, rho)
    transported = _square_to_operator(s, hom_mat @ vm @ hom_mat.transpose())
    if direct != transported:
        raise InvariantViolation("channel routes disagree")
    return direct


def positivity_certificate(s: SelfDualRealModule, rho: Matrix) -> str:
    """'yes' if the state is positive semidefinite, else 'no'; always decided.

    rho is PSD exactly when gram . rho, the matrix of the expectation form
    w |-> <w, rho w>, has no negative eigenvalue; `inertia` counts them
    exactly by congruence diagonalization.  Its Hermitian test is the state
    law, so a rho that is not gram-self-adjoint raises InvariantViolation
    there, and one of the wrong shape raises ShapeError.
    """
    return "no" if inertia(split_eigenspaces(s).space.gram @ rho)[1] else "yes"


def random_state(rng: random.Random, s: SelfDualRealModule, normalized: bool = False) -> Matrix:
    """Random mixture of pure states w w^dagger gram: PSD, optionally trace 1.

    Each pure term has trace <w|w>, which an indefinite gram can make zero or
    negative; normalization insists on a positive total so dividing by it
    keeps the mixture positive.
    """
    space = split_eigenspaces(s).space
    n = space.dim
    for _ in range(256):
        terms = Matrix.zero(n, n)
        for _ in range(2 if normalized else rng.randrange(1, 3)):
            w = random_matrix(rng, n, 1)
            weight = Scalar(rng.randrange(1, 4))
            terms = terms + weight * (w @ w.conj_transpose() @ space.gram)
        if not normalized:
            return terms
        t = terms.trace()
        if t.is_real() and t.sign_real() == 1:
            return t.inv() * terms
    # a negative-definite form has no positive-trace mixtures at all, so a
    # bounded retry is the difference between an error and a hang
    raise InvariantViolation("found no positive-trace mixture; the form may lack positive directions")
