"""Density matrices as fixed vectors in the symmetric square.

Inside the tensor square H (x) H of a self-dual module, the subspace fixed by
the braiding and by icplx (x) icplx has dimension n^2 over the scalars, where
n is the Hilbert space dimension; its locus of involution-fixed points has
dimension n^2 over the real subfield.  Its elements correspond exactly to the
operators on the +i eigenspace that are self-adjoint for the extracted gram:
density matrices without positivity.

The correspondence sends an operator rho with coefficient matrix
A = rho . gram^-1 to

    v(rho) = sum_kl A[k,l] p_k (x) c_l + conj(A[k,l]) c_k (x) p_l,

with p_k the +i basis and c_l the involution image of p_l.  Conjugation
invariance is automatic; braiding invariance is exactly Hermiticity of A,
equivalently self-adjointness of rho.

A map g acts on the square as G (x) G with G the internalization of g.
Transporting v(rho) this way and converting back is proven here (by exact
comparison on every call) to equal g . rho . dagger(g): the Hermitian adjoint
appears with no extra choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvariantViolation, ShapeError
from .hermitian import (
    SelfDualRealModule,
    _dagger_from_hom,
    _internalize_raw,
    dagger,
    split_eigenspaces,
)
from .linalg import (
    Matrix,
    hstack,
    inertia,
    kernel_basis,
    kron,
    kron_swap,
    realify,
    unvec,
    vec,
)
from .scalars import Scalar
from .modules import random_matrix, random_scalar


@dataclass(frozen=True, slots=True)
class CSMatSpace:
    """Basis of the braiding- and icplx-symmetric part of H (x) H."""

    parent: SelfDualRealModule
    basis: Matrix  # dim^2 x n^2 columns

    @property
    def dim(self) -> int:
        return self.basis.cols


def csmat(s: SelfDualRealModule) -> CSMatSpace:
    """Iterated kernels: fix the braiding, then fix icplx (x) icplx."""
    data = split_eigenspaces(s)
    d = s.H.dim
    n = data.half
    swap = kron_swap(d, d)
    ident = Matrix.identity(d * d)
    sym = hstack(kernel_basis(swap - ident))
    ii = kron(s.icplx, s.icplx)
    coords = kernel_basis((ii - ident) @ sym)
    basis = sym @ hstack(coords) if coords else Matrix.zero(d * d, 0)
    if basis.cols != n * n:
        raise InvariantViolation(
            f"symmetric icplx-fixed part has dimension {basis.cols}, expected {n * n}")
    return CSMatSpace(s, basis)


def fixed_locus_real_dimension(space: CSMatSpace) -> int:
    """Dimension over the real subfield of the involution-fixed locus."""
    s = space.parent
    conj_action = kron(s.H.inv, s.H.inv) @ space.basis.conj()
    sols = kernel_basis(realify(-space.basis, conj_action))
    return len(sols)


def operator_to_fixed_vector(s: SelfDualRealModule, rho: Matrix) -> Matrix:
    """Ambient vector of a gram-self-adjoint operator on the +i eigenspace."""
    data = split_eigenspaces(s)
    n = data.half
    if rho.shape != (n, n):
        raise ShapeError(f"operator must be {n}x{n}")
    form = data.gram @ rho
    if form.conj_transpose() != form:
        raise InvariantViolation("operator is not gram-self-adjoint")
    coef = rho @ data.gram_inv
    p = data.plus
    c = data.minus @ data.witness
    return vec(p @ coef @ c.transpose() + c @ coef.conj() @ p.transpose())


def fixed_vector_to_operator(s: SelfDualRealModule, v: Matrix) -> Matrix:
    """Inverse of `operator_to_fixed_vector`; rejects vectors outside the locus."""
    data = split_eigenspaces(s)
    d = s.H.dim
    n = data.half
    if v.shape != (d * d, 1):
        raise ShapeError("fixed vector must be an ambient column")
    vm = unvec(v, d, d)
    if vm.transpose() != vm:
        raise InvariantViolation("vector is not braiding-symmetric")
    if s.icplx @ vm @ s.icplx.transpose() != vm:
        raise InvariantViolation("vector is not fixed by icplx (x) icplx")
    if s.H.inv @ vm.conj() @ s.H.inv.transpose() != vm:
        raise InvariantViolation("vector is not involution-fixed")
    x = data.frame_inv @ vm @ data.frame_inv.transpose()
    block = lambda r0, c0: Matrix.from_rows(
        [x.row(i)[c0:c0 + n] for i in range(r0, r0 + n)])
    if not block(0, 0).is_zero() or not block(n, n).is_zero():
        raise InvariantViolation("vector has components in the like-signed blocks")
    coef = block(n, 0) @ data.rev_witness.conj().transpose()
    if block(0, n) != data.witness @ coef.conj():
        raise InvariantViolation("mixed blocks are not conjugation partners")
    if coef.conj_transpose() != coef:
        raise InvariantViolation("coefficient matrix is not Hermitian")
    rho = coef @ data.gram
    if data.gram @ rho != (data.gram @ rho).conj_transpose():
        raise InvariantViolation("operator is not gram-self-adjoint")
    return rho


def is_density_shaped(s: SelfDualRealModule, rho: Matrix) -> bool:
    """Self-adjoint for the extracted gram (positivity not included)."""
    data = split_eigenspaces(s)
    if rho.shape != (data.half, data.half):
        return False
    m = data.gram @ rho
    return m.conj_transpose() == m


def trace(rho: Matrix) -> Scalar:
    return rho.trace()


def channel(g: Matrix, rho: Matrix, s: SelfDualRealModule) -> Matrix:
    """Apply g to a state both ways and insist they agree.

    Direct route: g . rho . dagger(g).  Transport route: push the fixed vector
    of rho through G (x) G (as G Vm G^T on the reshaped square) and convert
    back.  If g is unitary, the result is asserted to keep the trace and stay
    gram-self-adjoint.
    """
    data = split_eigenspaces(s)
    n = data.half
    if g.shape != (n, n):
        raise ShapeError(f"gate must be {n}x{n}")
    if not is_density_shaped(s, rho):
        raise InvariantViolation("state is not gram-self-adjoint")
    hom = _internalize_raw(g, s, s)
    dag = _dagger_from_hom(hom.mat, g, s, s)
    direct = g @ rho @ dag
    vm = unvec(operator_to_fixed_vector(s, rho), s.H.dim, s.H.dim)
    transported = fixed_vector_to_operator(s, vec(hom.mat @ vm @ hom.mat.transpose()))
    if direct != transported:
        raise InvariantViolation("channel routes disagree")
    pm = s.pair_mat()
    unitary = (hom.mat.transpose() @ pm @ hom.mat) == pm
    if unitary != (dag @ g).is_identity():
        raise InvariantViolation("isometry routes disagree")
    if unitary:
        if trace(direct) != trace(rho):
            raise InvariantViolation("unitary channel changed the trace")
        if not is_density_shaped(s, direct):
            raise InvariantViolation("unitary channel broke self-adjointness")
    return direct


def positivity_certificate(s: SelfDualRealModule, rho: Matrix) -> str:
    """'yes' if the state is positive semidefinite, else 'no'; always decided.

    rho is PSD exactly when gram . rho, the matrix of the expectation form
    w |-> <w, rho w>, has no negative eigenvalue; `inertia` counts them
    exactly by congruence diagonalization.
    """
    if not is_density_shaped(s, rho):
        raise InvariantViolation("state is not gram-self-adjoint")
    return "no" if inertia(split_eigenspaces(s).gram @ rho)[1] else "yes"


def random_state(rng: random.Random, s: SelfDualRealModule, normalized: bool = False) -> Matrix:
    """Random mixture of pure states w w^dagger gram: PSD, optionally trace 1.

    Each pure term has trace <w|w>, which an indefinite gram can make zero or
    negative; normalization insists on a positive total so dividing by it
    keeps the mixture positive.
    """
    data = split_eigenspaces(s)
    n = data.half
    for _ in range(256):
        terms = Matrix.zero(n, n)
        for _ in range(2 if normalized else rng.randrange(1, 3)):
            w = random_matrix(rng, n, 1)
            weight = Scalar.of(rng.randrange(1, 4))
            terms = terms + weight * (w @ w.conj_transpose() @ data.gram)
        if not normalized:
            return terms
        t = trace(terms)
        if t.is_real() and t.sign_real() == 1:
            return t.inv() * terms
    # a negative-definite form has no positive-trace mixtures at all, so a
    # bounded retry is the difference between an error and a hang
    raise InvariantViolation("found no positive-trace mixture; the form may lack positive directions")


def random_selfadjoint(rng: random.Random, s: SelfDualRealModule) -> Matrix:
    """Random gram-self-adjoint operator, indefinite in general."""
    data = split_eigenspaces(s)
    n = data.half
    y = random_matrix(rng, n, n)
    return (y + y.conj_transpose()) @ data.gram
