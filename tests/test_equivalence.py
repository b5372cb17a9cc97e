"""The passage between real vector spaces and involutive modules, and the
Hermitian form carried by an inner product with a compatible complex
structure."""

import random
from functools import partial

import pytest

from realmod import equivalence, hermitian, linalg
from realmod.equivalence import (
    HermitianSpace,
    RealVS,
    _complex_basis,
    _complex_split,
    complexify,
    diagonalized_complex_structure,
    hermitian_form_on_real_basis,
    hyperbolic_iso,
    inner_to_hermitian_formula,
    inner_to_hermitian_functorial,
    random_isometric_pair,
    random_real_vs,
    standard_complex_structure,
)
from realmod.errors import InvariantViolation
from realmod.linalg import Matrix, hstack, inverse, solve
from realmod.modules import RealModule, fixed_points
from realmod.scalars import I, ONE, Scalar

# seeded isometric pairs at every even dimension up to 6
SPACES = [random_isometric_pair(random.Random(3800 + 10 * n + k), n) for n in (2, 4, 6) for k in range(4)]


def test_complexify_then_fix_is_the_identity_on_points():
    rng = random.Random(31)
    for _ in range(40):
        space = random_real_vs(rng, rng.randrange(1, 5))
        fp = fixed_points(complexify(space))
        # the fixed basis is the standard one: the canonical comparison
        # map is literally the identity matrix
        assert fp == Matrix.identity(space.dim)


def test_real_vs_validation():
    with pytest.raises(InvariantViolation):
        RealVS(2, Matrix.from_rows([[1, 1], [0, 1]]), None).check()  # not symmetric
    with pytest.raises(InvariantViolation, match="^g must be nondegenerate$"):
        RealVS(2, Matrix.from_rows([[1, 1], [1, 1]]), None).check()
    with pytest.raises(InvariantViolation):
        RealVS(2, Matrix.identity(2), Matrix.identity(2)).check()  # J^2 != -1
    with pytest.raises(InvariantViolation):
        # J does not preserve this inner product
        RealVS(
            2,
            Matrix.from_rows([[1, 0], [0, 2]]),
            Matrix.from_rows([[0, -1], [1, 0]]),
        ).check()


def test_hyperbolic_iso_is_mutually_inverse_and_equivariant():
    rng = random.Random(32)
    for n in [2, 4, 6] * 10:
        space = random_isometric_pair(rng, n)
        iso = hyperbolic_iso(space)
        assert (iso.forward.mat @ iso.inverse.mat).is_identity()
        assert (iso.inverse.mat @ iso.forward.mat).is_identity()
        iso.forward.check()
        iso.inverse.check()


def test_hyperbolic_coordinates_diagonalize_j():
    rng = random.Random(33)
    for n in [2, 4, 6] * 7:
        space = random_isometric_pair(rng, n)
        d = diagonalized_complex_structure(space)
        n = space.dim
        half = n // 2
        for k in range(half):
            assert d[k, k] == -I
            assert d[half + k, half + k] == I
        assert sum(1 for i in range(n) for j in range(n) if i != j and d[i, j] != 0) == 0


def test_formula_and_functorial_routes_agree():
    rng = random.Random(34)
    for n in [2, 4, 6] * 10:
        space = random_isometric_pair(rng, n)
        h1 = inner_to_hermitian_formula(space)
        h2 = inner_to_hermitian_functorial(space)
        assert h1.gram == h2.gram
        assert h1.gram.conj_transpose() == h1.gram
        h1.check()


def _greedy_complex_basis(space):
    """Scan e_0, e_1, ... and keep each e_k outside the span of the kept
    vectors and their J-images."""
    n = space.dim
    kept, span = [], []
    for k in range(n):
        e = Matrix.column([ONE if i == k else Scalar() for i in range(n)])
        if not span or solve(hstack(span), e) is None:
            kept.append(k)
            span += [e, space.J @ e]
    return Matrix(n, len(kept), [ONE if i == k else Scalar() for i in range(n) for k in kept])


def test_the_complex_basis_is_the_greedy_one():
    rng = random.Random(35)
    skipped = 0
    for n in [2, 4, 6, 8] * 10:
        space = random_isometric_pair(rng, n)
        basis = _complex_basis(space)
        assert basis == _greedy_complex_basis(space)
        skipped += basis != Matrix.identity(n).block(0, 0, n, n // 2)
    assert skipped  # some space skips an e_k before the last kept one


def test_the_zero_space_carries_the_empty_gram():
    zero = Matrix.zero(0, 0)
    space = RealVS(0, zero, zero)
    assert inner_to_hermitian_formula(space) == HermitianSpace(0, zero)
    assert inner_to_hermitian_functorial(space) == HermitianSpace(0, zero)


def test_each_route_checks_its_space_once(monkeypatch):
    calls = []
    check = RealVS.check
    monkeypatch.setattr(RealVS, "check", lambda s: calls.append(s) or check(s))
    for space in SPACES[:4]:
        calls.clear()
        fresh = RealVS(space.dim, space.g, space.J)
        assert len(calls) == 1  # construction checks the space; no route checks it again
        complexify(fresh)
        hyperbolic_iso(fresh)
        diagonalized_complex_structure(fresh)
        inner_to_hermitian_formula(fresh)
        inner_to_hermitian_functorial(fresh)
        inner_to_hermitian_functorial(fresh)
        hermitian_form_on_real_basis(fresh)
        assert len(calls) == 1


def test_the_hyperbolic_splitting_builds_one_source_and_one_target(monkeypatch):
    calls = []
    check = RealModule.check
    monkeypatch.setattr(RealModule, "check", lambda m: calls.append(m) or check(m))
    for space in SPACES[:4]:
        fresh = RealVS(space.dim, space.g, space.J)
        for _ in range(2):  # the split is kept; each call builds its two modules
            calls.clear()
            hyper = hyperbolic_iso(fresh)
            assert calls == [hyper.forward.source, hyper.forward.target]


def test_the_complexification_is_a_self_dual_module_with_the_same_split():
    # `_complex_split` splits (conjugation, J, g) without building the
    # module; the module builds, and its split is the same field by field
    rng = random.Random(3900)
    pairs = [random_isometric_pair(rng, n) for n in (0, 2, 4) for _ in range(3)]
    for space in pairs + [RealVS(pair.dim, None, pair.J) for pair in pairs]:
        J = space.J
        g = space.g if space.g is not None else Matrix.identity(space.dim) + J.transpose() @ J
        module = hermitian.SelfDualRealModule(complexify(space), g, inverse(g), J)
        split, direct = hermitian.split_eigenspaces(module), _complex_split(space)
        assert (split.frame, split.frame_inv, split.space) == (direct.frame, direct.frame_inv, direct.space)


def test_the_functorial_route_builds_no_module_and_inverts_no_real_form(monkeypatch):
    built, inverted = [], []
    check = hermitian.SelfDualRealModule.check
    monkeypatch.setattr(hermitian.SelfDualRealModule, "check", lambda s: built.append(s) or check(s))
    for module in (equivalence, hermitian, linalg):
        invert = module.inverse
        monkeypatch.setattr(module, "inverse", lambda m, invert=invert: inverted.append(m) or invert(m))
    for space in SPACES:
        fresh = RealVS(space.dim, space.g, space.J)
        inner_to_hermitian_functorial(fresh)
        assert built == []
        assert inverted and all(m != space.g for m in inverted)  # the frame and the extracted grams
        inverted.clear()


def test_hermitian_routes_on_the_real_basis_agree():
    rng = random.Random(35)
    for _ in range(20):
        space = random_isometric_pair(rng, 4)
        hermitian_form_on_real_basis(space)  # raises unless the two routes agree


def test_standard_structure_gives_the_standard_gram():
    for n in (2, 4):
        space = RealVS(n, Matrix.identity(n), standard_complex_structure(n))
        space.check()
        h = inner_to_hermitian_formula(space)
        assert h.dim == n // 2
        assert h.gram.is_identity()


def test_hermitian_pairing_is_antilinear_in_the_first_slot():
    h = HermitianSpace(2, Matrix.from_rows([[1, I], [-I, 3]]))
    h.check()
    v = Matrix.column([ONE, I])
    w = Matrix.column([Scalar(2), ONE])
    assert h.pair(I * v, w) == -I * h.pair(v, w)
    assert h.pair(v, I * w) == I * h.pair(v, w)
    assert h.pair(v, w) == h.pair(w, v).conj()


def test_scaling_the_inner_product_scales_the_gram():
    rng = random.Random(36)
    space = random_isometric_pair(rng, 2)
    doubled = RealVS(space.dim, Scalar(2) * space.g, space.J)
    doubled.check()
    assert inner_to_hermitian_formula(doubled).gram == Scalar(2) * inner_to_hermitian_formula(space).gram


def test_j_transport_matches_gram_transport():
    # conjugating (g, J) by a linear isomorphism t transports the gram by the
    # inverse images of the complex basis; check invariance just for t = J
    rng = random.Random(37)
    space = random_isometric_pair(rng, 4)
    j_moved = RealVS(space.dim, space.g, inverse(space.J) @ space.J @ space.J)
    assert j_moved.J == space.J
    assert inner_to_hermitian_formula(j_moved).gram == inner_to_hermitian_formula(space).gram


def test_the_splitting_holds_for_rescaled_eigenbases(monkeypatch):
    # the split takes one kernel, the +i basis, and builds the -i basis as its
    # involution image; rescaling the +i basis by k + 2 on one split and by i
    # on the next changes both bases, which the maps must absorb
    kernel_basis = hermitian.kernel_basis
    calls = []

    def rescaled(m):
        calls.append(m)
        basis = kernel_basis(m)
        factors = [Scalar(k + 2) for k in range(basis.cols)] if len(calls) % 2 else [I] * basis.cols
        return basis @ Matrix.diagonal(factors)

    monkeypatch.setattr(hermitian, "kernel_basis", rescaled)
    for space in SPACES:
        fresh = RealVS(space.dim, space.g, space.J)
        iso = hyperbolic_iso(fresh)
        assert (iso.forward.mat @ iso.inverse.mat).is_identity()
        iso.forward.check()
        iso.inverse.check()
        half = space.dim // 2
        assert diagonalized_complex_structure(fresh) == Matrix.diagonal([-I] * half + [I] * half)
        assert inner_to_hermitian_functorial(fresh) == inner_to_hermitian_formula(fresh)
    assert calls


def test_the_splitting_depends_on_j_alone():
    # without g the J-invariant form I + J^T J stands in; the maps do not change
    for space in SPACES[:6]:
        bare = RealVS(space.dim, None, space.J)
        assert hyperbolic_iso(bare) == hyperbolic_iso(space)
        with pytest.raises(ValueError, match="^needs both g and J$"):
            inner_to_hermitian_functorial(bare)


J2 = standard_complex_structure(2)
INVALID = [  # (space, built on use; exception; message through hyperbolic_iso, through the functorial route)
    (partial(RealVS, 2, Matrix.from_rows([[1, 0], [0, 0]]), J2), InvariantViolation,
     "g must be nondegenerate", "g must be nondegenerate"),
    (partial(RealVS, 2, Matrix.identity(2), Matrix.identity(2)), InvariantViolation, "J^2 != -I", "J^2 != -I"),
    (partial(RealVS, 2, Matrix.from_rows([[1, 0], [0, 2]]), J2), InvariantViolation,
     "J is not a g-isometry", "J is not a g-isometry"),
    (partial(RealVS, 2, Matrix.identity(2), None), ValueError,
     "needs a complex structure J", "needs both g and J"),
]


@pytest.mark.parametrize("space, exc, iso_message, functorial_message", INVALID)
def test_invalid_pairs_are_rejected_with_the_validation_message(space, exc, iso_message, functorial_message):
    with pytest.raises(exc) as caught:
        hyperbolic_iso(space())
    assert str(caught.value) == iso_message
    with pytest.raises(exc) as caught:
        inner_to_hermitian_functorial(space())
    assert str(caught.value) == functorial_message

