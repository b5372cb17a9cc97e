"""Sets with involution, equivariant bundles, and quantization."""

import random

import pytest

from realmod import quantization
from realmod.errors import InvariantViolation
from realmod.hermitian import extract_hermitian
from realmod.linalg import Matrix, inverse, kron
from realmod.modules import RealHom, RealModule, is_real_hom, random_matrix
from realmod.quantization import (
    RealBundle,
    RealBundleMap,
    RealSet,
    RealSetMap,
    external_tensor,
    free_realset,
    identity_base_map,
    internal_complex,
    pushforward,
    quantize,
    quantize_set,
    random_real_bundle,
    random_realset,
    reflect,
    reflect_map,
    trivial_line_bundle,
    trivial_realset,
)
from realmod.scalars import I, ONE, Scalar


def test_internal_complex_is_a_commutative_monoid_with_conjugation():
    c = internal_complex()
    c.check()


def test_internal_complex_checks_equivariance_without_building_modules(monkeypatch):
    calls = []
    check = RealModule.check
    monkeypatch.setattr(RealModule, "check", lambda m: calls.append(m) or check(m))
    c = internal_complex()
    assert calls == [c.carrier]


def test_internal_imaginary_unit_squares_to_minus_one():
    c = internal_complex()
    i_col = Matrix.column([Scalar(), ONE])
    sq = c.mult @ kron(i_col, i_col)
    assert sq == -c.unit
    assert c.conj_endo @ i_col == -i_col


def test_realset_validation_and_orbits():
    free_realset(3).check()
    trivial_realset(2).check()
    with pytest.raises(InvariantViolation):
        RealSet(3, (1, 2, 0)).check()  # 3-cycle, not an involution
    with pytest.raises(InvariantViolation):
        RealSet(2, (0, 0)).check()
    s = RealSet(5, (1, 0, 2, 4, 3))
    s.check()
    assert s.fixed_points() == (2,)
    assert s.orbit_representatives() == (0, 2, 3)


def test_setmap_equivariance():
    a = free_realset(2)  # tau swaps 0<->2, 1<->3
    b = free_realset(1)
    f = RealSetMap(a, b, (0, 0, 1, 1))
    f.check()
    with pytest.raises(InvariantViolation):
        RealSetMap(a, b, (0, 0, 0, 1)).check()


def test_bundle_transport_laws():
    rng = random.Random(61)
    for _ in range(10):
        base = random_realset(rng, rng.choice((2, 4)), free=True)
        bundle = random_real_bundle(rng, base)
        bundle.check()


def test_pushforward_along_the_identity():
    rng = random.Random(62)
    base = free_realset(2)
    bundle = random_real_bundle(rng, base)
    ident = identity_base_map(base)
    assert pushforward(ident, bundle).fibers == bundle.fibers
    assert reflect(pushforward(ident, bundle)).dim == reflect(bundle).dim


def test_zero_dimensional_fibers_reflect_to_zero_dimensions():
    zero, line = Matrix.zero(0, 0), Matrix.identity(1)
    base = free_realset(2)  # partners 0 <-> 2 and 1 <-> 3
    ident = identity_base_map(base)
    onto = RealSetMap(base, free_realset(1), (0, 0, 1, 1))
    empty = RealBundle(base, (0,) * 4, (zero,) * 4)
    assert reflect(empty).dim == 0
    assert reflect_map(RealBundleMap(empty, empty, ident, (zero,) * 4)).mat == zero
    assert reflect(pushforward(onto, empty)).dim == 0
    # empty fibers beside lines: the last empty block sits on the frame's edge
    mixed = RealBundle(base, (1, 0, 1, 0), (line, zero, line, zero))
    assert reflect(mixed).inv == Matrix.from_rows([[0, 1], [1, 0]])
    assert reflect_map(RealBundleMap(mixed, mixed, ident, (line, zero, line, zero))).mat.is_identity()
    pushed = pushforward(onto, mixed)
    assert pushed.fibers == (1, 1) and reflect(pushed).inv == reflect(mixed).inv


def test_pushforward_along_a_non_equivariant_map_is_rejected():
    base = free_realset(2)
    bundle = random_real_bundle(random.Random(66), base)
    with pytest.raises(InvariantViolation, match="^map does not commute with the involutions$"):
        pushforward(RealSetMap(base, free_realset(1), (0, 0, 0, 1)), bundle)


def test_external_tensor_multiplies_fibers():
    rng = random.Random(63)
    b1 = random_real_bundle(rng, free_realset(1))
    b2 = random_real_bundle(rng, trivial_realset(2))
    prod = external_tensor(b1, b2)
    prod.check()
    assert prod.base.size == b1.base.size * b2.base.size
    assert reflect(prod).dim == sum(
        d1 * d2 for d1 in b1.fibers for d2 in b2.fibers)


def test_reflect_produces_a_real_module():
    rng = random.Random(64)
    for _ in range(8):
        base = random_realset(rng, rng.randrange(1, 5))
        bundle = random_real_bundle(rng, base)
        m = reflect(bundle)
        m.check()
        assert m.dim == sum(bundle.fibers)


def test_reflect_map_is_equivariant():
    # choose the block over one orbit representative freely; the block over
    # its partner is then forced by equivariance
    rng = random.Random(65)
    base = free_realset(1)
    b1 = random_real_bundle(rng, base)
    b2 = random_real_bundle(rng, base)
    f0 = random_matrix(rng, b2.fibers[0], b1.fibers[0])
    f1 = b2.phi[0] @ f0.conj() @ inverse(b1.phi[0])
    bmap = RealBundleMap(b1, b2, identity_base_map(base), (f0, f1))
    bmap.check()
    hom = reflect_map(bmap)
    assert is_real_hom(reflect(b1), reflect(b2), hom.mat)


def _reference_quantize_set(base: RealSet) -> tuple:
    """(module, icplx, pairing, coevaluation) of the quantization, built
    through the bundle calculus: multiplication by i as a bundle map on the
    trivial line bundle (+i over each orbit representative, -i over its
    partner), reflected to an equivariant hom; the partner pairing is the
    reflected involution, and so is its coevaluation."""
    line = trivial_line_bundle(base)
    reps = set(base.orbit_representatives())
    mats = tuple(Matrix.from_rows([[I if x in reps else -I]]) for x in range(base.size))
    hom = reflect_map(RealBundleMap(line, line, identity_base_map(base), mats))
    return hom.source, hom.mat, hom.source.inv, hom.source.inv


def _free_realsets() -> list:
    rng = random.Random(67)
    return [free_realset(n) for n in range(5)] + [
        random_realset(rng, 2 * rng.randrange(1, 5), free=True) for _ in range(20)]


def test_quantize_set_agrees_with_the_bundle_calculus():
    for base in _free_realsets():
        s = quantize_set(base)
        assert (s.H, s.icplx, s.pairing, s.coev) == _reference_quantize_set(base)


def test_quantize_set_builds_no_intermediate_checked_map(monkeypatch):
    built = []
    for cls in (RealSetMap, RealBundleMap, RealHom):
        monkeypatch.setattr(cls, "check", lambda obj, check=cls.check: built.append(obj) or check(obj))
    _reference_quantize_set(free_realset(1))
    assert [type(obj) for obj in built] == [RealSetMap, RealBundleMap, RealHom]  # the counter counts
    built.clear()
    for base in _free_realsets():
        quantize_set(base)
    assert built == []


def test_quantize_set_needs_a_free_involution():
    with pytest.raises(InvariantViolation, match="^points fixed by the involution admit no complex structure$"):
        quantize_set(trivial_realset(1))


def test_quantize_single_point():
    s = quantize(1)
    assert s.H.dim == 2
    # the involution exchanges the two summands
    assert s.H.inv == Matrix.from_rows([[0, 1], [1, 0]])
    h = extract_hermitian(s)
    assert h.dim == 1
    assert h.gram == Matrix.identity(1)  # <1|1> = +1


def test_quantize_extracts_identity_gram():
    for n in range(1, 5):
        s = quantize(n)
        s.check()
        assert s.H.dim == 2 * n
        assert extract_hermitian(s).gram.is_identity()


def test_quantize_reflects_its_line_bundle_once(monkeypatch):
    calls = []
    real = quantization.reflect
    monkeypatch.setattr(quantization, "reflect", lambda b: calls.append(b) or real(b))
    quantize(3)
    assert calls == [trivial_line_bundle(free_realset(3))]


def test_quantize_set_of_a_scrambled_free_involution():
    base = RealSet(6, (4, 3, 5, 1, 0, 2))
    s = quantize_set(base)
    s.check()
    assert extract_hermitian(s).gram.is_identity()


def test_quantize_set_rejects_fixed_points():
    with pytest.raises(InvariantViolation):
        quantize_set(RealSet(3, (1, 0, 2)))

