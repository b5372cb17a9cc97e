"""Each law of a map or a state, read as a block condition on eigen-frame
coordinates, against the same law written on ambient coordinates."""

import itertools
import random
from fractions import Fraction

import pytest

from realmod.density import fixed_vector_to_operator, operator_to_fixed_vector, random_state
from realmod.equivalence import complexify, random_isometric_pair
from realmod.errors import InvariantViolation
from realmod.hermitian import (
    SelfDualRealModule,
    conjugate_selfdual,
    externalize_map,
    internalize_map,
    random_selfdual,
    split_eigenspaces,
    standard_selfdual,
)
from realmod.linalg import Matrix, inverse, place, unvec, vec
from realmod.modules import is_real_hom, random_invertible, random_matrix
from realmod.quantization import quantize_set, random_realset
from realmod.scalars import I, Scalar

HALF = Scalar(Fraction(1, 2))


def _moved(draw):
    """The first structure `draw` returns whose eigen frame is not the identity."""
    while True:
        s = draw()
        if not split_eigenspaces(s).frame.is_identity():
            return s


def _structures(rng):
    built = ([_moved(lambda: random_selfdual(rng, n)) for n in (1, 2, 3)]
             + [_moved(lambda: conjugate_selfdual(standard_selfdual(2), random_invertible(rng, 4))),
                _moved(lambda: quantize_set(random_realset(rng, 6, free=True)))])
    space = random_isometric_pair(rng, 4)
    built.append(SelfDualRealModule(complexify(space), space.g, inverse(space.g), space.J))
    return built


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InvariantViolation as exc:
        return "raised", str(exc)


def _one_block(rng, rows, cols, r, c):
    """A 2rows x 2cols matrix that is random in block (r, c) and zero elsewhere."""
    return place(2 * rows, 2 * cols, [(r * rows, c * cols, random_matrix(rng, rows, cols))])


def _ambient_externalize(big, s1, s2):
    """The two map laws on ambient coordinates, then the +i block."""
    if not is_real_hom(s1.H, s2.H, big):
        raise InvariantViolation("map is not equivariant")
    if big @ s1.icplx != s2.icplx @ big:
        raise InvariantViolation("map does not commute with icplx")
    d1, d2 = split_eigenspaces(s1), split_eigenspaces(s2)
    h1, h2 = d1.space.dim, d2.space.dim
    return (d2.frame_inv @ big @ d1.frame).block(h2, h1, h2, h1)


def _ambient_square_to_operator(s, vm):
    """The three square laws on ambient coordinates, then the operator."""
    if vm.transpose() != vm:
        raise InvariantViolation("vector is not braiding-symmetric")
    if s.icplx @ vm @ s.icplx.transpose() != vm:
        raise InvariantViolation("vector is not fixed by icplx (x) icplx")
    if s.H.inv @ vm.conj() @ s.H.inv.transpose() != vm:
        raise InvariantViolation("vector is not involution-fixed")
    data = split_eigenspaces(s)
    n = data.space.dim
    return (data.frame_inv @ vm @ data.frame_inv.transpose()).block(n, 0, n, n) @ data.space.gram


def test_map_laws_in_the_frame_agree_with_the_ambient_laws():
    rng = random.Random(61)
    structures = _structures(rng)
    for s1, s2 in itertools.product(structures, repeat=2):
        inv1, inv2 = s1.H.inv, s2.H.inv

        def equivariant(m):  # the average of m and its involution image
            return HALF * (m + inv2 @ m.conj() @ inv1.conj())

        def commuting(m):  # the average of m and its icplx conjugate
            return HALF * (m - s2.icplx @ m @ s1.icplx)

        m = random_matrix(rng, s2.H.dim, s1.H.dim)
        inputs = [m, equivariant(m), commuting(m), equivariant(commuting(m))]
        # the valid map moved in one frame block: each breaks a different
        # subset of the block conditions
        d1, d2 = split_eigenspaces(s1), split_eigenspaces(s2)
        inputs += [inputs[-1] + d2.frame @ _one_block(rng, d2.space.dim, d1.space.dim, r, c) @ d1.frame_inv
                   for r, c in itertools.product((0, 1), repeat=2)]
        for big in inputs:
            assert _outcome(externalize_map, big, s1, s2) == _outcome(_ambient_externalize, big, s1, s2)
        assert [_outcome(externalize_map, big, s1, s2)[0] for big in inputs] == ["raised"] * 3 + ["ok"] + ["raised"] * 4


def test_square_laws_in_the_frame_agree_with_the_ambient_laws():
    rng = random.Random(62)
    for s in _structures(rng):
        d = s.H.dim
        laws = {
            "braiding": lambda vm: HALF * (vm + vm.transpose()),
            "icplx": lambda vm: HALF * (vm + s.icplx @ vm @ s.icplx.transpose()),
            "involution": lambda vm: HALF * (vm + s.H.inv @ vm.conj() @ s.H.inv.transpose()),
        }
        for held in itertools.chain.from_iterable(itertools.combinations(laws, k) for k in range(4)):
            vm = random_matrix(rng, d, d)
            for law in held:  # the three averages commute
                vm = laws[law](vm)
            got = _outcome(fixed_vector_to_operator, s, vec(vm))
            assert got == _outcome(_ambient_square_to_operator, s, vm), held
            assert (got[0] == "ok") == (len(held) == 3), held
        # the valid square (all three laws held, the last case above) moved
        # symmetrically in one like-signed frame block or in the mixed pair
        valid, (frame, n) = vm, (split_eigenspaces(s).frame, split_eigenspaces(s).space.dim)
        for r, c in ((0, 0), (1, 1), (0, 1)):
            e = _one_block(rng, n, n, r, c)
            vm = valid + frame @ (e + e.transpose()) @ frame.transpose()
            got = _outcome(fixed_vector_to_operator, s, vec(vm))
            assert got[0] == "raised" and got == _outcome(_ambient_square_to_operator, s, vm), (r, c)


def test_each_frame_law_reports_its_own_message():
    s = standard_selfdual(2)
    g = Matrix.from_rows([[1, 2], [I, 0]])
    big = internalize_map(g, s, s).mat
    assert externalize_map(big, s, s) == g
    with pytest.raises(InvariantViolation, match="^map is not equivariant$"):
        externalize_map(I * big, s, s)
    # the swap involution is equivariant but exchanges the icplx eigenspaces
    with pytest.raises(InvariantViolation, match="^map does not commute with icplx$"):
        externalize_map(s.H.inv, s, s)
    rho = random_state(random.Random(63), s)
    vm = unvec(operator_to_fixed_vector(s, rho), 4, 4)
    with pytest.raises(InvariantViolation, match="^vector is not involution-fixed$"):
        fixed_vector_to_operator(s, vec(I * vm))
