"""Every checked type is valid by construction: building an object that breaks
one of its laws raises the exception, with the message, that its `check`
raises, so no object that exists has skipped its laws."""

import importlib
import pkgutil

import pytest

import realmod
from realmod.equivalence import RealVS
from realmod.errors import InvariantViolation
from realmod.hermitian import HermitianSpace, SelfDualRealModule, standard_selfdual
from realmod.linalg import Matrix
from realmod.modules import RealHom, RealModule
from realmod.quantization import (
    InternalComplex,
    RealBundle,
    RealBundleMap,
    RealSet,
    RealSetMap,
    free_realset,
    identity_base_map,
    internal_complex,
    trivial_line_bundle,
)
from realmod.scalars import I

SWAP = Matrix.from_rows([[0, 1], [1, 0]])
ONE_BY_ONE = Matrix.identity(1)
LINE = trivial_line_bundle(free_realset(1))


def _selfdual_with_icplx(icplx):
    s = standard_selfdual(1)
    return SelfDualRealModule(s.H, s.pairing, s.coev, icplx)


def _internal_complex_with_conj(conj_endo):
    c = internal_complex()
    return InternalComplex(c.carrier, c.mult, c.unit, conj_endo)


# (type, builder of one instance that breaks a law, exception, message of `check`)
INVALID = [
    (RealModule, lambda: RealModule(2, Matrix.from_rows([[0, I], [-I, 0]])),
     InvariantViolation, "involutivity: inv*conj(inv) != I"),
    (RealHom, lambda: RealHom(RealModule(2, SWAP), RealModule(2, SWAP), I * Matrix.identity(2)),
     InvariantViolation, "equivariance: mat*inv_src != inv_tgt*conj(mat)"),
    (HermitianSpace, lambda: HermitianSpace(2, Matrix.from_rows([[1, 1], [1, 1]])),
     InvariantViolation, "gram is degenerate"),
    (SelfDualRealModule, lambda: _selfdual_with_icplx(Matrix.identity(2)),
     InvariantViolation, "icplx^2 != -I"),
    (RealVS, lambda: RealVS(2, Matrix.from_rows([[1, 1], [1, 1]]), None),
     InvariantViolation, "g must be nondegenerate"),
    (InternalComplex, lambda: _internal_complex_with_conj(-Matrix.identity(2)),
     InvariantViolation, "conjugation is not multiplicative"),
    (RealSet, lambda: RealSet(3, (1, 2, 0)),
     InvariantViolation, "tau is not involutive"),
    (RealSetMap, lambda: RealSetMap(free_realset(2), free_realset(1), (0, 0, 0, 1)),
     InvariantViolation, "map does not commute with the involutions"),
    (RealBundle, lambda: RealBundle(free_realset(1), (1, 1), (ONE_BY_ONE, 2 * ONE_BY_ONE)),
     InvariantViolation, "identification over point 0 does not square to the identity"),
    (RealBundleMap, lambda: RealBundleMap(LINE, LINE, identity_base_map(LINE.base), (I * ONE_BY_ONE,) * 2),
     InvariantViolation, "fiber maps at point 0 break the gluing"),
]


@pytest.mark.parametrize("cls, build, exc, message", INVALID, ids=[row[0].__name__ for row in INVALID])
def test_an_object_that_breaks_a_law_cannot_be_built(cls, build, exc, message):
    with pytest.raises(exc) as caught:
        build()
    assert type(caught.value) is exc
    assert str(caught.value) == message


def test_the_table_covers_every_public_checked_type():
    layers = [importlib.import_module(f"realmod.{m.name}") for m in pkgutil.iter_modules(realmod.__path__)]
    checked = {obj for layer in layers for name, obj in vars(layer).items()
               if isinstance(obj, type) and obj.__module__ == layer.__name__
               and not name.startswith("_") and hasattr(obj, "check")}
    assert checked == {row[0] for row in INVALID}
    assert len(INVALID) == len(checked) == 10
