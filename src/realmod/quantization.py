"""Quantization of finite sets with involution.

A `RealSet` is a finite set with an involutive permutation tau; a `RealBundle`
puts a coordinate space over each point together with identifications
phi_x: F_x -> F_tau(x) whose antilinear composites square to the identity.
`reflect` sums the fibers into a single module whose involution permutes the
summands through phi; bundle maps reflect to equivariant homs.

The internal complex number algebra (`internal_complex`) is the rank-2 module
with entrywise conjugation as involution and the usual multiplication table;
each monoid axiom is checked as a matrix identity, and commutativity follows
from the unit laws in dimension 2.

Quantization takes a fixed-point-free Real set, reflects its trivial line
bundle, and equips the result with multiplication by i as one diagonal matrix
(+i on each orbit representative's line, -i on the partner's) and the pairing
that matches each point with its partner at weight one.  The self-dual
module's construction is where that complex structure is checked, once.  The
result's extracted Hermitian space is the standard inner product on the orbit
set.  Points fixed by tau admit no equivariant complex structure and are
rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvariantViolation, ShapeError
from .hermitian import SelfDualRealModule, extract_hermitian
from .linalg import Matrix, inverse, kron, place
from .modules import RealModule, RealHom, random_invertible, random_involution
from .scalars import I, ONE, ZERO


# -- internal complex numbers ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InternalComplex:
    """The complex line as a commutative involutive monoid on two coordinates."""

    carrier: RealModule
    mult: Matrix       # 2 x 4
    unit: Matrix       # 2 x 1
    conj_endo: Matrix  # 2 x 2

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        c = self.carrier
        if self.mult.shape != (2, 4) or self.unit.shape != (2, 1):
            raise ShapeError("multiplication must be 2x4 and unit 2x1")
        two = Matrix.identity(2)
        # multiplication and unit are equivariant for the tensor involutions
        # (inv (x) inv on the source of mult, plain conjugation on the unit line)
        if c.dim != 2 or self.mult @ kron(c.inv, c.inv) != c.inv @ self.mult.conj():
            raise InvariantViolation("multiplication is not equivariant")
        if self.unit != c.inv @ self.unit.conj():
            raise InvariantViolation("unit is not equivariant")
        if self.mult @ kron(self.mult, two) != self.mult @ kron(two, self.mult):
            raise InvariantViolation("multiplication is not associative")
        if self.mult @ kron(self.unit, two) != two:
            raise InvariantViolation("left unit law fails")
        if self.mult @ kron(two, self.unit) != two:
            raise InvariantViolation("right unit law fails")
        # commutative: a unital algebra of dimension 2 is spanned by 1 and one x
        if self.conj_endo @ self.mult != self.mult @ kron(self.conj_endo, self.conj_endo):
            raise InvariantViolation("conjugation is not multiplicative")
        if not (self.conj_endo @ self.conj_endo).is_identity():
            raise InvariantViolation("conjugation endo is not involutive")


def internal_complex() -> InternalComplex:
    """Coordinates (real part, imaginary part); involution is conjugation."""
    conj_endo = Matrix.diagonal([ONE, -ONE])
    carrier = RealModule(2, conj_endo)
    mult = Matrix.from_rows([
        [ONE, ZERO, ZERO, -ONE],
        [ZERO, ONE, ONE, ZERO],
    ])
    unit = Matrix.from_rows([[ONE], [ZERO]])
    return InternalComplex(carrier, mult, unit, conj_endo)


# -- finite sets with involution ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class RealSet:
    size: int
    tau: tuple  # involutive permutation of range(size)

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if self.size < 0:
            raise InvariantViolation("size must be nonnegative")
        if sorted(self.tau) != list(range(self.size)):
            raise InvariantViolation("tau is not a permutation")
        for x in range(self.size):
            if self.tau[self.tau[x]] != x:
                raise InvariantViolation("tau is not involutive")

    def fixed_points(self) -> tuple:
        return tuple(x for x in range(self.size) if self.tau[x] == x)

    def orbit_representatives(self) -> tuple:
        """Smallest element of each orbit, ascending."""
        return tuple(x for x in range(self.size) if x <= self.tau[x])


def trivial_realset(n: int) -> RealSet:
    """Every point its own partner."""
    return RealSet(n, tuple(range(n)))


def free_realset(n: int) -> RealSet:
    """n orbit representatives 0..n-1 with partners n..2n-1; no fixed points."""
    return RealSet(2 * n, tuple(list(range(n, 2 * n)) + list(range(n))))


@dataclass(frozen=True, slots=True)
class RealSetMap:
    source: RealSet
    target: RealSet
    values: tuple

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if len(self.values) != self.source.size:
            raise ShapeError("map must assign every point")
        for x, y in enumerate(self.values):
            if not 0 <= y < self.target.size:
                raise InvariantViolation("map leaves the target set")
            if self.values[self.source.tau[x]] != self.target.tau[y]:
                raise InvariantViolation("map does not commute with the involutions")

    def __call__(self, x: int) -> int:
        return self.values[x]


# -- bundles over Real sets --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RealBundle:
    """Coordinate spaces over the points, glued along tau by the phi matrices.

    phi[x] maps the fiber at x to the fiber at tau(x); the antilinear maps
    v -> phi[x] conj(v) compose over an orbit to the identity.
    """

    base: RealSet
    fibers: tuple  # fiber dimensions
    phi: tuple     # phi[x]: fibers[x] -> fibers[tau(x)]

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if len(self.fibers) != self.base.size or len(self.phi) != self.base.size:
            raise ShapeError("one fiber and one identification per point")
        for x in range(self.base.size):
            tx = self.base.tau[x]
            if self.phi[x].shape != (self.fibers[tx], self.fibers[x]):
                raise ShapeError(f"phi[{x}] has the wrong shape")
            if self.phi[tx] @ self.phi[x].conj() != Matrix.identity(self.fibers[x]):
                raise InvariantViolation(f"identification over point {x} does not square to the identity")

    def total_dim(self) -> int:
        return sum(self.fibers)

    def offsets(self) -> tuple:
        out = []
        acc = 0
        for d in self.fibers:
            out.append(acc)
            acc += d
        return tuple(out)


def trivial_line_bundle(base: RealSet) -> RealBundle:
    one = Matrix.identity(1)
    return RealBundle(base, (1,) * base.size, (one,) * base.size)


@dataclass(frozen=True, slots=True)
class RealBundleMap:
    """Fiberwise maps over a map of Real sets, compatible with the gluing."""

    source: RealBundle
    target: RealBundle
    base_map: RealSetMap
    mats: tuple  # mats[x]: source fiber at x -> target fiber at base_map(x)

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if self.base_map.source != self.source.base or self.base_map.target != self.target.base:
            raise InvariantViolation("base map does not match the bundles")
        if len(self.mats) != self.source.base.size:
            raise ShapeError("one fiber map per point")
        f = self.base_map
        for x in range(self.source.base.size):
            tx = self.source.base.tau[x]
            if self.mats[x].shape != (self.target.fibers[f(x)], self.source.fibers[x]):
                raise ShapeError(f"fiber map at {x} has the wrong shape")
            if self.mats[tx] @ self.source.phi[x] != self.target.phi[f(x)] @ self.mats[x].conj():
                raise InvariantViolation(f"fiber maps at point {x} break the gluing")


def identity_base_map(base: RealSet) -> RealSetMap:
    return RealSetMap(base, base, tuple(range(base.size)))


def pushforward(f: RealSetMap, bundle: RealBundle) -> RealBundle:
    """Direct sum over preimages, slots in ascending point order."""
    if bundle.base != f.source:
        raise InvariantViolation("bundle does not live over the map's source")
    # slot[x]: offset of x's fiber inside the fiber over f(x)
    slot, used = [], [0] * f.target.size
    for x in range(f.source.size):
        slot.append(used[f(x)])
        used[f(x)] += bundle.fibers[x]
    fibers = tuple(used)
    phi = tuple(place(fibers[f.target.tau[y]], fibers[y],
                      [(slot[f.source.tau[x]], slot[x], bundle.phi[x])
                       for x in range(f.source.size) if f(x) == y])
                for y in range(f.target.size))
    return RealBundle(f.target, fibers, phi)


def product_realset(a: RealSet, b: RealSet) -> RealSet:
    """Pairs (x, y) flattened as x * b.size + y."""
    tau = tuple(a.tau[x] * b.size + b.tau[y]
                for x in range(a.size) for y in range(b.size))
    return RealSet(a.size * b.size, tau)


def external_tensor(b1: RealBundle, b2: RealBundle) -> RealBundle:
    base = product_realset(b1.base, b2.base)
    fibers = tuple(b1.fibers[x] * b2.fibers[y]
                   for x in range(b1.base.size) for y in range(b2.base.size))
    phi = tuple(kron(b1.phi[x], b2.phi[y])
                for x in range(b1.base.size) for y in range(b2.base.size))
    return RealBundle(base, fibers, phi)


# -- reflection into modules -------------------------------------------------------


def reflect(bundle: RealBundle) -> RealModule:
    """Total space; the involution permutes fiber blocks through phi."""
    d = bundle.total_dim()
    off = bundle.offsets()
    tau = bundle.base.tau
    inv = place(d, d, [(off[tau[x]], off[x], p) for x, p in enumerate(bundle.phi)])
    return RealModule(d, inv)


def reflect_map(bmap: RealBundleMap) -> RealHom:
    src = reflect(bmap.source)
    tgt = src if bmap.target == bmap.source else reflect(bmap.target)
    soff = bmap.source.offsets()
    toff = bmap.target.offsets()
    f = bmap.base_map
    mat = place(tgt.dim, src.dim, [(toff[f(x)], soff[x], m) for x, m in enumerate(bmap.mats)])
    return RealHom(src, tgt, mat)


# -- quantization ------------------------------------------------------------------


def quantize_set(base: RealSet) -> SelfDualRealModule:
    """Self-dual module of a fixed-point-free Real set.

    The pairing matches each point with its partner at weight one, so each
    orbit line has unit norm; the extracted Hermitian space is asserted to be
    the identity gram on the orbits.
    """
    if base.fixed_points():
        raise InvariantViolation("points fixed by the involution admit no complex structure")
    module = reflect(trivial_line_bundle(base))
    reps = set(base.orbit_representatives())
    icplx = Matrix.diagonal([I if x in reps else -I for x in range(base.size)])  # i on the reflected lines
    # the pairing is the tau permutation, symmetric since tau is involutive;
    # a real permutation matrix of an involution is its own inverse, so it is
    # the coevaluation too (the snake identities of the check confirm it)
    s = SelfDualRealModule(module, module.inv, module.inv, icplx)
    h = extract_hermitian(s)
    if h.gram != Matrix.identity(h.dim):
        raise InvariantViolation("quantization did not produce the standard inner product")
    return s


def quantize(n: int) -> SelfDualRealModule:
    """Quantize the free Real set on n orbits: an n-dimensional Hilbert space
    with icplx diag(+i..,-i..) and the partner pairing."""
    return quantize_set(free_realset(n))


def random_realset(rng: random.Random, size: int, free: bool = False) -> RealSet:
    """Random involutive permutation; `free` forbids fixed points (size even)."""
    if free and size % 2:
        raise ValueError("a fixed-point-free involution needs an even size")
    points = list(range(size))
    rng.shuffle(points)
    tau = list(range(size))
    while points:
        x = points.pop()
        if not points:
            break
        if free or rng.random() < 0.7:
            y = points.pop(rng.randrange(len(points)))
            tau[x], tau[y] = y, x
    return RealSet(size, tuple(tau))


def random_real_bundle(rng: random.Random, base: RealSet) -> RealBundle:
    """Random fibers of dimension 1 or 2 with valid gluing: free choice on orbit representatives,
    forced inverse-conjugate on partners, involutive structure on fixed points."""
    dims = [0] * base.size
    phi = [None] * base.size
    for x in base.orbit_representatives():
        tx = base.tau[x]
        d = rng.randrange(1, 3)
        dims[x] = d
        dims[tx] = d
        if tx == x:
            phi[x] = random_involution(rng, d)
        else:
            phi[x] = random_invertible(rng, d)
            phi[tx] = inverse(phi[x].conj())
    return RealBundle(base, tuple(dims), tuple(phi))
