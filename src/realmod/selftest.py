"""Seeded property suites covering every library invariant.

Each suite draws its own generator from the global seed and its name, so
results are reproducible for a given (seed, cases) pair and independent of
suite order.  `run_selftest` returns one result per suite; a suite fails on
the first violated property and reports the message.

The suites are the machine-checkable content of the library: field axioms of
the scalars, exactness of the linear algebra, equivariance of module maps,
the equivalence with real vector spaces, agreement of the two Hermitian
extraction routes, the emergent adjoint and its laws, channel transport,
the internal complex numbers, and quantization of finite sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import density, equivalence, hermitian, linalg, modules, quantization, specfile
from .errors import RUN_ERRORS, InvariantViolation
from .linalg import Matrix, inverse, kernel_basis, kron, kron_swap, rank, rref, solve, vec, unvec
from .scalars import I, ONE, SQRT2, ZERO, Scalar, format_scalar, parse_scalar, ScalarParseError


def _check(condition: bool, message: str) -> None:
    """Fail the suite; unlike `assert`, this survives `python -O`."""
    if not condition:
        raise AssertionError(message)


@dataclass(frozen=True, slots=True)
class SuiteResult:
    name: str
    cases: int
    failure: str | None

    @property
    def passed(self) -> bool:
        return self.failure is None


def _suite_scalars_field(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(cases * 10):
        x = modules.random_scalar(rng)
        y = modules.random_scalar(rng)
        z = modules.random_scalar(rng)
        _check((x + y) + z == x + (y + z), "addition is not associative")
        _check(x * y == y * x, "multiplication is not commutative")
        _check((x * y) * z == x * (y * z), "multiplication is not associative")
        _check(x * (y + z) == x * y + x * z, "distributivity fails")
        _check((x * y).conj() == x.conj() * y.conj(), "conjugation is not multiplicative")
        _check(x.conj().conj() == x, "conjugation is not involutive")
        _check(x + (-x) == ZERO, "additive inverse fails")
        if x != ZERO:
            _check(x * x.inv() == ONE, "multiplicative inverse fails")
        r = modules.random_real_scalar(rng)
        _check(r.sign_real() == -((-r).sign_real()), "sign is not odd")
        if r != ZERO:
            _check((r * r).sign_real() == 1, "squares are not positive")
        ran += 1
    _check(I * I == -ONE, "i^2 != -1")
    _check(SQRT2 * SQRT2 == Scalar(2), "sqrt2^2 != 2")
    return ran


def _suite_scalars_text(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(cases * 10):
        x = modules.random_scalar(rng)
        text = format_scalar(x)
        _check(parse_scalar(text) == x, f"round trip failed for {text}")
        _check(format_scalar(parse_scalar(text)) == text, f"canonical form unstable for {text}")
        ran += 1
    for bad in ("1//2", "i*i", "r2r2", "", "1/0", "2+"):
        try:
            parse_scalar(bad)
        except ScalarParseError:
            pass
        else:
            raise AssertionError(f"{bad!r} should not parse")
    return ran


def _suite_linalg_solve(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(cases):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        a = modules.random_matrix(rng, m, n)
        x = modules.random_matrix(rng, n, 1)
        b = a @ x
        got = solve(a, b)
        _check(got is not None and a @ got == b, "solve missed a consistent system")
        k = kernel_basis(a)
        _check(rank(a) + k.cols == n, "rank-nullity fails")
        _check((a @ k).is_zero(), "kernel vector not annihilated")
        r, _ = rref(a)
        _check(rref(r)[0] == r, "reduction is not idempotent")
        p = modules.random_invertible(rng, n)
        q = modules.random_invertible(rng, n)
        _check((p @ inverse(p)).is_identity(), "inverse fails")
        _check(linalg.det(p @ q) == linalg.det(p) * linalg.det(q), "det is not multiplicative")
        _check(linalg.det(p) != ZERO, "invertible matrix with zero det")
        ran += 1
    return ran


def _suite_linalg_tensor(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(cases):
        d1 = rng.randrange(1, 4)
        d2 = rng.randrange(1, 4)
        a = modules.random_matrix(rng, d1, d1)
        b = modules.random_matrix(rng, d2, d2)
        c = modules.random_matrix(rng, d1, d1)
        d = modules.random_matrix(rng, d2, d2)
        _check(kron(a @ c, b @ d) == kron(a, b) @ kron(c, d), "mixed product fails")
        u = modules.random_matrix(rng, d1, 1)
        v = modules.random_matrix(rng, d2, 1)
        s = kron_swap(d1, d2)
        _check(s @ kron(u, v) == kron(v, u), "braid does not swap factors")
        _check((kron_swap(d2, d1) @ s).is_identity(), "braid is not involutive")
        x = modules.random_matrix(rng, d1, d2)
        _check(kron(a, b) @ vec(x) == vec(a @ x @ b.transpose()), "vec identity fails")
        _check(unvec(vec(x), d1, d2) == x, "unvec does not invert vec")
        ran += 1
    return ran


def _suite_modules(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(cases):
        n1 = rng.randrange(1, 4)
        n2 = rng.randrange(1, 4)
        m1 = modules.random_real_module(rng, n1)
        m2 = modules.random_real_module(rng, n2)
        v = modules.random_matrix(rng, n1, 1)
        _check(m1.involution(m1.involution(v)) == v, "involution is not involutive")
        f = modules.random_real_hom(rng, m1, m2)
        g = modules.random_real_hom(rng, m2, m1)
        modules.compose(f, g)  # each hom is checked as it is built
        modules.tensor_hom(f, g)
        br = modules.braiding(m1, m2)
        back = modules.braiding(m2, m1)
        _check((back.mat @ br.mat).is_identity(), "braiding squared is not the identity")
        basis = modules.fixed_points(m1)
        _check(basis.cols == n1, "fixed points have the wrong dimension")
        _check(m1.inv @ basis.conj() == basis, "fixed basis is not fixed")
        _check(rank(basis) == n1, "fixed basis does not span")
        ran += 1
    return ran


def _suite_equiv_roundtrip(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(cases):
        n = rng.randrange(1, 5)
        space = equivalence.random_real_vs(rng, n)
        fp = modules.fixed_points(equivalence.complexify(space))
        _check(fp.is_identity(), "round trip is not the identity")
        ran += 1
    return ran


def _suite_equiv_hyperbolic(rng: random.Random, cases: int) -> int:
    ran = 0
    for k in range(cases):
        n = 2 if k % 2 == 0 else 4
        space = equivalence.random_isometric_pair(rng, n)
        diag = equivalence.diagonalized_complex_structure(space)
        half = n // 2
        _check(diag == Matrix.diagonal([-I] * half + [I] * half), "J does not diagonalize to diag(-i, +i)")
        ran += 1
    return ran


def _suite_equiv_central(rng: random.Random, cases: int) -> int:
    ran = 0
    for k in range(cases):
        n = 2 if k % 2 == 0 else 4
        space = equivalence.random_isometric_pair(rng, n)
        equivalence.inner_to_hermitian_functorial(space)  # asserts the formula route agrees
        f = equivalence.hermitian_form_on_real_basis(space)  # asserts its two routes agree
        _check(f @ space.J == I * f, "form is not right-linear over J")
        _check(space.J.transpose() @ f == -I * f, "form is not left-antilinear over J")
        ran += 1
    return ran


def _suite_hermitian_extract(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(max(1, cases // 2)):
        n = rng.randrange(1, 4)
        h = hermitian.random_hermitian_space(rng, n)
        s = hermitian.make_selfdual(h)
        _check(hermitian.extract_hermitian(s).gram == h.gram, "make/extract round trip fails")
        t = modules.random_invertible(rng, 2 * n)
        s2 = hermitian.conjugate_selfdual(s, t)
        g = modules.random_matrix(rng, n, n)
        hom = hermitian.internalize_map(g, s2, s2)
        _check(hermitian.externalize_map(hom.mat, s2, s2) == g, "internalize round trip fails")
        ran += 1
    return ran


def _suite_hermitian_dagger(rng: random.Random, cases: int) -> int:
    structures = {}
    ran = 0
    for k in range(cases):
        n = (k % 3) + 1
        key = (n, k % 5)
        if key not in structures:
            structures[key] = hermitian.random_selfdual(rng, n)
        s = structures[key]
        h = hermitian.extract_hermitian(s)
        g = modules.random_matrix(rng, n, n)
        d = hermitian.dagger(g, s, s)  # internally asserts the adjoint law
        _check(d == hermitian.adjoint_oracle(g, h, h), "dagger disagrees with the gram oracle")
        _check(hermitian.dagger(d, s, s) == g, "dagger is not involutive")
        g2 = modules.random_matrix(rng, n, n)
        _check(hermitian.dagger(g2 @ g, s, s) == d @ hermitian.dagger(g2, s, s),
               "dagger is not contravariant")
        ran += 1
    return ran


def _suite_hermitian_unitary(rng: random.Random, cases: int) -> int:
    ran = 0
    std = {n: hermitian.standard_selfdual(n) for n in (2, 3)}
    for k in range(cases):
        if k % 2 == 0:
            n = 2 if k % 4 == 0 else 3
            s = std[n]
            g = hermitian.random_unitary_word(rng, n)
            _check(hermitian.is_internal_isometry(g, s, s), "unitary word judged non-isometric")
            _check(hermitian.is_unitary(g, s, s), "unitary word judged non-unitary")
        else:
            n = rng.randrange(1, 4)
            s = hermitian.random_selfdual(rng, n)
            g = modules.random_matrix(rng, n, n)
            hermitian.is_internal_isometry(g, s, s)  # asserts agreement with the dagger test
        ran += 1
    return ran


def _suite_density_dims(rng: random.Random, cases: int) -> int:
    ran = 0
    for n in (1, 2, 3):
        sp = density.csmat(hermitian.standard_selfdual(n))  # asserts its dimension n^2
        _check(density.fixed_locus_real_dimension(sp) == n * n, "fixed locus dimension is wrong")
        ran += 1
    sp = density.csmat(hermitian.random_selfdual(rng, 2))
    _check(density.fixed_locus_real_dimension(sp) == 4,
           "conjugated structure has the wrong fixed locus dimension")
    ran += 1
    return ran


def _suite_density_channel(rng: random.Random, cases: int) -> int:
    ran = 0
    std = hermitian.standard_selfdual(2)
    other = hermitian.random_selfdual(rng, 2)
    for k in range(cases):
        s = std if k % 2 == 0 else other
        # normalization needs a positive-trace state, which only the
        # definite standard form guarantees
        rho = density.random_state(rng, s, normalized=(k % 2 == 0))
        vector = density.operator_to_fixed_vector(s, rho)
        _check(density.fixed_vector_to_operator(s, vector) == rho, "state round trip fails")
        if k % 2 == 0:
            g1 = hermitian.random_unitary_word(rng, 2)
            g2 = hermitian.random_unitary_word(rng, 2)
        else:
            g1 = modules.random_matrix(rng, 2, 2)
            g2 = modules.random_matrix(rng, 2, 2)
        step = density.channel(g1, rho, s)       # asserts route agreement internally
        both = density.channel(g2, step, s)
        _check(both == density.channel(g2 @ g1, rho, s), "channel is not functorial")
        if k % 2 == 0:
            # step is gram-self-adjoint: the transport route returns only
            # states, and `channel` returns step only once both routes agree
            _check(step.trace() == rho.trace(), "unitary channel changed the trace")
        cert = density.positivity_certificate(s, rho)
        _check(cert != "no", "mixture of pure states certified negative")
        ran += 1
    return ran


def _suite_quant_internal(rng: random.Random, cases: int) -> int:
    ic = quantization.internal_complex()  # its construction checks every monoid axiom
    i_col = Matrix.from_rows([[ZERO], [ONE]])
    minus_unit = -ic.unit
    _check(ic.mult @ kron(i_col, i_col) == minus_unit, "i^2 != -1 internally")
    _check(ic.conj_endo @ i_col == -i_col, "conjugation does not negate i")
    return 1


def _suite_quant_bundles(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(max(1, cases // 5)):
        base = quantization.random_realset(rng, rng.randrange(1, 5))
        bundle = quantization.random_real_bundle(rng, base)
        m = quantization.reflect(bundle)
        _check(m.dim == bundle.total_dim(), "reflection has the wrong dimension")
        ident = quantization.RealBundleMap(
            bundle, bundle, quantization.identity_base_map(base),
            tuple(Matrix.identity(d) for d in bundle.fibers))
        _check(quantization.reflect_map(ident).mat.is_identity(),
               "identity bundle map does not reflect to the identity")
        other = quantization.random_real_bundle(rng, base)
        et = quantization.external_tensor(bundle, other)
        _check(et.total_dim() == bundle.total_dim() * other.total_dim(),
               "external tensor dimension is wrong")
        collapse = quantization.RealSetMap(
            base, quantization.trivial_realset(1), (0,) * base.size)
        pf = quantization.pushforward(collapse, bundle)
        _check(pf.total_dim() == bundle.total_dim(), "pushforward lost dimensions")
        ran += 1
    return ran


def _suite_quant_quantize(rng: random.Random, cases: int) -> int:
    ran = 0
    for n in (1, 2, 3, 4):
        # quantize_set asserts that the gram is the identity
        h = hermitian.extract_hermitian(quantization.quantize(n))
        _check(h.dim == n, "quantization has the wrong dimension")
        ran += 1
    for _ in range(max(1, cases // 10)):
        quantization.quantize_set(quantization.random_realset(rng, 2 * rng.randrange(1, 4), free=True))
        ran += 1
    try:
        quantization.quantize_set(quantization.trivial_realset(1))
    except InvariantViolation:
        pass
    else:
        raise AssertionError("fixed point was not rejected")
    return ran


def _suite_cli_roundtrip(rng: random.Random, cases: int) -> int:
    ran = 0
    for _ in range(cases):
        n = rng.randrange(1, 4)
        mat = modules.random_matrix(rng, n, n)
        text = linalg.format_matrix(mat)
        spec = specfile.parse_spec(
            f"hermitian q dim={n} gram={linalg.format_matrix(Matrix.identity(n))}\n"
            f"gate g on=q mat={text}\n")
        _check(spec.find("gate", "g").fields["mat"] == mat, "matrix round trip through a stanza fails")
        ran += 1
    for bad, what in (("hermitian q dim=2 gram=1//2,0;0,1", "scalar"),
                      ("gate g on=missing mat=1", "reference"),
                      ("module m dim=1 inv=1\nmodule m dim=1 inv=1", "duplicate")):
        try:
            specfile.parse_spec(bad)
        except specfile.SpecFileError:
            pass
        else:
            raise AssertionError(f"bad input ({what}) should not parse")
    return ran


_SUITES = (
    ("scalars.field", _suite_scalars_field),
    ("scalars.text", _suite_scalars_text),
    ("linalg.solve", _suite_linalg_solve),
    ("linalg.tensor", _suite_linalg_tensor),
    ("modules.real", _suite_modules),
    ("equivalence.roundtrip", _suite_equiv_roundtrip),
    ("equivalence.hyperbolic", _suite_equiv_hyperbolic),
    ("equivalence.central", _suite_equiv_central),
    ("hermitian.extract", _suite_hermitian_extract),
    ("hermitian.dagger", _suite_hermitian_dagger),
    ("hermitian.unitary", _suite_hermitian_unitary),
    ("density.dimensions", _suite_density_dims),
    ("density.channel", _suite_density_channel),
    ("quantization.internal", _suite_quant_internal),
    ("quantization.bundles", _suite_quant_bundles),
    ("quantization.quantize", _suite_quant_quantize),
    ("cli.roundtrip", _suite_cli_roundtrip),
)


def run_selftest(seed: int = 0, cases: int = 100) -> tuple:
    """Run every suite with its own deterministic generator.

    A suite that ran no case fails: a verdict must never pass vacuously.
    """
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    results = []
    for name, fn in _SUITES:
        rng = random.Random(f"{seed}:{name}")
        try:
            ran = fn(rng, cases)
            results.append(SuiteResult(name, ran, None if ran else "no case ran"))
        except (AssertionError, *RUN_ERRORS) as exc:
            results.append(SuiteResult(name, 0, str(exc) or exc.__class__.__name__))
    return tuple(results)
