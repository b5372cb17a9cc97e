"""Release gate: the eleven headline guarantees, each timed and reported.

Every check is exact; there are no tolerances anywhere.  Each test prints a
single summary line even under output capture, so a full run reads as a
scoreboard.
"""

import pathlib
import random
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import pytest

from realmod import cli
from realmod.density import (
    channel,
    csmat,
    fixed_locus_real_dimension,
    operator_to_fixed_vector,
    random_state,
)
from realmod.equivalence import (
    complexify,
    diagonalized_complex_structure,
    hermitian_form_on_real_basis,
    hyperbolic_iso,
    inner_to_hermitian_formula,
    inner_to_hermitian_functorial,
    random_isometric_pair,
    random_real_vs,
)
from realmod.hermitian import (
    adjoint_oracle,
    dagger,
    extract_hermitian,
    is_internal_isometry,
    is_unitary,
    make_selfdual,
    random_hermitian_space,
    random_selfdual,
    random_unitary_word,
    standard_selfdual,
)
from realmod.linalg import Matrix, format_matrix, hstack, kron, parse_matrix, rank
from realmod.modules import fixed_points, random_matrix, random_scalar
from realmod.quantization import internal_complex, quantize
from realmod.scalars import I, ONE, Scalar, format_scalar, parse_scalar
from realmod.selftest import run_selftest
from realmod.specfile import parse_spec

DATA = pathlib.Path(__file__).parent / "data"


# Each bound is in seconds on the host that set it, where `_reference()` took
# REFERENCE_S (the median of five runs, Python 3.11, a shared 2-vCPU host).  A
# criterion's time is scaled by REFERENCE_S over the reference's median time
# measured just before it, so a slower host, or a tracer that slows pure-Python
# code alike (`python -m trace --count` slowed both the reference and
# eigenspace splitting about 6x), leaves the verdict unchanged.
REFERENCE_S = 0.0034


def _reference():
    """A fixed pure-Python integer loop."""
    acc = 0
    for i in range(1, 20001):
        acc = (acc * 33 + i * i) % 1000000007
    return acc


def _reference_time():
    times = []
    for _ in range(5):
        t0 = perf_counter()
        _reference()
        times.append(perf_counter() - t0)
    return median(times)


@contextmanager
def criterion(capsys, name, bound=None):
    scale = REFERENCE_S / _reference_time()
    t0 = perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {name}: FAIL")
        raise
    dt = (perf_counter() - t0) * scale
    in_budget = bound is None or dt < bound
    verdict = "pass" if in_budget else "FAIL"
    suffix = f"{dt:.2f}s scaled" + (f", bound {bound:g}s" if bound is not None else "")
    with capsys.disabled():
        print(f"acceptance {name}: {verdict} ({suffix})")
    assert in_budget, f"{name} took {dt:.2f}s scaled, over the {bound:g}s budget"


def test_00_a_criterion_over_its_bound_fails(capsys):
    with pytest.raises(AssertionError, match="over the 0.0034s budget"):
        with criterion(capsys, "a criterion over its bound (must FAIL)", bound=REFERENCE_S):
            for _ in range(10):
                _reference()


def test_01_real_complex_round_trip(capsys):
    """Fixing the points of a complexified real space gives back the space,
    through the identity comparison map, for 100 seeded random spaces."""
    with criterion(capsys, "real-complex round trip", bound=1.0):
        rng = random.Random(1001)
        for _ in range(100):
            n = rng.randrange(1, 5)
            space = random_real_vs(rng, n)
            fp = fixed_points(complexify(space))
            assert fp == Matrix.identity(n)


def test_02_eigenspace_splitting(capsys):
    """The complexification splits along the complex structure: both
    composites are exact identities and the coordinates diagonalize J."""
    with criterion(capsys, "eigenspace splitting", bound=1.0):
        rng = random.Random(1002)
        for _ in range(100):
            space = random_isometric_pair(rng, rng.choice((2, 4)))
            iso = hyperbolic_iso(space)
            assert (iso.forward.mat @ iso.inverse.mat).is_identity()
            assert (iso.inverse.mat @ iso.forward.mat).is_identity()
            iso.forward.check()
            d = diagonalized_complex_structure(space)
            half = space.dim // 2
            for k in range(half):
                assert d[k, k] == -I and d[half + k, half + k] == I


def test_03_two_routes_to_the_form(capsys):
    """The closed formula for the Hermitian form agrees exactly with the
    route through the eigenspace splitting, on 100 isometric pairs."""
    with criterion(capsys, "two routes to the form", bound=5.0):
        rng = random.Random(1003)
        for _ in range(100):
            space = random_isometric_pair(rng, rng.choice((2, 4)))
            a = inner_to_hermitian_formula(space)
            b = inner_to_hermitian_functorial(space)
            assert a.gram == b.gram
            hermitian_form_on_real_basis(space)  # raises unless its two routes agree


def test_04_form_axioms(capsys):
    """Every gram this library produces is conjugate-symmetric and pairs
    sesquilinearly, checked on random vectors."""
    with criterion(capsys, "form axioms"):
        rng = random.Random(1004)
        spaces = [inner_to_hermitian_formula(random_isometric_pair(rng, rng.choice((2, 4))))
                  for _ in range(30)]
        spaces += [extract_hermitian(random_selfdual(rng, rng.randrange(1, 4)))
                   for _ in range(30)]
        spaces += [extract_hermitian(quantize(n)) for n in range(1, 5)]
        for h in spaces:
            assert h.gram.conj_transpose() == h.gram
            v = random_matrix(rng, h.dim, 1)
            w = random_matrix(rng, h.dim, 1)
            z = random_scalar(rng)
            assert h.pair(z * v, w) == z.conj() * h.pair(v, w)
            assert h.pair(v, z * w) == z * h.pair(v, w)
            assert h.pair(v, w) == h.pair(w, v).conj()


def test_05_adjoint_from_duality(capsys):
    """The adjoint computed from the self-duality data satisfies the pairing
    law on all basis pairs, matches the gram oracle, and is an involutive
    contravariant operation; 100 random maps on dimensions 1 to 3."""
    with criterion(capsys, "adjoint from duality", bound=5.0):
        rng = random.Random(1005)
        for _ in range(100):
            n = rng.randrange(1, 4)
            h1 = random_hermitian_space(rng, n)
            h2 = random_hermitian_space(rng, n)
            s1, s2 = make_selfdual(h1), make_selfdual(h2)
            g = random_matrix(rng, n, n)
            d = dagger(g, s1, s2)
            assert d == adjoint_oracle(g, h1, h2)
            for a in range(n):
                for b in range(n):
                    ea = Matrix.column([ONE if k == a else Scalar() for k in range(n)])
                    eb = Matrix.column([ONE if k == b else Scalar() for k in range(n)])
                    assert h1.pair(ea, d @ eb) == h2.pair(g @ ea, eb)
            assert dagger(d, s2, s1) == g
            f = random_matrix(rng, n, n)
            assert dagger(f @ g, s1, s1) == d @ dagger(f, s2, s1)


def test_06_unitarity_verdicts(capsys):
    """The pairing-preservation verdict and the adjoint-inverse verdict agree
    on 100 gates, half of them exact words in Hadamard, phase, and
    permutation gates (which must all come out unitary)."""
    with criterion(capsys, "unitarity verdicts", bound=2.0):
        rng = random.Random(1006)
        for k in range(100):
            n = rng.randrange(1, 4)
            s = standard_selfdual(n)
            if k % 2 == 0:
                g = random_unitary_word(rng, n)
                assert is_unitary(g, s, s)
            else:
                g = random_matrix(rng, n, n)
                # agreement of the two routes is asserted inside
                is_internal_isometry(g, s, s)


def test_07_symmetric_matrix_locus(capsys):
    """The internally symmetric matrices form an n^2-dimensional space whose
    involution-fixed locus has real dimension n^2, and the standard basis of
    self-adjoint operators maps onto an independent spanning set."""
    with criterion(capsys, "symmetric-matrix locus", bound=2.0):
        for n in (1, 2, 3):
            s = standard_selfdual(n)
            space = csmat(s)
            assert space.dim == n * n
            assert fixed_locus_real_dimension(space) == n * n
            ops = []
            for i in range(n):
                for j in range(n):
                    e = [[Scalar() for _ in range(n)] for _ in range(n)]
                    if i == j:
                        e[i][i] = ONE
                    elif i < j:
                        e[i][j] = ONE
                        e[j][i] = ONE
                    else:
                        e[i][j] = I
                        e[j][i] = -I
                    ops.append(Matrix.from_rows(e))
            vectors = hstack([operator_to_fixed_vector(s, op) for op in ops])
            assert rank(vectors) == n * n


def test_08_state_transport(capsys):
    """Conjugation transport of states: exact agreement of the operator and
    vector routes, hermiticity preservation, trace preservation under
    unitaries, and functoriality; 100 cases on dimension 2."""
    with criterion(capsys, "state transport", bound=2.0):
        rng = random.Random(1008)
        s = standard_selfdual(2)
        for k in range(100):
            rho = random_state(rng, s, normalized=True)
            if k % 2 == 0:
                g1 = random_unitary_word(rng, 2)
                assert channel(g1, rho, s).trace() == rho.trace()
            else:
                g1 = random_matrix(rng, 2, 2)
            out = channel(g1, rho, s)  # route agreement asserted inside
            assert extract_hermitian(s).is_self_adjoint(out)
            g2 = random_unitary_word(rng, 2)
            assert channel(g2, out, s) == channel(g2 @ g1, rho, s)


def test_09_internal_complex_numbers(capsys):
    """The two-dimensional swap module is a commutative monoid object whose
    conjugation is an algebra automorphism negating the imaginary unit."""
    with criterion(capsys, "internal complex numbers", bound=0.1):
        c = internal_complex()
        c.check()
        i_col = Matrix.column([Scalar(), ONE])
        assert c.mult @ kron(i_col, i_col) == -c.unit
        assert c.conj_endo @ i_col == -i_col


def test_10_set_quantization(capsys):
    """Quantizing a single point gives the rank-one space with unit norm
    +1; quantizing n points gives the standard n-dimensional space, with
    every structural identity holding exactly."""
    with criterion(capsys, "set quantization", bound=1.0):
        single = quantize(1)
        single.check()
        assert single.H.dim == 2
        assert single.H.inv == Matrix.from_rows([[0, 1], [1, 0]])
        h = extract_hermitian(single)
        assert h.dim == 1 and h.gram == Matrix.identity(1)
        for n in range(2, 5):
            s = quantize(n)
            s.check()
            assert extract_hermitian(s).gram.is_identity()


def test_11_report_determinism(capsys):
    """Byte-identical command reports across two runs over the whole input
    corpus, canonical text that parses back exactly, and the full property
    suite finishing inside a minute."""
    runs = [
        ("qubit.spec", "check", None),
        ("qubit.spec", "hermitian", "h2"),
        ("qubit.spec", "dagger", "had"),
        ("qubit.spec", "unitary", "had"),
        ("qubit.spec", "channel", "spread"),
        ("qubit.spec", "channel", "smear"),
        ("qubit.spec", "quantize", "pair"),
        ("indefinite.spec", "check", None),
        ("indefinite.spec", "hermitian", "skew"),
        ("indefinite.spec", "dagger", "blip"),
        ("indefinite.spec", "unitary", "boost"),
        ("indefinite.spec", "channel", "push"),
        ("sets.spec", "check", None),
        ("sets.spec", "quantize", "triple"),
        ("sets.spec", "hermitian", "single"),
    ]
    with criterion(capsys, "report determinism"):
        for name, command, target in runs:
            text = (DATA / name).read_text()
            first = cli.run(parse_spec(text), command, target)
            second = cli.run(parse_spec(text), command, target)
            assert "\n".join(first[0]).encode() == "\n".join(second[0]).encode()
            assert first[1] == second[1]
        rng = random.Random(1011)
        for _ in range(200):
            z = random_scalar(rng)
            assert parse_scalar(format_scalar(z)) == z
        for _ in range(50):
            m = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
            assert parse_matrix(format_matrix(m)) == m
    with criterion(capsys, "property suites", bound=60.0):
        results = run_selftest(seed=0, cases=100)
        assert all(r.passed for r in results), [r.failure for r in results if not r.passed]
