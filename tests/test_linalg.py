"""Exact matrices: arithmetic, elimination, tensor calculus, text form."""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realmod import linalg
from realmod.errors import InvariantViolation, ShapeError, SingularMatrixError
from realmod.hermitian import _internalize_raw, make_selfdual, random_hermitian_space
from realmod.linalg import (
    Matrix,
    MatrixParseError,
    block_diag,
    det,
    format_matrix,
    hstack,
    inertia,
    inverse,
    kernel_basis,
    kron,
    kron_swap,
    parse_matrix,
    place,
    rank,
    realify,
    rref,
    solve,
    unvec,
    vec,
    vstack,
)
from realmod.modules import random_invertible, random_matrix
from realmod.scalars import MAX_LITERAL_LENGTH, I, ONE, SQRT2, ZERO, Scalar, format_scalar, parse_scalar


def test_constructors_and_shape_checks():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 0] == Scalar(3)
    assert Matrix.identity(2) @ m == m
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1]]) @ Matrix.from_rows([[1, 2], [3, 4]])


def test_matrices_print_compare_and_pickle():
    m = Matrix.from_rows([[1, I], [Fraction(1, 2), 0]])
    assert str(m) == "1,1*i;1/2,0" and repr(m) == "Matrix('1,1*i;1/2,0')"
    assert m.__eq__(1) is NotImplemented and m != 1
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert type(copied) is Matrix and copied == m and hash(copied) == hash(m)


def test_arithmetic_against_hand_values():
    a = Matrix.from_rows([[1, I], [0, SQRT2]])
    b = Matrix.from_rows([[ONE, ONE], [ONE, -ONE]])
    assert a + b == Matrix.from_rows([[2, Scalar(1, 0, 1)], [1, Scalar(-1, 1)]])
    assert (a @ b)[0, 0] == Scalar(1, 0, 1)
    assert (SQRT2 * a)[1, 1] == Scalar(2)
    assert a.conj_transpose()[1, 0] == -I
    assert -a + a == Matrix.zero(2, 2)


# -- the product kernels against a per-entry Scalar reference -------------------

_ENTRY_POOL = (
    Scalar(0, Fraction(1, 3)),             # 1/3*r2
    Scalar(0, 0, Fraction(1, 2)),          # 1/2*i
    Scalar(Fraction(-2, 3), 0, 0, 1),      # -2/3 + i*r2
    Scalar(1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 4)),
    ONE, -ONE, I, SQRT2, Scalar(3),
)


def _sparse_matrix(rng, rows, cols):
    """About half zeros, one whole zero row and column when there is room.

    Some zeros are fresh objects rather than the shared ZERO, so the kernels'
    identity shortcut cannot stand in for the numeric test.
    """
    zero_row = rng.randrange(rows) if rows > 1 else None
    zero_col = rng.randrange(cols) if cols > 1 else None
    out = []
    for i in range(rows):
        for j in range(cols):
            if i == zero_row or j == zero_col or rng.random() < 0.5:
                out.append(rng.choice((ZERO, Scalar(), ONE - ONE)))
            else:
                out.append(rng.choice(_ENTRY_POOL) * rng.choice((1, -2, Fraction(1, 5))))
    return Matrix(rows, cols, tuple(out))


def _naive_matmul(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = ZERO
            for t in range(a.cols):
                total = total + a[i, t] * b[t, j]
            out.append(total)
    return Matrix(a.rows, b.cols, tuple(out))


def _naive_kron(a, b):
    return Matrix(a.rows * b.rows, a.cols * b.cols, tuple(
        a[i1, j1] * b[i2, j2]
        for i1 in range(a.rows) for i2 in range(b.rows)
        for j1 in range(a.cols) for j2 in range(b.cols)))


def _is_normal(x):
    return x.den > 0 and gcd(x.na, x.nb, x.nc, x.nd, x.den) == 1


def test_products_agree_with_the_per_entry_reference():
    rng = random.Random(29)
    for _ in range(200):
        n, k, m = (rng.randrange(1, 8) for _ in range(3))
        a = _sparse_matrix(rng, n, k)
        b = _sparse_matrix(rng, k, m)
        got = a @ b
        assert got == _naive_matmul(a, b)
        assert all(_is_normal(x) for x in got.entries)
        c = _sparse_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        got = kron(a, c)
        assert got == _naive_kron(a, c)
        assert all(_is_normal(x) for x in got.entries)


def test_cancelling_products_give_canonical_zero():
    x = Scalar(Fraction(1, 3), 0, Fraction(1, 2), Fraction(-1, 7))
    cases = (
        (Matrix.from_rows([[1, 1]]), Matrix.column([x, -x])),
        # equal values over different denominators: 1/2 * 2/3 - 1/3 * 1
        (Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]]), Matrix.column([Fraction(2, 3), -1])),
        (Matrix.from_rows([[I, SQRT2, 1]]), Matrix.column([I, SQRT2, -1])),  # -1 + 2 - 1
    )
    for a, b in cases:
        z = (a @ b)[0, 0]
        assert z == ZERO
        assert (z.na, z.nb, z.nc, z.nd, z.den) == (0, 0, 0, 0, 1)
    # a partial cancellation still lands in lowest terms: 1/6 + 1/3 = 1/2
    half = (Matrix.from_rows([[Fraction(1, 2), Fraction(1, 2)]])
            @ Matrix.column([Fraction(1, 3), Fraction(2, 3)]))[0, 0]
    assert (half.na, half.nb, half.nc, half.nd, half.den) == (1, 0, 0, 0, 2)


def test_products_of_empty_shapes():
    b = Matrix.from_rows([[1, I], [SQRT2, 0], [2, 3]])
    assert Matrix(0, 3, ()) @ b == Matrix(0, 2, ())
    assert Matrix(2, 0, ()) @ Matrix(0, 4, ()) == Matrix.zero(2, 4)
    assert kron(Matrix(0, 2, ()), b) == Matrix(0, 4, ())
    assert kron(b, Matrix(0, 2, ())) == Matrix(0, 4, ())
    assert kron(b, Matrix(1, 0, ())) == Matrix(3, 0, ())
    assert kron(Matrix(2, 0, ()), b) == Matrix(6, 0, ())
    assert kron(Matrix.zero(2, 1), b) == Matrix.zero(6, 2)
    assert kron(b, Matrix.zero(1, 2)) == Matrix.zero(3, 4)


def test_kron_shortcuts_agree_with_the_per_entry_reference():
    # B's rows of all 1s take A's value as it is, a repeated value of A
    # reuses B's rows scaled once, a row of A with several entries joins its
    # shifted parts, and a zero row of either factor gives zero rows
    half = Scalar(Fraction(1, 2))
    a = Matrix.from_rows([[half, 0, half, I], [0, 0, 0, 0], [SQRT2, half, 0, SQRT2], [0, I, 0, 0]])
    b = Matrix.from_rows([[1, 0, 1], [0, 0, 0], [I, 1, half], [0, 1, 0]])
    for x, y in ((a, b), (b, a), (a, a), (a, Matrix.identity(3)), (Matrix.identity(2), a),
                 (a, kron_swap(2, 2)), (kron_swap(2, 3), b), (a, vec(b)), (vec(a).transpose(), b)):
        got = kron(x, y)
        assert got == _naive_kron(x, y)
        assert all(_is_normal(e) for e in got.entries)


def test_kron_with_an_identity_factor_forms_no_product(monkeypatch):
    x = Matrix.from_rows([[Fraction(1, 2), I, 0], [0, SQRT2, 3], [-1, 0, 0]])
    expect = {d: (_naive_kron(Matrix.identity(d), x), _naive_kron(x, Matrix.identity(d))) for d in (1, 2, 4)}
    calls = []
    products = linalg._products
    monkeypatch.setattr(linalg, "_products", lambda *args: calls.append(args) or products(*args))
    for d, (left, right) in expect.items():
        assert kron(Matrix.identity(d), x) == left
        assert kron(x, Matrix.identity(d)) == right
    assert calls == []
    kron(x, x)
    assert calls


_KRON_VALUES = (ONE, ONE, -ONE, I, SQRT2, Scalar(Fraction(1, 3)), Scalar(Fraction(-2, 5), 1, 0, 1))


def _kron_factor(rng, rows, cols):
    """A rows×cols factor whose rows are each, at random, empty, one entry in
    column 0 or in any column (1 or another value), all 1s, or mixed values."""
    out = []
    for _ in range(rows):
        row = [ZERO] * cols
        kind = rng.randrange(5)
        where = ([] if kind == 0 else [0] if kind == 1 else [rng.randrange(cols)] if kind == 2
                 else rng.sample(range(cols), rng.randrange(1, cols + 1)))
        for j in where:
            row[j] = ONE if kind == 3 else rng.choice(_KRON_VALUES)
        out += row
    return Matrix(rows, cols, out)


def test_kron_writes_each_block_of_rows_without_scaling_a_row_at_a_time(monkeypatch):
    # an empty row of A gives b.rows empty rows, a row of A with one entry
    # gives B's rows scaled by it and shifted, and a row with several entries
    # joins its shifted parts; a row of B of all 1s takes A's value
    rng = random.Random(79)
    cases = [(_kron_factor(rng, rng.randrange(5), rng.randrange(1, 5)),
              _kron_factor(rng, rng.randrange(5), rng.randrange(1, 5))) for _ in range(150)]
    for n in (2, 3):  # the three factors of `dagger_composite_dense` at d = 4 and d = 6,
        # and the literal middle factor eye (x) hom (x) eye as a many-row B
        s = make_selfdual(random_hermitian_space(rng, n))
        hom, eye = _internalize_raw(random_matrix(rng, n, n), s, s), Matrix.identity(2 * n)
        leg = vec(s.pairing).transpose() @ kron(hom, eye)
        cases += [(hom, eye), (eye, leg), (vec(s.coev), eye), (eye, kron(hom, eye))]
    expect = [_naive_kron(a, b) for a, b in cases]
    calls = []
    scaled = linalg._scaled
    monkeypatch.setattr(linalg, "_scaled", lambda *args: calls.append(args) or scaled(*args))
    got = [kron(a, b) for a, b in cases]
    assert calls == []
    assert got == expect
    assert all(_is_normal(x) for m in got for x in m.entries)


@pytest.fixture
def packed_calls(monkeypatch):
    """The argument tuples of every `_packed_product` call `@` makes."""
    calls = []
    kernel = linalg._packed_product
    monkeypatch.setattr(linalg, "_packed_product", lambda *args: calls.append(args) or kernel(*args))
    return calls


_PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def _dense_matrix(rng, rows, cols, dens):
    """Every entry has all four coordinates nonzero; `dens` says over what.

    "mixed" draws small denominators that share factors, "coprime" gives each
    coordinate of the matrix its own prime, and "huge" draws 300-digit
    numerators over 1 or one of two 300-digit denominators.
    """
    primes = iter(rng.sample(_PRIMES, 4 * rows * cols))
    big = [1] + [rng.randrange(10 ** 299, 10 ** 300) for _ in range(2)]

    def coordinate():
        if dens == "huge":
            num, den = rng.randrange(10 ** 299, 10 ** 300), rng.choice(big)
        else:
            num = rng.randrange(1, 40)
            den = next(primes) if dens == "coprime" else rng.choice((1, 2, 3, 4, 6, 9, 12))
        return Fraction(rng.choice((-1, 1)) * num, den)

    return Matrix(rows, cols, tuple(Scalar(*(coordinate() for _ in range(4)))
                                    for _ in range(rows * cols)))


def _with_column(m, j, values):
    return Matrix(m.rows, m.cols, tuple(values[i] if c == j else m[i, c]
                                        for i in range(m.rows) for c in range(m.cols)))


def _cancelling(a, b, where):
    """(a, b) changed so that a @ b is exactly zero in one entry, one whole
    column or one whole row, `where` being "entry", "column" or "row"."""
    k = a.cols
    if where == "row":  # b's last row = -(the others weighted by u), and a's row 0 = u
        bt, at = _cancelling(b.transpose(), a.transpose(), "column")
        return at.transpose(), bt.transpose()
    if where == "column":  # a's last column = -(the others weighted by v), and b's column 0 = v
        v = [b[t, 0] for t in range(k - 1)] + [ONE]
        last = [-sum((a[i, t] * v[t] for t in range(k - 1)), ZERO) for i in range(a.rows)]
        return _with_column(a, k - 1, last), _with_column(b, 0, v)
    # entry (0, 0): a[0, k-1] = 1 and b[k-1, 0] = -(the rest of row 0 times column 0)
    a = Matrix(a.rows, k, tuple(ONE if (i, t) == (0, k - 1) else a[i, t]
                                for i in range(a.rows) for t in range(k)))
    rest = sum((a[0, t] * b[t, 0] for t in range(k - 1)), ZERO)
    b = Matrix(k, b.cols, tuple(-rest if (t, j) == (k - 1, 0) else b[t, j]
                                for t in range(k) for j in range(b.cols)))
    return a, b


def test_dense_products_agree_with_the_per_entry_reference(packed_calls):
    rng = random.Random(41)
    shapes = [(3, 9, 2), (4, 4, 4), (2, 12, 5), (6, 5, 7), (8, 8, 8), (5, 11, 3)]
    cases = []
    for dens in ("mixed", "coprime", "huge"):
        some = shapes[:3] if dens == "huge" else shapes  # the reference is slow on 300 digits
        for n, k, m in some:
            cases.append((_dense_matrix(rng, n, k, dens), _dense_matrix(rng, k, m, dens), None))
        for where in ("entry", "column", "row"):
            n, k, m = rng.choice(some)
            a, b = _cancelling(_dense_matrix(rng, n, k, dens), _dense_matrix(rng, k, m, dens), where)
            cases.append((a, b, where))
    for a, b, where in cases:
        got = a @ b
        assert got == _naive_matmul(a, b)
        assert all(_is_normal(x) for x in got.entries)
        if where == "entry":
            assert got[0, 0] == ZERO
        elif where == "column":
            assert all(got[i, 0] == ZERO for i in range(got.rows))
        elif where == "row":
            assert got.raw[0] == ()
    assert len(packed_calls) == len(cases)


def test_packed_fields_at_their_bound(packed_calls):
    # (N√2)² in ζ-coordinates is N²(ζ² − 2ζ⁴ + ζ⁶): over k terms the ζ⁴ field
    # reaches −2kN² and the folded ζ⁰ field 2kN², half the kernel's bound
    for n in (1, 3, 2 ** 61 - 1, 10 ** 40):
        for k in (4, 7, 8):
            a = Matrix(k, k, (Scalar(0, n),) * (k * k))
            got = a @ a
            assert got == Matrix(k, k, (Scalar(2 * k * n * n),) * (k * k))
            assert got == _naive_matmul(a, a)
    assert len(packed_calls) == 12


def test_the_packed_kernel_runs_only_for_dense_products(packed_calls):
    rng = random.Random(43)
    d = _dense_matrix(rng, 8, 8, "mixed")
    assert d @ d == _naive_matmul(d, d)
    assert len(packed_calls) == 1
    packed_calls.clear()
    perm = Matrix(8, 8, tuple(ONE if j == (3 * i + 1) % 8 else ZERO for i in range(8) for j in range(8)))
    diag = Matrix.diagonal([Scalar(i + 1, -1, 1, Fraction(1, i + 2)) for i in range(8)])
    for sparse in (Matrix.identity(8), perm, diag, Matrix.zero(8, 8)):
        assert sparse @ d == _naive_matmul(sparse, d)
        assert d @ sparse == _naive_matmul(d, sparse)
    assert Matrix(0, 8, ()) @ d == Matrix(0, 8, ())
    assert d @ Matrix(8, 0, ()) == Matrix(8, 0, ())
    assert packed_calls == []


def test_wide_fields_take_the_sparse_kernel(monkeypatch):
    # an all-N k×k square packs into fields of w = bit_length(4·k·N²) + 2
    # bits; `_packed_product` declines it exactly when w exceeds the cap
    declined = []
    kernel = linalg._packed_product

    def recorded(*args):
        out = kernel(*args)
        declined.append(out is None)
        return out

    monkeypatch.setattr(linalg, "_packed_product", recorded)
    k, cap = 4, linalg._PACKED_BITS
    by_width = {(4 * k * n * n).bit_length() + 2: n for m in range(cap) for n in (1 << m, 3 << m)}
    for w in (cap, cap + 1):
        n = by_width[w]
        a = Matrix(k, k, (Scalar(n),) * (k * k))
        assert a @ a == Matrix(k, k, (Scalar(k * n * n),) * (k * k))
    rng = random.Random(44)
    a, b = _dense_matrix(rng, 3, 9, "huge"), _dense_matrix(rng, 9, 2, "huge")
    assert a @ b == _naive_matmul(a, b)
    assert declined == [False, True, True]


def _selection(rng, rows, cols, empty=()):
    """A rows×cols matrix with one 1 in each row not in `empty`, no two in
    one column."""
    targets = iter(rng.sample(range(cols), rows - len(empty)))
    units = [None if i in empty else next(targets) for i in range(rows)]
    return Matrix(rows, cols, tuple(ONE if j == t else ZERO for t in units for j in range(cols)))


def _permutation(rng, n):
    return _selection(rng, n, n)


def test_a_column_selection_on_the_right_relabels_the_columns_of_a(monkeypatch):
    # B with at most one entry per row, each exactly 1 and in its own column,
    # moves each entry of A to B's column for its row and drops those whose
    # row of B is empty; no product is formed and no gcd taken
    rng = random.Random(53)
    cases = []
    for k in (1, 3, 6):
        n = rng.randrange(1, 6)
        for a in (_dense_matrix(rng, n, k, "mixed"), _sparse_matrix(rng, n, k)):
            empty = set(rng.sample(range(k), rng.randrange(1, k + 1)))
            for b in (Matrix.identity(k), _permutation(rng, k), _selection(rng, k, k + 2, empty),
                      _selection(rng, k, k - len(empty), empty)):
                cases.append((a, b))
    for n in (1, 2, 4):  # the split's 2n×n `plus` and `minus` of the standard model
        a = _sparse_matrix(rng, 3, 2 * n)
        for b in (vstack([Matrix.zero(n, n), Matrix.identity(n)]), vstack([Matrix.identity(n), Matrix.zero(n, n)])):
            cases.append((a, b))
    cases += [(Matrix(0, 0, ()), Matrix.identity(0)), (Matrix(2, 0, ()), Matrix(0, 0, ())),
              (Matrix(2, 0, ()), Matrix(0, 3, ())), (Matrix(0, 3, ()), _permutation(rng, 3)),
              (_sparse_matrix(rng, 2, 3), Matrix.zero(3, 2))]
    expect = [_naive_matmul(a, b) for a, b in cases]
    calls = []
    for name in ("_products", "_packed_product", "gcd"):
        kernel = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, kernel=kernel: calls.append(args) or kernel(*args))
    assert [a @ b for a, b in cases] == expect
    assert calls == []


def test_a_times_the_identity_is_a(monkeypatch):
    # when every row of B keeps its own column, as in the identity, A's rows
    # are the product as they are: nothing is moved, sorted or formed; a
    # permutation that moves a row still relabels
    rng = random.Random(67)
    cases = [(Matrix(0, 0, ()), Matrix.identity(0)), (Matrix(3, 0, ()), Matrix.identity(0)),
             (Matrix(0, 4, ()), Matrix.identity(4))]
    for k in (1, 2, 5, 9):
        n = rng.randrange(1, 6)
        for a in (_dense_matrix(rng, n, k, "mixed"), _sparse_matrix(rng, n, k)):
            cases += [(a, Matrix.identity(k)), (a, hstack([Matrix.identity(k), Matrix.zero(k, 2)]))]
    moved = []
    for k in (2, 3, 6):
        a = _dense_matrix(rng, 3, k, "mixed")
        p = _permutation(rng, k)
        while p.is_identity():
            p = _permutation(rng, k)
        moved.append((a, p, _naive_matmul(a, p)))
    expect = [_naive_matmul(a, b) for a, b in cases]
    calls = []
    for name in ("_products", "_packed_product", "gcd"):
        kernel = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, kernel=kernel: calls.append(args) or kernel(*args))
    for (a, b), want in zip(cases, expect):
        got = a @ b
        assert got == want and got.raw is a.raw
    for a, p, want in moved:
        assert a @ p == want != a
    assert calls == []


def test_a_repeated_or_scaled_unit_column_takes_the_summing_path():
    # two unit rows of B in one column add their entries of A there, and an
    # entry other than 1 scales; both must agree with the reference
    rng = random.Random(59)
    a = _dense_matrix(rng, 3, 3, "mixed")
    half = Scalar(Fraction(1, 2))
    for b in (Matrix.from_rows([[1, 0], [1, 0], [0, 1]]), Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, half]]),
              Matrix.from_rows([[0, I, 0], [1, 0, 0], [0, 0, 1]]), Matrix.from_rows([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])):
        assert a @ b == _naive_matmul(a, b)


def test_product_shape_mismatch():
    with pytest.raises(ShapeError):
        Matrix.zero(2, 3) @ Matrix.zero(2, 3)
    with pytest.raises(ShapeError):
        Matrix(0, 1, ()) @ Matrix(2, 0, ())


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        r, pivots = rref(m)
        assert rref(r) == (r, pivots)
        assert rank(m) == len(pivots)
        for row, col in enumerate(pivots):
            assert r[row, col] == ONE


def test_kernel_vectors_annihilate():
    rng = random.Random(12)
    for _ in range(25):
        m = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 5))
        ker = kernel_basis(m)
        assert ker.shape == (m.cols, m.cols - rank(m))
        assert m @ ker == Matrix.zero(m.rows, ker.cols)


def test_inverse_and_solve():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(1, 5)
        a = random_invertible(rng, n)
        ainv = inverse(a)
        assert (a @ ainv).is_identity() and (ainv @ a).is_identity()
        b = random_matrix(rng, n, 1)
        assert a @ solve(a, b) == b
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.from_rows([[1, 1], [1, 1]]))


# -- elimination against references that share no code with the engine ---------


def _gauss_jordan(m):
    """Reference: Scalar-level Gauss-Jordan elimination with first-nonzero
    pivoting, one whole row at a time.

    Returns the reduced rows, the pivot columns and the signed product of the
    pivots, which for a square m of full rank is its determinant.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots, product = [], ONE
    for c in range(m.cols):
        r = len(pivots)
        k = next((k for k in range(r, m.rows) if rows[k][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            product = -product
        p = rows[r][c]
        product = product * p
        rows[r] = [x / p for x in rows[r]]
        for i in range(m.rows):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots, product


def _elimination_case(rng):
    """n <= 6, square or not, mixed denominators; often a zero leading entry
    (forcing a row swap), a zero row and column, or a dependent row."""
    rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
    if rng.random() < 0.5:
        cols = rows
    kind = rng.randrange(3)
    if kind == 0:
        return _sparse_matrix(rng, rows, cols)
    entries = [[rng.choice(_ENTRY_POOL) * rng.choice((1, -2, Fraction(1, 5))) for _ in range(cols)]
               for _ in range(rows)]
    entries[0][0] = ZERO
    if kind == 2 and rows > 2:
        a, b = rng.choice(_ENTRY_POOL), rng.choice(_ENTRY_POOL)
        entries[-1] = [a * x + b * y for x, y in zip(entries[0], entries[1])]
    return Matrix.from_rows(entries)


def _reference_kernel(m):
    """The kernel basis read off `_gauss_jordan`'s reduced rows."""
    ref, pivots, _ = _gauss_jordan(m)
    free = [f for f in range(m.cols) if f not in pivots]
    return Matrix(m.cols, len(free), [
        ONE if j == f else -ref[pivots.index(j)][f] if j in pivots else ZERO
        for j in range(m.cols) for f in free])


def _assert_the_kernel_contract(m):
    """kernel_basis(m) is one m.cols x nullity matrix that m annihilates, and
    its rows at the free columns of the reference elimination are the identity."""
    k = kernel_basis(m)
    pivots = _gauss_jordan(m)[1]
    free = [f for f in range(m.cols) if f not in pivots]
    assert isinstance(k, Matrix) and k.shape == (m.cols, m.cols - rank(m))
    assert (m @ k).is_zero()
    assert Matrix.from_rows([k.row(f) for f in free]) == Matrix.identity(len(free))


def _assert_elimination_matches_the_reference(m, b):
    """rref, rank, kernel_basis, solve (against the column b), det and inverse
    of m agree with `_gauss_jordan`; returns (shape, full rank, m[0, 0] == 0,
    inconsistent) for branch coverage."""
    ref, pivots, product = _gauss_jordan(m)
    assert rref(m) == (Matrix.from_rows(ref) if m.rows else m, tuple(pivots))
    assert rank(m) == len(pivots)
    _assert_the_kernel_contract(m)
    assert kernel_basis(m) == _reference_kernel(m)
    aug, aug_pivots, _ = _gauss_jordan(hstack([m, b]))
    x = solve(m, b)
    if m.cols in aug_pivots:
        assert x is None
    else:
        assert x == Matrix.column([aug[aug_pivots.index(j)][m.cols] if j in aug_pivots else ZERO
                                   for j in range(m.cols)])
    full = len(pivots) == m.rows
    if m.is_square:
        assert det(m) == (product if full else ZERO)
        if full:
            inv_rows = _gauss_jordan(hstack([m, Matrix.identity(m.rows)]))[0]
            assert inverse(m) == (Matrix.from_rows([r[m.cols:] for r in inv_rows]) if m.rows else m)
        else:
            with pytest.raises(SingularMatrixError):
                inverse(m)
    shape = "square" if m.is_square else "wide" if m.cols > m.rows else "tall"
    return shape, full, m.rows > 0 and m.cols > 0 and not m[0, 0], x is None


def test_elimination_agrees_with_the_gauss_jordan_reference():
    rng = random.Random(31)
    seen = set()
    for _ in range(120):
        m = _elimination_case(rng)
        b = m @ random_matrix(rng, m.cols, 1) if rng.random() < 0.5 else random_matrix(rng, m.rows, 1)
        seen.add(_assert_elimination_matches_the_reference(m, b))
    # every branch of the engine was reached: swaps on invertible matrices,
    # singular squares, both rectangular shapes, consistent and inconsistent
    assert {("square", True, True, False), ("square", False, True, False),
            ("square", False, True, True), ("square", True, False, False)} <= seen
    assert {shape for shape, *_ in seen} == {"square", "wide", "tall"}


def test_the_kernel_is_one_matrix_of_basis_columns():
    # random and zero-rich input meet the contract beside the reference above;
    # here the edges: full rank gives cols x 0, the zero matrix the identity
    rng = random.Random(37)
    for n in range(5):
        full = random_invertible(rng, n)
        for m in (full, hstack([full, Matrix.zero(n, 2)]), Matrix.zero(0, n), Matrix.zero(3, n)):
            _assert_the_kernel_contract(m)
        assert kernel_basis(full) == Matrix.zero(n, 0)
        assert kernel_basis(Matrix.zero(3, n)) == Matrix.identity(n)


def test_elimination_agrees_with_the_reference_on_structured_sparse_input():
    rng = random.Random(41)
    cases = [kron_swap(d, d) - Matrix.identity(d * d) for d in range(1, 7)] + [
        # the pivot row of column 0 is swapped with row 0, and both hold columns 1 and 2
        Matrix.from_rows([[0, 1, 1], [1, 1, 1], [0, 1, 2]]),
        # row 1 loses column 1 by exact cancellation but stays indexed there, so
        # column 1's pivot search and its step both meet a row that no longer holds it
        Matrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 0]]),
        # row 1 gains column 2 from the first step, which the last step must clear
        Matrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 0, 1]]),
    ]
    for m in cases:
        _assert_elimination_matches_the_reference(m, random_matrix(rng, m.rows, 1))


def test_elimination_visits_only_the_rows_holding_each_pivot_column(monkeypatch):
    # kron_swap(12, 12) - I has 264 nonzeros, at most 2 per row; handing every
    # step all other rows would visit 66 * 143 of them
    m = kron_swap(12, 12) - Matrix.identity(144)
    handed = []
    pivot = linalg._pivot

    def counted(rows, r, c, targets):
        targets = list(targets)
        handed.append(len(targets))
        return pivot(rows, r, c, targets)

    monkeypatch.setattr(linalg, "_pivot", counted)
    k = kernel_basis(m)
    assert k.shape == (144, 78) and (m @ k).is_zero()
    assert len(handed) == 66 and sum(handed) <= sum(map(len, m.raw))


def _lone_entries(rng, rows, cols):
    """A rows×cols matrix with at most one nonzero in each row, of any value,
    in random columns that rows may share; about a third of the rows are zero."""
    values = (I, SQRT2, Scalar(Fraction(1, 3)), -ONE, ONE, Scalar(Fraction(-2, 5), 1, 0, 1))
    where = [rng.randrange(cols) if cols and rng.random() < 0.67 else None for _ in range(rows)]
    return Matrix(rows, cols, tuple(rng.choice(values) if where[i] == j else ZERO
                                    for i in range(rows) for j in range(cols)))


def test_a_kernel_with_at_most_one_entry_per_row_is_read_off(monkeypatch):
    # the first row holding a column reduces to that column's unit row and
    # clears the others, so the basis is the unit vectors of the empty
    # columns, as elimination gives it
    rng = random.Random(71)
    cases = [_lone_entries(rng, rng.randrange(8), rng.randrange(6)) for _ in range(120)]
    cases += [Matrix(0, 0, ()), Matrix(0, 3, ()), Matrix(3, 0, ()), Matrix.zero(2, 3),
              Matrix.diagonal([-2 * I, -2 * I, ZERO, ZERO]),  # the standard model's icplx - iI
              Matrix.from_rows([[0, I], [0, 3]]), Matrix.from_rows([[SQRT2, 0, 0], [0, 0, 1], [1, 0, 0]])]
    assert any(len({r[0][0] for r in m.raw if r}) < sum(map(bool, m.raw)) for m in cases)  # shared columns
    # a row with two entries is eliminated
    paired = [Matrix.from_rows([[1, 1, 0], [0, 0, 2]]), Matrix.from_rows([[0, 0], [I, 1]]),
              kron_swap(3, 3) - Matrix.identity(9)]
    expect = [_reference_kernel(m) for m in cases + paired]
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda rows: calls.append(rows) or rref(rows))
    assert [kernel_basis(m) for m in cases] == expect[:len(cases)]
    assert calls == []
    assert [kernel_basis(m) for m in paired] == expect[len(cases):]
    assert len(calls) == len(paired)


def test_the_kernel_of_a_permutation_less_the_identity_is_read_off_its_orbits(monkeypatch):
    # each orbit's indicator, ordered by the orbit's largest index, is the
    # basis column elimination gives that index as a free column
    rng = random.Random(67)
    perms = [_permutation(rng, n) for n in range(13) for _ in range(30)]
    perms += [Matrix.identity(6), Matrix(0, 0, ()), kron_swap(4, 4), kron_swap(2, 5)]
    expect = [kernel_basis(p - Matrix.identity(p.rows)) for p in perms]
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda rows: calls.append(rows) or rref(rows))
    assert [linalg._permutation_kernel(p) for p in perms] == expect
    assert calls == []


def _unit_word(rng, n):
    """A row permutation of a unit lower bidiagonal matrix with ±1 below the
    diagonal, its rows signed: a product of ±1 elementary matrices whose
    elimination, and its inverse's, meets only ±1 pivots and multipliers."""
    rows = [[rng.choice((1, -1)) if j == i - 1 else int(j == i) for j in range(n)] for i in range(n)]
    return Matrix.from_rows(rng.sample([[rng.choice((1, -1)) * x for x in row] for row in rows], n))


def test_unit_pivots_and_multipliers_form_no_inverse_and_no_product(monkeypatch):
    rng = random.Random(73)
    words = [_unit_word(rng, n) for n in (1, 2, 3, 5, 8) for _ in range(4)]
    cases = [(kron_swap(d, d) - Matrix.identity(d * d), False) for d in range(1, 6)]
    cases += [(w, True) for w in words + [inverse(w) for w in words]]  # (matrix, invertible)
    calls = []
    inv, products = Scalar.inv, linalg._products
    monkeypatch.setattr(Scalar, "inv", lambda x: calls.append("inv") or inv(x))
    monkeypatch.setattr(linalg, "_products", lambda *args: calls.append("_products") or products(*args))
    got = [(rref(m), kernel_basis(m), det(m), inverse(m) if full else None) for m, full in cases]
    assert calls == []
    monkeypatch.undo()
    for (m, full), (reduced, kernel, determinant, inverted) in zip(cases, got):
        ref, pivots, product = _gauss_jordan(m)
        assert reduced == (Matrix.from_rows(ref), tuple(pivots))
        assert kernel == _reference_kernel(m)
        assert determinant == (product if full else ZERO)
        if full:
            inv_rows = _gauss_jordan(hstack([m, Matrix.identity(m.rows)]))[0]
            assert inverted == Matrix.from_rows([r[m.cols:] for r in inv_rows])
    # a ±1 pivot beside multipliers of every kind, ±1 among them
    mixed = [Matrix.from_rows([[-1, 2, 0, I], [1, 0, 1, 1], [-1, 1, 1, 0], [2, 1, 0, 1], [I, 0, SQRT2, 1]]),
             Matrix.from_rows([[1, -1, 2], [1, 1, 0], [-1, 0, 3], [Fraction(1, 2), 1, 1]]),
             Matrix.from_rows([[0, -1, 1], [1, 1, -1], [-1, I, 2]])]
    for m in mixed:
        _assert_elimination_matches_the_reference(m, random_matrix(rng, m.rows, 1))


def test_the_inverse_of_a_permutation_is_its_transpose(monkeypatch):
    rng = random.Random(61)
    perms = [_permutation(rng, n) for n in (0, 1, 2, 3, 5, 8, 8, 12)]
    expect = [Matrix.from_rows([row[p.rows:] for row in _gauss_jordan(hstack([p, Matrix.identity(p.rows)]))[0]])
              if p.rows else p for p in perms]
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda rows: calls.append(rows) or rref(rows))
    for p, inv in zip(perms, expect):
        assert inverse(p) == p.transpose() == inv
    assert calls == []
    # a unit selection with an empty row, or two rows in one column, is
    # singular; a permutation with an entry other than 1 is eliminated
    for m in (Matrix.from_rows([[0, 1, 0], [0, 0, 0], [1, 0, 0]]), Matrix.from_rows([[1, 0], [1, 0]])):
        with pytest.raises(SingularMatrixError):
            inverse(m)
    scaled = Matrix.from_rows([[0, 2], [1, 0]])
    assert inverse(scaled) == Matrix.from_rows([[0, 1], [Fraction(1, 2), 0]])
    assert len(calls) == 3


def test_determinant_of_a_scaled_permutation_is_its_signed_product():
    values = [Scalar(Fraction(2, 3)), SQRT2, -I, Scalar(1, Fraction(1, 2), Fraction(-1, 6)),
              Scalar(5), Scalar(Fraction(-1, 7), 0, 1)]
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            p = Matrix.from_rows([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)])
            expect = Scalar((-1) ** inversions)
            assert det(p) == expect
            for v in values[:n]:
                expect = expect * v
            assert det(p @ Matrix.diagonal(values[:n])) == expect


def test_determinant_is_multiplicative():
    rng = random.Random(14)
    for _ in range(15):
        n = rng.randrange(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert det(a @ b) == det(a) * det(b)
    assert det(Matrix.identity(4)) == ONE


def _random_hermitian(rng, n):
    """Hermitian, often rank-deficient, sometimes with an all-zero diagonal."""
    kind = rng.randrange(3)
    if kind == 0:
        y = random_matrix(rng, n, n)
        return y + y.conj_transpose()
    if kind == 1:
        m = Matrix.zero(n, n)
        for _ in range(rng.randrange(0, n + 1)):
            w = random_matrix(rng, n, 1)
            m = m + Scalar(rng.choice((1, -1, 2))) * (w @ w.conj_transpose())
        return m
    y = random_matrix(rng, n, n)
    m = y + y.conj_transpose()
    return Matrix.from_rows([[0 if i == j else m[i, j] for j in range(n)] for i in range(n)])


def _det_reference(m):
    """Forward elimination with its own row updates, so that the minor
    criterion shares no code with `inertia`."""
    n = m.rows
    rows = [list(m.row(i)) for i in range(n)]
    sign = 1
    result = ONE
    for c in range(n):
        pivot_row = None
        for k in range(c, n):
            if rows[k][c]:
                pivot_row = k
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pivot = rows[c][c]
        result = result * pivot
        pinv = pivot.inv()
        for k in range(c + 1, n):
            f = rows[k][c]
            if not f:
                continue
            f = f * pinv
            krow = rows[k]
            prow = rows[c]
            for j in range(c, n):
                if prow[j]:
                    krow[j] = krow[j] - f * prow[j]
    return result if sign > 0 else -result


def _is_psd_by_principal_minors(m):
    """Reference: PSD iff every principal minor is nonnegative (2^n dets)."""
    for k in range(1, m.rows + 1):
        for idx in itertools.combinations(range(m.rows), k):
            minor = _det_reference(Matrix.from_rows([[m[i, j] for j in idx] for i in idx]))
            assert minor.is_real()
            if minor.sign_real() < 0:
                return False
    return True


def test_inertia_counts_the_signs_of_a_congruent_diagonal():
    # t^dagger D t, as random_hermitian_space builds its grams, here with
    # zeros and Q(sqrt2) entries on the diagonal too
    rng = random.Random(16)
    values = (ONE, -ONE, Scalar(3), Scalar(0), Scalar(1, -1), Scalar(-3, 2))
    for _ in range(25):
        n = rng.randrange(1, 7)
        d = [rng.choice(values) for _ in range(n)]
        t = random_invertible(rng, n)
        signs = [x.sign_real() for x in d]
        expect = (signs.count(1), signs.count(-1), signs.count(0))
        assert inertia(t.conj_transpose() @ Matrix.diagonal(d) @ t) == expect


def test_inertia_is_invariant_under_congruence():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(1, 6)
        a = _random_hermitian(rng, n)
        t = random_invertible(rng, n)
        got = inertia(a)
        assert inertia(t.conj_transpose() @ a @ t) == got
        assert got[0] + got[1] == rank(a)


def test_inertia_agrees_with_the_principal_minor_criterion():
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randrange(1, 7)
        a = _random_hermitian(rng, n)
        pos, neg, zero = inertia(a)
        assert pos + neg + zero == n
        assert (neg == 0) == _is_psd_by_principal_minors(a)
        assert (pos == 0) == _is_psd_by_principal_minors(-a)


def test_inertia_edge_cases():
    assert inertia(Matrix.zero(0, 0)) == (0, 0, 0)
    assert inertia(Matrix.zero(3, 3)) == (0, 0, 3)
    # all-zero diagonal: only the 2x2 congruence pivot can start; with
    # a_01 = 1+i the pivot is nonzero only for the coefficient conj(a_01)
    one_plus_i = ONE + I
    assert inertia(Matrix.from_rows([[0, one_plus_i], [one_plus_i.conj(), 0]])) == (1, 1, 0)
    assert inertia(Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])) == (1, 1, 1)
    with pytest.raises(InvariantViolation):
        inertia(Matrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(InvariantViolation):
        inertia(Matrix.from_rows([[I]]))
    with pytest.raises(ShapeError):
        inertia(Matrix.zero(2, 3))


def test_kron_mixed_product_and_vec():
    rng = random.Random(15)
    for _ in range(10):
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 2, 3)
        c = random_matrix(rng, 2, 2)
        d = random_matrix(rng, 3, 2)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)
        # vec(A X B^T) = (A (x) B) vec(X), row-major vec
        x = random_matrix(rng, 2, 2)
        assert kron(a, c) @ vec(x) == vec(a @ x @ c.transpose())
        assert unvec(vec(x), 2, 2) == x


def test_kron_swap_exchanges_factors():
    rng = random.Random(16)
    a = random_matrix(rng, 2, 2)
    b = random_matrix(rng, 3, 3)
    s_ab = kron_swap(2, 3)
    assert s_ab @ kron(a, b) == kron(b, a) @ s_ab
    assert (kron_swap(3, 2) @ s_ab).is_identity()


def test_stacking_shapes():
    a = Matrix.identity(2)
    b = Matrix.zero(2, 3)
    assert hstack([a, b]).cols == 5
    assert vstack([a, Matrix.zero(1, 2)]).rows == 3
    d = block_diag([a, Matrix.identity(3)])
    assert d.is_identity() and d.rows == 5
    with pytest.raises(ShapeError):
        hstack([a, Matrix.zero(3, 1)])


# -- the block engine -----------------------------------------------------------------


def _random_block(rng, rows, cols):
    """(r0, c0, m) inside a rows x cols frame, often flush with an edge or empty."""
    br, bc = rng.randrange(rows + 1), rng.randrange(cols + 1)
    r0 = rng.choice((0, rows - br, rng.randrange(rows - br + 1)))
    c0 = rng.choice((0, cols - bc, rng.randrange(cols - bc + 1)))
    return r0, c0, random_matrix(rng, br, bc)


def test_place_matches_a_per_entry_reference():
    rng = random.Random(4100)
    for _ in range(80):
        rows, cols = rng.randrange(6), rng.randrange(6)
        blocks = [_random_block(rng, rows, cols) for _ in range(rng.randrange(4))]
        ref = [[None] * cols for _ in range(rows)]  # None: no block covers the entry
        for r0, c0, m in blocks:
            for i in range(m.rows):
                for j in range(m.cols):
                    ref[r0 + i][c0 + j] = m[i, j]
        placed = place(rows, cols, blocks)
        assert placed.shape == (rows, cols)
        for i in range(rows):
            for j in range(cols):
                if ref[i][j] is None:
                    assert placed[i, j] is ZERO
                else:
                    assert placed[i, j] == ref[i][j]


def test_block_matches_a_per_entry_reference():
    rng = random.Random(4101)
    for _ in range(80):
        rows, cols = rng.randrange(6), rng.randrange(6)
        m = random_matrix(rng, rows, cols)
        r0, c0, shape = _random_block(rng, rows, cols)
        got = m.block(r0, c0, shape.rows, shape.cols)
        assert got.shape == shape.shape
        assert got.entries == tuple(m[r0 + i, c0 + j]
                                    for i in range(shape.rows) for j in range(shape.cols))


def test_placing_the_blocks_of_a_matrix_gives_it_back():
    rng = random.Random(4102)
    for _ in range(40):
        rows, cols = rng.randrange(6), rng.randrange(6)
        m = random_matrix(rng, rows, cols)
        r, c = rng.randrange(rows + 1), rng.randrange(cols + 1)
        quarters = [(r0, c0, m.block(r0, c0, h, w))
                    for r0, h in ((0, r), (r, rows - r)) for c0, w in ((0, c), (c, cols - c))]
        assert place(rows, cols, quarters) == m


def test_a_block_leaving_the_frame_is_a_shape_error():
    m = Matrix.identity(3)
    for r0, c0, rows, cols in ((1, 0, 3, 1), (0, 1, 1, 3), (3, 0, 1, 1), (0, 3, 1, 1),
                               (-1, 0, 1, 1), (0, -1, 1, 1), (0, 0, -1, 1)):
        with pytest.raises(ShapeError):
            m.block(r0, c0, rows, cols)
        if min(rows, cols) >= 0:
            with pytest.raises(ShapeError):
                place(3, 3, [(r0, c0, Matrix.zero(rows, cols))])
    assert m.block(3, 3, 0, 0).shape == (0, 0)  # an empty block may sit on the far corner
    assert place(0, 0, [(0, 0, Matrix.zero(0, 0))]) == Matrix.zero(0, 0)
    assert place(2, 0, []).shape == (2, 0) and place(0, 2, []).shape == (0, 2)


def test_stacks_of_empty_blocks_keep_their_shape():
    assert hstack([Matrix.zero(3, 0), Matrix.zero(3, 0)]).shape == (3, 0)
    assert block_diag([Matrix.zero(2, 0), Matrix.zero(0, 1)]) == Matrix.zero(2, 1)
    assert block_diag([]) == Matrix.zero(0, 0)


def test_realify_encodes_antilinear_systems():
    # solutions of x - conj(x) = 0 over the whole plane: the real axis
    sys = realify(Matrix.identity(1), -Matrix.identity(1))
    ker = kernel_basis(sys)
    assert ker.shape == (2, 1)
    assert ker[0, 0] != 0 and ker[1, 0] == 0


def _realify_per_entry(mat, conj_part):
    """The per-entry four-block loop `realify` replaces, kept as its reference."""
    r, c = mat.rows, mat.cols
    out = [ZERO] * (4 * r * c)
    width = 2 * c
    for i in range(r):
        for j in range(c):
            a, b = mat[i, j], conj_part[i, j]
            are, aim = a.real_part(), a.imag_part()
            bre, bim = b.real_part(), b.imag_part()
            out[i * width + j] = are + bre
            out[i * width + j + c] = bim - aim
            out[(i + r) * width + j] = aim + bim
            out[(i + r) * width + j + c] = are - bre
    return Matrix(2 * r, 2 * c, tuple(out))


def test_realify_matches_the_per_entry_reference():
    rng = random.Random(4103)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [(rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(60)]
    for rows, cols in shapes:
        # sparse operands mix fresh and shared zeros; dense ones mix denominators up to 9
        make = rng.choice((_sparse_matrix, lambda g, r, c: random_matrix(g, r, c, span=9)))
        mat, conj_part = make(rng, rows, cols), make(rng, rows, cols)
        got = realify(mat, conj_part)
        assert got == _realify_per_entry(mat, conj_part)
        assert got.shape == (2 * rows, 2 * cols)
        assert all(x.is_real() and _is_normal(x) for x in got.entries)
    with pytest.raises(ShapeError, match="^mat and conj_part must share a shape$"):
        realify(Matrix.zero(2, 1), Matrix.zero(1, 2))


def test_matrix_text_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        m = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        assert parse_matrix(format_matrix(m)) == m
    assert format_matrix(Matrix.from_rows([[1, I], [SQRT2, 0]])) == "1,1*i;1*r2,0"


def test_format_matrix_is_per_entry_format_scalar():
    rng = random.Random(23)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [(rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(40)]
    for rows, cols in shapes:
        m = _sparse_matrix(rng, rows, cols) if rows and cols else Matrix.zero(rows, cols)
        expected = ";".join(",".join(format_scalar(x) for x in m.row(i)) for i in range(rows))
        assert format_matrix(m) == expected
    assert format_matrix(Matrix.zero(3, 0)) == ";;"
    assert format_matrix(Matrix.zero(0, 3)) == ""


def test_format_matrix_parses_back_at_every_shape_with_rows_and_columns():
    rng = random.Random(29)
    for rows, cols in itertools.product(range(1, 5), repeat=2):
        for m in (Matrix.zero(rows, cols), _sparse_matrix(rng, rows, cols), random_matrix(rng, rows, cols, span=9)):
            assert parse_matrix(format_matrix(m)) == m
    # with no rows or no columns the printed form is text no parser reads
    for m in (Matrix.zero(0, 3), Matrix.zero(3, 0)):
        with pytest.raises(MatrixParseError, match="^empty scalar$"):
            parse_matrix(format_matrix(m))


def test_format_matrix_builds_no_fraction(monkeypatch):
    m = Matrix.from_rows([[Scalar(Fraction(1, 3), 0, Fraction(-1, 2)), 0], [SQRT2, Fraction(5, 7)]])
    calls = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda *args, **kw: calls.append(args) or new(*args, **kw)))
    assert format_matrix(m) == "1/3-1/2*i,0;1*r2,5/7"
    assert calls == []


def test_matrix_parse_errors():
    for bad in ("", "1,2;3", "1,,2", ";", "1;2;", "a,b"):
        with pytest.raises(MatrixParseError):
            parse_matrix(bad)
    try:
        parse_matrix("1,2;3,zz")
    except MatrixParseError as exc:
        assert exc.offset == 6


def _per_cell(text):
    """The reference reading of matrix text: `parse_scalar` on each cell."""
    return Matrix.from_rows([[parse_scalar(cell) for cell in row.split(",")] for row in text.split(";")])


# terms of matrix text: well-formed ones (digit runs at the fast path's bound
# among them) and near misses, joined by a separator, an operator or junk
_RUN = (MAX_LITERAL_LENGTH - 1) // 2
_TERMS = ("0", "-0", "1", "12", "1/3", "2/4", "-1/2*i", "+i", "i", "r2", "i*r2", "r2*i", "3/4*r2",
          "5*i*r2", "1+1", "9" * _RUN, f"1/{'9' * _RUN}") * 3 + (
          "9" * (_RUN + 1), "2/03", "7/0", "1*i*i", "r2*r2", "", "٣", "1 ", "ii", "1/", "*i")
_SEPARATORS = "+-,;+-,;*/ "


@given(st.lists(st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_TERMS)), max_size=8)
       .map(lambda parts: "".join(sep + term for sep, term in parts)[1:]))
@settings(derandomize=True, max_examples=2000, deadline=None)
def test_fast_validation_accepts_only_what_parse_matrix_parses_to_that_shape(text):
    shape = linalg._matrix_shape(text)
    if shape is not None:
        expected = _per_cell(text)
        assert expected.shape == shape
        assert linalg._read_shaped(text) == expected
        assert parse_matrix(text) == expected == parse_matrix(linalg._Shaped(text))
    else:
        try:
            m = parse_matrix(text)
        except MatrixParseError:
            return
        assert m == _per_cell(text)


def test_canonical_matrix_text_takes_the_fast_path(monkeypatch):
    rng = random.Random(13)
    cases = []
    for _ in range(2000):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, span=rng.choice((1, 3, 10 ** 12)))
        cases.append((m, format_matrix(m), _per_cell(format_matrix(m))))
    # the longest literal the fast path takes
    longest = f"{'7' * _RUN}/{'3' * _RUN}*i"
    cases.append((_per_cell(longest), longest, _per_cell(longest)))
    monkeypatch.setattr(linalg, "parse_scalar", None)  # the per-cell scanner cannot run
    for k, (m, text, expected) in enumerate(cases):
        assert linalg._matrix_shape(text) == m.shape, k
        assert linalg._read_shaped(text) == expected == m, k
        assert parse_matrix(text) == m and parse_matrix(linalg._Shaped(text)) == m, k
    monkeypatch.undo()
    # the shortest literals the fast path leaves to the per-cell scanner
    for slow in (f"{'7' * (_RUN + 1)}", f"1/{'3' * (_RUN + 1)}", "1/03", "1 ,2"):
        assert linalg._matrix_shape(slow) is None
        assert parse_matrix(slow) == _per_cell(slow)
        assert parse_matrix(slow).shape == (1, 2 if "," in slow else 1)


# -- the sparse storage against a per-entry Scalar reference ---------------------------
#
# Every operation is recomputed here one Scalar at a time on plain lists and
# compared through the API edge (m[i, j], entries, row, col).  Inputs are rich
# in exact zeros: the shared ZERO, fresh Scalar() objects, and sums that cancel.

_ZEROS = (ZERO, Scalar(), ONE - ONE) + tuple(x + (-x) for x in _ENTRY_POOL)
_entries = st.one_of(
    st.sampled_from(_ZEROS),
    st.builds(lambda x, k: x * k, st.sampled_from(_ENTRY_POOL),
              st.sampled_from((1, -2, Fraction(1, 5), Fraction(-3, 7)))))


def _grids(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _shaped(rows=st.integers(0, 4), cols=st.integers(0, 4), count=1):
    """(rows, cols, grid, grid, ...): `count` grids of one drawn shape."""
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.tuples(st.just(rc[0]), st.just(rc[1]), *[_grids(*rc)] * count))


def _matrix(rows, cols, grid):
    return Matrix(rows, cols, [x for row in grid for x in row])


def _agrees(m, rows, cols, grid):
    """m is the rows x cols matrix of `grid`, read entry by entry at the edge."""
    flat = tuple(x for row in grid for x in row)
    assert m.shape == (rows, cols)
    assert [[m[i, j] for j in range(cols)] for i in range(rows)] == grid
    assert m.entries == flat and all(_is_normal(x) for x in m.entries)
    assert [m.row(i) for i in range(rows)] == [tuple(row) for row in grid]
    assert [m.col(j) for j in range(cols)] == [tuple(row[j] for row in grid) for j in range(cols)]
    assert all(x is ZERO for x in m.entries if not x)


@given(_shaped(count=2), st.sampled_from(_ENTRY_POOL + _ZEROS[:2]))
@settings(max_examples=80, deadline=None)
def test_entrywise_operations_agree_with_the_per_entry_reference(case, s):
    rows, cols, ga, gb = case
    a, b = _matrix(rows, cols, ga), _matrix(rows, cols, gb)
    _agrees(a, rows, cols, ga)

    def each(f, *grids):
        return [[f(*xs) for xs in zip(*rs)] for rs in zip(*grids)]

    _agrees(a + b, rows, cols, each(lambda x, y: x + y, ga, gb))
    _agrees(a - b, rows, cols, each(lambda x, y: x - y, ga, gb))
    _agrees(-a, rows, cols, each(lambda x: -x, ga))
    _agrees(s * a, rows, cols, each(lambda x: s * x, ga))
    _agrees(a * s, rows, cols, each(lambda x: x * s, ga))
    _agrees(a.conj(), rows, cols, each(Scalar.conj, ga))
    _agrees(a.imag_part(), rows, cols, each(Scalar.imag_part, ga))
    transposed = [[ga[i][j] for i in range(rows)] for j in range(cols)]
    _agrees(a.transpose(), cols, rows, transposed)
    _agrees(a.conj_transpose(), cols, rows, each(Scalar.conj, transposed))
    assert a.is_zero() == all(not x for row in ga for x in row)
    assert (a - a).is_zero() and a - a == Matrix.zero(rows, cols)
    k = min(rows, cols)  # the leading square block
    square = a.block(0, 0, k, k)
    assert square.trace() == sum((ga[i][i] for i in range(k)), ZERO)
    assert square.is_identity() == all(ga[i][j] == (1 if i == j else 0) for i in range(k) for j in range(k))
    assert (square - square + Matrix.identity(k)).is_identity()
    if rows != cols:
        assert not a.is_identity()
        with pytest.raises(ShapeError):
            a.trace()


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_products_agree_with_the_per_entry_reference_on_any_shape(n, k, m, data):
    ga, gb = data.draw(_grids(n, k)), data.draw(_grids(k, m))
    a, b = _matrix(n, k, ga), _matrix(k, m, gb)
    _agrees(a @ b, n, m, [[sum((ga[i][t] * gb[t][j] for t in range(k)), ZERO) for j in range(m)]
                          for i in range(n)])
    _agrees(kron(a, b), n * k, k * m,
            [[ga[i1][j1] * gb[i2][j2] for j1 in range(k) for j2 in range(m)]
             for i1 in range(n) for i2 in range(k)])


@given(st.lists(_shaped(rows=st.just(2)), min_size=1, max_size=3),
       st.lists(_shaped(cols=st.just(2)), min_size=1, max_size=3),
       st.lists(_shaped(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_stacks_agree_with_the_per_entry_reference(side, tower, diagonal):
    _agrees(hstack([_matrix(*c) for c in side]), 2, sum(c[1] for c in side),
            [[x for c in side for x in c[2][i]] for i in range(2)])
    _agrees(vstack([_matrix(*c) for c in tower]), sum(c[0] for c in tower), 2,
            [row for c in tower for row in c[2]])
    width = sum(c[1] for c in diagonal)
    ref, c0 = [], 0
    for rows, cols, grid in diagonal:
        ref += [[ZERO] * c0 + row + [ZERO] * (width - c0 - cols) for row in grid]
        c0 += cols
    _agrees(block_diag([_matrix(*c) for c in diagonal]), len(ref), width, ref)


@given(_shaped(count=2), st.data())
@settings(max_examples=60, deadline=None)
def test_blocks_and_realify_agree_with_the_per_entry_reference(case, data):
    rows, cols, ga, gb = case
    a, b = _matrix(rows, cols, ga), _matrix(rows, cols, gb)
    r0, c0 = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
    h, w = data.draw(st.integers(0, rows - r0)), data.draw(st.integers(0, cols - c0))
    _agrees(a.block(r0, c0, h, w), h, w, [row[c0:c0 + w] for row in ga[r0:r0 + h]])
    # b placed over a: the later block overwrites its whole rectangle, zeros included
    ref = [row[:] for row in ga]
    for i in range(h):
        ref[r0 + i][c0:c0 + w] = gb[i][:w]
    _agrees(place(rows, cols, [(0, 0, a), (r0, c0, b.block(0, 0, h, w))]), rows, cols, ref)
    expect = _realify_per_entry(a, b)
    _agrees(realify(a, b), 2 * rows, 2 * cols,
            [[expect[i, j] for j in range(2 * cols)] for i in range(2 * rows)])


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_elimination_agrees_with_the_reference_on_zero_rich_input(rows, cols, data):
    if data.draw(st.booleans()):
        cols = rows
    m = _matrix(rows, cols, data.draw(_grids(rows, cols)))
    b = _matrix(rows, 1, data.draw(_grids(rows, 1)))
    _assert_elimination_matches_the_reference(m, b)


@given(_shaped(count=1))
@settings(max_examples=80, deadline=None)
def test_equal_values_built_by_different_routes_are_equal_and_hash_equal(case):
    rows, cols, grid = case
    m = _matrix(rows, cols, grid)
    routes = [
        Matrix.from_rows(grid) if rows else Matrix.zero(0, cols),
        place(rows, cols, [(0, 0, m)]),
        place(rows, cols, [(0, 0, m - m), (0, 0, m)]),
        (m + m) - m,
        -(-m),
        m @ Matrix.identity(cols),
        Matrix.identity(rows) @ m,
        m.transpose().transpose(),
        m.conj().conj(),
        vstack([m.block(0, 0, rows // 2, cols), m.block(rows // 2, 0, rows - rows // 2, cols)]),
        unvec(vec(m), rows, cols),
    ]
    if rows and cols:
        routes.append(parse_matrix(format_matrix(m)))
    for other in routes:
        assert other == m and hash(other) == hash(m)
    zeros = [Matrix.zero(rows, cols), m - m, Matrix(rows, cols, [Scalar()] * (rows * cols)), ZERO * m]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)


# -- inertia against an elimination-free oracle ------------------------------------------


def _characteristic_polynomial(m):
    """Coefficients c_0..c_n of det(x I - m), by Faddeev-LeVerrier on plain
    lists of Scalars: no elimination and no Matrix kernel."""
    n = m.rows
    a = [list(m.row(i)) for i in range(n)]
    coeffs = [ZERO] * n + [ONE]
    mk = [[ZERO] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I;  c_{n-k} = -tr(A M_k) / k
        mk = [[sum((a[i][t] * mk[t][j] for t in range(n)), ZERO) + (coeffs[n - k + 1] if i == j else ZERO)
               for j in range(n)] for i in range(n)]
        tr = sum((a[i][t] * mk[t][i] for i in range(n) for t in range(n)), ZERO)
        coeffs[n - k] = -tr * Scalar(Fraction(1, k))
    return coeffs


def _inertia_by_descartes(m):
    """A Hermitian matrix has only real eigenvalues, so Descartes' rule of signs
    is exact for its characteristic polynomial: the positive count is the number
    of sign changes, the zero count the index of the lowest nonzero coefficient."""
    coeffs = _characteristic_polynomial(m)
    signs = [c.sign_real() for c in coeffs]  # sign_real also insists the coefficients are real
    zero = next(k for k, s in enumerate(signs) if s)
    nonzero = [s for s in signs if s]
    pos = sum(1 for s, t in zip(nonzero, nonzero[1:]) if s != t)
    return pos, m.rows - pos - zero, zero


def test_characteristic_polynomial_of_a_diagonal_matrix():
    # (x - 2)(x + 1) x = x^3 - x^2 - 2x
    assert _characteristic_polynomial(Matrix.diagonal([2, -1, 0])) == [0, -2, -1, 1]
    assert _inertia_by_descartes(Matrix.diagonal([2, -1, 0])) == (1, 1, 1)


def test_inertia_agrees_with_descartes_rule_on_the_characteristic_polynomial():
    rng = random.Random(19)
    values = (ONE, -ONE, Scalar(3), ZERO, Scalar(1, -1), Scalar(-3, 2))
    seen = set()
    for case in range(120):
        n = rng.randrange(1, 7)
        if case % 2:
            a = _random_hermitian(rng, n)
        else:  # t^dagger D t: indefinite, singular whenever D holds a zero
            t = random_invertible(rng, n)
            a = t.conj_transpose() @ Matrix.diagonal([rng.choice(values) for _ in range(n)]) @ t
        got = inertia(a)
        assert got == _inertia_by_descartes(a)
        seen.add((got[0] > 0 and got[1] > 0, got[2] > 0))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
