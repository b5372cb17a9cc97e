"""Exact sparse linear algebra over Q(i, sqrt2).

Matrices are immutable, and every operation is exact.  A matrix stores one
tuple per row holding that row's nonzero entries only, in ascending column
order, each as a raw canonical `(column, na, nb, nc, nd, den)`: the four
integer numerators of the Scalar's coordinates over one positive denominator,
in lowest terms.  No zero entry is ever stored, so equal matrices have equal
rows, `==` is a tuple comparison and `hash` agrees with it.

Every kernel reads and writes raw rows: `@` and `kron`, the entrywise
operations, the block engine and elimination.  Scalars appear only at the API
edge: `Matrix(rows, cols, entries)`, `from_rows` and `parse_matrix` convert
them in, and `entries`, `m[i, j]`, `row`, `col`, `trace` and `det` convert
them out (an absent entry reads as the shared ZERO).  `format_matrix` prints
the raw rows directly, writing `0` for each absent column.
`@` sums the integer numerators of each output entry over a running common
denominator and normalizes it once; `_merge` adds a sparse run of (possibly
unnormalized) terms into a row and normalizes each entry it touches once, which
serves `+`, `-`, the trace and the elimination update.  Products are formed
only between nonzeros, so the block-sparse self-dual structures and Kronecker
operands cost what their nonzeros cost.

One pivot step, `_pivot`, is the only row-update loop: echelon reduction, `det`
and `inertia` all eliminate through it, with one fused multiply-subtract and one
normalization per updated entry.  Echelon reduction uses first-nonzero
pivoting, and `kernel_basis` returns the null space as the columns of one
matrix, one per free column in ascending index order, so all derived bases are
deterministic.

One block engine builds and reads every block matrix: `place` sets blocks
into an all-zero frame and `Matrix.block` slices one out.  Both take their
shape explicitly, so empty blocks and 0-dimensional frames need no special
case.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd

from .errors import InvariantViolation, ShapeError, SingularMatrixError
from .scalars import ONE, ZERO, Scalar, _canonical as _scalar, _format_raw, parse_scalar, ScalarParseError

_ONE = (1, 0, 0, 0, 1)  # the raw value (na, nb, nc, nd, den) of 1


def _entry(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")


def _raw_row(values) -> tuple:
    """The raw row of a sequence of Scalars (or ints and Fractions)."""
    out = []
    for j, x in enumerate(values):
        if type(x) is not Scalar:
            x = _entry(x)
        if x.na or x.nb or x.nc or x.nd:
            out.append((j, x.na, x.nb, x.nc, x.nd, x.den))
    return tuple(out)


def _at(row: tuple, j: int):
    """The raw entry of `row` in column j, or None."""
    k = bisect_left(row, (j,))
    if k < len(row) and row[k][0] == j:
        return row[k]
    return None


def _canon(terms) -> tuple:
    """A row of nonzero terms with den > 0, each put in lowest terms."""
    out = []
    for j, a, b, c, d, e in terms:
        g = gcd(a, b, c, d, e)
        out.append((j, a, b, c, d, e) if g == 1 else (j, a // g, b // g, c // g, d // g, e // g))
    return tuple(out)


def _products(row, x: tuple, shift: int = 0):
    """x * each entry of `row`, unnormalized, with its column moved by shift."""
    fa, fb, fc, fd, fe = x
    # the product formula of Scalar.__mul__, on raw numerators
    return ((j + shift, fa * a + 2 * (fb * b - fd * d) - fc * c, fa * b + fb * a - fc * d - fd * c,
             fa * c + fc * a + 2 * (fb * d + fd * b), fa * d + fb * c + fc * b + fd * a, fe * e)
            for j, a, b, c, d, e in row)


def _scaled(row: tuple, x: tuple, shift: int = 0) -> tuple:
    """x * row, normalized, with columns moved by shift; x is a nonzero raw value."""
    if x == _ONE:
        return row if not shift else tuple((j + shift, a, b, c, d, e) for j, a, b, c, d, e in row)
    return _canon(_products(row, x, shift))


def _neg(row: tuple) -> tuple:
    return tuple((j, -a, -b, -c, -d, e) for j, a, b, c, d, e in row)


def _merge(row: tuple, terms) -> tuple:
    """row + terms, normalizing once each entry the terms touch.

    `terms` are nonzero, in ascending column order, with den > 0, and need not
    be in lowest terms; entries they do not touch are kept as they are.
    """
    out = []
    i, n = 0, len(row)
    for j, pa, pb, pc, pd, pe in terms:
        if i < n and row[i][0] < j:
            k = bisect_left(row, (j,), i + 1)
            out += row[i:k]
            i = k
        if i < n and row[i][0] == j:
            _, a, b, c, d, e = row[i]
            i += 1
            if e == pe:
                a, b, c, d = a + pa, b + pb, c + pc, d + pd
            else:
                g = gcd(e, pe)
                u, v = pe // g, e // g
                a, b, c, d, e = a * u + pa * v, b * u + pb * v, c * u + pc * v, d * u + pd * v, e * u
            if not (a or b or c or d):
                continue
        else:
            a, b, c, d, e = pa, pb, pc, pd, pe
        g = gcd(a, b, c, d, e)
        out.append((j, a, b, c, d, e) if g == 1 else (j, a // g, b // g, c // g, d // g, e // g))
    out += row[i:]
    return tuple(out)


def _new(rows: int, cols: int, raw: tuple) -> "Matrix":
    """A Matrix from raw rows that are already canonical."""
    m = object.__new__(Matrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "raw", raw)
    return m


class Matrix:
    """rows x cols matrix; `raw` holds one tuple of nonzero raw entries per row."""

    __slots__ = ("rows", "cols", "raw")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimension")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "raw", tuple(_raw_row(entries[i * cols:(i + 1) * cols])
                                              for i in range(rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.raw == other.raw

    def __hash__(self):
        return hash((self.rows, self.cols, self.raw))

    def __reduce__(self):
        return _new, (self.rows, self.cols, self.raw)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        return _new(nrows, ncols, tuple(_raw_row(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return _new(n, n, tuple(((i,) + _ONE,) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return _new(rows, cols, ((),) * rows)

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        values = list(values)
        rows = [()] * len(values)
        for e in _raw_row(values):
            rows[e[0]] = (e,)
        return _new(len(values), len(values), tuple(rows))

    @classmethod
    def column(cls, values) -> "Matrix":
        values = list(values)
        return _new(len(values), 1, tuple(_raw_row((x,)) for x in values))

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} out of range for {self.rows}x{self.cols}")
        e = _at(self.raw[i], j)
        return ZERO if e is None else _scalar(*e[1:])

    def row(self, i: int) -> tuple:
        out = [ZERO] * self.cols
        for j, a, b, c, d, e in self.raw[i]:
            out[j] = _scalar(a, b, c, d, e)
        return tuple(out)

    @property
    def entries(self) -> tuple:
        """Row-major Scalars, length rows*cols; zero entries are the shared ZERO."""
        return tuple(chain.from_iterable(self.row(i) for i in range(self.rows)))

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "Matrix":
        """The rows x cols block whose top-left entry is (r0, c0)."""
        _fit(self.rows, self.cols, r0, c0, rows, cols)
        out = []
        for row in self.raw[r0:r0 + rows]:
            lo = bisect_left(row, (c0,))
            hi = bisect_left(row, (c0 + cols,), lo)
            out.append(row[lo:hi] if not c0 else
                       tuple((j - c0, a, b, c, d, e) for j, a, b, c, d, e in row[lo:hi]))
        return _new(rows, cols, tuple(out))

    def col(self, j: int) -> tuple:
        return tuple(self[i, j] for i in range(self.rows))

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return _new(self.rows, self.cols, tuple(
            x if not y else y if not x else _merge(x, y) for x, y in zip(self.raw, other.raw)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {self.shape} and {other.shape}")
        return _new(self.rows, self.cols, tuple(
            x if not y else _merge(x, _neg(y)) for x, y in zip(self.raw, other.raw)))

    def __neg__(self) -> "Matrix":
        return _new(self.rows, self.cols, tuple(_neg(r) for r in self.raw))

    def __mul__(self, scalar) -> "Matrix":
        s = _entry(scalar)
        if not s:
            return Matrix.zero(self.rows, self.cols)
        x = (s.na, s.nb, s.nc, s.nd, s.den)
        return _new(self.rows, self.cols, tuple(_scaled(r, x) for r in self.raw))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        brows = other.raw
        out = []
        for arow in self.raw:
            if len(arow) == 1:  # one product per entry: nothing can cancel
                out.append(_scaled(brows[arow[0][0]], arow[0][1:]))
                continue
            acc = {}  # column -> [na, nb, nc, nd, den], the running sum of the row
            for t, a1, b1, c1, d1, e1 in arow:
                for j, a2, b2, c2, d2, e2 in brows[t]:
                    # the product formula of Scalar.__mul__, on raw numerators
                    pa = a1 * a2 + 2 * (b1 * b2 - d1 * d2) - c1 * c2
                    pb = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
                    pc = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
                    pd = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
                    pe = e1 * e2
                    s = acc.get(j)
                    if s is None:
                        acc[j] = [pa, pb, pc, pd, pe]
                    elif s[4] == pe:
                        s[0] += pa
                        s[1] += pb
                        s[2] += pc
                        s[3] += pd
                    else:
                        g = gcd(s[4], pe)
                        u, v = pe // g, s[4] // g
                        acc[j] = [s[0] * u + pa * v, s[1] * u + pb * v,
                                  s[2] * u + pc * v, s[3] * u + pd * v, s[4] * u]
            row = []
            for j in sorted(acc):
                a, b, c, d, e = acc[j]
                if a or b or c or d:
                    g = gcd(a, b, c, d, e)
                    row.append((j, a, b, c, d, e) if g == 1 else (j, a // g, b // g, c // g, d // g, e // g))
            out.append(tuple(row))
        return _new(self.rows, other.cols, tuple(out))

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.raw):
            for j, a, b, c, d, e in row:
                out[j].append((i, a, b, c, d, e))
        return _new(self.cols, self.rows, tuple(map(tuple, out)))

    def conj(self) -> "Matrix":
        """Entrywise complex conjugation."""
        return _new(self.rows, self.cols, tuple(
            tuple((j, a, b, -c, -d, e) for j, a, b, c, d, e in row)
            if any(x[3] or x[4] for x in row) else row for row in self.raw))

    def real_part(self) -> "Matrix":
        """Entrywise real part, a matrix over Q(sqrt2)."""
        return _new(self.rows, self.cols, tuple(
            _canon((j, a, b, 0, 0, e) for j, a, b, c, d, e in row if a or b)
            if any(x[3] or x[4] for x in row) else row for row in self.raw))

    def imag_part(self) -> "Matrix":
        """Entrywise imaginary part, a matrix over Q(sqrt2)."""
        return _new(self.rows, self.cols, tuple(
            _canon((j, c, d, 0, 0, e) for j, a, b, c, d, e in row if c or d) for row in self.raw))

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conj()

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ShapeError("trace of a non-square matrix")
        total = ()
        for i, row in enumerate(self.raw):
            e = _at(row, i)
            if e is not None:
                total = _merge(total, ((0,) + e[1:],))
        return _scalar(*total[0][1:]) if total else ZERO

    def is_zero(self) -> bool:
        return not any(self.raw)

    def is_identity(self) -> bool:
        return self.is_square and all(row == ((i,) + _ONE,) for i, row in enumerate(self.raw))

    def __str__(self) -> str:
        return format_matrix(self)

    def __repr__(self) -> str:
        return f"Matrix({format_matrix(self)!r})"


# -- stacking and tensor products ---------------------------------------------


def _fit(rows: int, cols: int, r0: int, c0: int, brows: int, bcols: int) -> None:
    if min(r0, c0, brows, bcols) < 0 or r0 + brows > rows or c0 + bcols > cols:
        raise ShapeError(f"{brows}x{bcols} block at ({r0}, {c0}) leaves the {rows}x{cols} frame")


def place(rows: int, cols: int, blocks) -> Matrix:
    """rows x cols matrix holding each (r0, c0, m) block with its top-left
    entry at (r0, c0), and zero everywhere else; a later block overwrites the
    whole rectangle of an earlier one it overlaps."""
    out = [[] for _ in range(rows)]
    unsorted = set()
    for r0, c0, m in blocks:
        _fit(rows, cols, r0, c0, m.rows, m.cols)
        hi = c0 + m.cols
        for i, row in enumerate(m.raw, r0):
            target = out[i]
            if target and (i in unsorted or target[-1][0] >= c0):  # the block may overlap
                target[:] = [e for e in target if not c0 <= e[0] < hi]
                unsorted.add(i)
            if row:
                target += _scaled(row, _ONE, c0)
    return _new(rows, cols, tuple(tuple(sorted(r)) if i in unsorted else tuple(r)
                                  for i, r in enumerate(out)))


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("hstack of no matrices")
    if any(m.rows != mats[0].rows for m in mats):
        raise ShapeError("hstack with mismatched row counts")
    offsets = list(accumulate((m.cols for m in mats), initial=0))
    return place(mats[0].rows, offsets[-1], [(0, c0, m) for c0, m in zip(offsets, mats)])


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("vstack of no matrices")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeError("vstack with mismatched column counts")
    return _new(sum(m.rows for m in mats), cols, tuple(chain.from_iterable(m.raw for m in mats)))


def block_diag(mats) -> Matrix:
    mats = list(mats)
    r0 = list(accumulate((m.rows for m in mats), initial=0))
    c0 = list(accumulate((m.cols for m in mats), initial=0))
    return place(r0[-1], c0[-1], zip(r0, c0, mats))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i1*b.rows + i2, j1*b.cols + j2)."""
    w = b.cols
    return _new(a.rows * b.rows, a.cols * w, tuple(
        tuple(chain.from_iterable(_scaled(brow, x[1:], x[0] * w) for x in arow))
        for arow in a.raw for brow in b.raw))


def kron_swap(d1: int, d2: int) -> Matrix:
    """Permutation matrix sending e_i (x) e_j to e_j (x) e_i."""
    return _new(d1 * d2, d1 * d2, tuple(((i * d2 + j,) + _ONE,) for j in range(d2) for i in range(d1)))


def vec(m: Matrix) -> Matrix:
    """Row-major flattening to a column; vec(outer(u, v)) = kron(u, v)."""
    out = [()] * (m.rows * m.cols)
    for i, row in enumerate(m.raw):
        for e in row:
            out[i * m.cols + e[0]] = ((0,) + e[1:],)
    return _new(m.rows * m.cols, 1, tuple(out))


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise ShapeError(f"cannot reshape {v.shape} to {rows}x{cols}")
    out = [[] for _ in range(rows)]
    for k, row in enumerate(v.raw):
        if row:
            out[k // cols].append((k % cols,) + row[0][1:])
    return _new(rows, cols, tuple(map(tuple, out)))


# -- echelon reduction and friends ----------------------------------------------


def _pivot(rows: list, r: int, c: int, targets) -> tuple:
    """Scale row r so that its column-c entry is 1, then clear column c from
    every row in `targets`; returns the raw pivot (na, nb, nc, nd, den) before
    scaling."""
    pivot = _at(rows[r], c)[1:]
    x = _scalar(*pivot).inv()
    prow = rows[r] = _scaled(rows[r], (x.na, x.nb, x.nc, x.nd, x.den))
    probe = (c,)
    for k in targets:
        row = rows[k]
        i = bisect_left(row, probe)
        if i < len(row) and row[i][0] == c:
            _, fa, fb, fc, fd, fe = row[i]
            rows[k] = _merge(row, _products(prow, (-fa, -fb, -fc, -fd, fe)))
    return pivot


def _rref(rows: list) -> list:
    """In-place reduced row echelon form of raw rows; returns pivot column indices.

    The pivot is the first nonzero of the leftmost column that has one below
    the rows already reduced, scanning top-down, so the result is
    deterministic for a given input.
    """
    pivots = []
    nrows = len(rows)
    for r in range(nrows):
        lead = [(row[0][0], k) for k, row in enumerate(rows[r:], r) if row]
        if not lead:
            break
        c, k = min(lead)
        rows[r], rows[k] = rows[k], rows[r]
        _pivot(rows, r, c, [i for i in range(nrows) if i != r])
        pivots.append(c)
    return pivots


def rref(m: Matrix):
    rows = list(m.raw)
    pivots = _rref(rows)
    return _new(m.rows, m.cols, tuple(rows)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(_rref(list(m.raw)))


def kernel_basis(m: Matrix) -> Matrix:
    """Deterministic exact basis of the null space, as the columns of one
    m.cols x nullity matrix.

    One basis column per free column, in ascending free-column order, with a 1
    in the free coordinate.
    """
    rows = list(m.raw)
    pivots = _rref(rows)
    free = sorted(set(range(m.cols)).difference(pivots))
    index = [0] * m.cols  # free column -> its basis column
    out = [()] * m.cols
    for k, f in enumerate(free):
        index[f] = k
        out[f] = ((k,) + _ONE,)
    for p, row in zip(pivots, rows):  # the reduced row is 1 at p, then free columns
        out[p] = tuple((index[f], -a, -b, -c, -d, e) for f, a, b, c, d, e in row[1:])
    return _new(m.cols, len(free), tuple(out))


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise ShapeError("inverse of a non-square matrix")
    n = m.rows
    rows = [row + ((n + i,) + _ONE,) for i, row in enumerate(m.raw)]
    pivots = _rref(rows)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    # each reduced row is 1 at its pivot, then entries of the right half only
    return _new(n, n, tuple(_scaled(row[1:], _ONE, -n) for row in rows))


def solve(a: Matrix, b: Matrix):
    """One exact solution of A x = b, or None if the system is inconsistent."""
    if a.rows != b.rows or b.cols != 1:
        raise ShapeError(f"cannot solve {a.shape} against {b.shape}")
    n = a.cols
    rows = [row + ((n,) + rhs[0][1:],) if rhs else row for row, rhs in zip(a.raw, b.raw)]
    pivots = _rref(rows)
    if n in pivots:
        return None
    x = [()] * n
    for p, row in zip(pivots, rows):
        if row[-1][0] == n:
            x[p] = ((0,) + row[-1][1:],)
    return _new(n, 1, tuple(x))


def det(m: Matrix) -> Scalar:
    """Product of the forward-elimination pivots, negated once per row swap."""
    if not m.is_square:
        raise ShapeError("determinant of a non-square matrix")
    n = m.rows
    rows = list(m.raw)
    result = ONE
    for c in range(n):
        # rows c.. are zero left of column c, so a nonzero there leads its row
        k = next((k for k in range(c, n) if rows[k] and rows[k][0][0] == c), None)
        if k is None:
            return ZERO
        if k != c:
            rows[c], rows[k] = rows[k], rows[c]
            result = -result
        result = result * _scalar(*_pivot(rows, c, c, range(c + 1, n)))
    return result


def inertia(m: Matrix) -> tuple:
    """(positive, negative, zero) eigenvalue counts of a Hermitian matrix.

    Exact congruence diagonalization; by Sylvester's law of inertia the sign
    counts of the pivots are those of the eigenvalues.  Each step takes the
    first nonzero diagonal entry of the remaining block as the pivot and
    replaces the block by its Schur complement.  When the remaining diagonal
    is all zero but some a_jk is not, the congruence e_j <- e_j + conj(a_jk) e_k
    makes the pivot a_jj = 2|a_jk|^2 > 0 (the exact counterpart of a
    Bunch-Kaufman 2x2 pivot).  O(n^3) scalar operations, always decided.
    Each step clears the pivot's column from the remaining rows, so those rows
    hold no entry outside the remaining block.
    """
    if not m.is_square:
        raise ShapeError("inertia of a non-square matrix")
    if m.conj_transpose() != m:
        raise InvariantViolation("inertia of a non-Hermitian matrix")
    a = list(m.raw)
    rest = list(range(m.rows))
    pos = neg = 0
    while rest:
        p = next((i for i in rest if _at(a[i], i)), None)
        if p is None:
            p, k = next(((j, a[j][0][0]) for j in rest if a[j]), (None, None))
            if p is None:
                break
            _, x, y, z, w, d = _at(a[p], k)
            c = (x, y, -z, -w, d)  # conj(a_pk): column p += c * column k
            for i in rest:
                aik = _at(a[i], k)
                if aik is not None:
                    a[i] = _merge(a[i], _products(((p,) + aik[1:],), c))
            # then row p += conj(c) * row k
            a[p] = _merge(a[p], _products(a[k], (x, y, z, w, d)))
        rest.remove(p)
        if _scalar(*_pivot(a, p, p, rest)).sign_real() > 0:  # Schur complement on rest
            pos += 1
        else:
            neg += 1
    return pos, neg, len(rest)


# -- realification -----------------------------------------------------------------


def realify(mat: Matrix, conj_part: Matrix) -> Matrix:
    """Real form of the additive map v -> mat*v + conj_part*conj(v).

    Coordinates split as (Re v, Im v) over the real subfield Q(sqrt2); with
    S = mat + conj_part and D = mat - conj_part the result is the 2r x 2c real
    matrix [[Re S, -Im D], [Im S, Re D]].
    """
    if mat.shape != conj_part.shape:
        raise ShapeError("mat and conj_part must share a shape")
    r, c = mat.rows, mat.cols
    s, d = mat + conj_part, mat - conj_part
    return place(2 * r, 2 * c, [(0, 0, s.real_part()), (0, c, -d.imag_part()),
                                (r, 0, s.imag_part()), (r, c, d.real_part())])


# -- text form -----------------------------------------------------------------------


class MatrixParseError(ValueError):
    """Malformed matrix text; `offset` is the 0-based position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def format_matrix(m: Matrix) -> str:
    """Rows joined by ';', entries by ','; entries in canonical scalar form."""
    out = []
    for row in m.raw:
        cells = ["0"] * m.cols
        for j, a, b, c, d, e in row:
            cells[j] = _format_raw(a, b, c, d, e)
        out.append(",".join(cells))
    return ";".join(out)


def parse_matrix(text: str) -> Matrix:
    rows = []
    ncols = None
    pos = 0
    seen = {}  # cell text -> raw value, or () for zero, within this matrix only
    for row_text in text.split(";"):
        row = []
        col_pos = pos
        j = 0
        for cell in row_text.split(","):
            x = seen.get(cell)
            if x is None:
                try:
                    s = parse_scalar(cell)
                except ScalarParseError as e:
                    raise MatrixParseError(str(e), col_pos + e.offset) from None
                x = seen[cell] = (s.na, s.nb, s.nc, s.nd, s.den) if s.na or s.nb or s.nc or s.nd else ()
            if x:
                row.append((j,) + x)
            j += 1
            col_pos += len(cell) + 1
        if ncols is None:
            ncols = j
        elif j != ncols:
            raise MatrixParseError("ragged matrix rows", pos)
        rows.append(tuple(row))
        pos += len(row_text) + 1
    return _new(len(rows), ncols, tuple(rows))
