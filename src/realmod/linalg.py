"""Exact dense linear algebra over Q(i, sqrt2).

Matrices are immutable, row-major, and every operation is exact.  Echelon
reduction uses first-nonzero pivoting and emits kernel vectors with free
columns in ascending index order, so all derived bases are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, ShapeError, SingularMatrixError
from .scalars import ONE, ZERO, Scalar, format_scalar, parse_scalar, ScalarParseError


def _entry(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.of(value)
    raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")


@dataclass(frozen=True, slots=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple  # row-major Scalars, length rows*cols

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError("entry count does not match shape")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        return cls(nrows, ncols, tuple(_entry(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        values = [_entry(v) for v in values]
        n = len(values)
        return cls(n, n, tuple(values[i] if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, values) -> "Matrix":
        values = [_entry(v) for v in values]
        return cls(len(values), 1, tuple(values))

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j::self.cols] if self.cols else ()

    def column_matrix(self, j: int) -> "Matrix":
        return Matrix(self.rows, 1, self.col(j))

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
        return Matrix(self.rows, self.cols,
                      tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {self.shape} and {other.shape}")
        return Matrix(self.rows, self.cols,
                      tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def __mul__(self, scalar) -> "Matrix":
        s = _entry(scalar)
        return Matrix(self.rows, self.cols, tuple(x * s for x in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = [ZERO] * (n * m)
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            base = i * m
            for t in range(k):
                f = arow[t]
                if not f:
                    continue
                brow = b[t * m:(t + 1) * m]
                for j in range(m):
                    if brow[j]:
                        out[base + j] = out[base + j] + f * brow[j]
        return Matrix(n, m, tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entries[j * self.cols + i]
                            for i in range(self.cols) for j in range(self.rows)))

    def conj(self) -> "Matrix":
        """Entrywise complex conjugation."""
        return Matrix(self.rows, self.cols, tuple(x.conj() for x in self.entries))

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conj()

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ShapeError("trace of a non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self.entries[i * self.cols + i]
        return t

    def is_zero(self) -> bool:
        return all(not x for x in self.entries)

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        return self == Matrix.identity(self.rows)

    def inverse(self) -> "Matrix":
        return inverse(self)

    def __str__(self) -> str:
        return format_matrix(self)

    def __repr__(self) -> str:
        return f"Matrix({format_matrix(self)!r})"


# -- stacking and tensor products ---------------------------------------------


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("hstack of no matrices")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeError("hstack with mismatched row counts")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return Matrix(rows, sum(m.cols for m in mats), tuple(out))


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("vstack of no matrices")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeError("vstack with mismatched column counts")
    out = []
    for m in mats:
        out.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), cols, tuple(out))


def block_diag(mats) -> Matrix:
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [ZERO] * (rows * cols)
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            base = (r0 + i) * cols + c0
            row = m.row(i)
            for j in range(m.cols):
                out[base + j] = row[j]
        r0 += m.rows
        c0 += m.cols
    return Matrix(rows, cols, tuple(out))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i1*b.rows + i2, j1*b.cols + j2)."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [ZERO] * (rows * cols)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            f = a[i1, j1]
            if not f:
                continue
            rbase = i1 * b.rows
            cbase = j1 * b.cols
            for i2 in range(b.rows):
                base = (rbase + i2) * cols + cbase
                brow = b.row(i2)
                for j2 in range(b.cols):
                    if brow[j2]:
                        out[base + j2] = f * brow[j2]
    return Matrix(rows, cols, tuple(out))


def kron_swap(d1: int, d2: int) -> Matrix:
    """Permutation matrix sending e_i (x) e_j to e_j (x) e_i."""
    n = d1 * d2
    out = [ZERO] * (n * n)
    for i in range(d1):
        for j in range(d2):
            out[(j * d1 + i) * n + (i * d2 + j)] = ONE
    return Matrix(n, n, tuple(out))


def vec(m: Matrix) -> Matrix:
    """Row-major flattening to a column; vec(outer(u, v)) = kron(u, v)."""
    return Matrix(m.rows * m.cols, 1, m.entries)


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise ShapeError(f"cannot reshape {v.shape} to {rows}x{cols}")
    return Matrix(rows, cols, v.entries)


# -- echelon reduction and friends ----------------------------------------------


def _rref(rows: list, ncols: int) -> list:
    """In-place reduced row echelon form; returns pivot column indices.

    First nonzero entry scanning top-down picks each pivot, so the result is
    deterministic for a given input.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for k in range(r, nrows):
            if rows[k][c]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inv()
        prow = rows[r]
        for j in range(c, ncols):
            if prow[j]:
                prow[j] = prow[j] * inv
        for k in range(nrows):
            if k == r:
                continue
            f = rows[k][c]
            if not f:
                continue
            krow = rows[k]
            for j in range(c, ncols):
                if prow[j]:
                    krow[j] = krow[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(m: Matrix):
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = _rref(rows, m.cols)
    return Matrix.from_rows(rows) if rows else m, tuple(pivots)


def rank(m: Matrix) -> int:
    rows = [list(m.row(i)) for i in range(m.rows)]
    return len(_rref(rows, m.cols))


def kernel_basis(m: Matrix) -> list:
    """Deterministic exact basis of the null space, as column matrices.

    One basis vector per free column, in ascending free-column order, with a 1
    in the free coordinate.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = _rref(rows, m.cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for t, p in enumerate(pivots):
            coeff = rows[t][f]
            if coeff:
                v[p] = -coeff
        basis.append(Matrix.column(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise ShapeError("inverse of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(n)
    rows = [list(m.row(i)) + list(ident.row(i)) for i in range(n)]
    pivots = _rref(rows, 2 * n)
    if list(pivots) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix.from_rows([r[n:] for r in rows])


def solve(a: Matrix, b: Matrix):
    """One exact solution of A x = b, or None if the system is inconsistent."""
    if a.rows != b.rows or b.cols != 1:
        raise ShapeError(f"cannot solve {a.shape} against {b.shape}")
    rows = [list(a.row(i)) + [b[i, 0]] for i in range(a.rows)]
    pivots = _rref(rows, a.cols + 1)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for t, p in enumerate(pivots):
        x[p] = rows[t][a.cols]
    return Matrix.column(x)


def det(m: Matrix) -> Scalar:
    if not m.is_square:
        raise ShapeError("determinant of a non-square matrix")
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


def inertia(m: Matrix) -> tuple:
    """(positive, negative, zero) eigenvalue counts of a Hermitian matrix.

    Exact congruence diagonalization; by Sylvester's law of inertia the sign
    counts of the pivots are those of the eigenvalues.  Each step takes the
    first nonzero diagonal entry of the remaining block as the pivot and
    replaces the block by its Schur complement.  When the remaining diagonal
    is all zero but some a_jk is not, the congruence e_j <- e_j + conj(a_jk) e_k
    makes the pivot a_jj = 2|a_jk|^2 > 0 (the exact counterpart of a
    Bunch-Kaufman 2x2 pivot).  O(n^3) scalar operations, always decided.
    """
    if not m.is_square:
        raise ShapeError("inertia of a non-square matrix")
    if m.conj_transpose() != m:
        raise InvariantViolation("inertia of a non-Hermitian matrix")
    a = [list(m.row(i)) for i in range(m.rows)]
    rest = list(range(m.rows))
    pos = neg = 0
    while rest:
        p = next((i for i in rest if a[i][i]), None)
        if p is None:
            p, k = next(((j, k) for j in rest for k in rest if a[j][k]), (None, None))
            if p is None:
                break
            c = a[p][k].conj()
            for i in rest:
                a[i][p] = a[i][p] + c * a[i][k]
            cc = c.conj()
            for i in rest:
                a[p][i] = a[p][i] + cc * a[k][i]
        if a[p][p].sign_real() > 0:
            pos += 1
        else:
            neg += 1
        rest.remove(p)
        prow = a[p]
        pinv = prow[p].inv()
        for i in rest:
            f = a[i][p]
            if not f:
                continue
            f = f * pinv
            irow = a[i]
            for j in rest:
                if prow[j]:
                    irow[j] = irow[j] - f * prow[j]
    return pos, neg, len(rest)


# -- realification -----------------------------------------------------------------


def realify(mat: Matrix, conj_part: Matrix) -> Matrix:
    """Real form of the additive map v -> mat*v + conj_part*conj(v).

    Coordinates split as (Re v, Im v) over the real subfield Q(sqrt2); the
    result is a 2r x 2c matrix with real entries.
    """
    if mat.shape != conj_part.shape:
        raise ShapeError("mat and conj_part must share a shape")
    r, c = mat.rows, mat.cols
    out = [ZERO] * (4 * r * c)
    width = 2 * c
    for i in range(r):
        for j in range(c):
            a = mat[i, j]
            b = conj_part[i, j]
            are, aim = a.real_part(), a.imag_part()
            bre, bim = b.real_part(), b.imag_part()
            out[i * width + j] = are + bre
            out[i * width + j + c] = bim - aim
            out[(i + r) * width + j] = aim + bim
            out[(i + r) * width + j + c] = are - bre
    return Matrix(2 * r, 2 * c, tuple(out))


# -- text form -----------------------------------------------------------------------


class MatrixParseError(ValueError):
    """Malformed matrix text; `offset` is the 0-based position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def format_matrix(m: Matrix) -> str:
    """Rows joined by ';', entries by ','; entries in canonical scalar form."""
    return ";".join(",".join(format_scalar(x) for x in m.row(i)) for i in range(m.rows))


def parse_matrix(text: str) -> Matrix:
    rows = []
    ncols = None
    pos = 0
    for row_text in text.split(";"):
        row = []
        col_pos = pos
        for cell in row_text.split(","):
            try:
                row.append(parse_scalar(cell))
            except ScalarParseError as e:
                raise MatrixParseError(str(e), col_pos + e.offset) from None
            col_pos += len(cell) + 1
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise MatrixParseError("ragged matrix rows", pos)
        rows.append(row)
        pos += len(row_text) + 1
    return Matrix.from_rows(rows)
