"""Exact dense linear algebra over Q(i, sqrt2).

Matrices are immutable, row-major, and every operation is exact.  One pivot
step, `_pivot`, is the only row-update loop: echelon reduction, `det` and
`inertia` all eliminate through it.  Echelon reduction uses first-nonzero
pivoting and emits kernel vectors with free columns in ascending index order,
so all derived bases are deterministic.

One block engine builds and reads every block matrix: `place` sets blocks
into a frame of ZERO and `Matrix.block` slices one out.  Both take their shape
explicitly, so empty blocks and 0-dimensional frames need no special case.

Products (`@` and `kron`) are fused raw-integer kernels.  They read a row's
nonzero entries once, as `(column, na, nb, nc, nd, den)` tuples, and only for
rows a nonzero of the other factor reaches; the self-dual structures and
Kronecker operands are block-sparse, so most entries are never touched.  `@`
sums the integer numerators of each output entry over a running common
denominator and builds one normalized Scalar per nonzero entry; `kron` builds
one per nonzero product.  Zero entries stay the shared ZERO.  The results are
the canonical Scalars that per-entry Scalar arithmetic would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from math import gcd
from operator import is_not

from .errors import InvariantViolation, ShapeError, SingularMatrixError
from .scalars import ONE, ZERO, Scalar, _make, format_scalar, parse_scalar, ScalarParseError


def _nonzeros(entries: tuple, start: int, width: int) -> list:
    """(column, na, nb, nc, nd, den) of each nonzero in entries[start:start+width].

    The shared ZERO is skipped by an identity test at C speed, which matters
    for the wide, mostly-ZERO rows of Kronecker products.
    """
    row = entries[start:start + width]
    return [(j, x.na, x.nb, x.nc, x.nd, x.den)
            for j, x in compress(enumerate(row), map(is_not, row, repeat(ZERO)))
            if x.na or x.nb or x.nc or x.nd]


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

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "Matrix":
        """The rows x cols block whose top-left entry is (r0, c0)."""
        _fit(self.rows, self.cols, r0, c0, rows, cols)
        out = []
        for i in range(r0, r0 + rows):
            start = i * self.cols + c0
            out.extend(self.entries[start:start + cols])
        return Matrix(rows, cols, tuple(out))

    def col(self, j: int) -> tuple:
        return self.entries[j::self.cols] if self.cols else ()

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
        brows = [None] * k  # nonzero entries of b's rows, read on first use
        out = [ZERO] * (n * m)
        for i in range(n):
            acc = {}  # column -> [na, nb, nc, nd, den], the running sum of row i
            for t, a1, b1, c1, d1, e1 in _nonzeros(a, i * k, k):
                row = brows[t]
                if row is None:
                    row = brows[t] = _nonzeros(b, t * m, m)
                for j, a2, b2, c2, d2, e2 in row:
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
            base = i * m
            for j, (sa, sb, sc, sd, se) in acc.items():
                if sa or sb or sc or sd:
                    out[base + j] = _make(sa, sb, sc, sd, se)
        return Matrix(n, m, tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entries[j * self.cols + i]
                            for i in range(self.cols) for j in range(self.rows)))

    def conj(self) -> "Matrix":
        """Entrywise complex conjugation."""
        return Matrix(self.rows, self.cols, tuple(x.conj() for x in self.entries))

    def real_part(self) -> "Matrix":
        """Entrywise real part, a matrix over Q(sqrt2)."""
        return Matrix(self.rows, self.cols, tuple(x.real_part() for x in self.entries))

    def imag_part(self) -> "Matrix":
        """Entrywise imaginary part, a matrix over Q(sqrt2)."""
        return Matrix(self.rows, self.cols, tuple(x.imag_part() for x in self.entries))

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


def _fit(rows: int, cols: int, r0: int, c0: int, brows: int, bcols: int) -> None:
    if min(r0, c0, brows, bcols) < 0 or r0 + brows > rows or c0 + bcols > cols:
        raise ShapeError(f"{brows}x{bcols} block at ({r0}, {c0}) leaves the {rows}x{cols} frame")


def place(rows: int, cols: int, blocks) -> Matrix:
    """rows x cols matrix holding each (r0, c0, m) block with its top-left
    entry at (r0, c0), and the shared ZERO everywhere else."""
    out = [ZERO] * (rows * cols)
    for r0, c0, m in blocks:
        _fit(rows, cols, r0, c0, m.rows, m.cols)
        w = m.cols
        for i in range(m.rows):
            start = (r0 + i) * cols + c0
            out[start:start + w] = m.entries[i * w:(i + 1) * w]
    return Matrix(rows, cols, tuple(out))


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
    out = []
    for m in mats:
        out.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), cols, tuple(out))


def block_diag(mats) -> Matrix:
    mats = list(mats)
    r0 = list(accumulate((m.rows for m in mats), initial=0))
    c0 = list(accumulate((m.cols for m in mats), initial=0))
    return place(r0[-1], c0[-1], zip(r0, c0, mats))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i1*b.rows + i2, j1*b.cols + j2)."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [ZERO] * (rows * cols)
    brows = [_nonzeros(b.entries, i2 * b.cols, b.cols) for i2 in range(b.rows)]
    for i1 in range(a.rows):
        for j1, a1, b1, c1, d1, e1 in _nonzeros(a.entries, i1 * a.cols, a.cols):
            base = i1 * b.rows * cols + j1 * b.cols
            for brow in brows:
                for j2, a2, b2, c2, d2, e2 in brow:
                    # the product formula of Scalar.__mul__, on raw numerators
                    out[base + j2] = _make(a1 * a2 + 2 * (b1 * b2 - d1 * d2) - c1 * c2,
                                           a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
                                           a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
                                           a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
                                           e1 * e2)
                base += cols
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


def _pivot(rows: list, r: int, c: int, targets, cols) -> Scalar:
    """Scale row r so that its column-c entry is 1, then clear column c from
    every row in `targets` over `cols`; returns the pivot before scaling."""
    prow = rows[r]
    pivot = prow[c]
    inv = pivot.inv()
    nonzero = []
    for j in cols:
        if prow[j]:
            prow[j] = x = prow[j] * inv
            nonzero.append((j, x))
    for k in targets:
        krow = rows[k]
        f = krow[c]
        if f:
            for j, x in nonzero:
                krow[j] = krow[j] - f * x
    return pivot


def _rref(rows: list, ncols: int) -> list:
    """In-place reduced row echelon form; returns pivot column indices.

    First nonzero entry scanning top-down picks each pivot, so the result is
    deterministic for a given input.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        for k in range(r, nrows):
            if rows[k][c]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        _pivot(rows, r, c, [i for i in range(nrows) if i != r], range(c, ncols))
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
    """Product of the forward-elimination pivots, negated once per row swap."""
    if not m.is_square:
        raise ShapeError("determinant of a non-square matrix")
    n = m.rows
    rows = [list(m.row(i)) for i in range(n)]
    result = ONE
    for c in range(n):
        for k in range(c, n):
            if rows[k][c]:
                break
        else:
            return ZERO
        if k != c:
            rows[c], rows[k] = rows[k], rows[c]
            result = -result
        result = result * _pivot(rows, c, c, range(c + 1, n), range(c, n))
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
        rest.remove(p)
        if _pivot(a, p, p, rest, rest).sign_real() > 0:  # Schur complement on rest
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
    return ";".join(",".join(format_scalar(x) for x in m.row(i)) for i in range(m.rows))


def parse_matrix(text: str) -> Matrix:
    entries = []
    ncols = None
    pos = 0
    seen = {}  # cell text -> Scalar, within this matrix only
    for row_text in text.split(";"):
        row = []
        col_pos = pos
        for cell in row_text.split(","):
            try:
                x = seen.get(cell)
                if x is None:
                    x = seen[cell] = parse_scalar(cell)
                row.append(x)
            except ScalarParseError as e:
                raise MatrixParseError(str(e), col_pos + e.offset) from None
            col_pos += len(cell) + 1
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise MatrixParseError("ragged matrix rows", pos)
        entries.extend(row)
        pos += len(row_text) + 1
    return Matrix(len(entries) // ncols, ncols, tuple(entries))
