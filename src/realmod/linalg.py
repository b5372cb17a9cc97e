"""Exact sparse linear algebra over Q(i, sqrt2).

Matrices are immutable, and every operation is exact.  A matrix stores one
tuple per row holding that row's nonzero entries only, in ascending column
order, each as a raw canonical `(column, na, nb, nc, nd, den)`: the four
integer numerators of the Scalar's coordinates over one positive denominator,
in lowest terms.  No zero entry is ever stored, so equal matrices have equal
rows, `==` is a tuple comparison and `hash` agrees with it.

Every kernel reads and writes raw rows: `@` and `kron`, the entrywise
operations, the block engine and elimination.  Scalars appear only at the API
edge: `Matrix(rows, cols, entries)` and `from_rows` convert them in, and
`entries`, `m[i, j]`, `row`, `col`, `trace` and `det` convert them out (an
absent entry reads as the shared ZERO).  `format_matrix` prints the raw rows
directly, writing `0` for each absent column.  This module is the one that
knows matrix text.  `_matrix_shape` accepts text of `SCALAR_PATTERN` cells
whose rows all have one length, every `format_matrix` output among it, and
gives its shape; `parse_matrix` reads accepted text in one `findall` of a
term pattern, building raw rows with no Scalar and no call per cell.  Text
marked as accepted (a `_Shaped` string) is read without checking it again, so
text `specfile` validated is read once.  Any other text goes to the per-cell
scanner `_scan_cells`, which parses each cell with `parse_scalar` and positions
every error; `specfile` hands it the text its check rejected directly.
When B selects columns (each row of B holds at most one entry, exactly 1, and
no two rows share its column: an identity, a permutation or a selection), `@`
moves each entry of A to B's column for its row and drops those whose row of B
is empty: every moved entry is 1·x = x and no two land in one column, so no
product is formed and no gcd taken.  The test stops at the first row of B that
fails it.  Otherwise `@` counts its term pairs (an entry of A in column t with
each entry of B's row t) and takes one of two paths.  Below 4 pairs per output
entry it sums the integer numerators of each output entry over a running common
denominator and normalizes it once; products are formed only between nonzeros,
so the block-sparse self-dual structures and Kronecker operands cost what their
nonzeros cost.  From 4 pairs on, `_packed_product` computes it by Kronecker
substitution: one big-integer multiply-add per entry of A, then one unpacking
and normalization per output entry, unless its fields would be wider than 200
bits, where the sparse kernel is faster.  Both give the same canonical rows.
When every row of B keeps its own column, as in the identity, the selection
moves nothing, and A's rows are the product as they are.
`_merge` adds a sparse run of (possibly unnormalized) terms into a row and
normalizes each entry it touches once, which serves `+`, `-`, the trace and the
elimination update.

One pivot step, `_pivot`, is the only row-update loop: echelon reduction, `det`
and `inertia` all eliminate through it, with one fused multiply-subtract and one
normalization per updated entry.  A pivot of 1 is used as it is and one of -1
negates its row, and a multiplier of ±1 merges the pivot row or its negation:
none of them forms an inverse or a product.  Echelon reduction uses
first-nonzero pivoting (the leftmost column, then the top-most row) and reaches
each pivot's rows through a column index: the rows holding each column, built
in one pass and kept through row swaps and fill-in, so a step visits the rows
holding its pivot column rather than every row.  Its result is the unique
reduced row echelon form, and `kernel_basis` returns the null space as the
columns of one matrix, one per free column in ascending index order, so all
derived bases are deterministic; a matrix whose rows each hold at most one
entry reduces to the unit rows of its occupied columns (the first row holding
a column clears the others), so its kernel is read off its empty columns.
For a permutation P, `_permutation_kernel` reads the kernel of P - I off P's
orbits: their indicators, by largest index, are the basis elimination gives.
`inverse` returns the transpose of a permutation, since PᵀP = I, and
eliminates every other matrix.

One block engine builds and reads every block matrix: `place` sets blocks
into an all-zero frame and `Matrix.block` slices one out.  Both take their
shape explicitly, so empty blocks and 0-dimensional frames need no special
case.  `realify` builds its four real blocks without them: each pair of output
rows in one pass over a row of each operand.  `kron` writes the block of rows
that each row of A gives in one pass too, shifting B's rows scaled once per
value, so it scales no row of its own.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm

from .errors import InvariantViolation, ShapeError, SingularMatrixError
from .scalars import (ONE, SCALAR_PATTERN, ZERO, Scalar, _canonical as _scalar, _format_raw, parse_scalar,
                      ScalarParseError)

_ONE, _MINUS_ONE = (1, 0, 0, 0, 1), (-1, 0, 0, 0, 1)  # the raw values (na, nb, nc, nd, den) of ±1


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


def _products(row, x: tuple):
    """x * each entry of `row`, unnormalized."""
    fa, fb, fc, fd, fe = x
    # the product formula of Scalar.__mul__, on raw numerators
    return ((j, fa * a + 2 * (fb * b - fd * d) - fc * c, fa * b + fb * a - fc * d - fd * c,
             fa * c + fc * a + 2 * (fb * d + fd * b), fa * d + fb * c + fc * b + fd * a, fe * e)
            for j, a, b, c, d, e in row)


def _scaled(row: tuple, x: tuple) -> tuple:
    """x * row, normalized; x is a nonzero raw value."""
    return row if x == _ONE else _canon(_products(row, x))


def _shifted(row: tuple, shift: int) -> tuple:
    """row with each column moved by shift."""
    return tuple((j + shift, a, b, c, d, e) for j, a, b, c, d, e in row) if shift else row


def _unit_columns(m: "Matrix") -> list | None:
    """The column of each row's entry when every row of m holds at most one
    entry, that entry is exactly 1 and no two rows share its column (None at
    an empty row); otherwise None, found at the first row that fails."""
    out, seen = [], set()
    for row in m.raw:
        if not row:
            out.append(None)
            continue
        if len(row) > 1 or row[0][1:] != _ONE or (j := row[0][0]) in seen:
            return None
        seen.add(j)
        out.append(j)
    return out


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


# `@` packs a product whose operands form at least this many term pairs per
# output entry.  Timed per band of pairs per entry on the products of one cycle
# of each bench workload, packed time over sparse time was: at 3 pairs, 0.7
# (cli-dense) to 2.3 (locus); at 4, 0.45 (cli-dense) to 1.15 (selftest, 74
# small products); from 6 on, 0.25 to 0.64.
_PACKED_PAIRS = 4

# ...with fields at most this many bits wide.  On dense k×k products (k = 6–16;
# unit, shared, coprime denominators), packed over sparse time was 0.35–0.92 at
# w = 120–132, 0.55–1.07 at 150–172, 0.66–1.15 at 191–212, 0.62–1.45 at 226–258,
# 1.07–1.86 at 273–323 and 5.3–14 from 1500 on; the bench packs w = 12–40.
_PACKED_BITS = 200


def _packed_product(arows: tuple, brows: tuple, cols: int) -> tuple | None:
    """The raw rows of A @ B by Kronecker substitution, from those of A and B,
    or None if its fields would be wider than `_PACKED_BITS`.

    Each row of A is brought over one common denominator da_i and each column
    of B over one db_j.  There an entry a + b√2 + ci + di√2 is
    a + (b+d)ζ + cζ² + (d−b)ζ³ with ζ = ζ₈, since √2 = ζ − ζ³ and i = ζ².
    Read at ζ = 2**w it is one integer, and the product of two entries is one
    integer product whose seven w-bit fields are the coefficients of ζ⁰…ζ⁶.
    Each row of B is packed once, column j at bit 7·w·j, so row i of the
    product is Σₜ x_it · row_t: one multiply-add per entry of A.  Every field
    of that sum is below 2**(w-2) in magnitude, so after an offset each field
    is its own nonnegative w bits.  ζ⁴ = −1 folds the seven fields into four,
    y₀…y₃, and ζ = (√2 + i√2)/2 gives the entry
    (2y₀ + (y₁−y₃)√2 + 2y₂i + (y₁+y₃)i√2) / (2·da_i·db_j).
    """
    da = [lcm(*(x[5] for x in row)) for row in arows]
    db = [1] * cols
    for row in brows:
        for x in row:
            db[x[0]] = lcm(db[x[0]], x[5])
    # packing is linear, so an entry over e is packed over the common
    # denominator by multiplying its packed integer by den // e
    za = max((abs(a) + abs(b) + abs(c) + abs(d)) * (den // e)
             for row, den in zip(arows, da) for _, a, b, c, d, e in row)
    zb = max((abs(a) + abs(b) + abs(c) + abs(d)) * (db[j] // e) for row in brows for j, a, b, c, d, e in row)
    # a ζ-coordinate is at most twice its entry's |a|+|b|+|c|+|d|
    w = (4 * max(map(len, arows)) * za * zb).bit_length() + 2
    if w > _PACKED_BITS:
        return None
    w2, w3, span = 2 * w, 3 * w, 7 * w
    bpacked = [sum((a + ((b + d) << w) + (c << w2) + ((d - b) << w3)) * (db[j] // e) << (span * j)
                   for j, a, b, c, d, e in row) for row in brows]
    # masks and offsets repeated once per column; h = 2**(w-1) added to a
    # field holds any value of magnitude below h as nonnegative w bits
    h, field, four = 1 << (w - 1), (1 << w) - 1, (1 << 4 * w) - 1
    per_column = ((1 << (span * cols)) - 1) // ((1 << span) - 1)
    h4 = h + (h << w) + (h << w2) + (h << w3)  # h in each of four fields
    h7 = (h4 + (h << 4 * w) + (h << 5 * w) + (h << 6 * w)) * per_column
    h3 = (h4 - (h << w3)) * per_column
    keep4, keep3 = four * per_column, ((1 << w3) - 1) * per_column
    out = []
    for arow, den in zip(arows, da):
        p = sum((a + ((b + d) << w) + (c << w2) + ((d - b) << w3)) * (den // e) * bpacked[t]
                for t, a, b, c, d, e in arow) + h7
        # fields 0..3 less fields 4..6 of every column; field 3 keeps its h
        # and the other three get theirs back
        p = (p & keep4) - (p >> 4 * w & keep3) + h3
        den *= 2
        row = []
        for j in range(cols):
            v = p & four
            p >>= span
            if v == h4:  # y₀ = y₁ = y₂ = y₃ = 0
                continue
            y0 = (v & field) - h
            y1 = (v >> w & field) - h
            y2 = (v >> w2 & field) - h
            y3 = (v >> w3) - h
            a, b, c, d, e = 2 * y0, y1 - y3, 2 * y2, y1 + y3, den * db[j]
            g = gcd(a, b, c, d, e)
            row.append((j, a, b, c, d, e) if g == 1 else (j, a // g, b // g, c // g, d // g, e // g))
        out.append(tuple(row))
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
            out.append(_shifted(row[lo:hi], -c0))
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
        if (moved := _unit_columns(other)) is not None:
            # B selects columns: each entry of A is multiplied by 1 and moved
            # to a column no other entry of its row reaches, so nothing is
            # formed or added; where every row of B keeps its own column,
            # nothing moves either
            if moved == list(range(other.rows)):
                return _new(self.rows, other.cols, self.raw)
            return _new(self.rows, other.cols, tuple(
                tuple(sorted((moved[t], a, b, c, d, e) for t, a, b, c, d, e in arow if moved[t] is not None))
                for arow in self.raw))
        # a term pair takes an entry of A and one of B, so there are at most
        # nnz(A) * other.cols and self.rows * nnz(B) of them: the pairs of a
        # sparser A or B are not counted
        if (sum(map(len, self.raw)) >= _PACKED_PAIRS * self.rows
                and sum(map(len, brows)) >= _PACKED_PAIRS * other.cols):
            pairs = sum(len(brows[x[0]]) for arow in self.raw for x in arow)
            if (pairs and pairs >= _PACKED_PAIRS * self.rows * other.cols
                    and (packed := _packed_product(self.raw, brows, other.cols)) is not None):
                return _new(self.rows, other.cols, packed)
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
                target += _shifted(row, c0)
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
    """Kronecker product; index (i1*b.rows + i2, j1*b.cols + j2).

    Each row of A gives a block of b.rows output rows, written in one pass:
    an empty row gives empty rows.  Otherwise the rows of B are scaled once
    per distinct value of A (1 keeps B's own rows), and each entry of A then
    only shifts the columns of those rows.  A row of B whose entries are all 1
    takes A's value as it is, already in lowest terms, so `kron` with an
    identity factor forms no product.
    """
    w = b.cols
    # the columns of each row of B whose entries are all 1, else None
    unit = [tuple([e[0] for e in brow]) if all(e[1:] == _ONE for e in brow) else None for brow in b.raw]
    scaled = {_ONE: b.raw}  # raw value of A -> the rows of B times it, None at a unit row
    empty = ((),) * b.rows
    out = []
    for arow in a.raw:
        if not arow:
            out += empty
            continue
        parts = []
        for x in arow:
            v = x[1:]
            rows = scaled.get(v)
            if rows is None:
                rows = scaled[v] = tuple(None if cols is not None else _canon(_products(brow, v))
                                         for brow, cols in zip(b.raw, unit))
            parts.append((x[0] * w, v, rows))
        if len(parts) == 1:
            s, v, rows = parts[0]
            out += [tuple([(s + j,) + v for j in cols]) if cols is not None
                    else tuple([(s + j, p, q, r, t, e) for j, p, q, r, t, e in row]) if s else row
                    for cols, row in zip(unit, rows)]
        else:
            out += [tuple([(s + j,) + v for s, v, _ in parts for j in cols]) if cols is not None
                    else tuple([(s + j, p, q, r, t, e) for s, _, rows in parts for j, p, q, r, t, e in rows[i]])
                    for i, cols in enumerate(unit)]
    return _new(a.rows * b.rows, a.cols * w, tuple(out))


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
    if pivot == _MINUS_ONE:
        rows[r] = _neg(rows[r])
    elif pivot != _ONE:
        x = _scalar(*pivot).inv()
        rows[r] = _scaled(rows[r], (x.na, x.nb, x.nc, x.nd, x.den))
    prow, negated = rows[r], ()  # negated: -prow, once a row's entry is 1
    probe = (c,)
    for k in targets:
        row = rows[k]
        i = bisect_left(row, probe)
        if i < len(row) and row[i][0] == c:
            f = row[i][1:]
            if f == _MINUS_ONE:
                rows[k] = _merge(row, prow)
            elif f == _ONE:
                negated = negated or _neg(prow)
                rows[k] = _merge(row, negated)
            else:
                fa, fb, fc, fd, fe = f
                rows[k] = _merge(row, _products(prow, (-fa, -fb, -fc, -fd, fe)))
    return pivot


def _rref(rows: list) -> list:
    """In-place reduced row echelon form of raw rows; returns pivot column indices.

    The pivot is the first nonzero of the leftmost column that has one below
    the rows already reduced, scanning top-down.  `holders[j]` holds every
    row with an entry in column j, and perhaps rows whose entry there
    cancelled (`_pivot` tests each target), so a step visits only the rows
    holding its pivot column.
    """
    holders = defaultdict(set)  # column -> rows with an entry there
    for k, row in enumerate(rows):
        for e in row:
            holders[e[0]].add(k)
    pivots = []
    r, nrows = 0, len(rows)
    for c in sorted(holders):
        if r == nrows:
            break
        # rows r.. hold nothing left of column c, so a row there holding c leads with it
        k = min((k for k in holders[c] if k >= r and rows[k] and rows[k][0][0] == c), default=None)
        if k is None:
            continue
        if k != r:  # unindex both rows before indexing either: they may share columns
            for i in (r, k):
                for e in rows[i]:
                    holders[e[0]].discard(i)
            rows[r], rows[k] = rows[k], rows[r]
            for i in (r, k):
                for e in rows[i]:
                    holders[e[0]].add(i)
        targets = holders[c]
        targets.discard(r)
        _pivot(rows, r, c, targets)
        for e in rows[r][1:]:
            holders[e[0]] |= targets
        holders[c] = {r}
        pivots.append(c)
        r += 1
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
    in the free coordinate.  When every row of m holds at most one entry, the
    reduced rows are the unit rows of its occupied columns, whether or not
    rows share one, so the basis is read off the empty columns without
    elimination.
    """
    if all(len(row) <= 1 for row in m.raw):
        # the first row holding a column scales to its unit row, which clears
        # every later row holding that column
        pivots = sorted({row[0][0] for row in m.raw if row})
        rows = [()] * len(pivots)  # what follows each reduced row's 1
    else:
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


def _permutation_kernel(p: Matrix) -> Matrix:
    """`kernel_basis(p - I)` of a permutation matrix p: p v = v exactly when v
    is constant on each orbit of i -> p(i), the column of row i's entry, and
    elimination leaves each orbit's largest index free, with the orbit's
    indicator as its basis column."""
    label, orbits = [None] * p.rows, 0  # index -> its orbit, counted from the last
    for i in reversed(range(p.rows)):
        if label[i] is None:  # no larger index is in i's orbit
            j = i
            while label[j] is None:
                label[j] = orbits
                j = p.raw[j][0][0]
            orbits += 1
    return _new(p.rows, orbits, tuple(((orbits - 1 - k,) + _ONE,) for k in label))


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise ShapeError("inverse of a non-square matrix")
    if (moved := _unit_columns(m)) is not None and None not in moved:
        return m.transpose()  # a permutation: PᵀP = I
    n = m.rows
    rows = [row + ((n + i,) + _ONE,) for i, row in enumerate(m.raw)]
    pivots = _rref(rows)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    # each reduced row is 1 at its pivot, then entries of the right half only
    return _new(n, n, tuple(_shifted(row[1:], -n) for row in rows))


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


def _real(out: list, j: int, a: int, b: int, e: int) -> None:
    """Append the raw (a + b√2)/e at column j to out in lowest terms, unless it is 0."""
    if a or b:
        g = gcd(a, b, e)
        out.append((j, a, b, 0, 0, e) if g == 1 else (j, a // g, b // g, 0, 0, e // g))


def realify(mat: Matrix, conj_part: Matrix) -> Matrix:
    """Real form of the additive map v -> mat*v + conj_part*conj(v).

    Coordinates split as (Re v, Im v) over the real subfield Q(sqrt2); with
    S = mat + conj_part and D = mat - conj_part the result is the 2r x 2c real
    matrix [[Re S, -Im D], [Im S, Re D]].
    """
    if mat.shape != conj_part.shape:
        raise ShapeError("mat and conj_part must share a shape")
    r, w = mat.rows, mat.cols
    top, bottom = [], []  # rows i and r + i, from row i of mat and of conj_part
    for xrow, yrow in zip(mat.raw, conj_part.raw):
        re_s, im_d, im_s, re_d = [], [], [], []
        i = k = 0  # the next entry of each row; an absent entry reads as zero
        while i < len(xrow) or k < len(yrow):
            jx = xrow[i][0] if i < len(xrow) else w
            jy = yrow[k][0] if k < len(yrow) else w
            j, a, b, c, d, e = xrow[i] if jx <= jy else (jy, 0, 0, 0, 0, yrow[k][5])
            _, a2, b2, c2, d2, e2 = yrow[k] if jy <= jx else (jx, 0, 0, 0, 0, e)
            i, k = i + (jx <= jy), k + (jy <= jx)
            if e != e2:  # over the denominator e * e2
                a, b, c, d, a2, b2, c2, d2, e = (a * e2, b * e2, c * e2, d * e2,
                                                 a2 * e, b2 * e, c2 * e, d2 * e, e * e2)
            _real(re_s, j, a + a2, b + b2, e)
            _real(im_d, j + w, c2 - c, d2 - d, e)
            _real(im_s, j, c + c2, d + d2, e)
            _real(re_d, j + w, a - a2, b - b2, e)
        top.append(tuple(re_s + im_d))
        bottom.append(tuple(im_s + re_d))
    return _new(2 * r, 2 * w, tuple(top + bottom))


# -- text form -----------------------------------------------------------------------


class MatrixParseError(ValueError):
    """Malformed matrix text; `offset` is the 0-based position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def format_matrix(m: Matrix) -> str:
    """Rows joined by ';', entries by ','; entries in canonical scalar form.
    With no rows it prints "", and with r rows and no columns r - 1 semicolons:
    `parse_matrix` reads neither back ("empty scalar"), and "" has no width."""
    out = []
    for row in m.raw:
        cells = ["0"] * m.cols
        for j, a, b, c, d, e in row:
            cells[j] = _format_raw(a, b, c, d, e)
        out.append(",".join(cells))
    return ";".join(out)


# Matrix text the one-pass reader takes: `SCALAR_PATTERN` cells (no
# whitespace, bounded digit runs, nonzero denominators) joined by ',' and ';'.
_MATRIX = re.compile(f"{SCALAR_PATTERN}(?:[,;]{SCALAR_PATTERN})*")


class _Shaped(str):
    """Matrix text that `_matrix_shape` accepted: `parse_matrix` reads it
    without checking it again."""

    __slots__ = ()


def _matrix_shape(text: str):
    """(rows, cols) of a matrix text that `_MATRIX` accepts and whose rows all
    have one length, else None.  `parse_matrix` reads every such text in one
    pass."""
    if not _MATRIX.fullmatch(text):
        return None
    rows = text.split(";")
    commas = rows[0].count(",")
    for row in rows:
        if row.count(",") != commas:
            return None
    return len(rows), commas + 1


# One term of text `_MATRIX` accepts: the separator that ends the cell before
# it, its sign, numerator, denominator and marker.  Its digit runs are the ones
# `_MATRIX` bounds, so every int() stays within the interpreter's limit.
_TERM = re.compile(r"([,;]?)([+-]?)([0-9]*)(?:/([0-9]+))?\*?(i\*r2|r2\*i|i|r2|)")


def _read_shaped(text: str) -> Matrix:
    """The Matrix of a text that `_matrix_shape` accepts, from one `findall`.

    Each term is added into its cell's four numerators over a running common
    denominator, as `parse_scalar` does.  A separator, or the empty match that
    ends the list, closes the cell, which is normalized once."""
    rows = []
    row = []
    j = 0
    a = b = c = d = 0  # numerators of 1, r2, i, i*r2 over den, for cell j
    den = 1
    for sep, sign, p, q, marker in _TERM.findall(text):
        if sep or not (p or marker):
            if a or b or c or d:
                g = gcd(a, b, c, d, den)
                row.append((j, a, b, c, d, den) if g == 1 else (j, a // g, b // g, c // g, d // g, den // g))
            if sep == ",":
                j += 1
            else:
                rows.append(tuple(row))
                if not sep:
                    break
                row = []
                j = 0
            a = b = c = d = 0
            den = 1
        p = int(p) if p else 1
        if sign == "-":
            p = -p
        if not q:
            p *= den
        else:
            q = int(q)
            if q != den:
                g = gcd(den, q)
                u = q // g
                a, b, c, d = a * u, b * u, c * u, d * u
                p *= den // g
                den *= u
        if not marker:
            a += p
        elif marker == "i":
            c += p
        elif marker == "r2":
            b += p
        else:  # i*r2 or r2*i
            d += p
    return _new(len(rows), j + 1, tuple(rows))


def parse_matrix(text: str) -> Matrix:
    """The Matrix of `text`: rows joined by ';', entries by ','.

    Text that `_matrix_shape` accepts, canonical text among it, is read in one
    pass by `_read_shaped`; a `_Shaped` string has been accepted already and is
    not checked again.  Any other text (whitespace, a denominator with a
    leading zero, literals longer than `_MATRIX` allows, malformed or ragged
    rows) is parsed cell by cell by `_scan_cells`, so that every error has
    its message and position."""
    if type(text) is _Shaped or _matrix_shape(text) is not None:
        return _read_shaped(text)
    return _scan_cells(text)


def _scan_cells(text: str) -> Matrix:
    """The Matrix of text `_matrix_shape` rejects, cell by cell with `parse_scalar`."""
    rows = []
    ncols = None
    pos = 0
    for row_text in text.split(";"):
        row = []
        col_pos = pos
        cells = row_text.split(",")
        for j, cell in enumerate(cells):
            try:
                s = parse_scalar(cell)
            except ScalarParseError as e:
                raise MatrixParseError(str(e), col_pos + e.offset) from None
            if s:
                row.append((j, s.na, s.nb, s.nc, s.nd, s.den))
            col_pos += len(cell) + 1
        if ncols is None:
            ncols = len(cells)
        elif len(cells) != ncols:
            raise MatrixParseError("ragged matrix rows", pos)
        rows.append(tuple(row))
        pos += len(row_text) + 1
    return _new(len(rows), ncols, tuple(rows))
