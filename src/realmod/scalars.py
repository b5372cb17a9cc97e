"""Exact arithmetic in the field Q(i, sqrt2).

Every scalar lives on the rational basis {1, sqrt2, i, i*sqrt2}.  Internally
the four coordinates are integer numerators over one shared positive
denominator in lowest terms, so equality is a tuple comparison and the ring
operations are integer convolutions followed by a single gcd normalization.
Complex conjugation negates the (i, i*sqrt2) coordinates; the real subfield
Q(sqrt2) is exactly the slice where they vanish.  The sign of a real scalar
p + q*sqrt2 is decided exactly by comparing p^2 against 2*q^2 together with
the signs of p and q.  No floating point is used anywhere.

The textual form is a sum of terms `p/q`, `p/q*r2`, `p/q*i`, `p/q*i*r2`
(e.g. ``1/2+1/2*i*r2``); parsing accepts optional whitespace and either marker
order, printing is canonical and space-free, and parse(format(x)) == x holds
bit-exactly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_R_ZERO = Fraction(0)
_R_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational")


class Scalar:
    """The element a + b*sqrt2 + c*i + d*i*sqrt2 of Q(i, sqrt2).

    Immutable.  The coordinate views a, b, c, d are Fractions; construction
    accepts ints or Fractions in that order.

    >>> x = Scalar.of(1, 0, 1)          # 1 + i
    >>> y = x.conj()                    # 1 - i
    >>> str(x * y)
    '2'
    >>> str(SQRT2 * SQRT2)
    '2'
    >>> str(I * I)
    '-1'
    """

    __slots__ = ("na", "nb", "nc", "nd", "den")

    def __init__(self, a=_R_ZERO, b=_R_ZERO, c=_R_ZERO, d=_R_ZERO):
        fa = _as_fraction(a)
        fb = _as_fraction(b)
        fc = _as_fraction(c)
        fd = _as_fraction(d)
        den = math.lcm(fa.denominator, fb.denominator, fc.denominator, fd.denominator)
        # each input is in lowest terms, so the combined tuple already is
        self.na = fa.numerator * (den // fa.denominator)
        self.nb = fb.numerator * (den // fb.denominator)
        self.nc = fc.numerator * (den // fc.denominator)
        self.nd = fd.numerator * (den // fd.denominator)
        self.den = den

    @staticmethod
    def of(a=0, b=0, c=0, d=0) -> "Scalar":
        return Scalar(_as_fraction(a), _as_fraction(b), _as_fraction(c), _as_fraction(d))

    # -- coordinate views ----------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    @property
    def c(self) -> Fraction:
        return Fraction(self.nc, self.den)

    @property
    def d(self) -> Fraction:
        return Fraction(self.nd, self.den)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        d1 = self.den
        d2 = other.den
        if d1 == d2:
            return _make(self.na + other.na, self.nb + other.nb,
                         self.nc + other.nc, self.nd + other.nd, d1)
        return _make(self.na * d2 + other.na * d1, self.nb * d2 + other.nb * d1,
                     self.nc * d2 + other.nc * d1, self.nd * d2 + other.nd * d1,
                     d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        d1 = self.den
        d2 = other.den
        if d1 == d2:
            return _make(self.na - other.na, self.nb - other.nb,
                         self.nc - other.nc, self.nd - other.nd, d1)
        return _make(self.na * d2 - other.na * d1, self.nb * d2 - other.nb * d1,
                     self.nc * d2 - other.nc * d1, self.nd * d2 - other.nd * d1,
                     d1 * d2)

    def __rsub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        s = object.__new__(Scalar)
        s.na = -self.na
        s.nb = -self.nb
        s.nc = -self.nc
        s.nd = -self.nd
        s.den = self.den
        return s

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        a1, b1, c1, d1 = self.na, self.nb, self.nc, self.nd
        a2, b2, c2, d2 = other.na, other.nb, other.nc, other.nd
        # split into real/imag parts over Q(sqrt2); sqrt2*sqrt2 = 2, i*i = -1
        return _make(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        # 1/x = conj(x) / (x conj(x)); the norm is p + q*sqrt2 over den^2 with
        # rational conjugate-norm p^2 - 2 q^2, which vanishes only at x = 0.
        na, nb, nc, nd, den = self.na, self.nb, self.nc, self.nd, self.den
        p = na * na + 2 * nb * nb + nc * nc + 2 * nd * nd
        q = 2 * (na * nb + nc * nd)
        norm = p * p - 2 * q * q
        if norm == 0:
            raise ZeroDivisionError("scalar division by zero")
        return self.conj() * _make(den * den * p, -den * den * q, 0, 0, norm)

    def __truediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- involution and realness -------------------------------------------

    def conj(self) -> "Scalar":
        """Complex conjugate: negates the i and i*sqrt2 coordinates."""
        s = object.__new__(Scalar)
        s.na = self.na
        s.nb = self.nb
        s.nc = -self.nc
        s.nd = -self.nd
        s.den = self.den
        return s

    def is_real(self) -> bool:
        return self.nc == 0 and self.nd == 0

    def is_zero(self) -> bool:
        return self.na == 0 and self.nb == 0 and self.nc == 0 and self.nd == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def real_part(self) -> "Scalar":
        """(x + conj(x)) / 2, i.e. the Q(sqrt2) coordinate pair (a, b)."""
        return _make(self.na, self.nb, 0, 0, self.den)

    def imag_part(self) -> "Scalar":
        """(x - conj(x)) / 2i as a real scalar, i.e. the pair (c, d)."""
        return _make(self.nc, self.nd, 0, 0, self.den)

    def sign_real(self) -> int:
        """Exact sign in {-1, 0, +1} of a real scalar p + q*sqrt2."""
        if self.nc or self.nd:
            raise ValueError("sign_real requires a real scalar")
        p, q = self.na, self.nb
        if not p and not q:
            return 0
        if p >= 0 and q >= 0:
            return 1
        if p <= 0 and q <= 0:
            return -1
        # opposite signs: the rational part wins iff p^2 > 2 q^2
        rational_wins = p * p > 2 * q * q
        if p > 0:
            return 1 if rational_wins else -1
        return -1 if rational_wins else 1

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (
                self.na == other.na
                and self.nb == other.nb
                and self.nc == other.nc
                and self.nd == other.nd
                and self.den == other.den
            )
        if isinstance(other, int):
            return (self.den == 1 and self.nb == 0 and self.nc == 0
                    and self.nd == 0 and self.na == other)
        if isinstance(other, Fraction):
            return (self.nb == 0 and self.nc == 0 and self.nd == 0
                    and self.na == other.numerator and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.nb == 0 and self.nc == 0 and self.nd == 0:
            return hash(Fraction(self.na, self.den))  # agrees with int/Fraction hashing
        return hash((self.na, self.nb, self.nc, self.nd, self.den))

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


def _make(na: int, nb: int, nc: int, nd: int, den: int) -> Scalar:
    """Fast constructor from raw integer coordinates; normalizes in place."""
    if den < 0:
        na, nb, nc, nd, den = -na, -nb, -nc, -nd, -den
    g = math.gcd(na, nb, nc, nd, den)
    if g > 1:
        na //= g
        nb //= g
        nc //= g
        nd //= g
        den //= g
    s = object.__new__(Scalar)
    s.na = na
    s.nb = nb
    s.nc = nc
    s.nd = nd
    s.den = den
    return s


def _lift(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return _make(value, 0, 0, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, 0, 0, value.denominator)
    return None


ZERO = Scalar()
ONE = Scalar(_R_ONE)
I = Scalar(_R_ZERO, _R_ZERO, _R_ONE)
SQRT2 = Scalar(_R_ZERO, _R_ONE)
INV_SQRT2 = Scalar(_R_ZERO, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2


_SUFFIXES = ("", "*r2", "*i", "*i*r2")


def format_scalar(x: Scalar) -> str:
    """Canonical space-free text: terms in coordinate order, e.g. ``1/2-1/2*i``."""
    parts: list[str] = []
    for coord, suffix in zip((x.a, x.b, x.c, x.d), _SUFFIXES):
        if not coord:
            continue
        if not parts:
            parts.append(f"{coord}{suffix}")
        elif coord > 0:
            parts.append(f"+{coord}{suffix}")
        else:
            parts.append(f"-{-coord}{suffix}")
    if not parts:
        return "0"
    return "".join(parts)


class ScalarParseError(ValueError):
    """Malformed scalar text; `offset` is the 0-based position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


_RATIONAL_RE = re.compile(r"\d+(?:/\d+)?")


def parse_scalar(text: str) -> Scalar:
    """Parse the textual form back into a Scalar (inverse of format_scalar)."""
    coords = {(False, False): _R_ZERO, (False, True): _R_ZERO,
              (True, False): _R_ZERO, (True, True): _R_ZERO}
    i = 0
    n = len(text)

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    def parse_marker(j: int):
        # returns (is_i, next_position)
        if text.startswith("r2", j):
            return False, j + 2
        if j < n and text[j] == "i":
            return True, j + 1
        raise ScalarParseError("expected i or r2", j)

    i = skip_ws(i)
    if i == n:
        raise ScalarParseError("empty scalar", i)
    first = True
    while True:
        sign = 1
        if i < n and text[i] in "+-":
            if text[i] == "-":
                sign = -1
            i = skip_ws(i + 1)
        elif not first:
            raise ScalarParseError("expected + or - between terms", i)
        if i >= n:
            raise ScalarParseError("expected term", i)
        has_i = False
        has_r2 = False
        if text[i].isdigit():
            m = _RATIONAL_RE.match(text, i)
            term_start = i
            try:
                coeff = Fraction(m.group())
            except ZeroDivisionError:
                raise ScalarParseError("zero denominator", term_start) from None
            i = m.end()
            while i < n and text[i] == "*":
                is_i, i2 = parse_marker(i + 1)
                if (is_i and has_i) or (not is_i and has_r2):
                    raise ScalarParseError("repeated marker", i + 1)
                if is_i:
                    has_i = True
                else:
                    has_r2 = True
                i = i2
        elif text[i] in "ir":
            coeff = _R_ONE
            while True:
                is_i, i2 = parse_marker(i)
                if (is_i and has_i) or (not is_i and has_r2):
                    raise ScalarParseError("repeated marker", i)
                if is_i:
                    has_i = True
                else:
                    has_r2 = True
                i = i2
                if i < n and text[i] == "*":
                    i += 1
                else:
                    break
        else:
            raise ScalarParseError(f"unexpected character {text[i]!r}", i)
        coords[(has_i, has_r2)] += sign * coeff
        first = False
        i = skip_ws(i)
        if i == n:
            break
        if text[i] not in "+-":
            raise ScalarParseError(f"unexpected character {text[i]!r}", i)
    return Scalar(coords[(False, False)], coords[(False, True)],
                  coords[(True, False)], coords[(True, True)])
