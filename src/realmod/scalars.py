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
bit-exactly.  Literals are ASCII digits only.  The parser adds each term's
integers p and q into the four numerators over a running common denominator
and normalizes once; the printer reduces each nonzero numerator against the
denominator by one gcd.  Neither builds a Fraction.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction


class Scalar:
    """The element a + b*sqrt2 + c*i + d*i*sqrt2 of Q(i, sqrt2).

    Immutable.  Construction takes ints or Fractions a, b, c, d in that order,
    kept as integer numerators na, nb, nc, nd over one denominator den.

    >>> x = Scalar(1, 0, 1)             # 1 + i
    >>> y = x.conj()                    # 1 - i
    >>> str(x * y)
    '2'
    >>> str(SQRT2 * SQRT2)
    '2'
    >>> str(I * I)
    '-1'
    """

    __slots__ = ("na", "nb", "nc", "nd", "den")

    def __init__(self, a=0, b=0, c=0, d=0):
        for v in (a, b, c, d):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(v).__name__} to a rational")
        den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        # each input is in lowest terms, so the combined tuple already is
        self.na = a.numerator * (den // a.denominator)
        self.nb = b.numerator * (den // b.denominator)
        self.nc = c.numerator * (den // c.denominator)
        self.nd = d.numerator * (den // d.denominator)
        self.den = den

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

    def __bool__(self) -> bool:
        return bool(self.na or self.nb or self.nc or self.nd)

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


def _canonical(na: int, nb: int, nc: int, nd: int, den: int) -> Scalar:
    """The Scalar of a raw value already in lowest terms with den > 0."""
    s = object.__new__(Scalar)
    s.na, s.nb, s.nc, s.nd, s.den = na, nb, nc, nd, den
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
ONE = Scalar(1)
I = Scalar(0, 0, 1)
SQRT2 = Scalar(0, 1)
INV_SQRT2 = Scalar(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2


_SUFFIXES = ("", "*r2", "*i", "*i*r2")


class ScalarFormatError(ValueError):
    """A coordinate has more decimal digits than the interpreter converts to text."""


def _too_long(v: int, limit: int) -> bool:
    """Whether |v| has more than `limit` decimal digits, decided without str()."""
    # |v| < 2**b < 10**(b*30103//100000 + 1), so only a long b needs the exact test
    return v.bit_length() * 30103 // 100000 >= limit and abs(v) >= 10 ** limit


def _format_raw(na: int, nb: int, nc: int, nd: int, den: int) -> str:
    """`format_scalar` of the raw value (na, nb, nc, nd) / den, with den > 0."""
    limit = sys.get_int_max_str_digits()
    parts: list[str] = []
    for n, suffix in zip((na, nb, nc, nd), _SUFFIXES):
        if not n:
            continue
        g = math.gcd(n, den)
        p, q = n // g, den // g
        if limit and (_too_long(p, limit) or _too_long(q, limit)):
            raise ScalarFormatError(f"cannot print a scalar coordinate of more than {limit} digits")
        sign = "-" if p < 0 else "+" if parts else ""
        parts.append(f"{sign}{abs(p)}{suffix}" if q == 1 else f"{sign}{abs(p)}/{q}{suffix}")
    return "".join(parts) or "0"


def format_scalar(x: Scalar) -> str:
    """Canonical space-free text: terms in coordinate order, e.g. ``1/2-1/2*i``.

    Raises ScalarFormatError, before any int-to-str conversion, when a reduced
    coordinate has more digits than `sys.get_int_max_str_digits()` allows.
    """
    return _format_raw(x.na, x.nb, x.nc, x.nd, x.den)


class ScalarParseError(ValueError):
    """Malformed scalar text; `offset` is the 0-based position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


_DIGIT = "[0-9]"  # ASCII only: str.isdigit accepts '²', and re's \d accepts '٣'
_RATIONAL_RE = re.compile(f"({_DIGIT}+)(?:/({_DIGIT}+))?")
# Longest rational literal `p` or `p/q`, in characters.  It keeps every digit
# run well inside the interpreter's int/str conversion limit (4300 digits by
# default), so an oversized literal is a positioned parse error, not a crash.
MAX_LITERAL_LENGTH = 1000

# A strict subset of the text parse_scalar accepts, as a regular expression
# (no atomic groups or possessive quantifiers, so it compiles on 3.10): no
# whitespace, a nonzero denominator without leading zeros, digit runs short
# enough that `p/q` stays within MAX_LITERAL_LENGTH, and at most one of each
# marker per term.  Every format_scalar output matches it.
_RUN = (MAX_LITERAL_LENGTH - 1) // 2
_MARKERS = r"(?:i(?:\*r2)?|r2(?:\*i)?)"
_TERM = f"(?:{_DIGIT}{{1,{_RUN}}}(?:/[1-9]{_DIGIT}{{0,{_RUN - 1}}})?(?:\\*{_MARKERS})?|{_MARKERS})"
SCALAR_PATTERN = f"[+-]?{_TERM}(?:[+-]{_TERM})*"


def _skip_ws(text: str, j: int, n: int) -> int:
    while j < n and text[j].isspace():
        j += 1
    return j


def parse_scalar(text: str) -> Scalar:
    """Parse the textual form back into a Scalar (inverse of format_scalar).

    Each term `p/q` is added, as integers, to one of four numerators over a
    running common denominator; `_make` normalizes the sum once at the end.
    """
    nums = [0, 0, 0, 0]  # numerators of 1, r2, i, i*r2 over den
    den = 1
    n = len(text)
    i = _skip_ws(text, 0, n)
    if i == n:
        raise ScalarParseError("empty scalar", i)
    while True:
        negative = False
        # i < n, and a later term starts at its sign: the loop's end raises
        # "unexpected character" on anything else
        if text[i] in "+-":
            negative = text[i] == "-"
            i = _skip_ws(text, i + 1, n)
        if i >= n:
            raise ScalarParseError("expected term", i)
        if "0" <= text[i] <= "9":  # ASCII only: str.isdigit also accepts '²'
            m = _RATIONAL_RE.match(text, i)
            if m.end() - i > MAX_LITERAL_LENGTH:
                raise ScalarParseError(f"literal longer than {MAX_LITERAL_LENGTH} characters", i)
            p = int(m.group(1))
            q = int(m.group(2) or 1)
            if not q:
                raise ScalarParseError("zero denominator", i)
            i = m.end()
            more = text.startswith("*", i)  # markers follow a literal after '*'
            if more:
                i += 1
        elif text[i] in "ir":
            p = q = 1
            more = True
        else:
            raise ScalarParseError(f"unexpected character {text[i]!r}", i)
        k = 0  # coordinate index: bit 1 marks r2, bit 2 marks i
        while more:
            if text.startswith("r2", i):
                bit, nxt = 1, i + 2
            elif text.startswith("i", i):
                bit, nxt = 2, i + 1
            else:
                raise ScalarParseError("expected i or r2", i)
            if k & bit:
                raise ScalarParseError("repeated marker", i)
            k |= bit
            i = nxt
            more = text.startswith("*", i)
            if more:
                i += 1
        if negative:
            p = -p
        if q == den:
            nums[k] += p
        else:
            g = math.gcd(den, q)
            u = q // g
            nums = [x * u for x in nums]
            nums[k] += p * (den // g)
            den *= u
        i = _skip_ws(text, i, n)
        if i == n:
            break
        if text[i] not in "+-":
            raise ScalarParseError(f"unexpected character {text[i]!r}", i)
    return _make(nums[0], nums[1], nums[2], nums[3], den)
