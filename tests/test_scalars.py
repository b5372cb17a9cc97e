"""Field axioms, conjugation, ordering, and the canonical text form."""

import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realmod.scalars import (
    I,
    INV_SQRT2,
    MAX_LITERAL_LENGTH,
    ONE,
    SQRT2,
    ZERO,
    Scalar,
    ScalarFormatError,
    ScalarParseError,
    format_scalar,
    parse_scalar,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.builds(Scalar, rationals, rationals, rationals, rationals)


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_units_and_negation(x):
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO
    assert x - x == ZERO


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_multiplicative_inverse(x):
    if x == ZERO:
        with pytest.raises(ZeroDivisionError):
            x.inv()
    else:
        assert x * x.inv() == ONE
        assert x.inv().inv() == x


@given(scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_conjugation_is_a_ring_involution(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_real_imag_decomposition(x):
    assert x.real_part() + I * x.imag_part() == x
    assert x.real_part().is_real()
    assert x.imag_part().is_real()
    # x * conj(x) is a nonnegative real
    n = x * x.conj()
    assert n.is_real()
    assert n.sign_real() >= 0
    assert (n.sign_real() == 0) == (x == ZERO)


def test_generator_relations():
    assert I * I == Scalar(-1)
    assert SQRT2 * SQRT2 == Scalar(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert SQRT2.conj() == SQRT2
    assert I.conj() == -I


def test_sign_real_orders_the_real_subfield():
    assert Scalar(0).sign_real() == 0
    assert Scalar(3, -2).sign_real() > 0      # 3 - 2*sqrt2 = 0.17...
    assert Scalar(-3, 2).sign_real() < 0
    assert Scalar(1, -1).sign_real() < 0      # 1 - sqrt2
    assert Scalar(Fraction(1, 2)).sign_real() > 0
    with pytest.raises(ValueError):
        I.sign_real()


def test_powers():
    assert I ** 4 == ONE
    assert SQRT2 ** 2 == Scalar(2)
    assert (ONE + I) ** 0 == ONE
    assert Scalar(2) ** -1 == Scalar(Fraction(1, 2))
    h = INV_SQRT2 * (ONE + I)  # an eighth root of unity
    assert h ** 8 == ONE
    assert h ** 4 == -ONE


def test_interop_with_int_and_fraction():
    assert Scalar(5) == 5
    assert 5 == Scalar(5)
    assert Scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert Scalar(1, 1) != 1
    assert hash(Scalar(7)) == hash(7)
    assert hash(Scalar(Fraction(2, 3))) == hash(Fraction(2, 3))
    total = Scalar(3) + 1
    assert isinstance(total, Scalar) and total == 4
    x = Scalar(1, 0, 1)  # 1 + i
    assert 1 - x == -I and Fraction(1, 2) - x == Scalar(Fraction(-1, 2), 0, -1)
    assert 2 / x == ONE - I
    assert str(x) == "1+1*i" and repr(x) == "Scalar('1+1*i')"


def test_foreign_operands_are_declined():
    x, foreign = Scalar(1), object()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
        with pytest.raises(TypeError):
            op(x, foreign)
        with pytest.raises(TypeError):
            op(foreign, x)
    assert x.__pow__(Fraction(1, 2)) is NotImplemented
    assert x.__eq__(foreign) is NotImplemented and x != foreign


@given(scalars)
@settings(max_examples=80, deadline=None)
def test_text_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_canonical_text_examples():
    table = [
        (ZERO, "0"),
        (ONE, "1"),
        (-ONE, "-1"),
        (I, "1*i"),
        (-I, "-1*i"),
        (SQRT2, "1*r2"),
        (INV_SQRT2, "1/2*r2"),
        (Scalar(Fraction(1, 2), 0, Fraction(1, 2)), "1/2+1/2*i"),
        (Scalar(0, 0, 0, Fraction(-3, 4)), "-3/4*i*r2"),
        (Scalar(1, 1, 1, 1), "1+1*r2+1*i+1*i*r2"),
    ]
    for value, text in table:
        assert format_scalar(value) == text
        assert parse_scalar(text) == value


def test_parse_accepts_whitespace_and_order():
    assert parse_scalar(" 1 + 2*i ") == Scalar(1, 0, 2)
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("r2") == SQRT2
    assert parse_scalar("i*r2") == Scalar(0, 0, 0, 1)
    assert parse_scalar("2*i + 1") == Scalar(1, 0, 2)
    assert parse_scalar("3/2") == Scalar(Fraction(3, 2))


def test_parse_rejects_malformed_input():
    for bad in ("", "1//2", "i*i", "r2*r2", "1+", "+", "2**i", "1/0", "x", "1 2"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_error_reports_offset():
    try:
        parse_scalar("1+bogus")
    except ScalarParseError as exc:
        assert exc.offset == 2
    else:
        raise AssertionError("expected a parse error")


def test_literal_length_is_bounded():
    longest = "1/" + "3" * (MAX_LITERAL_LENGTH - 2)
    assert parse_scalar(longest) == Scalar(Fraction(1, int(longest[2:])))
    for text, offset in ((longest + "3", 0), ("2-" + longest + "3*i", 2), ("7" * 5000, 0)):
        with pytest.raises(ScalarParseError, match="literal longer than") as info:
            parse_scalar(text)
        assert info.value.offset == offset


def test_non_ascii_digits_are_rejected_at_their_offset():
    # str.isdigit accepts '²' and the Arabic-Indic digits; the grammar does not
    for text, message, offset in (
        ("²", "unexpected character '²'", 0),
        ("٣/٤*i", "unexpected character '٣'", 0),
        ("1/٣", "unexpected character '/'", 1),
        ("1+²*i", "unexpected character '²'", 2),
    ):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert (str(info.value), info.value.offset) == (message, offset)


def test_format_refuses_coordinates_past_the_int_str_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int/str conversion is unlimited in this interpreter")
    widest = 10 ** limit - 1  # exactly `limit` digits: still printable
    assert format_scalar(Scalar(Fraction(1, widest))) == "1/" + "9" * limit
    assert format_scalar(Scalar(0, 0, -widest)) == "-" + "9" * limit + "*i"
    for x in (Scalar(10 ** limit), Scalar(0, Fraction(1, 10 ** limit)), Scalar(0, 0, 0, -(2 ** (4 * limit)))):
        with pytest.raises(ScalarFormatError, match=f"more than {limit} digits"):
            format_scalar(x)
    # the shared denominator is past the limit, but each reduced coordinate is not
    p, q = 10 ** (limit - 1) + 1, 10 ** (limit - 1) + 3
    assert format_scalar(Scalar(Fraction(1, p), 0, Fraction(1, q))) == f"1/{p}+1/{q}*i"


# -- the printer against a Fraction-based reference ---------------------------


def _reference_format(x: Scalar) -> str:
    """The earlier printer: one Fraction per coordinate, signs from Fraction."""
    limit = sys.get_int_max_str_digits()
    parts = []
    for n, suffix in zip((x.na, x.nb, x.nc, x.nd), ("", "*r2", "*i", "*i*r2")):
        coord = Fraction(n, x.den)
        if not coord:
            continue
        if limit and max(abs(coord.numerator), coord.denominator) >= 10 ** limit:
            raise ScalarFormatError(f"cannot print a scalar coordinate of more than {limit} digits")
        if not parts:
            parts.append(f"{coord}{suffix}")
        elif coord > 0:
            parts.append(f"+{coord}{suffix}")
        else:
            parts.append(f"-{-coord}{suffix}")
    return "".join(parts) or "0"


def test_format_matches_the_fraction_reference():
    rng = random.Random(61)
    for signs in range(81):  # every pattern of -, 0, + over the four coordinates
        coords = [((signs // 3 ** k) % 3 - 1) * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in range(4)]
        x = Scalar(*coords)
        assert format_scalar(x) == _reference_format(x)
    for _ in range(2000):
        x = Scalar(*(Fraction(rng.choice((-1, 0, 1)) * rng.randrange(10 ** rng.randint(1, 40)),
                               rng.randrange(1, 10 ** rng.randint(1, 40))) for _ in range(4)))
        assert format_scalar(x) == _reference_format(x)


def test_format_refuses_exactly_where_the_reference_does():
    old = sys.get_int_max_str_digits()
    try:
        for limit in (640, 641, 1000):
            sys.set_int_max_str_digits(limit)
            cases = []
            for v in (10 ** (limit - 1), 10 ** limit - 1, 10 ** limit, 10 ** limit + 1, 2 ** (4 * limit)):
                cases += [Scalar(v), Scalar(0, Fraction(1, v)), Scalar(0, 0, -v),
                          Scalar(1, 0, 0, Fraction(-v, 3)), Scalar(Fraction(v, v + 2), 1, -1)]
            for x in cases:
                try:
                    expected = _reference_format(x)
                except ScalarFormatError as e:
                    with pytest.raises(ScalarFormatError) as info:
                        format_scalar(x)
                    assert str(info.value) == str(e)
                else:
                    assert format_scalar(x) == expected
    finally:
        sys.set_int_max_str_digits(old)


def test_construction_from_ints_bools_and_fractions():
    assert (Scalar(3).na, Scalar(3).den) == (3, 1)
    assert Scalar(True, False) == ONE and type(Scalar(True).na) is int
    x = Scalar(1, Fraction(1, 2), -2, Fraction(-2, 3))
    assert (x.na, x.nb, x.nc, x.nd, x.den) == (6, 3, -12, -4, 6)
    assert Scalar(Fraction(4, 6)) == Fraction(2, 3)
    assert Scalar(0, 0, 1) == I and Scalar(0, 1) == SQRT2 and Scalar() == ZERO
    for bad, name in ((1.5, "float"), ("1", "str"), (ONE, "Scalar")):
        for args in ((bad,), (0, bad), (1, 2, 3, bad)):
            with pytest.raises(TypeError, match=f"^cannot coerce {name} to a rational$"):
                Scalar(*args)


# -- differential check against a Fraction-per-term reference parser ----------

_REF_RATIONAL = re.compile(r"[0-9]+(?:/[0-9]+)?")


def _reference_parse(text):
    """The earlier Fraction-based algorithm, with the ASCII-digit grammar."""
    coords = {(False, False): Fraction(0), (False, True): Fraction(0),
              (True, False): Fraction(0), (True, True): Fraction(0)}
    i = 0
    n = len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    def parse_marker(j):
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
        if text[i] in "0123456789":
            m = _REF_RATIONAL.match(text, i)
            if m.end() - i > MAX_LITERAL_LENGTH:
                raise ScalarParseError(f"literal longer than {MAX_LITERAL_LENGTH} characters", i)
            try:
                coeff = Fraction(m.group())
            except ZeroDivisionError:
                raise ScalarParseError("zero denominator", i) from None
            i = m.end()
            while i < n and text[i] == "*":
                is_i, i2 = parse_marker(i + 1)
                if (is_i and has_i) or (not is_i and has_r2):
                    raise ScalarParseError("repeated marker", i + 1)
                has_i, has_r2 = has_i or is_i, has_r2 or not is_i
                i = i2
        elif text[i] in "ir":
            coeff = Fraction(1)
            while True:
                is_i, i2 = parse_marker(i)
                if (is_i and has_i) or (not is_i and has_r2):
                    raise ScalarParseError("repeated marker", i)
                has_i, has_r2 = has_i or is_i, has_r2 or not is_i
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


def _outcome(parse, text):
    try:
        x = parse(text)
    except ScalarParseError as exc:
        return str(exc), exc.offset
    return x.na, x.nb, x.nc, x.nd, x.den


def _seeded_texts(count):
    rng = random.Random(20231)
    chars = "0123456789/+-*ir2 \t\u00a0²٣"
    pieces = ["1", "0", "2", "1/2", "3/4", "12/18", "5/0", "0/7", "*", "/", "i", "r2", "r",
              "*i", "*r2", "+", "-", " ", "\t", "²", "٣"]
    texts = []
    for _ in range(count):
        if rng.random() < 0.5:
            texts.append("".join(rng.choice(chars) for _ in range(rng.randint(0, 12))))
        else:
            texts.append("".join(rng.choice(pieces) for _ in range(rng.randint(0, 9))))
    return texts


def test_parser_agrees_with_the_fraction_reference():
    texts = _seeded_texts(4000)
    parsed = 0
    for text in texts:
        got = _outcome(parse_scalar, text)
        assert got == _outcome(_reference_parse, text), text
        if len(got) == 5:
            parsed += 1
            assert got[4] > 0 and math.gcd(*got) == 1, text  # lowest terms
    assert 200 < parsed < len(texts) - 200  # both outcomes are well exercised


def test_mixed_denominators_round_trip_in_lowest_terms():
    rng = random.Random(7)
    for _ in range(300):
        x = Scalar(*(Fraction(rng.randint(-40, 40), rng.randint(1, 36)) for _ in range(4)))
        y = parse_scalar(format_scalar(x))
        assert (y.na, y.nb, y.nc, y.nd, y.den) == (x.na, x.nb, x.nc, x.nd, x.den)
    assert parse_scalar("1/6+1/10*r2-1/15*i+1/4*i*r2-1/6") == Scalar(0, Fraction(1, 10), Fraction(-1, 15), Fraction(1, 4))
    for text in ("1/3-1/3", "1/2*i-2/4*i", "1/6+1/10*r2-1/10*r2-1/6"):
        x = parse_scalar(text)
        assert (x.na, x.nb, x.nc, x.nd, x.den) == (0, 0, 0, 0, 1)
