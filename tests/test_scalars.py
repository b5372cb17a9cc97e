"""Field axioms, conjugation, ordering, and the canonical text form."""

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
