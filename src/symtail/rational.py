"""Parsing and rendering helpers for exact rationals.

The wire format used by JSON inputs and CSV outputs represents a rational
either as an integer or as a string ``"num/den"`` or ``"num"``: an optional
sign, ASCII digits and an optional ``/`` with more digits, with surrounding
whitespace.  Exponents, decimal points and underscores are not rationals.
One parser reads it, ``rational_pair``, into an integer (numerator,
denominator) pair: every law constructor builds from it, and the kernels
(window index, bound sums, tail walk) take it as their caller read it once.
A pair already read passes through it unchanged.
``parse_rational`` wraps that pair in a ``Fraction``.
Rendering is lossless and needs no Fraction: ``format_rational`` writes a
Fraction, or an integer pair reduced by one gcd, as "num/den".  The decimal
column emitted next to it, ``decimal_str`` of an integer pair, reduced or
not, is a convenience view, never a source of truth: the exact value
rounded to 12 significant digits, half to even, in one fixed decimal
context, so the caller's ``decimal.getcontext()`` (its precision, rounding,
traps and exponent letter) never changes it.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rational_pair(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction, a wire string (see
    above) or an integer pair, with a positive denominator; a string's pair
    is as written, not reduced, so "2/4" gives (2, 4), and a tuple (num, den)
    of plain ints (no bool) with den > 0 is returned as it is.  A list is
    not a pair."""
    # Strings and pairs first: either fails isinstance(value, Fraction) only
    # through the abstract-base-class lookup that Fraction's metaclass makes.
    if isinstance(value, str):
        if match := _RATIONAL.fullmatch(value):
            try:
                num, den = int(match[1]), int(match[2] or 1)
            except ValueError as exc:  # too many digits for int()
                raise ValueError(f"not a rational: {value!r}") from exc
            if den:
                return num, den
    elif isinstance(value, tuple):
        if len(value) == 2 and type(value[0]) is int is type(value[1]) and value[1] > 0:
            return value
    elif isinstance(value, Fraction):
        return value.numerator, value.denominator
    elif isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise ValueError(f"not a rational: {value!r}")


def parse_rational(value) -> Fraction:
    """Parse an int, Fraction, or a "num/den" / integer string (see above)."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*rational_pair(value))


def format_rational(q: Fraction | int | tuple[int, int]) -> str:
    """Render exactly: "3", "-1/2", ...  q is a Fraction or an int, or an
    integer (numerator, denominator) pair with den > 0, rendered reduced."""
    if isinstance(q, tuple):
        num, den = q
        g = math.gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
    else:
        num, den = q.numerator, q.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        # More digits than sys.get_int_max_str_digits() lets str() write;
        # Decimal writes an exact integer without that limit.
        num, den = (str(decimal.Decimal(n)) for n in (num, den))
        return num if den == "1" else f"{num}/{den}"


# The decimal view's context, every field given so that neither the caller's
# context nor decimal.DefaultContext reaches it.  Its traps are the default
# ones; rounding to 12 digits is never a trap, and the flags it sets are
# never read.  It also renders the result: str() would take the exponent
# letter's case from the caller's context.
_DECIMAL = decimal.Context(
    prec=12, rounding=decimal.ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1,
    clamp=0, flags=[], traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def decimal_str(q: tuple[int, int]) -> str:
    """The exact value of an integer pair (num, den), den > 0, rounded to 12
    significant digits, half to even.  The pair need not be reduced: the
    quotient of two integers is the same Decimal either way."""
    num, den = q
    return _DECIMAL.to_sci_string(_DECIMAL.divide(decimal.Decimal(num), decimal.Decimal(den)))
