"""Parsing and rendering helpers for exact rationals.

The wire format used by JSON inputs and CSV outputs represents a rational
either as an integer or as a string ``"num/den"`` (also accepting plain
integer strings).  Rendering is lossless; the decimal column emitted next
to it is a 12-significant-digit convenience view, never a source of truth.
"""

from __future__ import annotations

import decimal
from fractions import Fraction


def parse_rational(value) -> Fraction:
    """Parse an int, Fraction, or a "num/den" / integer string."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render exactly: "3", "-1/2", ..."""
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        # More digits than sys.get_int_max_str_digits() lets str() write;
        # Decimal writes an exact integer without that limit.
        num, den = (str(decimal.Decimal(n)) for n in (q.numerator, q.denominator))
        return num if den == "1" else f"{num}/{den}"


def decimal_str(q: Fraction, digits: int = 12) -> str:
    """Round the exact value to the given number of significant digits."""
    q = Fraction(q)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
    return str(d)
