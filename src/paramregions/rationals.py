"""Exact rational scalars.

All region computations run on arbitrary-precision rationals; floats never
enter a predicate.  gmpy2's mpq is used when available, with
fractions.Fraction as a drop-in fallback.  Both are always reduced, keep
positive denominators, and compare exactly.  The LP kernel in `geometry`
works on Python ints and reads a rational only through `.numerator`,
`.denominator` and `__index__`.
"""

from __future__ import annotations

from typing import Any, Iterable

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

ZERO = Rational(0)


def rat(numerator: Any, denominator: Any = 1) -> Rational:
    """Build a rational from ints or a "p/q" string."""
    return Rational(numerator, denominator) if denominator != 1 else Rational(numerator)


def as_rational(value: Any) -> Rational:
    """Coerce ints, "p/q" strings and rational types to Rational.

    Floats are rejected: callers that start from floats must snap them
    explicitly (see clustering.snap) so no hidden precision loss occurs.
    A zero denominator ("1/0") raises ValueError.
    """
    if isinstance(value, float):
        raise TypeError("floats must be snapped to rationals explicitly")
    try:
        return Rational(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def as_vector(values: Iterable[Any]) -> tuple:
    return tuple(as_rational(v) for v in values)


def format_rational(value) -> str:
    """Canonical "p/q" form, denominator always present ("3" -> "3/1")."""
    q = as_rational(value)
    return f"{int(q.numerator)}/{int(q.denominator)}"


def parse_rational(text: str) -> Rational:
    return as_rational(text)


def format_vector(values) -> list:
    return [format_rational(v) for v in values]


def parse_vector(items) -> tuple:
    return as_vector(items)
