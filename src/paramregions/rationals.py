"""Exact rational scalars.

All region computations run on arbitrary-precision rationals; floats never
enter a predicate.  gmpy2's mpq is used when available, with
fractions.Fraction as a drop-in fallback.  Both are always reduced, keep
positive denominators, and compare exactly.  The integer kernel in `geometry`
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


def simplest_between(lo, hi) -> Rational:
    """The simplest rational strictly inside the open interval (lo, hi): of
    least denominator, and of those the least |numerator|, the first node of
    the Stern-Brocot tree inside it.  Each end is an int pair (numerator,
    denominator > 0), or None where the interval is unbounded; lo < hi.

    An interval holding 0 gives 0, and one below 0 is mirrored.  Otherwise
    this reads the continued fraction of the ends: when no integer lies
    strictly inside, both ends share their integer part n, and so does the
    answer, whose remainder is the simplest in (1 / (hi - n), 1 / (lo - n)).
    The matrix (p1, p0; q1, q0) maps that remainder y to the answer
    (p1 y + p0) / (q1 y + q0).
    """
    sign = 1
    if lo is None or lo[0] < 0:
        if hi is None or hi[0] > 0:
            return Rational(0)
        sign, lo, hi = -1, (-hi[0], hi[1]), None if lo is None else (-lo[0], lo[1])
    a, b = lo
    p1, p0, q1, q0 = 1, 0, 0, 1
    while True:
        n = a // b + 1  # the least integer above a / b
        if hi is None or n * hi[1] < hi[0]:
            return Rational(sign * (p1 * n + p0), q1 * n + q0)
        n -= 1
        c, d = hi
        a, b, hi = d, c - n * d, (b, a - n * b) if a != n * b else None
        p1, p0, q1, q0 = p1 * n + p0, p1, q1 * n + q0, q1
