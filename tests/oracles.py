"""Slow reference routes for the character code, kept for differential tests.

Values are handled as angles: None for zero, else a Fraction in [0, 1)
standing for exp(2*pi*i*angle).  `pair_check` is the all-pairs table
validation and `pair_reduce` the period reduction that preceded the
generator-based validator; both raise the package's exception classes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from mockchar.multiplicative import (
    AllZeroError,
    NotMultiplicativeError,
    WrongZeroSetError,
)

Angle = Fraction | None

_HALF = Fraction(1, 2)


def angle_mul(a: Angle, b: Angle) -> Angle:
    if a is None or b is None:
        return None
    return (a + b) % 1


def angle_pow(a: Angle, e: int) -> Angle:
    if a is None:
        if e > 0:
            return None
        if e == 0:
            return Fraction(0)
        raise ZeroDivisionError("negative power of zero")
    return (a * e) % 1


def angle_conjugate(a: Angle) -> Angle:
    return None if a is None else (-a) % 1


def angle_str(a: Angle) -> str:
    if a is None:
        return "0"
    if a == 0:
        return "1"
    if a == _HALF:
        return "-1"
    return f"e({a.numerator}/{a.denominator})"


def pair_check(q: int, angles: list[Angle]) -> tuple[Angle, ...]:
    """All-pairs validation: zero set, chi(1) = 1, then chi(ab) = chi(a)chi(b)
    for every 0 <= a <= b < q.  Returns the table it accepted."""
    tab = tuple(angles)
    assert len(tab) == q
    for r in range(q):
        if (tab[r] is None) != (gcd(r, q) != 1):
            raise WrongZeroSetError(r)
    if tab[1 % q] != 0:
        raise NotMultiplicativeError((1, 1))
    for a in range(q):
        for b in range(a, q):
            if tab[(a * b) % q] != angle_mul(tab[a], tab[b]):
                raise NotMultiplicativeError((a, b))
    return tab


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def pair_reduce(q: int, angles: list[Angle]) -> tuple[int, tuple[Angle, ...]]:
    """All-pairs multiplicativity of the period-q table, then the period
    reduction, then `pair_check` and the periodic extension compared on
    n = 1..q-1.  Returns the reduced (modulus, table)."""
    source = tuple(angles)
    assert len(source) == q
    for a in range(q):
        for b in range(a, q):
            if source[(a * b) % q] != angle_mul(source[a], source[b]):
                raise NotMultiplicativeError((a, b))
    if all(v is None for v in source[1:]) and (q > 1 or source[0] is None):
        raise AllZeroError("table vanishes beyond n = 0")
    tab = source
    while True:
        d = max(div for div in _divisors(q) if tab[div % q] is not None)
        if d == 1:
            break
        q //= d
        tab = tab[:q]
    for t in _divisors(q):
        if all(tab[i] == tab[i % t] for i in range(q)):
            q, tab = t, tab[:t]
            break
    tab = pair_check(q, list(tab))
    for i in range(1, len(source)):
        if tab[i % q] != source[i]:
            raise NotMultiplicativeError((i, q))
    return q, tab
