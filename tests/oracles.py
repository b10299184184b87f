"""Slow reference routes, kept for differential tests.

Character code: values are handled as angles, None for zero, else a
Fraction in [0, 1) standing for exp(2*pi*i*angle).  `pair_check` is the
all-pairs table validation and `pair_reduce` the period reduction that
preceded the generator-based validator; both raise the package's exception
classes.

Symbol rows: `scalar_*` are the term-by-term routes that evaluate
`kronecker` once per n, which the row-based series, products and GF(4)
check must match exactly.  `period_oracle` is the brute-force eventual
period.  The GF(4) series helpers (`series_mul`, the schoolbook product
that checks the Frobenius fourth power, and the hex dump) serve the tests
only.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd
from typing import Iterable

from mockchar.analysis import SeriesValue, _chunked_fsum, unit_complex
from mockchar.automata import NotDetected, Periodic, PrefixTooShortError
from mockchar.gf4 import F4Series, SymbolEmbedding, f4_mul
from mockchar.kronecker import kronecker
from mockchar.multiplicative import (
    AllZeroError,
    ArithmeticFunction,
    NotMultiplicativeError,
    UnitValue,
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


# ------------------------------------------------------------ symbol rows


def scalar_series_partial(f: ArithmeticFunction, s: complex, N: int) -> SeriesValue:
    """sum_{n=1}^{N} f(n) / n^s evaluating f once per n, ignoring any row."""
    s = complex(s)
    sigma = s.real
    re_terms: list[float] = []
    im_terms: list[float] = []
    for n in range(1, N + 1):
        u = f.fn(n)
        if u.is_zero:
            continue
        if s.imag == 0:
            mag = n ** -sigma
            if u.m == 1:
                re_terms.append(mag)
                continue
            if u.m == 2:
                re_terms.append(-mag)
                continue
            c = unit_complex(u) * mag
        else:
            c = unit_complex(u) * cmath.exp(-s * math.log(n))
        re_terms.append(c.real)
        im_terms.append(c.imag)
    partial = complex(_chunked_fsum(re_terms), _chunked_fsum(im_terms))
    return SeriesValue(s, N, partial, N ** (1 - sigma) / (sigma - 1))


def scalar_l_identity(a: int, s: complex, N: int) -> tuple[float, float, complex]:
    """(residual, tail bound, factor) of the L-function factorisation with
    both partial sums evaluated symbol by symbol."""
    s = complex(s)
    kron_a = ArithmeticFunction(lambda n: UnitValue.from_symbol(kronecker(a, n)))
    odd_part = ArithmeticFunction(
        lambda n: UnitValue.from_symbol(kronecker(a, n) if n % 2 else 0)
    )
    la = scalar_series_partial(kron_a, s, N)
    lchi = scalar_series_partial(odd_part, s, N)
    factor = 1 / (1 - kronecker(a, 2) * 2.0**-s)
    residual = abs(la.partial - factor * lchi.partial)
    return residual, la.tail_bound + abs(factor) * lchi.tail_bound, factor


def scalar_product_residual(a: int, N: int) -> float:
    """The generalised paperfolding product residual, one symbol and four
    logarithms per factor."""
    alpha = -1 if ((a * a - 1) // 8) % 2 else 1
    lhs_logs = []
    rhs_logs = [-alpha * math.log(2)]
    for n in range(1, N + 1):
        kn1 = kronecker(a, n + 1)
        if kn1:
            lhs_logs.append(
                kn1
                * (
                    math.log(n)
                    - math.log(n + 1)
                    + alpha * (math.log(2 * n + 2) - math.log(2 * n + 1))
                )
            )
        kodd = kronecker(a, 2 * n + 1)
        if kodd:
            rhs_logs.append(kodd * (math.log(2 * n) - math.log(2 * n + 1)))
    return abs(math.exp(_chunked_fsum(lhs_logs)) - math.exp(_chunked_fsum(rhs_logs)))


def functional_equation_oracle(row: bytes, emb: SymbolEmbedding, N: int) -> int | None:
    """First n < N with G**4 + G + R != 0, G and R read from the symbol codes
    row[n] (0, 1, 2 for 0, +1, -1), G**4 by repeated schoolbook products."""
    image = {0: emb.zero, 1: emb.plus, 2: emb.minus}
    g = F4Series(N, bytes(image[row[n]] for n in range(N)))
    r = F4Series(N, bytes(0 if n % 4 == 0 else image[row[n]] for n in range(N)))
    g2 = series_mul(g, g)
    total = series_mul(g2, g2) + g + r
    return next((n for n in range(N) if total[n]), None)


def period_oracle(prefix: list, max_preperiod: int, max_period: int):
    """Eventual period by brute force: the least tau whose last self-mismatch
    at lag tau ends at or before max_preperiod; the preperiod is that last
    mismatch plus one."""
    L = len(prefix)
    need = max_preperiod + 3 * max_period
    if L < need:
        raise PrefixTooShortError(f"prefix length {L} < {need} required by the bounds")
    for tau in range(1, max_period + 1):
        mismatches = [i for i in range(L - tau) if prefix[i] != prefix[i + tau]]
        rho = mismatches[-1] + 1 if mismatches else 0
        if rho <= max_preperiod:
            return Periodic(rho, tau)
    return NotDetected(max_preperiod, max_period)


# ------------------------------------------------------------ GF(4) series


def series_from_coeffs(coeffs: Iterable[int], truncation: int) -> F4Series:
    buf = bytearray(truncation)
    for i, c in enumerate(coeffs):
        if i >= truncation:
            break
        buf[i] = c
    return F4Series(truncation, bytes(buf))


def series_mul(a: F4Series, b: F4Series) -> F4Series:
    """Schoolbook product, truncated; quadratic, used as the pow4 oracle."""
    if a.truncation != b.truncation:
        raise ValueError("truncations differ")
    N = a.truncation
    out = bytearray(N)
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j in range(N - i):
            cb = b.coeffs[j]
            if cb:
                out[i + j] ^= f4_mul(ca, cb)
    return F4Series(N, bytes(out))


def series_to_hex(series: F4Series) -> str:
    """Hex dump, two coefficients per digit: coefficient 2i in the low two
    bits of digit i, coefficient 2i+1 in the high two bits."""
    cs = series.coeffs
    digits = []
    for i in range(0, len(cs), 2):
        lo = cs[i]
        hi = cs[i + 1] if i + 1 < len(cs) else 0
        digits.append(format(lo | (hi << 2), "x"))
    return "".join(digits)


def series_from_hex(text: str, truncation: int) -> F4Series:
    """Inverse of :func:`series_to_hex` (padding coefficients dropped)."""
    coeffs = bytearray()
    for ch in text:
        v = int(ch, 16)
        coeffs.append(v & 3)
        coeffs.append((v >> 2) & 3)
    return F4Series(truncation, bytes(coeffs[:truncation]))
