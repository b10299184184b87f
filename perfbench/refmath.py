"""Reference arithmetic of the benchmark's own, independent of mockchar.

The benchmark writes its sequence files and checks the program's answers
with these routines, so a defect in the program's fast paths cannot hide
behind the same defect in the check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return [i for i, f in enumerate(flags) if f]


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a|m) for odd m >= 1, by quadratic reciprocity."""
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd and positive")
    a %= m
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) on all integer pairs, with the package's
    convention that the symbol is 0 whenever a * n = 0."""
    if a == 0 or n == 0 or gcd(a, n) != 1:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    return result * jacobi(a, n)


def has_factor_below(n: int, bound: int) -> bool:
    """True when some prime p <= bound divides n."""
    return any(n % p == 0 for p in primes_up_to(bound))


def paperfolding_sign(n: int) -> int:
    """Regular paperfolding sequence at n > 0: +1 when the odd part of n is
    1 mod 4, else -1."""
    while n % 2 == 0:
        n //= 2
    return 1 if n % 4 == 1 else -1


def character_angles(p: int, r: int, index: int) -> list[Fraction | None]:
    """Values of the index-th Dirichlet character mod p**r as angles k/m of
    exp(2 pi i k/m), None at the non-units.

    For odd p the group of units is cyclic: with g its least generator,
    chi(g**t) = e(index * t / phi).  Mod 2**r (r <= 3) the characters are
    the sign patterns on the generators -1 and 5, picked by the bits of
    index."""
    q = p**r
    values: list[Fraction | None] = [None] * q
    if p == 2:
        for n in range(1, q, 2):
            minus = (n % 4 == 3) and index & 1
            five = r == 3 and n % 8 in (3, 5) and index & 2
            values[n] = Fraction(1, 2) if bool(minus) != bool(five) else Fraction(0)
        return values
    phi = q - q // p
    g = next(g for g in range(2, q + 1) if _order(g, q) == phi)
    x = 1
    for t in range(phi):
        values[x] = Fraction(index * t, phi) % 1
        x = x * g % q
    return values


def _order(g: int, m: int) -> int:
    x, t = g % m, 1
    while x != 1:
        if x == 0 or t > m:
            return 0
        x, t = x * g % m, t + 1
    return t


def angle_text(angle: Fraction | None) -> str:
    """The package's text form of a value: 0, 1, -1 or e(k/m)."""
    if angle is None:
        return "0"
    angle %= 1
    if angle == 0:
        return "1"
    if angle == Fraction(1, 2):
        return "-1"
    return f"e({angle.numerator}/{angle.denominator})"


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = least prime factor of n, for 2 <= n <= limit."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def symbol_at_prime(a: int, p: int) -> int:
    """(a|p) for a prime p: Euler's criterion for odd p, the mod-8 rule at 2."""
    if p == 2:
        return 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
    r = pow(a, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def symbol_row(a: int, spf: list[int]) -> list[int]:
    """(a|n) for 0 <= n < len(spf), from Euler's criterion at the primes and
    complete multiplicativity in n; no reciprocity reduction is involved."""
    row = [0] * len(spf)
    if a == 0:
        return row
    if len(spf) > 1:
        row[1] = 1
    for n in range(2, len(spf)):
        p = spf[n]
        row[n] = symbol_at_prime(a, n) if p == n else row[p] * row[n // p]
    return row
