"""Exact Kronecker symbols over all integer pairs.

The symbol (a|n) extends the Legendre and Jacobi symbols to every pair of
integers: it is 0 whenever a*n = 0 or gcd(|a|, |n|) > 1, it follows the
quadratic-residue rule at odd primes, (a|2) = (-1)**((a*a-1)//8) for odd a,
and (a|-1) = sign(a).  Viewed as a function of the bottom argument it is
completely multiplicative.

Two independent evaluation routes are provided: :func:`kronecker` (fast
binary reduction, the workhorse) and :func:`kronecker_factored` (the
transparent product over the factorization of n, used as a cross-check).
Dense rows (a|0), ..., (a|N), which the series and power-series identities
sum over, come from :func:`kronecker_row`: one :func:`kronecker` call per
prime p <= N, spread to the rest of the row by complete multiplicativity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

SymbolValue = int  # constrained to {-1, 0, +1}

DEFAULT_SIEVE_LIMIT = 10**6


class FactorLimitError(ValueError):
    """The integer is too large for the configured trial-division sieve."""


@dataclass(frozen=True)
class FactoredInteger:
    """Sign and prime factorization; the sign is the exponent of the unit -1.

    Primes are strictly increasing with positive exponents, so that
    ``sign * prod(p**e)`` recovers the source integer.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def reassemble(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by a byte sieve.  Built once, then read-only."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def valuation(n: int, p: int) -> int:
    """Largest t with p**t dividing n.  The sign of n is ignored."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not a prime >= 2")
    n = abs(n)
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return t


def factor(n: int, sieve_limit: int = DEFAULT_SIEVE_LIMIT) -> FactoredInteger:
    """Factor n by trial division against a precomputed prime sieve.

    Inputs with |n| beyond sieve_limit**2 are rejected: any cofactor left
    after dividing out primes <= sieve_limit could then be composite.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if abs(n) > sieve_limit * sieve_limit:
        raise FactorLimitError(
            f"|{n}| exceeds {sieve_limit}**2; raise sieve_limit to factor it"
        )
    sign = 1 if n > 0 else -1
    m = abs(n)
    out: list[tuple[int, int]] = []
    for p in primes_up_to(sieve_limit):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))  # cofactor is prime: all factors <= sqrt removed
    return FactoredInteger(sign, tuple(out))


def symbol_at_two(a: int) -> SymbolValue:
    """(a|2) for odd a: +1 when a = +-1 mod 8, -1 when a = +-3 mod 8."""
    if a % 2 == 0:
        raise ValueError("symbol_at_two requires odd a")
    return 1 if a & 7 in (1, 7) else -1


def legendre_oracle(a: int, p: int) -> SymbolValue:
    """Legendre symbol by exhaustive square search modulo p.

    Independent of the reduction-based evaluators: +1 iff a is congruent to
    a nonzero square mod p, -1 for a coprime nonresidue, 0 when p | a.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd positive prime")
    r = a % p
    if r == 0:
        return 0
    return 1 if r in _square_residues(p) else -1


@lru_cache(maxsize=None)
def _square_residues(p: int) -> frozenset[int]:
    return frozenset((x * x) % p for x in range(1, p))


def _jacobi(a: int, m: int) -> int:
    # Jacobi symbol for odd m >= 1; 0 when gcd(a, m) > 1.
    a %= m
    t = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if m & 7 in (3, 5):
                t = -t
        a, m = m, a
        if a & 3 == 3 and m & 3 == 3:
            t = -t
        a %= m
    return t if m == 1 else 0


def kronecker(a: int, n: int) -> SymbolValue:
    """Kronecker symbol (a|n), total on ZxZ.

    Fast binary evaluation: strips the sign and the 2-part of n, then runs
    the Jacobi reduction on the odd part.  Agrees with the factored product
    definition everywhere (see kronecker_factored and the test suite).
    """
    if a == 0 or n == 0:
        return 0
    res = 1
    if n < 0:
        n = -n
        if a < 0:
            res = -res
    e = (n & -n).bit_length() - 1
    n >>= e
    if e:
        if a & 1 == 0:
            return 0
        if e & 1 and a & 7 in (3, 5):
            res = -res
    return res * _jacobi(a, n)


def _legendre_euler(a: int, p: int) -> int:
    # Euler criterion at an odd prime; caller guarantees gcd(a, p) = 1.
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def kronecker_factored(a: int, n: int, sieve_limit: int = DEFAULT_SIEVE_LIMIT) -> SymbolValue:
    """(a|n) evaluated literally as the product of (a|p)**e over n's factorization.

    Slower than :func:`kronecker`; kept as the transparent transcription of
    the defining product and exercised against it by the tests.
    """
    if a == 0 or n == 0:
        return 0
    if gcd(abs(a), abs(n)) > 1:
        return 0
    f = factor(n, sieve_limit)
    res = 1
    if f.sign < 0 and a < 0:
        res = -res  # (a|-1) = sign(a)
    for p, e in f.factors:
        if p == 2:
            s = symbol_at_two(a)
        else:
            s = _legendre_euler(a, p)
        if s < 0 and e & 1:
            res = -res
    return res


# symbol codes of kronecker_row: 0, 1, 2 stand for 0, +1, -1
_NEGATE = bytes.maketrans(b"\x01\x02", b"\x02\x01")


def kronecker_row(a: int, N: int) -> bytearray:
    """Codes of (a|n) for n = 0..N: 0, 1, 2 for the values 0, +1, -1.

    Sieves the primes p <= N and calls :func:`kronecker` once per prime;
    complete multiplicativity in n gives every other entry.  (a|p) = 0
    zeroes the multiples of p; (a|p) = -1 flips the sign of the multiples of
    each power p**e <= N, so n is flipped v_p(n) times.  No periodic table
    is tiled: for a = 3 mod 4 the row is not periodic.  Costs
    O(N log log N) byte operations, most of them in slice translations.
    """
    if N < 0:
        raise ValueError("row length must be >= 0")
    if a == 0:
        return bytearray(N + 1)  # (0|n) = 0, even at n = 1
    row = bytearray([1]) * (N + 1)
    row[0] = kronecker(a, 0) % 3
    composite = bytearray(N + 1)
    p = composite.find(0, 2)
    while p != -1:
        if p * p <= N:
            composite[p * p :: p] = b"\x01" * len(range(p * p, N + 1, p))
        v = kronecker(a, p)
        if v == 0:
            row[p::p] = bytes(len(range(p, N + 1, p)))
        elif v < 0:
            q = p
            while q <= N:
                row[q::q] = row[q::q].translate(_NEGATE)
                q *= p
        p = composite.find(0, p + 1)
    return row
