"""Numerical verification of the analytic identities.

Covers the pretentious pseudometric D(f, g; y)^2 = sum_{p<=y} (1 - Re f(p)
conj(g(p)))/p with its product triangle inequality, truncated Dirichlet
series with rigorous tail bounds, the L-function factorization
L_a(s) = (1 - (a|2)/2^s)^{-1} L(s, chi) for a = 3 mod 4, the paperfolding
infinite product and its generalization, and nonzero densities.

Summation discipline: exact rationals while the set of contributing terms
stays small, otherwise floats combined by fsum over fixed-size chunks so
results are bit-reproducible.  Conditionally convergent regions
(Re(s) <= 1) are rejected rather than approximated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import fsum

from .kronecker import kronecker, primes_up_to
from .multiplicative import ArithmeticFunction, UnitValue, paperfolding, pointwise_product

# Gamma(1/4)**2 / (8*sqrt(2*pi)), the limit of the paperfolding product.
# Frozen from a 40-digit evaluation; the tests recompute it independently.
PAPERFOLDING_PRODUCT_CONSTANT = 0.6555143885730299526

# Beyond this many nonzero rational terms, distance accumulation drops to
# floats: primorial-sized denominators are exact but uselessly slow.
_EXACT_TERM_LIMIT = 64

_CHUNK = 1 << 16  # fixed fsum chunk size, part of the reproducibility contract


def _chunked_fsum(terms: list[float]) -> float:
    if len(terms) <= _CHUNK:
        return fsum(terms)
    partials = [fsum(terms[i : i + _CHUNK]) for i in range(0, len(terms), _CHUNK)]
    return fsum(partials)


@lru_cache(maxsize=1024)
def _angle_complex(numer: int, denom: int) -> complex:
    return cmath.exp(2j * math.pi * numer / denom)


def unit_complex(u: UnitValue) -> complex:
    """Complex embedding of a unit value; the only place angles go inexact."""
    if u.is_zero:
        return 0j
    return _angle_complex(u.k, u.m)


@dataclass(frozen=True)
class DistanceResult:
    """Squared pretentious distance at cutoff y with its per-prime terms.

    squared_distance is an exact Fraction when every contributing term was
    rational and the contribution count stayed small, else a float.
    """

    y: float
    squared_distance: Fraction | float
    contributions: tuple[tuple[int, Fraction | float], ...]


def pretentious_distance_sq(
    f: ArithmeticFunction, g: ArithmeticFunction, y: float
) -> DistanceResult:
    """D(f, g; y)^2 = sum over primes p <= y of (1 - Re f(p) conj(g(p))) / p."""
    if y < 2:
        raise ValueError("cutoff y must be >= 2")
    exact_terms: list[tuple[int, Fraction]] = []
    float_terms: list[tuple[int, float]] = []
    for p in primes_up_to(int(y)):
        u = f(p) * g(p).conjugate()
        re = u.real_exact()
        if re is not None:
            if re == 1:
                continue
            exact_terms.append((p, (1 - re) / p))
        else:
            float_terms.append((p, (1.0 - unit_complex(u).real) / p))
    if not float_terms and len(exact_terms) <= _EXACT_TERM_LIMIT:
        total: Fraction | float = sum((t for _, t in exact_terms), Fraction(0))
        contributions: tuple = tuple(exact_terms)
    else:
        allt = sorted(exact_terms + float_terms)
        total = _chunked_fsum([float(t) for _, t in allt])
        contributions = tuple((p, float(t)) for p, t in allt)
    return DistanceResult(float(y), total, contributions)


def pretentious_distance(f: ArithmeticFunction, g: ArithmeticFunction, y: float) -> float:
    return math.sqrt(float(pretentious_distance_sq(f, g, y).squared_distance))


def triangle_defect(
    f1: ArithmeticFunction,
    f2: ArithmeticFunction,
    g1: ArithmeticFunction,
    g2: ArithmeticFunction,
    y: float,
) -> float:
    """D(f1,f2;y) + D(g1,g2;y) - D(f1*g1, f2*g2; y); nonnegative by the
    triangle inequality for the pretentious pseudometric."""
    lhs = pretentious_distance(f1, f2, y) + pretentious_distance(g1, g2, y)
    rhs = pretentious_distance(pointwise_product(f1, g1), pointwise_product(f2, g2), y)
    return lhs - rhs


@dataclass(frozen=True)
class SeriesValue:
    """Truncated Dirichlet series with a rigorous tail bound.

    For coefficients bounded by 1, |full - partial| <= tail_bound with
    tail_bound = N**(1-sigma) / (sigma-1), sigma = Re(s) > 1.
    """

    s: complex
    truncation: int
    partial: complex
    tail_bound: float


def dirichlet_series_partial(
    f: ArithmeticFunction, s: complex, N: int
) -> SeriesValue:
    """sum_{n=1}^{N} f(n) / n^s for Re(s) > 1."""
    s = complex(s)
    sigma = s.real
    if sigma <= 1:
        raise ValueError("absolutely convergent region only: need Re(s) > 1")
    if N < 1:
        raise ValueError("truncation must be >= 1")
    real_s = s.imag == 0
    re_terms: list[float] = []
    im_terms: list[float] = []
    for n in range(1, N + 1):
        u = f(n)
        if u.is_zero:
            continue
        if real_s:
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
    tail = N ** (1 - sigma) / (sigma - 1)
    return SeriesValue(s, N, partial, tail)


@dataclass(frozen=True)
class LIdentityResult:
    """Residual of L_a(s) against its factored form, with the bound it owes."""

    a: int
    s: complex
    truncation: int
    residual: float
    tail_bound: float
    factor: complex


def l_identity_residual(a: int, s: complex, N: int) -> LIdentityResult:
    """|L_a(s) - (1 - (a|2)/2^s)^{-1} L(s, chi)| on N-term partial sums.

    chi is the odd-part character: chi(n) = (a|n) for odd n, 0 for even n,
    which is a Dirichlet character when a = 3 mod 4.  The residual is owed
    below tail_a + |factor| * tail_chi.
    """
    if a % 4 != 3:
        raise ValueError(f"a = {a} is not 3 mod 4")
    s = complex(s)
    if s.real <= 1:
        raise ValueError("need Re(s) > 1")
    kron_a = ArithmeticFunction(
        lambda n: UnitValue.from_symbol(kronecker(a, n)), f"kron({a})"
    )
    odd_part = ArithmeticFunction(
        lambda n: UnitValue.from_symbol(kronecker(a, n) if n % 2 else 0),
        f"odd-part chi of kron({a})",
    )
    la = dirichlet_series_partial(kron_a, s, N)
    lchi = dirichlet_series_partial(odd_part, s, N)
    k2 = kronecker(a, 2)
    factor = 1 / (1 - k2 * 2.0**-s)
    residual = abs(la.partial - factor * lchi.partial)
    bound = la.tail_bound + abs(factor) * lchi.tail_bound
    return LIdentityResult(a, s, N, residual, bound, factor)


def paperfolding_product_partial(N: int) -> float:
    """prod_{n=1}^{N} (2n/(2n+1))**v(n+1) with v the paperfolding sign;
    converges to Gamma(1/4)**2 / (8 sqrt(2 pi)).  Accumulated in log space."""
    if N < 1:
        raise ValueError("N must be >= 1")
    logs = []
    for n in range(1, N + 1):
        v = paperfolding(n + 1).symbol()
        if v:
            logs.append(v * (math.log(2 * n) - math.log(2 * n + 1)))
    return math.exp(_chunked_fsum(logs))


def general_product_residual(a: int, N: int) -> float:
    """|LHS_N - RHS_N| for the two sides of the product identity

        prod ((n/(n+1)) ((2n+2)/(2n+1))**alpha)**(a|n+1)
            = 2**(-alpha) * prod (2n/(2n+1))**(a|2n+1),

    with alpha = (-1)**((a*a-1)/8) = (a|2), both sides as N-term partials
    accumulated in log space.

    For alpha = +1 the right side equals the often-quoted form
    (1/2) * prod (2n/(2n+1))**(alpha (a|2n+1)); for alpha = -1 that form
    is the reciprocal of the truth (checked numerically across many a),
    so the alpha-corrected grouping above is what is evaluated.
    """
    if a % 4 != 3:
        raise ValueError(f"a = {a} is not 3 mod 4")
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


def nonzero_density(f: ArithmeticFunction, N: int) -> float:
    """Fraction of 1 <= n <= N with f(n) != 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    count = sum(1 for n in range(1, N + 1) if not f(n).is_zero)
    return count / N
