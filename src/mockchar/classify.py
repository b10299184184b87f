"""Classification of arithmetic functions as Dirichlet or mock characters.

A mock character of mockulus q is completely multiplicative, q-automatic
but not eventually periodic, and vanishes exactly at 0 and at the integers
sharing a factor with a fixed d >= 1.  The classifier runs bounded checks
for each condition and returns a verdict that records the parameters used:
automaticity from samples is heuristic, and the verdicts say so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from math import gcd
from typing import Optional

from . import automata
from .automata import KernelOverflow, Periodic
from .kronecker import kronecker, primes_up_to
from .multiplicative import (
    AllZeroError,
    ArithmeticFunction,
    CharacterError,
    DirichletCharacter,
    EvaluationDomainError,
    NotMultiplicativeError,
    ONE,
    reduce_periodic_cm,
)


# the multiplicativity check needs n <= 4, the period search 1 + 3*1 terms
MIN_FITTED_LENGTH = 5


def _bound(default: int, flag: str):
    return field(default=default, metadata={"flag": flag})


@dataclass(frozen=True)
class ClassifyParams:
    """Bounds for the classification sub-checks; all positive.

    The one place the bounds are written: each field name is also the
    bound's config-file key, and its "flag" metadata its command-line flag.
    """

    multiplicativity_bound: int = _bound(10_000, "--mult-bound")
    zero_prime_bound: int = _bound(1_000, "--zero-prime-bound")
    zero_check_bound: int = _bound(10_000, "--zero-check-bound")
    max_preperiod: int = _bound(500, "--max-preperiod")
    max_period: int = _bound(2_000, "--max-period")
    kernel_window: int = _bound(automata.DEFAULT_WINDOW, "--kernel-window")
    kernel_max_depth: int = _bound(automata.DEFAULT_MAX_DEPTH, "--kernel-depth")
    kernel_max_size: int = _bound(automata.DEFAULT_MAX_SIZE, "--kernel-max-size")

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def kernel_bounds(self) -> dict[str, int]:
        """The kernel bounds as keyword arguments of automata.compute_kernel."""
        return {
            "max_depth": self.kernel_max_depth,
            "window": self.kernel_window,
            "max_size": self.kernel_max_size,
        }

    @property
    def prefix_length(self) -> int:
        return self.max_preperiod + 3 * self.max_period

    def fitted_to_length(self, length: int) -> "ClassifyParams":
        """Shrink the bounds so every check reads only n < length (data on
        n = 0..length-1); detection power drops accordingly.  Raises
        ValueError below MIN_FITTED_LENGTH terms, the least the checks need."""
        if length < MIN_FITTED_LENGTH:
            raise ValueError(
                f"sequence known only for n < {length}; classification reads "
                f"n = 0..{MIN_FITTED_LENGTH - 1}"
            )
        last = length - 1
        fitted = replace(
            self,
            multiplicativity_bound=min(self.multiplicativity_bound, last),
            zero_prime_bound=min(self.zero_prime_bound, last),
            zero_check_bound=min(self.zero_check_bound, last),
        )
        if length >= self.prefix_length:
            return fitted
        max_period = min(
            self.max_period, max(1, (length - min(self.max_preperiod, length // 4)) // 3)
        )
        return replace(
            fitted,
            max_preperiod=max(1, length - 3 * max_period),
            max_period=max_period,
            kernel_window=min(self.kernel_window, max(2, length // 4)),
        )


DEFAULT_PARAMS = ClassifyParams()


def check_complete_multiplicativity(
    f: ArithmeticFunction, N: int
) -> Optional[tuple[int, int]]:
    """First pair (m, n), 2 <= m <= n, mn <= N, with f(mn) != f(m)f(n);
    None when every such pair checks out."""
    if N < 4:
        raise ValueError("N must be >= 4")
    vals = [f(n) for n in range(N + 1)]
    m = 2
    while m * m <= N:
        fm = vals[m]
        for n in range(m, N // m + 1):
            if vals[m * n] != fm * vals[n]:
                return (m, n)
        m += 1
    return None


@dataclass(frozen=True)
class ZeroDivisor:
    """The zero set up to the bounds is exactly {0} plus non-units mod d."""

    d: int
    zero_primes: tuple[int, ...]
    checked_to: int


@dataclass(frozen=True)
class ZeroSupportFailure:
    """The iff-condition broke at `witness` for the candidate divisor."""

    witness: int
    candidate_d: int
    zero_primes: tuple[int, ...]


def zero_support_divisor(
    f: ArithmeticFunction, prime_bound: int, check_bound: int
) -> ZeroDivisor | ZeroSupportFailure:
    """Candidate d = product of primes p <= prime_bound with f(p) = 0, then
    verification that f(n) = 0 iff n = 0 or gcd(n, d) != 1 for n <= check_bound.

    A function vanishing only at primes beyond prime_bound fails the check
    (its witness is such a prime); raise the bound for such inputs.
    """
    if prime_bound < 2 or check_bound < 2:
        raise ValueError("bounds must be >= 2")
    zero_primes = tuple(p for p in primes_up_to(prime_bound) if f(p).is_zero)
    d = 1
    for p in zero_primes:
        d *= p
    for n in range(check_bound + 1):
        if f(n).is_zero != (n == 0 or gcd(n, d) != 1):
            return ZeroSupportFailure(n, d, zero_primes)
    return ZeroDivisor(d, zero_primes, check_bound)


@dataclass(frozen=True)
class CharacterVerdict:
    character: DirichletCharacter
    detected_period: int
    preperiod: int

    kind = "dirichlet-character"

    def to_json_dict(self) -> dict:
        return {
            "schema": "mockchar.verdict.v1",
            "verdict": self.kind,
            "modulus": self.character.modulus,
            "detected_period": self.detected_period,
            "preperiod": self.preperiod,
            "table": [str(v) for v in self.character.table],
        }


@dataclass(frozen=True)
class MockVerdict:
    mockulus: int
    zero_divisor: int
    kernel_size: int
    params: ClassifyParams
    warning: str | None = None

    kind = "mock-character"

    def to_json_dict(self) -> dict:
        return {
            "schema": "mockchar.verdict.v1",
            "verdict": self.kind,
            "mockulus": self.mockulus,
            "zero_divisor": self.zero_divisor,
            "kernel_states": self.kernel_size,
            "verified_at": asdict(self.params),
            "warning": self.warning,
        }


@dataclass(frozen=True)
class InconsistentVerdict:
    reason: str
    witness: tuple[int, ...]

    kind = "inconsistent"

    def to_json_dict(self) -> dict:
        return {
            "schema": "mockchar.verdict.v1",
            "verdict": self.kind,
            "reason": self.reason,
            "witness": list(self.witness),
        }


@dataclass(frozen=True)
class InconclusiveVerdict:
    reason: str
    params: ClassifyParams
    classes_reached: int | None = None

    kind = "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "schema": "mockchar.verdict.v1",
            "verdict": self.kind,
            "reason": self.reason,
            "parameters": asdict(self.params),
            "classes_reached": self.classes_reached,
        }


MockClassification = CharacterVerdict | MockVerdict | InconsistentVerdict | InconclusiveVerdict


def _prime_power_base(q: int) -> int | None:
    # smallest prime p with q = p**m, or None
    for p in primes_up_to(q):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    return None


def classify(
    f: ArithmeticFunction,
    base: int = 2,
    params: ClassifyParams = DEFAULT_PARAMS,
) -> MockClassification:
    """Decide between Dirichlet character, mock character of mockulus `base`,
    an inconsistency witness, or an honest "inconclusive".

    Pipeline: complete multiplicativity on pairs up to the bound; zero-set
    agreement with a divisor d; eventual-periodicity detection (a detected
    period routes to the character reduction, allowing the single anomaly
    f(0) = 0 against a modulus-1 character); otherwise kernel closure at
    `base`, replayed against the prefix before a mock verdict is issued.
    Precedence is fixed: inconsistent > character > mock > inconclusive.
    """
    try:
        if f(1) != ONE:
            return InconsistentVerdict("f(1) != 1", (1, 1))
        witness = check_complete_multiplicativity(f, params.multiplicativity_bound)
        if witness is not None:
            return InconsistentVerdict("not completely multiplicative", witness)
        zs = zero_support_divisor(f, params.zero_prime_bound, params.zero_check_bound)
        if isinstance(zs, ZeroSupportFailure):
            return InconsistentVerdict(
                f"zero set does not match divisor {zs.candidate_d}", (zs.witness,)
            )
        prefix = [f(n) for n in range(params.prefix_length)]
    except EvaluationDomainError as exc:
        return InconclusiveVerdict(f"ran out of data: {exc}", params)

    verdict = automata.detect_eventual_period(
        prefix, params.max_preperiod, params.max_period
    )
    if isinstance(verdict, Periodic):
        if verdict.preperiod > 1 or (verdict.preperiod == 1 and not prefix[0].is_zero):
            return InconclusiveVerdict(
                f"eventually periodic with preperiod {verdict.preperiod}; "
                "no purely periodic completely multiplicative structure to reduce",
                params,
            )
        tau = verdict.period
        table = [prefix[tau]] + list(prefix[1:tau])  # residue 0 sampled at n = tau
        try:
            chi = reduce_periodic_cm(tau, table)
        except (NotMultiplicativeError, AllZeroError, CharacterError) as exc:
            return InconclusiveVerdict(
                f"detected period {tau} does not reduce to a character: {exc}", params
            )
        return CharacterVerdict(chi, tau, verdict.preperiod)

    kernel = automata.compute_kernel(f, base, **params.kernel_bounds)
    if isinstance(kernel, KernelOverflow):
        return InconclusiveVerdict(
            f"kernel did not close ({kernel.reason}) at depth {kernel.depth_reached}",
            params,
            classes_reached=kernel.classes_reached,
        )
    dfao = automata.kernel_to_dfao(kernel)
    for n, expected in enumerate(prefix):
        if automata.dfao_eval(dfao, n) != expected:
            return InconclusiveVerdict(
                f"kernel fingerprints collided: automaton disagrees at n = {n}",
                params,
            )
    warning = None
    for p in _nonzero_base_primes(zs, base):
        if _prime_power_base(base) != p:
            warning = (
                f"mockulus {base} has prime {p} with f({p}) != 0 but is not a "
                f"power of {p}; a mock character cannot have this mockulus"
            )
            break
    return MockVerdict(
        mockulus=base,
        zero_divisor=zs.d,
        kernel_size=kernel.size,
        params=params,
        warning=warning,
    )


def _nonzero_base_primes(zs: ZeroDivisor, base: int) -> tuple[int, ...]:
    # primes dividing the base at which the function does not vanish
    return tuple(p for p in primes_up_to(base) if base % p == 0 and zs.d % p != 0)


class FamilyVerdict:
    DIRICHLET_CHARACTER = "dirichlet-character"
    MOCK_CHARACTER = "mock-character"


def kronecker_family_verdict(a: int) -> str:
    """Closed-form expectation for (a|.): a Dirichlet character exactly when
    a is not 3 mod 4, and a mock character of mockulus 2 otherwise."""
    if a == 0:
        raise ValueError("a must be nonzero")
    return (
        FamilyVerdict.MOCK_CHARACTER
        if a % 4 == 3
        else FamilyVerdict.DIRICHLET_CHARACTER
    )


def period_pattern(a: int) -> list[int]:
    """Least period of ((a|2n+1))_{n>=0} as a symbol list, for a = 3 mod 4.

    The subsequence over odd arguments is purely periodic with period
    dividing 2|a|, and its least period is even.
    """
    if a % 4 != 3:
        raise ValueError(f"a = {a} is not 3 mod 4")
    bound = 2 * abs(a)
    prefix = [kronecker(a, 2 * n + 1) for n in range(3 * bound + 2)]
    verdict = automata.detect_eventual_period(prefix, 0, bound)
    if not isinstance(verdict, Periodic):  # pragma: no cover - the odd subsequence is always purely periodic
        raise AssertionError(f"odd subsequence of ({a}|.) did not show its period")
    return prefix[: verdict.period]
