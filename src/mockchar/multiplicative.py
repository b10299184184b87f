"""Completely multiplicative functions valued in zero or roots of unity.

Values are kept exact: a value is either 0 or exp(2*pi*i*k/m) stored as the
reduced integer pair (k, m).  On top of the value type sit arithmetic
functions (evaluatable maps Z -> values), Dirichlet characters with
validated tables, the paperfolding sequence, the period-reduction algorithm
for purely periodic completely multiplicative functions, and the
build/decompose pair for the structured form
``f(n) = xi**v_p(n) * chi(n / p**v_p(n))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .kronecker import kronecker, kronecker_row


class CharacterError(ValueError):
    """Base class for malformed character data."""


class NotMultiplicativeError(CharacterError):
    def __init__(self, witness: tuple[int, int], message: str | None = None):
        self.witness = witness
        super().__init__(message or f"multiplicativity fails at pair {witness}")


class WrongZeroSetError(CharacterError):
    def __init__(self, witness: int, message: str | None = None):
        self.witness = witness
        super().__init__(message or f"zero set disagrees with the modulus at n = {witness}")


class AllZeroError(CharacterError):
    """The table vanishes beyond n = 0; no character can reproduce it."""


class NoCharacterFoundError(CharacterError):
    """No modulus p**r with r <= r_max restricts the function to a character."""


class EvaluationDomainError(ValueError):
    """An arithmetic function backed by finite data was evaluated outside it."""


@dataclass(frozen=True, slots=True)
class UnitValue:
    """Zero (m = 0) or the root of unity exp(2*pi*i*k/m) as a reduced
    integer pair: 0 <= k < m and gcd(k, m) = 1.

    Build values with :meth:`root`, which reduces; the constructor takes the
    pair as given.
    """

    k: int = 0
    m: int = 0

    @property
    def is_zero(self) -> bool:
        return self.m == 0

    @property
    def angle(self) -> Fraction | None:
        """The angle k/m as a fraction in [0, 1), or None for zero."""
        return Fraction(self.k, self.m) if self.m else None

    @staticmethod
    def from_symbol(s: int) -> "UnitValue":
        if s == 0:
            return ZERO
        if s == 1:
            return ONE
        if s == -1:
            return MINUS_ONE
        raise ValueError(f"{s} is not in {{-1, 0, +1}}")

    @staticmethod
    def root(k: int, m: int) -> "UnitValue":
        """exp(2*pi*i*k/m); the pair is reduced and k normalized into [0, m)."""
        if m < 1:
            raise ValueError("order m must be >= 1")
        k %= m
        g = gcd(k, m)
        return UnitValue(k // g, m // g)

    def __mul__(self, other: "UnitValue") -> "UnitValue":
        m, n = self.m, other.m
        if not m or not n:
            return ZERO
        if m == 1:
            return other
        if n == 1:
            return self
        if m == n:
            k = self.k + other.k
        else:
            g = gcd(m, n)
            k = self.k * (n // g) + other.k * (m // g)
            m = m // g * n
        k %= m
        g = gcd(k, m)
        return UnitValue(k // g, m // g)

    def __pow__(self, e: int) -> "UnitValue":
        if not self.m:
            if e > 0:
                return ZERO
            if e == 0:
                return ONE  # empty product
            raise ZeroDivisionError("negative power of zero")
        return UnitValue.root(self.k * e, self.m)

    def conjugate(self) -> "UnitValue":
        if self.m <= 1:
            return self
        return UnitValue(self.m - self.k, self.m)

    def symbol(self) -> int:
        """The value as an integer in {-1, 0, +1}; raises for other roots."""
        if self.m <= 2:
            return (0, 1, -1)[self.m]
        raise ValueError(f"{self} is not a real symbol")

    def real_exact(self) -> Fraction | None:
        """Exact real part when it is rational (orders 1, 2, 3, 4, 6); else None."""
        return _RATIONAL_REAL_PARTS.get(self.m)

    def __str__(self) -> str:
        if self.m <= 2:
            return ("0", "1", "-1")[self.m]
        return f"e({self.k}/{self.m})"


# cos(2*pi*k/m) by order m, for the orders where it is rational
_RATIONAL_REAL_PARTS = {
    0: Fraction(0),
    1: Fraction(1),
    2: Fraction(-1),
    3: Fraction(-1, 2),
    4: Fraction(0),
    6: Fraction(1, 2),
}

ZERO = UnitValue(0, 0)
ONE = UnitValue(0, 1)
MINUS_ONE = UnitValue(1, 2)

_SYMBOLS = (ZERO, ONE, MINUS_ONE)  # index -1 wraps to MINUS_ONE


@dataclass(frozen=True)
class ArithmeticFunction:
    """A deterministic evaluatable map from the integers to unit values.

    `row`, when set, maps N to the codes of f(0), ..., f(N) in one pass
    (0, 1, 2 for 0, +1, -1, as :func:`kronecker_row` returns them); sums
    over a dense range of n read it instead of calling f once per term.
    """

    fn: Callable[[int], UnitValue]
    label: str = ""
    row: Callable[[int], bytearray] | None = field(default=None, compare=False)

    def __call__(self, n: int) -> UnitValue:
        return self.fn(n)

    def __repr__(self) -> str:
        return f"ArithmeticFunction({self.label or self.fn!r})"


def paperfolding(n: int) -> UnitValue:
    """Regular paperfolding sign: 0 at n = 0, v(-n) = -v(n), v(2n) = v(n),
    v(2n+1) = (-1)**n.  Equals the Kronecker symbol (-1|n) for every n."""
    if n == 0:
        return ZERO
    neg = n < 0
    m = -n if neg else n
    m >>= (m & -m).bit_length() - 1
    plus = (m & 3) == 1
    return MINUS_ONE if plus == neg else ONE


PAPERFOLDING = ArithmeticFunction(paperfolding, "paperfold")


def kronecker_function(a: int) -> ArithmeticFunction:
    """The map n -> (a|n) as an arithmetic function."""

    def ev(n: int) -> UnitValue:
        return _SYMBOLS[kronecker(a, n)]

    return ArithmeticFunction(ev, f"kron({a})", partial(kronecker_row, a))


def pointwise_product(f: ArithmeticFunction, g: ArithmeticFunction) -> ArithmeticFunction:
    """(fg)(n) = f(n) g(n); preserves complete multiplicativity."""

    def ev(n: int) -> UnitValue:
        return f(n) * g(n)

    return ArithmeticFunction(ev, f"{f.label or 'f'}*{g.label or 'g'}")


def function_from_entries(
    entries: Mapping[int, UnitValue] | Iterable[tuple[int, UnitValue]],
    label: str = "seq",
) -> ArithmeticFunction:
    """Arithmetic function backed by finite data; outside it evaluation raises
    :class:`EvaluationDomainError` so callers can fall back honestly."""
    table = dict(entries)

    def ev(n: int) -> UnitValue:
        try:
            return table[n]
        except KeyError:
            raise EvaluationDomainError(f"{label} has no value at n = {n}") from None

    return ArithmeticFunction(ev, label)


@dataclass(frozen=True)
class DirichletCharacter:
    """Dirichlet character mod q as a validated q-entry value table.

    chi(n) = table[n % q]; the table vanishes exactly at residues sharing a
    factor with q, takes roots of unity elsewhere, and is completely
    multiplicative.  Construct through :func:`character_from_table`.
    """

    modulus: int
    table: tuple[UnitValue, ...]

    def __call__(self, n: int) -> UnitValue:
        return self.table[n % self.modulus]

    def as_function(self) -> ArithmeticFunction:
        return ArithmeticFunction(self.__call__, f"chi mod {self.modulus}")


def character_from_table(q: int, table: Sequence[UnitValue]) -> DirichletCharacter:
    """Validate a candidate value table and return the character it defines.

    Raises WrongZeroSetError when the zero set is not exactly the non-units
    mod q, and NotMultiplicativeError (with a witness pair) when chi(1) != 1
    or chi(g*x) != chi(g) chi(x) for a unit x and a generator g of (Z/q)^*.
    The units h with chi(h*x) = chi(h) chi(x) for every unit x contain 1 and
    the generators and are closed under products, so they are the whole
    group; non-units are covered by the zero set.  Cost: O(q * #generators)
    integer operations, with at most log2(phi(q)) generators.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    tab = tuple(table)
    if len(tab) != q:
        raise ValueError(f"table must have length {q}, got {len(tab)}")
    units = []
    for r in range(q):
        unit = gcd(r, q) == 1
        if tab[r].is_zero == unit:
            raise WrongZeroSetError(r)
        if unit:
            units.append(r)
    one = tab[1 % q]
    if one != ONE:
        raise NotMultiplicativeError((1, 1), f"chi(1) = {one} != 1")
    # each unit value as an exponent e with value exp(2*pi*i*e/order)
    order = lcm(*{tab[x].m for x in units})
    exps = [0] * q
    for x in units:
        exps[x] = tab[x].k * (order // tab[x].m)
    for g in _unit_generators(q, units):
        eg = exps[g]
        for x in units:
            if exps[g * x % q] != (eg + exps[x]) % order:
                raise NotMultiplicativeError((g, x))
    return DirichletCharacter(q, tab)


def _unit_generators(q: int, units: Sequence[int]) -> list[int]:
    """Generators of (Z/q)^*, picked greedily: the least unit outside the
    subgroup generated so far, which then grows by the cosets of its powers.
    Each pick at least doubles the subgroup; no factoring is needed."""
    member = bytearray(q)
    member[1 % q] = 1
    subgroup = [1 % q]
    gens = []
    for u in units:
        if member[u]:
            continue
        gens.append(u)
        grown = list(subgroup)
        power = u
        while not member[power]:
            coset = [power * h % q for h in subgroup]
            for c in coset:
                member[c] = 1
            grown += coset
            power = power * u % q
        subgroup = grown
    return gens


def character_from_symbols(q: int, symbols: Sequence[int]) -> DirichletCharacter:
    """Convenience wrapper for real characters given as -1/0/+1 entries."""
    return character_from_table(q, [UnitValue.from_symbol(s) for s in symbols])


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def reduce_periodic_cm(q: int, table: Sequence[UnitValue]) -> DirichletCharacter:
    """Minimal Dirichlet character reproducing a purely periodic completely
    multiplicative value table of period q.

    Repeatedly divides the period: with d the largest divisor of q whose
    table value is nonzero, cancellation of chi(d) shows the function is
    q/d-periodic, so the table can be truncated.  When the scan bottoms out
    at d = 1 the remaining table is reduced to its least period, its
    periodic extension is compared with the input on every residue, and it
    is handed to the validating constructor.  A completely multiplicative
    table passes all three steps and a table that passes them is completely
    multiplicative, so any failure is a NotMultiplicativeError.
    """
    if q < 1:
        raise ValueError("period must be >= 1")
    source = tuple(table)
    if len(source) != q:
        raise ValueError(f"table must have length {q}, got {len(source)}")
    if not source[0].is_zero:
        # f(0) = f(0) f(n) for every n: a nonzero f(0) forces f = 1
        for n, v in enumerate(source):
            if v != ONE:
                raise NotMultiplicativeError((0, n))
        return DirichletCharacter(1, (ONE,))
    if all(v.is_zero for v in source):
        raise AllZeroError("table vanishes beyond n = 0")
    if source[1] != ONE:
        raise NotMultiplicativeError((1, 1), f"f(1) = {source[1]} != 1")
    tab = source
    while True:
        d = max(div for div in _divisors(q) if not tab[div % q].is_zero)
        if d == 1:
            break
        q //= d
        tab = tab[:q]
    for t in _divisors(q):
        if all(tab[i] == tab[i % t] for i in range(q)):
            q, tab = t, tab[:t]
            break
    # the reduction is only sound for genuinely periodic data; comparing the
    # periodic extension against the input keeps bad input loud
    for i, v in enumerate(source):
        if tab[i % q] != v:
            raise NotMultiplicativeError(
                (i, q), f"reduced character disagrees with the table at n = {i}"
            )
    try:
        return character_from_table(q, tab)
    except WrongZeroSetError as exc:
        raise NotMultiplicativeError(
            (exc.witness, q),
            f"reduced table mod {q} has a wrong zero set at n = {exc.witness}",
        ) from exc


def kronecker_character(a: int) -> DirichletCharacter:
    """The Kronecker symbol (a|.) as a character of minimal modulus.

    Defined for a with a % 4 != 3, where the symbol is purely periodic with
    period 4|a|; the table is reduced to the least modulus.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if a % 4 == 3:
        raise ValueError(f"({a}|.) is not periodic, hence not a character")
    period = 4 * abs(a)
    # residue 0 is sampled at n = period: (a|0) = 0 regardless of the
    # character value there, which only differs for the trivial case a = 1
    tab = [_SYMBOLS[kronecker(a, period)]]
    tab += [_SYMBOLS[kronecker(a, r)] for r in range(1, period)]
    return reduce_periodic_cm(period, tab)


def build_structured(
    xi: UnitValue,
    p: int,
    chi: DirichletCharacter,
    value_at_minus_one: UnitValue = ONE,
) -> ArithmeticFunction:
    """The completely multiplicative function xi**v_p(n) * chi(n / p**v_p(n)).

    chi must have modulus a power of p.  The function is nonvanishing on the
    positive integers, sends 0 to 0, and extends to negative arguments by
    f(-n) = f(-1) f(n) with the supplied f(-1) (defaults to 1).
    """
    if xi.is_zero:
        raise ValueError("xi must be a root of unity, not zero")
    q = chi.modulus
    while q % p == 0:
        q //= p
    if q != 1:
        raise ValueError(f"modulus {chi.modulus} is not a power of {p}")

    def ev(n: int) -> UnitValue:
        if n == 0:
            return ZERO
        sign = ONE
        if n < 0:
            n = -n
            sign = value_at_minus_one
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        value = sign * chi(n)
        return xi**v * value if v else value

    return ArithmeticFunction(ev, f"structured(xi={xi}, p={p}, chi mod {chi.modulus})")


def decompose_structured(
    f: ArithmeticFunction, p: int, r_max: int
) -> tuple[UnitValue, DirichletCharacter]:
    """Recover (xi, chi) with f(n) = xi**v_p(n) * chi(n / p**v_p(n)) on Z+.

    Searches r = 1..r_max for the least prime-power modulus p**r whose
    residue table matches f on a window of about 4 * p**r_max integers
    coprime to p; raises NoCharacterFoundError when none is consistent.
    The recovered chi has the least consistent modulus, so a character
    induced from a smaller one decomposes to the smaller modulus.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    window = 4 * p**r_max
    xi = f(p)
    if xi.is_zero:
        raise NoCharacterFoundError(f"f({p}) = 0; f vanishes at the base prime")
    for r in range(1, r_max + 1):
        q = p**r
        try:
            chi = character_from_table(q, [ZERO if n % p == 0 else f(n) for n in range(q)])
        except CharacterError:
            continue
        if all(
            f(n) == chi(n) for n in range(1, window + 1) if n % p != 0
        ):
            rebuilt = build_structured(xi, p, chi)
            if all(f(n) == rebuilt(n) for n in range(1, window + 1)):
                return xi, chi
    raise NoCharacterFoundError(
        f"no character mod {p}**r with r <= {r_max} matches f off multiples of {p}"
    )
