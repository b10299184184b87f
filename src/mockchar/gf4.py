"""Arithmetic in the four-element field and truncated power series over it.

Elements are the ints 0..3 encoding 0, 1, w, w+1 with w*w = w + 1 (bit 0 is
the constant term, bit 1 the w term).  Addition is XOR; multiplication is
tabulated.  Series are coefficient bytearrays modulo X**N.

The headline check: for a = 3 mod 4 and any map f of {0, +1, -1} into the
field, the series G(X) = sum f((a|n)) X**n satisfies G**4 + G + R = 0 where
R keeps only the exponents not divisible by 4.  This drives the
algebraicity of G; the computable witnesses shipped here are the identity
itself and the eventual periodicity of R's coefficients.

The coefficients come from one row of symbol codes per (a, N)
(:func:`symbol_row`, built by complete multiplicativity in
:func:`kronecker_row`); an embedding maps the row to coefficients with one
byte translation, so checking all six zero-preserving embeddings evaluates
the symbols once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .automata import PeriodVerdict, detect_eventual_period
from .kronecker import kronecker_row

F4Element = int  # 0, 1, 2 (= w), 3 (= w+1)

_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

ELEMENTS = (0, 1, 2, 3)


def f4_add(x: F4Element, y: F4Element) -> F4Element:
    return x ^ y


def f4_mul(x: F4Element, y: F4Element) -> F4Element:
    return _MUL[x][y]


def f4_pow(x: F4Element, e: int) -> F4Element:
    if e < 0:
        raise ValueError("negative exponents not supported")
    if e == 0:
        return 1
    acc = 1
    for _ in range(e):
        acc = _MUL[acc][x]
    return acc


@dataclass(frozen=True)
class F4Series:
    """Truncated power series over the four-element field, exact mod X**N."""

    truncation: int
    coeffs: bytes

    def __post_init__(self):
        if len(self.coeffs) != self.truncation:
            raise ValueError("coefficient count must equal the truncation")
        if max(self.coeffs, default=0) > 3:
            raise ValueError("coefficients must be field elements 0..3")

    def __add__(self, other: "F4Series") -> "F4Series":
        if self.truncation != other.truncation:
            raise ValueError("truncations differ")
        return F4Series(
            self.truncation, bytes(a ^ b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __getitem__(self, i: int) -> F4Element:
        return self.coeffs[i]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def series_pow4(g: F4Series) -> F4Series:
    """Fourth power using the Frobenius: in characteristic 2 with x**4 = x,
    (sum c_n X**n)**4 = sum c_n X**(4n)."""
    N = g.truncation
    out = bytearray(N)
    out[::4] = g.coeffs[: len(range(0, N, 4))]
    return F4Series(N, bytes(out))


@dataclass(frozen=True)
class SymbolEmbedding:
    """An injective placement of the symbols 0, +1, -1 into the field."""

    zero: F4Element
    plus: F4Element
    minus: F4Element

    def __post_init__(self):
        imgs = (self.zero, self.plus, self.minus)
        if any(x not in ELEMENTS for x in imgs):
            raise ValueError("images must be field elements 0..3")
        if len(set(imgs)) != 3:
            raise ValueError(f"embedding must be injective, got images {imgs}")

    def apply(self, symbol: int) -> F4Element:
        if symbol == 0:
            return self.zero
        if symbol == 1:
            return self.plus
        if symbol == -1:
            return self.minus
        raise ValueError(f"{symbol} is not in {{-1, 0, +1}}")


DEFAULT_EMBEDDING = SymbolEmbedding(0, 1, 2)


def zero_preserving_embeddings() -> tuple[SymbolEmbedding, ...]:
    """The six injective maps fixing 0."""
    return tuple(
        SymbolEmbedding(0, p, m) for p, m in permutations((1, 2, 3), 2)
    )


def all_embeddings() -> tuple[SymbolEmbedding, ...]:
    """All 24 injective maps of the three symbols into the field."""
    return tuple(
        SymbolEmbedding(z, p, m) for z, p, m in permutations(ELEMENTS, 3)
    )


def _require_3mod4(a: int) -> None:
    if a % 4 != 3:
        raise ValueError(f"a = {a} is not 3 mod 4")


def symbol_row(a: int, N: int) -> bytearray:
    """Codes of (a|n) for 0 <= n < N (0, 1, 2 for 0, +1, -1), from
    :func:`kronecker_row`.  G and R under every embedding read this one row."""
    _require_3mod4(a)
    if N < 0:
        raise ValueError("coefficient count must equal the truncation")
    return kronecker_row(a, N - 1) if N else bytearray()


def _embedded(a: int, emb: SymbolEmbedding, N: int, row: bytearray | None) -> bytearray:
    _require_3mod4(a)
    if row is None:
        row = symbol_row(a, N)
    table = bytes((emb.zero, emb.plus, emb.minus)).ljust(256, b"\0")
    return row[:N].translate(table)


def build_G(a: int, emb: SymbolEmbedding, N: int, row: bytearray | None = None) -> F4Series:
    """G(X) = sum_{n>=0} f((a|n)) X**n mod X**N.

    `row` is ``symbol_row(a, N)`` when the caller already holds it."""
    return F4Series(N, bytes(_embedded(a, emb, N, row)))


def build_R(a: int, emb: SymbolEmbedding, N: int, row: bytearray | None = None) -> F4Series:
    """R(X) = sum over n >= 0 with 4 not dividing n of f((a|n)) X**n."""
    coeffs = _embedded(a, emb, N, row)
    coeffs[::4] = bytes(len(range(0, N, 4)))
    return F4Series(N, bytes(coeffs))


def verify_functional_equation(
    a: int, emb: SymbolEmbedding, N: int, row: bytearray | None = None
) -> int | None:
    """Checks G**4 + G + R = 0 coefficientwise mod X**N.

    Returns None on success, else the first index where the sum is nonzero.
    The three series are added as little-endian integers, one byte per
    coefficient, so XOR adds every coefficient at once and the lowest set
    bit of the sum names the first failing index.
    """
    if row is None:
        row = symbol_row(a, N)
    g = build_G(a, emb, N, row)
    r = build_R(a, emb, N, row)
    total = 0
    for series in (series_pow4(g), g, r):
        total ^= int.from_bytes(series.coeffs, "little")
    if not total:
        return None
    return ((total & -total).bit_length() - 1) // 8


def coefficient_period_witness(
    series: F4Series, max_preperiod: int = 256, max_period: int = 1024
) -> PeriodVerdict:
    """Eventual-periodicity verdict on the coefficient sequence; a detected
    period witnesses rationality of the series."""
    return detect_eventual_period(list(series.coeffs), max_preperiod, max_period)
