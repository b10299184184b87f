"""The integer value type and the generator-based validator against the slow
Fraction-angle and all-pairs routes in oracles.py."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mockchar import (
    MINUS_ONE,
    ONE,
    UnitValue,
    ZERO,
    character_from_table,
    factor,
    kronecker_character,
    reduce_periodic_cm,
)
from mockchar.multiplicative import (
    AllZeroError,
    CharacterError,
    NotMultiplicativeError,
)

from conftest import characters_mod_prime_power
from oracles import angle_conjugate, angle_mul, angle_pow, angle_str, pair_check, pair_reduce

MAX_Q = 60
# conftest enumerates 2-power moduli up to 8 only
MODULI = [q for q in range(1, MAX_Q + 1) if q % 16]

ks = st.integers(min_value=-100, max_value=100)
ms = st.integers(min_value=1, max_value=36)


def _ref(k: int, m: int) -> Fraction:
    return Fraction(k, m) % 1


class TestUnitArithmetic:
    @given(ks, ms)
    def test_root_and_str(self, k, m):
        u = UnitValue.root(k, m)
        assert u.angle == _ref(k, m)
        assert str(u) == angle_str(_ref(k, m))
        assert 0 <= u.k < u.m and Fraction(u.k, u.m) == _ref(k, m)

    @given(ks, ms, ks, ms)
    def test_mul(self, k1, m1, k2, m2):
        u, v = UnitValue.root(k1, m1), UnitValue.root(k2, m2)
        want = angle_mul(_ref(k1, m1), _ref(k2, m2))
        assert (u * v).angle == want and str(u * v) == angle_str(want)

    @given(ks, ms, st.integers(min_value=-12, max_value=12))
    def test_pow(self, k, m, e):
        assert (UnitValue.root(k, m) ** e).angle == angle_pow(_ref(k, m), e)

    @given(st.integers(min_value=-3, max_value=3))
    def test_zero_pow(self, e):
        if e < 0:
            with pytest.raises(ZeroDivisionError):
                ZERO**e
        else:
            assert (ZERO**e).angle == angle_pow(None, e)

    @given(ks, ms)
    def test_conjugate(self, k, m):
        assert UnitValue.root(k, m).conjugate().angle == angle_conjugate(_ref(k, m))

    @given(ks, ms, ks, ms)
    def test_equality_and_hash(self, k1, m1, k2, m2):
        u, v = UnitValue.root(k1, m1), UnitValue.root(k2, m2)
        assert (u == v) == (_ref(k1, m1) == _ref(k2, m2))
        if u == v:
            assert hash(u) == hash(v)

    def test_constants_are_reduced_pairs(self):
        assert (ZERO.k, ZERO.m) == (0, 0)
        assert (ONE.k, ONE.m) == (0, 1)
        assert (MINUS_ONE.k, MINUS_ONE.m) == (1, 2)
        assert UnitValue() == ZERO and UnitValue.root(6, 4) == MINUS_ONE


@lru_cache(maxsize=None)
def _prime_power_characters(p: int, r: int):
    return characters_mod_prime_power(p, r)


@st.composite
def characters(draw):
    """(q, table) of a Dirichlet character mod q <= MAX_Q, as the product of
    characters mod the prime powers of q."""
    q = draw(st.sampled_from(MODULI))
    table = [ONE] * q
    for p, r in factor(q).factors:
        chars = _prime_power_characters(p, r)
        chi = chars[draw(st.integers(min_value=0, max_value=len(chars) - 1))]
        table = [t * chi(n) for n, t in enumerate(table)]
    return q, table


values = st.sampled_from([ZERO, ONE, MINUS_ONE, UnitValue.root(1, 3), UnitValue.root(1, 4),
                          UnitValue.root(5, 6), UnitValue.root(2, 5)])


@st.composite
def changed_characters(draw):
    """A character table with one entry replaced by another value."""
    q, table = draw(characters())
    i = draw(st.integers(min_value=0, max_value=q - 1))
    table[i] = draw(values.filter(lambda v: v != table[i]))
    return q, table


@st.composite
def wrong_zero_sets(draw):
    """A character table with a unit zeroed or a non-unit made nonzero."""
    q, table = draw(characters())
    i = draw(st.integers(min_value=0, max_value=q - 1))
    table[i] = ONE if table[i].is_zero else ZERO
    return q, table


@st.composite
def periodic_tables(draw):
    """A character table extended periodically to a multiple of its modulus."""
    q, table = draw(characters())
    k = draw(st.integers(min_value=1, max_value=MAX_Q // q))
    return q * k, [table[n % q] for n in range(q * k)]


@st.composite
def changed_periodic_tables(draw):
    q, table = draw(periodic_tables())
    i = draw(st.integers(min_value=0, max_value=q - 1))
    table[i] = draw(values.filter(lambda v: v != table[i]))
    return q, table


@st.composite
def coset_twisted(draw):
    """A character table times a function that is 1 on the subgroup generated
    by the least unit u > 1 and constant on each of its cosets: it agrees
    with a homomorphism along u but, for a non-cyclic twist, not along the
    other generators."""
    q, table = draw(characters())
    units = [x for x in range(2, q) if gcd(x, q) == 1]
    if not units:
        return q, table
    u = units[0]
    x, cyclic = u, {1}
    while x not in cyclic:
        cyclic.add(x)
        x = x * u % q
    twist = {}
    for x in units:
        if x not in cyclic:
            rep = min(x * h % q for h in cyclic)
            if rep not in twist:
                twist[rep] = draw(values.filter(lambda v: not v.is_zero))
            table[x] = table[x] * twist[rep]
    return q, table


symbol_tables = st.lists(st.sampled_from([ZERO, ONE, MINUS_ONE]), min_size=1, max_size=16).map(
    lambda t: (len(t), t)
)

validator_inputs = st.one_of(
    characters(), changed_characters(), wrong_zero_sets(), coset_twisted(), symbol_tables
)
reduction_inputs = st.one_of(
    characters(), periodic_tables(), changed_periodic_tables(), wrong_zero_sets(),
    coset_twisted(), symbol_tables,
)


def _outcome(fn, q, table):
    try:
        return fn(q, table)
    except CharacterError as exc:
        return type(exc)


def _angles(table):
    return [v.angle for v in table]


class TestValidatorAgainstPairCheck:
    @settings(max_examples=300, deadline=None)
    @given(validator_inputs)
    def test_same_verdict(self, case):
        q, table = case
        want = _outcome(pair_check, q, _angles(table))
        got = _outcome(character_from_table, q, table)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.modulus == q and _angles(got.table) == list(want)


class TestReductionAgainstPairReduce:
    @settings(max_examples=300, deadline=None)
    @given(reduction_inputs)
    def test_same_verdict(self, case):
        q, table = case
        want = _outcome(pair_reduce, q, _angles(table))
        got = _outcome(reduce_periodic_cm, q, table)
        if isinstance(want, type):
            assert got is want
        else:
            assert (got.modulus, _angles(got.table)) == (want[0], list(want[1]))

    @pytest.mark.parametrize(
        "table, error",
        [
            ([ONE, ZERO, ZERO, ZERO], NotMultiplicativeError),
            ([ONE, ONE, MINUS_ONE], NotMultiplicativeError),
            ([MINUS_ONE, ONE, ONE, ONE], NotMultiplicativeError),
            ([ZERO, ZERO, ZERO], AllZeroError),
            ([ZERO], AllZeroError),
        ],
    )
    def test_residue_zero_edge_cases(self, table, error):
        assert _outcome(pair_reduce, len(table), _angles(table)) is error
        with pytest.raises(error):
            reduce_periodic_cm(len(table), table)


def test_kronecker_character_multiplication_count(monkeypatch):
    """Validation must not multiply values per pair of residues: the
    all-pairs check made about q**2/2 products for q = 4 * 1001."""
    calls = 0
    mul = UnitValue.__mul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(UnitValue, "__mul__", counted)
    chi = kronecker_character(1001)
    assert chi.modulus == 1001
    assert calls < 20 * 4 * 1001
