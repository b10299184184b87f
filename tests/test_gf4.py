import random

import pytest

from mockchar import (
    NotDetected,
    Periodic,
    build_G,
    build_R,
    coefficient_period_witness,
    f4_add,
    f4_mul,
    f4_pow,
    kronecker,
    verify_functional_equation,
)
from mockchar.gf4 import (
    DEFAULT_EMBEDDING,
    ELEMENTS,
    F4Series,
    SymbolEmbedding,
    all_embeddings,
    series_pow4,
    zero_preserving_embeddings,
)
from oracles import series_from_coeffs, series_from_hex, series_mul, series_to_hex

W = 2  # the generator with w*w = w + 1


class TestFieldAxioms:
    def test_characteristic_two(self):
        for x in ELEMENTS:
            assert f4_add(x, x) == 0

    def test_defining_relation(self):
        assert f4_mul(W, W) == W ^ 1  # w^2 = w + 1

    def test_fourth_power_is_identity(self):
        for x in ELEMENTS:
            assert f4_pow(x, 4) == x

    def test_full_axioms(self):
        for x in ELEMENTS:
            assert f4_add(x, 0) == x and f4_mul(x, 1) == x and f4_mul(x, 0) == 0
            for y in ELEMENTS:
                assert f4_add(x, y) == f4_add(y, x)
                assert f4_mul(x, y) == f4_mul(y, x)
                for z in ELEMENTS:
                    assert f4_mul(x, f4_mul(y, z)) == f4_mul(f4_mul(x, y), z)
                    assert f4_mul(x, f4_add(y, z)) == f4_add(f4_mul(x, y), f4_mul(x, z))

    def test_units_invertible(self):
        for x in (1, 2, 3):
            assert any(f4_mul(x, y) == 1 for y in (1, 2, 3))


class TestSeries:
    def test_pow4_spreads_coefficients(self):
        s = series_from_coeffs([1, W], 16)
        p = series_pow4(s)
        assert p.coeffs[0] == 1 and p.coeffs[4] == W
        assert all(c == 0 for i, c in enumerate(p.coeffs) if i not in (0, 4))

    def test_pow4_matches_schoolbook(self):
        rng = random.Random(42)
        for _ in range(200):
            s = series_from_coeffs([rng.randrange(4) for _ in range(64)], 64)
            naive = series_mul(series_mul(s, s), series_mul(s, s))
            assert series_pow4(s).coeffs == naive.coeffs

    def test_constant_series_fixed_by_pow4(self):
        for c in ELEMENTS:
            s = series_from_coeffs([c], 8)
            assert series_pow4(s).coeffs[0] == c

    def test_add_is_xor(self):
        a = series_from_coeffs([1, 2, 3], 4)
        b = series_from_coeffs([3, 2, 1], 4)
        assert (a + b).coeffs == bytes([2, 0, 2, 0])

    def test_hex_roundtrip(self):
        s = build_R(3, DEFAULT_EMBEDDING, 100)
        assert series_from_hex(series_to_hex(s), 100).coeffs == s.coeffs

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            F4Series(2, bytes([1, 7]))


class TestEmbeddings:
    def test_counts(self):
        assert len(set(zero_preserving_embeddings())) == 6
        assert len(set(all_embeddings())) == 24

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            SymbolEmbedding(0, 1, 1)
        with pytest.raises(ValueError):
            SymbolEmbedding(2, 2, 3)

    def test_apply(self):
        emb = SymbolEmbedding(0, 1, W)
        assert emb.apply(0) == 0 and emb.apply(1) == 1 and emb.apply(-1) == W
        with pytest.raises(ValueError):
            emb.apply(2)


class TestBuild:
    def test_leading_coefficients(self):
        g = build_G(3, SymbolEmbedding(0, 1, W), 8)
        assert g.coeffs[0] == 0   # (3|0) = 0
        assert g.coeffs[1] == 1   # (3|1) = +1
        assert g.coeffs[2] == W   # (3|2) = -1

    def test_single_term(self):
        g = build_G(3, DEFAULT_EMBEDDING, 1)
        assert g.coeffs == bytes([DEFAULT_EMBEDDING.zero])

    def test_coefficients_at_4n(self):
        g = build_G(7, DEFAULT_EMBEDDING, 4096)
        for n in range(1024):
            assert g.coeffs[4 * n] == g.coeffs[n]

    def test_R_zero_on_multiples_of_four(self):
        r = build_R(3, DEFAULT_EMBEDDING, 64)
        g = build_G(3, DEFAULT_EMBEDDING, 64)
        for n in range(64):
            if n % 4 == 0:
                assert r.coeffs[n] == 0
            else:
                assert r.coeffs[n] == g.coeffs[n]

    def test_rejects_non_3mod4(self):
        for fn in (build_G, build_R):
            with pytest.raises(ValueError):
                fn(5, DEFAULT_EMBEDDING, 16)


class TestFunctionalEquation:
    @pytest.mark.parametrize("a", [3, 7, 11, 15, 19])
    def test_holds_for_zero_preserving_embeddings(self, a):
        for emb in zero_preserving_embeddings():
            assert verify_functional_equation(a, emb, 4096) is None

    def test_holds_even_off_the_zero_fixing_ones(self):
        # the identity needs only char 2, x^4 = x, and (a|4n) = (a|n), so it
        # holds for every injective placement, not just the zero-fixing six
        for emb in all_embeddings():
            assert verify_functional_equation(3, emb, 1024) is None

    def test_detects_corruption(self):
        # a deliberately corrupted R must surface a failing index
        g = build_G(3, DEFAULT_EMBEDDING, 256)
        r = build_R(3, DEFAULT_EMBEDDING, 256)
        bad = bytearray(r.coeffs)
        bad[17] ^= 1
        s = series_pow4(g) + g + F4Series(256, bytes(bad))
        failing = [i for i in range(256) if s.coeffs[i]]
        assert failing == [17]


class TestPeriodWitness:
    @pytest.mark.parametrize("a", [3, 7, 11])
    def test_R_periodic_G_not(self, a):
        r = build_R(a, DEFAULT_EMBEDDING, 4096)
        g = build_G(a, DEFAULT_EMBEDDING, 4096)
        vr = coefficient_period_witness(r)
        vg = coefficient_period_witness(g)
        assert isinstance(vr, Periodic)
        assert (8 * abs(a)) % vr.period == 0
        assert isinstance(vg, NotDetected)

    def test_zero_series(self):
        z = F4Series(4096, bytes(4096))
        assert coefficient_period_witness(z) == Periodic(0, 1)

    def test_even_index_subsequences_periodic(self):
        # coefficients at 2(2n+1) are (a|2) times the odd-argument values,
        # hence periodic like them
        a = 3
        vals = [kronecker(a, 2 * (2 * n + 1)) for n in range(200)]
        odd = [kronecker(a, 2 * n + 1) for n in range(200)]
        k2 = kronecker(a, 2)
        assert vals == [k2 * v for v in odd]
