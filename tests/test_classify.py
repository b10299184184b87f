from dataclasses import asdict

import pytest

from mockchar import (
    ArithmeticFunction,
    CharacterVerdict,
    ClassifyParams,
    InconclusiveVerdict,
    InconsistentVerdict,
    MINUS_ONE,
    MockVerdict,
    ONE,
    PAPERFOLDING,
    ZERO,
    ZeroDivisor,
    ZeroSupportFailure,
    check_complete_multiplicativity,
    classify,
    kronecker,
    kronecker_family_verdict,
    kronecker_function,
    period_pattern,
    zero_support_divisor,
)
from mockchar.classify import DEFAULT_PARAMS, MIN_FITTED_LENGTH, FamilyVerdict
from mockchar.multiplicative import function_from_entries

from conftest import random_cm_pm1


class TestCompleteMultiplicativity:
    def test_kronecker_functions_pass(self):
        for a in (3, -1, 5, 12):
            assert check_complete_multiplicativity(kronecker_function(a), 10_000) is None

    def test_constant_one_passes(self):
        ones = ArithmeticFunction(lambda n: ONE, "1")
        assert check_complete_multiplicativity(ones, 1000) is None

    def test_constructed_violation_found(self):
        # 1 at 1 mod 4, 1 at 3 mod 4, 0 at even: f(3)^2 = 1 but f(9) = 1 ... equal;
        # make f(9) disagree explicitly instead
        def ev(n):
            if n == 9:
                return MINUS_ONE
            return ZERO if n % 2 == 0 else ONE

        assert check_complete_multiplicativity(ArithmeticFunction(ev), 100) == (3, 3)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            check_complete_multiplicativity(PAPERFOLDING, 3)


class TestZeroSupport:
    def test_kappa3(self):
        out = zero_support_divisor(kronecker_function(3), 1000, 10_000)
        assert isinstance(out, ZeroDivisor)
        assert out.d == 3 and out.zero_primes == (3,)

    def test_paperfolding_nonvanishing(self):
        out = zero_support_divisor(PAPERFOLDING, 1000, 10_000)
        assert isinstance(out, ZeroDivisor)
        assert out.d == 1 and out.zero_primes == ()

    def test_kappa_even(self):
        out = zero_support_divisor(kronecker_function(12), 1000, 10_000)
        assert isinstance(out, ZeroDivisor)
        assert out.d == 6

    def test_unit_indicator_fails(self):
        unit = ArithmeticFunction(lambda n: ONE if abs(n) == 1 else ZERO, "unit")
        out = zero_support_divisor(unit, 100, 10_000)
        assert isinstance(out, ZeroSupportFailure)
        # the witness is a vanishing n coprime to every prime below the bound
        assert out.witness > 100

    def test_zero_primes_all_divide_d(self):
        for a in (15, -30, 7):
            out = zero_support_divisor(kronecker_function(a), 1000, 5000)
            assert isinstance(out, ZeroDivisor)
            assert all(out.d % p == 0 for p in out.zero_primes)


class TestClassify:
    def test_kappa2_primitive_character(self):
        v = classify(kronecker_function(2))
        assert isinstance(v, CharacterVerdict)
        assert v.character.modulus == 8 and v.detected_period == 8

    def test_kappa4_imprimitive_character(self):
        # (4|n) is the principal character mod 2; the verdict carries the
        # minimal modulus, and the detected period is recorded
        v = classify(kronecker_function(4))
        assert isinstance(v, CharacterVerdict)
        assert v.character.modulus == 2 and v.detected_period == 2

    def test_kappa3_mock(self):
        v = classify(kronecker_function(3))
        assert isinstance(v, MockVerdict)
        assert v.mockulus == 2 and v.zero_divisor == 3 and v.warning is None

    def test_paperfolding_mock(self):
        v = classify(PAPERFOLDING)
        assert isinstance(v, MockVerdict)
        assert v.mockulus == 2 and v.zero_divisor == 1

    def test_kappa1_trivial_character_with_zero_anomaly(self):
        v = classify(kronecker_function(1))
        assert isinstance(v, CharacterVerdict)
        assert v.character.modulus == 1 and v.preperiod == 1

    def test_family_sweep_small(self):
        for a in [x for x in range(-12, 13) if x != 0]:
            v = classify(kronecker_function(a))
            assert v.kind == kronecker_family_verdict(a), (a, v)

    def test_mockulus_base_change(self):
        # mock at base q iff mock at base q**2, with the same zero divisor
        for a in (3, -1, 7):
            v2 = classify(kronecker_function(a), base=2)
            v4 = classify(kronecker_function(a), base=4)
            assert isinstance(v2, MockVerdict) and isinstance(v4, MockVerdict)
            assert v2.zero_divisor == v4.zero_divisor

    def test_inconsistent_on_multiplicativity_witness(self):
        def ev(n):
            if n == 9:
                return MINUS_ONE
            return ZERO if n % 2 == 0 else ONE

        v = classify(ArithmeticFunction(ev))
        assert isinstance(v, InconsistentVerdict)
        assert tuple(v.witness) == (3, 3)

    def test_inconsistent_on_zero_support(self):
        unit = ArithmeticFunction(lambda n: ONE if abs(n) == 1 else ZERO, "unit")
        assert isinstance(classify(unit), InconsistentVerdict)

    def test_inconclusive_on_nonautomatic_base(self):
        params = ClassifyParams(kernel_window=128, kernel_max_size=512)
        v = classify(kronecker_function(7), base=3, params=params)
        assert isinstance(v, InconclusiveVerdict)
        assert v.classes_reached is not None

    def test_mock_warning_on_composite_base(self):
        # paperfolding is automatic in base 6 as well (6 = 2*3 and it is
        # 2-automatic times periodic is not guaranteed -- so only run the
        # structural warning check when the kernel actually closes)
        params = ClassifyParams(kernel_window=128, kernel_max_size=2048, kernel_max_depth=8)
        v = classify(PAPERFOLDING, base=4, params=params)
        assert isinstance(v, MockVerdict) and v.warning is None

    def test_random_cm_functions_do_not_crash(self):
        params = ClassifyParams(
            multiplicativity_bound=200,
            zero_prime_bound=50,
            zero_check_bound=200,
            max_preperiod=10,
            max_period=30,
            kernel_window=64,
            kernel_max_size=256,
            kernel_max_depth=8,
        )
        for seed in range(3):
            v = classify(random_cm_pm1(seed), params=params)
            assert v.kind in ("mock-character", "inconclusive", "dirichlet-character")

    def test_verdict_json_shapes(self):
        j = classify(kronecker_function(3)).to_json_dict()
        assert j["schema"] == "mockchar.verdict.v1"
        assert j["verdict"] == "mock-character"
        j2 = classify(kronecker_function(2)).to_json_dict()
        assert j2["verdict"] == "dirichlet-character" and j2["modulus"] == 8


class TestFittedToLength:
    @pytest.mark.parametrize(
        "params",
        [DEFAULT_PARAMS, ClassifyParams(max_preperiod=1, max_period=1), ClassifyParams(max_period=1)],
    )
    def test_every_check_reads_only_the_data(self, params):
        for length in range(1, 65):
            if length < MIN_FITTED_LENGTH:
                with pytest.raises(ValueError, match=f"known only for n < {length};"):
                    params.fitted_to_length(length)
                continue
            fitted = params.fitted_to_length(length)
            assert all(getattr(fitted, k) <= v for k, v in asdict(params).items())
            assert fitted.multiplicativity_bound < length
            assert fitted.zero_prime_bound < length and fitted.zero_check_bound < length
            assert fitted.prefix_length <= length
            for a in (-4, 3):
                data = function_from_entries(
                    {n: kronecker_function(a)(n) for n in range(length)}, f"kron {a}"
                )
                verdict = classify(data, params=fitted)
                assert "ran out of data" not in getattr(verdict, "reason", ""), (a, length)

    def test_short_file_names_the_real_cause(self):
        # f(0) = 1 breaks the zero set; the long default bounds used to run
        # past the data before the zero-set check could say so
        data = function_from_entries({n: ONE for n in range(8)}, "ones")
        params = ClassifyParams(max_preperiod=1, max_period=1).fitted_to_length(8)
        verdict = classify(data, params=params)
        assert isinstance(verdict, InconsistentVerdict) and verdict.witness == (0,)


class TestFamilyVerdict:
    def test_characters(self):
        for a in (2, 4, 5, -4, 1, 12):
            assert kronecker_family_verdict(a) == FamilyVerdict.DIRICHLET_CHARACTER

    def test_mocks(self):
        for a in (3, 7, -1, -5, -9):
            assert kronecker_family_verdict(a) == FamilyVerdict.MOCK_CHARACTER

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            kronecker_family_verdict(0)


PATTERNS = {
    -1: [1, -1],
    -5: [1, 1, 0, 1, 1, -1, -1, 0, -1, -1],
    -9: [1, 0, 1, -1, 0, -1],
    3: [1, 0, -1, -1, 0, 1],
    7: [1, 1, -1, 0, 1, -1, -1, -1, -1, 1, 0, -1, 1, 1],
}


class TestPeriodPattern:
    @pytest.mark.parametrize("a", sorted(PATTERNS))
    def test_known_rows(self, a):
        assert period_pattern(a) == PATTERNS[a]

    def test_even_length(self):
        for a in [x for x in range(-30, 31) if x % 4 == 3 and x != 0]:
            pat = period_pattern(a)
            assert len(pat) % 2 == 0
            assert len(pat) <= 2 * abs(a) and (2 * abs(a)) % len(pat) == 0

    def test_antiperiod_shift(self):
        # kappa_a(2(n+|a|)+1) = -kappa_a(2n+1)
        for a in [x for x in range(-30, 31) if x % 4 == 3 and x != 0]:
            for n in range(1000):
                assert kronecker(a, 2 * (n + abs(a)) + 1) == -kronecker(a, 2 * n + 1)

    def test_rejects_other_residues(self):
        with pytest.raises(ValueError):
            period_pattern(5)
