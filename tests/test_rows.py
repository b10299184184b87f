"""Symbol rows by complete multiplicativity against the scalar routes.

`kronecker_row` is compared with both scalar evaluators; the row-based
series, product and GF(4) check are compared with the term-by-term routes
in oracles.py by exact equality, since they must compute the same floats in
the same order.  The eventual-period scan is compared with a brute-force
oracle.
"""

import cmath
import importlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

import mockchar.analysis as analysis
from mockchar import (
    ArithmeticFunction,
    NotDetected,
    Periodic,
    PrefixTooShortError,
    detect_eventual_period,
    dirichlet_series_partial,
    general_product_residual,
    kronecker,
    kronecker_factored,
    kronecker_function,
    l_identity_residual,
    verify_functional_equation,
)
from mockchar.gf4 import (
    DEFAULT_EMBEDDING,
    SymbolEmbedding,
    all_embeddings,
    build_G,
    build_R,
    symbol_row,
)
from mockchar.kronecker import kronecker_row

from oracles import (
    functional_equation_oracle,
    period_oracle,
    scalar_l_identity,
    scalar_product_residual,
    scalar_series_partial,
)

HUGE = 10**29 + 7  # prime factors all above 1000
HUGE_EVEN = -(2 * 3**61)
SPECIAL_A = [0, 1, -1, 2, -2, 3, -3, 7, -8, 12, -15, 16, HUGE, -HUGE, HUGE_EVEN]
MOCK_A = [3, 7, -1, -5, 11, -9, 19, HUGE, -HUGE + 2]
VALUE = (0, 1, -1)

any_a = st.one_of(
    st.sampled_from(SPECIAL_A),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=10**29, max_value=10**30).map(lambda x: x | 1),
)
mock_a = st.one_of(
    st.sampled_from(MOCK_A), st.integers(min_value=-200, max_value=200).map(lambda x: 4 * x + 3)
)
real_or_complex_s = st.sampled_from([2, 3, 1.5, 1.25, complex(1.5, 2), complex(2, -1), complex(3, 0.5)])


class TestKroneckerRow:
    @pytest.mark.parametrize("a", SPECIAL_A)
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 97])
    def test_small_rows(self, a, N):
        row = kronecker_row(a, N)
        assert len(row) == N + 1
        assert [VALUE[c] for c in row] == [kronecker(a, n) for n in range(N + 1)]
        assert [VALUE[c] for c in row] == [kronecker_factored(a, n) for n in range(N + 1)]

    @settings(max_examples=40, deadline=None)
    @given(a=any_a, N=st.integers(min_value=0, max_value=2000))
    def test_random_rows_match_both_scalar_routes(self, a, N):
        row = [VALUE[c] for c in kronecker_row(a, N)]
        assert row == [kronecker(a, n) for n in range(N + 1)]
        step = max(1, N // 200)  # the factored route is slow; sample it
        assert row[::step] == [kronecker_factored(a, n) for n in range(0, N + 1, step)]

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            kronecker_row(3, -1)

    def test_one_scalar_call_per_prime(self, monkeypatch):
        kmod = importlib.import_module("mockchar.kronecker")  # the package shadows the name
        calls = []
        scalar = kmod.kronecker

        def counted(a, n):
            calls.append(n)
            return scalar(a, n)

        monkeypatch.setattr(kmod, "kronecker", counted)
        monkeypatch.setattr(analysis, "kronecker", counted)
        l_identity_residual(3, 2, 10**5)
        # pi(1e5) = 9592 primes, plus n = 0 in the row and (a|2) in the factor
        assert len(calls) <= 9594


class TestSeriesExactlyAsScalar:
    @settings(max_examples=40, deadline=None)
    @given(a=any_a, s=real_or_complex_s, N=st.integers(min_value=1, max_value=3000))
    def test_dirichlet_series(self, a, s, N):
        f = kronecker_function(a)
        assert f.row is not None
        got = dirichlet_series_partial(f, s, N)
        want = scalar_series_partial(f, s, N)
        assert got.partial == want.partial
        assert got.tail_bound == want.tail_bound

    @pytest.mark.parametrize("s", [2, complex(1.5, 2)])
    def test_dirichlet_series_past_one_fsum_chunk(self, s):
        f = kronecker_function(-HUGE)
        N = 70_000  # more nonzero terms than one fixed fsum chunk of 2**16
        assert dirichlet_series_partial(f, s, N).partial == scalar_series_partial(f, s, N).partial

    def test_functions_without_row_keep_the_scalar_route(self):
        f = kronecker_function(7)
        plain = ArithmeticFunction(f.fn, f.label)
        assert plain.row is None and plain == f
        assert dirichlet_series_partial(plain, 2, 500).partial == dirichlet_series_partial(f, 2, 500).partial

    @settings(max_examples=30, deadline=None)
    @given(a=mock_a, s=real_or_complex_s, N=st.integers(min_value=1, max_value=3000))
    def test_l_identity(self, a, s, N):
        r = l_identity_residual(a, s, N)
        residual, bound, factor = scalar_l_identity(a, s, N)
        assert (r.residual, r.tail_bound, r.factor) == (residual, bound, factor)

    @settings(max_examples=30, deadline=None)
    @given(a=mock_a, N=st.integers(min_value=-3, max_value=2000))
    def test_general_product(self, a, N):
        assert general_product_residual(a, N) == scalar_product_residual(a, N)

    def test_values_at_one_are_complex_units_times_terms(self):
        # for complex s the -1 terms are multiplied by exp(i pi), which is
        # not exactly -1; the row route must keep that factor
        s = complex(1.5, 2)
        got = dirichlet_series_partial(kronecker_function(3), s, 2).partial
        minus_one = cmath.exp(1j * cmath.pi)
        assert got == 1 + minus_one * cmath.exp(-s * cmath.log(2))


class TestFunctionalEquationRow:
    @settings(max_examples=40, deadline=None)
    @given(
        a=mock_a,
        N=st.integers(min_value=0, max_value=128),
        emb=st.sampled_from(all_embeddings()),
        flip=st.one_of(st.none(), st.tuples(st.integers(min_value=1), st.integers(1, 2))),
    )
    def test_against_schoolbook_route(self, a, N, emb, flip):
        row = symbol_row(a, N)
        if flip is not None and N:
            i, shift = flip
            i %= N
            row[i] = (row[i] + shift) % 3  # a deliberately corrupted row
        assert verify_functional_equation(a, emb, N, row) == functional_equation_oracle(row, emb, N)

    def test_corrupted_row_names_the_failing_index(self):
        N = 256
        row = symbol_row(3, N)
        row[17] = (row[17] + 1) % 3  # breaks (a|68) = (a|17)
        assert verify_functional_equation(3, DEFAULT_EMBEDDING, N, row) == 68
        row = symbol_row(3, N)
        row[20] = (row[20] + 1) % 3  # breaks (a|20) = (a|5) first
        assert verify_functional_equation(3, DEFAULT_EMBEDDING, N, row) == 20

    @pytest.mark.parametrize("a", [3, -1, HUGE])
    def test_row_argument_changes_nothing(self, a):
        N = 777
        row = symbol_row(a, N)
        emb = SymbolEmbedding(0, 3, 1)
        assert build_G(a, emb, N, row) == build_G(a, emb, N)
        assert build_R(a, emb, N, row) == build_R(a, emb, N)
        assert verify_functional_equation(a, emb, N, row) is None
        assert verify_functional_equation(a, emb, N) is None

    def test_validation_before_the_row(self):
        with pytest.raises(ValueError, match="not 3 mod 4"):
            symbol_row(5, 10**9)
        with pytest.raises(ValueError, match="truncation"):
            symbol_row(3, -1)
        assert symbol_row(3, 0) == bytearray()


def _eventually_periodic(pre, block, length):
    return (pre + [block[i % len(block)] for i in range(length)])[:length]


symbols = st.sampled_from([-1, 0, 1])
wide = st.integers(min_value=0, max_value=999)  # values that do not fit a byte


class TestPeriodScanAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        values=st.sampled_from([symbols, wide]).flatmap(
            lambda v: st.tuples(st.lists(v, max_size=12), st.lists(v, min_size=1, max_size=12))
        ),
        P=st.integers(min_value=0, max_value=12),
        T=st.integers(min_value=1, max_value=12),
        extra=st.integers(min_value=-1, max_value=8),
        noise=st.lists(st.integers(min_value=0, max_value=80), max_size=2),
    )
    def test_matches_brute_force(self, values, P, T, extra, noise):
        pre, block = values
        L = P + 3 * T + extra
        seq = _eventually_periodic(pre, block, max(L, 0))
        for i in noise:
            if i < len(seq):
                seq[i] = -7  # a value outside both alphabets
        try:
            want = period_oracle(seq, P, T)
        except PrefixTooShortError:
            assert L < P + 3 * T
            with pytest.raises(PrefixTooShortError):
                detect_eventual_period(seq, P, T)
            return
        assert detect_eventual_period(seq, P, T) == want

    def test_more_than_256_distinct_values(self):
        seq = list(range(300)) + list(range(300, 310)) * 40
        assert detect_eventual_period(seq, 300, 30) == period_oracle(seq, 300, 30) == Periodic(300, 10)
        assert detect_eventual_period(seq, 299, 9) == NotDetected(299, 9)

    def test_too_short_boundary(self):
        seq = [1, 2] * 20
        assert detect_eventual_period(seq[: 4 + 3 * 10], 4, 10) == Periodic(0, 2)
        with pytest.raises(PrefixTooShortError):
            detect_eventual_period(seq[: 4 + 3 * 10 - 1], 4, 10)


def test_import_and_commands_do_not_load_numpy(tmp_path):
    import os
    import subprocess
    from pathlib import Path

    import mockchar

    src = str(Path(mockchar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, mockchar\n"
        "from mockchar.cli import main\n"
        "main(['lseries', '--a', '3', '--N', '1000'])\n"
        "main(['classify', '--kron', '3'])\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
