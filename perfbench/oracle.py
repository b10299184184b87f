"""Per-job answer checks, independent of the code paths being timed.

Each check reads the captured output of one job and returns None when the
answer is right, else a one-line reason.  Expected values come from the
benchmark's own arithmetic (refmath), from closed forms such as
``kronecker_family_verdict``, or from the program's slow reference route
``kronecker_factored``; never from the routine that produced the answer.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache

import refmath

# Gamma(1/4)**2 / (8 sqrt(2 pi)), computed here rather than read from the
# program's frozen constant.
PAPERFOLDING_LIMIT = math.gamma(0.25) ** 2 / (8 * math.sqrt(2 * math.pi))

# |partial product - limit| <= PRODUCT_TOLERANCE / N.  For every N from
# 8192 to 10**5 the partial product is within 2.83 / N of the limit; the
# worst case is N = 65534, just below a power of two.
PRODUCT_TOLERANCE = 4.0

# Relative tolerance for floating-point sums recomputed here in another
# summation order.
REL_TOL = 1e-9

# Symbol rows for the series checks reach n = 2 N + 1 with N <= 10**5.
ROW_LIMIT = 200_002

FAMILY_EXIT = {"dirichlet-character": 0, "mock-character": 0, "inconclusive": 4}


def check(job: dict, code: int, out: str) -> str | None:
    """None when the job's answer is right, else why it is not."""
    checker = _CHECKS[job["kind"]]
    if job["kind"] == "roundtrip":
        return checker(job, out)
    try:
        payload = out if job["kind"] == "fsm" else json.loads(out)
    except json.JSONDecodeError:
        return f"exit {code}, output is not JSON: {out[:80]!r}"
    return checker(job, code, payload)


def _close(got: float, want: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), scale)


# ------------------------------------------------------------ classify-sweep


def _check_verdict(job: dict, code: int, payload: dict) -> str | None:
    from mockchar import kronecker_family_verdict

    a = job.get("a")
    want = "mock-character" if a is None else kronecker_family_verdict(a)
    got = payload.get("verdict")
    if got == "inconclusive" and job.get("may_be_inconclusive"):
        return None if code == 4 else f"inconclusive with exit {code}, want 4"
    if got != want:
        return f"verdict {got!r}, want {want!r}"
    if code != FAMILY_EXIT[got]:
        return f"{got} with exit {code}"
    if got == "mock-character":
        return None if payload.get("mockulus") == 2 else f"mockulus {payload.get('mockulus')}"
    q = payload["modulus"]
    if (4 * abs(a)) % q:
        return f"modulus {q} does not divide 4|a| = {4 * abs(a)}"
    table = payload["table"]
    for n in range(1, 4 * abs(a) + 1):
        want_v = refmath.angle_text(_symbol_angle(refmath.kronecker_symbol(a, n)))
        if table[n % q] != want_v:
            return f"character mod {q} gives {table[n % q]} at n = {n}, want {want_v}"
    return None


def _symbol_angle(s: int) -> Fraction | None:
    return None if s == 0 else Fraction(0) if s == 1 else Fraction(1, 2)


def _parse_dot(dot: str) -> tuple[int, dict[int, str], dict[tuple[int, int], int]]:
    initial, outputs, edges = None, {}, {}
    for line in dot.splitlines():
        line = line.strip()
        if line.startswith("__start -> s"):
            initial = int(line[len("__start -> s"):].rstrip(";"))
        elif line.startswith("s") and "->" in line:
            src, _, rest = line.partition(" -> s")
            dst, _, label = rest.partition(" [label=\"")
            edges[(int(src[1:]), int(label.split('"')[0]))] = int(dst)
        elif line.startswith("s") and "label=\"s" in line:
            state = int(line.split(" ", 1)[0][1:])
            outputs[state] = line.split("\\n", 1)[1].split('"')[0]
    return initial, outputs, edges


def _check_fsm(job: dict, code: int, dot: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    initial, outputs, edges = _parse_dot(dot)
    if initial is None:
        return "no initial state in the DOT output"
    a = job["a"]
    for n in list(range(4096)) + [10**6 + 7 * k for k in range(64)]:
        state, m = initial, n
        try:
            if m == 0:
                state = edges[(state, 0)]
            while m:
                m, d = divmod(m, 2)
                state = edges[(state, d)]
            got = outputs[state]
        except KeyError:
            return f"automaton is incomplete at n = {n}"
        want = refmath.angle_text(_symbol_angle(refmath.kronecker_symbol(a, n)))
        if got != want:
            return f"automaton gives {got} at n = {n}, want {want}"
    return None


# ------------------------------------------------------------ series-sums


def _check_identity(job: dict, code: int, p: dict) -> str | None:
    if code != 0 or p.get("N") != job["N"] or p.get("a") != job["a"]:
        return f"exit {code}, echo N={p.get('N')} a={p.get('a')}"
    k2 = refmath.kronecker_symbol(job["a"], 2)
    bound = (1 + abs(1 / (1 - k2 / 4))) / job["N"]  # s = 2: each tail is 1/N
    if not _close(p["tail_bound"], bound):
        return f"tail bound {p['tail_bound']}, want {bound}"
    if not (p["within_bound"] and 0 <= p["residual"] <= p["tail_bound"]):
        return f"residual {p['residual']} exceeds tail bound {p['tail_bound']}"
    return None


@lru_cache(maxsize=1)
def _spf() -> list[int]:
    return refmath.smallest_prime_factors(ROW_LIMIT)


def _row(a: int, n_max: int) -> list[int]:
    if n_max >= ROW_LIMIT:
        raise ValueError(f"symbol rows end at {ROW_LIMIT - 1}")
    return refmath.symbol_row(a, _spf()[: n_max + 1])


def _check_lseries(job: dict, code: int, p: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    row = p["trace"][0]
    a, s, n_max = job["a"], complex(job["s"]), job["N"]
    symbols = _row(a, n_max)
    re_terms, im_terms = [], []
    for n in range(1, n_max + 1):
        sym = symbols[n]
        if sym:
            term = sym * cmath.exp(-s * math.log(n))
            re_terms.append(term.real)
            im_terms.append(term.imag)
    want = complex(math.fsum(re_terms), math.fsum(im_terms))
    if row["N"] != n_max or not (_close(row["partial_re"], want.real) and _close(row["partial_im"], want.imag)):
        return f"partial sum {row['partial_re']}+{row['partial_im']}j, want {want}"
    tail = n_max ** (1 - s.real) / (s.real - 1)
    return None if _close(row["tail_bound"], tail) else f"tail bound {row['tail_bound']}, want {tail}"


def _log_product(pairs) -> float:
    return math.exp(math.fsum(e * (math.log(x) - math.log(y)) for e, x, y in pairs if e))


def _check_paperfold_product(job: dict, code: int, p: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    n_max = job["N"]
    got = p["trace"][0]["partial"]
    want = _log_product((refmath.paperfolding_sign(n + 1), 2 * n, 2 * n + 1) for n in range(1, n_max + 1))
    if not _close(got, want):
        return f"partial product {got}, want {want}"
    if abs(got - PAPERFOLDING_LIMIT) > PRODUCT_TOLERANCE / n_max:
        return f"partial product {got} is not within {PRODUCT_TOLERANCE}/N of {PAPERFOLDING_LIMIT}"
    return None


def _check_general_product(job: dict, code: int, p: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    a, n_max = job["a"], job["N"]
    symbols = _row(a, 2 * n_max + 1)
    alpha = symbols[2]
    lhs = math.exp(math.fsum(
        symbols[n + 1]
        * (math.log(n) - math.log(n + 1) + alpha * (math.log(2 * n + 2) - math.log(2 * n + 1)))
        for n in range(1, n_max + 1)))
    rhs = 2.0**-alpha * _log_product(
        (symbols[2 * n + 1], 2 * n, 2 * n + 1) for n in range(1, n_max + 1))
    got = p["trace"][0]["residual"]
    return None if abs(got - abs(lhs - rhs)) <= 1e-12 else f"residual {got}, want {abs(lhs - rhs)}"


def _check_f4(job: dict, code: int, p: dict) -> str | None:
    if code != 0 or not p.get("identity_holds"):
        return f"exit {code}, identity_holds={p.get('identity_holds')}"
    if p.get("embeddings_checked") != 6 or p.get("N") != job["N"]:
        return f"checked {p.get('embeddings_checked')} embeddings at N={p.get('N')}"
    return None


# ------------------------------------------------------------ character-tables


def _check_distance(job: dict, code: int, p: dict) -> str | None:
    from mockchar.kronecker import kronecker_factored

    if code != 0:
        return f"exit {code}"
    row = p["trace"][0]
    f_a = -1 if job["f"] == "paperfold" else int(job["f"].split(":")[1])
    terms = []
    for prime in refmath.primes_up_to(job["y"]):
        fg = kronecker_factored(f_a, prime, 1000) * kronecker_factored(job["d"], prime, 1000)
        if fg != 1:
            terms.append(Fraction(1 - fg, prime))
    if row["exact"]:
        return None if Fraction(row["exact"]) == sum(terms) else f"exact {row['exact']} is wrong"
    want = math.fsum(float(t) for t in terms)
    return None if _close(row["distance_sq"], want) else f"distance_sq {row['distance_sq']}, want {want}"


def _check_round_trip(job: dict, out: str) -> str | None:
    got = json.loads(out)
    p, r = job["p"], job["r"]
    want_xi = refmath.angle_text(Fraction(*job["xi"]))
    if got["xi"] != want_xi:
        return f"xi {got['xi']}, want {want_xi}"
    q = got["modulus"]
    if p**r % q:
        return f"recovered modulus {q} does not divide {p}**{r}"
    angles = refmath.character_angles(p, r, job["index"])
    for n in range(1, p**r):
        if n % p and got["table"][n % q] != refmath.angle_text(angles[n]):
            return f"recovered character mod {q} differs at n = {n}"
    return None


_CHECKS = {
    "classify-kron": _check_verdict,
    "classify-file": _check_verdict,
    "classify-paperfold": _check_verdict,
    "fsm": _check_fsm,
    "lseries-identity": _check_identity,
    "lseries": _check_lseries,
    "product-paperfold": _check_paperfold_product,
    "product-a": _check_general_product,
    "f4check": _check_f4,
    "distance": _check_distance,
    "roundtrip": _check_round_trip,
}
