"""Seeded job lists for the benchmark workloads.

A workload is a cycle of jobs that the timed loop runs over and over.  Each
job is either a ``mockchar`` command line (``argv``) or, for the structured
round trip, a library call.  The seed picks the order of the cycle and every
parameter that barely moves a job's cost (signs, cutoffs, characters, the
digits of huge symbols, the small symbols of files and automata).  The
parameters that set a job's cost come from
fixed lists or from samples stratified by size, so two seeds give nearly
the same amount of work and the figures of different seeds can be compared.

This module imports nothing from mockchar: job lists and input files are
made on the benchmark's side.
"""

from __future__ import annotations

import random
from pathlib import Path

import refmath

WORKLOADS = ("classify-sweep", "series-sums", "character-tables")

# Sequence files cover n = FILE_LO..FILE_HI, enough for the default
# multiplicativity (10**4) and period (6500) bounds but not for kernel
# closure of most mock characters, which then end in an honest
# "inconclusive".
FILE_LO, FILE_HI = -32, 12_000

# Kronecker symbols (D|.) whose character tables dominate the
# character-tables workload: prime and composite D, q = 4|D| from 164 to
# 1360, chosen by the time kronecker_character(D) took at the commit that
# defined the benchmark.  HEAVY_D (0.5 to 0.9 s each) is the top tenth of
# the cycle; BAND_D (0.2 to 0.3 s) puts many jobs around its 90th
# percentile, so the p90 does not sit on a gap between two costs; MID_D
# (0.05 to 0.2 s) fills the middle.  Prime |D| above 140 (1 to 7 s per
# table) is left out: one such job would be a tenth of a cycle or more.
HEAVY_D = (-127, 137, 240, 300, -340)
BAND_D = (73, 168, 180, -138, 124, -115, 162, 106, 118, 129)
MID_D = (41, -43, 61, -84, 105, 120)

SMALL_D = tuple(d for d in range(-24, 25) if d and d % 4 != 3)
DISTANCE_Y = (1000, 3000, 10000)
ROOT_XI = ((0, 1), (1, 2), (1, 4), (1, 3))  # xi = e(k/m)


def _spaced(pool: list[int], k: int) -> list[int]:
    """The middle element of each of k runs of the pool sorted by size."""
    ordered = sorted(pool, key=lambda a: (abs(a), a))
    return [ordered[len(ordered) * (2 * i + 1) // (2 * k)] for i in range(k)]


def _stratified(pool: list[int], k: int, rng: random.Random) -> list[int]:
    """One element from each of k runs of the pool sorted by size."""
    ordered = sorted(pool, key=lambda a: (abs(a), a))
    bounds = [len(ordered) * i // k for i in range(k + 1)]
    return [rng.choice(ordered[bounds[i] : bounds[i + 1]]) for i in range(k)]


def _huge_a(rng: random.Random, digits: int = 30) -> int:
    """A huge a > 0 with no prime factor up to 1000.  (a|n) is 0 where n
    shares a factor with a, and the series skip those terms, so small
    factors would make the cost of a job depend on the seed."""
    while True:
        a = rng.randrange(10 ** (digits - 1), 10**digits)
        if not refmath.has_factor_below(a, 1000):
            return a


def _huge_mock_a(rng: random.Random, digits: int = 30) -> int:
    """A huge a = 3 (mod 4) with no prime factor up to 10**4.

    The classifier's zero-set check looks at n <= 10**4, so such an a has
    a consistent zero set and the run ends in kernel overflow."""
    while True:
        a = rng.randrange(10 ** (digits - 1), 10**digits)
        a -= (a - 3) % 4
        if not refmath.has_factor_below(a, 10**4):
            return a


def _cli(kind: str, argv: list, **params) -> dict:
    return {"kind": kind, "argv": [str(x) for x in argv] + ["--format", "json"], **params}


def _classify_kron(a: int, *extra) -> dict:
    """classify --kron a; extra flags that lower a bound make an honest
    "inconclusive" an acceptable answer."""
    return _cli("classify-kron", ["classify", "--kron", a, *extra], a=a,
                may_be_inconclusive=bool(extra))


def _classify_file(path: str, a: int) -> dict:
    return _cli("classify-file", ["classify", "--file", path], a=a, path=path,
                may_be_inconclusive=True)


def _fsm(a: int) -> dict:
    return _cli("fsm", ["fsm", "--kron", a, "--dot", "-"], a=a)


def _sequence_file(workdir: Path, a: int) -> str:
    return str(workdir / f"kron_{a}.txt")


def classify_sweep(rng: random.Random, workdir: Path) -> tuple[list[dict], list[dict]]:
    char_pool = [a for a in range(-60, 61) if a and a % 4 != 3]
    mock_pool = [a for a in range(-60, 61) if a % 4 == 3]
    # every second character-type A by value: these jobs hold the cycle's
    # median, so they are the same for every seed; so are the mock A, which
    # hold its top tenth and whose cost differs up to threefold between
    # neighbours
    jobs = [_classify_kron(a) for a in char_pool[::2]]
    jobs += [_classify_kron(a) for a in _spaced(mock_pool, 8)]
    # two A = 3 mod 4 and two other A for every seed, since a mock source
    # costs two to five times a character one here; the mock A are at most
    # 20, which keeps these jobs out of the top tenth
    for pool in (char_pool, [a for a in mock_pool if abs(a) <= 20]):
        jobs += [_fsm(a) for a in _stratified(pool, 2, rng)]
        jobs += [_classify_file(_sequence_file(workdir, a), a) for a in _stratified(pool, 2, rng)]
    jobs += [_cli("classify-paperfold", ["classify", "--paperfold"]) for _ in range(2)]
    # the kernel bound sets the cost of these jobs, which sit at the p90
    for size in (16, 64):
        jobs.append(_classify_kron(_huge_mock_a(rng), "--kernel-max-size", size))
    warmup = [
        _classify_kron(3),
        _classify_kron(5),
        _fsm(-7),
        _classify_file(_sequence_file(workdir, -8), -8),
    ]
    return jobs, warmup


def _log_grid(lo: int, hi: int, k: int, shift: float = 0.0) -> list[int]:
    """k sizes spaced evenly in log scale from lo, each moved up by shift
    (a fraction of one step), all below hi."""
    return [round(lo * (hi / lo) ** ((i + shift) / k)) for i in range(k)]


def _paired(pool: list[int], grid: list[int]) -> list[tuple[int, int]]:
    """Elements spread through the pool, one per grid point, paired in a
    fixed pattern (smallest a with the fourth-smallest N, and so on); the
    same for every seed, since a moves the cost of these jobs."""
    a_values = _spaced(pool, len(grid))
    n_values = sorted(grid)
    return [(a, n_values[(3 * i + 3) % len(grid)]) for i, a in enumerate(a_values)]


def series_sums(rng: random.Random, workdir: Path) -> tuple[list[dict], list[dict]]:
    k = 8
    mock_pool = [a for a in range(-60, 61) if a % 4 == 3]
    # each kind of job gets its own sizes, so the cycle's job costs spread
    # evenly and its median and p90 do not sit on a gap between two sizes
    grids = [_log_grid(10_000, 100_000, k, shift / 6) for shift in range(6)]
    jobs = []
    for a, n in _paired(mock_pool, grids[0] + grids[1]):
        jobs.append(_cli("lseries-identity", ["lseries", "--a", a, "--identity", "--N", n], a=a, N=n))
    for s, grid in (("2", grids[2]), ("1.5+2j", grids[3])):
        for n in grid:
            a = rng.choice((1, -1)) * _huge_a(rng)
            jobs.append(_cli("lseries", ["lseries", "--a", a, "--s", s, "--N", n], a=a, s=s, N=n))
    for n in grids[4]:
        jobs.append(_cli("product-paperfold", ["product", "--paperfold", "--N", n], N=n))
    for a, n in _paired(mock_pool, grids[5]):
        jobs.append(_cli("product-a", ["product", "--a", a, "--N", n], a=a, N=n))
    for a, n in _paired(mock_pool, _log_grid(8192, 16384, k)):
        jobs.append(_cli("f4check", ["f4check", "--a", a, "--all-embeddings", "--N", n], a=a, N=n))
    warmup = [
        _cli("lseries-identity", ["lseries", "--a", 3, "--identity", "--N", 10_000], a=3, N=10_000),
        _cli("lseries", ["lseries", "--a", 10**29 + 7, "--s", "1.5+2j", "--N", 10_000],
             a=10**29 + 7, s="1.5+2j", N=10_000),
        _cli("product-paperfold", ["product", "--paperfold", "--N", 10_000], N=10_000),
        _cli("product-a", ["product", "--a", 7, "--N", 10_000], a=7, N=10_000),
        _cli("f4check", ["f4check", "--a", 3, "--all-embeddings", "--N", 4096], a=3, N=4096),
    ]
    return jobs, warmup


def _distance(f: str, d: int, y: int) -> dict:
    return _cli("distance", ["distance", "--f", f, "--g", f"char:{d}", "--y", y], f=f, d=d, y=y)


def _round_trip(p: int, r: int, index: int, xi: tuple[int, int]) -> dict:
    return {"kind": "roundtrip", "p": p, "r": r, "index": index, "xi": list(xi)}


def _balanced(values: tuple, k: int, rng: random.Random) -> list:
    """k items that take each of the values equally often, as near as k
    allows, in seeded order: the seed moves which job gets which value but
    not how many jobs get it."""
    items = [values[i % len(values)] for i in range(k)]
    rng.shuffle(items)
    return items


def character_tables(rng: random.Random, workdir: Path) -> tuple[list[dict], list[dict]]:
    kron_a = [a for a in range(-20, 21) if a]
    jobs = []
    for ds in (SMALL_D, HEAVY_D + BAND_D + MID_D):
        pairs = [(f, y) for f in ("paperfold", "kron") for y in DISTANCE_Y]
        for d, (f, y) in zip(ds, _balanced(tuple(pairs), len(ds), rng)):
            jobs.append(_distance(f if f == "paperfold" else f"kron:{rng.choice(kron_a)}", d, y))
    for p in (2, 3, 5):
        for r in _balanced((1, 2, 3), 7, rng):
            count = 2 ** (r - 1) if p == 2 else p**r - p ** (r - 1)  # characters mod p**r
            jobs.append(_round_trip(p, r, rng.randrange(count), rng.choice(ROOT_XI)))
    warmup = [_distance("paperfold", 5, y) for y in DISTANCE_Y]
    warmup += [_distance("kron:3", 60, 1000), _round_trip(2, 2, 1, (1, 4)), _round_trip(5, 1, 1, (1, 2))]
    return jobs, warmup


_PLANNERS = {
    "classify-sweep": classify_sweep,
    "series-sums": series_sums,
    "character-tables": character_tables,
}


def make_plan(workload: str, seed: int, workdir: Path) -> dict:
    """The cycle and warm-up jobs of one workload; same seed, same plan.

    The first warm-up job is the one set-up time covers; it is a command
    line, so it needs no input prepared by the benchmark."""
    rng = random.Random(f"{workload}:{seed}")
    cycle, warmup = _PLANNERS[workload](rng, workdir)
    rng.shuffle(cycle)
    for i, job in enumerate(cycle):
        job["id"] = f"c{i}"
    for i, job in enumerate(warmup):
        job["id"] = f"w{i}"
    return {"workload": workload, "seed": seed, "cycle": cycle, "warmup": warmup}


def write_sequence_files(plan: dict) -> None:
    """Write each classify --file input as 'n value' rows of (a|n),
    computed by the benchmark's own symbol routine."""
    for job in plan["cycle"] + plan["warmup"]:
        if job["kind"] != "classify-file":
            continue
        path = Path(job["path"])
        a = job["a"]
        rows = "".join(f"{n} {refmath.kronecker_symbol(a, n)}\n" for n in range(FILE_LO, FILE_HI + 1))
        path.write_text(f"# (a|n) for a = {a}\n" + rows, encoding="utf-8")
