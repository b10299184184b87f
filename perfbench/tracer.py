"""Per-layer tracing of mockchar from outside the program.

The tracer replaces public functions of the package's modules with timing
wrappers, in every module namespace that holds them: ``from .kronecker
import kronecker`` binds the name once per importing module, so each
binding is swapped.  ``uninstall`` puts the originals back.

Coarse calls (a classification, a kernel closure, a table check) become
spans keyed by the job that caused them, with their parent span.  Calls
made once per value (the scalar symbol, automaton replay, the prime sieve)
are too many to keep one by one; they add to a count and a total time.
``UnitValue`` products and evaluations of the job's source function are
only counted.  A span's self time is its duration minus the time of the
timed calls directly beneath it.
"""

from __future__ import annotations

import importlib
from time import perf_counter

MODULES = ("kronecker", "multiplicative", "automata", "classify", "analysis",
           "gf4", "bfile", "cli")

# (module, function) pairs timed and aggregated per call.
PER_VALUE = (("kronecker", "kronecker"), ("kronecker", "primes_up_to"), ("automata", "dfao_eval"))

# (module, function) pairs recorded as spans.
SPANS = (
    ("multiplicative", "character_from_table"),
    ("multiplicative", "reduce_periodic_cm"),
    ("multiplicative", "kronecker_character"),
    ("multiplicative", "build_structured"),
    ("multiplicative", "decompose_structured"),
    ("automata", "compute_kernel"),
    ("automata", "kernel_to_dfao"),
    ("automata", "detect_eventual_period"),
    ("classify", "classify"),
    ("classify", "check_complete_multiplicativity"),
    ("classify", "zero_support_divisor"),
    ("analysis", "dirichlet_series_partial"),
    ("analysis", "l_identity_residual"),
    ("analysis", "paperfolding_product_partial"),
    ("analysis", "general_product_residual"),
    ("analysis", "pretentious_distance_sq"),
    ("gf4", "build_G"),
    ("gf4", "build_R"),
    ("gf4", "verify_functional_equation"),
    ("gf4", "coefficient_period_witness"),
    ("bfile", "parse_bfile"),
    ("cli", "main"),
)

# Factories in the cli namespace that build a job's source function.
SOURCE_FACTORIES = ("kronecker_function", "function_from_entries")


class Span:
    __slots__ = ("job", "name", "parent", "start", "end", "self_s", "error", "note")

    def __init__(self, job, name, parent):
        self.job, self.name, self.parent = job, name, parent
        self.start = self.end = self.self_s = None
        self.error = self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _note(name: str, args, kwargs, result):
    """Work done by a coarse call, read from its arguments or result."""
    if name == "automata.compute_kernel":
        overflow = type(result).__name__ == "KernelOverflow"
        return {"classes": result.classes_reached if overflow else result.size,
                "overflow": overflow}
    if name == "analysis.dirichlet_series_partial":
        return {"terms": kwargs.get("N", args[2] if len(args) > 2 else None)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.per_value = {f"{m}.{f}": [0, 0.0] for m, f in PER_VALUE}
        self.source_evals = 0
        self.distinct_evals = 0
        self.unit_mul_calls = 0
        self.output_bytes = 0
        self._open: list[int] = []  # indices of the spans now running
        self._child: list[float] = [0.0]  # timed child time of each open call
        self._job = None
        self._job_args: set[tuple[int, int]] = set()
        self._source_count = 0
        self._swapped: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        pkg = importlib.import_module("mockchar")
        mods = {m: importlib.import_module(f"mockchar.{m}") for m in MODULES}
        everywhere = [pkg, *mods.values()]
        for m, f in PER_VALUE:
            original = getattr(mods[m], f)
            self._swap_everywhere(everywhere, original, self._per_value(f"{m}.{f}", original))
        for m, f in SPANS:
            original = getattr(mods[m], f)
            self._swap_everywhere(everywhere, original, self._spanned(f"{m}.{f}", original))
        mult, cli = mods["multiplicative"], mods["cli"]
        self._swap(mult.UnitValue, "__mul__", self._counted_mul(mult.UnitValue.__mul__))
        # the job's source functions, bound where the jobs build them
        for name in SOURCE_FACTORIES:
            self._swap(cli, name, self._source_factory(getattr(cli, name)))
        self._swap(cli, "PAPERFOLDING", self._source(cli.PAPERFOLDING))
        as_function = mult.DirichletCharacter.as_function
        self._swap(mult.DirichletCharacter, "as_function",
                   lambda chi: self._source(as_function(chi)))
        self._swap(pkg, "build_structured", self._source_factory(pkg.build_structured))

    def uninstall(self) -> None:
        while self._swapped:
            owner, name, original = self._swapped.pop()
            setattr(owner, name, original)

    def _swap(self, owner, name, replacement) -> None:
        self._swapped.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _swap_everywhere(self, mods, original, replacement) -> None:
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    self._swap(mod, name, replacement)

    # ------------------------------------------------------------ wrappers

    def _per_value(self, key: str, fn):
        stat, child, clock = self.per_value[key], self._child, perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt

        return wrapper

    def _spanned(self, name: str, fn):
        spans, opened, child, clock = self.spans, self._open, self._child, perf_counter

        def wrapper(*args, **kwargs):
            span = Span(self._job, name, opened[-1] if opened else None)
            opened.append(len(spans))
            spans.append(span)
            child.append(0.0)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                span.note = _note(name, args, kwargs, result)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                span.self_s = span.duration - child.pop()
                child[-1] += span.duration
                opened.pop()

        return wrapper

    def _counted_mul(self, mul):
        def wrapper(a, b):
            self.unit_mul_calls += 1
            return mul(a, b)

        return wrapper

    def _source(self, f):
        """The arithmetic function f, counting its evaluations and, per job,
        the distinct arguments it is evaluated at."""
        fn = f.fn
        key = self._source_count
        self._source_count += 1

        def ev(n):
            self.source_evals += 1
            self._job_args.add((key, n))
            return fn(n)

        return type(f)(ev, f.label)

    def _source_factory(self, factory):
        def wrapper(*args, **kwargs):
            return self._source(factory(*args, **kwargs))

        return wrapper

    # ------------------------------------------------------------ jobs

    def begin_job(self, job_id: str) -> None:
        self._job = job_id
        self._job_args = set()

    def end_job(self, output: str) -> None:
        self.distinct_evals += len(self._job_args)
        self._job_args = set()
        self.output_bytes += len(output.encode("utf-8"))
        self._job = None

    # ------------------------------------------------------------ metrics

    def _outermost(self, names: set[str]) -> list[Span]:
        out = []
        for span in self.spans:
            parent = span.parent
            while parent is not None and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if span.name in names and parent is None:
                out.append(span)
        return out

    def _total(self, *names: str) -> float:
        return sum(s.duration for s in self._outermost(set(names)))

    def _named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over everything traced, by metric name."""
        kernels = self._named("automata.compute_kernel")
        table_checks = self._outermost({"multiplicative.character_from_table",
                                        "multiplicative.reduce_periodic_cm"})
        in_decompose = [s for s in self._named("multiplicative.character_from_table")
                        if s.parent is not None
                        and self.spans[s.parent].name == "multiplicative.decompose_structured"]
        classify = self._named("classify.classify")
        kron_calls, kron_s = self.per_value["kronecker.kronecker"]
        replay_calls, replay_s = self.per_value["automata.dfao_eval"]
        return {
            "kronecker.calls": kron_calls,
            "kronecker.busy_s": kron_s,
            "kronecker.sieve_s": self.per_value["kronecker.primes_up_to"][1],
            "multiplicative.source_evals": self.source_evals,
            "multiplicative.distinct_eval_ratio": _ratio(self.distinct_evals, self.source_evals),
            "multiplicative.unit_mul_calls": self.unit_mul_calls,
            "multiplicative.table_check_calls": len(table_checks),
            "multiplicative.table_check_s": sum(s.duration for s in table_checks),
            "multiplicative.table_reject_ratio": _ratio(
                sum(1 for s in in_decompose if s.error), len(in_decompose)),
            "multiplicative.decompose_s": self._total("multiplicative.decompose_structured"),
            "automata.kernel_s": self._total("automata.compute_kernel"),
            "automata.kernel_classes": sum(s.note["classes"] for s in kernels if s.note),
            "automata.kernel_overflows": sum(1 for s in kernels if s.note and s.note["overflow"]),
            "automata.replay_calls": replay_calls,
            "automata.replay_s": replay_s,
            "automata.period_s": self._total("automata.detect_eventual_period"),
            "classify.calls": len(classify),
            "classify.self_s": sum(s.self_s for s in classify),
            "classify.mult_check_s": self._total("classify.check_complete_multiplicativity"),
            "classify.zero_support_s": self._total("classify.zero_support_divisor"),
            "analysis.series_s": self._total("analysis.dirichlet_series_partial",
                                             "analysis.l_identity_residual"),
            "analysis.series_terms": sum(s.note["terms"] for s in
                                         self._named("analysis.dirichlet_series_partial") if s.note),
            "analysis.product_s": self._total("analysis.paperfolding_product_partial",
                                              "analysis.general_product_residual"),
            "analysis.distance_s": self._total("analysis.pretentious_distance_sq"),
            "gf4.build_s": self._total("gf4.build_G", "gf4.build_R"),
            "gf4.verify_s": self._total("gf4.verify_functional_equation"),
            "gf4.period_s": self._total("gf4.coefficient_period_witness"),
            "cli.self_s": sum(s.self_s for s in self._named("cli.main")),
            "cli.output_bytes": self.output_bytes,
            "bfile.parse_s": self._total("bfile.parse_bfile"),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
