"""Command-line front end.

    mockchar <kron|seq|classify|fsm|compare|distance|lseries|product|f4check> [flags]

Output formats: text (default), csv (header row), json (versioned with a
top-level "schema" field).  Exit codes: 0 success, 1 domain/runtime error,
2 argument parse error; `classify` additionally returns 3 for an
inconsistent verdict and 4 for an inconclusive one, `compare` returns 1 on
the first mismatch, `f4check` returns 1 on a failed identity.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import analysis, automata, bfile, gf4, multiplicative
from .classify import classify as run_classification
from .config import CONFIG_ENV_VAR, RunConfig, load_config
from .kronecker import kronecker
from .multiplicative import (
    ArithmeticFunction,
    PAPERFOLDING,
    UnitValue,
    function_from_entries,
    kronecker_character,
    kronecker_function,
)

SCHEMA = "mockchar.cli.v1"


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise CliError(f"bad range {text!r}", 2) from None
        if hi_i < lo_i:
            raise CliError(f"empty range {text!r}", 2)
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise CliError(f"bad integer {text!r}", 2) from None


def _source_function(args) -> tuple[ArithmeticFunction, str, int | None]:
    """Build the arithmetic function a command was pointed at.

    Returns (function, label, length-limit) where the limit is set for
    file-backed sequences.
    """
    if getattr(args, "kron", None) is not None:
        a = args.kron
        return kronecker_function(a), f"kron:{a}", None
    if getattr(args, "paperfold", False):
        return PAPERFOLDING, "paperfold", None
    if getattr(args, "file", None):
        seq = bfile.load_bfile(args.file, allow_negative_indices=True)
        entries = {}
        for n, v in seq.entries:
            if v not in (-1, 0, 1):
                raise CliError(
                    f"{args.file}: value {v} at n={n}; only symbol sequences "
                    "(-1/0/+1) are supported"
                )
            entries[n] = UnitValue.from_symbol(v)
        limit = max(n for n, _ in seq.entries) + 1 if seq.entries else 0
        return function_from_entries(entries, str(args.file)), str(args.file), limit
    raise CliError("no input source given (use --kron, --paperfold, or --file)", 2)


def _function_spec(spec: str) -> ArithmeticFunction:
    """Parse distance function specs: kron:A, char:D, or paperfold."""
    if spec == "paperfold":
        return PAPERFOLDING
    kind, _, arg = spec.partition(":")
    if kind == "kron":
        return kronecker_function(int(arg))
    if kind == "char":
        return kronecker_character(int(arg)).as_function()
    raise CliError(f"bad function spec {spec!r}; use kron:A, char:D, or paperfold", 2)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_rows(fmt: str, header: list[str], rows: list[list], json_key: str) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    elif fmt == "json":
        _print_json(
            {"schema": SCHEMA, json_key: [dict(zip(header, row)) for row in rows]}
        )
    else:
        for row in rows:
            print(" ".join(str(x) for x in row))


# ---------------------------------------------------------------- commands


def cmd_kron(args, cfg: RunConfig) -> int:
    ns = _parse_range(args.n)
    rows = [[n, kronecker(args.a, n)] for n in ns]
    if cfg.format == "text" and len(rows) == 1:
        print(rows[0][1])
    else:
        _emit_rows(cfg.format, ["n", "value"], rows, "values")
    return 0


def cmd_seq(args, cfg: RunConfig) -> int:
    f, label, _ = _source_function(args)
    ns = _parse_range(args.n)
    rows = [[n, str(f(n))] for n in ns]
    _emit_rows(cfg.format, ["n", "value"], rows, "values")
    return 0


def cmd_classify(args, cfg: RunConfig) -> int:
    f, label, limit = _source_function(args)
    params = cfg.classify_params()
    if limit is not None:
        params = params.fitted_to_length(limit)
    verdict = run_classification(f, base=args.base, params=params)
    payload = verdict.to_json_dict()
    payload["source"] = label
    payload["base"] = args.base
    if cfg.format == "text":
        print(f"{label}: {verdict.kind}")
        for key in ("modulus", "detected_period", "mockulus", "zero_divisor", "reason"):
            if key in payload:
                print(f"  {key} = {payload[key]}")
    else:
        _print_json(payload)
    if verdict.kind == "inconsistent":
        return 3
    if verdict.kind == "inconclusive":
        return 4
    return 0


def cmd_fsm(args, cfg: RunConfig) -> int:
    f, label, _ = _source_function(args)
    kernel = automata.compute_kernel(
        f,
        args.base,
        max_depth=cfg.kernel_max_depth,
        window=cfg.kernel_window,
        max_size=cfg.kernel_max_size,
    )
    if isinstance(kernel, automata.KernelOverflow):
        raise CliError(
            f"kernel for {label} did not close at base {args.base}: "
            f"{kernel.reason} after {kernel.classes_reached} classes "
            f"(depth {kernel.depth_reached}); not automatic at these bounds"
        )
    dfao = automata.kernel_to_dfao(kernel)
    for n in range(min(10_000, cfg.kernel_window * 4)):
        if automata.dfao_eval(dfao, n) != f(n):
            raise CliError(f"automaton replay failed at n = {n}; widen --kernel-window")
    dot = automata.to_dot(dfao)
    if args.dot == "-":
        sys.stdout.write(dot)
    else:
        Path(args.dot).write_text(dot, encoding="utf-8")
        print(f"{label}: {dfao.num_states} states -> {args.dot}")
    return 0


def cmd_compare(args, cfg: RunConfig) -> int:
    f, label, _ = _source_function(args)
    if args.fetch:
        text = bfile.fetch_bfile(args.fetch)
        reference = bfile.parse_bfile(text)
        ref_name = f"OEIS {args.fetch}"
    elif args.bfile:
        reference = bfile.load_bfile(args.bfile)
        ref_name = str(args.bfile)
    else:
        raise CliError("compare needs a b-file path or --fetch", 2)
    for n, expected in reference.entries:
        got = f(n).symbol()
        if got != expected:
            print(f"mismatch at n = {n}: {label} gives {got}, {ref_name} has {expected}")
            return 1
    print(f"{label} matches {ref_name} on all {len(reference)} terms")
    return 0


def cmd_distance(args, cfg: RunConfig) -> int:
    f = _function_spec(args.f)
    g = _function_spec(args.g)
    ys = [float(y) for y in args.y.split(",")]
    rows = []
    for y in ys:
        r = analysis.pretentious_distance_sq(f, g, y)
        d2 = r.squared_distance
        rows.append([y, float(d2), str(d2) if isinstance(d2, Fraction) else ""])
    if cfg.format == "text" and len(rows) == 1:
        print(f"{rows[0][1]:.{cfg.digits}g}")
    else:
        _emit_rows(cfg.format, ["y", "distance_sq", "exact"], rows, "trace")
    return 0


def cmd_lseries(args, cfg: RunConfig) -> int:
    s = complex(args.s)
    ns = [int(x) for x in str(args.N).split(",")]
    if args.identity:
        if len(ns) != 1:
            raise CliError("--identity takes a single N", 2)
        r = analysis.l_identity_residual(args.a, s, ns[0])
        payload = {
            "schema": SCHEMA,
            "a": args.a,
            "s": str(s),
            "N": ns[0],
            "residual": r.residual,
            "tail_bound": r.tail_bound,
            "within_bound": r.residual <= r.tail_bound,
        }
        if cfg.format == "json":
            _print_json(payload)
        else:
            print(
                f"residual {r.residual:.3e} tail bound {r.tail_bound:.3e} "
                f"({'ok' if r.residual <= r.tail_bound else 'EXCEEDED'})"
            )
        return 0
    # Through the module attribute: perfbench's tracer rebuilds what the
    # name bound here returns from (fn, label) alone, dropping the row
    # producer the series reads, and traced runs must take the same route.
    f = multiplicative.kronecker_function(args.a)
    rows = []
    for n in ns:
        sv = analysis.dirichlet_series_partial(f, s, n)
        rows.append([n, sv.partial.real, sv.partial.imag, sv.tail_bound])
    if cfg.format == "text" and len(rows) == 1:
        print(f"{rows[0][1]:.{cfg.digits}g} (tail bound {rows[0][3]:.3e})")
    else:
        _emit_rows(cfg.format, ["N", "partial_re", "partial_im", "tail_bound"], rows, "trace")
    return 0


def cmd_product(args, cfg: RunConfig) -> int:
    if not args.paperfold and args.a is None:
        raise CliError("product needs --paperfold or --a", 2)
    ns = [int(x) for x in args.N.split(",")]
    rows = []
    for n in ns:
        if args.paperfold:
            value = analysis.paperfolding_product_partial(n)
            rows.append([n, value])
        else:
            rows.append([n, analysis.general_product_residual(args.a, n)])
    header = ["N", "partial" if args.paperfold else "residual"]
    if cfg.format == "text" and len(rows) == 1:
        print(f"{rows[0][1]:.{cfg.digits}g}")
    else:
        _emit_rows(cfg.format, header, rows, "trace")
    return 0


def cmd_f4check(args, cfg: RunConfig) -> int:
    embs = (
        gf4.zero_preserving_embeddings()
        if args.all_embeddings
        else (gf4.DEFAULT_EMBEDDING,)
    )
    row = gf4.symbol_row(args.a, args.N)
    failures = []
    for emb in embs:
        idx = gf4.verify_functional_equation(args.a, emb, args.N, row)
        if idx is not None:
            failures.append((emb, idx))
    witness = gf4.coefficient_period_witness(
        gf4.build_R(args.a, gf4.DEFAULT_EMBEDDING, args.N, row)
    )
    payload = {
        "schema": SCHEMA,
        "a": args.a,
        "N": args.N,
        "embeddings_checked": len(embs),
        "identity_holds": not failures,
        "r_period": witness.period if isinstance(witness, automata.Periodic) else None,
    }
    if cfg.format == "json":
        _print_json(payload)
    else:
        status = "holds" if not failures else f"FAILS at {failures[0][1]}"
        print(
            f"G^4 + G + R = 0 {status} for a={args.a}, N={args.N} "
            f"({len(embs)} embedding(s)); R period: {payload['r_period']}"
        )
    return 0 if not failures else 1


# ----------------------------------------------------------------- parser


def _add_source_flags(p: argparse.ArgumentParser, with_file: bool = True) -> None:
    p.add_argument("--kron", type=int, metavar="A", help="use the sequence n -> (A|n)")
    p.add_argument("--paperfold", action="store_true", help="use the paperfolding sequence")
    if with_file:
        p.add_argument("--file", metavar="PATH", help="read an 'n value' sequence file")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help=f"config file (else ${CONFIG_ENV_VAR})")
    p.add_argument("--format", choices=("text", "csv", "json"), help="output format")
    p.add_argument("--mult-bound", type=int, dest="multiplicativity_bound")
    p.add_argument("--zero-prime-bound", type=int, dest="zero_prime_bound")
    p.add_argument("--zero-check-bound", type=int, dest="zero_check_bound")
    p.add_argument("--max-preperiod", type=int, dest="max_preperiod")
    p.add_argument("--max-period", type=int, dest="max_period")
    p.add_argument("--kernel-window", type=int, dest="kernel_window")
    p.add_argument("--kernel-depth", type=int, dest="kernel_max_depth")
    p.add_argument("--kernel-max-size", type=int, dest="kernel_max_size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mockchar",
        description="Kronecker symbols, automatic sequences, and mock character classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kron", help="evaluate Kronecker symbols (a|n)")
    p.add_argument("a", type=int)
    p.add_argument("n", help="an integer or an inclusive range lo..hi (use -- before negative ranges)")
    p.set_defaults(handler=cmd_kron)

    p = sub.add_parser("seq", help="emit a sequence over a range")
    _add_source_flags(p)
    p.add_argument("n", help="an integer or an inclusive range lo..hi (use -- before negative ranges)")
    p.set_defaults(handler=cmd_seq)

    p = sub.add_parser("classify", help="Dirichlet/mock character classification")
    _add_source_flags(p)
    p.add_argument("--base", type=int, default=2, help="candidate automaticity base")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("fsm", help="synthesize the digit automaton and export DOT")
    _add_source_flags(p)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--dot", default="-", metavar="PATH", help="output path ('-' = stdout)")
    p.set_defaults(handler=cmd_fsm)

    p = sub.add_parser("compare", help="compare a sequence against a b-file")
    _add_source_flags(p, with_file=False)
    p.add_argument("bfile", nargs="?", help="path to the reference b-file")
    p.add_argument("--fetch", metavar="AXXXXXX", help="download the reference from the OEIS")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("distance", help="pretentious distance D(f,g;y)^2")
    p.add_argument("--f", required=True, help="kron:A | char:D | paperfold")
    p.add_argument("--g", required=True, help="kron:A | char:D | paperfold")
    p.add_argument("--y", required=True, help="cutoff, or comma list of cutoffs")
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("lseries", help="Dirichlet series partial sums")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--s", default="2", help="complex s with Re(s) > 1")
    p.add_argument("--N", default="1000000", help="terms, or comma list for a trace")
    p.add_argument("--identity", action="store_true", help="residual of the factored form")
    p.set_defaults(handler=cmd_lseries)

    p = sub.add_parser("product", help="paperfolding product and its generalization")
    p.add_argument("--paperfold", action="store_true")
    p.add_argument("--a", type=int, help="a = 3 mod 4 for the generalized product")
    p.add_argument("--N", default="100000", help="terms, or comma list for a trace")
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("f4check", help="verify G^4 + G + R = 0 over the 4-element field")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--N", type=int, default=4096)
    p.add_argument("--all-embeddings", action="store_true")
    p.set_defaults(handler=cmd_f4check)

    for sp in sub.choices.values():
        _add_config_flags(sp)
    return parser


_CONFIG_KEYS = (
    "multiplicativity_bound",
    "zero_prime_bound",
    "zero_check_bound",
    "max_preperiod",
    "max_period",
    "kernel_window",
    "kernel_max_depth",
    "kernel_max_size",
)


def _resolve_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    overrides = {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "format", None):
        overrides["format"] = args.format
    return replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.handler(args, cfg)
    except CliError as exc:
        print(f"mockchar: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"mockchar: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
