"""q-kernels, automata with output, and eventual-periodicity detection.

The q-kernel of a sequence is the set of subsequences n -> f(q**k n + r)
over all depths k and residues r < q**k.  Classes are identified by a
fingerprint of their first `window` terms; a breadth-first search closes
the kernel or reports overflow.  A closed kernel converts directly into a
deterministic finite automaton with output that reads base-q digits least
significant first.

Fingerprinting is a heuristic: distinct classes agreeing on the window
would be merged.  Soundness is restored downstream by replaying the
automaton against the source sequence.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .multiplicative import ArithmeticFunction, EvaluationDomainError, UnitValue

DEFAULT_WINDOW = 512
DEFAULT_MAX_DEPTH = 12
DEFAULT_MAX_SIZE = 4096


@dataclass(frozen=True)
class QKernel:
    """A closed q-kernel: representatives, fingerprints, and transitions.

    representatives[i] is the discovery pair (depth k, residue r < q**k);
    fingerprints[i] packs the class's first `window` values as indices into
    `alphabet`; transitions[i][d] is the class of (k+1, r + d*q**k).
    """

    base: int
    window: int
    representatives: tuple[tuple[int, int], ...]
    fingerprints: tuple[bytes, ...]
    transitions: tuple[tuple[int, ...], ...]
    alphabet: tuple[UnitValue, ...]
    depth_reached: int

    @property
    def size(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class KernelOverflow:
    """Closure was not reached: size, depth, or data ran out.

    Heuristic evidence against q-automaticity at these parameters, never a
    proof.  `classes_reached` counts the distinct classes seen.
    """

    classes_reached: int
    reason: str  # "size" | "depth" | "domain"
    depth_reached: int


@dataclass(frozen=True)
class DFAO:
    """Deterministic finite automaton with output, reading digits LSD-first."""

    base: int
    initial: int
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[UnitValue, ...]

    @property
    def num_states(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class Periodic:
    preperiod: int
    period: int


@dataclass(frozen=True)
class NotDetected:
    max_preperiod: int
    max_period: int


PeriodVerdict = Periodic | NotDetected


class PrefixTooShortError(ValueError):
    """The prefix cannot certify the requested preperiod/period bounds."""


def compute_kernel(
    f: ArithmeticFunction | Callable[[int], UnitValue],
    q: int,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
    window: int = DEFAULT_WINDOW,
    max_size: int = DEFAULT_MAX_SIZE,
) -> QKernel | KernelOverflow:
    """Breadth-first closure of the q-kernel of (f(n))_{n>=0}.

    Classes are keyed by their first `window` values.  Expanding a class at
    depth k evaluates its sequence out to q*window terms, from which all q
    child fingerprints are slices; each evaluation point is visited once.
    Returns the closed kernel, or a KernelOverflow when more than max_size
    classes appear, a new class would exceed max_depth, or f runs out of
    data (for functions backed by finite prefixes).
    """
    if q < 2:
        raise ValueError("base must be >= 2")
    evaluate = f.fn if isinstance(f, ArithmeticFunction) else f
    W = window
    alphabet: list[UnitValue] = []
    codes: dict[UnitValue, int] = {}

    def encode(v: UnitValue) -> int:
        c = codes.get(v)
        if c is None:
            c = len(alphabet)
            if c > 255:
                raise ValueError("more than 256 distinct values in sequence")
            codes[v] = c
            alphabet.append(v)
        return c

    reps: list[tuple[int, int]] = [(0, 0)]
    try:
        root = bytes(encode(evaluate(m)) for m in range(W))
    except EvaluationDomainError:
        return KernelOverflow(1, "domain", 0)
    seen: dict[bytes, int] = {root: 0}
    fps: list[bytes] = [root]
    transitions: list[tuple[int, ...]] = []
    queue: deque[int] = deque([0])
    depth_reached = 0

    while queue:
        idx = queue.popleft()
        k, r = reps[idx]
        depth_reached = max(depth_reached, k)
        qk = q**k
        ext = bytearray(fps[idx])
        try:
            for j in range(W, q * W):
                ext.append(encode(evaluate(qk * j + r)))
        except EvaluationDomainError:
            return KernelOverflow(len(reps), "domain", k)
        row = []
        for d in range(q):
            child = bytes(ext[d::q][:W])
            ci = seen.get(child)
            if ci is None:
                if k + 1 > max_depth:
                    return KernelOverflow(len(reps), "depth", k)
                if len(reps) >= max_size:
                    return KernelOverflow(len(reps) + 1, "size", k + 1)
                ci = len(reps)
                seen[child] = ci
                reps.append((k + 1, r + d * qk))
                fps.append(child)
                queue.append(ci)
            row.append(ci)
        transitions.append(tuple(row))

    return QKernel(
        base=q,
        window=W,
        representatives=tuple(reps),
        fingerprints=tuple(fps),
        transitions=tuple(transitions),
        alphabet=tuple(alphabet),
        depth_reached=depth_reached,
    )


def kernel_to_dfao(kernel: QKernel) -> DFAO:
    """One state per kernel class; the output of a state is its sequence's
    value at 0, so consuming the digits of n LSD-first lands on a class
    whose sequence starts at f(n)."""
    if not isinstance(kernel, QKernel):
        raise TypeError("kernel is not closed; cannot build an automaton")
    outputs = tuple(kernel.alphabet[fp[0]] for fp in kernel.fingerprints)
    return DFAO(
        base=kernel.base,
        initial=0,
        transitions=kernel.transitions,
        outputs=outputs,
    )


def dfao_eval(dfao: DFAO, n: int) -> UnitValue:
    """Run the automaton on the base-q digits of n, least significant first.

    n = 0 consumes the single digit 0.  Exactly the digits of n are read,
    with no leading zeros.
    """
    if n < 0:
        raise ValueError("automata evaluate nonnegative arguments only")
    q = dfao.base
    state = dfao.initial
    if n == 0:
        state = dfao.transitions[state][0]
        return dfao.outputs[state]
    while n:
        n, d = divmod(n, q)
        state = dfao.transitions[state][d]
    return dfao.outputs[state]


def detect_eventual_period(
    prefix: Sequence[Hashable],
    max_preperiod: int,
    max_period: int,
) -> PeriodVerdict:
    """Least (period, preperiod) lexicographically consistent with the prefix.

    The prefix must have length >= max_preperiod + 3*max_period so every
    candidate period is verified on at least two full repetitions past the
    preperiod.  Candidate periods are scanned ascending; a period tau fits
    when the prefix agrees with its shift by tau from max_preperiod on (one
    C-level slice comparison), and the minimal preperiod is then found by
    walking back from max_preperiod to the last self-mismatch at that lag.
    """
    if max_preperiod < 0 or max_period < 1:
        raise ValueError("bounds must satisfy max_preperiod >= 0, max_period >= 1")
    L = len(prefix)
    P = max_preperiod
    need = P + 3 * max_period
    if L < need:
        raise PrefixTooShortError(f"prefix length {L} < {need} required by the bounds")
    codes: dict[Hashable, int] = {}
    arr = array("l", [codes.setdefault(v, len(codes)) for v in prefix])
    for tau in range(1, max_period + 1):
        if arr[P + tau :] != arr[P : L - tau]:
            continue
        rho = P
        while rho and arr[rho - 1] == arr[rho - 1 + tau]:
            rho -= 1
        return Periodic(rho, tau)
    return NotDetected(max_preperiod, max_period)


def to_dot(dfao: DFAO, name: str = "dfao") -> str:
    """Graphviz rendering: states labeled with outputs, edges with digits,
    the initial state marked by an entry arrow.  Deterministic output."""
    lines = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        f"  __start -> s{dfao.initial};",
    ]
    for i, out in enumerate(dfao.outputs):
        lines.append(f'  s{i} [shape=circle, label="s{i}\\n{out}"];')
    for i, row in enumerate(dfao.transitions):
        for d, j in enumerate(row):
            lines.append(f'  s{i} -> s{j} [label="{d}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
