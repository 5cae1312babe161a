"""Empirical validation: exhaustive bounded scans and per-point arithmetic traces.

The claim being checked is extensional: the perfect powers among the
values of f are exactly the target set S.  A scan enumerates every
rational of height at most H (height = max(|numerator|, denominator)),
or every integer in a symmetric interval, evaluates f exactly, and
classifies each value with the power decomposer.  The verdict is PASS
when no value outside S shows up and every element of S inside the
scanned window is attained.

Independently of the scan, ``trace_quantities`` recomputes the value of
g at a point through explicit integer bookkeeping (the quantities A, B,
w and the power sum B**k + w**k) and checks six invariants the
construction promises.  The two routes share no code path: the scan
evaluates polynomials and decomposes values, the trace manipulates the
defining product directly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Optional

from .construct import ConstructionArtifacts, compute_k
from .oracles import map_chunks, split_range
from .poly import IntPoly
from .powers import (
    PowerDecomposition,
    decompose_integer_power,
    decompose_rational_power,
)

__all__ = [
    "Hit",
    "VerificationReport",
    "TraceRecord",
    "InvariantViolation",
    "rational_height",
    "verify_polynomial",
    "verify_construction",
    "trace_quantities",
    "ensure_trace",
]


def rational_height(q: Fraction | int) -> int:
    """max(|numerator|, denominator) of q in lowest terms."""
    q = Fraction(q)
    return max(abs(q.numerator), q.denominator)


@dataclass(frozen=True, slots=True)
class Hit:
    """One scanned point whose value is a perfect power."""

    x: Fraction
    value: Fraction
    power: PowerDecomposition


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive scan.

    ``bound`` is the height cap for the rational variant and the
    absolute-value cap for the integer variant.  ``missing`` lists every
    target element not attained by any hit, including elements beyond
    the scanned window; only in-window omissions flip the verdict.
    """

    variant: str
    bound: int
    points_scanned: int
    hits: tuple[Hit, ...]
    extras: tuple[Hit, ...]
    missing: tuple[Fraction, ...]
    verdict: str
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


# -- scanning ------------------------------------------------------------


def _scan_rational_chunk(payload) -> tuple[int, list[Hit]]:
    f, vs, height = payload
    count = 0
    hits: list[Hit] = []
    for v in vs:
        vd = v ** max(f.degree, 0)
        for u in range(-height, height + 1):
            if gcd(u, v) != 1:
                continue
            count += 1
            y = Fraction(f.eval_pair(u, v), vd)
            dec = decompose_rational_power(y)
            if dec is not None:
                hits.append(Hit(x=Fraction(u, v), value=y, power=dec))
    return count, hits


def _scan_integer_chunk(payload) -> tuple[int, list[Hit]]:
    f, xs = payload
    count = 0
    hits: list[Hit] = []
    for x in xs:
        count += 1
        y = f(x)
        dec = decompose_integer_power(y)
        if dec is not None:
            hits.append(Hit(x=Fraction(x), value=Fraction(y), power=dec))
    return count, hits


def verify_polynomial(
    f: IntPoly,
    elements: Iterable[Fraction],
    variant: str = "rational",
    bound: int = 25,
    *,
    k: Optional[int] = None,
    pairs: Optional[tuple[tuple[int, int], ...]] = None,
    workers: int = 1,
    progress: bool = False,
) -> VerificationReport:
    """Scan f over the bounded window and compare power values against elements.

    When k and pairs are supplied (a constructed rational f), every hit
    additionally goes through the six trace invariants; a failure there
    raises InvariantViolation rather than merely flipping the verdict,
    since it means the construction itself is broken.
    """
    if variant not in ("rational", "integer"):
        raise ValueError(f"unknown variant {variant!r}")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    targets = tuple(sorted(Fraction(e) for e in elements))
    if variant == "rational":
        n = min(max(workers, 1), bound)
        worker = _scan_rational_chunk
        payloads = [(f, range(1 + i, bound + 1, n), bound) for i in range(n)]
        in_window = [b for b in targets if rational_height(b) <= bound]
    else:
        bad = [b for b in targets if b.denominator != 1]
        if bad:
            raise ValueError(f"integer-variant scan with non-integer targets: {bad}")
        worker = _scan_integer_chunk
        payloads = [(f, r) for r in split_range(-bound, bound + 1, workers)]
        in_window = [b for b in targets if abs(b) <= bound]
    results = []
    for i, res in enumerate(map_chunks(worker, payloads, workers), 1):
        results.append(res)
        if progress:
            print(
                f"[scan] chunk {i}/{len(payloads)} done "
                f"(points={res[0]}, hits={len(res[1])})",
                file=sys.stderr,
            )
    points = sum(r[0] for r in results)
    hits = sorted(
        (h for r in results for h in r[1]),
        key=lambda h: (h.x.denominator, h.x.numerator),
    )
    if k is not None and pairs is not None:
        for h in hits:
            ensure_trace(pairs, h.x, k)
    target_set = set(targets)
    hit_values = {h.value for h in hits}
    extras = tuple(h for h in hits if h.value not in target_set)
    missing = tuple(b for b in targets if b not in hit_values)
    missing_in_window = [b for b in in_window if b not in hit_values]
    verdict = "PASS" if not extras and not missing_in_window else "FAIL"
    window = "height" if variant == "rational" else "|x|"
    return VerificationReport(
        variant=variant,
        bound=bound,
        points_scanned=points,
        hits=tuple(hits),
        extras=extras,
        missing=missing,
        verdict=verdict,
        notes=f"scanned all x with {window} <= {bound}; "
        f"{len(in_window)}/{len(targets)} target elements inside the window",
    )


def verify_construction(
    artifacts: ConstructionArtifacts,
    bound: int,
    workers: int = 1,
    progress: bool = False,
) -> VerificationReport:
    """Scan a construct() result, with trace invariants armed when applicable."""
    inp = artifacts.input
    rational = inp.variant == "rational"
    use_trace = rational and len(inp) > 0 and artifacts.k is not None
    return verify_polynomial(
        artifacts.f,
        inp.elements,
        variant=inp.variant,
        bound=bound,
        k=artifacts.k if use_trace else None,
        pairs=artifacts.pairs if use_trace else None,
        workers=workers,
        progress=progress,
    )


# -- trace invariants ------------------------------------------------------

@dataclass(frozen=True)
class TraceRecord:
    """Integer bookkeeping for g at one rational point x = u/v.

    A is the product of (c_i u - a_i v); splitting gcd(A, v**m) off both
    A and v**m leaves the coprime pair (B, w) with
    g(x) = (B**k + w**k) / w**k in lowest terms.  ``checks`` maps each of
    the six invariants the construction guarantees at every rational
    point, in a fixed order, to whether it holds here.
    """

    x: Fraction
    k: int
    u: int
    v: int
    A: int
    B: int
    w: int
    power_sum: int
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(name for name, good in self.checks.items() if not good)


class InvariantViolation(RuntimeError):
    """A trace invariant failed; carries the offending record."""

    def __init__(self, record: TraceRecord):
        self.record = record
        failed = ", ".join(record.failed_checks())
        super().__init__(f"trace invariants failed at x = {record.x}: {failed}")


def trace_quantities(
    pairs: Iterable[tuple[int, int]],
    x: Fraction | int,
    k: Optional[int] = None,
) -> TraceRecord:
    """Compute A, B, w, the power sum, and all six invariant checks at x.

    k defaults to the canonical exponent for the pairs; a caller-supplied
    k must still be a positive multiple of 4, and the invariants are only
    promised for k divisible by p - 1 for every prime p in the
    denominators.

    >>> rec = trace_quantities([(9, 25)], Fraction(1, 2))
    >>> (rec.A, rec.B, rec.w, rec.power_sum)
    (7, 7, 2, 2417)
    >>> rec.ok
    True
    """
    pairs = tuple(pairs)
    if k is None:
        k = compute_k(pairs)
    if k < 4 or k % 4:
        raise ValueError(f"k must be a positive multiple of 4, got {k}")
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    A = prod(c * u - a * v for a, c in pairs)
    V = v ** len(pairs)
    d = gcd(A, V)
    B = A // d
    w = V // d
    power_sum = B**k + w**k

    shared = gcd(power_sum, v)
    while shared % 2 == 0:
        shared //= 2
    gx = Fraction(prod(Fraction(c * u - a * v, v) for a, c in pairs)) ** k + 1

    members = {Fraction(a, c) for a, c in pairs}
    return TraceRecord(
        x=x,
        k=k,
        u=u,
        v=v,
        A=A,
        B=B,
        w=w,
        power_sum=power_sum,
        checks={
            "coprime_pair": gcd(B, w) == 1 and w >= 1,
            "gcd_power_of_two": shared == 1,
            "small_sum_trivial": power_sum not in (1, 2) or (abs(B) <= 1 and w == 1),
            "value_identity": Fraction(power_sum, w**k) == gx,
            "mod_four": power_sum % 4 in (1, 2),
            "zero_iff_member": (A == 0) == (x in members),
        },
    )


def ensure_trace(
    pairs: Iterable[tuple[int, int]],
    x: Fraction | int,
    k: Optional[int] = None,
) -> TraceRecord:
    """trace_quantities, raising InvariantViolation unless every check passes."""
    record = trace_quantities(pairs, x, k)
    if not record.ok:
        raise InvariantViolation(record)
    return record
