"""The benchmark's workloads: fixed lists of CLI commands, built from a seed.

A workload is a list of steps; a step is a tuple of operations timed
together between two runs of the reference kernel.  Every step but the
batch of ``power`` queries holds one command.  An operation is one
``power_forge.cli.main(argv)`` call with the exit code it must return
and the independent check its output must pass.

Seeded parts are drawn with a fixed shape (the same number of elements,
the same k, the same bit sizes) so that the work per pass hardly moves
with the seed.  This module imports nothing from ``power_forge``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
import os
from typing import Callable, Optional

import checks

WORKERS = ("--workers", "1")

# Rational perfect powers whose denominators have primes p with p - 1 | 12.
# K12 elements force k = 12 (a 7 or 13 in the denominator); K4 elements
# keep k = 4.  Every draw below was scanned at the heights used here and
# passes (see README.md).
POOL_K12 = tuple(Fraction(s) for s in (
    "1/49", "4/49", "9/49", "16/49", "25/49", "36/49",
    "1/169", "4/169", "9/169", "-1/343", "8/343",
))
POOL_K4 = tuple(Fraction(s) for s in (
    "1/4", "9/4", "25/4", "1/9", "4/9", "16/9", "1/25", "4/25", "16/25",
    "1/8", "-1/8", "27/8", "8/27", "-8/27", "1/16", "81/16", "-27/125",
))

# (prime exponent p, bits of the base) for the power queries: values of
# about 4,000 bits, so each decomposition tries a couple of hundred exponents.
POWER_TEMPLATES = ((2, 2000), (3, 1330), (5, 800), (7, 570), (11, 360),
                   (13, 300), (31, 130), (61, 66), (97, 41))
RATIONAL_POWER_TEMPLATES = ((3, 300), (5, 180), (7, 128))
SMALL_PRIMORIAL = 2 * 3 * 5 * 7 * 11 * 13  # the primes the decomposer strips first


@dataclass(frozen=True)
class Op:
    """One CLI call, the exit code it must give, and the check of its output."""

    name: str
    argv: tuple[str, ...]
    expect: int
    check: Callable[[dict], None]
    out: Optional[str] = None  # the document is read from this file, else from stdout
    # exit code of a named, still unmended fault: counted in failed, not as a wrong answer
    known_fault: Optional[int] = None


def _fmt(values) -> str:
    return ",".join(str(v) for v in values)


def _verify_set(elements, window: int, variant: str = "rational") -> Op:
    flag = "--height" if variant == "rational" else "--bound"
    # "--set=..." keeps a leading minus sign from reading as an option
    argv = ("verify", f"--set={_fmt(elements)}", "--variant", variant,
            flag, str(window)) + WORKERS
    check = partial(checks.check_scan, elements=tuple(elements),
                    variant=variant, window=window)
    return Op(f"verify {{{_fmt(elements)}}} {flag[2:]}={window}", argv, 0, check)


def scan_lowdeg(rng: random.Random, workdir: str) -> list[tuple[Op, ...]]:
    k12 = rng.sample(POOL_K12, 2)
    k4 = rng.sample(POOL_K4, 3)
    ops = [
        _verify_set([Fraction(9, 25)], 110),
        _verify_set([Fraction(0), Fraction(9, 25), Fraction(-8)], 50),
        _verify_set(sorted(k4[:2]), 40),           # k = 4, degree 17
        _verify_set([k12[0]], 40),                 # k = 12, degree 25
        _verify_set(sorted([k12[1], k4[2]]), 24),  # k = 12, degree 49
        _verify_set([4, 8, 36], 20000, variant="integer"),
    ]
    return [(op,) for op in ops]


def scan_highdeg(rng: random.Random, workdir: str) -> list[tuple[Op, ...]]:
    ops = [
        _verify_set([Fraction(1, 10201)], 9),                                   # k=100, deg 201
        _verify_set([Fraction(1, 49), Fraction(8, 27), Fraction(4, 121)], 8),   # k=60, deg 361
    ]
    return [(op,) for op in ops]


def construct_bigk(rng: random.Random, workdir: str) -> list[tuple[Op, ...]]:
    sets = {
        "p139": [Fraction(1, 139**2)],                                  # k = 276
        "p179": [Fraction(1, 179**2)],                                  # k = 356
        "three": [Fraction(1, 49), Fraction(8, 27), Fraction(4, 121)],  # k = 60
        "zero": [Fraction(0), Fraction(9, 25), Fraction(-8)],           # contains 0
        "pow2": [Fraction(1, 1 << 2000)],                               # k = 4, huge coefficients
    }
    points = tuple(rng.randint(-40, 40) for _ in range(3))
    ops = []
    for key, elements in sets.items():
        out = os.path.join(workdir, f"{key}.json")
        argv = ("construct", f"--set={_fmt(elements)}", "--out", out)
        check = partial(checks.check_construction, elements=tuple(elements), points=points)
        if key == "pow2":  # jsonio calls str() on a coefficient over 4,300 digits: exit 2
            ops.append(Op("construct {1/2^2000}", argv, 0, check, out, known_fault=2))
        else:
            ops.append(Op(f"construct {{{_fmt(elements)}}}", argv, 0, check, out))
    largest = os.path.join(workdir, "p179.json")
    argv = ("verify", "--artifacts", largest, "--height", "1") + WORKERS
    check = partial(checks.check_scan, elements=tuple(sets["p179"]),
                    variant="rational", window=1)
    ops.append(Op("verify --artifacts {1/179^2} height=1", argv, 0, check))
    return [(op,) for op in ops]


def _not_a_power(rng: random.Random, bits: int) -> int:
    """17 * m with m coprime to 17 and to every prime up to 13.

    17 divides it exactly once, so it is no perfect power, and no prime
    up to 13 divides it, so the decomposer cannot narrow its exponents
    by stripping small primes.
    """
    m = SMALL_PRIMORIAL * rng.getrandbits(bits - 20) + 1
    while m % 17 == 0:
        m += SMALL_PRIMORIAL
    return 17 * m


def _power_ops(rng: random.Random) -> list[Op]:
    """True powers r^p (exit 0, exponent p) and near-powers r^p +- 1 (exit 1).

    r^p +- 1 with r >= 3 is no perfect power by Mihailescu's theorem
    (the only consecutive perfect powers are 8 and 9).
    """
    queries = []  # (value, (base, p) or None)
    for p, bits in POWER_TEMPLATES:
        r = _not_a_power(rng, bits)
        base = -r if p % 2 and rng.random() < 0.5 else r
        queries.append((Fraction(base**p), (Fraction(base), p)))
        queries.append((Fraction(_not_a_power(rng, bits) ** p + 1), None))
        queries.append((Fraction(_not_a_power(rng, bits) ** p - 1), None))
    for p, bits in RATIONAL_POWER_TEMPLATES:
        a = _not_a_power(rng, bits)
        c = _not_a_power(rng, bits) // 17
        base = Fraction(a if rng.random() < 0.5 else -a, c)
        queries.append((base**p, (base, p)))
    ops = []
    for value, base in queries:
        check = partial(checks.check_power, value=value, base=base)
        ops.append(Op(f"power ({'power' if base else 'near-power'})",
                      ("power", str(value)), 0 if base else 1, check))
    return ops


def oracle_power(rng: random.Random, workdir: str) -> list[tuple[Op, ...]]:
    def oracle(name, argv, equation, expected):
        check = partial(checks.check_solutions, equation=equation, expected=expected)
        return Op(name, ("oracle",) + argv + ("--expect", "paper"), 0, check)

    steps = [
        (oracle("oracle lebesgue 25000 n<=24",
                ("lebesgue", "--bound", "25000", "--n-max", "24") + WORKERS,
                "X^2 + 1 = Y^n", checks.lebesgue_solutions(24)),),
        (oracle("oracle catalan 400 e<=40",
                ("catalan", "--base-bound", "400", "--exp-bound", "40"),
                "X^m - Y^n = 1", checks.catalan_solutions(400, 40)),),
    ]
    for variant, equation in (("cn", "A^4 + B^4 = C^n"), ("2cn", "A^4 + B^4 = 2*C^n"),
                              ("24n", "A^2 + B^4 = C^n")):
        steps.append((oracle(f"oracle fermat {variant} 220 n<=10",
                             ("fermat", "--bound", "220", "--n-max", "10",
                              "--variant", variant) + WORKERS,
                             equation, checks.fermat_solutions(variant, 10)),))
    steps.append(tuple(_power_ops(rng)))
    return steps


WORKLOADS = {
    "scan-lowdeg": scan_lowdeg,
    "scan-highdeg": scan_highdeg,
    "construct-bigk": construct_bigk,
    "oracle-power": oracle_power,
}


def build(name: str, seed: int, workdir: str) -> list[tuple[Op, ...]]:
    """The workload's steps for this seed; the same seed gives the same steps."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
