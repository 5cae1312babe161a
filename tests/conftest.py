import inspect
import random
import textwrap
from fractions import Fraction
from math import gcd

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=8675309,
        help="seed for the randomized test loops",
    )


@pytest.fixture
def rng(request):
    return random.Random(request.config.getoption("--seed"))


_acceptance_lines = []


@pytest.fixture
def report():
    """Record one PASS/FAIL line per acceptance criterion, then assert."""

    def _report(num, desc, ok, elapsed, budget=None):
        verdict = "PASS" if ok else "FAIL"
        window = "" if budget is None else f", budget {budget:.0f}s"
        line = f"ACCEPTANCE {num}: {verdict} ({elapsed:.1f}s{window}) {desc}"
        _acceptance_lines.append(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter):
    # capture-proof home for the acceptance lines, in run order
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def build_power_pool(height_cap):
    """Every rational perfect power of height <= height_cap, by generation.

    Exponents above 6 cannot produce new elements at cap 50: a 7th power
    of height <= 50 forces numerator and denominator of the base to 1,
    and 0, 1, -1 already arise as squares and cubes.
    """
    pool = set()
    for v in range(1, height_cap + 1):
        for u in range(-height_cap, height_cap + 1):
            if gcd(u, v) != 1:
                continue
            b = Fraction(u, v)
            for e in range(2, 7):
                q = b**e
                if max(abs(q.numerator), q.denominator) <= height_cap:
                    pool.add(q)
    return sorted(pool)


@pytest.fixture(scope="session")
def power_pool():
    return build_power_pool(50)


@pytest.fixture
def mutant_recurrence(monkeypatch):
    """IntPoly.__pow__ with Miller's factor (n+1) i - j miswritten as n i - j.

    The mutant is the real method's source with that one factor changed,
    compiled in the poly module's namespace and patched onto IntPoly.
    """
    from power_forge import poly

    source = textwrap.dedent(inspect.getsource(poly.IntPoly.__pow__))
    mutated = source.replace("((n + 1) * i - j)", "(n * i - j)")
    assert mutated != source
    namespace: dict = {}
    exec(mutated, dict(vars(poly)), namespace)
    monkeypatch.setattr(poly.IntPoly, "__pow__", namespace["__pow__"])
