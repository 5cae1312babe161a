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


def _patch_source(monkeypatch, module, owner, name, old, new):
    """Patch owner.name with its own source, old replaced by new.

    The mutant is compiled in the module's namespace, so it calls the
    same helpers as the real function or method.
    """
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    mutated = source.replace(old, new)
    assert mutated != source
    namespace: dict = {}
    exec(mutated, dict(vars(module)), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


@pytest.fixture
def mutant_recurrence(monkeypatch):
    """Miller's recurrence with its factor (n+1) i - j miswritten as n i - j.

    Both builds get it: ``IntPoly.__pow__`` and ``construct.recipe_text``
    call the one ``poly.power_coeffs``.
    """
    from power_forge import construct, poly

    _patch_source(monkeypatch, poly, poly, "power_coeffs", "((n + 1) * i - j)", "(n * i - j)")
    monkeypatch.setattr(construct, "power_coeffs", poly.power_coeffs)


@pytest.fixture
def mutant_short_lift(monkeypatch):
    """The p-adic lift of ``poly.rational_roots`` stopped at l**e > max |Q_i|, half its bound."""
    from power_forge import poly

    _patch_source(monkeypatch, poly, poly, "_lifted_roots",
                  "bound = 2 * (1 + max(abs(c) for c in monic[:-1]))",
                  "bound = max(abs(c) for c in monic[:-1])")


@pytest.fixture
def mutant_half_prime_bound(monkeypatch):
    """compute_k dividing out only the admissible primes up to half the derived bound."""
    from power_forge import construct

    half = construct._largest_admissible_prime() // 2
    monkeypatch.setattr(construct, "_ADMISSIBLE_PRIMES",
                        tuple(p for p in construct._ADMISSIBLE_PRIMES if p <= half))


# mutants of the box searches (oracles); each loses a hit

@pytest.fixture
def mutant_lebesgue_without_one(monkeypatch):
    """search_lebesgue joining the table of cubes and higher powers without the added 1."""
    from power_forge import oracles

    _patch_source(monkeypatch, oracles, oracles, "search_lebesgue",
                  "table.add(1)", "pass")


@pytest.fixture
def mutant_half_modulus(monkeypatch):
    """Live classes read from residues mod 2 * rhs_mult, too few for the target mod 4."""
    from power_forge import oracles

    _patch_source(monkeypatch, oracles, oracles, "_live_classes",
                  "m = 4 * rhs_mult", "m = 2 * rhs_mult")


# mutants of the decomposer's grouped reduction and the scan's lowest-terms pairs

@pytest.fixture
def mutant_first_modulus_left_out(monkeypatch):
    """Each group's product of first moduli without its first modulus, on an empty memo."""
    from power_forge import powers

    monkeypatch.setattr(powers, "_FIRST_MODULI", {})
    _patch_source(monkeypatch, powers, powers, "_first_moduli",
                  "prod(q for _, q, _ in group)", "prod(q for _, q, _ in group[1:])")


@pytest.fixture
def mutant_cancelling_points_skipped(monkeypatch):
    """The scan drops every point with gcd(num, v) != 1 instead of reducing its pair."""
    from power_forge import verify

    _patch_source(monkeypatch, verify, verify, "_scan_chunk",
                  "common = gcd(num, vd)", "continue")


# mutants of the scan's row sieve (verify._RowSieve); each masks out a power

@pytest.fixture
def mutant_flipped_entry(monkeypatch):
    """The quadratic-residue table mod 3 with the entry of the class t = 1 flipped."""
    from power_forge import verify

    real = verify._allowed

    def flipped(values, p, m, l=0):
        table = bytearray(real(values, p, m, l))
        if (p, m) == (2, 3):
            table[1] ^= 1
        return bytes(table)

    monkeypatch.setattr(verify, "_allowed", flipped)


@pytest.fixture
def mutant_guard_dropped(monkeypatch):
    """Residue masks that also use the moduli q dividing the row's v."""
    from power_forge import verify

    _patch_source(monkeypatch, verify, verify._RowSieve, "mask",
                  "if v % q and q <= residue_limit", "if q <= residue_limit")


@pytest.fixture
def mutant_period_l(monkeypatch):
    """Valuation tables of period l, where whether l divides f exactly once needs l**2."""
    from power_forge import verify

    _patch_source(monkeypatch, verify, verify, "_allowed", "period = m * m", "period = m")


@pytest.fixture
def mutant_lead_dropped(monkeypatch):
    """The row denominator keeps all of v**deg on a row where lead f and v share a prime."""
    from power_forge import verify

    _patch_source(monkeypatch, verify, verify._RowSieve, "_exponent",
                  "return full - least", "return full")


@pytest.fixture
def mutant_tie_taken(monkeypatch):
    """A tied least valuation taken as the valuation of v**deg f(u/v)."""
    from power_forge import verify

    _patch_source(monkeypatch, verify, verify._RowSieve, "_exponent",
                  "if tied and least < full:", "if False:")


@pytest.fixture
def serial_pool(monkeypatch):
    """A ProcessPoolExecutor that starts no process: it records each max_workers
    it is built with, in the list returned, and maps in this process."""
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes
