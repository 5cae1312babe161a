import pickle
from fractions import Fraction
from math import gcd, prod

import pytest

from power_forge import verify
from power_forge.construct import PowerSetInput, Recipe, construct, element_pairs
from power_forge.errors import ValidationError
from power_forge.poly import IntPoly
from power_forge.ntheory import strip_prime
from power_forge.powers import _SMALL_PRIMES, _residue_table, decompose_rational_power
from power_forge.verify import (
    Hit,
    InvariantViolation,
    ensure_trace,
    rational_height,
    trace_quantities,
    verify_construction,
    verify_polynomial,
)


def test_rational_height():
    assert rational_height(Fraction(9, 25)) == 25
    assert rational_height(Fraction(-31, 7)) == 31
    assert rational_height(0) == 1
    assert rational_height(5) == 5


def test_verify_integer_construction_small():
    art = construct(PowerSetInput.from_values([4, 8, 36], variant="integer"))
    rep = verify_construction(art, 200)
    assert rep.passed and rep.verdict == "PASS"
    assert [(h.x, h.value) for h in rep.hits] == [
        (Fraction(4), Fraction(4)),
        (Fraction(8), Fraction(8)),
        (Fraction(36), Fraction(36)),
    ]
    assert rep.points_scanned == 401
    assert rep.extras == () and rep.missing == ()


def test_verify_rational_construction_small():
    art = construct(PowerSetInput.from_values(["9/25"]))
    rep = verify_construction(art, 40)
    assert rep.passed
    assert [(h.x, h.value) for h in rep.hits] == [(Fraction(9, 25), Fraction(9, 25))]
    assert rep.hits[0].power.base == Fraction(3, 5)


def test_verify_empty_set_passes():
    art = construct(PowerSetInput.from_values([]))
    rep = verify_construction(art, 15)
    assert rep.passed and rep.hits == ()


def test_out_of_window_target_is_informational():
    art = construct(PowerSetInput.from_values(["9/25"]))
    rep = verify_construction(art, 20)  # height(9/25) = 25 > 20
    assert rep.passed
    assert rep.missing == (Fraction(9, 25),)
    assert rep.hits == ()


def test_in_window_omission_fails():
    rep = verify_polynomial(IntPoly([2]), [Fraction(4)], variant="integer", bound=10)
    assert not rep.passed
    assert rep.missing == (Fraction(4),) and rep.extras == ()


def test_adversarial_square_fails_with_extras():
    rep = verify_polynomial(IntPoly([0, 0, 1]), [], variant="rational", bound=10)
    assert rep.verdict == "FAIL"
    assert len(rep.extras) == rep.points_scanned == 127
    # every x^2 is a square, so the extras list every point the scan visits:
    # each rational of height <= 10 once, reported by denominator, then numerator
    expected = sorted(
        (Fraction(u, v) for v in range(1, 11) for u in range(-10, 11) if gcd(u, v) == 1),
        key=lambda x: (x.denominator, x.numerator),
    )
    assert [h.x for h in rep.extras] == expected


def test_verify_is_deterministic_across_workers():
    art = construct(PowerSetInput.from_values(["9/25"]))
    assert verify_construction(art, 40, workers=1) == verify_construction(
        art, 40, workers=3
    )
    arti = construct(PowerSetInput.from_values([4], variant="integer"))
    assert verify_construction(arti, 500, workers=1) == verify_construction(
        arti, 500, workers=4
    )


def test_verify_argument_validation():
    art = construct(PowerSetInput.from_values([4], variant="integer"))
    with pytest.raises(ValidationError, match="bound must be >= 1"):
        verify_construction(art, 0)
    with pytest.raises(ValidationError, match="non-integer targets"):
        verify_polynomial(IntPoly([2]), [Fraction(1, 2)], variant="integer", bound=5)
    with pytest.raises(ValidationError, match="unknown variant 'p-adic'"):
        verify_polynomial(IntPoly([2]), [], variant="p-adic", bound=5)


def test_a_window_past_the_point_cap_is_refused_before_any_sieve(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("a sieve was built")

    monkeypatch.setattr(verify, "_RowSieve", no_sieve)
    for variant, option, window in (("rational", "height", 10**20), ("rational", "height", 2236),
                                    ("integer", "bound", 10**20), ("integer", "bound", 5 * 10**6)):
        with pytest.raises(ValidationError, match=f"^{option} must be <= "):
            verify_polynomial(IntPoly([2]), [], variant, window)
    # the largest windows pass the check; no chunk is scanned
    monkeypatch.setattr(verify, "map_chunks", lambda worker, payloads, workers: iter(()))
    assert verify_polynomial(IntPoly([2]), [], "rational", 2235).points_scanned == 0
    assert verify_polynomial(IntPoly([2]), [], "integer", 5 * 10**6 - 1).points_scanned == 0
    # far above the windows of the benchmark and the CLI corpus
    assert 110 * 221 * 100 < verify._MAX_POINTS and 40001 * 100 < verify._MAX_POINTS


def test_trace_worked_example():
    rec = trace_quantities(((9, 25),), Fraction(1, 2))
    assert (rec.u, rec.v) == (1, 2)
    assert (rec.A, rec.B, rec.w) == (7, 7, 2)
    assert rec.power_sum == 7**4 + 2**4 == 2417
    assert rec.k == 4
    assert rec.ok and rec.failed_checks() == ()


def test_trace_at_member_point():
    rec = trace_quantities(((9, 25), (4, 1)), Fraction(9, 25))
    assert rec.A == 0 and rec.B == 0 and rec.w == 1
    assert rec.power_sum == 1
    assert rec.ok


def test_trace_empty_set():
    rec = trace_quantities((), Fraction(3, 7))
    assert (rec.A, rec.B, rec.w, rec.power_sum) == (1, 1, 1, 2)
    assert rec.ok


def test_trace_value_identity_matches_polynomial(rng, power_pool):
    for _ in range(50):
        S = rng.sample(power_pool, rng.randint(1, 3))
        art = construct(PowerSetInput(tuple(S)))
        pairs = element_pairs(art.input)
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        rec = trace_quantities(pairs, x, art.k)
        assert rec.ok
        # the reduced pair reproduces g(x) through the polynomial route too
        assert Fraction(rec.power_sum, rec.w**rec.k) == art.g(x)


def test_trace_rejects_bad_k():
    for k in (6, 2, 0):
        with pytest.raises(ValidationError, match=f"got {k}$"):
            trace_quantities(((9, 25),), Fraction(1, 2), k=k)


def test_undersized_k_breaks_an_invariant():
    # canonical k for denominator 289 = 17^2 is 16; forcing k = 4 lets the
    # power sum pick up the factor 17 because -1 is a fourth power mod 17
    pairs = ((1, 289),)
    bad = trace_quantities(pairs, Fraction(20, 289), k=4)
    assert bad.failed_checks() == ("gcd_power_of_two",)
    assert bad.power_sum % 17 == 0
    good = trace_quantities(pairs, Fraction(20, 289))
    assert good.k == 16 and good.ok
    with pytest.raises(InvariantViolation, match="gcd_power_of_two"):
        ensure_trace(pairs, Fraction(20, 289), k=4)


def test_ensure_trace_returns_record():
    rec = ensure_trace(((9, 25),), Fraction(1, 2))
    assert rec.power_sum == 2417


def test_trace_random_points_all_pass(rng, power_pool):
    for _ in range(200):
        S = rng.sample(power_pool, rng.randint(0, 4))
        pairs = tuple((b.numerator, b.denominator) for b in S)
        if S and rng.random() < 0.15:
            x = rng.choice(S)
        else:
            x = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        rec = trace_quantities(pairs, x)
        assert rec.ok, (S, x, rec.failed_checks())
        assert rec.checks["zero_iff_member"]
        # A and the membership predicate really are two routes to one fact
        direct = prod(c * x.numerator - a * x.denominator for a, c in pairs)
        assert rec.A == direct


# |S| = 1, 2, 3, sets with 0 and with negative elements, k = 4, 12, 60 and 100
RECIPE_SCANS = [
    (["9/25"], "rational", 40),  # k = 4
    (["0", "9/25", "-8"], "rational", 20),
    (["-1/8", "4/25"], "rational", 20),
    (["1/49"], "rational", 20),  # k = 12
    (["1/49", "8/27", "4/121"], "rational", 5),  # k = 60
    (["1/10201"], "rational", 6),  # k = 100
    (["4", "8", "36"], "integer", 300),
    (["-8", "0", "4"], "integer", 300),
    (["-1"], "integer", 300),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("values, variant, window", RECIPE_SCANS)
def test_recipe_scan_matches_horner_scan(values, variant, window, workers):
    # verify_construction evaluates the recipe; verify_polynomial runs Horner on f
    art = construct(PowerSetInput.from_values(values, variant=variant))
    by_recipe = verify_construction(art, window, workers=workers)
    by_horner = verify_polynomial(art.f, art.input.elements, variant, window, workers=workers)
    assert by_recipe == by_horner
    assert by_recipe.passed


# the sets of the scan benchmarks at their heights; the seeded draws there
# come from the same pools as these (k = 4, 12 and 12 with a k = 4 element)
BENCH_SCANS = [
    (["9/25"], "rational", 110),
    (["0", "9/25", "-8"], "rational", 50),
    (["-1/8", "4/25"], "rational", 40),
    (["1/169"], "rational", 40),
    (["-1/343", "16/9"], "rational", 24),
    (["1/10201"], "rational", 9),
    (["1/49", "8/27", "4/121"], "rational", 8),
    (["4", "8", "36"], "integer", 20000),
]


@pytest.mark.parametrize("values, variant, window", BENCH_SCANS)
def test_recipe_values_equal_horner_values(values, variant, window):
    art = construct(PowerSetInput.from_values(values, variant=variant))
    f, recipe = art.f, art.recipe
    if variant == "integer":
        xs = range(-window, window + 1)
        assert list(recipe.row_values(1, xs)) == [(x, f(x)) for x in xs]
        return
    # the sieve's tables read f(0), f(1), ... below the row length from row 1
    ts = range(2 * window + 1)
    assert list(recipe.row_values(1, ts)) == [(t, f(t)) for t in ts]
    for v in range(1, window + 1):
        us = [u for u in range(-window, window + 1) if gcd(u, v) == 1]
        assert list(recipe.row_values(v, us)) == [(u, f.eval_pair(u, v)) for u in us]


# -- the row sieve ------------------------------------------------------------

def _reference_chunk(payload):
    """One chunk of the scan point by point, as before the row sieve."""
    f, rows, lo, n = payload
    count = 0
    hits = []
    for v in rows:
        vd = v ** max(f.degree, 0)
        us = [u for u in range(lo, lo + n) if gcd(u, v) == 1]
        count += len(us)
        for u, num in f.row_values(v, us):
            y = Fraction(num, vd)
            dec = decompose_rational_power(y)
            if dec is not None:
                hits.append(Hit(x=Fraction(u, v), value=y, power=dec))
    return count, hits


def _reference(monkeypatch, scan, *args, **kwargs):
    """scan(*args, **kwargs) with the per-point chunk in place of the masked one."""
    with monkeypatch.context() as m:
        m.setattr(verify, "_scan_chunk", _reference_chunk)
        return scan(*args, **kwargs)


def _masked_out_powers(f, variant, window):
    """Points of the window that the one-worker scan's sieve masks out, yet give a power.

    Each masked-out point is evaluated by Horner on f and decomposed
    exactly; on a sound sieve the list is empty.
    """
    n = 2 * window + 1
    rows = range(1, window + 1) if variant == "rational" else (1,)
    sieve = verify._RowSieve(f, -window, n, len(rows) * n)
    found = []
    for v in rows:
        for u in verify._set_bits(sieve.coprime(v) & ~sieve.mask(v), -window):
            if decompose_rational_power(f(Fraction(u, v))) is not None:
                found.append(Fraction(u, v))
    return found


# bare polynomials with many powers among their values
BARE_SCANS = [
    (IntPoly([0, 0, 1]), "rational", 10),  # every value a square
    (IntPoly([1, 0, 1]), "rational", 12),  # (4/3)**2 + 1 = (5/3)**2
    (IntPoly([0, 0, 0, 32]), "rational", 12),  # 32 (1/2)**3 = 2**2, with 2 | lead
    (IntPoly([-1, 0, 0, 1]), "rational", 9),  # X**3 - 1
    (IntPoly([1, 2, 1]), "rational", 9),  # (X + 1)**2
    (IntPoly([4]), "rational", 6),  # degree 0: v**deg = 1 bounds no exponent
    (IntPoly(), "rational", 6),  # f = 0 = 0**2 everywhere
    (IntPoly([2, 1]), "integer", 300),  # 2 divides f(0) = 2 once but f(2) = 4
    (IntPoly([0, 0, 9]), "integer", 200),
    (IntPoly([-7, 0, 1]), "integer", 200),
    (IntPoly([4, 5, 12]), "rational", 12),  # f(4/3) = 2**5, where 3 | lead and 5 X ties it
    # row 1's class tables mod 64 and 27, where u's class may fix the valuation e of f(u)
    (IntPoly([0, 0, 8]), "integer", 200),  # e = 3 at 18**3 (u = 27), e = 5 at 2**5 (u = 2)
    (IntPoly([0, 0, 0, 2]), "integer", 200),  # e = 4 at 2**4 (u = 2) and 108**2 (u = 18)
    (IntPoly([-16, 0, 0, 1]), "integer", 200),  # e = 3 at (-2)**3 (u = 2); e = 4 at -16
    (IntPoly([-32, 0, 8]), "integer", 200),  # zeros at u = +-2, e = 5 at (-2)**5 (u = 0)
    (IntPoly([0, 0, 0, 0, 0, 1]), "integer", 200),  # 2**35 at u = 128: e >= 6 fixes nothing
    (IntPoly([-64, 1]), "integer", 200),  # 2**7 at u = 192, whose class has f(0) = -64
    (IntPoly([0, 0, 8]), "rational", 40),  # the same classes on row 1 of a rational scan
]


# the bench sets, and integer sets whose rows fit class tables of period 64 and 27, or 32 and 27
MASKED_SCANS = BENCH_SCANS + [
    (["-32", "-8", "1", "64"], "integer", 600),
    (["-1", "9"], "integer", 400),
    (["0", "16", "128"], "integer", 300),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("values, variant, window", MASKED_SCANS)
def test_masked_scan_equals_the_per_point_scan(monkeypatch, values, variant, window, workers):
    art = construct(PowerSetInput.from_values(values, variant=variant))
    masked = verify_construction(art, window, workers=workers)
    assert masked == _reference(monkeypatch, verify_construction, art, window, workers=workers)
    assert masked.passed


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("values, variant, window", BENCH_SCANS)
def test_a_scan_reports_the_same_whether_f_was_built_before_it_or_not(values, variant, window,
                                                                      workers):
    # the scan builds f only where the sieve reads a valuation, in each worker that does
    inp = PowerSetInput.from_values(values, variant=variant)
    fresh, built = construct(inp), construct(inp)
    assert built.f.degree == built.degree == fresh.degree
    assert verify_construction(fresh, window, workers=workers) == verify_construction(
        built, window, workers=workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("f, variant, window", BARE_SCANS)
def test_masked_scan_equals_the_per_point_scan_on_bare_polynomials(
    monkeypatch, f, variant, window, workers
):
    masked = verify_polynomial(f, [], variant, window, workers=workers)
    assert masked == _reference(
        monkeypatch, verify_polynomial, f, [], variant, window, workers=workers
    )
    assert workers > 1 or _masked_out_powers(f, variant, window) == []


def test_masked_scan_equals_the_per_point_scan_on_random_input(monkeypatch, power_pool):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    integers = [b for b in power_pool if b.denominator == 1]
    settings = hypothesis.settings(max_examples=40, deadline=None, database=None)

    @settings
    @hypothesis.given(
        st.lists(st.sampled_from(power_pool), min_size=1, max_size=2, unique=True),
        st.booleans(),
        st.integers(1, 9),
    )
    def sets(elements, integer, window):
        if integer:
            elements, window = [b for b in elements if b in integers] or [4], 30 * window
        art = construct(PowerSetInput(tuple(elements), "integer" if integer else "rational"))
        masked = verify_construction(art, window)
        assert masked == _reference(monkeypatch, verify_construction, art, window)

    @settings
    @hypothesis.given(
        st.lists(st.integers(-12, 12), min_size=1, max_size=6),
        st.sampled_from(["rational", "integer"]),
        st.integers(1, 12),
    )
    def polynomials(coeffs, variant, window):
        f, window = IntPoly(coeffs), window * (10 if variant == "integer" else 1)
        masked = verify_polynomial(f, [], variant, window)
        assert masked == _reference(monkeypatch, verify_polynomial, f, [], variant, window)

    sets()
    polynomials()


@pytest.mark.parametrize("values, variant, window", BENCH_SCANS)
def test_the_sieve_masks_out_no_power_of_a_bench_set(values, variant, window):
    art = construct(PowerSetInput.from_values(values, variant=variant))
    assert _masked_out_powers(art.f, variant, window) == []


# (set, variant, window, points scanned, points evaluated, table values) for
# the scan-lowdeg sets; all three counts are deterministic.  The tables read
# f(0), f(1), ... only up to the period of the largest one built.
LOWDEG_EVALUATIONS = [
    (["9/25"], "rational", 110, 14863, 321, 169),
    (["0", "9/25", "-8"], "rational", 50, 3095, 102, 151),
    (["-1/8", "4/25"], "rational", 40, 1959, 167, 137),
    (["1/169"], "rational", 40, 1959, 39, 71),
    (["-1/343", "16/9"], "rational", 24, 719, 344, 23),
    (["4", "8", "36"], "integer", 20000, 40001, 201, 169),
]


def test_the_sieve_leaves_few_points_to_evaluate(monkeypatch):
    evaluated, survivors = [], []

    def counting(recipe, v, us, real=Recipe.row_values):
        us = list(us)
        evaluated.extend(us)
        return real(recipe, v, us)

    def surviving(mask, lo, real=verify._set_bits):
        us = list(real(mask, lo))
        survivors.extend(us)
        return iter(us)

    monkeypatch.setattr(Recipe, "row_values", counting)
    monkeypatch.setattr(verify, "_set_bits", surviving)
    for values, variant, window, points, evaluations, tables in LOWDEG_EVALUATIONS:
        art = construct(PowerSetInput.from_values(values, variant=variant))
        evaluated.clear()
        survivors.clear()
        assert verify_construction(art, window).points_scanned == points
        assert len(survivors) == evaluations, values
        assert len(evaluated) - len(survivors) == tables, values


def _row_one_kept(f, window):
    """The u of the one-worker sieve's row 1 that it keeps, decided from each f(u) alone.

    u goes where a prime l of ``_SMALL_PRIMES`` with l**2 at most the
    limit divides f(u) exactly once.  Of the moduli m = l**E, E >= 3 the
    most with m at most the limit and 64, those not dividing f(u) fix
    valuations e; where one is at least 1, u stays only if some prime p
    divides every such e and f(u) is 0 or a p-th power modulo each modulus
    of p's table up to the residue limit.  A residue modulus q is priced by
    its q values alone, q (deg f + 1) at most the row's points; the other
    tables also stay within the row.
    """
    n = 2 * window + 1
    residue_limit = n // (f.degree + 1)
    limit = min(n, residue_limit)
    cap = min(limit, 64)
    moduli = [max(l**e for e in range(3, 7) if l**e <= cap) for l in _SMALL_PRIMES if l**3 <= cap]
    kept = []
    for u in range(-window, window + 1):
        y = f(u)
        if any(y % l == 0 and y % (l * l) for l in _SMALL_PRIMES if l * l <= limit):
            continue
        fixed = [strip_prime(y, l)[0] for l, m in zip(_SMALL_PRIMES, moduli) if y % m]
        if not any(fixed) or any(
            all(e % p == 0 for e in fixed)
            and all(y % q == 0 or pow(y, c, q) == 1
                    for q, c in _residue_table(p) if q <= residue_limit)
            for p in _SMALL_PRIMES
        ):
            kept.append(u)
    return kept


@pytest.mark.parametrize("f, window", [
    *((f, window) for f, variant, window in BARE_SCANS[11:17]),
    (IntPoly([-64, 1]), 20),  # limit 20: one class table, of period 16
    (IntPoly([-16, 0, 0, 1]), 60),  # limit 30: periods 16 and 27
    (construct(PowerSetInput.from_values([4, 8, 36], variant="integer")).f, 2000),
])
def test_row_one_keeps_the_points_its_classes_and_residues_allow(f, window):
    n = 2 * window + 1
    sieve = verify._RowSieve(f, -window, n, n)
    assert list(verify._set_bits(sieve.mask(1), -window)) == _row_one_kept(f, window)


def _check_row_denominators(f, window):
    """Each row denominator the sieve gives is that of f(u/v) at every u prime to v.

    Returns the rows v > 1 where it gives one.
    """
    n = 2 * window + 1
    sieve = verify._RowSieve(f, -window, n, window * n)
    rows = []
    for v in range(2, window + 1):
        denominator = sieve.denominator(v)
        if denominator is None:
            continue
        rows.append(v)
        for u in range(-window, window + 1):
            if gcd(u, v) == 1:
                assert denominator == Fraction(f.eval_pair(u, v), v**f.degree).denominator, (u, v)
    return rows


@pytest.mark.parametrize("f", [
    IntPoly([1, 2, 4]),  # lead 4; on the rows 2 || v, 2 X ties 4 X**2 at the full exponent
    IntPoly([4, 5, 12]),  # lead 12; on the rows 3 || v, 5 X ties 12 X**2 below it
    IntPoly([9, -6, 0, 18]),
    IntPoly([2, 0, 27, 0, 27]),
    IntPoly([-3, 25, 0, 1875]),  # 1875 = 3 * 5**4
    IntPoly([0, 0, 0, 32]),  # 32 (u/v)**3 is an integer on the rows 2 || v
])
def test_the_row_denominator_is_that_of_every_value_on_its_row(f):
    assert len(_check_row_denominators(f, 30)) > 10


def test_the_row_denominator_of_a_scan_lowdeg_set():
    # f of degree 9 with lead 5**16: on the rows 5 || v one 5 of v**9 is left,
    # so no value there is a power; on the rows 25 || v two terms tie
    f = construct(PowerSetInput.from_values(["9/25"])).f
    sieve = verify._RowSieve(f, -50, 101, 50 * 101)
    assert [sieve.denominator(v) for v in (5, 10, 25, 50)] == [5, 2**9 * 5, None, None]
    assert len(_check_row_denominators(f, 50)) == 49 - 2


def test_the_row_denominator_on_random_polynomials():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    shared = st.sampled_from([1, 2, 3, 4, 5, 9, 12, 18, 25, 27])

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        st.sampled_from([4, 12, 18, 27, 1875]),
        st.lists(st.tuples(st.integers(-5, 5), shared), max_size=5),
    )
    def polynomials(lead, lower):
        # coefficients that share primes with the lead, so that terms tie
        _check_row_denominators(IntPoly([a * b for a, b in lower] + [lead]), 20)

    polynomials()


@pytest.mark.parametrize("f", [IntPoly([3, -1, 0, 2, 5]), IntPoly([-9, 0, 0, 0, 4]),
                               IntPoly([2, 0, 1])])
def test_tables_follow_their_definitions(f):
    values = [f(t) for t in range(49)]
    for l in (2, 3, 5, 7):
        table = verify._allowed(values, 0, l)
        # l divides f(t) exactly once for no t that survives
        assert list(table) == [f(t) % l != 0 or f(t) % (l * l) == 0 for t in range(l * l)]
    for p, q in ((2, 3), (2, 11), (3, 7), (3, 13), (5, 11)):
        table = verify._allowed(values, p, q)
        powers = {pow(x, p, q) for x in range(q)}  # 0 and the p-th power residues
        assert list(table) == [f(t) % q in powers for t in range(q)]


@pytest.mark.parametrize(
    "mutant, case",
    [
        ("mutant_flipped_entry", BARE_SCANS[0]),  # loses 1/16 = (1/4)**2
        ("mutant_guard_dropped", BARE_SCANS[1]),  # loses 4/3, on the row 3 = q
        ("mutant_period_l", BARE_SCANS[7]),  # loses 2, as f(0) = 2
        ("mutant_lead_dropped", BARE_SCANS[2]),  # loses 1/2: 4 is no cube mod 7
        ("mutant_tie_taken", BARE_SCANS[10]),  # loses 4/3, on a row read as no power
    ],
)
def test_each_sieve_mutant_masks_out_a_power(request, monkeypatch, mutant, case):
    f, variant, window = case
    assert _masked_out_powers(f, variant, window) == []
    reference = _reference(monkeypatch, verify_polynomial, f, [], variant, window)
    request.getfixturevalue(mutant)
    assert _masked_out_powers(f, variant, window) != []
    assert verify_polynomial(f, [], variant, window) != reference


# the rational sets scan-lowdeg draws with seed 3, and those of scan-highdeg, at their heights,
# with the rows whose values cancel: rows sharing a prime with lead f that the sieve leaves a point
CANCELLING_SCANS = [
    (["9/25"], 110, {25, 50, 75, 100}),
    (["0", "9/25", "-8"], 50, {5, 25, 50}),
    (["-1/8", "4/25"], 40, {8, 24, 25, 32, 36, 40}),
    (["9/49"], 40, set()),
    (["4/169", "81/16"], 24, {2, 4, 8, 13, 16}),
    (["1/10201"], 9, set()),
    (["1/49", "8/27", "4/121"], 8, {3, 6, 7}),
]


@pytest.mark.parametrize("values, window, cancelling", CANCELLING_SCANS)
def test_the_scan_decomposes_each_value_as_its_pair_in_lowest_terms(monkeypatch, values, window,
                                                                    cancelling):
    art = construct(PowerSetInput.from_values(values))
    recipe, deg = art.recipe, art.degree
    rows, pairs = [], []

    def surviving(mask, lo, real=verify._set_bits):
        rows.append(list(real(mask, lo)))  # one call per row, v = 1, 2, ... on one worker
        return iter(rows[-1])

    def recorded(num, den=1):
        pairs.append((num, den))
        return decompose_rational_power(num, den)

    monkeypatch.setattr(verify, "_set_bits", surviving)
    monkeypatch.setattr(verify, "decompose_rational_power", recorded)
    report = verify_construction(art, window)
    points = [(u, v) for v, us in enumerate(rows, 1) for u in us]
    assert len(points) == len(pairs) and report.passed
    reduced = set()
    for (u, v), (num, den) in zip(points, pairs):
        [(_, value)] = recipe.row_values(v, [u])
        assert type(num) is int and den >= 1 and gcd(num, den) == 1, (u, v)
        assert Fraction(num, den) == Fraction(value, v**deg), (u, v)
        if den != v**deg:
            reduced.add(v)
    assert reduced == cancelling and all(gcd(v, art.f.coeffs[-1]) > 1 for v in reduced)


def test_skipping_the_points_that_cancel_loses_the_hit_9_25(request):
    art = construct(PowerSetInput.from_values(["9/25"]))
    assert Fraction(9, 25) in {h.x for h in verify_construction(art, 25).hits}
    request.getfixturevalue("mutant_cancelling_points_skipped")
    report = verify_construction(art, 25)
    assert Fraction(9, 25) not in {h.x for h in report.hits}
    assert report.missing == (Fraction(9, 25),) and not report.passed


@pytest.mark.parametrize("m, n", [(1, 5), (3, 3), (3, 10), (7, 23), (13, 221), (20, 7)])
def test_tile_repeats_the_pattern_to_the_last_bit(m, n):
    for pattern in (0, 1, (1 << m) - 1, 0b1011 % (1 << m), 1 << (m - 1)):
        tiled = verify._tile(pattern, m, n)
        assert tiled.bit_length() <= n
        assert all((tiled >> i & 1) == (pattern >> i % m & 1) for i in range(n))


@pytest.mark.parametrize("lo, n", [(-7, 23), (-110, 221), (-20000, 40001), (5, 1), (-3, 10)])
def test_row_patterns_at_the_window_edges(lo, n):
    # bit i stands for u = lo + i: a negative lo and a length n that no period divides
    f = IntPoly([3, -1, 0, 2, 5])
    sieve = verify._RowSieve(f, lo, n, 10**6)
    for p, m in ((0, 2), (0, 3), (2, 5), (3, 7), (2, 11)):
        table = verify._allowed([f(t) for t in range(m * m)], p, m)
        period = len(table)
        assert period == (m * m if p == 0 else m)
        for v in range(1, 15):
            if v % m == 0:
                continue
            vinv = pow(v, -1, period)
            expected = [u for u in range(lo, lo + n) if table[u * vinv % period]]
            assert list(verify._set_bits(sieve._sift(sieve.full, p, m, v), lo)) == expected


def test_a_table_that_keeps_every_class_leaves_the_mask_as_it_is():
    # 2 X + 1 is odd, so 2 divides none of its values exactly once
    odd = verify._RowSieve(IntPoly([1, 2]), -10, 21, 21)
    for v in (1, 3, 5):
        for mask in (odd.full, 0b1011 << 7):
            assert odd._sift(mask, 0, 2, v) == mask
    assert odd._tables[0, 2] == () and not odd._masks  # nothing tiled or kept
    # X drops one class of the four mod 4, t = 2 where 2 || t: the u = 2 v mod 4
    x = verify._RowSieve(IntPoly([0, 1]), -10, 21, 21)
    for v in (1, 3, 5):
        kept = list(verify._set_bits(x._sift(x.full, 0, 2, v), -10))
        assert kept == [u for u in range(-10, 11) if (u - 2 * v) % 4]
    assert x._tables[0, 2] == (4, [2], False)


# sets whose one-worker scan uses residue moduli q longer than its rows of 2H+1 points
LONG_MODULUS_SCANS = [
    (["-1/8", "4/25"], 40, {(17, 103), (17, 137)}),  # degree 17, rows of 81
    (["8/343"], 30, {(3, 67)}),  # degree 25, rows of 61
]


@pytest.mark.parametrize("values, window, long", LONG_MODULUS_SCANS)
def test_masked_scan_equals_the_per_point_scan_with_moduli_longer_than_the_row(
    monkeypatch, values, window, long
):
    art = construct(PowerSetInput.from_values(values))
    built = []

    def recorded(values, p, m, l=0, real=verify._allowed):
        built.append((p, m, l))
        return real(values, p, m, l)

    with monkeypatch.context() as patched:
        patched.setattr(verify, "_allowed", recorded)
        masked = verify_construction(art, window)
    assert {(p, m) for p, m, l in built if p and not l and m > 2 * window + 1} == long
    assert masked == _reference(monkeypatch, verify_construction, art, window)
    assert masked.passed
    assert _masked_out_powers(art.f, "rational", window) == []


def test_a_scan_payload_pickles_the_same_before_and_after_f_is_read(monkeypatch):
    # a recipe's payload is (pairs, k, s) and the chunk, never the f of degree 361
    art = construct(PowerSetInput.from_values(["1/49", "8/27", "4/121"]))
    sizes = []

    def pickled(worker, payloads, workers):
        sizes.append([len(pickle.dumps(p)) for p in payloads])
        return map(worker, payloads)

    monkeypatch.setattr(verify, "map_chunks", pickled)
    assert verify_construction(art, 2, workers=2).passed
    assert art.f.degree == 361
    assert verify_construction(art, 2, workers=2).passed
    assert sizes[0] == sizes[1] and len(sizes[0]) == 2 and max(sizes[0]) < 1000
