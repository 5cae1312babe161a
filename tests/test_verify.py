from fractions import Fraction
from math import gcd, prod

import pytest

from power_forge.construct import PowerSetInput, construct, element_pairs
from power_forge.poly import IntPoly
from power_forge.verify import (
    InvariantViolation,
    _row_values,
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
    rep = verify_polynomial(IntPoly.monomial(2), [], variant="rational", bound=10)
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
    with pytest.raises(ValueError):
        verify_construction(art, 0)
    with pytest.raises(ValueError):
        verify_polynomial(IntPoly([2]), [Fraction(1, 2)], variant="integer", bound=5)
    with pytest.raises(ValueError):
        verify_polynomial(IntPoly([2]), [], variant="p-adic", bound=5)


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
    with pytest.raises(ValueError):
        trace_quantities(((9, 25),), Fraction(1, 2), k=6)
    with pytest.raises(ValueError):
        trace_quantities(((9, 25),), Fraction(1, 2), k=2)
    with pytest.raises(ValueError):
        trace_quantities(((9, 25),), Fraction(1, 2), k=0)


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
    f, recipe = art.f, (art.pairs, art.k, art.s)
    if variant == "integer":
        xs = range(-window, window + 1)
        assert list(_row_values(f, recipe, 1, xs)) == [(x, f(x)) for x in xs]
        return
    for v in range(1, window + 1):
        us = [u for u in range(-window, window + 1) if gcd(u, v) == 1]
        assert list(_row_values(f, recipe, v, us)) == [(u, f.eval_pair(u, v)) for u in us]
