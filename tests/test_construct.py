import importlib
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import prod

import pytest

from power_forge.construct import (
    ConstructionArtifacts,
    DEFAULT_POLICY,
    PowerSetInput,
    SelectionPolicy,
    build_g_h_f,
    build_root_product,
    compute_k,
    construct,
    element_pairs,
    estimate_capacity,
    find_deltas,
    recipe_text,
    select_offset_exponent,
    text_bits,
)
from power_forge.errors import CapacityError, ValidationError
from power_forge.jsonio import _int_text
from power_forge.oracles import MAX_SCAN_BITS
from power_forge.poly import IntPoly


def test_input_validation_names_offenders():
    with pytest.raises(ValidationError, match="2/3"):
        PowerSetInput.from_values(["4", "2/3"])
    with pytest.raises(ValidationError, match="duplicate"):
        PowerSetInput.from_values(["4", "8/2"])
    with pytest.raises(ValidationError, match="integers"):
        PowerSetInput.from_values(["9/25"], variant="integer")
    with pytest.raises(ValidationError, match="12"):
        PowerSetInput.from_values([12], variant="integer")
    with pytest.raises(ValidationError):
        PowerSetInput.from_values(["abc"])
    with pytest.raises(ValidationError, match="variant"):
        PowerSetInput.from_values([4], variant="galactic")


def test_input_sorts_and_normalizes():
    inp = PowerSetInput.from_values(["36", "4/1", "-8"])
    assert inp.elements == (Fraction(-8), Fraction(4), Fraction(36))
    assert element_pairs(inp) == ((-8, 1), (4, 1), (36, 1))
    assert len(inp) == 3
    inp2 = PowerSetInput.from_values([])
    assert inp2.elements == ()


def test_input_reads_values_past_the_str_digit_limit():
    # 4 * 10**5000 = (2**2501 * 5**2500)**2, in 5,001 digits: more than int() reads
    inp = PowerSetInput.from_values(["4" + "0" * 5000, "-8/27"])
    assert inp.elements == (Fraction(-8, 27), Fraction(4 * 10**5000))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), Decimal("NaN"), Decimal("-Infinity")])
def test_input_refuses_values_that_are_no_rational(value):
    with pytest.raises(ValidationError, match="cannot parse"):
        PowerSetInput.from_values([4, value])


def test_compute_k_from_denominator_primes():
    assert compute_k(()) == 4
    assert compute_k(((9, 25),)) == 4  # 5 - 1 = 4
    assert compute_k(((1, 27),)) == 4  # 3 - 1 = 2 divides 4
    assert compute_k(((1, 49),)) == 12  # 7 - 1 = 6
    assert compute_k(((1, 4), (8, 27), (4, 49))) == 12
    assert compute_k(((1, 289),)) == 16  # 17 - 1 = 16


def test_find_deltas_single_element():
    # P = X - 4, so P -+ 1 has roots 5 and 3
    assert find_deltas(((4, 1),)) == (Fraction(3), Fraction(5))
    # P = 25 X - 9
    assert find_deltas(((9, 25),)) == (Fraction(8, 25), Fraction(2, 5))
    # P -+ 1 is linear, so the 144-digit a -+ 1 is never factored
    a = 3**300
    assert find_deltas(((a, 1),)) == (Fraction(a - 1), Fraction(a + 1))
    assert find_deltas(((a, 2**61),)) == (Fraction(a - 1, 2**61), Fraction(a + 1, 2**61))


def test_find_deltas_can_be_empty():
    # (X-4)(X-9) -+ 1 has square-free discriminants 29 and 21
    assert find_deltas(((4, 1), (9, 1))) == ()


def test_find_deltas_excludes_zero():
    # P = X - 1: P - 1 has root 2... and P + 1 has root 0, which is dropped
    assert find_deltas(((1, 1),)) == (Fraction(2),)


def test_build_root_product():
    P = build_root_product(((9, 25), (4, 1)))
    assert P == IntPoly.linear(25, 9) * IntPoly.linear(1, 4)
    assert P(Fraction(9, 25)) == 0 and P(4) == 0


def test_estimate_capacity_known_values():
    e12 = estimate_capacity(Fraction(12))
    assert (e12.log2_bound, e12.last_power_index, e12.value) == (4, 3, 4)
    assert estimate_capacity(Fraction(20)).value == 5
    assert estimate_capacity(Fraction(8, 5)).value == 1
    assert estimate_capacity(Fraction(32, 25)).value == 1
    # 1 - 2^1 = -1 is a cube, so the scan channel reaches index 1
    e1 = estimate_capacity(Fraction(1))
    assert (e1.log2_bound, e1.last_power_index, e1.value) == (0, 1, 1)
    with pytest.raises(ValidationError):
        estimate_capacity(Fraction(0))


def test_estimate_capacity_respects_t_max():
    shallow = SelectionPolicy(t_max=0, kappa_cap=20)
    e = estimate_capacity(Fraction(12), shallow)
    assert e.last_power_index is None and e.value == 4


def test_select_offset_exponent():
    s, kappa, ests = select_offset_exponent(())
    assert (s, kappa, ests) == (1, 1, ())
    s, kappa, _ = select_offset_exponent((Fraction(5),))  # D(20) = 5 -> s = 7
    assert (s, kappa) == (7, 3)
    with pytest.raises(CapacityError, match="20"):
        select_offset_exponent((Fraction(5),), SelectionPolicy(t_max=64, kappa_cap=2))


def test_log2_bound_matches_the_shift_loop():
    # reference: the loop estimate_capacity used before its closed form
    def shift_loop(num, den):
        bound = 0
        while (den << bound) < num:
            bound += 1
        return bound

    no_scan = SelectionPolicy(t_max=0)
    for num in range(1, 201):
        for den in range(1, 201):
            expected = shift_loop(num, den)
            assert estimate_capacity(Fraction(num, den), no_scan).log2_bound == expected
            assert estimate_capacity(Fraction(-num, den), no_scan).log2_bound == expected


def test_kappa_matches_the_kappa_loop():
    # reference: the loop select_offset_exponent used before its closed form
    def kappa_loop(need, kappa_cap):
        for kappa in range(1, kappa_cap + 1):
            if (1 << kappa) - 1 >= need:
                return (1 << kappa) - 1, kappa
        return None

    needs = set()
    for gamma in range(1, 5001):
        # with t_max = 0 the estimate of gamma = 4 delta is its log2 bound alone
        delta = Fraction(gamma, 4)
        need = estimate_capacity(4 * delta, SelectionPolicy(t_max=0)).value
        needs.add(need)
        for kappa_cap in range(1, 15):
            policy = SelectionPolicy(t_max=0, kappa_cap=kappa_cap)
            expected = kappa_loop(need, kappa_cap)
            if expected is None:
                with pytest.raises(CapacityError):
                    select_offset_exponent((delta,), policy)
            else:
                assert select_offset_exponent((delta,), policy)[:2] == expected
    assert needs == set(range(14))


def test_selection_policy_validation():
    with pytest.raises(ValidationError):
        SelectionPolicy(t_max=-1)
    with pytest.raises(ValidationError):
        SelectionPolicy(kappa_cap=0)
    assert DEFAULT_POLICY.t_max == 64 and DEFAULT_POLICY.kappa_cap == 20


def test_build_g_h_f_matches_direct_expansion(rng):
    # the binomial route must agree with naive repeated multiplication
    for _ in range(40):
        pairs = tuple(
            (rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 3))
        )
        k = 4 * rng.randint(1, 3)
        s = rng.choice((0, 1, 3))
        g, h, f = build_g_h_f(pairs, k, s)
        g_direct = IntPoly([1])
        for a, c in pairs:
            g_direct = g_direct * IntPoly.linear(c, a) ** k
        g_direct = g_direct + 1
        assert g == g_direct
        assert h == IntPoly.linear(1, 2**s) * g_direct + 2**s
        assert f == g_direct * (IntPoly.linear(1, 2**s) * g_direct + 2**s)
    with pytest.raises(ValueError):
        build_g_h_f((), 4, 1)


def test_construct_worked_single_element():
    art = construct(PowerSetInput.from_values(["9/25"]))
    assert art.k == 4 and art.kappa == 1 and art.s == 1
    assert art.deltas == (Fraction(8, 25), Fraction(2, 5))
    assert all(e.value == 1 for e in select_offset_exponent(art.deltas)[2])
    assert art.g.degree == 4 and art.h.degree == 5 and art.f.degree == 9
    b = Fraction(9, 25)
    assert art.g(b) == 1 and art.h(b) == b and art.f(b) == b
    assert art.g == IntPoly.linear(25, 9) ** 4 + 1


def test_construct_integer_variant():
    art = construct(PowerSetInput.from_values([4, 8, 36], variant="integer"))
    g_expected = (
        IntPoly.linear(1, 4) ** 2 * IntPoly.linear(1, 8) ** 2 * IntPoly.linear(1, 36) ** 2
        + 1
    )
    assert art.g == g_expected
    assert art.h == IntPoly.linear(1, 1) * g_expected + 1
    assert art.f == art.g * art.h
    assert art.f.degree == 13
    assert art.k == 2 and art.s == 0 and art.kappa is None
    assert art.deltas is None
    for b in (4, 8, 36):
        assert art.f(b) == b


def test_construct_empty_set():
    art = construct(PowerSetInput.from_values([]))
    assert art.f == IntPoly([2])
    assert art.g is None and art.h is None and art.k is None and art.s is None
    assert "empty" in art.notes


def _text(poly):
    return [str(c) for c in poly.coeffs]


def test_artifacts_hold_the_polynomials_of_their_recipe():
    art = construct(PowerSetInput.from_values(["9/25"]))
    built = ConstructionArtifacts(input=art.input, k=4, s=1)
    assert (built.f, built.g, built.h) == (art.f, art.g, art.h)
    with pytest.raises(ValidationError, match="stored f has degree 2"):
        ConstructionArtifacts(input=art.input, k=4, s=1, text={"f": ["0", "0", "1"]})
    with pytest.raises(ValidationError, match="stored f$"):
        ConstructionArtifacts(input=art.input, k=4, s=1, text={"f": _text(art.f + 1)})
    with pytest.raises(ValidationError, match="stored g$"):
        ConstructionArtifacts(input=art.input, k=4, s=1, text={"g": _text(art.g + 1)})
    with pytest.raises(ValidationError, match="both or neither"):
        ConstructionArtifacts(input=art.input, k=4)
    with pytest.raises(ValidationError, match="both or neither"):
        ConstructionArtifacts(input=art.input, bare=art.f, s=1)
    with pytest.raises(ValidationError, match="need bare"):
        ConstructionArtifacts(input=PowerSetInput.from_values([]))
    with pytest.raises(ValidationError, match="kappa=2"):
        replace(art, kappa=2)


def test_a_replaced_recipe_builds_its_own_polynomials():
    art = construct(PowerSetInput.from_values(["9/25"]))
    old = art.f  # built and kept by art
    moved = replace(art, s=7, kappa=3)
    b = Fraction(9, 25)
    assert moved.f(b) == b and moved.f != old and art.f is old
    assert (moved.g, moved.h, moved.f) == build_g_h_f(art.pairs, 4, 7)
    with pytest.raises(ValidationError, match="^artifacts with a recipe have no bare$"):
        ConstructionArtifacts(input=art.input, bare=old, k=4, s=1)


def test_k_is_checked_with_or_without_f():
    # a recipe alone meets the same k tests as a recipe with its polynomials
    inp = PowerSetInput.from_values(["1/49"])
    assert compute_k(element_pairs(inp)) == 12
    assert ConstructionArtifacts(input=inp, k=24, s=1).f.degree == 49
    text = dict(zip("ghf", recipe_text(element_pairs(inp), 12, 1)))
    for k in (8, 4, 6, 0, -12):
        with pytest.raises(ValidationError, match=f"stored k={k} is not a positive multiple"):
            ConstructionArtifacts(input=inp, k=k, s=1)
        with pytest.raises(ValidationError, match=f"stored k={k} "):
            ConstructionArtifacts(input=inp, text=text, k=k, s=1)
    ints = PowerSetInput.from_values([4, 8], "integer")
    for k, s in ((4, 0), (2, 1)):
        with pytest.raises(ValidationError, match=f"not k={k}, s={s}"):
            ConstructionArtifacts(input=ints, k=k, s=s)


@pytest.mark.parametrize("s", [-1, 0])
def test_a_rational_recipe_needs_s_at_least_one(monkeypatch, s):
    # refused by the range of s before anything is built, with or without f
    construct_module = importlib.import_module("power_forge.construct")

    def no_build(*args):
        raise AssertionError("build_g_h_f called")

    inp = PowerSetInput.from_values(["9/25"])
    text = dict(zip("ghf", recipe_text(element_pairs(inp), 4, 1)))
    for name in ("build_g_h_f", "recipe_text"):
        monkeypatch.setattr(construct_module, name, no_build)
    with pytest.raises(ValidationError, match=f"^s={s} is out of range"):
        ConstructionArtifacts(input=inp, k=4, s=s)
    with pytest.raises(ValidationError, match=f"^s={s} is out of range"):
        ConstructionArtifacts(input=inp, text=text, k=4, s=s)


@pytest.mark.parametrize("s", [10**9, 10**12])
def test_a_huge_s_is_refused_before_anything_is_built(monkeypatch, s):
    construct_module = importlib.import_module("power_forge.construct")

    def no_build(*args):
        raise AssertionError("built a recipe")

    for name in ("build_g_h_f", "recipe_text"):
        monkeypatch.setattr(construct_module, name, no_build)
    with pytest.raises(ValidationError, match=f"^s={s} is out of range: f would hold"):
        ConstructionArtifacts(input=PowerSetInput.from_values(["9/25"]), k=4, s=s)


def _f_bits(f):
    return sum(abs(c).bit_length() for c in f.coeffs)


def test_the_size_cap_sits_far_above_every_built_recipe(monkeypatch):
    # the bound (2k|S| + 2)(s + 4 + 2k bits(N)), N = prod (|a_i| + c_i), of the largest
    # recipes of the benchmark and the tests lies between the real size of f and the cap
    construct_module = importlib.import_module("power_forge.construct")
    cap = construct_module._MAX_F_BITS
    for values in ([Fraction(1, 179**2)], [Fraction(1, 1009**2)], [Fraction(1, 2**2000)],
                   [3**9500], ["1/49", "8/27", "4/121"]):
        art = construct(PowerSetInput.from_values(values))
        n = prod(abs(a) + c for a, c in art.pairs)
        bound = (2 * art.k * len(art.input) + 2) * (art.s + 4 + 2 * art.k * n.bit_length())
        assert _f_bits(art.f) <= bound < cap
        # and it is the bound the refusal names
        with monkeypatch.context() as patched:
            patched.setattr(construct_module, "_MAX_F_BITS", bound - 1)
            with pytest.raises(ValidationError, match=f" up to {bound} bits with k={art.k}, "):
                ConstructionArtifacts(input=art.input, k=art.k, s=art.s)


def test_the_size_bound_holds_on_random_sets(monkeypatch, power_pool):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    construct_module = importlib.import_module("power_forge.construct")
    pool = [b for b in power_pool if max(abs(b.numerator), b.denominator) <= 16]

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True),
                      st.booleans())
    def sets(values, integer):
        values = [v for v in values if v.denominator == 1] if integer else values
        hypothesis.assume(values)
        inp = PowerSetInput.from_values(values, "integer" if integer else "rational")
        art = construct(inp)
        # a cap one bit below the real size of f must refuse the recipe
        with monkeypatch.context() as patched:
            patched.setattr(construct_module, "_MAX_F_BITS", _f_bits(art.f) - 1)
            with pytest.raises(ValidationError, match="f would hold up to"):
                ConstructionArtifacts(input=inp, k=art.k, s=art.s)

    sets()


def test_the_scan_depth_is_capped():
    # the cap of a gamma - 2**t scan, whose step gains at most 3 bits
    cap = MAX_SCAN_BITS // 3
    assert SelectionPolicy(t_max=cap).t_max == cap
    for t_max in (cap + 1, 10**20):
        with pytest.raises(ValidationError, match=f"t_max must be <= {cap}, got {t_max}"):
            SelectionPolicy(t_max=t_max)


def test_construct_fixed_points_random_sets(rng, power_pool):
    for _ in range(12):
        size = rng.randint(1, 4)
        S = rng.sample(power_pool, size)
        art = construct(PowerSetInput(tuple(S)))
        assert art.k % 4 == 0 and art.s >= 1
        assert art.f.degree == 2 * art.k * size + 1
        for b in art.input.elements:
            assert art.g(b) == 1
            assert art.h(b) == b
            assert art.f(b) == b


def test_construct_degree_formula_and_pairs_property():
    art = construct(PowerSetInput.from_values(["4", "-8/27"]))
    assert art.pairs == ((-8, 27), (4, 1))
    assert art.f.degree == 2 * art.k * 2 + 1


def test_construct_large_k_builds_with_fixed_point():
    # k = 1008 and degree 2017: multiplying out g * h takes minutes at this size
    b = Fraction(1, 1009**2)
    art = construct(PowerSetInput((b,)))
    assert art.k == 1008 and art.f.degree == 2017
    assert art.g(b) == 1 and art.h(b) == b and art.f(b) == b


@pytest.mark.parametrize("values", [["1/10201"], ["9/25"], ["1/49", "8/27", "4/121"]])
def test_certificate_refuses_a_wrong_recurrence(mutant_recurrence, values):
    inp = PowerSetInput.from_values(values)
    pairs = element_pairs(inp)
    P, k = build_root_product(pairs), compute_k(pairs)
    product = IntPoly([1])
    for _ in range(k):
        product = product * P
    # every division of the mutant is exact, so only the certificate sees it
    assert P**k != product
    art = construct(inp)  # decides the recipe and builds nothing
    with pytest.raises(ArithmeticError, match="certificate"):
        art.f
    # the decimal build runs the same recurrence, and its own certificate
    with pytest.raises(ArithmeticError, match="certificate"):
        recipe_text(pairs, k, 1)


@pytest.mark.parametrize(
    "values, index",
    [
        (["9/25"], 0),  # the constant term q_0
        (["9/25"], 2),
        (["9/25"], -1),  # the leading coefficient
        (["0", "9/25", "-8"], 0),  # a coefficient below X**(zn), which must be 0
        (["0", "9/25", "-8"], 4),  # the lowest nonzero one
        (["0", "9/25", "-8"], 9),
        (["1/49", "8/27", "4/121"], 100),
    ],
)
def test_certificate_refuses_one_wrong_coefficient(monkeypatch, values, index):
    power = IntPoly.__pow__

    def off_by_one(self, n):
        q = list(power(self, n).coeffs)
        q[index] += 1
        return IntPoly(q)

    monkeypatch.setattr(IntPoly, "__pow__", off_by_one)
    with pytest.raises(ArithmeticError, match="certificate"):
        construct(PowerSetInput.from_values(values)).f


def test_text_bits_is_the_bit_length_of_the_largest_value(rng):
    # counted up through powers of two in decimal; int() of the text is the reference
    edges = [n for e in (*range(70), 3321, 3322, 33219, 33220) for n in (2**e - 1, 2**e, 2**e + 1)]
    for n in edges:
        assert text_bits([_int_text(n), _int_text(-n // 3)]) == n.bit_length()
        assert text_bits([_int_text(-n)]) == n.bit_length()
    for _ in range(200):
        values = [rng.randint(-(10 ** rng.randint(0, 80)), 10 ** rng.randint(0, 80))
                  for _ in range(rng.randint(1, 6))]
        assert text_bits([str(v) for v in values]) == max(abs(v).bit_length() for v in values)
    assert text_bits([]) == text_bits(["0", "-0"]) == 0 and text_bits(["007", "-5"]) == 3
