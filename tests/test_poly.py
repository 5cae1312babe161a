import pickle
from fractions import Fraction
from math import isqrt
from time import perf_counter

import pytest

from power_forge.poly import IntPoly, rational_roots


def random_poly(rng, max_deg=6, span=50):
    return IntPoly([rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))])


def test_construction_trims_and_validates():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly().degree == -1
    assert not IntPoly()
    assert IntPoly([5]).degree == 0
    with pytest.raises(TypeError):
        IntPoly([1.5])
    with pytest.raises(TypeError):
        IntPoly([Fraction(1, 2)])


def test_constructors():
    assert IntPoly.linear(25, 9).coeffs == (-9, 25)  # 25 X - 9


def test_immutability_and_hash():
    p = IntPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert p == IntPoly([1, 2])
    assert p != IntPoly([1, 2, 3])
    assert p != "nope"
    assert IntPoly([7]) == 7 and IntPoly() == 0
    assert len({IntPoly([1, 2]), IntPoly([1, 2]), IntPoly([2, 1])}) == 2


def test_ring_ops_agree_with_pointwise_evaluation(rng):
    for _ in range(300):
        p = random_poly(rng)
        q = random_poly(rng)
        x = rng.randint(-20, 20)
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (-p)(x) == -p(x)
        c = rng.randint(-10, 10)
        assert (c * p)(x) == c * p(x)
        assert (p + c)(x) == p(x) + c
        assert (c - p)(x) == c - p(x)


def test_power_matches_repeated_multiplication(rng):
    for _ in range(60):
        p = random_poly(rng, max_deg=3, span=9)
        n = rng.randint(0, 6)
        expected = IntPoly([1])
        for _ in range(n):
            expected = expected * p
        assert p**n == expected
    with pytest.raises(ValueError):
        IntPoly([1, 1]) ** -1


def _power_by_repeated_product(p, n):
    out = IntPoly([1])
    for _ in range(n):
        out = out * p
    return out


def test_miller_power_matches_repeated_product(rng):
    # Miller's recurrence against the schoolbook product, including zero
    # constant terms (the recurrence divides by the lowest nonzero coefficient)
    for degree in range(5):
        for _ in range(6):
            coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-3, -1, 1, 2))]
            if rng.random() < 0.4:
                coeffs[0] = 0
            p = IntPoly(coeffs)
            for n in range(41):
                assert p**n == _power_by_repeated_product(p, n), (coeffs, n)
    for n in range(41):
        assert IntPoly() ** n == _power_by_repeated_product(IntPoly(), n)
    assert IntPoly() ** 0 == IntPoly([1]) and IntPoly() ** 3 == IntPoly()
    assert IntPoly([0, 0, 1]) ** 5 == IntPoly([0] * 10 + [1])
    with pytest.raises(ValueError):
        IntPoly() ** -1


def test_evaluation_at_fractions_is_exact():
    p = IntPoly([1, 0, 1])  # X^2 + 1
    assert p(Fraction(1, 2)) == Fraction(5, 4)
    assert p(3) == 10 and isinstance(p(3), int)
    q = IntPoly([-9, 25])
    assert q(Fraction(9, 25)) == 0


def test_eval_pair_is_homogeneous(rng):
    for _ in range(300):
        p = random_poly(rng)
        u = rng.randint(-30, 30)
        v = rng.randint(1, 30)
        d = max(p.degree, 0)
        assert Fraction(p.eval_pair(u, v), v**d) == p(Fraction(u, v))
    assert IntPoly().eval_pair(3, 4) == 0


def test_lead_and_str():
    p = IntPoly([-9, 0, 25])
    assert p.lead == 25
    assert "IntPoly" in repr(p)
    with pytest.raises(ValueError):
        IntPoly().lead


def test_rational_roots_recovers_planted_roots(rng):
    for _ in range(150):
        planted = set()
        p = IntPoly([1])
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(-12, 12)
            c = rng.randint(1, 12)
            p = p * IntPoly.linear(c, a)
            planted.add(Fraction(a, c))
        # multiply in a rootless quadratic to add noise
        p = p * IntPoly([1, 0, 1])
        assert rational_roots(p) == sorted(planted)


def test_rational_roots_edges():
    assert rational_roots(IntPoly([-9, 0, 25])) == [Fraction(-3, 5), Fraction(3, 5)]
    assert rational_roots(IntPoly([0, 0, 7])) == [0]
    assert rational_roots(IntPoly([1, 0, 1])) == []
    assert rational_roots(IntPoly([5])) == []
    with pytest.raises(ValueError):
        rational_roots(IntPoly())


def test_rational_roots_of_linear_polynomials():
    for a in range(-50, 51):
        for c in [*range(-50, 0), *range(1, 51)]:
            p = IntPoly([-a, c])  # c X - a; a = 0 leaves a constant after X is shifted out
            assert rational_roots(p) == [Fraction(a, c)]
            assert p(Fraction(a, c)) == 0
    big = IntPoly([-(10**30 + 1), 3 * 10**30])
    assert rational_roots(big) == [Fraction(10**30 + 1, 3 * 10**30)]


def _divisors(n):
    """The positive divisors of n != 0, by trial division."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def reference_rational_roots(p):
    """The divisor search the p-adic lift replaced: each r/s, r | q_0 and s | lead q, evaluated."""
    coeffs, roots = list(p.coeffs), set()
    while coeffs[0] == 0:
        coeffs.pop(0)
        roots.add(Fraction(0))
    q = IntPoly(coeffs)
    for s in _divisors(q.lead):
        for r in _divisors(q.coeffs[0]):
            roots.update(Fraction(u, s) for u in (r, -r) if q.eval_pair(u, s) == 0)
    return sorted(roots)


def _cauchy_family():
    """(X - r)(X - 1): the root r sits near the Cauchy bound 2 + |r| of the polynomial."""
    return [IntPoly.linear(1, r) * IntPoly.linear(1, 1) for r in range(-300, 301)]


def test_rational_roots_match_the_divisor_search(rng):
    polys = []
    for _ in range(300):
        p = random_poly(rng, max_deg=3, span=9)
        for _ in range(rng.randint(0, 3)):
            # planted roots, some of them double
            p = p * IntPoly.linear(rng.randint(1, 6), rng.randint(-9, 9)) ** rng.randint(1, 2)
        if p:
            polys.append(p)
    assert sum(len(reference_rational_roots(p)) for p in polys) > 300
    for p in polys + _cauchy_family():
        assert rational_roots(p) == reference_rational_roots(p), p


def test_a_lift_stopped_at_half_the_bound_loses_a_root(request):
    # X**2 - 201 X + 200 has simple roots 0 and 1 mod 2, so it lifts mod 2**8 = 256;
    # that passes max |Q_i| = 201 but not 2 (1 + 201), and 200 reads as 200 - 256
    p = IntPoly.linear(1, 200) * IntPoly.linear(1, 1)
    assert rational_roots(p) == [1, 200]
    request.getfixturevalue("mutant_short_lift")
    assert rational_roots(p) == [1]
    assert any(rational_roots(q) != reference_rational_roots(q) for q in _cauchy_family())


def _quadratic_roots(p):
    """The rational roots of a quadratic, read off its discriminant."""
    c0, c1, c2 = p.coeffs
    disc = c1 * c1 - 4 * c2 * c0
    root = isqrt(max(disc, 0))
    if root * root != disc:
        return []
    return sorted({Fraction(-c1 - root, 2 * c2), Fraction(-c1 + root, 2 * c2)})


def test_rational_roots_past_the_divisor_search():
    # constant terms of hundreds to thousands of digits, which the divisor search
    # would have had to factor
    start = perf_counter()
    for n in (50, 300, 2000):
        # (X - 3**n)(X - 3**n - 2) + 1 = (X - 3**n - 1)**2
        P = IntPoly.linear(1, 3**n) * IntPoly.linear(1, 3**n + 2)
        assert rational_roots(P + 1) == [3**n + 1]
        assert rational_roots(P - 1) == _quadratic_roots(P - 1)
    P = IntPoly.linear(1, 3**300) * IntPoly.linear(1, 4)
    for shifted in (P - 1, P + 1):
        assert rational_roots(shifted) == _quadratic_roots(shifted)
    # monic, so a rational root is an integer x; X - 4 and X - 9 cannot both be -+1 there
    P = IntPoly.linear(1, 3**9500) * IntPoly.linear(1, 4) * IntPoly.linear(1, 9)
    assert rational_roots(P - 1) == rational_roots(P + 1) == []
    big = IntPoly.linear(1, 3**300) * IntPoly.linear(5**40, -(7**90)) * IntPoly([1, 0, 1])
    assert rational_roots(big) == [Fraction(-(7**90), 5**40), 3**300]
    assert perf_counter() - start < 1


def _sympy_poly(sympy, p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], sympy.Symbol("x"), domain="ZZ")


def test_mul_and_pow_match_sympy_poly(rng):
    sympy = pytest.importorskip("sympy")
    for _ in range(80):
        a, b = random_poly(rng, max_deg=8, span=10**6), random_poly(rng, max_deg=8, span=10**6)
        assert _sympy_poly(sympy, a * b) == _sympy_poly(sympy, a) * _sympy_poly(sympy, b)
        n = rng.randint(0, 12)
        assert _sympy_poly(sympy, a**n) == _sympy_poly(sympy, a) ** n
    # a zero constant term goes through the X**z shift of Miller's recurrence
    p = IntPoly([0, 0, 3, -1, 2])
    assert _sympy_poly(sympy, p**7) == _sympy_poly(sympy, p) ** 7


def test_rational_roots_match_sympy(rng):
    sympy = pytest.importorskip("sympy")
    polys = []
    for _ in range(80):
        p = random_poly(rng, max_deg=5, span=30)
        for _ in range(rng.randint(0, 3)):
            p = p * IntPoly.linear(rng.randint(1, 15), rng.randint(-15, 15))
        if p:
            polys.append(p)
    for p in polys:
        _, factors = _sympy_poly(sympy, p).factor_list()
        want = sorted(
            Fraction(int(-c0), int(c1))
            for factor, _ in factors
            if factor.degree() == 1
            for c1, c0 in [factor.all_coeffs()]
        )
        assert rational_roots(p) == want, p


def test_pickle_roundtrip():
    p = IntPoly([1, -2, 3])
    assert pickle.loads(pickle.dumps(p)) == p
    assert pickle.loads(pickle.dumps(IntPoly())) == IntPoly()
