import pickle
from fractions import Fraction

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
