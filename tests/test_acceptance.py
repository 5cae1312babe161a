"""Acceptance suite: one check per shipped claim, one reported line each.

Every comparison is exact integer or rational arithmetic; the only
tolerances are the wall-clock budgets attached to the heavy scans.  Each
criterion records one PASS/FAIL line through the ``report`` fixture;
conftest prints them all in an "acceptance criteria" section at the end
of the run, so they survive pytest's output capture.
"""

import time
from fractions import Fraction
from math import gcd

from power_forge.construct import PowerSetInput, construct
from power_forge.oracles import (
    catalan_expected,
    fermat_quartic_expected,
    lebesgue_expected,
    search_catalan,
    search_fermat_quartic,
    search_lebesgue,
)
from power_forge.poly import IntPoly
from power_forge.powers import decompose_integer_power, decompose_rational_power
from power_forge.verify import trace_quantities, verify_construction, verify_polynomial


def test_criterion_1_integer_set_exhaustive_scan(report):
    t0 = time.perf_counter()
    art = construct(PowerSetInput.from_values([4, 8, 36], variant="integer"))
    rep = verify_construction(art, 10_000)
    elapsed = time.perf_counter() - t0
    hits = {(h.x, h.value) for h in rep.hits}
    ok = (
        rep.passed
        and hits == {(Fraction(b), Fraction(b)) for b in (4, 8, 36)}
        and rep.points_scanned == 20_001
        and elapsed < 60
    )
    report(1, "integer set {4,8,36}: scan of |x| <= 10^4 hits exactly the set", ok, elapsed, 60)


def test_criterion_2_rational_singleton_scan(report):
    t0 = time.perf_counter()
    art = construct(PowerSetInput.from_values(["9/25"]))
    rep = verify_construction(art, 300)
    elapsed = time.perf_counter() - t0
    b = Fraction(9, 25)
    ok = (
        art.k == 4
        and art.f.degree == 9
        and rep.passed
        and [(h.x, h.value) for h in rep.hits] == [(b, b)]
        and elapsed < 120
    )
    report(2, "set {9/25}: k=4, deg f=9, height-300 scan hits only (9/25, 9/25)", ok, elapsed, 120)


def test_criterion_3_fixed_points_random_sets(rng, power_pool, report):
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        S = rng.sample(power_pool, rng.randint(1, 4))
        art = construct(PowerSetInput(tuple(S)))
        for beta in art.input.elements:
            if art.f(beta) != beta or art.g(beta) != 1 or art.h(beta) != beta:
                ok = False
    elapsed = time.perf_counter() - t0
    report(3, "50 random sets (|S| <= 4, heights <= 50): every element is a fixed point", ok, elapsed)


def test_criterion_4_lebesgue_box(report):
    t0 = time.perf_counter()
    sol = search_lebesgue(10_000, 20)
    elapsed = time.perf_counter() - t0
    ok = (
        {s[0] for s in sol.solutions} == {0}
        and set(sol.solutions) == set(lebesgue_expected(10_000, 20))
        and elapsed < 10
    )
    report(4, "X^2 + 1 = Y^n for |X| <= 10^4, n <= 20: only X = 0", ok, elapsed, 10)


def test_criterion_5_catalan_box(report):
    t0 = time.perf_counter()
    sol = search_catalan(100, 20)
    elapsed = time.perf_counter() - t0
    ok = sol.solutions == ((3, 2, 2, 3),) == catalan_expected(100, 20) and elapsed < 10
    report(5, "X^m - Y^n = 1 for bases <= 100, exponents <= 20: only 3^2 - 2^3", ok, elapsed, 10)


def test_criterion_6_fermat_quartic_boxes(report):
    t0 = time.perf_counter()
    cn = search_fermat_quartic(150, 8, variant="cn")
    two_cn = search_fermat_quartic(150, 8, variant="2cn")
    two4n = search_fermat_quartic(150, 8, variant="24n")
    elapsed = time.perf_counter() - t0
    ok = (
        {(s[0], s[1]) for s in cn.solutions} == {(0, 1), (0, -1), (1, 0), (-1, 0)}
        and set(cn.solutions) == set(fermat_quartic_expected(150, 8, "cn"))
        and {(s[0], s[1]) for s in two_cn.solutions}
        == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        and set(two_cn.solutions) == set(fermat_quartic_expected(150, 8, "2cn"))
        and two4n.solutions == ()
        and elapsed < 60
    )
    report(6, "quartic boxes |A|,|B| <= 150, n <= 8: trivial families only, fourth variant empty", ok, elapsed, 60)


def test_criterion_7_trace_invariants_random(rng, power_pool, report):
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        S = rng.sample(power_pool, rng.randint(0, 4))
        pairs = tuple((b.numerator, b.denominator) for b in S)
        if S and rng.random() < 0.15:
            x = rng.choice(S)
        else:
            x = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        if not trace_quantities(pairs, x).ok:
            ok = False
    elapsed = time.perf_counter() - t0
    report(7, "1000 random (set, point) traces: all six invariants hold", ok, elapsed)


def _integer_power_table(limit):
    table = {0: (0, 2), 1: (1, 2), -1: (-1, 3)}
    a = 2
    while a * a <= limit:
        v, n = a * a, 2
        while v <= limit:
            if v not in table or n > table[v][1]:
                table[v] = (a, n)
            v, n = v * a, n + 1
        a += 1
    a = 2
    while a**3 <= limit:
        v, n = a**3, 3
        while v <= limit:
            if -v not in table or n > table[-v][1]:
                table[-v] = (-a, n)
            v, n = v * a * a, n + 2
        a += 1
    return table


def test_criterion_8_decomposition_sweeps(report):
    t0 = time.perf_counter()
    limit = 1_000_000
    table = _integer_power_table(limit)
    ok = True
    for n in range(-limit, limit + 1):
        dec = decompose_integer_power(n)
        if n in table:
            if dec is None or (dec.base, dec.exponent) != table[n]:
                ok = False
        elif dec is not None:
            ok = False
    fringe = {Fraction(0), Fraction(1), Fraction(-1)}  # pinned exponents by convention
    for v in range(1, 21):
        for u in range(-20, 21):
            if gcd(u, v) != 1:
                continue
            b = Fraction(u, v)
            for e in range(2, 7):
                q = b**e
                dec = decompose_rational_power(q)
                if dec is None or dec.base**dec.exponent != q:
                    ok = False
                elif q not in fringe and dec.exponent < e:
                    ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(8, "decomposer vs brute-force table on [-10^6, 10^6] and all b^e, height(b) <= 20, e <= 6", ok, elapsed, 60)


def test_criterion_9_adversarial_square_fails(report):
    t0 = time.perf_counter()
    rep = verify_polynomial(IntPoly([0, 0, 1]), [], variant="rational", bound=30)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict == "FAIL" and len(rep.extras) > 0
    report(9, "adversarial f = X^2 against the empty set: verdict FAIL with extras", ok, elapsed)
