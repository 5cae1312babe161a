from math import isqrt, prod

import pytest

from power_forge.ntheory import (
    factor_integer,
    integer_nth_root,
    prime_flags,
    primes_up_to,
    strip_prime,
)


def sieve_reference(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return [i for i, f in enumerate(flags) if f]


def test_primes_up_to_matches_reference():
    assert primes_up_to(500) == sieve_reference(500)
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(3) == [2, 3]


def test_prime_flags_mark_exactly_the_primes():
    primes = set(sieve_reference(500))
    assert prime_flags(500) == bytearray(n in primes for n in range(501))
    for limit in (-3, 0, 1):
        assert prime_flags(limit) == bytearray(2)
    assert prime_flags(2) == bytearray((0, 0, 1))


def test_integer_nth_root_exact_roundtrip(rng):
    for _ in range(1500):
        a = rng.randint(0, 10**9)
        e = rng.randint(1, 12)
        root, exact = integer_nth_root(a**e, e)
        assert exact and root == a
        if a >= 2 and e >= 2:
            root, exact = integer_nth_root(a**e - 1, e)
            assert root == a - 1 and not exact
            root, exact = integer_nth_root(a**e + 1, e)
            assert root == a and not exact


def test_integer_nth_root_floor_property(rng):
    for _ in range(1500):
        n = rng.randint(0, 10**15)
        e = rng.randint(2, 10)
        root, exact = integer_nth_root(n, e)
        assert root**e <= n < (root + 1) ** e
        assert exact == (root**e == n)


def test_integer_nth_root_negative_and_errors():
    assert integer_nth_root(-27, 3) == (-3, True)
    assert integer_nth_root(-28, 3) == (-3, False)  # sign-symmetric: -root(28, 3)
    assert integer_nth_root(-1, 5) == (-1, True)
    assert integer_nth_root(0, 7) == (0, True)
    with pytest.raises(ValueError):
        integer_nth_root(-4, 2)
    with pytest.raises(ValueError):
        integer_nth_root(5, 0)


def test_integer_nth_root_big_values():
    a = 10**40 + 3
    assert integer_nth_root(a**3, 3) == (a, True)
    assert integer_nth_root(2**600, 100) == (64, True)


def _bisection_root(n, e):
    """Floor e-th root of n >= 1 by binary search: the root before precision doubling."""
    lo = 1 << ((n.bit_length() - 1) // e)
    hi = (lo << 1) - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if mid**e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _assert_root_matches_bisection(n, e):
    root, exact = integer_nth_root(n, e)
    assert root**e <= n < (root + 1) ** e, (n, e)
    reference = _bisection_root(n, e)
    assert (root, exact) == (reference, reference**e == n), (n, e)


def _near_powers(r, e):
    return [n for n in (r**e - 1, r**e, r**e + 1) if n >= 1]


def test_integer_nth_root_matches_bisection(rng):
    for e in range(3, 201):
        # sizes log-uniform up to 20,000 bits: the reference's cost grows with the root
        bits = max(1, int(2 ** rng.uniform(0, 14.3)) // e)
        r = rng.getrandbits(bits) | 1 << (bits - 1)
        for n in _near_powers(r, e) + [rng.getrandbits(rng.randint(1, e * bits + e))]:
            if n >= 1:
                _assert_root_matches_bisection(n, e)
    for e, bits in ((17, 1176), (61, 328), (200, 100)):  # values of about 20,000 bits
        r = rng.getrandbits(bits) | 1 << (bits - 1)
        for n in _near_powers(r, e):
            _assert_root_matches_bisection(n, e)


def test_integer_nth_root_at_the_recursion_base(rng):
    # roots of 1 bit end the recursion; 2 and 3 bits recurse once, on a 1-bit root
    for e in (3, 4, 5, 7, 31, 97, 200):
        for n in range(1, 4**e, max(1, 4**e // 5000)):
            _assert_root_matches_bisection(n, e)
        for r in (1, 2, 3, 4, 7, 8):
            for n in _near_powers(r, e):
                _assert_root_matches_bisection(n, e)


def test_integer_nth_root_at_machine_word_sizes(rng):
    # roots of 63, 64 and 65 bits: the size of a machine word and one bit either side
    for e in (3, 5, 7, 31, 97, 200):
        for bits in (63, 64, 65):
            for r in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)):
                for n in _near_powers(r, e):
                    _assert_root_matches_bisection(n, e)


def test_integer_nth_root_matches_bisection_on_random_input():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 2**100), st.integers(3, 200), st.integers(-1, 1),
                      st.integers(1, 2**3000))
    def roots(r, e, offset, n):
        if r**e + offset >= 1:
            _assert_root_matches_bisection(r**e + offset, e)
        _assert_root_matches_bisection(n, e)

    roots()


SMALL_PRIMES = tuple(sieve_reference(1000))


def test_factor_integer_recomposes(rng):
    # smooth n: the cofactor is 1 and the primes found recompose |n|
    for _ in range(250):
        n = prod(rng.choice(SMALL_PRIMES) ** rng.randint(1, 5) for _ in range(rng.randint(0, 6)))
        found, rest = factor_integer(rng.choice((n, -n)), SMALL_PRIMES)
        assert rest == 1
        assert prod(p**e for p, e in found) == n
        assert all(e >= 1 and p in SMALL_PRIMES for p, e in found)
        assert [p for p, _ in found] == sorted({p for p, _ in found})


def test_factor_integer_edges():
    with pytest.raises(ValueError):
        factor_integer(0, SMALL_PRIMES)
    assert factor_integer(1, SMALL_PRIMES) == ((), 1)
    assert factor_integer(-1, SMALL_PRIMES) == ((), 1)
    assert factor_integer(2, SMALL_PRIMES) == (((2, 1),), 1)
    assert factor_integer(-1225, SMALL_PRIMES) == (((5, 2), (7, 2)), 1)
    assert factor_integer(2**20, SMALL_PRIMES) == (((2, 20),), 1)
    assert factor_integer(997 * 991, SMALL_PRIMES) == (((991, 1), (997, 1)), 1)
    assert factor_integer(12, ()) == ((), 12)


def test_factor_integer_beyond_trial_division():
    # what has no prime up to the limit is left as the cofactor, prime or not
    primes = SMALL_PRIMES[:25]  # up to 97
    for big in (101, 101 * 103, 1009**3, 10**30 + 57, (10**30 + 57) * (10**34 + 193)):
        for smooth in (1, 2, 97, 2**7 * 3**5 * 97**2):
            want = factor_integer(smooth, primes)[0]
            assert factor_integer(-smooth * big, primes) == (want, big), (smooth, big)
    # the last prime below the limit is found though its square is past what is left
    assert factor_integer(2 * 97, primes) == (((2, 1), (97, 1)), 1)


def test_factor_integer_matches_sympy_factorint(rng):
    # on the part made of primes up to the limit; the rest is the cofactor
    sympy = pytest.importorskip("sympy")
    values = [1, 2, 2**61 - 1, 3**40, 10007**3 * 65537, 2**89 - 1, 997**4 * 1009]
    for _ in range(120):
        values.append(rng.randint(2, 10**15))
    for n in values:
        want = sympy.factorint(n)
        smooth = {p: e for p, e in want.items() if p <= SMALL_PRIMES[-1]}
        rest = prod(p**e for p, e in want.items() if p > SMALL_PRIMES[-1])
        for signed in (n, -n):
            found, cofactor = factor_integer(signed, SMALL_PRIMES)
            assert (dict(found), cofactor) == (smooth, rest), signed


def test_strip_prime_against_repeated_division(rng):
    for p in (2, 3, 5, 7, 13, 1009):
        for _ in range(60):
            v = rng.choice((0, 1, 2, rng.randint(3, 300), rng.randint(300, 3000)))
            r = rng.randint(1, 10**30) * rng.choice((1, -1))
            while r % p == 0:
                r //= p
            assert strip_prime(p**v * r, p) == (v, r), (p, v)
    with pytest.raises(ValueError):
        strip_prime(0, 3)
