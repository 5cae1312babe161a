from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from power_forge import powers
from power_forge.construct import PowerSetInput, construct
from power_forge.ntheory import integer_nth_root, primes_up_to
from power_forge.powers import (
    PowerDecomposition,
    decompose_integer_power,
    decompose_rational_power,
    is_rational_perfect_power,
)

EXPONENTS = primes_up_to(97)


def bruteforce_power_table(limit):
    """value -> (canonical base, maximal exponent), by plain enumeration."""
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


def test_fringe_conventions():
    assert decompose_integer_power(0) == PowerDecomposition(Fraction(0), 2)
    assert decompose_integer_power(1) == PowerDecomposition(Fraction(1), 2)
    assert decompose_integer_power(-1) == PowerDecomposition(Fraction(-1), 3)
    assert decompose_rational_power(Fraction(0)) == PowerDecomposition(Fraction(0), 2)
    assert decompose_rational_power(Fraction(-1)) == PowerDecomposition(Fraction(-1), 3)


def test_decompose_integer_against_table():
    limit = 60000
    table = bruteforce_power_table(limit)
    for n in range(-limit, limit + 1):
        dec = decompose_integer_power(n)
        if n in table:
            assert dec is not None, n
            assert (dec.base, dec.exponent) == table[n], n
        else:
            assert dec is None, n


def test_negative_values_need_odd_exponents():
    assert decompose_integer_power(-4) is None
    assert decompose_integer_power(-16) is None
    assert decompose_integer_power(-64) == PowerDecomposition(Fraction(-4), 3)
    assert decompose_integer_power(-512) == PowerDecomposition(Fraction(-2), 9)


def test_decompose_integer_maximality(rng):
    for _ in range(400):
        a = rng.randint(2, 500)
        e = rng.randint(2, 9)
        n = a**e
        dec = decompose_integer_power(n)
        assert dec is not None
        assert dec.base**dec.exponent == n
        assert dec.exponent >= e and dec.exponent % e == 0
        # the base must not decompose any further
        if dec.base not in (0, 1, -1):
            assert decompose_integer_power(dec.base.numerator) is None


def test_decompose_rational_roundtrip(rng):
    for _ in range(400):
        u = rng.randint(-60, 60)
        v = rng.randint(1, 60)
        b = Fraction(u, v)
        e = rng.randint(2, 6)
        if b < 0 and e % 2 == 0:
            e += 1
        q = b**e
        dec = decompose_rational_power(q)
        assert dec is not None, (b, e)
        assert dec.base**dec.exponent == q
        if q not in (0, 1, -1):  # fringe exponents are pinned by convention
            assert dec.exponent >= e
            assert decompose_rational_power(dec.base) is None


def test_decompose_rational_known_values():
    assert decompose_rational_power(Fraction(9, 25)) == PowerDecomposition(Fraction(3, 5), 2)
    assert decompose_rational_power(Fraction(-8, 27)) == PowerDecomposition(Fraction(-2, 3), 3)
    assert decompose_rational_power(Fraction(1, 16)) == PowerDecomposition(Fraction(1, 2), 4)
    assert decompose_rational_power(Fraction(64)) == PowerDecomposition(Fraction(2), 6)
    for q in (Fraction(2, 3), Fraction(4, 5), Fraction(27, 16), Fraction(-9, 25)):
        assert decompose_rational_power(q) is None, q


def test_membership_pool_cross_check(power_pool):
    # the generated pool and the membership predicate must agree exactly
    every = (Fraction(u, v) for v in range(1, 51) for u in range(-50, 51) if gcd(u, v) == 1)
    scanned = [q for q in every if is_rational_perfect_power(q)]
    assert sorted(scanned) == power_pool


def test_integer_membership_consistency():
    table = bruteforce_power_table(3000)
    for n in range(-3000, 3001):
        assert (decompose_integer_power(n) is not None) == (n in table)


def test_power_decomposition_validation():
    with pytest.raises(ValueError):
        PowerDecomposition(Fraction(2), 1)
    dec = PowerDecomposition(Fraction(3, 5), 2)
    assert dec.value == Fraction(9, 25)


def fresh_residue_caches(monkeypatch):
    """Empty residue tables, residue sets and groups of first moduli for one test, so that
    what large values build stays out of the shared caches."""
    monkeypatch.setattr(powers, "_RESIDUE_TABLES", {})
    monkeypatch.setattr(powers, "_RESIDUE_SETS", {})
    monkeypatch.setattr(powers, "_FIRST_MODULI", {})


def _signed(rng, base, p):
    return -base if p % 2 and rng.random() < 0.5 else base


def differential_inputs(rng):
    """Random values, near-powers, true and nested powers, rational powers."""
    values = []
    for _ in range(150):
        n = rng.getrandbits(rng.randint(2, 4000))
        values.append(n if rng.random() < 0.5 else -n)
    for p in EXPONENTS:
        for _ in range(3):
            r = rng.randint(3, 2 ** rng.randint(2, 4000 // p))
            values += [_signed(rng, r, p) ** p, r**p + 1, r**p - 1]
    for inner, outer in ((3, 5), (2, 2), (2, 3), (5, 7), (3, 3), (2, 11)):
        r = rng.randint(2, 10**6)
        values.append((_signed(rng, r, inner * outer) ** inner) ** outer)
    for p in EXPONENTS[:12]:
        for _ in range(4):
            a, c = rng.randint(1, 10**12), rng.randint(2, 10**12)
            base = Fraction(_signed(rng, a, p), c)
            values += [base**p, base**p + Fraction(1, c)]
    return [Fraction(v) for v in values if v not in (0, 1, -1)]


def test_decompose_matches_sympy_perfect_power(rng):
    sympy = pytest.importorskip("sympy")
    for value in differential_inputs(rng):
        got = decompose_rational_power(value)
        if value.denominator == 1:
            assert decompose_integer_power(value.numerator) == got, value
        want = sympy.perfect_power(sympy.Rational(value.numerator, value.denominator))
        if want is False:
            assert got is None, value
        else:
            base, exponent = sympy.Rational(want[0]), want[1]
            assert got == PowerDecomposition(Fraction(int(base.p), int(base.q)), exponent), value


def test_large_small_prime_valuations_match_sympy(rng, monkeypatch):
    # the valuations of 2, 3 and 5 are counted with O(log v) divisions
    sympy = pytest.importorskip("sympy")
    fresh_residue_caches(monkeypatch)
    values = [2**1997 * (rng.randint(3, 10**6) | 1), 3**1200, 2**1200 * 3**600 * 5**300]
    for _ in range(4):
        a, b, c = rng.randint(1, 900), rng.randint(1, 600), rng.randint(1, 400)
        values.append(2**a * 3**b * 5**c)
    for base in list(values):
        for p in (2, 3, 5, 7):
            values.append(base**p)
    for value in [v + d for v in values for d in (-1, 0, 1)]:
        got = decompose_integer_power(value)
        want = sympy.perfect_power(value)
        if want is False:
            assert got is None, value
        else:
            assert got == PowerDecomposition(Fraction(int(want[0])), want[1]), value


def test_residue_sieve_passes_every_true_power(rng):
    for p in EXPONENTS + [1009]:
        for _ in range(40):
            r = rng.getrandbits(rng.randint(1, 200))
            assert powers._may_be_power(r**p, p), (r, p)
    for p, table in powers._RESIDUE_TABLES.items():
        assert len(table) == powers._RESIDUE_PRIMES_PER_EXPONENT
        for q, cofactor in table:
            assert all(q % d for d in range(2, isqrt(q) + 1)), (p, q)
            assert q % p == 1 and cofactor * p == q - 1, (p, q)
            for r in range(40):
                assert powers._may_be_power(r**p, p)
    for p, sets in powers._RESIDUE_SETS.items():
        assert len(sets) in (1, powers._RESIDUE_PRIMES_PER_EXPONENT), p
        assert [q for _, q, _ in sets] == [q for q, _ in powers._residue_table(p)[: len(sets)]], p
        for entry_p, q, residues in sets:
            # as many residues as there are p-th powers, each one by Euler's criterion
            assert entry_p == p and len(residues) == (q - 1) // p + 1 and 0 in residues, (p, q)
            assert all(pow(r, (q - 1) // p, q) == 1 for r in residues if r), (p, q)


def test_non_powers_extract_almost_no_roots(rng, monkeypatch):
    calls = []
    real_root = powers.integer_nth_root

    def counted(n, e):
        calls.append(e)
        return real_root(n, e)

    monkeypatch.setattr(powers, "integer_nth_root", counted)
    # 17 * m with 17 not dividing m is no power; m has no prime factor up to
    # 13 by which the decomposer could narrow the candidate exponents
    values = []
    for _ in range(20):
        m = 30030 * rng.getrandbits(4000) + 1
        if m % 17 == 0:
            m += 30030  # 30030 = 8 (mod 17)
        values.append(17 * m)
    assert all(decompose_integer_power(n) is None for n in values)
    assert len(calls) <= 2, calls


def test_residue_tables_match_the_miller_rabin_ones(monkeypatch):
    # the moduli read off the sieve are the ones a primality test per candidate
    # finds; trial division here, so the reference shares no code with the sieve
    monkeypatch.setattr(powers, "_RESIDUE_TABLES", {})
    monkeypatch.setattr(powers, "_RESIDUE_SETS", {})
    monkeypatch.setattr(powers, "_PRIME_FLAGS", bytearray())
    for p in primes_up_to(1999):
        want, q = [], 1
        while len(want) < powers._RESIDUE_PRIMES_PER_EXPONENT:
            q += p
            if all(q % d for d in range(2, isqrt(q) + 1)):
                want.append((q, (q - 1) // p))
        # the residue sets find their first modulus alone, and the other seven after it
        assert [q for _, q, _ in powers._residue_sets(p, 1)] == [want[0][0]], p
        assert [q for _, q, _ in powers._residue_sets(p, len(want))] == [q for q, _ in want], p
        assert powers._residue_table(p) == tuple(want), p


def test_residue_sets_are_the_p_th_powers_mod_q(monkeypatch):
    # by a pass over all of Z/q, which the sets are built without
    monkeypatch.setattr(powers, "_RESIDUE_SETS", {})
    for p in primes_up_to(1100):
        count = powers._RESIDUE_PRIMES_PER_EXPONENT if p <= 100 else 1
        for entry_p, q, residues in powers._residue_sets(p, count):
            assert entry_p == p and residues == {pow(x, p, q) for x in range(q)}, (p, q)
            assert len(residues) == (q - 1) // p + 1, (p, q)


def reference_decompose(u, v):
    """The decomposer before the denominator memo: it sieves and roots v at every point."""
    if v == 1 and u in (0, 1):
        return PowerDecomposition(Fraction(u), 2)
    if v == 1 and u == -1:
        return PowerDecomposition(Fraction(-1), 3)
    sign = 1 if u > 0 else -1
    mu = abs(u)
    for p in powers._candidate_prime_exponents(v if v > 1 else mu):
        if sign < 0 and p == 2:
            continue
        if not ((v == 1 or powers._may_be_power(v, p)) and powers._may_be_power(mu, p)):
            continue
        vroot, exact = (1, True) if v == 1 else integer_nth_root(v, p)
        if not exact:
            continue
        uroot, exact = integer_nth_root(mu, p)
        if not exact:
            continue
        inner = reference_decompose(sign * uroot, vroot)
        if inner is None:
            return PowerDecomposition(Fraction(sign * uroot, vroot), p)
        return PowerDecomposition(inner.base, inner.exponent * p)
    return None


def repeated_denominator_values():
    """b**e * (u/v): along each (b, e, v) the reduced denominator takes few values."""
    values = []
    for b in (Fraction(2, 3), Fraction(-5, 7), Fraction(1, 12), Fraction(9, 4)):
        for e in (2, 3, 4, 6, 12):
            for v in range(1, 21):
                values += [b**e * Fraction(u, v) for u in range(-60, 61)]
    return values


def scan_values():
    """The values the scan decomposes: f(u/v) of a construction, rows of height <= 12."""
    f = construct(PowerSetInput.from_values(["9/25", "-1/8"])).f
    return [f(Fraction(u, v)) for v in range(1, 13) for u in range(-12, 13) if gcd(u, v) == 1]


def test_decompose_matches_the_reference_on_every_small_fraction():
    for v in range(1, 301):
        for u in range(-300, 301):
            if gcd(u, v) == 1:
                assert powers._decompose(u, v) == reference_decompose(u, v), (u, v)


def test_decompose_matches_the_reference_on_repeated_denominators():
    hits = 0
    for q in repeated_denominator_values() + scan_values():
        got = powers._decompose(*q.as_integer_ratio())
        assert got == reference_decompose(*q.as_integer_ratio()), q
        hits += got is not None
    assert hits > 1000  # the memo serves true powers, not only misses


def test_denominator_memo_does_not_change_results(rng):
    values = repeated_denominator_values()[::7] + scan_values()
    warm = {q: decompose_rational_power(q) for q in values}
    rng.shuffle(values)
    for q in values:
        powers._denominator_roots.cache_clear()
        assert decompose_rational_power(q) == warm[q], q
    rng.shuffle(values)
    assert [decompose_rational_power(q) for q in values] == [warm[q] for q in values]


def test_denominator_roots_are_exact_and_complete():
    for v in [2**12, 3**30, 6**35, 10**7 * 7**14, 5**49, 12**6 + 1] + list(range(2, 400)):
        roots = powers._denominator_roots(v)
        assert [p for p, _ in roots] == sorted(p for p, _ in roots)
        assert all(root**p == v for p, root in roots), v
        want = [p for p in primes_up_to(v.bit_length()) if integer_nth_root(v, p)[1]]
        assert [p for p, _ in roots] == want, v


def test_repeated_denominators_match_sympy_perfect_power():
    sympy = pytest.importorskip("sympy")
    values = repeated_denominator_values()[::5] + scan_values()
    for q in values:
        if q in (0, 1, -1):
            continue
        got = decompose_rational_power(q)
        want = sympy.perfect_power(sympy.Rational(q.numerator, q.denominator))
        if want is False:
            assert got is None, q
        else:
            base = sympy.Rational(want[0])
            assert got == PowerDecomposition(Fraction(int(base.p), int(base.q)), want[1]), q


# -- one reduction for every candidate exponent of an integer ------------------


def decompose_by_candidates(n, rooted):
    """The integer path before the one reduction: each candidate p reduces all of |n| against
    every modulus of its table.  Appends each (|n|, p) whose root it takes to ``rooted``."""
    if n in (0, 1):
        return PowerDecomposition(Fraction(n), 2)
    if n == -1:
        return PowerDecomposition(Fraction(-1), 3)
    sign, mu = (1, n) if n > 0 else (-1, -n)
    for p in powers._candidate_prime_exponents(mu):
        if (sign > 0 or p != 2) and powers._may_be_power(mu, p):
            rooted.append((mu, p))
            root, exact = integer_nth_root(mu, p)
            if exact:
                inner = decompose_by_candidates(sign * root, rooted)
                if inner is None:
                    return PowerDecomposition(Fraction(sign * root), p)
                return PowerDecomposition(inner.base, inner.exponent * p)
    return None


def big_integer_values(rng):
    """Integers of 3,000-4,000 bits and their negatives: r**p for every prime p <= bits / 4,
    r**p + 1 and r**p - 1, and values whose small primes have valuations with a common factor."""
    values = []
    for p in primes_up_to(1000):
        r = rng.randint(integer_nth_root(2**3000, p)[0] + 1, integer_nth_root(2**4000 - 2, p)[0])
        values += [r**p, r**p + 1, r**p - 1]
    for g in (2, 3, 5, 6, 7, 10, 30, 210):
        for _ in range(4):
            smooth = prod(l ** (g * rng.randint(0, 60 // g + 1)) for l in (2, 3, 5, 7, 11, 13))
            bits = (3300 - smooth.bit_length()) // g + 1
            r = rng.getrandbits(bits) | 1 << (bits - 1)
            values += [smooth * r**g, smooth * r**g * rng.choice((2, 3, 13))]
    return [sign * v for v in values for sign in (1, -1)]


def test_one_reduction_rejects_what_each_candidate_rejects(rng, monkeypatch):
    # the same decomposition, and a root taken for the same (|n|, p), in the same order
    fresh_residue_caches(monkeypatch)
    rooted = []
    real_root = powers.integer_nth_root

    def recorded(n, e):
        rooted.append((n, e))
        return real_root(n, e)

    monkeypatch.setattr(powers, "integer_nth_root", recorded)
    hits = 0
    for n in big_integer_values(rng):
        assert 3000 <= n.bit_length() <= 4000, n
        rooted.clear()
        got = powers._decompose(n, 1)
        want_rooted = []
        assert got == decompose_by_candidates(n, want_rooted), n
        assert rooted == want_rooted, n
        hits += got is not None
    assert hits > 350  # every r**p, the negatives of odd p, and the smooth powers


def test_big_integers_match_sympy_perfect_power(rng, monkeypatch):
    sympy = pytest.importorskip("sympy")
    fresh_residue_caches(monkeypatch)
    for n in big_integer_values(rng)[::5]:
        got = decompose_integer_power(n)
        want = sympy.perfect_power(n)
        if want is False:
            assert got is None, n
        else:
            assert got == PowerDecomposition(Fraction(int(want[0])), want[1]), n


def test_the_product_of_first_moduli_is_memoised_and_bounded(monkeypatch):
    monkeypatch.setattr(powers, "_FIRST_MODULI", {})
    monkeypatch.setattr(powers, "_FIRST_MODULI_MEMO_SIZE", 3)
    many = tuple(primes_up_to(1000))
    for exponents in ((), (2,), (3, 5), (2, 3, 5, 7), many):
        groups = powers._first_moduli(exponents)
        firsts = [first for _, group in groups for first in group]
        assert [p for p, _, _ in firsts] == list(exponents)
        for first in firsts:
            p, q, _ = first
            assert q == powers._residue_table(p)[0][0]
            # one entry per prime, shared with _may_be_power's sets: the memo holds references
            assert first is powers._residue_sets(p, 1)[0]
        for i, (product, group) in enumerate(groups):
            assert group and product == prod(q for _, q, _ in group)
            bits = [q.bit_length() for _, q, _ in group]
            # every group but the last reaches the width, and only with its last modulus
            if i < len(groups) - 1:
                assert sum(bits) - bits[-1] < powers._GROUP_BITS <= sum(bits)
            else:
                assert sum(bits) - bits[-1] < powers._GROUP_BITS
        assert powers._first_moduli(exponents) is groups
    assert len(powers._first_moduli(many)) > 3  # a few words per group, not one product
    assert list(powers._FIRST_MODULI) == [(2, 3, 5, 7), many]  # emptied when full, then refilled


def test_a_moduli_product_missing_a_modulus_loses_true_powers(rng, request):
    squares = [(rng.getrandbits(1600) | 1) ** 2 for _ in range(30)]
    assert all(decompose_integer_power(n) is not None for n in squares)
    request.getfixturevalue("mutant_first_modulus_left_out")
    assert any(decompose_integer_power(n) is None for n in squares)


# -- grouped remainders and residue lookups against each candidate alone -------


def decompose_by_each_candidate(n):
    """Every candidate p of |n| tried alone: ``_may_be_power(|n|, p)``, then the exact root."""
    sign, mu = (1, n) if n > 0 else (-1, -n)
    for p in powers._candidate_prime_exponents(mu):
        if (sign > 0 or p != 2) and powers._may_be_power(mu, p):
            root, exact = integer_nth_root(mu, p)
            if exact:
                inner = decompose_by_each_candidate(sign * root) if root > 1 else None
                if inner is None:
                    return PowerDecomposition(Fraction(sign * root), p)
                return PowerDecomposition(inner.base, inner.exponent * p)
    return None


def coprime_big_values(rng):
    """(value, p or None) for integers of 1,000-6,000 bits with no prime factor up to 13:
    r**p for every prime p <= bits / 4 (r < 0 for half the odd p; r >= 17, so p <= 1,467),
    r**p + 1 and r**p - 1 where r can be a multiple of 30030, and random values; p is the
    exponent of a true power."""
    values = []
    for p in primes_up_to(1467):
        lo = integer_nth_root(2 ** max(1000, 4 * p), p)[0] + 1
        hi = integer_nth_root(2**6000 - 2, p)[0]
        r = rng.randint(lo, hi)
        while gcd(r, 30030) != 1:
            r = rng.randint(lo, hi)
        values.append((_signed(rng, r, p) ** p, p))
        if hi // 30030 > lo // 30030:
            near = 30030 * rng.randint(lo // 30030 + 1, hi // 30030)
            values += [(near**p + 1, None), (near**p - 1, None)]
    for _ in range(100):
        m = rng.getrandbits(rng.randint(1000, 5999)) | 1 << 5999
        values.append((m - m % 30030 + 1, None))
    assert all(gcd(v, 30030) == 1 and 1000 <= abs(v).bit_length() <= 6000 for v, _ in values)
    return values


def test_grouped_residues_decompose_like_each_candidate_alone(rng, monkeypatch):
    fresh_residue_caches(monkeypatch)
    hits = 0
    for n, p in coprime_big_values(rng):
        got = decompose_integer_power(n)
        assert got == decompose_by_each_candidate(n), n
        if p is not None:
            assert got is not None and got.base**got.exponent == n and got.exponent % p == 0, (n, p)
            hits += 1
    assert hits == len(primes_up_to(1467))


def test_powers_of_the_small_primes_decompose():
    # which small primes divide m is read from one gcd; a prime it misses is never stripped,
    # and a power of 13 alone then bounds its exponent below the true one
    for l in powers._SMALL_PRIMES:
        for e in range(2, 41):
            for sign in (1, -1) if e % 2 else (1,):
                want = PowerDecomposition(Fraction(sign * l), e)
                assert decompose_integer_power(sign * l**e) == want, (l, e)
                assert decompose_integer_power((sign * 17 * l) ** e).exponent == e, (l, e)
    assert decompose_integer_power(2**5 * 13**5) == PowerDecomposition(Fraction(26), 5)
