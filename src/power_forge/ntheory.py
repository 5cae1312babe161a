"""Exact integer and rational kernels: primality, factorization, roots, valuations.

Arbitrary-precision integers are plain Python ``int``; rationals are
``fractions.Fraction`` (always lowest terms, positive denominator).  Every
function here is exact -- no floating point is used anywhere.

A factorization is a tuple of ``(prime, exponent)`` pairs with strictly
increasing primes whose product recomposes the factored magnitude.
"""

from __future__ import annotations

from math import gcd, isqrt
from random import Random

__all__ = [
    "integer_nth_root",
    "is_prime",
    "factor_integer",
    "divisors",
    "strip_prime",
    "primes_up_to",
    "prime_flags",
]


def integer_nth_root(n: int, e: int) -> tuple[int, bool]:
    """Floor e-th root of n with an exactness flag.

    For n >= 0 returns the unique r with r**e <= n < (r+1)**e; negative n
    requires odd e and is handled sign-symmetrically (the root of -n,
    negated).  The second component is True iff root**e == n.  Bit-exact,
    in ints only: ``math.isqrt`` for squares and precision doubling for
    every other exponent (Bernstein, Math. Comp. 67, 1998).

    Precision doubling, with R the real root and 2**q <= R < 2**(q+1):
    if q == 0 the root is 1; else drop h = (q + 1) // 2 low bits.  The floor root r0 of n >> (h*e),
    found the same way, is floor(R / 2**h), as an integer power r**e is
    at most floor(y) exactly when it is at most y; so r = (r0 + 1) << h
    exceeds R.  From any integer r > R, the integer Newton step
    ((e-1)*r + n // r**(e-1)) // e is below r, since n < r**e, and at
    least floor(R), by the AM-GM inequality (the floors may be taken
    last).  So the steps fall strictly to floor(R), where the next step
    is no smaller and the loop stops.  The start lies within 2**h of R,
    and quadratic convergence closes that in a few steps.

    >>> integer_nth_root(64, 3)
    (4, True)
    >>> integer_nth_root(65, 3)
    (4, False)
    >>> integer_nth_root(-27, 3)
    (-3, True)
    """
    if e < 1:
        raise ValueError(f"root exponent must be >= 1, got {e}")
    if n < 0:
        if e % 2 == 0:
            raise ValueError(f"even root ({e}) of negative integer {n}")
        r, exact = integer_nth_root(-n, e)
        return -r, exact
    if n == 0:
        return 0, True
    if e == 1:
        return n, True
    if e == 2:
        r = isqrt(n)
        return r, r * r == n
    r = _floor_root(n, e)
    return r, r**e == n


def _floor_root(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, e >= 2, as in ``integer_nth_root``."""
    q = (n.bit_length() - 1) // e  # 2**q <= root < 2**(q + 1)
    if q == 0:
        return 1
    h = (q + 1) >> 1
    r = (_floor_root(n >> (h * e), e) + 1) << h  # > n ** (1/e)
    while True:
        nxt = ((e - 1) * r + n // r ** (e - 1)) // e
        if nxt >= r:
            return r
        r = nxt


# Deterministic Miller-Rabin base set, valid for all n < 3,317,044,064,679,887,385,961,981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981
_MR_EXTRA_ROUNDS = 24


def _mr_witness(a: int, d: int, twos: int, n: int) -> bool:
    """True if a proves n composite."""
    a %= n
    if a <= 1:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(twos - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below ~3.3e24.

    Larger inputs additionally get extra rounds with bases drawn from a
    PRNG seeded by n itself, so results stay reproducible.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, twos = n - 1, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    if any(_mr_witness(a, d, twos, n) for a in _MR_BASES):
        return False
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = Random(n)
        extra = (rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS))
        if any(_mr_witness(a, d, twos, n) for a in extra):
            return False
    return True


def prime_flags(limit: int) -> bytearray:
    """Flags for 0, 1, ..., max(limit, 1): 1 at the primes, 0 elsewhere, by sieve."""
    limit = max(limit, 1)
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return sieve


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by sieve."""
    if limit < 2:
        return []
    return [i for i, flag in enumerate(prime_flags(limit)) if flag]


_TRIAL_LIMIT = 10_000
_TRIAL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT))


def _pollard_brent(n: int) -> int:
    """Nontrivial divisor of odd composite n (Brent's cycle variant).

    Deterministic: the polynomial increment c walks 1, 2, 3, ... until a
    divisor shows up, so repeated runs factor identically.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = (q * abs(x - y)) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factor_integer(n: int) -> tuple[tuple[int, int], ...]:
    """Complete factorization of |n| as ((prime, exponent), ...), primes ascending.

    Trial division by primes below 10^4, then recursive Pollard-Brent
    splitting with Miller-Rabin certification of every reported prime.

    >>> factor_integer(1225)
    ((5, 2), (7, 2))
    >>> factor_integer(1)
    ()
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        v, m = strip_prime(m, p)
        if v:
            counts[p] = v
    if m > 1:
        pending = [m]
        while pending:
            v = pending.pop()
            if v <= _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(v):
                # below the trial square every survivor is prime
                counts[v] = counts.get(v, 0) + 1
            else:
                d = _pollard_brent(v)
                pending.append(d)
                pending.append(v // d)
    return tuple(sorted(counts.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of |n|, ascending (n must be nonzero)."""
    divs = [1]
    for p, e in factor_integer(n):
        pk = 1
        block = list(divs)
        for _ in range(e):
            pk *= p
            divs.extend(d * pk for d in block)
    return sorted(divs)


def strip_prime(m: int, p: int) -> tuple[int, int]:
    """(v, m // p**v) for nonzero m, where v is the exponent of the prime p in m.

    Two is counted off the low bits.  An odd p is divided out by the
    squaring ladder p, p**2, p**4, ... while each rung divides, then by the
    same rungs in descending order, so v costs O(log v) divisions, not v.

    >>> strip_prime(48, 2)
    (4, 3)
    >>> strip_prime(-3**1200 * 10, 3)
    (1200, -10)
    """
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    if p == 2:
        v = (m & -m).bit_length() - 1
        return v, m >> v
    v = 0
    rungs = []
    rung = p
    while not m % rung:
        m //= rung
        v += 1 << len(rungs)
        rungs.append(rung)
        rung *= rung
    # what is left is not divisible by the last rung, so each rung divides at most once
    for i in range(len(rungs) - 1, -1, -1):
        if not m % rungs[i]:
            m //= rungs[i]
            v += 1 << i
    return v, m
