"""Exact integer kernels: roots, prime sieves, trial division, valuations.

Arbitrary-precision integers are plain Python ``int``.  Every function
here is exact -- no floating point is used anywhere, and no decision
rests on a probable prime.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

__all__ = [
    "integer_nth_root",
    "factor_integer",
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
    return [i for i, flag in enumerate(prime_flags(limit)) if flag]


def factor_integer(n: int, primes: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], int]:
    """The primes of ``primes`` in |n| with their exponents, and the cofactor left.

    ``primes`` is every prime up to some limit, ascending; the cofactor is
    |n| with those primes divided out, so 1 or free of primes up to the limit.

    >>> factor_integer(-2 * 11**3, (2, 3, 5, 7))
    (((2, 1),), 1331)
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m, found = abs(n), []
    for p in primes:
        if m == 1:
            break
        if not m % p:
            v, m = strip_prime(m, p)
            found.append((p, v))
    return tuple(found), m


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
