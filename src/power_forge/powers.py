"""Perfect-power membership and maximal-exponent decomposition.

Integer perfect powers are values a**n with integer a and n >= 2; rational
perfect powers allow a rational base.  Conventions at the fringe fixed here
once and reused everywhere:

* 0 = 0**2 and 1 = 1**2 decompose with exponent 2,
* -1 = (-1)**3 decomposes with exponent 3,
* negative values require an odd exponent.

``decompose_*`` functions return the decomposition with the largest
attainable exponent (so the base itself is never again a perfect power,
apart from the fixed points 0, 1, -1), or None when the value is not a
perfect power at all.  Both are thin callers of one recursion over the
(numerator, denominator) pair: u/v in lowest terms is a p-th power exactly
when |u| and v are (p odd if u < 0).

Almost every value a scan meets is no perfect power, so each candidate
prime exponent p first faces a power-residue sieve (Bernstein, "Detecting
perfect powers in essentially linear time", Math. Comp. 67, 1998;
Bernstein, Lenstra and Pila, Math. Comp. 76, 2007).  For a prime
q = 1 (mod p) the multiplicative group mod q is cyclic of order q - 1, so
its p-th powers are exactly the residues r with r**((q-1)/p) = 1 (mod q).
Hence if r = m mod q is nonzero and r**((q-1)/p) != 1 (mod q), m is no
p-th power.  The sieve only ever rejects, so it cannot lose a power.  An
exponent it lets through is still settled by ``integer_nth_root`` and its
exact ``root**p == m`` check, so every accepted decomposition is witnessed
exactly and no float takes part.  The moduli q for each p are the eight
smallest primes q = 1 (mod p), read off a sieve of primality flags on the
first use of p and cached; nothing is computed at import.

An integer coprime to 2, ..., 13 has one candidate exponent per prime up
to a quarter of its bits (143 for a 3,300-bit value of the degree-201
scan), and most are rejected by their first modulus.  So |m| is reduced
once, modulo the product of the first modulus of every candidate
(Bernstein, "Fast multiplication and its applications", MSRI Publ. 44,
2008), and each first residue is read off that remainder (1,483 bits
there); only a candidate that passes goes on to its other moduli and to
the exact root.  The products are memoised per tuple of candidates
(``_first_moduli``, bounded like the denominator memo).

A scan meets the same denominator again and again: along the row of
points u/v with one v, the reduced denominator of f(u/v) divides
v**(deg f) and takes only a few values.  So the primes p for which a
denominator is an exact p-th power, with its p-th roots, are found once
and memoised (``_denominator_roots``, a bounded LRU next to the residue
tables); per point only the numerator is sieved and rooted.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .ntheory import integer_nth_root, prime_flags, primes_up_to, strip_prime

__all__ = [
    "PowerDecomposition",
    "decompose_integer_power",
    "decompose_rational_power",
    "is_rational_perfect_power",
]

# Strip-and-measure primes; any prime power p**e with p above these has
# e <= log_17(|m|) once m is coprime to all of them.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# A non-p-th power slips past one modulus with chance about 1/p, so past
# all of them with chance about p**-8 for random input.
_RESIDUE_PRIMES_PER_EXPONENT = 8

# p -> ((q, (q - 1) // p), ...), filled by _residue_table on first use of p
_RESIDUE_TABLES: dict[int, tuple[tuple[int, int], ...]] = {}

# denominators whose exact roots _denominator_roots keeps; a scan row meets a few
_DENOMINATOR_MEMO_SIZE = 1024

# candidate exponents -> (product of their first moduli, ((p, q, (q - 1) // p), ...)),
# filled by _first_moduli and emptied once it holds _FIRST_MODULI_MEMO_SIZE tuples;
# each of the benchmark's scans meets 7 to 11
_FIRST_MODULI: dict[tuple[int, ...], tuple[int, tuple[tuple[int, int, int], ...]]] = {}
_FIRST_MODULI_MEMO_SIZE = 128

# every prime up to _PRIMES[-1]; _primes_through re-sieves it when outgrown
_PRIMES = [2]

# primality flags of 0, 1, ..., len - 1; _residue_table re-sieves them when outgrown
_PRIME_FLAGS = bytearray()


def _primes_through(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit > _PRIMES[-1]:
        _PRIMES[:] = primes_up_to(2 * limit)
    return _PRIMES[: bisect_right(_PRIMES, limit)]


def _residue_table(p: int) -> tuple[tuple[int, int], ...]:
    """(q, (q - 1) // p) for the smallest primes q = 1 (mod p)."""
    table = _RESIDUE_TABLES.get(p)
    if table is None:
        moduli: list[tuple[int, int]] = []
        q = 1
        while len(moduli) < _RESIDUE_PRIMES_PER_EXPONENT:
            q += p
            if q >= len(_PRIME_FLAGS):
                _PRIME_FLAGS[:] = prime_flags(2 * q)
            if _PRIME_FLAGS[q]:
                moduli.append((q, (q - 1) // p))
        table = _RESIDUE_TABLES[p] = tuple(moduli)
    return table


def _may_be_power(m: int, p: int, first: int = 0) -> bool:
    """False when a residue, from entry ``first`` of p's table on, proves m >= 0 no p-th power."""
    for q, cofactor in _residue_table(p)[first:]:
        r = m % q
        if r and pow(r, cofactor, q) != 1:
            return False
    return True


def _first_moduli(exponents: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The product of each exponent p's first residue modulus q, and (p, q, (q - 1) // p) in order."""
    entry = _FIRST_MODULI.get(exponents)
    if entry is None:
        if len(_FIRST_MODULI) >= _FIRST_MODULI_MEMO_SIZE:
            _FIRST_MODULI.clear()
        firsts = tuple((p, *_residue_table(p)[0]) for p in exponents)
        entry = _FIRST_MODULI[exponents] = (prod(q for _, q, _ in firsts), firsts)
    return entry


@dataclass(frozen=True, slots=True)
class PowerDecomposition:
    """A witnessed representation value == base ** exponent, exponent >= 2."""

    base: Fraction
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 2:
            raise ValueError(f"exponent must be >= 2, got {self.exponent}")
        if not isinstance(self.base, Fraction):
            object.__setattr__(self, "base", Fraction(self.base))

    @property
    def value(self) -> Fraction:
        return self.base**self.exponent


def _candidate_prime_exponents(m: int) -> tuple[int, ...]:
    """Primes p that could divide the maximal exponent of |m| >= 2, ascending.

    Strips the small primes, intersecting the valuation gcd; whatever
    survives coprime to them has every prime factor >= 17, so
    16**p < 17**p <= survivor bounds the exponent by bit_length // 4.
    """
    residual = m
    val_gcd = 0
    for p in _SMALL_PRIMES:
        if residual % p == 0:
            v, residual = strip_prime(residual, p)
            val_gcd = gcd(val_gcd, v)
            if val_gcd == 1:
                return ()
    bound = val_gcd if residual == 1 else residual.bit_length() // 4
    if val_gcd:
        return tuple([p for p in _primes_through(min(val_gcd, bound)) if val_gcd % p == 0])
    return tuple(_primes_through(bound))


@lru_cache(maxsize=_DENOMINATOR_MEMO_SIZE)
def _denominator_roots(v: int) -> tuple[tuple[int, int], ...]:
    """(p, v**(1/p)) for each candidate prime p with v > 1 an exact p-th power, p ascending."""
    roots = []
    for p in _candidate_prime_exponents(v):
        if _may_be_power(v, p):
            root, exact = integer_nth_root(v, p)
            if exact:
                roots.append((p, root))
    return tuple(roots)


def _decompose(u: int, v: int) -> PowerDecomposition | None:
    """Maximal-exponent decomposition of u/v (lowest terms, v >= 1), or None."""
    if v == 1 and u in (0, 1):
        return PowerDecomposition(Fraction(u), 2)
    if v == 1 and u == -1:
        return PowerDecomposition(Fraction(-1), 3)
    sign = 1 if u > 0 else -1
    mu = abs(u)
    if v > 1:
        # p must divide the maximal exponent of v; v's roots are memoised
        for p, vroot in _denominator_roots(v):
            if (sign > 0 or p != 2) and _may_be_power(mu, p):
                uroot, exact = integer_nth_root(mu, p)
                if exact:
                    return _from_root(sign * uroot, vroot, p)
        return None
    # p must divide the maximal exponent of |u|; one reduction gives every first residue
    product, firsts = _first_moduli(_candidate_prime_exponents(mu))
    rest = mu % product
    for p, q, cofactor in firsts:
        if sign < 0 and p == 2:
            continue
        r = rest % q
        if (r == 0 or pow(r, cofactor, q) == 1) and _may_be_power(mu, p, 1):
            uroot, exact = integer_nth_root(mu, p)
            if exact:
                return _from_root(sign * uroot, 1, p)
    return None


def _from_root(u: int, v: int, p: int) -> PowerDecomposition:
    """The decomposition of (u/v)**p, from the first prime p whose root u/v was found.

    The first root found settles it: if (u/v)**p = b**e with e maximal
    (odd when u < 0), every prime p admitted by ``_decompose`` divides e,
    and the root b**(e/p) has maximal exponent e/p.  A negative root is
    never -1 here and so decomposes with an odd exponent.
    """
    inner = _decompose(u, v)
    if inner is None:
        return PowerDecomposition(Fraction(u, v), p)
    return PowerDecomposition(inner.base, inner.exponent * p)


def decompose_integer_power(n: int) -> PowerDecomposition | None:
    """Maximal-exponent decomposition of an integer, or None.

    >>> decompose_integer_power(64)
    PowerDecomposition(base=Fraction(2, 1), exponent=6)
    >>> decompose_integer_power(-8)
    PowerDecomposition(base=Fraction(-2, 1), exponent=3)
    >>> decompose_integer_power(12) is None
    True
    """
    return _decompose(n, 1)


def decompose_rational_power(q: Fraction | int, denominator: int = 1) -> PowerDecomposition | None:
    """Maximal-exponent decomposition of q / denominator, or None.

    A denominator other than 1 asks for an int q, with (q, denominator)
    already in lowest terms and denominator > 1; that is not checked, and
    no Fraction is built.

    >>> decompose_rational_power(Fraction(9, 25))
    PowerDecomposition(base=Fraction(3, 5), exponent=2)
    >>> decompose_rational_power(-8, 27)
    PowerDecomposition(base=Fraction(-2, 3), exponent=3)
    >>> decompose_rational_power(Fraction(2, 3)) is None
    True
    """
    if denominator == 1:
        return _decompose(*q.as_integer_ratio())
    return _decompose(q, denominator)


def is_rational_perfect_power(q: Fraction | int) -> bool:
    """Membership in {r**n : r rational, n >= 2}."""
    return decompose_rational_power(q) is not None
