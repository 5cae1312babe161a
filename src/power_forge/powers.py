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
its p-th powers form the subgroup of order (q - 1)/p.  Hence if m mod q
is neither 0 nor in that subgroup, m is no p-th power.  The sieve only
ever rejects, so it cannot lose a power.  An exponent it lets through is
still settled by ``integer_nth_root`` and its exact ``root**p == m``
check, so every accepted decomposition is witnessed exactly and no float
takes part.  The moduli q for each p are the eight smallest primes
q = 1 (mod p), read off strided slices of a sieve of primality flags.
Each q keeps the set of p-th powers mod q, 0 included, built by walking
the powers of one x**p (no pass over Z/q), and a residue is tested by a
lookup in it.  The first modulus and its set are made on the first use of
p, the other seven once a value passes the first, and all are cached;
nothing is computed at import.

An integer coprime to 2, ..., 13 has one candidate exponent per prime up
to a quarter of its bits (143 for a 3,301-bit value of the degree-201
scan), and most are rejected by their first modulus.  So the candidates'
first moduli are cut into groups of about ``_GROUP_BITS`` = 240 bits, |m|
is reduced once modulo each group's product (the first level of a
remainder tree: Bernstein, "Fast multiplication and its applications",
MSRI Publ. 44, 2008), and each first residue is read off its group's
remainder of at most eight words: seven remainders of |m| for those 143
candidates.  Their residue sets hold (q - 1)/p + 1 residues, 8 on average.
Only a candidate that passes goes on to its other moduli and to the exact
root.  The groups are memoised per tuple of candidates (``_first_moduli``,
bounded like the denominator memo).  An integer and each new denominator
are sieved this way (``_sieved_exponents``).

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
from typing import Iterator

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
_SMALL_PRIMORIAL = 30030  # the product of _SMALL_PRIMES: one gcd finds which divide m

# A non-p-th power slips past one modulus with chance about 1/p, so past
# all of them with chance about p**-8 for random input.
_RESIDUE_PRIMES_PER_EXPONENT = 8

# p -> ((q, (q - 1) // p), ...), filled by _residue_table on first use of p
_RESIDUE_TABLES: dict[int, tuple[tuple[int, int], ...]] = {}

# (p, q, the p-th powers mod q, 0 included) for a prime q = 1 (mod p)
_Residues = tuple[int, int, frozenset[int]]

# p -> (_Residues, ...) for the smallest primes q = 1 (mod p): the first on first use
# of p, the other moduli of _residue_table(p) once a value passes it
_RESIDUE_SETS: dict[int, tuple[_Residues, ...]] = {}

# denominators whose exact roots _denominator_roots keeps; a scan row meets a few
_DENOMINATOR_MEMO_SIZE = 1024

# candidate exponents -> ((product of a group's first moduli, the group's (p, q, residues)), ...)
# with each (p, q, residues) the one _RESIDUE_SETS[p] holds first; filled by _first_moduli and
# emptied once it holds _FIRST_MODULI_MEMO_SIZE tuples; each of the benchmark's scans meets 7 to 11
_FIRST_MODULI: dict[tuple[int, ...], tuple[tuple[int, tuple[_Residues, ...]], ...]] = {}
_FIRST_MODULI_MEMO_SIZE = 128

# bits of first moduli in a group, which costs one remainder of |m| and then one of a few words
# per candidate.  The 36 integers on row 1 of the scan-highdeg workload's two scans (16 of them
# with 99 to 143 candidates) decomposed, best of 40 in-process, in 1.32 / 0.98 / 0.76 / 0.70 /
# 0.75 / 0.83 ms at 30 / 60 / 120 / 240 / 480 / 960 bits, against 1.34 ms with one remainder
# of the product of all first moduli.  Far larger values gain from wider groups (480 bits: a
# 300,000-bit non-power in 117 against 151 ms), but no scan meets them.
_GROUP_BITS = 240

# every prime up to _PRIMES[-1]; _primes_through re-sieves it when outgrown
_PRIMES = [2]

# primality flags of 0, 1, ..., len - 1; _moduli_after re-sieves them when outgrown
_PRIME_FLAGS = bytearray()


def _primes_through(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit > _PRIMES[-1]:
        _PRIMES[:] = primes_up_to(2 * limit)
    return _PRIMES[: bisect_right(_PRIMES, limit)]


def _moduli_after(q: int, p: int, count: int) -> list[int]:
    """The ``count`` smallest primes above q that are 1 (mod p), for q = 1 (mod p).

    Each step reads up to 64 primality flags q + p, q + 2p, ... as one
    strided slice and finds the primes in it with ``bytearray.find``.
    """
    found: list[int] = []
    while len(found) < count:
        if q + p >= len(_PRIME_FLAGS):
            _PRIME_FLAGS[:] = prime_flags(2 * (q + p))
        flags = _PRIME_FLAGS[q + p : q + 64 * p + 1 : p]
        i = flags.find(1)
        while i >= 0 and len(found) < count:
            found.append(q + (i + 1) * p)
            i = flags.find(1, i + 1)
        q += len(flags) * p
    return found


def _residue_table(p: int) -> tuple[tuple[int, int], ...]:
    """(q, (q - 1) // p) for the smallest primes q = 1 (mod p)."""
    table = _RESIDUE_TABLES.get(p)
    if table is None:
        moduli = _moduli_after(1, p, _RESIDUE_PRIMES_PER_EXPONENT)
        table = _RESIDUE_TABLES[p] = tuple((q, (q - 1) // p) for q in moduli)
    return table


def _power_residues(p: int, q: int) -> frozenset[int]:
    """The p-th powers mod a prime q = 1 (mod p), 0 included.

    The nonzero ones are the subgroup of order (q - 1) / p of the cyclic
    group mod q.  Every x**p lies in it, and generates it when x is a
    primitive root, so the powers of x**p are walked for x = 2, 3, ...
    until one orbit is the whole subgroup; no pass over Z/q is made.
    """
    order = (q - 1) // p
    x = 1
    while True:
        x += 1
        g = r = pow(x, p, q)
        orbit = [1]
        while r != 1:
            orbit.append(r)
            r = r * g % q
        if len(orbit) == order:
            return frozenset((0, *orbit))


def _residue_sets(p: int, count: int) -> tuple[_Residues, ...]:
    """(p, q, p-th powers mod q) for at least the ``count`` smallest primes q = 1 (mod p).

    Their moduli are those of ``_residue_table(p)``, found apart from it, so
    that a candidate exponent rejected by its first modulus never pays for
    the search of the other seven.
    """
    sets = _RESIDUE_SETS.get(p, ())
    if len(sets) < count:
        fresh = _moduli_after(sets[-1][1] if sets else 1, p, count - len(sets))
        sets = _RESIDUE_SETS[p] = sets + tuple((p, q, _power_residues(p, q)) for q in fresh)
    return sets


def _may_be_power(m: int, p: int, first: int = 0) -> bool:
    """False when a residue, from entry ``first`` of p's table on, proves m >= 0 no p-th power."""
    for _, q, residues in _residue_sets(p, _RESIDUE_PRIMES_PER_EXPONENT)[first:]:
        if m % q not in residues:
            return False
    return True


def _first_moduli(exponents: tuple[int, ...]) -> tuple[tuple[int, tuple[_Residues, ...]], ...]:
    """Each exponent p's (p, q, p-th powers mod q) for its first modulus q, in order, cut into
    groups of at least _GROUP_BITS bits of moduli (the last may be short), each with its product."""
    entry = _FIRST_MODULI.get(exponents)
    if entry is None:
        if len(_FIRST_MODULI) >= _FIRST_MODULI_MEMO_SIZE:
            _FIRST_MODULI.clear()
        groups, group, bits = [], [], 0
        for p in exponents:
            first = _residue_sets(p, 1)[0]
            group.append(first)
            bits += first[1].bit_length()
            if bits >= _GROUP_BITS:
                groups.append(tuple(group))
                group, bits = [], 0
        if group:
            groups.append(tuple(group))
        entry = tuple((prod(q for _, q, _ in group), group) for group in groups)
        _FIRST_MODULI[exponents] = entry
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

    Strips the small primes that divide m, found by one gcd with their
    product, intersecting the valuation gcd; whatever survives coprime to
    them has every prime factor >= 17, so 16**p < 17**p <= survivor bounds
    the exponent by bit_length // 4.
    """
    residual = m
    val_gcd = 0
    divisors = gcd(m, _SMALL_PRIMORIAL)
    for p in _SMALL_PRIMES:
        if divisors % p == 0:
            v, residual = strip_prime(residual, p)
            val_gcd = gcd(val_gcd, v)
            if val_gcd == 1:
                return ()
    bound = val_gcd if residual == 1 else residual.bit_length() // 4
    if val_gcd:
        return tuple([p for p in _primes_through(min(val_gcd, bound)) if val_gcd % p == 0])
    return tuple(_primes_through(bound))


def _sieved_exponents(m: int) -> Iterator[int]:
    """The candidate prime exponents of m >= 2 that no residue rules out, ascending.

    Each group of first moduli costs one remainder of m; a candidate whose
    first residue passes goes on to the other moduli of its table.
    """
    for product, firsts in _first_moduli(_candidate_prime_exponents(m)):
        rest = m % product
        for p, q, residues in firsts:
            if rest % q in residues and _may_be_power(m, p, 1):
                yield p


@lru_cache(maxsize=_DENOMINATOR_MEMO_SIZE)
def _denominator_roots(v: int) -> tuple[tuple[int, int], ...]:
    """(p, v**(1/p)) for each candidate prime p with v > 1 an exact p-th power, p ascending."""
    roots = []
    for p in _sieved_exponents(v):
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
    # p must divide the maximal exponent of |u|
    for p in _sieved_exponents(mu):
        if sign > 0 or p != 2:
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
