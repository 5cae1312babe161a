"""Empirical validation: exhaustive bounded scans and per-point arithmetic traces.

The claim being checked is extensional: the perfect powers among the
values of f are exactly the target set S.  A scan enumerates every
rational u/v of height at most H (max(|u|, v) in lowest terms), row by
row in v; the integer scan of |x| <= B is the row v = 1 of height B.
It evaluates f exactly and classifies each value with the power
decomposer.  The verdict is PASS when no value outside S shows up and
every element of S inside the scanned window is attained.

On the benchmark's scans fewer than 1 point in 5,000 gives a power, so
each row v of points u/v is sieved first, after Stoll's ratpoints
(Bruin and Stoll, "Deciding existence of rational points on curves: an
experiment", Exp. Math. 17, 2008).  A mask is a Python int whose bit i
stands for u = lo + i; the masks of a few small moduli are ANDed, and
only the survivors are evaluated and decomposed (``_RowSieve``):

* on every row, a prime l in ``_SMALL_PRIMES`` not dividing v rejects
  the u where l divides v**deg f(u/v) exactly once, which depends on
  u/v mod l**2 only; l then divides the reduced numerator of f(u/v)
  exactly once, and f(u/v) is no power;
* on a row v > 1, f(u/v) has one reduced denominator D for every u
  prime to v (``_RowSieve.denominator``).  For l**a || v, the terms
  c_i u**i v**(deg-i) of v**deg f(u/v) have l-adic valuations
  e_i + a (deg - i), with e_i that of c_i, as u is prime to l.  A
  unique least one, e, is the valuation of the sum, so the l-part of D
  is l**(a deg - e), or 1 where e >= a deg; where l does not divide
  lead f it is all of l**(a deg).  Where two terms tie below a deg, D
  is left to u and the row gets the first kind of mask only.  A power
  f(u/v) is a p-th power for a prime p of ``_denominator_roots(D)``, so
  a row with D > 1 and no such p holds no power; otherwise a point
  survives only if, for one such p, f(u/v) mod q is 0 or a p-th power
  residue for every modulus q of ``_residue_table(p)`` not dividing v;
* on the row v = 1, the whole integer scan, f(u) = f(t) mod l**E for
  u = t mod l**E, so where l**E does not divide f(t) the class of u
  fixes the l-adic valuation e < E of f(u).  A power with e >= 1 is a
  p-th power for a prime p dividing e, so p < E.  Class tables of l = 2
  and 3 with E >= 3 and l**E at most 64 (``_CLASS_PERIOD_CAP``) keep the
  points whose classes fix no e >= 1; any other point survives only if
  some prime p divides every e fixed and f(u) passes p's residue tables.

The tables are read from the exact values f(0), f(1), ... up to the
period of the largest table built, which the scan's own evaluator gives
(``row_values`` on the row v = 1).  The survivors are evaluated the
same way, so a mask rejects exactly the points whose computed value
fails a residue test.  A table is used only where it pays.  A residue
table of prime period q costs its q values, so it is used where
q (deg f + 1) is at most the chunk's points, even where q is longer than
the row: {-1/8, 4/25} at height 40 sieves its 81-point rows by 103 and
137.  A valuation table (period l**2) or class table (l**E) also keeps
its period within the row length 2H+1.  So the degree-201 and degree-361
scans at heights 8-9 use none and read no coefficient's valuation; nor
does the integer scan, whose one row v = 1 has denominator 1.  A table
that keeps every class is found when it is built and never used.  Each
pattern is built once per (table, v mod period) and tiled along the row
by one multiplication, which cuts a period longer than the row, and a
row adds no modulus once no point is left on it.  The masks only reject,
so hits, ``points_scanned`` and every report are those of the
point-by-point scan.  On the ``scan-lowdeg`` sets as the tests fix them,
{9/25} at height 110 evaluates 321 of 14,863 points (381 before the
class tables, 1,600 before the row denominators) and 169 table values,
{-1/8, 4/25} at height 40 evaluates 167 of 1,959 (720 while residue
moduli stayed within the row) and 137 table values, and the integer
{4, 8, 36} to 20,000 evaluates 201 of 40,001 (2,389 before the class
tables) and 169 table values.  A scan is refused up front past 10**7
points (``_MAX_POINTS``).

The scan reads f's ``degree``, ``coeffs`` and ``row_values`` only.  A
constructed f is scanned as its ``construct.Recipe``, which evaluates
in integers at O(|S| + log k) big-int operations per point instead of
Horner's deg f, and builds f's coefficients, once per process, only
where a row denominator reads them.  A bare f (``verify_polynomial``,
the empty set's constant 2) is an ``IntPoly``, evaluated by Horner.

Independently of the scan, ``trace_quantities`` recomputes the value of
g at each hit through its own integer bookkeeping (the quantities A, B,
w and the power sum B**k + w**k) and checks six invariants the
construction promises.  The two routes share no helper: the scan
decomposes f(u/v) = (v**deg f(u/v)) / v**deg, reduced to lowest terms,
while the trace splits gcd(A, v**|S|) off to reach the coprime pair
(B, w) and compares the power sum with g(x) computed in Fractions.
Along one row v the reduced denominator takes only a few values, so the
decomposer finds their exact roots once (``powers``) and per point
sieves and roots the numerator only.  The scan hands it each value as
the pair (numerator, denominator) in lowest terms, found by gcd(num, v)
and, only where that is not 1, by the gcd with v**deg; on every row a
Fraction is built only at a hit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, Optional

from .construct import _MAX_F_BITS, VARIANTS, ConstructionArtifacts, Recipe, compute_k
from .errors import ValidationError
from .ntheory import strip_prime
from .oracles import map_chunks
from .poly import IntPoly
from .powers import (
    _SMALL_PRIMES,
    PowerDecomposition,
    _denominator_roots,
    _residue_table,
    decompose_rational_power,
)

__all__ = [
    "Hit",
    "VerificationReport",
    "TraceRecord",
    "InvariantViolation",
    "rational_height",
    "verify_polynomial",
    "verify_construction",
    "trace_quantities",
    "ensure_trace",
]


def rational_height(q: Fraction | int) -> int:
    """max(|numerator|, denominator) of q in lowest terms."""
    q = Fraction(q)
    return max(abs(q.numerator), q.denominator)


@dataclass(frozen=True, slots=True)
class Hit:
    """One scanned point whose value is a perfect power."""

    x: Fraction
    value: Fraction
    power: PowerDecomposition


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive scan.

    ``bound`` is the height cap for the rational variant and the
    absolute-value cap for the integer variant.  ``missing`` lists every
    target element not attained by any hit, including elements beyond
    the scanned window; only in-window omissions flip the verdict.
    """

    variant: str
    bound: int
    points_scanned: int
    hits: tuple[Hit, ...]
    extras: tuple[Hit, ...]
    missing: tuple[Fraction, ...]
    verdict: str
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


# -- scanning ------------------------------------------------------------

# the most points a scan may cover, estimated as its rows times the row
# length 2H+1: height 2,235 or |x| <= 4,999,999, far above the benchmark's
# windows (height 110: 24,310; |x| <= 20,000: 40,001)
_MAX_POINTS = 10**7

# the longest period l**E of row 1's class tables: a sweep of the cap on the integer
# scan of {4, 8, 36} to 20,000 left 653 survivors at 16 (5.2 ms), 342 at 32 (2.3 ms),
# 201 at 64 (2.1 ms), 126 at 128 (2.1 ms) and 96 at 256 (2.6 ms); the row length
# alone (2,857) took 12.7 ms, as its tables evaluate 2,400 values
_CLASS_PERIOD_CAP = 64

# -- the row sieve ---------------------------------------------------------


def _tile(pattern: int, m: int, n: int) -> int:
    """The n-bit mask whose bit i is bit i mod m of the m-bit pattern.

    One multiplication by the base-2**m repunit with ceil(n/m) digits
    lays the copies side by side; no copy carries into the next.
    """
    copies = -(-n // m)
    return pattern * (((1 << m * copies) - 1) // ((1 << m) - 1)) & ((1 << n) - 1)


def _set_bits(mask: int, lo: int) -> Iterator[int]:
    """lo + i for each set bit i of mask, ascending."""
    bits = bin(mask)[:1:-1]  # bit i at index i
    i = bits.find("1")
    while i >= 0:
        yield lo + i
        i = bits.find("1", i + 1)


def _allowed(values: list[int], p: int, m: int, l: int = 0) -> bytes:
    """Entry t: whether a point with u/v = t modulo the table's period may give a power.

    values[t] is f(t), for t up to the period at least.  p = 0 asks that
    the prime m not divide f(t) exactly once, a test on f(t) mod m**2, so
    the period is m**2.  A prime p > 0 asks that f(t) mod the prime m be
    0 or a p-th power residue, with period m.  A prime l > 0 makes it a
    class table of period m = l**E: it asks that m divide f(t), where the
    class fixes no valuation, or that p divide the l-adic valuation
    e < E of f(t), which for p >= E means e = 0.
    """
    if l:
        return bytes(y % m == 0 or strip_prime(y, l)[0] % p == 0 for y in values[:m])
    if p == 0:
        period = m * m
        return bytes(y % m != 0 or y % (m * m) == 0 for y in values[:period])
    cofactor = (m - 1) // p
    return bytes(pow(y, cofactor, m) < 2 for y in values[:m])


def _prime_powers(v: int) -> list[tuple[int, int]]:
    """(l, a) with l**a exactly dividing v >= 1, l ascending, by trial division."""
    found = []
    l = 2
    while l * l <= v:
        if v % l == 0:
            a = 0
            while v % l == 0:
                v //= l
                a += 1
            found.append((l, a))
        l += 1 if l == 2 else 2
    if v > 1:
        found.append((v, 1))
    return found


class _RowSieve:
    """The masks of one chunk's rows over the numerators u in [lo, lo + n).

    The module docstring gives the three kinds of table and when each
    pays: a residue table's prime period q is bounded by
    ``residue_limit``, the chunk's points over deg f + 1, and a valuation
    or class table's period by ``limit``, which is also at most the row
    length n.  ``_sift`` returns the mask as it is for a table that keeps
    every class.  The class tables serve row 1 only: l**E is the longest
    period with E >= 3 under both the limit and ``_CLASS_PERIOD_CAP``,
    whose comment gives the sweep that chose 64.  Only ``_exponent``
    reads ``f.coeffs``, so a sieve that reads no row denominator builds
    no recipe's f.  A table is read from the values f(0), f(1), ... that
    ``f.row_values`` gives, as it gives the survivors' values, up to the
    period of the largest table yet; it is indexed by the class t of
    u/v = u * v**-1 modulo its period, and on a row v the u of class t
    are those with u = t v modulo the period.
    """

    def __init__(self, f: Recipe | IntPoly, lo: int, n: int, points: int):
        self.f = f
        self.lo, self.n = lo, n
        self.full = (1 << n) - 1
        # a residue table of prime period q costs its q values, as _tile cuts a period past
        # the row; the valuation (l**2) and class tables also keep within the row: without
        # that cap a scan-lowdeg pass took 5.84 ref, not 5.56 (2 cores, 4 pairs of 8 s runs)
        self.residue_limit = points // (f.degree + 1) if f.degree >= 0 else 0
        self.limit = min(n, self.residue_limit)
        # (p, m) -> (period, marked classes t, whether a marked class survives), or () for a
        # table that keeps every class, which is never tiled or ANDed
        self._tables: dict[tuple[int, int], tuple[int, list[int], bool] | tuple[()]] = {}
        self._masks: dict[tuple[int, int, int], int] = {}
        self._values: list[int] = []  # f(0), f(1), ...: what the tables are read from
        self._unit_masks: dict[int, int] = {}  # l -> the mask of the u prime to l
        # (l, a) -> the exponent of l in the row denominator where l**a || v, None at a tie
        self._exponents: dict[tuple[int, int], Optional[int]] = {}
        # row 1's class tables (l, l**E), E >= 3 the most the cap and the limit allow, and the
        # primes below the largest E, that of l = 2: the only ones dividing a valuation e < E
        cap = min(self.limit, _CLASS_PERIOD_CAP)
        self._classes = []
        for l in _SMALL_PRIMES:
            m = l**3
            while m * l <= cap:
                m *= l
            if m <= cap:
                self._classes.append((l, m))
        most = self._classes[0][1].bit_length() - 1 if self._classes else 0
        self._class_exponents = [p for p in _SMALL_PRIMES if p < most]

    def coprime(self, v: int) -> int:
        """The mask of the u prime to v."""
        mask = self.full
        for l, _ in _prime_powers(v):
            unit = self._unit_masks.get(l)
            if unit is None:
                lo = self.lo
                pattern = sum(1 << j for j in range(l) if (lo + j) % l)
                unit = self._unit_masks[l] = _tile(pattern, l, self.n)
            mask &= unit
        return mask

    def denominator(self, v: int) -> Optional[int]:
        """The reduced denominator of f(u/v), the same for every u prime to v, or None.

        None where, for a prime power l**a || v, two terms of v**deg f(u/v)
        tie at the least l-adic valuation below a deg (see the module
        docstring).  The l-part depends on (l, a) only and is kept.
        """
        denominator = 1
        for l, a in _prime_powers(v):
            key = (l, a)
            if key not in self._exponents:
                self._exponents[key] = self._exponent(l, a)
            exponent = self._exponents[key]
            if exponent is None:
                return None
            denominator *= l**exponent
        return denominator

    def _exponent(self, l: int, a: int) -> Optional[int]:
        """The exponent of l in the denominator on the rows l**a || v, or None at a tie.

        Valuations are read from the top coefficient down, and only while
        a (deg - i) can still reach the least value so far.
        """
        coeffs, deg = self.f.coeffs, self.f.degree
        full = a * deg
        least = min(strip_prime(coeffs[-1], l)[0], full)
        tied = False
        for i in range(deg - 1, -1, -1):
            shift = a * (deg - i)
            if shift > least:
                break
            if coeffs[i]:
                term = shift + strip_prime(coeffs[i], l)[0]
                if term < least:
                    least, tied = term, False
                elif term == least:
                    tied = True
        if tied and least < full:
            return None
        return full - least

    def mask(self, v: int, coprime: Optional[int] = None) -> int:
        """The mask of the u prime to v whose f(u/v) no modulus proves to be no power.

        coprime, when given, is ``self.coprime(v)``, already computed.
        """
        limit, residue_limit = self.limit, self.residue_limit
        mask = self.coprime(v) if coprime is None else coprime
        for l in _SMALL_PRIMES:
            if v % l and l * l <= limit:
                mask = self._sift(mask, 0, l, v)
        if v == 1:
            # the u whose classes fix no valuation e >= 1 stay (p = m divides no e < E but 0);
            # the others need a prime p | e
            classes, exponents, residue = self._classes, self._class_exponents, mask
            for l, m in classes:
                residue = self._sift(residue, m, m, 1, l)
        else:
            # no residue table fits below 3, so the denominator is not read
            denominator = self.denominator(v) if residue_limit >= 3 else None
            if denominator is None or denominator == 1:
                return mask
            classes, exponents, residue = (), [p for p, _ in _denominator_roots(denominator)], 0
        for p in exponents:
            survivors = mask
            for l, m in classes:
                survivors = self._sift(survivors, p, m, 1, l)
            for q, _ in _residue_table(p):
                if not survivors:
                    break
                if v % q and q <= residue_limit:
                    survivors = self._sift(survivors, p, q, v)
            residue |= survivors
        return residue

    def _sift(self, mask: int, p: int, m: int, v: int, l: int = 0) -> int:
        """mask ANDed with table (p, m) on row v; l > 0 for a class table (see ``_allowed``)."""
        table = self._tables.get((p, m))
        if table is None:
            period = m * m if p == 0 else m
            if len(self._values) < period:
                more = range(len(self._values), period)
                self._values += [y for _, y in self.f.row_values(1, more)]
            allowed = _allowed(self._values, p, m, l)
            kept = [t for t, ok in enumerate(allowed) if ok]
            dropped = [t for t, ok in enumerate(allowed) if not ok]
            marked, keep = (kept, True) if len(kept) <= len(dropped) else (dropped, False)
            table = self._tables[p, m] = (len(allowed), marked, keep) if marked or keep else ()
        if not table:
            return mask
        period, marked, keep = table
        key = (p, m, v % period)
        pattern = self._masks.get(key)
        if pattern is None:
            # u with u * v**-1 = t mod period is u = t v; its bit is u - lo
            lo = self.lo
            bits = sum(1 << (t * v - lo) % period for t in marked)
            if not keep:
                bits ^= (1 << period) - 1
            pattern = self._masks[key] = _tile(bits, period, self.n)
        return mask & pattern


def _scan_chunk(payload) -> tuple[int, list[Hit]]:
    """Points and hits of the rows v in ``rows`` over the numerators u in [lo, lo + n).

    Each value num / v**deg goes to the decomposer as a pair in lowest
    terms, and a Fraction is built only at a hit.  gcd(num, v) and
    gcd(num, v**deg) have the same primes, so the gcd with the long
    v**deg is taken only where the short one is not 1.
    """
    f, rows, lo, n = payload
    sieve = _RowSieve(f, lo, n, len(rows) * n)
    count = 0
    hits: list[Hit] = []
    for v in rows:
        vd = v ** max(f.degree, 0)
        coprime = sieve.coprime(v)
        count += coprime.bit_count()
        for u, num in f.row_values(v, _set_bits(sieve.mask(v, coprime), lo)):
            den = vd
            if gcd(num, v) != 1:
                common = gcd(num, vd)
                num, den = num // common, vd // common
            dec = decompose_rational_power(num, den)
            if dec is not None:
                hits.append(Hit(x=Fraction(u, v), value=Fraction(num, den), power=dec))
    return count, hits


def _scan(f: Recipe | IntPoly, elements: Iterable[Fraction], variant: str, bound: int,
          workers: int, progress: bool) -> VerificationReport:
    """The scan behind both entry points: f is a recipe, or a bare polynomial."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    if bound < 1:
        raise ValidationError("bound must be >= 1")
    if variant == "rational":
        rows, option, most = bound, "height", (isqrt(8 * _MAX_POINTS + 1) - 1) // 4
    else:
        rows, option, most = 1, "bound", (_MAX_POINTS - 1) // 2
    if rows * (2 * bound + 1) > _MAX_POINTS:
        raise ValidationError(f"{option} must be <= {most}: a scan covers at most "
                              f"{_MAX_POINTS:,} points")
    targets = tuple(sorted(Fraction(e) for e in elements))
    if variant == "rational":
        n = min(max(workers, 1), bound)
        chunks = [(range(1 + i, bound + 1, n), -bound, 2 * bound + 1) for i in range(n)]
    else:
        bad = [b for b in targets if b.denominator != 1]
        if bad:
            raise ValidationError(f"integer-variant scan with non-integer targets: {bad}")
        # a chunk sieves one run [lo, lo + n) of u; the first ``extra`` runs are one longer
        n = min(max(workers, 1), 2 * bound + 1)
        size, extra = divmod(2 * bound + 1, n)
        chunks = [((1,), -bound + i * size + min(i, extra), size + (i < extra)) for i in range(n)]
    payloads = [(f, *chunk) for chunk in chunks]
    in_window = [b for b in targets if rational_height(b) <= bound]
    results = []
    for i, res in enumerate(map_chunks(_scan_chunk, payloads, workers), 1):
        results.append(res)
        if progress:
            print(
                f"[scan] chunk {i}/{len(payloads)} done "
                f"(points={res[0]}, hits={len(res[1])})",
                file=sys.stderr,
            )
    points = sum(r[0] for r in results)
    hits = sorted(
        (h for r in results for h in r[1]),
        key=lambda h: (h.x.denominator, h.x.numerator),
    )
    target_set = set(targets)
    hit_values = {h.value for h in hits}
    extras = tuple(h for h in hits if h.value not in target_set)
    missing = tuple(b for b in targets if b not in hit_values)
    missing_in_window = [b for b in in_window if b not in hit_values]
    verdict = "PASS" if not extras and not missing_in_window else "FAIL"
    window = "height" if variant == "rational" else "|x|"
    return VerificationReport(
        variant=variant,
        bound=bound,
        points_scanned=points,
        hits=tuple(hits),
        extras=extras,
        missing=missing,
        verdict=verdict,
        notes=f"scanned all x with {window} <= {bound}; "
        f"{len(in_window)}/{len(targets)} target elements inside the window",
    )


def verify_polynomial(
    f: IntPoly,
    elements: Iterable[Fraction],
    variant: str = "rational",
    bound: int = 25,
    *,
    workers: int = 1,
    progress: bool = False,
) -> VerificationReport:
    """Scan a bare f over the bounded window, evaluating it by Horner.

    The verdict is PASS when the perfect-power values are exactly the
    elements inside the window.
    """
    return _scan(f, elements, variant, bound, workers, progress)


def verify_construction(
    artifacts: ConstructionArtifacts,
    bound: int,
    workers: int = 1,
    progress: bool = False,
) -> VerificationReport:
    """Scan a construct() result through its recipe (or bare f), then trace every rational hit.

    With a rational recipe every hit also goes through the six trace
    invariants; a failure there raises InvariantViolation rather than
    merely flipping the verdict, since it means the construction itself
    is broken.
    """
    inp, recipe = artifacts.input, artifacts.recipe
    scanned = artifacts.bare if recipe is None else recipe
    report = _scan(scanned, inp.elements, inp.variant, bound, workers, progress)
    if inp.variant == "rational" and recipe is not None:
        for h in report.hits:
            ensure_trace(recipe.pairs, h.x, recipe.k)
    return report


# -- trace invariants ------------------------------------------------------

@dataclass(frozen=True)
class TraceRecord:
    """Integer bookkeeping for g at one rational point x = u/v.

    A is the product of (c_i u - a_i v); splitting gcd(A, v**m) off both
    A and v**m leaves the coprime pair (B, w) with
    g(x) = (B**k + w**k) / w**k in lowest terms.  ``checks`` maps each of
    the six invariants the construction guarantees at every rational
    point, in a fixed order, to whether it holds here.
    """

    x: Fraction
    k: int
    u: int
    v: int
    A: int
    B: int
    w: int
    power_sum: int
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(name for name, good in self.checks.items() if not good)


class InvariantViolation(RuntimeError):
    """A trace invariant failed; carries the offending record."""

    def __init__(self, record: TraceRecord):
        self.record = record
        failed = ", ".join(record.failed_checks())
        super().__init__(f"trace invariants failed at x = {record.x}: {failed}")


def trace_quantities(
    pairs: Iterable[tuple[int, int]],
    x: Fraction | int,
    k: Optional[int] = None,
) -> TraceRecord:
    """Compute A, B, w, the power sum, and all six invariant checks at x.

    k defaults to the canonical exponent for the pairs; a caller-supplied
    k must still be a positive multiple of 4, and the invariants are only
    promised for k divisible by p - 1 for every prime p in the
    denominators.  A k that would make B**k or w**k longer than the
    package's size cap (``construct._MAX_F_BITS`` bits) is refused before
    either is built.

    >>> rec = trace_quantities([(9, 25)], Fraction(1, 2))
    >>> (rec.A, rec.B, rec.w, rec.power_sum)
    (7, 7, 2, 2417)
    >>> rec.ok
    True
    """
    pairs = tuple(pairs)
    if k is None:
        k = compute_k(pairs)
    if k < 4 or k % 4:
        raise ValidationError(f"k must be a positive multiple of 4, got {k}")
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    A = prod(c * u - a * v for a, c in pairs)
    V = v ** len(pairs)
    d = gcd(A, V)
    B = A // d
    w = V // d
    size = k * max(B.bit_length(), w.bit_length())
    if size > _MAX_F_BITS:
        raise ValidationError(
            f"k={k} is out of range: B**k + w**k would hold about {size} bits, over {_MAX_F_BITS}"
        )
    power_sum = B**k + w**k

    shared = gcd(power_sum, v)
    while shared % 2 == 0:
        shared //= 2
    gx = Fraction(prod(Fraction(c * u - a * v, v) for a, c in pairs)) ** k + 1

    members = {Fraction(a, c) for a, c in pairs}
    return TraceRecord(
        x=x,
        k=k,
        u=u,
        v=v,
        A=A,
        B=B,
        w=w,
        power_sum=power_sum,
        checks={
            "coprime_pair": gcd(B, w) == 1 and w >= 1,
            "gcd_power_of_two": shared == 1,
            "small_sum_trivial": power_sum not in (1, 2) or (abs(B) <= 1 and w == 1),
            "value_identity": Fraction(power_sum, w**k) == gx,
            "mod_four": power_sum % 4 in (1, 2),
            "zero_iff_member": (A == 0) == (x in members),
        },
    )


def ensure_trace(
    pairs: Iterable[tuple[int, int]],
    x: Fraction | int,
    k: Optional[int] = None,
) -> TraceRecord:
    """trace_quantities, raising InvariantViolation unless every check passes."""
    record = trace_quantities(pairs, x, k)
    if not record.ok:
        raise InvariantViolation(record)
    return record
