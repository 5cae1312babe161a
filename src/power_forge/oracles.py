"""Exhaustive bounded searches for the Diophantine facts the construction leans on.

Three classical equations get desk-scale scans, each an exact join of its
left-hand sides against a table of powers:

* ``X^2 + 1 = Y^n``        (only X = 0 in any range),
* ``X^m - Y^n = 1``        (bases and exponents >= 2: only 3^2 - 2^3),
* quartic Fermat variants  (``A^4 + B^4 = C^n``, ``A^4 + B^4 = 2*C^n``,
  and ``A^2 + B^4 = C^n`` with nonzero coprime A, B and n >= 4).

A table of powers is a set of values.  ``catalan``, ``cn`` and ``2cn``
look each left-hand side up in it; ``lebesgue`` and ``24n`` join from the
table's side, each value t against the few b^pb in [t - bound^2, t], so
their work is table-sized.  The pairs (C, n) of a value are read back by
exact integer roots only at a hit, so a search takes roots in proportion
to its hits, not to its box.

Each search reports every solution inside its stated box, so the expected
answer can be compared set-for-set rather than trusted.  Alongside these
sit two power scans used by the constructor's capacity estimate: perfect
powers in a binary recurrence, and perfect powers among gamma - 2^t.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, isqrt
from typing import Iterable, Iterator

from .errors import ValidationError
from .ntheory import integer_nth_root
from .powers import PowerDecomposition, decompose_rational_power

__all__ = [
    "SolutionList",
    "PowerHit",
    "search_lebesgue",
    "search_catalan",
    "search_fermat_quartic",
    "lebesgue_expected",
    "catalan_expected",
    "fermat_quartic_expected",
    "scan_recurrence_powers",
    "scan_gamma_minus_pow2",
    "FERMAT_VARIANTS",
    "MAX_SCAN_BITS",
    "MAX_BOX_WORK",
    "check_depth",
]


@dataclass(frozen=True, slots=True)
class SolutionList:
    """Outcome of one exhaustive box search."""

    equation: str
    bounds: dict
    solutions: tuple[tuple[int, ...], ...]
    exhaustive: bool = True
    notes: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "solutions", tuple(sorted(self.solutions)))


@dataclass(frozen=True, slots=True)
class PowerHit:
    """One index of a scanned sequence whose value is a perfect power."""

    index: int
    value: Fraction
    power: PowerDecomposition


def map_chunks(worker, payloads, workers: int):
    """Yield worker(p) for each payload, in payload order.

    More than one worker and payload runs them in a process pool of one
    process per payload, at most ``workers``; the pool's module is
    imported only then, so commands that never start one do not load
    ``multiprocessing``.
    """
    if workers <= 1 or len(payloads) <= 1:
        yield from map(worker, payloads)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        yield from pool.map(worker, payloads)


# -- tables of powers ----------------------------------------------------------


def _power_table(limit: int, n_min: int, n_max: int) -> set[int]:
    """Every c^n <= limit with max(3, n_min) <= n <= n_max, 1 = 1^n included.

    Squares are left out: a square test is a lookup in
    ``_square_residues`` and, for the few values that pass it, one isqrt,
    while tabulating them would take about sqrt(limit) entries.  The set
    holds values only; ``_exact_roots`` recovers the pairs (c, n) of a hit.
    """
    n_lo = max(3, n_min)
    table: set[int] = set()
    if limit >= 1 and n_lo <= n_max:
        table.add(1)
    for n in range(n_lo, n_max + 1):
        if 1 << n > limit:
            break
        top = integer_nth_root(limit, n)[0]
        table.update(map(pow, range(2, top + 1), repeat(n)))
    return table


def _exact_roots(value: int, n_min: int, n_max: int) -> list[tuple[int, int]]:
    """Every (c, n) with c^n == value > 0 and n_min <= n <= n_max, n ascending.

    1 is 1^n for every n; any other value is no c^n with 2^n > value.
    """
    if value == 1:
        return [(1, n) for n in range(n_min, n_max + 1)]
    found = []
    for n in range(n_min, min(n_max, value.bit_length() - 1) + 1):
        c, exact = integer_nth_root(value, n)
        if exact:
            found.append((c, n))
    return found


# 63 * 65 * 11 = 9 * 5 * 7 * 11 * 13: 2,016 of its 45,045 residues are squares
_SQUARE_MODULUS = 45045


@cache
def _square_residues() -> bytes:
    """Flag r*r % _SQUARE_MODULUS for every r; a target with no flag is no square."""
    flags = bytearray(_SQUARE_MODULUS)
    for r in range(_SQUARE_MODULUS // 2 + 1):
        flags[r * r % _SQUARE_MODULUS] = 1
    return bytes(flags)


def _square_join_chunk(payload) -> list[tuple[int, int, int]]:
    """Every (a, b, t) with a*a + b_powers[b] == t, t in values and 0 <= a <= a_bound.

    b_powers ascends.  a*a = t - b_powers[b] lies in [0, a_bound^2], so
    the b of a hit at t are those with b_powers[b] in [t - a_bound^2, t]:
    one bisection finds the largest, b walks down until the rest passes
    a_bound^2, and one isqrt each decides a.
    """
    values, b_powers, a_bound = payload
    reach = a_bound * a_bound
    found = []
    for t in values:
        b = bisect_right(b_powers, t) - 1
        while b >= 0:
            rest = t - b_powers[b]
            if rest > reach:
                break
            a = isqrt(rest)
            if a * a == rest:
                found.append((a, b, t))
            b -= 1
    return found


def _square_join(table: set[int], b_powers: list[int], a_bound: int, workers: int):
    """``_square_join_chunk`` on table's values dealt round-robin; one chunk iterates the set."""
    parts = min(workers, len(table))
    if parts > 1:
        values = list(table)
        payloads = [(values[i::parts], b_powers, a_bound) for i in range(parts)]
    else:
        payloads = [(table, b_powers, a_bound)]
    for part in map_chunks(_square_join_chunk, payloads, workers):
        yield from part


# -- the size of a box ----------------------------------------------------------

# A box's work is counted in left-hand sides tested, each a table lookup and
# a square test (about 0.2 us); lebesgue and 24n count those of their box,
# though they join only their table.  What a box keeps for each exponent costs
# more: its table entry 1^n and up to four solutions of the trivial family,
# each counted _KEPT, about the bytes over 8 of a tuple in its list, its
# sorted copy and its JSON text.  A catalan power X^m is kept too, and
# counts its 64-bit words on top.  The rest of a table of powers, about
# the cube root of the largest left-hand side, is fewer entries than the
# left-hand sides.  A box past the cap is refused before any table is
# built.  Just inside the cap, on one core of a Xeon with Python 3.11 (the
# whole command, in a fresh process, one worker; time and peak RSS):
# lebesgue --bound 19,992,511 --n-max 40 took 0.13 s and 26 MB, fermat
# --variant 2cn --bound 8,942 --n-max 10 2.5 s and 36 MB, fermat --bound
# 6,323 1.7 s and 28 MB, fermat --variant 24n --bound 4,470 0.08 s and
# 18 MB, lebesgue --n-max 104,167 at --bound 1 0.5 s and 100 MB, fermat
# --n-max 62,500 at --bound 1 1.1 s and 169 MB, catalan
# --base-bound 151,516 --exp-bound 3 0.08 s and 27 MB, and catalan
# --base-bound 2 --exp-bound 17,376 0.07 s and 36 MB.
MAX_BOX_WORK = 10**7
_KEPT = 32


def _check_work(work: int, **bounds: int) -> None:
    """ValidationError naming the bounds of a box whose work passes MAX_BOX_WORK."""
    if work > MAX_BOX_WORK:
        named = ", ".join(f"{name}={value}" for name, value in bounds.items())
        raise ValidationError(f"box too large: {named} come to {work} units of work, "
                              f"over the cap of {MAX_BOX_WORK}")


def _lebesgue_work(x_bound: int, n_max: int) -> int:
    """The even X of the box, plus per n its table entry and the X = 0 family, 2 solutions."""
    return x_bound // 2 + 1 + _KEPT * 3 * (n_max - 1)


def _catalan_work(base_bound: int, exp_bound: int) -> int:
    """Every X^m kept, each counted with the 64-bit words of base_bound^exp_bound."""
    words = -(-exp_bound * base_bound.bit_length() // 64)
    return (base_bound - 1) * (exp_bound - 1) * (_KEPT + words)


def _fermat_work(ab_bound: int, n_max: int, variant: str = "cn") -> int:
    """Pairs in live classes, plus per n its table entry and the trivial families, 4 solutions."""
    _, pa, pb, rhs_mult, n_min = _FERMAT_FORMS[variant]
    return _live_pairs(ab_bound, pa, pb, rhs_mult) + _KEPT * 5 * (n_max - n_min + 1)


def _live_pairs(ab_bound: int, pa: int, pb: int, rhs_mult: int) -> int:
    """The pairs (a, b) in [0, ab_bound]^2 that ``_fermat_chunk`` walks (24n is priced by them too).

    Those are the pairs in live classes, with b >= a when pa == pb.
    """
    live = _live_classes(pa, pb, rhs_mult)
    count = (ab_bound // 2 + 1, (ab_bound + 1) // 2)  # the values of each parity
    pairs = sum(count[ra] * count[rb] for ra, rb in live)
    if pa == pb:  # the live classes are symmetric: half the square, plus half its diagonal
        pairs = (pairs + sum(count[r] for r in (0, 1) if (r, r) in live)) // 2
    return pairs


# -- X^2 + 1 = Y^n -----------------------------------------------------------


def search_lebesgue(x_bound: int, n_max: int, workers: int = 1) -> SolutionList:
    """All (X, Y, n) with X^2 + 1 = Y^n, |X| <= x_bound, 2 <= n <= n_max.

    Joins the table of powers, with 1 added, against b^pb = 1
    (``_square_join``).  That misses nothing: a hit is at most x_bound^2 + 1,
    the table's limit, and for X >= 1, X^2 < X^2 + 1 < (X + 1)^2, so n = 2
    holds only at X = 0, t = 1, which the table lacks when n_max = 2.  No
    parity argument is needed: no table value has 2-adic valuation 1.
    """
    if x_bound < 0 or n_max < 2:
        raise ValidationError("need x_bound >= 0 and n_max >= 2")
    _check_work(_lebesgue_work(x_bound, n_max), x_bound=x_bound, n_max=n_max)
    table = _power_table(x_bound * x_bound + 1, 3, n_max)
    table.add(1)  # X = 0, the one square
    found = [(sx, sy, n)
             for x, _, t in _square_join(table, [1], x_bound, workers)
             for y, n in _exact_roots(t, 2, n_max)
             for sx in ((x,) if x == 0 else (x, -x))
             for sy in ((y,) if n % 2 else (y, -y))]
    return SolutionList(
        equation="X^2 + 1 = Y^n",
        bounds={"x_bound": x_bound, "n_max": n_max},
        solutions=tuple(found),
        notes="X scanned over |X| <= x_bound; Y unconstrained, read from a table of powers",
    )


def lebesgue_expected(x_bound: int, n_max: int) -> tuple[tuple[int, int, int], ...]:
    """The X = 0 family: 0^2 + 1 = 1^n always, plus (-1)^n for even n."""
    out = []
    for n in range(2, n_max + 1):
        out.append((0, 1, n))
        if n % 2 == 0:
            out.append((0, -1, n))
    return tuple(sorted(out))


# -- X^m - Y^n = 1 -----------------------------------------------------------


def search_catalan(base_bound: int, exp_bound: int) -> SolutionList:
    """All (X, m, Y, n) with X^m - Y^n = 1, 2 <= X, Y <= base_bound, 2 <= m, n <= exp_bound.

    Keeps the in-range powers of even bases in a set and joins each power
    of an odd base against it by ``_catalan_join``, so runtime is
    table-sized, not box-sized.  The bases and exponents of a hit are read
    back by exact roots.

    Each odd power u is compared only with its neighbour divisible by 4:
    u + 1 when u = 3 mod 4, else u - 1.  Proof that this misses nothing:
    of X^m and Y^n = X^m - 1 one is even, and an even power with exponent
    >= 2 is 0 mod 4.  So the odd one's neighbour in the pair is its
    neighbour that is 0 mod 4; its other neighbour is 2 mod 4, of 2-adic
    valuation exactly 1, which no power with exponent >= 2 has (the
    argument of ``_live_classes``).
    """
    if base_bound < 2 or exp_bound < 2:
        raise ValidationError("need base_bound >= 2 and exp_bound >= 2")
    _check_work(_catalan_work(base_bound, exp_bound), base_bound=base_bound, exp_bound=exp_bound)
    even = set(_powers_of(range(2, base_bound + 1, 2), exp_bound))
    pairs = _catalan_join(_powers_of(range(3, base_bound + 1, 2), exp_bound), even)

    def reps(value: int) -> list[tuple[int, int]]:
        return [(c, n) for c, n in _exact_roots(value, 2, exp_bound) if c <= base_bound]

    found = [(x, m, y, n) for high, low in pairs for x, m in reps(high) for y, n in reps(low)]
    return SolutionList(
        equation="X^m - Y^n = 1",
        bounds={"base_bound": base_bound, "exp_bound": exp_bound},
        solutions=tuple(found),
        notes="each power of an odd base joined to its neighbour divisible by 4 "
        "in the set of powers of even bases",
    )


def _powers_of(bases: range, exp_bound: int) -> Iterator[int]:
    """base^exp for each base in turn, 2 <= exp <= exp_bound, by forward multiplication."""
    for base in bases:
        value = base
        for _ in range(exp_bound - 1):
            value *= base
            yield value


def _catalan_join(odd: Iterable[int], even: set[int]) -> set[tuple[int, int]]:
    """Each (high, low) with high - low = 1, one of them from odd and the other in even.

    odd yields odd values, even holds multiples of 4, and each odd value u
    meets only u + 1 when u = 3 mod 4, else u - 1 (see ``search_catalan``).
    A value yielded twice, as 81 = 3^4 = 9^2, gives its pair once.
    """
    pairs = set()
    for v in odd:
        if v & 3 == 3:
            if v + 1 in even:
                pairs.add((v + 1, v))
        elif v - 1 in even:
            pairs.add((v, v - 1))
    return pairs


def catalan_expected(base_bound: int, exp_bound: int) -> tuple[tuple[int, int, int, int], ...]:
    """9 - 8 = 1 is the lone consecutive pair of nontrivial powers."""
    if base_bound >= 3 and exp_bound >= 3:
        return ((3, 2, 2, 3),)
    return ()


# -- quartic Fermat variants --------------------------------------------------

_FERMAT_FORMS = {
    "cn": ("A^4 + B^4 = C^n", 4, 4, 1, 2),
    "2cn": ("A^4 + B^4 = 2*C^n", 4, 4, 2, 2),
    "24n": ("A^2 + B^4 = C^n", 2, 4, 1, 4),
}
FERMAT_VARIANTS = tuple(_FERMAT_FORMS)


@cache
def _live_classes(pa: int, pb: int, rhs_mult: int) -> frozenset[tuple[int, int]]:
    """The classes (a mod 2, b mod 2) in which a^pa + b^pb = rhs_mult * C^n can hold.

    A class is dead when every pair in it fails the gcd (both even), has a
    left-hand side that rhs_mult does not divide, or has a target
    (a^pa + b^pb) / rhs_mult = 2 mod 4.  Such a target has 2-adic valuation
    exactly 1, and no C^n with n >= 2 has.  Residues mod 4 * rhs_mult decide
    both the division and the target mod 4, so the classes follow from
    the form alone: cn keeps two classes, 2cn keeps odd-odd only.
    """
    m = 4 * rhs_mult
    live = set()
    for ra in range(m):
        for rb in range(m):
            t = ra**pa + rb**pb
            if (ra | rb) & 1 and t % rhs_mult == 0 and t // rhs_mult % 4 != 2:
                live.add((ra & 1, rb & 1))
    return frozenset(live)


def _fermat_chunk(payload) -> list[tuple[int, int, int, int]]:
    """Every coprime solution owned by a_range (inside [0, ab_bound]), with 0 <= b <= ab_bound.

    The chunk owns (a, b) by a.  When pa == pb the pairs (a, b) and (b, a)
    share their left-hand side, so the unordered pair is owned by its
    smaller coordinate: b walks from a, and a hit with a != b is emitted
    in both orders.  b walks only the parities that ``_live_classes``
    keeps for the parity of a, in steps of 2 where one is kept: the pairs
    it skips fail the gcd or the division by rhs_mult, or have a target of
    2-adic valuation 1, which no C^n with n >= 2 has.  Each pair walked
    pays for the table lookup and the square test only; the gcd and the
    sign expansion run on a hit.
    """
    a_range, ab_bound, n_min, n_max, pa, pb, rhs_mult = payload
    table = _power_table((a_range[-1] ** pa + ab_bound**pb) // rhs_mult, n_min, n_max)
    squares = n_min <= 2 <= n_max
    is_square = _square_residues()
    b_powers = [b**pb for b in range(ab_bound + 1)]
    mirror = pa == pb
    live = _live_classes(pa, pb, rhs_mult)
    # per parity of a, the parities of b kept: (first parity, step), or None
    walks = []
    for ra in (0, 1):
        kept = [rb for rb in (0, 1) if (ra, rb) in live]
        walks.append((0, 1) if len(kept) == 2 else (kept[0], 2) if kept else None)
    found = []
    for a in a_range:
        walk = walks[a & 1]
        if walk is None:
            continue
        parity, step = walk
        start = a if mirror else 0
        a_power = a**pa
        for b in range(start + (parity - start) % step, ab_bound + 1, step):
            target = a_power + b_powers[b]
            if rhs_mult != 1:  # % 1 and // 1 would cost as much as the lookup
                if target % rhs_mult:
                    continue
                target //= rhs_mult
            if target not in table and not (
                squares and is_square[target % _SQUARE_MODULUS] and isqrt(target) ** 2 == target
            ):
                continue
            # a = b = 0, the one zero target, fails the gcd
            if gcd(a, b) != 1:
                continue
            hits = _exact_roots(target, n_min, n_max)
            pairs = ((a, b), (b, a)) if mirror and a != b else ((a, b),)
            for x, y in pairs:
                for c, n in hits:
                    for sx in (x,) if x == 0 else (x, -x):
                        for sy in (y,) if y == 0 else (y, -y):
                            found.append((sx, sy, c, n))
    return found


def search_fermat_quartic(
    ab_bound: int, n_max: int, variant: str = "cn", workers: int = 1
) -> SolutionList:
    """Coprime solutions of one quartic Fermat variant inside a box.

    Variants: "cn" is A^4 + B^4 = C^n, "2cn" is A^4 + B^4 = 2*C^n (both
    with n >= 2), "24n" is A^2 + B^4 = C^n with A, B nonzero and n >= 4.
    C is reported in its canonical positive form; for even n the sign
    mirror -C solves too.

    cn and 2cn walk their pairs (``_fermat_chunk``); 24n joins its table of
    powers against the b^4, b <= ab_bound (``_square_join``).  That misses
    nothing: a hit is at most ab_bound^2 + ab_bound^4, the table's limit,
    and has n >= 4, and a^2 = t - b^4 lies in [0, ab_bound^2], so the
    bisected window holds its b.
    """
    if variant not in _FERMAT_FORMS:
        raise ValidationError(f"unknown variant {variant!r}, expected one of {FERMAT_VARIANTS}")
    equation, pa, pb, rhs_mult, n_min = _FERMAT_FORMS[variant]
    if ab_bound < 1 or n_max < n_min:
        raise ValidationError(f"need ab_bound >= 1 and n_max >= {n_min} for {variant!r}")
    _check_work(_fermat_work(ab_bound, n_max, variant), ab_bound=ab_bound, n_max=n_max)
    nonzero = variant == "24n"
    if nonzero:
        table = _power_table(ab_bound**pa + ab_bound**pb, n_min, n_max)
        joined = _square_join(table, [b**pb for b in range(ab_bound + 1)], ab_bound, workers)
        found = [(sa, sb, c, n) for a, b, t in joined if a and b and gcd(a, b) == 1
                 for c, n in _exact_roots(t, n_min, n_max) for sa in (a, -a) for sb in (b, -b)]
    else:
        parts = max(1, min(workers, ab_bound + 1))
        payloads = [(range(i, ab_bound + 1, parts), ab_bound, n_min, n_max, pa, pb, rhs_mult)
                    for i in range(parts)]
        found = [s for part in map_chunks(_fermat_chunk, payloads, workers) for s in part]
    return SolutionList(
        equation=equation,
        bounds={"ab_bound": ab_bound, "n_min": n_min, "n_max": n_max},
        solutions=tuple(found),
        notes="gcd(A, B) = 1 required; C canonicalized positive"
        + ("; A, B nonzero required" if nonzero else ""),
    )


def fermat_quartic_expected(
    ab_bound: int, n_max: int, variant: str = "cn"
) -> tuple[tuple[int, int, int, int], ...]:
    """Known full solution sets: trivial families for cn/2cn, empty for 24n."""
    if variant not in _FERMAT_FORMS:
        raise ValidationError(f"unknown variant {variant!r}, expected one of {FERMAT_VARIANTS}")
    _, _, _, _, n_min = _FERMAT_FORMS[variant]
    out: list[tuple[int, int, int, int]] = []
    if variant == "cn":
        for n in range(n_min, n_max + 1):
            out.extend([(0, 1, 1, n), (0, -1, 1, n), (1, 0, 1, n), (-1, 0, 1, n)])
    elif variant == "2cn":
        for n in range(n_min, n_max + 1):
            out.extend([(1, 1, 1, n), (1, -1, 1, n), (-1, 1, 1, n), (-1, -1, 1, n)])
    return tuple(sorted(out))


# -- power scans --------------------------------------------------------------

# a power scan's term a*alpha**t + b*beta**t gains at most the height bits of
# alpha plus those of beta at each step (3 for gamma - 2**t), and the cost of
# decomposing it grows faster than its size, so the gain to the deepest term
# is capped.  At the cap, one scan took 2.5 s for gamma - 2**t with gamma = 3
# (t <= 10,000), 3.4 s for 10**(6t) + 1 (t <= 1,428) and 3.5 s for
# (3/2)**t + (5/4)**t (t <= 6,000), on one core of a Xeon with Python 3.11.
MAX_SCAN_BITS = 30_000


def check_depth(t_max: int, alpha: Fraction | int = 1, beta: Fraction | int = 2) -> None:
    """ValidationError unless 0 <= t_max <= MAX_SCAN_BITS // step for u_t = a*alpha**t + b*beta**t.

    step is the height bits of alpha plus those of beta: 3 for gamma - 2**t,
    the default.
    """
    if t_max < 0:
        raise ValidationError("t_max must be >= 0")
    heights = (max(abs(x.numerator), x.denominator) for x in map(Fraction, (alpha, beta)))
    step = sum(h.bit_length() for h in heights)
    cap = MAX_SCAN_BITS // step
    if t_max > cap:
        raise ValidationError(f"t_max must be <= {cap}, got {t_max}")


def scan_recurrence_powers(
    a: Fraction | int,
    b: Fraction | int,
    alpha: Fraction | int,
    beta: Fraction | int,
    t_max: int,
) -> tuple[PowerHit, ...]:
    """Perfect powers among u_t = a*alpha^t + b*beta^t for 0 <= t <= t_max.

    Degenerate data (a zero coefficient or root, or alpha = +-beta) is
    rejected: those sequences collapse and their power count is not the
    finite quantity of interest.  So is a t_max that ``check_depth`` refuses.
    """
    a, b, alpha, beta = Fraction(a), Fraction(b), Fraction(alpha), Fraction(beta)
    check_depth(t_max, alpha, beta)
    if a == 0 or b == 0 or alpha == 0 or beta == 0 or alpha == beta or alpha == -beta:
        raise ValidationError("degenerate recurrence (zero datum or alpha = +-beta)")
    hits = []
    pa, pb = Fraction(1), Fraction(1)
    for t in range(t_max + 1):
        u = a * pa + b * pb
        dec = decompose_rational_power(u)
        if dec is not None:
            hits.append(PowerHit(index=t, value=u, power=dec))
        pa *= alpha
        pb *= beta
    return tuple(hits)


def scan_gamma_minus_pow2(gamma: Fraction | int, t_max: int) -> tuple[PowerHit, ...]:
    """Perfect powers among gamma - 2^t for 0 <= t <= t_max (gamma nonzero).

    This is the recurrence scan specialized to u_t = gamma*1^t - 1*2^t, kept
    separate because the capacity estimate consumes exactly this sequence.
    t_max is at most ``MAX_SCAN_BITS // 3`` (see ``check_depth``).  With
    gamma = a/b in lowest terms, u_t = (a - b 2^t) / b, and
    gcd(a - b 2^t, b) = gcd(a, b) = 1, so each term goes to the decomposer
    as the integer pair (a - b 2^t, b), and a Fraction is built only at a
    hit.
    """
    gamma = Fraction(gamma)
    if gamma == 0:
        raise ValidationError("gamma must be nonzero")
    check_depth(t_max)
    a, b = gamma.numerator, gamma.denominator
    hits = []
    pw = b  # b 2^t
    for t in range(t_max + 1):
        num = a - pw
        dec = decompose_rational_power(num, b)
        if dec is not None:
            hits.append(PowerHit(index=t, value=Fraction(num, b), power=dec))
        pw <<= 1
    return tuple(hits)
