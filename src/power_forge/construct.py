"""Build integer polynomials whose perfect-power values are a chosen finite set.

Given a finite set S of perfect powers, ``construct`` produces f with
integer coefficients such that the perfect powers among the values of f
are exactly the elements of S, each sitting at a fixed point (f(b) = b
for b in S).  Two variants:

* integer: S inside {a**n : a in Z, n >= 2}, squared factors and unit
  offset: g = prod (X - b_i)**2 + 1, h = (X - 1) g + 1, f = g h.
* rational: S inside {r**n : r in Q, n >= 2} with b_i = a_i / c_i in
  lowest terms.  The exponent k = lcm(4, p - 1 over primes p dividing
  some c_i) makes k-th powers trivial mod those primes; the offset 2**s
  takes s = 2**kappa - 1 at least as large as a capacity estimate D for
  each value 4*delta, delta ranging over the nonzero rational roots of
  prod(c_i X - a_i) -+ 1.  Then g = prod (c_i X - a_i)**k + 1 and
  h = (X - 2**s) g + 2**s, and at each delta, where g = 2,
  f(delta) = 4 delta - 2**(s + 1) must be no perfect power outside S;
  ``ConstructionArtifacts`` checks that exactly, and ``construct`` raises
  kappa past the estimates' floor until it holds.

Both variants are built from the same ``Recipe`` (pairs, k, s).  With
P = prod (c_i X - a_i) (c_i = 1 and k = 2, s = 0 in the integer variant),

    f = g h = (X - 2**s) (P**(2k) + 2 P**k + 1) + 2**s (P**k + 1),

and the powers of P come from J.C.P. Miller's recurrence
(``poly.power_coeffs``), which spends O(|S|) big-number operations on
each coefficient; multiplying out g * h costs O(k |S|) per coefficient.
One recurrence and one expansion serve two number types: ints for f, g
and h (``build_g_h_f``), and exact ``decimal.Decimal`` values for the
text a construction document stores (``recipe_text``), as str() of a
Decimal is linear where str() of a big int is quadratic.  Ints are built
when f, g or h is first read, text when a document is written or read.
The set's own facts (pairs, canonical k, deltas) are computed once per
``PowerSetInput``, so ``construct`` and the load check share them.
Each power of both builds is certified against P by multiplication only
(P Q' = n P' Q, see ``_certify_power``): ``verify`` evaluates the recipe,
not the stored f, so a wrong power would otherwise go unscanned.

The empty set gets the constant polynomial 2, which is never a perfect
power; the product formulas degenerate there (they would give a linear f
hitting every rational), so a ``Recipe`` refuses it.

The capacity estimate is a bounded stand-in for a quantity defined
through a finiteness theorem without an effective formula: D(gamma) is
estimated as max(0, ceil(log2 |gamma|), last t <= t_max with
gamma - 2**t a perfect power).  The scan depth t_max is a policy knob;
see ``SelectionPolicy``.  The estimate only sizes s: the theorem needs
nothing of the chosen s but the check at each delta above, so the
estimates are not stored.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import CapacityError, ValidationError
from .ntheory import factor_integer, primes_up_to
from .oracles import check_depth, scan_gamma_minus_pow2
from .poly import IntPoly, power_coeffs, rational_roots
from .powers import decompose_rational_power, is_rational_perfect_power

__all__ = [
    "SelectionPolicy",
    "DEFAULT_POLICY",
    "PowerSetInput",
    "CapacityEstimate",
    "ConstructionArtifacts",
    "Recipe",
    "element_pairs",
    "compute_k",
    "build_root_product",
    "find_deltas",
    "estimate_capacity",
    "select_offset_exponent",
    "build_g_h_f",
    "recipe_text",
    "text_bits",
    "construct",
]

VARIANTS = ("rational", "integer")

# f has 2k|S| + 2 coefficients, each below 2**(s + 4) N**(2k) (see
# ConstructionArtifacts); a recipe whose bound on f passes this many bits is
# refused before anything is built, and so is a trace whose B**k or w**k would
# pass it (verify.trace_quantities)
_MAX_F_BITS = 10**8


@dataclass(frozen=True, slots=True)
class SelectionPolicy:
    """Knobs for the offset selection.

    t_max caps the gamma - 2**t scan depth, within
    ``oracles.check_depth``; kappa_cap caps the offset search
    (s = 2**kappa - 1, 1 <= kappa <= kappa_cap).
    """

    t_max: int = 64
    kappa_cap: int = 20

    def __post_init__(self) -> None:
        if self.t_max < 0 or self.kappa_cap < 1:
            raise ValidationError("need t_max >= 0 and kappa_cap >= 1")
        check_depth(self.t_max)


DEFAULT_POLICY = SelectionPolicy()


def _format_values(values: Iterable[Fraction]) -> str:
    from .jsonio import rational_text  # jsonio imports this module

    return ", ".join(rational_text(v) for v in values)


@dataclass(frozen=True)
class PowerSetInput:
    """A validated finite set of perfect powers, elements sorted ascending."""

    elements: tuple[Fraction, ...]
    variant: str = "rational"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"unknown variant {self.variant!r}, expected one of {VARIANTS}"
            )
        elems = tuple(sorted(Fraction(e) for e in self.elements))
        seen: set[Fraction] = set()
        dupes = sorted({e for e in elems if e in seen or seen.add(e)})
        if dupes:
            raise ValidationError(f"duplicate elements: {_format_values(dupes)}")
        if self.variant == "integer":
            broken = [e for e in elems if e.denominator != 1]
            if broken:
                raise ValidationError(
                    f"integer variant requires integers, got: {_format_values(broken)}"
                )
        non_powers = [e for e in elems if not is_rational_perfect_power(e)]
        if non_powers:
            raise ValidationError(
                f"not perfect powers ({self.variant} sense): {_format_values(non_powers)}"
            )
        object.__setattr__(self, "elements", elems)

    @classmethod
    def from_values(
        cls,
        values: Iterable[Union[int, str, Fraction]],
        variant: str = "rational",
    ) -> "PowerSetInput":
        from .jsonio import parse_rational  # jsonio imports this module

        parsed = []
        for v in values:
            if isinstance(v, str):
                parsed.append(parse_rational(v))
                continue
            try:
                parsed.append(Fraction(v))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ValidationError(f"cannot parse {v!r} as a rational") from exc
        return cls(elements=tuple(parsed), variant=variant)

    def __len__(self) -> int:
        return len(self.elements)

    # each computed once per input by the module's function (deltas not for the empty set)
    pairs = cached_property(lambda self: element_pairs(self))
    canonical_k = cached_property(lambda self: compute_k(self.pairs))
    deltas = cached_property(lambda self: find_deltas(self.pairs))


def element_pairs(inp: PowerSetInput) -> tuple[tuple[int, int], ...]:
    """Lowest-terms pairs (a_i, c_i) with b_i = a_i / c_i, c_i >= 1."""
    return tuple((e.numerator, e.denominator) for e in inp.elements)


def _largest_admissible_prime() -> int:
    """The largest p with 2p (5 + 2(p - 1) bits(p**2 + 1)) <= _MAX_F_BITS, by bisection.

    A prime p in a denominator c, a power, forces k >= p - 1, s >= 1 and N > c >= p**2:
    f's bound (``ConstructionArtifacts``) is then at least the left side, which grows with p.
    """
    fits, fails = 1, _MAX_F_BITS  # a p that fits, and one that does not
    while fails - fits > 1:
        p = (fits + fails) // 2
        if 2 * p * (5 + 2 * (p - 1) * (p * p + 1).bit_length()) <= _MAX_F_BITS:
            fits = p
        else:
            fails = p
    return fits


# the primes a denominator of a constructible set can hold, sieved once
_ADMISSIBLE_PRIMES = tuple(primes_up_to(_largest_admissible_prime()))


def compute_k(pairs: Iterable[tuple[int, int]]) -> int:
    """lcm of 4 and p - 1 over primes p dividing any denominator.

    A denominator with a prime past ``_ADMISSIBLE_PRIMES`` is refused (ValidationError).
    """
    k = 4
    for _, c in pairs:
        primes, rest = factor_integer(c, _ADMISSIBLE_PRIMES)
        if rest > 1:
            raise ValidationError(f"denominator {c} has a prime factor over "
                                  f"{_ADMISSIBLE_PRIMES[-1]}, so f would pass {_MAX_F_BITS} bits")
        for p, _ in primes:
            k = lcm(k, p - 1)
    return k


def build_root_product(pairs: Iterable[tuple[int, int]]) -> IntPoly:
    """P = prod (c_i X - a_i)."""
    out = IntPoly((1,))
    for a, c in pairs:
        out = out * IntPoly.linear(c, a)
    return out


def find_deltas(pairs: Iterable[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Nonzero rational roots of P**2 - 1, i.e. of P - 1 and P + 1, sorted.

    For |S| = 1, P -+ 1 are linear and their roots are read off; from
    |S| = 2 on, ``rational_roots`` lifts them p-adically.  Nothing is factored.
    """
    P = build_root_product(pairs)
    return tuple(sorted({r for q in (P - 1, P + 1) for r in rational_roots(q) if r}))


@dataclass(frozen=True, slots=True)
class CapacityEstimate:
    """Bounded estimate of D(gamma), as ``estimate_capacity`` gives it."""

    gamma: Fraction
    log2_bound: int
    last_power_index: Optional[int]
    value: int


def estimate_capacity(gamma: Fraction, policy: SelectionPolicy = DEFAULT_POLICY) -> CapacityEstimate:
    """max(0, ceil(log2 |gamma|), last t <= t_max with gamma - 2**t a perfect power)."""
    gamma = Fraction(gamma)
    if gamma == 0:
        raise ValidationError("capacity estimate needs gamma != 0")
    hits = scan_gamma_minus_pow2(gamma, policy.t_max)
    last = hits[-1].index if hits else None
    num, den = abs(gamma.numerator), gamma.denominator
    # the least L >= 0 with den * 2**L >= num, i.e. with 2**L >= ceil(num / den)
    log2_bound = ((num - 1) // den).bit_length()
    return CapacityEstimate(gamma, log2_bound, last, max(log2_bound, last or 0))


def select_offset_exponent(
    deltas: Iterable[Fraction], policy: SelectionPolicy = DEFAULT_POLICY
) -> tuple[int, int, tuple[CapacityEstimate, ...]]:
    """Smallest s = 2**kappa - 1 (kappa >= 1) covering every estimate D(4 delta).

    Returns (s, kappa, estimates).  Raises CapacityError naming the worst
    delta when kappa_cap is not enough.
    """
    estimates = tuple(estimate_capacity(4 * d, policy) for d in deltas)
    need = max((e.value for e in estimates), default=0)
    # the least kappa >= 1 with 2**kappa - 1 >= need, i.e. 2**kappa > need
    kappa = max(1, need.bit_length())
    if kappa <= policy.kappa_cap:
        return (1 << kappa) - 1, kappa, estimates
    worst = max(estimates, key=lambda e: e.value)
    raise CapacityError(
        f"no s = 2**kappa - 1 with kappa <= {policy.kappa_cap} reaches "
        f"capacity estimate {need} (worst gamma = {_format_values([worst.gamma])})"
    )


def _certify_power(p: Sequence, n: int, q: Sequence) -> None:
    """Raise ArithmeticError unless q = p**n, checked by multiplication only.

    p and q are coefficient sequences, ascending and trimmed, of ints or
    of exact ``decimal.Decimal`` integers.

    With P = X**z R and R(0) = r_0 != 0, Q must be X**(zn) T with
    deg T = n deg R, t_0 = r_0**n and R T' - n R' T = 0.  The coefficient
    of X**j in that identity is

        sum_i ((j + 1 - i) - n i) r_i t_{j+1-i},

    whose i = 0 term is (j + 1) r_0 t_{j+1}: each t_{j+1} is fixed by the
    ones below it, so only R**n passes.  Nothing here divides, and nothing
    is shared with the recurrence that computed Q.
    """
    z = 0
    while p[z] == 0:
        z += 1
    r, t = p[z:], q[z * n:]
    m = len(r) - 1
    top = n * m
    if any(q[: z * n]) or len(t) != top + 1 or t[0] != r[0] ** n:
        raise ArithmeticError(f"P**{n} fails its certificate: wrong degree, low or constant term")
    for j in range(top + m):
        total = 0
        for i in range(max(0, j + 1 - top), min(m, j + 1) + 1):
            total += ((j + 1 - i) - n * i) * r[i] * t[j + 1 - i]
        if total:
            raise ArithmeticError(f"P**{n} fails its certificate at X**{j} of P Q' - n P' Q")


def _times_shift(a: list, offset) -> list:
    """The coefficients of (X - offset) A."""
    return [x - offset * y for x, y in zip([0, *a], [*a, 0])]


def _expand(p: Sequence, pk: Sequence, p2k: Sequence, k: int, offset) -> tuple[list, list, list]:
    """g, h and f from P, P**k and P**(2k), certified first, and offset = 2**s.

    g = P**k + 1, h = (X - 2**s) g + 2**s, f = (X - 2**s) (P**(2k) + 2 P**k + 1) + 2**s g.
    """
    _certify_power(p, k, pk)
    _certify_power(p, 2 * k, p2k)
    g = list(pk)
    g[0] += 1
    u = list(p2k)
    for i, c in enumerate(pk):
        u[i] += 2 * c
    u[0] += 1
    h = _times_shift(g, offset)
    h[0] += offset
    f = _times_shift(u, offset)
    for i, c in enumerate(g):
        f[i] += offset * c
    return g, h, f


def build_g_h_f(
    pairs: Iterable[tuple[int, int]], k: int, s: int
) -> tuple[IntPoly, IntPoly, IntPoly]:
    """g = P**k + 1, h = (X - 2**s) g + 2**s and f = g h, with P = prod (c_i X - a_i).

    f is expanded from the recipe rather than multiplied out as g * h (see
    ``_expand``); both powers of P come from ``IntPoly.__pow__`` and are
    certified by ``_certify_power``, which raises ArithmeticError on a
    wrong one.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise ValidationError("empty set has no product construction; use construct()")
    P = build_root_product(pairs)
    Pk, P2k = P**k, P ** (2 * k)
    g, h, f = _expand(P.coeffs, Pk.coeffs, P2k.coeffs, k, 1 << s)
    return IntPoly(g), IntPoly(h), IntPoly(f)


def recipe_text(
    pairs: Iterable[tuple[int, int]], k: int, s: int
) -> tuple[list[str], list[str], list[str]]:
    """The decimal text of g, h and f, as a construction document stores them.

    The recurrence, certificates and expansion of ``build_g_h_f`` run on
    ``decimal.Decimal`` integers, so no big coefficient is converted
    between int and decimal.  The context is exact (``MAX_PREC`` digits,
    the widest exponents), and traps every inexact or invalid step, so a
    rounded step raises ArithmeticError.
    """
    import decimal as dec

    traps = [dec.Inexact, dec.Rounded, dec.InvalidOperation, dec.DivisionByZero, dec.Overflow]
    context = dec.Context(prec=dec.MAX_PREC, Emax=dec.MAX_EMAX, Emin=dec.MIN_EMIN, traps=traps)
    with dec.localcontext(context):
        p = [dec.Decimal(c) for c in build_root_product(pairs).coeffs]
        # 2**s as a power of Decimal(2): converting the int 1 << s is quadratic
        polys = _expand(p, power_coeffs(p, k), power_coeffs(p, 2 * k), k, dec.Decimal(2) ** s)
    # a zero may carry a sign (Decimal(0) * -3 is -0); its text has none
    return tuple([str(c) if c else "0" for c in poly] for poly in polys)


def text_bits(coeffs: Sequence[str]) -> int:
    """The bit length of the largest of some decimal integers, from the longest text.

    Counted by exact powers of two in ``decimal``: linear, where int() of the text is quadratic.
    """
    import decimal as dec
    digits = max((t.lstrip("-0") for t in coeffs), key=lambda t: (len(t), t), default="") or "0"
    bits = (len(digits) - 1) * 3321928 // 10**6  # 2**bits <= 10**(len - 1): log2(10) > 3.321928
    with dec.localcontext(dec.Context(prec=dec.MAX_PREC, Emax=dec.MAX_EMAX, traps=[dec.Inexact])):
        value, power = dec.Decimal(digits), dec.Decimal(2) ** bits
        while power <= value:
            power, bits = 2 * power, bits + 1
    return bits


def _refuse(whose: str, **given: object) -> None:
    """Raise ValidationError naming each field of ``given`` that is not None."""
    stray = [name for name, value in given.items() if value is not None]
    if stray:
        raise ValidationError(f"{whose} have no {', '.join(stray)}")


def _delta_refusal(elements: tuple[Fraction, ...], deltas: Iterable[Fraction], s: int
                   ) -> Optional[str]:
    """Why s fails, where f(delta) = 4 delta - 2**(s + 1) is a perfect power outside S, or None."""
    for delta in deltas:
        value = 4 * delta - (1 << s + 1)
        power = decompose_rational_power(value)
        if power is not None and value not in elements:
            base = _format_values([power.base])
            base = base if base.isdigit() else f"({base})"
            return (f"s={s} makes f(delta) = 4 delta - 2**{s + 1} a perfect power outside S "
                    f"at delta = {_format_values([delta])}: "
                    f"{_format_values([value])} = {base}**{power.exponent}")
    return None


@dataclass(frozen=True)
class Recipe:
    """f = g h with g = P**k + 1, h = (X - 2**s) g + 2**s and P = prod (c_i X - a_i).

    The pairs (a_i, c_i) must not be empty.  ``build_g_h_f`` builds g, h
    and f on the first read of any; the degree and row values need none.
    A recipe pickles as (pairs, k, s) alone, whatever it has built.
    """

    pairs: tuple[tuple[int, int], ...]
    k: int
    s: int

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValidationError("the empty set has no recipe: k and s must be null")

    def __reduce__(self):
        return Recipe, (self.pairs, self.k, self.s)

    degree = property(lambda self: 2 * self.k * len(self.pairs) + 1, doc="2k|S| + 1, unbuilt")
    _ints = cached_property(lambda self: build_g_h_f(self.pairs, self.k, self.s))
    g = property(lambda self: self._ints[0], doc="P**k + 1")
    h = property(lambda self: self._ints[1], doc="(X - 2**s) g + 2**s")
    f = property(lambda self: self._ints[2], doc="g h")
    coeffs = property(lambda self: self.f.coeffs, doc="f's coefficients")

    def row_values(self, v: int, us: Iterable[int]) -> Iterator[tuple[int, int]]:
        """(u, v**deg f(u/v)) for each u of one row v, without building f.

        With A = prod (c_i u - a_i v), W = v**|S| and B = A**k + W**k,

            v**deg f(u/v) = B ((u - 2**s v) B + 2**s v W**k),

        and W**k and 2**s v depend on the row only.
        """
        pairs, k = self.pairs, self.k
        wk = v ** (len(pairs) * k)
        shift = v << self.s
        tail = shift * wk
        for u in us:
            A = 1
            for a, c in pairs:
                A *= c * u - a * v
            B = A**k + wk
            yield u, B * ((u - shift) * B + tail)


@dataclass(frozen=True)
class ConstructionArtifacts:
    """Everything construct() decided, sufficient to re-verify every step.

    With k and s, which come both or neither, ``recipe`` is the
    ``Recipe`` of (pairs, k, s), and f, g and h are its polynomials,
    built on the first read of any of them (a ``dataclasses.replace``
    copy builds its own); the empty set has none.  Cheap tests refuse a
    tampered k or s before anything is built.  The integer variant has
    k = 2 and s = 0; a rational recipe has s >= 1, and its k must be a
    positive multiple of the input's ``canonical_k``, since the theorem
    needs p - 1 | k for every prime p in a denominator.
    With N = prod (|a_i| + c_i) >= ||P||_1, each coefficient of P**n is
    at most N**n and each of f is below 2**(s + 4) N**(2k), so f holds
    at most (2k|S| + 2)(s + 4 + 2k bits(N)) bits; a recipe whose bound
    passes ``_MAX_F_BITS`` is refused.  A kappa stored with a recipe must
    give s = 2**kappa - 1.  Without a recipe, f is the polynomial
    ``bare``, which is given there and only there, g and h are None, and
    kappa, deltas and any ``text`` must be None; an integer recipe has
    no deltas either.

    A rational recipe's deltas, if stored, must be the input's
    ``deltas``, all nonzero roots of P -+ 1, ascending.  At each of those
    roots g = 2 and h = 2 delta - 2**s, so f(delta) = 4 delta - 2**(s + 1),
    which must be no perfect power outside S; that is decomposed before
    anything is built.  (In the integer variant f(delta) = 4 delta - 2
    has 2-adic valuation 1, so it is never a power.)

    ``text`` (init-only), the one way to hand over stored polynomials,
    maps "f", "g" and "h" to their decimal text, or None.  f's must have
    degree 2k|S| + 1, and s must be below the bit length of its largest
    coefficient, which holds for every genuine k (k is even): with
    P = X**z R and R(0) != 0, the X**(zk) coefficient of f is
    -2**s R(0)**k when z > 0 and -2**s R(0)**k (R(0)**k + 1) when z = 0.
    Each must then equal ``recipe_text`` entry for entry, so a
    coefficient spelled another way, such as "007" or "-0", is refused;
    a mismatch raises ValidationError naming the fields that differ.
    """

    input: PowerSetInput
    bare: Optional[IntPoly] = None
    k: Optional[int] = None
    kappa: Optional[int] = None
    s: Optional[int] = None
    deltas: Optional[tuple[Fraction, ...]] = None
    notes: str = ""
    text: InitVar[Optional[Mapping[str, Optional[list[str]]]]] = None

    def __post_init__(self, text: Optional[Mapping[str, Optional[list[str]]]]) -> None:
        k, s, text = self.k, self.s, text or {}
        if (k is None) != (s is None):
            raise ValidationError(f"k and s come both or neither, not k={k}, s={s}")
        if k is None:
            if self.bare is None:
                raise ValidationError("artifacts without a recipe (k, s) need bare")
            _refuse("artifacts without a recipe", **text, kappa=self.kappa, deltas=self.deltas)
            return
        _refuse("artifacts with a recipe", bare=self.bare)
        recipe = self.recipe  # which refuses the empty set, before any delta is sought
        if self.input.variant == "integer":
            if (k, s) != (2, 0):
                raise ValidationError(f"integer-variant artifacts have k=2, s=0, not k={k}, s={s}")
            _refuse("integer-variant artifacts", deltas=self.deltas)
        else:
            if s < 1:
                raise ValidationError(f"s={s} is out of range: a rational recipe has s >= 1")
            canonical = self.input.canonical_k
            if k < 1 or k % canonical:
                raise ValidationError(f"stored k={k} is not a positive multiple "
                                      f"of the canonical k={canonical}")
        named, f_text = f"the recipe of k={k}, s={s}", text.get("f")
        if f_text is not None:
            degree, bits = len(f_text) - 1, text_bits(f_text)
            if degree != recipe.degree:
                raise ValidationError(f"stored f has degree {degree}, not that of {named}")
            if s >= bits:
                raise ValidationError(f"stored s={s} is out of range: the largest "
                                      f"coefficient of f has {bits} bits")
        n = prod(abs(a) + c for a, c in self.pairs)
        size = (recipe.degree + 1) * (s + 4 + 2 * k * n.bit_length())
        if size > _MAX_F_BITS:
            raise ValidationError(f"s={s} is out of range: f would hold up to {size} bits "
                                  f"with k={k}, over {_MAX_F_BITS}")
        # s = 2**kappa - 1, tested by bits: a stored kappa may be far too large to raise 2 to
        kappa = self.kappa
        if kappa is not None and (s & (s + 1) or (s + 1).bit_length() != kappa + 1):
            raise ValidationError(f"stored kappa={kappa} does not match s={s}: "
                                  "s must be 2**kappa - 1")
        if self.input.variant == "rational":
            deltas = self.input.deltas
            if self.deltas is not None and tuple(self.deltas) != deltas:
                raise ValidationError(f"stored deltas {_format_values(self.deltas)} are not the "
                                      "nonzero roots of P - 1 and P + 1, ascending")
            refusal = _delta_refusal(self.input.elements, deltas, s)
            if refusal is not None:
                raise ValidationError(refusal)
        if text:
            made = dict(zip("ghf", recipe_text(self.pairs, k, s)))
            wrong = [name for name in "fgh" if text.get(name) not in (None, made[name])]
            if wrong:
                raise ValidationError(f"{named} does not give the stored {', '.join(wrong)}")

    @cached_property
    def recipe(self) -> Optional[Recipe]:
        """The ``Recipe`` of (pairs, k, s), or None without k and s."""
        return None if self.k is None else Recipe(self.pairs, self.k, self.s)

    g = property(lambda self: self.recipe and self.recipe.g, doc="The recipe's g, or None")
    h = property(lambda self: self.recipe and self.recipe.h, doc="The recipe's h, or None")
    f = property(lambda self: self.recipe.f if self.recipe else self.bare,
                 doc="The recipe's f, or ``bare``")
    degree = property(lambda self: (self.recipe or self.bare).degree,
                      doc="The degree of the recipe, or of ``bare``; nothing is built")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self.input.pairs


def construct(
    inp: PowerSetInput, policy: SelectionPolicy = DEFAULT_POLICY
) -> ConstructionArtifacts:
    """Decide the recipe (k, s) for a validated input set; see the module docstring.

    Nothing is built here: the artifacts build f, g and h when first read.

    >>> art = construct(PowerSetInput.from_values(["9/25"]))
    >>> art.k, art.s, art.f.degree
    (4, 1, 9)
    >>> art.f(Fraction(9, 25))
    Fraction(9, 25)
    """
    if len(inp) == 0:
        return ConstructionArtifacts(
            input=inp,
            bare=IntPoly((2,)),
            notes="empty set: constant 2 is never a perfect power; "
            "the product construction degenerates to a linear polynomial here",
        )
    if inp.variant == "integer":
        return ConstructionArtifacts(
            input=inp,
            k=2,
            s=0,
            notes="integer variant: squared factors, offset 2**0 = 1",
        )
    k, deltas = inp.canonical_k, inp.deltas
    s, kappa, estimates = select_offset_exponent(deltas, policy)
    # the paper's s is the floor: kappa rises until no f(delta) is a power outside S
    floor = s
    while (refusal := _delta_refusal(inp.elements, deltas, s)) is not None:
        if kappa == policy.kappa_cap:
            raise CapacityError(f"kappa reaches its cap of {kappa} and {refusal}")
        kappa += 1
        s = (1 << kappa) - 1
    return ConstructionArtifacts(
        input=inp,
        k=k,
        kappa=kappa,
        s=s,
        deltas=deltas,
        notes=f"offset 2**{s} with s = 2**{kappa} - 1 covering "
        f"{len(estimates)} capacity estimates (scan depth {policy.t_max})"
        + (f", raised from s = {floor} past a power at a delta" if s > floor else ""),
    )
