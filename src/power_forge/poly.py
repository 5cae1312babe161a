"""Dense integer polynomials in one variable, exact throughout.

Coefficients are arbitrary-precision ints stored ascending (coeffs[i] is
the coefficient of X**i).  The zero polynomial is the empty tuple and has
degree -1.  Evaluation at a rational point uses homogeneous Horner so the
result is built from integer arithmetic only and lands in ``Fraction``
exactly.  In the scans, Horner serves bare polynomials only
(``IntPoly.row_values``): a constructed f is evaluated from its recipe
(``construct.Recipe.row_values``).

Powers come from ``power_coeffs``, one Miller recurrence over coefficient
sequences: ``construct`` runs it on ints and on exact ``decimal.Decimal``
values, and certifies the powers of both builds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt
from typing import Iterable, Iterator, Sequence, TypeVar, Union

__all__ = ["IntPoly", "power_coeffs", "rational_roots"]

_Scalar = Union[int, "IntPoly"]
_N = TypeVar("_N")  # an exact number type: int, or decimal.Decimal in an exact context


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class IntPoly:
    """Immutable dense polynomial over the integers.

    >>> p = IntPoly([1, 0, 1])        # X**2 + 1
    >>> p(3)
    10
    >>> (p * p).coeffs
    (1, 0, 2, 0, 1)
    >>> p(Fraction(1, 2))
    Fraction(5, 4)
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        clean = _trim(coeffs)
        for c in clean:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def linear(cls, c: int, a: int) -> "IntPoly":
        """The polynomial c*X - a."""
        return cls((-a, c))

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _trim((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __reduce__(self):
        # default pickling would setattr into the frozen instance
        return (IntPoly, (self.coeffs,))

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(value: _Scalar) -> "IntPoly":
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int):
            return IntPoly((value,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: _Scalar) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: _Scalar) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: _Scalar) -> "IntPoly":
        return (-self) + other

    def __mul__(self, other: _Scalar) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        """self**n by Miller's recurrence; see ``power_coeffs``.

        >>> (IntPoly([-1, 1]) ** 3).coeffs             # (X - 1)**3
        (-1, 3, -3, 1)
        >>> (IntPoly([0, 0, 2, 1]) ** 2).coeffs        # (X**3 + 2 X**2)**2
        (0, 0, 0, 0, 4, 4, 1)
        """
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return IntPoly((1,))
        if not self.coeffs:
            return IntPoly()
        return IntPoly(power_coeffs(self.coeffs, n))

    # -- evaluation ------------------------------------------------------

    def __call__(self, x: Union[int, Fraction]) -> Union[int, Fraction]:
        if isinstance(x, int):
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        x = Fraction(x)
        num = self.eval_pair(x.numerator, x.denominator)
        d = max(self.degree, 0)
        return Fraction(num, x.denominator**d)

    def eval_pair(self, u: int, v: int) -> int:
        """Homogenized value v**deg * self(u/v) by Horner, computed without division."""
        if not self.coeffs:
            return 0
        acc = 0
        vp = 1
        for c in reversed(self.coeffs):
            acc = acc * u + c * vp
            vp *= v
        return acc

    def row_values(self, v: int, us: Iterable[int]) -> Iterator[tuple[int, int]]:
        """(u, v**deg self(u/v)) for each u of one row v, by ``eval_pair``."""
        for u in us:
            yield u, self.eval_pair(u, v)


def power_coeffs(coeffs: Sequence[_N], n: int) -> list[_N]:
    """The coefficients of P**n, n >= 1, by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

    For P = sum p_i X**i of degree m with p_0 != 0, Q = P**n satisfies
    P Q' = n P' Q; comparing coefficients of X**(j-1) gives q_0 = p_0**n
    and

        q_j = sum_{i=1..min(m,j)} ((n+1) i - j) p_i q_{j-i} / (j p_0),

    O(m) big-number operations per coefficient instead of the O(m n) of a
    schoolbook product.  The division is exact; a remainder raises
    ArithmeticError.  (``Decimal`` divmod truncates toward zero where int
    divmod floors; the two agree only because every division is exact.)
    A zero constant term is handled by factoring out
    X**z first and shifting the result by z n.  ``coeffs`` is ascending,
    trimmed and not all zero, of ints or of ``decimal.Decimal`` integers
    in an exact context: ``IntPoly.__pow__`` and the decimal text of a
    construction document run this same loop.
    """
    z = 0
    while not coeffs[z]:
        z += 1
    p0, *rest = coeffs[z:]
    terms = [(i, c) for i, c in enumerate(rest, 1) if c]
    q = [p0**n]
    for j in range(1, len(rest) * n + 1):
        acc = 0
        for i, c in terms:
            if i > j:
                break
            acc += ((n + 1) * i - j) * c * q[j - i]
        quo, rem = divmod(acc, j * p0)
        if rem:
            raise ArithmeticError(f"inexact division in Miller's recurrence at X**{j}")
        q.append(quo)
    return [coeffs[0]] * (z * n) + q  # coeffs[0] is a zero of their type when z > 0


def rational_roots(p: IntPoly) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial, sorted ascending.

    A zero constant term contributes the root 0 after factoring out X.
    From degree 2 on, the rest is cut to its squarefree part; a linear
    part gives its root -q_0/q_1 outright, and a longer one has its roots
    lifted p-adically (``_lifted_roots``).  Nothing is factored.

    >>> rational_roots(IntPoly([-9, 0, 25]))       # 25 X^2 - 9
    [Fraction(-3, 5), Fraction(3, 5)]
    """
    if not p:
        raise ValueError("zero polynomial has all rationals as roots")
    coeffs = list(p.coeffs)
    roots = [Fraction(0)] if coeffs[0] == 0 else []
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) > 2:
        coeffs = _squarefree(coeffs)
    if len(coeffs) == 2:
        roots.append(Fraction(-coeffs[0], coeffs[1]))
    elif len(coeffs) > 2:
        roots += _lifted_roots(coeffs)
    return sorted(roots)


def _primitive(a: Sequence[int]) -> list[int]:
    """Nonzero a divided by its content, with a positive leading coefficient."""
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [c // g for c in a]


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """(Q, R) with lead(b)**j a = Q b + R, deg R < deg b and j = deg a - deg b + 1; R trimmed."""
    quotient = []
    for shift in range(len(a) - len(b), -1, -1):
        top = a[shift + len(b) - 1]
        a = [b[-1] * c for c in a]
        quotient = [b[-1] * c for c in quotient] + [top]
        for i, c in enumerate(b):
            a[shift + i] -= top * c
    return quotient[::-1], _trim(a[: len(b) - 1])


def _squarefree(q: list[int]) -> list[int]:
    """q / gcd(q, q') up to a constant (deg q >= 1), the gcd by a primitive remainder sequence."""
    a, b = q, _primitive([i * c for i, c in enumerate(q)][1:])
    while r := _pseudo_divide(a, b)[1]:
        if len(r) == 1:  # q and q' are coprime
            return q
        a, b = b, _primitive(r)
    return _primitive(_pseudo_divide(q, b)[0])


def _eval_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _lifted_roots(q: list[int]) -> list[Fraction]:
    """The rational roots of a squarefree q of degree d >= 2, by p-adic lifting (Loos, 1983).

    Q(Y) = L**(d-1) q(Y/L), L = lead q, is monic; its integer roots are the
    L r, each at most B = 1 + max |Q_i| in size.  Q is squarefree, so some
    prime l has only simple roots of Q mod l.  Newton's step lifts each to
    the unique root mod l**e above it; once l**e > 2B, the symmetric residue
    is the one integer root it can be, and an exact evaluation decides.
    """
    d, lead = len(q) - 1, q[-1]
    monic = [c * lead ** (d - 1 - i) for i, c in enumerate(q[:-1])] + [1]
    slope = [i * c for i, c in enumerate(monic)][1:]
    bound = 2 * (1 + max(abs(c) for c in monic[:-1]))
    for ell in count(2):
        if all(ell % f for f in range(2, isqrt(ell) + 1)):
            residues = [r for r in range(ell) if not _eval_mod(monic, r, ell)]
            if all(_eval_mod(slope, r, ell) for r in residues):
                break
    roots = []
    for a in residues:
        m = ell
        while m <= bound:
            m *= m
            a = (a - _eval_mod(monic, a, m) * pow(_eval_mod(slope, a, m), -1, m)) % m
        a = a if 2 * a <= m else a - m
        if not IntPoly(monic)(a):
            roots.append(Fraction(a, lead))
    return roots
