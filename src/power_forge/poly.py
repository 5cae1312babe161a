"""Dense integer polynomials in one variable, exact throughout.

Coefficients are arbitrary-precision ints stored ascending (coeffs[i] is
the coefficient of X**i).  The zero polynomial is the empty tuple and has
degree -1.  Evaluation at a rational point uses homogeneous Horner so the
result is built from integer arithmetic only and lands in ``Fraction``
exactly.  In the scans, Horner serves bare polynomials only: a
constructed f is evaluated from its recipe (``verify._row_values``).

Powers come from ``power_coeffs``, one Miller recurrence over coefficient
sequences: ``construct`` runs it on ints and on exact ``decimal.Decimal``
values, and certifies the powers of both builds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, TypeVar, Union

from .ntheory import divisors

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
        """Homogenized value v**deg * self(u/v) by Horner, computed without division.

        The scans use it for bare polynomials; a constructed f is scanned
        through its recipe instead.
        """
        if not self.coeffs:
            return 0
        acc = 0
        vp = 1
        for c in reversed(self.coeffs):
            acc = acc * u + c * vp
            vp *= v
        return acc


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

    A zero constant term contributes the root 0 after factoring out X.  A
    linear remainder q gives its root -q_0/q_1 outright; from degree 2 on,
    candidates r/s (r | constant term, s | leading coefficient, coprime,
    s >= 1) are each confirmed by exact evaluation.

    >>> rational_roots(IntPoly([-9, 0, 25]))       # 25 X^2 - 9
    [Fraction(-3, 5), Fraction(3, 5)]
    """
    if not p:
        raise ValueError("zero polynomial has all rationals as roots")
    coeffs = list(p.coeffs)
    roots: set[Fraction] = set()
    shift = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.add(Fraction(0))
    q = IntPoly(coeffs)
    if q.degree == 1:
        roots.add(Fraction(-q.coeffs[0], q.coeffs[1]))
    elif q.degree >= 2:
        const, lead = q.coeffs[0], q.lead
        for s in divisors(lead):
            for r in divisors(const):
                if gcd(r, s) != 1:
                    continue
                for cand_num in (r, -r):
                    if q.eval_pair(cand_num, s) == 0:
                        roots.add(Fraction(cand_num, s))
    return sorted(roots)
