"""Independent checks of the program's outputs, standard library only.

Nothing here imports ``power_forge``: every expected answer is computed
from the definitions (the recipe for f, the height of a rational, the
choice of k) or written out from the literature (Lebesgue, Mihailescu,
the trivial quartic families).  The program's own ``*_expected`` helpers
are never consulted.

Each ``check_*`` function takes the parsed JSON document an operation
produced and raises ``CheckFailed`` on the first disagreement.
``CORRUPTIONS`` maps each document kind to edits that turn a right
answer into a wrong one; the benchmark applies them to real outputs and
requires every checker to reject every edit.

Huge integers are compared as integers, never through ``str()``, so the
interpreter's digit limit for int/str conversion stays untouched.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import lcm, prod


class CheckFailed(Exception):
    """An output disagreed with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- arithmetic computed apart from the program ------------------------------


def prime_factors(n: int) -> set[int]:
    """Distinct primes of n >= 1 by trial division (the benchmark's inputs are small)."""
    out = set()
    while n % 2 == 0:
        out.add(2)
        n //= 2
    d = 3
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 2
    if n > 1:
        out.add(n)
    return out


def canonical_k(elements) -> int:
    """lcm(4, p - 1) over the primes p dividing some denominator."""
    k = 4
    for b in elements:
        for p in prime_factors(b.denominator):
            k = lcm(k, p - 1)
    return k


def parse_int(text: str) -> int:
    """A decimal string of any length as int.

    ``int()`` refuses more than 4,300 digits unless the limit is lifted,
    and the benchmark never lifts it, so long strings are split.
    """
    digits = text.lstrip("-")
    sign = -1 if text.startswith("-") else 1
    if len(digits) <= 4000:
        return sign * int(digits)
    low = len(digits) // 2
    return sign * (parse_int(digits[:-low]) * 10**low + parse_int(digits[-low:]))


def height(q: Fraction) -> int:
    return max(abs(q.numerator), q.denominator)


def _mobius_upto(n: int) -> list[int]:
    mu = [1] * (n + 1)
    is_comp = [False] * (n + 1)
    for p in range(2, n + 1):
        if not is_comp[p]:
            for m in range(p, n + 1, p):
                is_comp[m] = True
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def rationals_up_to_height(h: int) -> int:
    """Number of rationals u/v with max(|u|, v) <= h.

    Coprime pairs in [1, h]^2 are counted by Moebius inversion,
    sum of mu(d) * floor(h/d)**2; each gives u/v and -u/v, and 0 adds one.
    """
    mu = _mobius_upto(h)
    coprime = sum(mu[d] * (h // d) ** 2 for d in range(1, h + 1))
    return 2 * coprime + 1


def poly_at(coeffs: list[int], u: int, v: int = 1) -> Fraction:
    """Value at u/v of the polynomial with ascending coefficients."""
    d = len(coeffs) - 1
    return Fraction(sum(c * u**i * v ** (d - i) for i, c in enumerate(coeffs)), v**d)


def recipe_g(elements, k: int, x: Fraction) -> Fraction:
    """g(x) = prod(c_i x - a_i)**k + 1 for b_i = a_i / c_i."""
    return prod(b.denominator * x - b.numerator for b in elements) ** k + 1


def recipe_h(g: Fraction, s: int, x: Fraction) -> Fraction:
    """h(x) = (x - 2**s) g(x) + 2**s."""
    return (x - (1 << s)) * g + (1 << s)


# -- verify ---------------------------------------------------------------------


def check_scan(doc: dict, *, elements, variant: str, window: int) -> None:
    """Verdict PASS, hits exactly the set inside the window, true powers, point count.

    For the rational variant the recipe value at a hit x is
    g(x) * ((x - 2**s) g(x) + 2**s), which equals x whenever g(x) = 1, so
    the check needs g(x) = 1 (x is a root of prod(c_i X - a_i)) and the
    value to be x.  For the integer variant the recipe is complete:
    g = prod(X - b_i)**2 + 1 and h = (X - 1) g + 1.
    """
    require(doc.get("kind") == "verification", "not a verification document")
    require(doc["variant"] == variant, f"variant {doc['variant']!r} != {variant!r}")
    require(doc["bound"] == window, f"bound {doc['bound']} != {window}")
    require(doc["verdict"] == "PASS", f"verdict {doc['verdict']}")
    if variant == "rational":
        inside = {b for b in elements if height(b) <= window}
        points = rationals_up_to_height(window)
    else:
        inside = {b for b in elements if abs(b) <= window}
        points = 2 * window + 1
    require(doc["points_scanned"] == points,
            f"points_scanned {doc['points_scanned']} != {points}")
    require(doc["extras"] == [], "extras reported")
    hits = [(Fraction(h["x"]), Fraction(h["value"]), h["power"]) for h in doc["hits"]]
    require(len(hits) == len(inside), f"{len(hits)} hits, expected {len(inside)}")
    require({(x, y) for x, y, _ in hits} == {(b, b) for b in inside},
            "hits differ from {(b, b) : b in S inside the window}")
    for x, y, power in hits:
        exponent = power["exponent"]
        require(exponent >= 2 and Fraction(power["base"]) ** exponent == y,
                f"hit at {x}: base**exponent != value")
        if variant == "rational":
            g = recipe_g(elements, canonical_k(elements), x)
            require(g == 1 and y == x, f"hit at {x}: recipe value differs")
        else:
            g = prod((x - b) ** 2 for b in elements) + 1
            require(g * ((x - 1) * g + 1) == y, f"hit at {x}: recipe value differs")


# -- construct ------------------------------------------------------------------


def check_construction(doc: dict, *, elements, points) -> None:
    """k, degree, fixed points, and f = g h against the recipe at integer points."""
    require(doc.get("kind") == "construction", "not a construction document")
    require(doc["variant"] == "rational", "expected the rational variant")
    require([Fraction(e) for e in doc["elements"]] == sorted(elements),
            "elements differ from the input set")
    k, s, kappa = doc["k"], doc["s"], doc["kappa"]
    require(k == canonical_k(elements), f"k = {k}, expected {canonical_k(elements)}")
    require(kappa >= 1 and s == (1 << kappa) - 1, f"s = {s} is not 2**kappa - 1")
    f = [parse_int(c) for c in doc["f"]]
    g = [parse_int(c) for c in doc["g"]]
    h = [parse_int(c) for c in doc["h"]]
    degree = 2 * k * len(elements) + 1
    require(len(f) - 1 == degree == doc["degree"] and f[-1] != 0,
            f"deg f = {len(f) - 1}, expected 2k|S|+1 = {degree}")
    for b in elements:
        require(poly_at(f, b.numerator, b.denominator) == b, f"f({b}) != {b}")
    for x in points:
        x = Fraction(x)
        gx = recipe_g(elements, k, x)
        hx = recipe_h(gx, s, x)
        require(poly_at(g, x.numerator) == gx, f"g({x}) differs from the recipe")
        require(poly_at(h, x.numerator) == hx, f"h({x}) differs from the recipe")
        require(poly_at(f, x.numerator) == gx * hx, f"f({x}) != g({x}) h({x})")


# -- oracles --------------------------------------------------------------------


def lebesgue_solutions(n_max: int) -> set[tuple]:
    """X^2 + 1 = Y^n has only X = 0 (Lebesgue, 1850): Y = 1, and Y = -1 for even n."""
    out = {(0, 1, n) for n in range(2, n_max + 1)}
    out |= {(0, -1, n) for n in range(2, n_max + 1) if n % 2 == 0}
    return out


def catalan_solutions(base_bound: int, exp_bound: int) -> set[tuple]:
    """X^m - Y^n = 1 with X, Y, m, n >= 2 has only 3^2 - 2^3 (Mihailescu, 2004)."""
    return {(3, 2, 2, 3)} if base_bound >= 3 and exp_bound >= 3 else set()


def fermat_solutions(variant: str, n_max: int) -> set[tuple]:
    """Coprime solutions are the trivial families only.

    A^4 + B^4 = C^n: one of A, B is 0 and the other +-1, C = 1.
    A^4 + B^4 = 2 C^n: A, B = +-1, C = 1.
    A^2 + B^4 = C^n with A, B nonzero and n >= 4: none (Bennett, Ellenberg, Ng).
    """
    if variant == "cn":
        return {t for n in range(2, n_max + 1)
                for t in ((0, 1, 1, n), (0, -1, 1, n), (1, 0, 1, n), (-1, 0, 1, n))}
    if variant == "2cn":
        return {(a, b, 1, n) for n in range(2, n_max + 1) for a in (1, -1) for b in (1, -1)}
    return set()


def check_solutions(doc: dict, *, equation: str, expected: set) -> None:
    require(doc.get("kind") == "solutions", "not a solutions document")
    require(doc["equation"] == equation, f"equation {doc['equation']!r}")
    got = [tuple(t) for t in doc["solutions"]]
    require(doc["count"] == len(got) == len(set(got)), "count or duplicate mismatch")
    require(set(got) == expected,
            f"solutions differ: extra {sorted(set(got) - expected)[:3]}, "
            f"absent {sorted(expected - set(got))[:3]}")


# -- power ----------------------------------------------------------------------


def check_power(doc: dict, *, value: Fraction, base) -> None:
    """value = base**p with base not a power gives exponent p; base None means no power."""
    require(doc.get("kind") == "power", "not a power document")
    require(Fraction(doc["value"]) == value, "value echoed wrongly")
    if base is None:
        require(doc["is_power"] is False and doc["exponent"] is None
                and doc["base"] is None, "a near-power reported as a power")
        return
    base, p = base
    require(doc["is_power"] is True, "a true power reported as none")
    require(doc["exponent"] == p, f"exponent {doc['exponent']}, expected {p}")
    require(Fraction(doc["base"]) == base, "wrong base")


# -- corruptions for the self-test --------------------------------------------------


def _edit(doc: dict, fn):
    out = copy.deepcopy(doc)
    return out if fn(out) is not False else None


def _bump(d: dict, key: str, by=1):
    d[key] = d[key] + by


def _flip_verdict(d):
    d["verdict"] = "FAIL" if d["verdict"] == "PASS" else "PASS"


def _add_hit(d):
    d["hits"].append({"x": "7/3", "value": "7/3", "power": {"base": "7/3", "exponent": 2}})


def _drop_hit(d):
    if not d["hits"]:
        return False
    d["hits"].pop()


def _bad_exponent(d):
    if not d["hits"]:
        return False
    d["hits"][0]["power"]["exponent"] += 1


def _scale_coeff(name: str):
    def edit(d):  # times 10, or 0 -> 1, edited as text so no huge int meets str()
        coeffs = d[name]
        mid = len(coeffs) // 2
        coeffs[mid] = "1" if coeffs[mid] == "0" else coeffs[mid] + "0"
    return edit


def _tamper_s(d):
    d["kappa"] += 1
    d["s"] = (1 << d["kappa"]) - 1


def _drop_solution(d):
    if not d["solutions"]:
        return False
    d["solutions"].pop()
    d["count"] -= 1


def _add_solution(d):
    d["solutions"].append([2, 3, 5, 7])
    d["count"] += 1


def _flip_power(d):
    if d["is_power"]:
        d["exponent"] += 1
    else:
        d.update(is_power=True, base=d["value"], exponent=2)


CORRUPTIONS = {
    "verification": (
        lambda d: _bump(d, "points_scanned"),
        _flip_verdict,
        _add_hit,
        _drop_hit,
        _bad_exponent,
    ),
    "construction": (
        lambda d: _bump(d, "k", 4),
        _scale_coeff("f"),
        _scale_coeff("g"),
        _scale_coeff("h"),
        _tamper_s,
    ),
    "solutions": (_drop_solution, _add_solution),
    "power": (_flip_power,),
}


def corrupted(doc: dict):
    """Every applicable corruption of a genuine document."""
    for fn in CORRUPTIONS[doc["kind"]]:
        bad = _edit(doc, fn)
        if bad is not None:
            yield bad


def rejects(check, doc: dict) -> bool:
    try:
        check(doc)
    except (CheckFailed, KeyError, TypeError, ValueError):
        return True
    return False
