"""JSON encoding for every artifact the library or CLI emits.

Encoding rules, applied uniformly:

* rationals and unbounded integers (coefficients, trace quantities) are
  decimal strings, e.g. "-3/2", "7", so nothing is squeezed through a
  float on the way out.  ``_int_text`` and ``_parse_int`` write and read
  them at any size, whatever ``sys.get_int_max_str_digits()`` allows.
  The f, g and h of a construction with a recipe are the exception: their
  text comes from the recipe's exact decimal build
  (``construct.recipe_text``) when written, and is compared with that
  build's text when loaded, so none of those coefficients is converted
  between int and decimal.  A bare f (the empty set) and every other
  integer go through ``_int_text`` and ``_parse_int``;
* small structural integers (exponents, degrees, bounds, counts, scan
  indices) are plain JSON numbers;
* every top-level document carries ``schema`` ("power-forge/v1") and a
  ``kind`` tag naming its shape.

Solution tuples from the equation searches stay numeric: their entries
are bounded by the scan box and stay far below 2**53 for any feasible
box.

``dumps`` writes every document as ``json.dumps(obj, indent=2)`` does,
byte for byte, but joins the entries of a list of digit strings (f, g,
h, and an integer set's elements or missing values) directly, where that
encoder would escape each on its own.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from .construct import ConstructionArtifacts, PowerSetInput, recipe_text
from .errors import ValidationError
from .oracles import PowerHit, SolutionList
from .poly import IntPoly
from .powers import PowerDecomposition
from .verify import Hit, TraceRecord, VerificationReport

__all__ = [
    "SCHEMA",
    "dumps",
    "parse_rational",
    "rational_text",
    "poly_to_json",
    "poly_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
    "artifacts_to_json",
    "artifacts_from_json",
    "report_to_json",
    "trace_to_json",
    "solutions_to_json",
    "power_hits_to_json",
    "power_query_to_json",
    "error_to_json",
]

SCHEMA = "power-forge/v1"


# Ints of at most this many bits have at most 603 digits, below the 640
# that ``sys.set_int_max_str_digits`` accepts as its least nonzero limit,
# so ``str`` and ``int`` convert them under any setting.  Larger ones are
# split in two halves of their digits at a power of ten made for that
# split, recursively, which keeps the conversion subquadratic (Brent and
# Zimmermann, Modern Computer Arithmetic, 1.7); nothing is kept between calls.
_DIRECT_BITS = 2000
_DIRECT_DIGITS = 603


def _int_text(n: int) -> str:
    """``str(n)`` at any size: a larger int is split in two halves of its digits."""
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    # 10**h has under half the bits of n (log2(10) < 10/3), so high is nonzero
    h = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**h)
    return _int_text(high) + _int_text(low).zfill(h)


def _is_digits(text: str) -> bool:
    # bytes.isdigit is ASCII-only and several times faster than str.isdigit
    return text.isascii() and text.encode().isdigit()


def _digits_of(text: str) -> str:
    """The digits of a decimal integer's text, without its sign; ValidationError if it is none."""
    digits = text.removeprefix("-")
    if not _is_digits(digits):
        raise ValidationError(f"not a decimal integer: {text[:40]!r}")
    return digits


def _parse_int(text: str) -> int:
    """``int(text)`` at any size, for the strings ``_int_text`` writes and no others."""
    digits = _digits_of(text)
    if len(text) <= _DIRECT_DIGITS:
        return int(text)
    h = len(digits) // 2
    value = _parse_int(digits[:-h]) * 10**h + _parse_int(digits[-h:])
    return -value if text.startswith("-") else value


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` at any size: the inverse of ``rational_text``.

    ASCII text of the form ``int`` or ``int/int`` is read by ``_parse_int``,
    without the ``int()`` digit limit; everything else goes to ``Fraction``
    itself.  Surrounding whitespace is ignored; text that is no rational,
    such as "1/0", raises ValidationError.
    """
    stripped = text.strip()
    num, slash, den = stripped.partition("/")
    try:
        if _is_digits(num.removeprefix("-")) and (not slash or _is_digits(den)):
            return Fraction(_parse_int(num), _parse_int(den) if slash else 1)
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {text!r} as a rational") from exc


def rational_text(q: Fraction | int) -> str:
    """``str(Fraction(q))`` at any size."""
    q = Fraction(q)
    text = _int_text(q.numerator)
    return text if q.denominator == 1 else f"{text}/{_int_text(q.denominator)}"


def _verbatim(value: Any) -> bool:
    """Whether value is a nonempty list of strings over 0-9 and "-", which JSON writes as is.

    ``bytes.isdigit`` is ASCII-only, and "replace" turns any other character into a failing "?".
    """
    if type(value) is not list or not value:
        return False
    try:
        return "".join(value).encode("ascii", "replace").replace(b"-", b"").isdigit()
    except TypeError:  # an entry that is no string
        return False


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte.

    In a top-level object with string keys, each ``_verbatim`` list (f, g,
    h, and an integer set's elements or missing values) is written
    directly, its entries joined between the separators that encoder
    writes, where the encoder would escape each on its own (3.9 -> 1.1 ms
    on the 1.1 MB document of {1/139**2}).  Every other value is its
    ``json.dumps`` indented one level, and one final join takes references
    to the entries, never a joined copy of a list; a scalar or an empty
    container is its plain ``json.dumps``, the same bytes without setting
    up the indenting encoder (0.3 against 3.7 us).  A document with no
    such list, as a solution list, a power query or a report with nothing
    missing, is one ``json.dumps``.
    """
    plain = type(obj) is dict and all(type(key) is str for key in obj)
    verbatim = [_verbatim(value) for value in obj.values()] if plain else []
    if not any(verbatim):
        return json.dumps(obj, indent=2) + "\n"
    parts = []
    comma = "{\n  "
    for (key, value), direct in zip(obj.items(), verbatim):
        parts += (comma, json.dumps(key), ": ")
        if direct:
            parts.append('[\n    "')
            for entry in value:
                parts += (entry, '",\n    "')
            parts[-1] = '"\n  ]'
        elif isinstance(value, (dict, list, tuple)) and value:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        else:  # a scalar or an empty container has no line to indent
            parts.append(json.dumps(value))
        comma = ",\n  "
    parts.append("\n}\n")
    return "".join(parts)


def poly_to_json(p: IntPoly) -> list[str]:
    """Coefficients ascending, as decimal strings."""
    return [_int_text(c) for c in p.coeffs]


def poly_from_json(data: list[str]) -> IntPoly:
    return IntPoly(_parse_int(c) for c in data)


def decomposition_to_json(dec: Optional[PowerDecomposition]) -> Optional[dict]:
    if dec is None:
        return None
    return {"base": rational_text(dec.base), "exponent": dec.exponent}


_DECOMPOSITION_FIELDS = {"base": (str, False), "exponent": (int, False)}


def decomposition_from_json(obj: Optional[dict]) -> Optional[PowerDecomposition]:
    """The decomposition an object of ``decomposition_to_json`` holds, or None.

    A missing or mistyped field, or an exponent below 2, raises
    ``ValidationError`` naming the field.
    """
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValidationError("a decomposition must be an object or null")
    _check_fields(obj, _DECOMPOSITION_FIELDS, "decomposition")
    if obj["exponent"] < 2:
        raise ValidationError(f"decomposition: 'exponent' must be >= 2, got {obj['exponent']}")
    return PowerDecomposition(parse_rational(obj["base"]), obj["exponent"])


def artifacts_to_json(art: ConstructionArtifacts) -> dict:
    """The construction document; f, g and h of a recipe come from ``recipe_text``."""
    if art.k is None:
        g = h = None
        f = poly_to_json(art.bare)
    else:
        g, h, f = recipe_text(art.pairs, art.k, art.s)
    return {
        "schema": SCHEMA,
        "kind": "construction",
        "variant": art.input.variant,
        "elements": [rational_text(e) for e in art.input.elements],
        "k": art.k,
        "kappa": art.kappa,
        "s": art.s,
        "deltas": None if art.deltas is None else [rational_text(d) for d in art.deltas],
        "g": g,
        "h": h,
        "f": f,
        "degree": art.degree,
        "notes": art.notes,
    }


# The fields of a construction document: name -> (type, may it be null),
# where ``list`` means a list of strings.  Any other key is ignored, such
# as the ``capacity_estimates`` that earlier documents carry.
_CONSTRUCTION_FIELDS = {
    "variant": (str, False),
    "elements": (list, False),
    "k": (int, True),
    "kappa": (int, True),
    "s": (int, True),
    "deltas": (list, True),
    "g": (list, True),
    "h": (list, True),
    "f": (list, False),
    "degree": (int, False),
    "notes": (str, False),
}
_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list of strings"}


def _check_fields(obj: dict, fields: dict, where: str) -> None:
    """Raise ValidationError naming the first of ``fields`` that obj lacks or mistypes."""
    for name, (kind, nullable) in fields.items():
        if name not in obj:
            raise ValidationError(f"{where} has no field {name!r}")
        value = obj[name]
        if value is None and nullable:
            continue
        null = " or null" if nullable else ""
        if type(value) is not kind or kind is list and not all(type(v) is str for v in value):
            raise ValidationError(f"{where}: {name!r} must be {_TYPE_NAMES[kind]}{null}")


def artifacts_from_json(obj: Any) -> ConstructionArtifacts:
    """The artifacts a construction document holds.

    The document's shape is checked first: a JSON object with every field
    present and of its type, and a ``degree`` that is that of ``f``; a
    fault raises ``ValidationError`` naming the field.
    ``ConstructionArtifacts`` then raises ``ValidationError`` when the
    stored f, g and h are not those of the stored k and s.  With a recipe
    (k or s given), they are handed over as text, never parsed; without
    one, f is a bare polynomial and is parsed, and a g or h handed over as
    text is refused.
    """
    kind = (obj.get("schema"), obj.get("kind")) if isinstance(obj, dict) else None
    if kind != (SCHEMA, "construction"):
        raise ValidationError("not a construction document")
    _check_fields(obj, _CONSTRUCTION_FIELDS, "construction document")
    text = {name: obj[name] for name in "fgh"}
    # refused as a parse would refuse it, but nothing is converted
    for data in filter(None, text.values()):
        for entry in data:
            _digits_of(entry)
    bare = poly_from_json(text.pop("f")) if obj["k"] is None and obj["s"] is None else None
    degree = len(obj["f"]) - 1 if bare is None else bare.degree
    if degree != obj["degree"]:
        raise ValidationError(f"stored degree {obj['degree']} is not the degree {degree} of f")
    inp = PowerSetInput.from_values(
        [parse_rational(e) for e in obj["elements"]], variant=obj["variant"]
    )
    return ConstructionArtifacts(
        input=inp,
        bare=bare,
        text=text,
        k=obj["k"],
        kappa=obj["kappa"],
        s=obj["s"],
        deltas=None
        if obj["deltas"] is None
        else tuple(parse_rational(d) for d in obj["deltas"]),
        notes=obj["notes"],
    )


def _hit_to_json(h: Hit) -> dict:
    return {
        "x": rational_text(h.x),
        "value": rational_text(h.value),
        "power": decomposition_to_json(h.power),
    }


def report_to_json(rep: VerificationReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "verification",
        "variant": rep.variant,
        "bound": rep.bound,
        "points_scanned": rep.points_scanned,
        "verdict": rep.verdict,
        "hits": [_hit_to_json(h) for h in rep.hits],
        "extras": [_hit_to_json(h) for h in rep.extras],
        "missing": [rational_text(b) for b in rep.missing],
        "notes": rep.notes,
    }


def trace_to_json(rec: TraceRecord) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "trace",
        "x": rational_text(rec.x),
        "k": rec.k,
        "u": _int_text(rec.u),
        "v": _int_text(rec.v),
        "A": _int_text(rec.A),
        "B": _int_text(rec.B),
        "w": _int_text(rec.w),
        "power_sum": _int_text(rec.power_sum),
        "checks": dict(rec.checks),
        "ok": rec.ok,
    }


def solutions_to_json(sol: SolutionList) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "solutions",
        "equation": sol.equation,
        "bounds": sol.bounds,
        "exhaustive": sol.exhaustive,
        "count": len(sol.solutions),
        "solutions": [list(t) for t in sol.solutions],
        "notes": sol.notes,
    }


def power_hits_to_json(hits: tuple[PowerHit, ...], sequence: str, params: dict) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "power-scan",
        "sequence": sequence,
        "params": params,
        "count": len(hits),
        "hits": [
            {
                "index": h.index,
                "value": rational_text(h.value),
                "power": decomposition_to_json(h.power),
            }
            for h in hits
        ],
    }


def power_query_to_json(value: Fraction, dec: Optional[PowerDecomposition]) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "power",
        "value": rational_text(value),
        "is_power": dec is not None,
        "base": None if dec is None else rational_text(dec.base),
        "exponent": None if dec is None else dec.exponent,
    }


def error_to_json(message: str, code: str = "validation") -> dict:
    return {"schema": SCHEMA, "kind": "error", "error": {"code": code, "message": message}}
