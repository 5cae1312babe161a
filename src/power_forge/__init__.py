"""Polynomials with a prescribed set of perfect-power values.

For any finite set S of perfect powers (integer or rational sense), the
library constructs a polynomial f with integer coefficients whose
perfect-power values are exactly the elements of S, each a fixed point
of f.  Exhaustive bounded scans validate constructions empirically,
per-point traces check the arithmetic invariants the construction rests
on, and bounded searches document the classical Diophantine facts used
along the way.  All arithmetic is exact.

Each name is imported from the module that defines it, for example
``from power_forge.construct import construct``; the package root holds
only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
