"""A committed list of source mutants, each a fault some test must catch.

Run from the root of a checkout (it takes about a minute on 2 cores):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the script copies ``src/`` to a temporary directory,
replaces the mutant's old text, which must occur exactly once in its
module, with the new, and runs ``python -m pytest -q -x`` on the
mutant's test files with ``PYTHONPATH`` at the copy.  A mutant is killed
when pytest exits nonzero.  The script prints one line per mutant and
exits 1 if a mutant not listed as a survivor survives, or if an old text
does not match once.

Importing this module runs nothing, so ``pytest --doctest-modules`` may
collect it.  Reference: R. A. DeMillo, R. J. Lipton and F. G. Sayward,
"Hints on test data selection: help for the practicing programmer",
IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/power_forge
    old: str
    new: str
    tests: tuple[str, ...]  # test files to run, relative to the checkout
    fault: str
    survivor: str = ""  # why the tests cannot yet see the fault; empty: it must be killed


MUTANTS = (
    Mutant("degree-off-by-two", "construct.py",
           "2 * self.k * len(self.pairs) + 1", "2 * self.k * len(self.pairs) + 3",
           ("tests/test_construct.py", "tests/test_verify.py"),
           "Recipe.degree reads 2k|S| + 3 from the recipe"),
    Mutant("row-tail-without-wk", "construct.py",
           "tail = shift * wk", "tail = shift",
           ("tests/test_verify.py",),
           "Recipe.row_values drops W**k from its tail 2**s v W**k, which only row 1 hides"),
    Mutant("empty-recipe-admitted", "construct.py",
           "if not self.pairs:", "if False:",
           ("tests/test_cli.py",),
           "a Recipe takes the empty set, whose P - 1 = 0 has every root: a rational document "
           "fails with a ValueError (exit 3), and an integer one loads with a linear f"),
    Mutant("stored-k-multiple-unchecked", "construct.py",
           "if k < 1 or k % canonical:", "if k < 1:",
           ("tests/test_cli.py",),
           "ConstructionArtifacts takes a stored k that is no multiple of the canonical k"),
    Mutant("stored-deltas-unchecked", "construct.py",
           "if self.deltas is not None and tuple(self.deltas) != deltas:", "if False:",
           ("tests/test_cli.py",),
           "ConstructionArtifacts takes stored deltas other than the roots of P -+ 1"),
    Mutant("stored-text-unchecked", "construct.py",
           'wrong = [name for name in "fgh" if text.get(name) not in (None, made[name])]',
           "wrong = []",
           ("tests/test_cli.py",),
           "ConstructionArtifacts takes stored f, g and h text that its recipe does not give"),
    Mutant("delta-power-check-skipped", "construct.py",
           "if power is not None and value not in elements:", "if False:",
           ("tests/test_cli.py",),
           "ConstructionArtifacts accepts, and construct keeps, an s that makes f(delta) a "
           "perfect power outside S"),
    Mutant("delta-power-check-one-short", "construct.py",
           "value = 4 * delta - (1 << s + 1)", "value = 4 * delta - (1 << s)",
           ("tests/test_cli.py",),
           "ConstructionArtifacts tests 4 delta - 2**s for a power, "
           "not f(delta) = 4 delta - 2**(s + 1)"),
    Mutant("indent-one-short", "jsonio.py",
           '.replace("\\n", "\\n  ")', '.replace("\\n", "\\n ")',
           ("tests/test_jsonio.py",),
           "jsonio.dumps indents a nested value one space short of json.dumps"),
    Mutant("verbatim-str-isdigit", "jsonio.py",
           '"".join(value).encode("ascii", "replace").replace(b"-", b"").isdigit()',
           '"".join(value).replace("-", "").isdigit()',
           ("tests/test_jsonio.py",),
           "jsonio._verbatim takes str.isdigit, which accepts non-ASCII digits"),
    Mutant("document-size-check-off", "cli.py",
           "if size > _MAX_DOCUMENT_BYTES:", "if False:",
           ("tests/test_cli.py",),
           "verify --artifacts reads a file of any size"),
    Mutant("first-modulus-left-out", "powers.py",
           "prod(q for _, q, _ in group)", "prod(q for _, q, _ in group[1:])",
           ("tests/test_powers.py",),
           "each group's product of first moduli leaves out its first candidate's modulus"),
    Mutant("last-modulus-left-out", "powers.py",
           "prod(q for _, q, _ in group)", "prod(q for _, q, _ in group[:-1])",
           ("tests/test_powers.py",),
           "each group's product of first moduli leaves out its last candidate's modulus"),
    Mutant("residue-set-short", "powers.py",
           "frozenset((0, *orbit))", "frozenset((0, *orbit[1:]))",
           ("tests/test_powers.py",),
           "every set of p-th powers mod q lacks the nonzero residue 1"),
    Mutant("small-prime-gcd-without-13", "powers.py",
           "gcd(m, _SMALL_PRIMORIAL)", "gcd(m, 2 * 3 * 5 * 7 * 11)",
           ("tests/test_powers.py",),
           "the small primes dividing m are read from a gcd with 2 * 3 * 5 * 7 * 11, so 13 is "
           "never stripped and bounds no exponent as a prime >= 17 would"),
    Mutant("cancelling-points-skipped", "verify.py",
           "common = gcd(num, vd)", "continue",
           ("tests/test_verify.py",),
           "the scan drops each point with gcd(num, v) != 1 instead of reducing its pair"),
    Mutant("unreduced-pair", "verify.py",
           "num, den = num // common, vd // common", "pass",
           ("tests/test_verify.py",),
           "the scan hands the decomposer num / v**deg unreduced where gcd(num, v) != 1"),
    Mutant("class-guard-dropped", "verify.py",
           "y % m == 0 or strip_prime", "y == 0 or strip_prime",
           ("tests/test_verify.py",),
           "a class whose f(t) has l-adic valuation E or more is read as fixing that valuation"),
    Mutant("class-valuation-ignored", "verify.py",
           "survivors = self._sift(survivors, p, m, 1, l)", "pass",
           ("tests/test_verify.py",),
           "row 1 keeps a point for a prime p that does not divide a valuation its class fixes"),
    Mutant("class-free-points-dropped", "verify.py",
           "self._class_exponents, mask", "self._class_exponents, 0",
           ("tests/test_verify.py",),
           "row 1 drops the points whose classes fix no valuation e >= 1 unless p = 2, 3 or 5 "
           "passes their residues"),
    Mutant("one-drop-table-skipped", "verify.py",
           "if marked or keep else ()", "if marked[1:] or keep else ()",
           ("tests/test_verify.py",),
           "a table that drops exactly one class is taken as keeping every class, and skipped"),
    Mutant("tile-copies-floored", "verify.py",
           "copies = -(-n // m)", "copies = n // m",
           ("tests/test_verify.py",),
           "_tile floors its copy count, so a pattern longer than the row tiles to 0"),
    Mutant("gamma-scan-from-one", "oracles.py",
           "pw = b  # b 2^t", "pw = 1  # b 2^t",
           ("tests/test_oracles.py",),
           "scan_gamma_minus_pow2 starts its walk at a - 1, not a - b, so for b > 1 it scans "
           "gamma - 2**t / b"),
    Mutant("catalan-other-neighbour", "oracles.py",
           "if v & 3 == 3:", "if v & 3 != 3:",
           ("tests/test_oracles.py",),
           "catalan joins each odd power to its neighbour that is 2 mod 4, losing 9 - 8"),
    Mutant("catalan-drops-up", "oracles.py",
           "if v + 1 in even:", "if False:",
           ("tests/test_oracles.py",),
           "catalan never joins an odd power V = 3 mod 4 to V + 1; no box can show it, as no "
           "solution of X^m - Y^n = 1 has X even (Mihailescu), so only the join's unit test can"),
    Mutant("roots-one-exponent-late", "oracles.py",
           "for n in range(n_min, min(n_max", "for n in range(n_min + 1, min(n_max",
           ("tests/test_oracles.py",),
           "_exact_roots starts one exponent above n_min, so a box loses its squares"),
    Mutant("join-without-one", "oracles.py",
           "table.add(1)  # X = 0", "pass  # X = 0",
           ("tests/test_oracles.py",),
           "lebesgue joins the table of cubes and higher powers without 1, which it lacks at "
           "n_max = 2, losing (0, +-1, 2)"),
    Mutant("join-window-one-short", "oracles.py",
           "if rest > reach:", "if rest >= reach:",
           ("tests/test_oracles.py",),
           "_square_join_chunk's window of b stops one above t - a_bound**2, losing each hit "
           "at a = a_bound"),
    Mutant("join-square-check-dropped", "oracles.py",
           "if a * a == rest:", "if True:",
           ("tests/test_oracles.py",),
           "_square_join_chunk takes every b in its window as a hit, with a = isqrt(rest)"),
    Mutant("table-one-short", "oracles.py",
           "range(2, top + 1)", "range(2, top)",
           ("tests/test_oracles.py",),
           "_power_table stops one short of each floor root, losing every c^n near the limit"),
)


def run(mutant: Mutant, root: str) -> tuple[str, str]:
    """(outcome, detail): outcome is "killed", "survived" or "no match"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(root, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = os.path.join(src, "power_forge", mutant.module)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        count = text.count(mutant.old)
        if count != 1:
            return "no match", f"old text found {count} times in {mutant.module}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith("FAILED")]
    detail = failed[0] if failed else (lines[-1] if lines else f"exit {done.returncode}")
    return ("killed" if done.returncode else "survived"), detail


def main(names: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    known = {m.name for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome, detail = run(mutant, root)
        expected = "survived" if mutant.survivor else "killed"
        bad += outcome != expected
        note = f" (listed survivor: {mutant.survivor})" if mutant.survivor else ""
        print(f"{mutant.name}: {outcome}{note} -- {mutant.fault}; {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
