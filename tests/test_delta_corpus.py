"""A corpus of sets with nonzero deltas: points where P(delta) = -+1, so g(delta) = 2.

Random sets of two or more powers almost never have one, so the corpus
is built on purpose.  If b_i = a_i / c_i = delta - u_i / c_i with each
u_i = -+1, every factor c_i delta - a_i of P(delta) is a unit, and P - 1
or P + 1 has the root delta.  ``delta_rich_sets`` draws such sets, with
a fixed seed, from the powers of small height; six sets found by hand
reach the cases it cannot: factors that are no units, two deltas, a
double root, an offset s far past the default scan depth, 0 in S, and a
negative fifth power, whose delta makes the capacity scan's gamma = 4
delta negative.
"""

import json
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from power_forge.cli import main
from power_forge.construct import PowerSetInput, construct, element_pairs, find_deltas
from power_forge.verify import verify_construction

# set -> its deltas
HAND_SETS = {
    ("-1", "-1/8"): ("-9/8",),  # (-9/8 + 1)(8 (-9/8) + 1) = (-1/8)(-8)
    ("-27/8", "-64/27"): ("-91/27", "-19/8"),
    ("25", "27"): ("26",),  # P + 1 = (X - 26)**2
    # 3**41 = delta -+ 1: k = 4 and s = 127, far past the default --t-max 64
    ("36472996377170786403",): ("36472996377170786402", "36472996377170786404"),
    ("0", "25/144"): ("1/16", "1/9"),  # X (144 X - 25) = -1 at 1/16 and at 1/9
    ("-1/8", "-1/32"): ("-5/32",),  # (-5/4 + 1)(-5 + 1) = 1, with -1/32 = (-1/2)**5
}


def _powers(height):
    """Every rational square, cube, fourth and fifth power of height at most ``height``."""
    root = isqrt(height)
    out = set()
    for v in range(1, root + 1):
        for u in range(-root, root + 1):
            if gcd(u, v) == 1:
                for e in (2, 3, 4, 5):
                    q = Fraction(u, v) ** e
                    if max(abs(q.numerator), q.denominator) <= height:
                        out.add(q)
    return sorted(out)


def delta_rich_sets(count, seed=22, height=400):
    """``count`` (delta, set) pairs: 2 or 3 powers of height <= ``height`` sharing delta."""
    by_delta = {}
    for b in _powers(height):
        for unit in (1, -1):
            delta = Fraction(b.numerator + unit, b.denominator)  # c delta - a = unit
            if delta:
                by_delta.setdefault(delta, []).append(b)
    shared = sorted(delta for delta, values in by_delta.items() if len(values) > 1)
    rng = random.Random(seed)
    pairs = []
    for delta in rng.sample(shared, count):
        values = by_delta[delta]
        pairs.append((delta, tuple(rng.sample(values, min(len(values), rng.randint(2, 3))))))
    return pairs


GENERATED = delta_rich_sets(10)
CORPUS = [tuple(Fraction(b) for b in values) for values in HAND_SETS] + [
    values for _, values in GENERATED
]


def _text(values):
    return ",".join(str(b) for b in values)


def test_the_generator_is_deterministic():
    assert [(str(delta), _text(values)) for delta, values in GENERATED] == [
        ("2/25", "1/25,9/100"), ("1/5", "81/400,4/25"), ("1/50", "9/400,1/100"),
        ("7", "64/9,8"), ("5/2", "9/4,361/144"), ("3/25", "4/25,49/400"),
        ("2/27", "25/324,1/27"), ("1/2", "49/100,1/4,9/16"), ("2/49", "9/196,1/49"),
        ("14/3", "169/36,125/27"),
    ]


def test_every_corpus_set_has_a_delta():
    for values, deltas in HAND_SETS.items():
        found = find_deltas(element_pairs(PowerSetInput.from_values(values)))
        assert found == tuple(Fraction(d) for d in deltas)
    for delta, values in GENERATED:
        assert len(values) >= 2
        assert delta in find_deltas(element_pairs(PowerSetInput(values)))


@pytest.mark.parametrize("values", CORPUS, ids=_text)
def test_a_corpus_set_constructs_verifies_and_round_trips(capsys, tmp_path, values):
    art = construct(PowerSetInput(values))
    assert art.deltas and all(art.f(b) == b for b in art.input.elements)
    assert verify_construction(art, 6).passed
    target = str(tmp_path / "art.json")
    assert main(["construct", f"--set={_text(values)}", "--out", target]) == 0
    capsys.readouterr()
    assert main(["verify", "--artifacts", target, "--height", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"


def test_the_power_of_three_needs_an_offset_past_the_default_scan_depth():
    art = construct(PowerSetInput.from_values([str(3**41)]))
    assert (art.k, art.s) == (4, 127)
