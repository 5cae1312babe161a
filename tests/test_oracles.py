from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

import pytest

from power_forge import oracles, verify
from power_forge.errors import ValidationError
from power_forge.ntheory import integer_nth_root
from power_forge.oracles import (
    FERMAT_VARIANTS,
    PowerHit,
    SolutionList,
    catalan_expected,
    fermat_quartic_expected,
    lebesgue_expected,
    scan_gamma_minus_pow2,
    scan_recurrence_powers,
    search_catalan,
    search_fermat_quartic,
    search_lebesgue,
)
from power_forge.poly import IntPoly


def test_lebesgue_matches_bruteforce():
    # brute force from the Y side: X^2 = Y^n - 1 with a plain isqrt check
    x_bound, n_max = 30, 6
    expected = set()
    for y in range(-40, 41):
        for n in range(2, n_max + 1):
            v = y**n
            if v < 1:
                continue
            x = isqrt(v - 1)
            if x * x == v - 1 and x <= x_bound:
                expected.add((x, y, n))
                if x:
                    expected.add((-x, y, n))
    got = search_lebesgue(x_bound, n_max)
    assert set(got.solutions) == expected
    assert got.exhaustive and got.bounds == {"x_bound": 30, "n_max": 6}


def test_lebesgue_only_trivial_x():
    sol = search_lebesgue(500, 12)
    assert {s[0] for s in sol.solutions} == {0}
    assert set(sol.solutions) == set(lebesgue_expected(500, 12))


def test_lebesgue_workers_and_validation():
    assert search_lebesgue(300, 8, workers=3) == search_lebesgue(300, 8)
    with pytest.raises(ValidationError):
        search_lebesgue(-1, 5)
    with pytest.raises(ValidationError):
        search_lebesgue(10, 1)


# -- the table join against the root-per-point searches it replaced ---------


def _lebesgue_chunk_by_roots(payload):
    xs, n_max = payload
    found = []
    for x in xs:
        m = x * x + 1
        for n in range(2, n_max + 1):
            if m > 1 and (m.bit_length() - 1) < n:
                break
            y, exact = integer_nth_root(m, n)
            if not exact:
                continue
            found.append((x, y, n))
            if x:
                found.append((-x, y, n))
            if n % 2 == 0:
                found.append((x, -y, n))
                if x:
                    found.append((-x, -y, n))
    return found


def _fermat_chunk_by_roots(payload, nonzero=False):
    a_range, ab_bound, n_min, n_max, pa, pb, rhs_mult = payload
    found = []
    for a in a_range:
        for b in range(ab_bound + 1):
            if gcd(a, b) != 1:
                continue
            if nonzero and (a == 0 or b == 0):
                continue
            lhs = a**pa + b**pb
            if lhs % rhs_mult:
                continue
            target = lhs // rhs_mult
            if target == 0:
                continue
            for n in range(n_min, n_max + 1):
                c, exact = integer_nth_root(target, n)
                if not exact:
                    continue
                a_signs = (a,) if a == 0 else (a, -a)
                b_signs = (b,) if b == 0 else (b, -b)
                for sa in a_signs:
                    for sb in b_signs:
                        found.append((sa, sb, c, n))
    return found


# -- the dict-of-lists table of powers and its joins, kept as the order-exact reference ----


def _dict_power_table(limit, n_min, n_max):
    """Map each c^n <= limit, max(3, n_min) <= n <= n_max, to its (c, n) pairs, n ascending."""
    n_lo = max(3, n_min)
    table = {}
    if limit >= 1 and n_lo <= n_max:
        table[1] = [(1, n) for n in range(n_lo, n_max + 1)]
    for n in range(n_lo, n_max + 1):
        if 1 << n > limit:
            break
        c, value = 2, 1 << n
        while value <= limit:
            table.setdefault(value, []).append((c, n))
            c += 1
            value = c**n
    return table


def _square_join_by_walk(payload):
    """_square_join_chunk's hits in its order, each value t tried with every b, b descending."""
    values, b_powers, a_bound = payload
    found = []
    for t in values:
        for b in reversed(range(len(b_powers))):
            rest = t - b_powers[b]
            if 0 <= rest <= a_bound * a_bound and isqrt(rest) ** 2 == rest:
                found.append((isqrt(rest), b, t))
    return found


def _fermat_chunk_by_dict(payload):
    a_range, ab_bound, n_min, n_max, pa, pb, rhs_mult = payload
    table = _dict_power_table((a_range[-1] ** pa + ab_bound**pb) // rhs_mult, n_min, n_max)
    mirror = pa == pb
    live = oracles._live_classes(pa, pb, rhs_mult)
    found = []
    for a in a_range:
        for b in range(a if mirror else 0, ab_bound + 1):
            if (a % 2, b % 2) not in live or (a**pa + b**pb) % rhs_mult:
                continue
            target = (a**pa + b**pb) // rhs_mult
            hits = table.get(target)
            c = isqrt(target)
            if n_min <= 2 <= n_max and c * c == target:
                hits = [(c, 2), *(hits or ())]
            if not hits or gcd(a, b) != 1:
                continue
            for x, y in ((a, b), (b, a)) if mirror and a != b else ((a, b),):
                for c, n in hits:
                    for sx in (x,) if x == 0 else (x, -x):
                        for sy in (y,) if y == 0 else (y, -y):
                            found.append((sx, sy, c, n))
    return found


def _catalan_by_dict(base_bound, exp_bound):
    table = {}
    for base in range(2, base_bound + 1):
        value = base
        for exp in range(2, exp_bound + 1):
            value *= base
            table.setdefault(value, []).append((base, exp))
    return [
        (x, m, y, n)
        for value, reps in table.items()
        if value - 1 in table
        for x, m in reps
        for y, n in table[value - 1]
    ]


def test_chunks_equal_the_dict_table_in_order():
    # the dense forms hit many powers, with several (c, n) per value; the join
    # takes the values in the dict's order, not the set's
    for pb in (0, 1, 2, 3, 4, 5):
        for bound in (0, 1, 5, 30, 61):
            b_powers = [1] if pb == 0 else [b**pb for b in range(bound + 1)]
            for n_min, n_max in [(3, 3), (3, 12), (4, 9), (2, 40)]:
                values = [*_dict_power_table(bound**2 + b_powers[-1], n_min, n_max), 1, 8, 9]
                payload = (values, b_powers, bound)
                assert oracles._square_join_chunk(payload) == _square_join_by_walk(payload), payload
    for pa, pb, rhs_mult in QUARTIC_FORMS + DENSE_FORMS:
        for n_min, n_max in [(2, 2), (2, 9), (3, 3), (4, 12), (2, 40)]:
            box = (30, n_min, n_max, pa, pb, rhs_mult)
            for a_values in (range(0, 1), range(0, 31), range(11, 25), range(2, 31, 3)):
                payload = (a_values, *box)
                assert oracles._fermat_chunk(payload) == _fermat_chunk_by_dict(payload), payload


@pytest.mark.parametrize("base_bound", [2, 3, 8, 9, 10, 33, 100])
@pytest.mark.parametrize("exp_bound", [2, 3, 5, 8, 20])
def test_catalan_equals_the_dict_table_join(base_bound, exp_bound):
    got = search_catalan(base_bound, exp_bound).solutions
    assert got == tuple(sorted(_catalan_by_dict(base_bound, exp_bound)))


@pytest.mark.parametrize("workers", [1, 2])
def test_boxes_equal_the_dict_table_in_order(monkeypatch, request, workers):
    lebesgue_boxes = [(0, 2), (7, 40), (57, 5), (250, 12)]
    fermat_boxes = [(1, 40), (17, 4), (40, 9)]

    def boxes():
        out = [search_lebesgue(x_bound, n_max, workers) for x_bound, n_max in lebesgue_boxes]
        for variant in FERMAT_VARIANTS:
            out += [search_fermat_quartic(ab_bound, n_max, variant, workers)
                    for ab_bound, n_max in fermat_boxes]
        return out

    got = boxes()
    request.getfixturevalue("serial_pool")  # the reference chunks run in this process
    monkeypatch.setattr(oracles, "_square_join_chunk", _square_join_by_walk)
    monkeypatch.setattr(oracles, "_fermat_chunk", _fermat_chunk_by_dict)
    assert got == boxes()


def test_catalan_join_takes_the_neighbour_divisible_by_4():
    # a 3 mod 4 value meets the power above it, a 1 mod 4 value the one below
    assert sorted(oracles._catalan_join({7, 9}, {8})) == [(8, 7), (9, 8)]
    odd = set(range(1, 400, 2))
    even = set(range(4, 401, 4))
    want = sorted((max(v, w), min(v, w)) for v in odd for w in even if abs(v - w) == 1)
    assert sorted(oracles._catalan_join(odd, even)) == want
    assert len(want) == len(odd) - 1  # every odd value but 1 has its neighbour in even


# bounds 0 and 1, n_max == n_min, and n_max past the bit length of every left-hand side
LEBESGUE_BOXES = [
    (0, 2), (0, 9), (1, 2), (1, 7), (2, 3), (7, 2), (7, 40), (57, 5), (250, 12), (1200, 30),
]
FERMAT_BOXES = [(1, 2), (1, 4), (1, 40), (2, 4), (3, 2), (3, 50), (17, 4), (40, 9), (90, 12)]


@pytest.mark.parametrize("x_bound,n_max", LEBESGUE_BOXES)
def test_lebesgue_table_join_equals_roots(x_bound, n_max):
    # the reference takes a root for every X in the box, odd X included
    got = search_lebesgue(x_bound, n_max)
    assert got.solutions == tuple(sorted(_lebesgue_chunk_by_roots((range(x_bound + 1), n_max))))


@pytest.mark.parametrize("variant", FERMAT_VARIANTS)
@pytest.mark.parametrize("ab_bound,n_max", FERMAT_BOXES)
def test_fermat_table_join_equals_roots(monkeypatch, variant, ab_bound, n_max):
    _, pa, pb, rhs_mult, n_min = oracles._FERMAT_FORMS[variant]
    if n_max < n_min:
        with pytest.raises(ValidationError):
            search_fermat_quartic(ab_bound, n_max, variant)
        return
    got = search_fermat_quartic(ab_bound, n_max, variant)
    if variant == "24n":  # joined from its table: the reference takes roots over the whole box
        box = (range(ab_bound + 1), ab_bound, n_min, n_max, pa, pb, rhs_mult)
        assert got.solutions == tuple(sorted(_fermat_chunk_by_roots(box, nonzero=True)))
        return
    monkeypatch.setattr(oracles, "_fermat_chunk", _fermat_chunk_by_roots)
    assert got == search_fermat_quartic(ab_bound, n_max, variant)


def test_chunks_equal_roots_on_dense_forms():
    # A^pa + B^pb = m C^n with small pa, pb hits many powers, so every
    # chunk table (one per range, sized by its own largest left-hand side)
    # is exercised on true matches, not only on the trivial families (the
    # join's dense test is test_square_join_equals_brute_force_on_dense_forms)
    for pa, pb, rhs_mult in [(1, 1, 1), (1, 2, 1), (2, 2, 2), (3, 3, 1), (1, 3, 3)]:
        for n_min, n_max in [(2, 2), (2, 9), (3, 3), (4, 12)]:
            box = (30, n_min, n_max, pa, pb, rhs_mult)
            every = _fermat_chunk_by_roots((range(0, 31), *box))
            for a_values in (range(0, 1), range(0, 30), range(11, 25), range(2, 31, 3)):
                want = [s for s in every if _fermat_owner(s, pa == pb) in a_values]
                got = oracles._fermat_chunk((a_values, *box))
                assert sorted(got) == sorted(want), (a_values, *box)


def _powers_by_walk(limit, n_min, n_max):
    """Every c^n <= limit, c >= 1, n_min <= n <= n_max, walking c up from 1."""
    powers = set()
    for n in range(n_min, n_max + 1):
        c = 1
        while c**n <= limit:
            powers.add(c**n)
            c += 1
    return powers


# per pb, a bound with a hit at a = bound, b > 0: 5^2 + 2 = 3^3, 2^2 + 2^2 = 2^3,
# 8^2 + 4^3 = 2^7, 4^2 + 2^4 = 2^5 and 7^2 + 2^5 = 3^4
EDGE_BOUNDS = {1: 5, 2: 2, 3: 8, 4: 4, 5: 7}


@pytest.mark.parametrize("pb", [1, 2, 3, 4, 5])
def test_square_join_equals_brute_force_on_dense_forms(serial_pool, pb):
    # a^2 + b^pb = c^n with n >= 3 hits often; each (a, b) of the box is
    # tried, and the chunks of 2 and 3 workers run in this process
    edge = EDGE_BOUNDS[pb]
    for bound in (0, 1, edge, 30, 61):
        b_powers = [b**pb for b in range(bound + 1)]
        for n_min, n_max in [(3, 3), (3, 12), (4, 9), (5, 40)]:
            powers = _powers_by_walk(bound**2 + bound**pb, n_min, n_max)
            want = sorted((a, b, a * a + b**pb) for a in range(bound + 1)
                          for b in range(bound + 1) if a * a + b**pb in powers)
            table = oracles._power_table(bound**2 + bound**pb, n_min, n_max)
            assert table == powers
            for workers in (1, 2, 3):
                got = sorted(oracles._square_join(table, b_powers, bound, workers))
                assert got == want, (pb, bound, n_min, n_max, workers)
            if bound == edge and (n_min, n_max) == (3, 12):
                assert any(a == bound and b for a, b, _ in want)


# the forms of the three quartic variants and the dense forms above, as (pa, pb, rhs_mult)
QUARTIC_FORMS = [form[1:4] for form in oracles._FERMAT_FORMS.values()]
DENSE_FORMS = [(1, 1, 1), (1, 2, 1), (2, 2, 2), (3, 3, 1), (1, 3, 3)]


def _form_id(form):
    return "a^{}+b^{}={}c^n".format(*form)


def _is_power(t):
    """t = c**n for some c and n >= 2 (0 and 1 are)."""
    return t < 2 or any(integer_nth_root(t, n)[1] for n in range(2, t.bit_length() + 1))


@pytest.mark.parametrize("form", QUARTIC_FORMS + DENSE_FORMS, ids=_form_id)
def test_every_hit_lies_in_a_live_class(form):
    # the 2-adic lemma behind the walk of _fermat_chunk: a pair in a dead class
    # fails the gcd or the division, or its target is 2 mod 4, of valuation 1
    pa, pb, rhs_mult = form
    live = oracles._live_classes(pa, pb, rhs_mult)
    assert (0, 0) not in live
    for a in range(41):
        for b in range(41):
            lhs = a**pa + b**pb
            coprime, divides = gcd(a, b) == 1, lhs % rhs_mult == 0
            if coprime and divides and _is_power(lhs // rhs_mult):
                assert (a % 2, b % 2) in live, (form, a, b)
            if (a % 2, b % 2) not in live:
                assert not coprime or not divides or lhs // rhs_mult % 4 == 2, (form, a, b)
    if form in DENSE_FORMS[:1]:  # 1 + 3 = 2**2: odd-odd pairs of a + b hit
        assert live == {(0, 1), (1, 0), (1, 1)}


def test_the_quartic_forms_keep_half_or_a_quarter_of_the_classes():
    live = {name: oracles._live_classes(*form[1:4]) for name, form in oracles._FERMAT_FORMS.items()}
    assert live == {"cn": {(0, 1), (1, 0)}, "2cn": {(1, 1)}, "24n": {(0, 1), (1, 0)}}


def test_odd_x_squared_plus_one_has_valuation_one():
    assert all((x * x + 1) % 8 == 2 for x in range(1, 10**4, 2))
    # the one hit with X = 0 is all the box holds; the table holds no value of valuation 1
    for workers in (1, 2, 3, 5):
        assert {s[0] for s in search_lebesgue(40, 6, workers).solutions} == {0}


@pytest.mark.parametrize("form", QUARTIC_FORMS + DENSE_FORMS, ids=_form_id)
@pytest.mark.parametrize("ab_bound", [1, 2, 7, 30])
def test_live_pairs_count_the_pairs_walked(form, ab_bound):
    pa, pb, rhs_mult = form
    live = oracles._live_classes(pa, pb, rhs_mult)
    walked = sum(
        1
        for a in range(ab_bound + 1)
        for b in range(a if pa == pb else 0, ab_bound + 1)
        if (a % 2, b % 2) in live
    )
    assert oracles._live_pairs(ab_bound, pa, pb, rhs_mult) == walked


def test_a_halved_residue_modulus_loses_the_odd_odd_hits_of_a_plus_b(request):
    # mod 2 * rhs_mult = 2, the class of 1 + 1 reads as target 2 mod 4, where
    # 1 + 3 = 4 is a square; the full modulus 4 sees it
    box = (30, 2, 9, 1, 1, 1)
    want = sorted(_fermat_chunk_by_roots((range(0, 31), *box)))
    assert sorted(oracles._fermat_chunk((range(0, 31), *box))) == want
    assert (1, 3, 2, 2) in want
    request.getfixturevalue("mutant_half_modulus")
    assert oracles._live_classes(1, 1, 1) == {(0, 1), (1, 0)}
    got = sorted(oracles._fermat_chunk((range(0, 31), *box)))
    assert (1, 3, 2, 2) not in got and got != want


def test_leaving_out_the_added_one_loses_the_squares_of_x_0(request):
    # the table of cubes and higher powers holds 1 only when n_max >= 3
    assert search_lebesgue(7, 2).solutions == lebesgue_expected(7, 2) == ((0, -1, 2), (0, 1, 2))
    request.getfixturevalue("mutant_lebesgue_without_one")
    assert oracles.search_lebesgue(7, 2).solutions == ()
    assert oracles.search_lebesgue(7, 4).solutions == lebesgue_expected(7, 4)


def _fermat_owner(solution, mirror):
    """The coordinate whose chunk owns a solution: |A|, or min(|A|, |B|) when pa == pb."""
    a, b = abs(solution[0]), abs(solution[1])
    return min(a, b) if mirror else a


@pytest.mark.parametrize("variant", ["cn", "24n"])
def test_fermat_workers_agree(variant):
    assert search_fermat_quartic(30, 9, variant, workers=3) == search_fermat_quartic(30, 9, variant)


@pytest.mark.parametrize("search", [
    lambda workers: search_lebesgue(1200, 30, workers),
    lambda workers: search_fermat_quartic(90, 12, "24n", workers),
], ids=["lebesgue", "24n"])
def test_the_joined_boxes_agree_at_1_2_and_3_workers(search):
    # the table's values dealt round-robin to the pool's processes
    one = search(1)
    assert search(2) == one == search(3)


@pytest.mark.parametrize("variant", ["cn", "2cn"])
@pytest.mark.parametrize("ab_bound", [37, 60])
def test_mirrored_pairs_across_chunk_edges(variant, ab_bound):
    # pa == pb: a pair is tested once, by the chunk that holds its smaller
    # coordinate, and emitted in both orders; the round-robin chunks put the
    # two coordinates of most pairs in different chunks
    one = search_fermat_quartic(ab_bound, 9, variant)
    assert len(set(one.solutions)) == len(one.solutions)
    for workers in (2, 3, 4):
        assert search_fermat_quartic(ab_bound, 9, variant, workers=workers) == one


def test_mirrored_chunks_on_dense_symmetric_forms():
    # the quartic boxes hold only the trivial families; these forms have
    # solutions whose two coordinates fall in different chunks of any split,
    # and every partition of the box, round-robin or contiguous, must
    # reassemble it
    for pa, rhs_mult in [(1, 1), (2, 2), (3, 1)]:
        for ab_bound in (37, 60):
            box = (ab_bound, 2, 9, pa, pa, rhs_mult)
            want = sorted(_fermat_chunk_by_roots((range(ab_bound + 1), *box)))
            stop = ab_bound + 1
            partitions = [[range(i, stop, parts) for i in range(parts)] for parts in range(1, 8)]
            partitions += [
                [range(0, 1), range(1, stop)],
                [range(0, 10), range(10, 30), range(30, stop)],
                [range(0, stop - 1), range(stop - 1, stop)],
            ]
            for partition in partitions:
                got = []
                for a_values in partition:
                    got += oracles._fermat_chunk((a_values, *box))
                assert sorted(got) == want, (pa, rhs_mult, ab_bound, partition)


def split_range(start: int, stop: int, parts: int) -> list[range]:
    """Split range(start, stop) into <= parts contiguous nonempty chunks, the first ones longer.

    The reference for the integer scan's split of u.
    """
    total = stop - start
    parts = max(1, min(parts, total)) if total > 0 else 1
    step, extra = divmod(total, parts)
    chunks = []
    lo = start
    for i in range(parts):
        hi = lo + step + (1 if i < extra else 0)
        if hi > lo:
            chunks.append(range(lo, hi))
        lo = hi
    return chunks


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("bound", [1, 2, 7])
def test_integer_scan_keeps_the_contiguous_split(monkeypatch, capsys, bound, workers):
    # row v = 1 has every u coprime, so a chunk's points are its length;
    # the chunks run in this process, which leaves the split as it is
    monkeypatch.setattr(verify, "map_chunks", lambda worker, payloads, _: map(worker, payloads))
    verify.verify_polynomial(IntPoly((0, 1)), [], "integer", bound, workers=workers, progress=True)
    lines = capsys.readouterr().err.splitlines()
    points = [int(line.split("points=")[1].split(",")[0]) for line in lines]
    assert points == [len(r) for r in split_range(-bound, bound + 1, workers)]


def test_square_residues_flag_every_square_and_nothing_else():
    flags = oracles._square_residues()
    m = oracles._SQUARE_MODULUS
    assert m == 63 * 65 * 11 and len(flags) == m
    squares = {r * r % m for r in range(m)}
    assert all(flags[s] for s in squares)
    # 4/9 * 3/5 * 4/7 * 6/11 * 7/13 of the residues: the filter rejects most targets
    assert sum(flags) == len(squares) == 2016


def test_square_filter_equals_isqrt():
    flags, m = oracles._square_residues(), oracles._SQUARE_MODULUS

    def filtered(t):
        return bool(flags[t % m]) and isqrt(t) ** 2 == t

    def plain(t):
        return isqrt(t) ** 2 == t

    quartic_sums = {a**4 + b**4 for a in range(61) for b in range(61)}
    for t in chain(range(10**6 + 1), quartic_sums):
        assert filtered(t) == plain(t), t


@pytest.mark.parametrize(
    "limit,n_min,n_max",
    [(0, 2, 9), (1, 2, 9), (7, 3, 5), (8, 3, 5), (64, 2, 6), (64, 4, 4), (80, 3, 70),
     (3**7, 3, 20), (10**6, 2, 30), (10**6, 9, 8), (2**40, 5, 60)],
)
def test_power_table_against_brute_force(monkeypatch, limit, n_min, n_max):
    table = oracles._power_table(limit, n_min, n_max)
    n_lo = max(3, n_min)
    # every c^n <= limit, counted by walking c up from 1 for each n
    expected = {}
    for n in range(n_lo, n_max + 1):
        c = 1
        while c**n <= limit:
            expected.setdefault(c**n, []).append((c, n))
            c += 1
    assert table == set(expected)
    # the roots of a hit take no exponent n with 2^n past the value
    roots = []

    def root(value, n):
        roots.append((value, n))
        return integer_nth_root(value, n)

    monkeypatch.setattr(oracles, "integer_nth_root", root)
    for value in sorted(expected) + list(range(1, min(limit, 2000) + 1)):
        assert oracles._exact_roots(value, n_lo, n_max) == expected.get(value, []), value
    if limit >= 1:
        assert oracles._exact_roots(1, n_lo, n_max) == [(1, n) for n in range(n_lo, n_max + 1)]
    assert all(1 << n <= value for value, n in roots)


class _Built(Exception):
    pass


def _built(*args):
    raise _Built


@pytest.mark.parametrize("search, work, named", [
    (lambda: search_lebesgue(57, 5), lambda: oracles._lebesgue_work(57, 5), "x_bound=57, n_max=5"),
    (lambda: search_catalan(12, 8), lambda: oracles._catalan_work(12, 8),
     "base_bound=12, exp_bound=8"),
    (lambda: search_fermat_quartic(17, 6, "2cn"), lambda: oracles._fermat_work(17, 6, "2cn"),
     "ab_bound=17, n_max=6"),
], ids=["lebesgue", "catalan", "fermat"])
def test_a_box_past_the_work_cap_is_refused_before_any_table(monkeypatch, search, work, named):
    full = search()
    monkeypatch.setattr(oracles, "MAX_BOX_WORK", work())
    assert search() == full
    monkeypatch.setattr(oracles, "MAX_BOX_WORK", work() - 1)
    monkeypatch.setattr(oracles, "_power_table", _built)
    monkeypatch.setattr(oracles, "map_chunks", _built)
    message = f"box too large: {named} come to {work()} units of work, over the cap of {work() - 1}"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        search()


@pytest.mark.parametrize("work", [
    lambda: oracles._lebesgue_work(10**20, 4),
    lambda: oracles._lebesgue_work(20, 10**20),
    lambda: oracles._catalan_work(10**20, 4),
    lambda: oracles._catalan_work(10, 10**20),
    lambda: oracles._fermat_work(10**20, 4),
    lambda: oracles._fermat_work(10, 10**20, "24n"),
])
def test_each_huge_box_is_past_the_cap(work):
    assert work() > oracles.MAX_BOX_WORK


def test_the_documented_boxes_are_inside_the_cap():
    # the README's oracle examples and its table of 1 against 2 workers, and the bench boxes
    works = [oracles._lebesgue_work(x_bound, n_max)
             for x_bound, n_max in ((10**4, 20), (25000, 24), (10**6, 40), (10**7, 40))]
    works += [oracles._catalan_work(100, 20), oracles._catalan_work(400, 40)]
    works += [oracles._fermat_work(150, 8, "2cn"), oracles._fermat_work(1000, 10),
              oracles._fermat_work(3000, 10), oracles._fermat_work(3000, 10, "24n")]
    works += [oracles._fermat_work(220, 10, variant) for variant in FERMAT_VARIANTS]
    assert max(works) <= oracles.MAX_BOX_WORK


def test_power_table_keeps_a_value_equal_to_its_limit():
    assert 3**5 in oracles._power_table(3**5, 3, 5)
    assert oracles._exact_roots(3**5, 3, 5) == [(3, 5)]
    assert 2**12 in oracles._power_table(2**12, 3, 12)
    assert oracles._exact_roots(2**12, 3, 12) == [(16, 3), (8, 4), (4, 6), (2, 12)]
    assert 3**5 not in oracles._power_table(3**5 - 1, 3, 5)


def test_catalan_matches_bruteforce():
    bb, eb = 12, 8
    expected = {
        (x, m, y, n)
        for x in range(2, bb + 1)
        for y in range(2, bb + 1)
        for m in range(2, eb + 1)
        for n in range(2, eb + 1)
        if x**m - y**n == 1
    }
    got = search_catalan(bb, eb)
    assert set(got.solutions) == expected == {(3, 2, 2, 3)}
    assert got.solutions == catalan_expected(bb, eb)


def test_catalan_empty_below_threshold():
    assert search_catalan(2, 20).solutions == ()
    assert catalan_expected(2, 20) == ()
    assert search_catalan(100, 2).solutions == ()
    with pytest.raises(ValidationError):
        search_catalan(1, 5)


def _fermat_bruteforce(ab_bound, n_max, pa, pb, rhs_mult, n_min, nonzero):
    out = set()
    c_cap = 2 * ab_bound ** max(pa, pb)
    for a in range(-ab_bound, ab_bound + 1):
        for b in range(-ab_bound, ab_bound + 1):
            if gcd(a, b) != 1:
                continue
            if nonzero and 0 in (a, b):
                continue
            lhs = a**pa + b**pb
            for n in range(n_min, n_max + 1):
                for c in range(1, c_cap + 1):
                    v = rhs_mult * c**n
                    if v == lhs:
                        out.add((a, b, c, n))
                    if v >= lhs:
                        break
    return out


@pytest.mark.parametrize(
    "variant,pa,pb,rhs_mult,n_min",
    [("cn", 4, 4, 1, 2), ("2cn", 4, 4, 2, 2), ("24n", 2, 4, 1, 4)],
)
def test_fermat_matches_bruteforce(variant, pa, pb, rhs_mult, n_min):
    got = search_fermat_quartic(8, 5, variant=variant)
    expected = _fermat_bruteforce(8, 5, pa, pb, rhs_mult, n_min, variant == "24n")
    assert set(got.solutions) == expected
    assert got.bounds["n_min"] == n_min


def test_fermat_expected_families():
    sol = search_fermat_quartic(40, 6, variant="cn")
    assert set(sol.solutions) == set(fermat_quartic_expected(40, 6, "cn"))
    assert {(s[0], s[1]) for s in sol.solutions} == {(0, 1), (0, -1), (1, 0), (-1, 0)}
    sol2 = search_fermat_quartic(40, 6, variant="2cn", workers=2)
    assert set(sol2.solutions) == set(fermat_quartic_expected(40, 6, "2cn"))
    assert {(s[0], s[1]) for s in sol2.solutions} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    sol3 = search_fermat_quartic(40, 6, variant="24n")
    assert sol3.solutions == fermat_quartic_expected(40, 6, "24n") == ()


def test_fermat_validation():
    with pytest.raises(ValidationError, match="variant"):
        search_fermat_quartic(10, 5, variant="5cn")
    with pytest.raises(ValidationError):
        search_fermat_quartic(0, 5)
    with pytest.raises(ValidationError):
        search_fermat_quartic(10, 3, variant="24n")  # needs n_max >= 4
    with pytest.raises(ValidationError, match="variant"):
        fermat_quartic_expected(10, 5, variant="nope")


def test_solution_lists_are_sorted():
    sol = search_lebesgue(100, 6)
    assert list(sol.solutions) == sorted(sol.solutions)
    assert isinstance(sol, SolutionList)


def test_scan_gamma_known_hits():
    hits = scan_gamma_minus_pow2(Fraction(12), 10)
    assert [(h.index, h.value) for h in hits] == [(2, 8), (3, 4)]
    assert hits[0].power.base == 2 and hits[0].power.exponent == 3
    hits1 = scan_gamma_minus_pow2(Fraction(1), 10)
    assert [(h.index, h.value) for h in hits1] == [(0, 0), (1, -1)]
    assert scan_gamma_minus_pow2(Fraction(8, 5), 20) == ()


def test_scan_gamma_validation():
    with pytest.raises(ValidationError):
        scan_gamma_minus_pow2(Fraction(0), 5)
    with pytest.raises(ValidationError):
        scan_gamma_minus_pow2(Fraction(3), -1)


class _Scanned(Exception):
    pass


# the cap is MAX_SCAN_BITS over the height bits of alpha plus those of beta
@pytest.mark.parametrize("scan, step", [
    (lambda t_max: scan_gamma_minus_pow2(Fraction(9, 25), t_max), 1 + 2),
    (lambda t_max: scan_recurrence_powers(1, -1, 3, 2, t_max), 2 + 2),
    (lambda t_max: scan_recurrence_powers(1, 1, 10**6, 1, t_max), 20 + 1),
    (lambda t_max: scan_recurrence_powers(1, 1, Fraction(1, 10**6), 10**6, t_max), 20 + 20),
], ids=["gamma", "recurrence", "big-root", "big-roots"])
def test_a_scan_depth_past_the_cap_is_refused_before_any_term(monkeypatch, scan, step):
    # the first term's decomposition raises: the depth passed its check
    def scanned(*args):
        raise _Scanned

    monkeypatch.setattr(oracles, "decompose_rational_power", scanned)
    cap = oracles.MAX_SCAN_BITS // step
    with pytest.raises(_Scanned):
        scan(cap)
    for t_max in (cap + 1, 10**20):
        with pytest.raises(ValidationError, match=f"^t_max must be <= {cap}, got {t_max}$"):
            scan(t_max)


def test_scan_gamma_agrees_with_bruteforce(rng):
    # hit for hit against gamma - 2**t built as a Fraction; the scan walks the pairs (a - b 2^t, b)
    from power_forge.powers import decompose_rational_power

    def reference(gamma, t_max):
        terms = ((t, gamma - 2**t) for t in range(t_max + 1))
        return [(t, y, dec) for t, y in terms if (dec := decompose_rational_power(y)) is not None]

    # hits -27/8, 9/25, 8 and 4, and -8; -5/8, 4 times the corpus delta -5/32, has none
    gammas = [Fraction(-19, 8), Fraction(34, 25), Fraction(12), Fraction(-7), Fraction(-5, 8)]
    gammas += [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(25)]
    for _ in range(6):
        gammas += [
            Fraction(-rng.randint(1, 10**6)),  # negative, integral
            Fraction(rng.randint(1, 10**6)),  # positive, integral
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(2, 10**3)),
            Fraction(2 ** rng.randint(0, 64)),  # gamma - 2**t = 0 at one t
        ]
    hits = 0
    for gamma in filter(None, gammas):
        scanned = scan_gamma_minus_pow2(gamma, 64)
        assert [(h.index, h.value, h.power) for h in scanned] == reference(gamma, 64), gamma
        for h in scanned:
            assert type(h.value) is Fraction and h.power.base**h.power.exponent == h.value
        hits += len(scanned)
    assert hits >= 5 + 6


def test_scan_recurrence_powers():
    # u_t = 2^t + 1: among t <= 10 only u_3 = 9 is a perfect power
    hits = scan_recurrence_powers(1, 1, 1, 2, 10)
    assert [(h.index, h.value) for h in hits] == [(3, 9)]
    assert (hits[0].power.base, hits[0].power.exponent) == (3, 2)
    # u_t = 2^t - 1: hits only the fringe values 0 and 1
    hits2 = scan_recurrence_powers(-1, 1, 1, 2, 12)
    assert [(h.index, h.value) for h in hits2] == [(0, 0), (1, 1)]


def test_scan_recurrence_rational_data():
    # u_t = (1/2) 3^t + (1/2) 1^t: 5/2, 14/2 = 7, ... u_1 = 2, u_0 = 1
    hits = scan_recurrence_powers(Fraction(1, 2), Fraction(1, 2), 3, 1, 6)
    values = [Fraction(1, 2) * 3**t + Fraction(1, 2) for t in range(7)]
    assert all(h.value == values[h.index] for h in hits)
    assert isinstance(hits, tuple) and all(isinstance(h, PowerHit) for h in hits)


def test_scan_recurrence_rejects_degenerate():
    for args in [
        (0, 1, 2, 3),
        (1, 0, 2, 3),
        (1, 1, 0, 3),
        (1, 1, 2, 2),
        (1, 1, 2, -2),
    ]:
        with pytest.raises(ValidationError, match="degenerate"):
            scan_recurrence_powers(*args, 5)
    with pytest.raises(ValidationError):
        scan_recurrence_powers(1, 1, 2, 3, -1)


def test_the_pool_has_no_more_processes_than_payloads(serial_pool):
    assert list(oracles.map_chunks(abs, [-1, 2], 3)) == [1, 2]
    assert list(oracles.map_chunks(abs, [-1, 2, -3], 2)) == [1, 2, 3]
    # the box |X| <= 3 has the table {1, 8}, two values, so two chunks however many workers
    assert search_lebesgue(3, 4, workers=3) == search_lebesgue(3, 4)
    assert serial_pool == [2, 2, 2]
