import decimal
import importlib.util
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from power_forge import jsonio
from power_forge.cli import main
from power_forge.construct import PowerSetInput, construct, element_pairs, recipe_text
from power_forge.errors import ValidationError
from power_forge.oracles import scan_gamma_minus_pow2, search_catalan
from power_forge.poly import IntPoly
from power_forge.powers import PowerDecomposition, decompose_integer_power
from power_forge.verify import trace_quantities, verify_construction


def walk(node):
    yield node
    if isinstance(node, dict):
        for v in node.values():
            yield from walk(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk(v)


def assert_clean_document(doc, kind):
    assert doc["schema"] == "power-forge/v1"
    assert doc["kind"] == kind
    # everything must survive a JSON round trip with no floats anywhere
    replayed = json.loads(jsonio.dumps(doc))
    assert replayed == doc
    assert not any(isinstance(n, float) for n in walk(replayed))


def test_poly_roundtrip():
    p = IntPoly([-9, 0, 25])
    data = jsonio.poly_to_json(p)
    assert data == ["-9", "0", "25"]
    assert jsonio.poly_from_json(data) == p
    assert jsonio.poly_from_json([]) == IntPoly()


def test_decomposition_roundtrip():
    dec = PowerDecomposition(Fraction(-2, 3), 3)
    data = jsonio.decomposition_to_json(dec)
    assert data == {"base": "-2/3", "exponent": 3}
    assert jsonio.decomposition_from_json(data) == dec
    assert jsonio.decomposition_to_json(None) is None
    assert jsonio.decomposition_from_json(None) is None


@pytest.mark.parametrize("obj, named", [
    ({"base": "2", "exponent": 1}, "'exponent'"),
    ({"base": "2", "exponent": "x"}, "'exponent'"),
    ({"base": 2, "exponent": 3}, "'base'"),
    ({}, "'base'"),
])
def test_decomposition_from_json_names_a_bad_field(obj, named):
    with pytest.raises(ValidationError, match=named):
        jsonio.decomposition_from_json(obj)


def test_artifacts_roundtrip_rational():
    art = construct(PowerSetInput.from_values(["9/25", "4"]))
    doc = jsonio.artifacts_to_json(art)
    assert_clean_document(doc, "construction")
    assert doc["elements"] == ["9/25", "4"]
    assert doc["k"] == art.k and doc["s"] == art.s
    assert doc["degree"] == art.f.degree
    assert jsonio.artifacts_from_json(doc) == art


def test_artifacts_roundtrip_integer_and_empty():
    arti = construct(PowerSetInput.from_values([4, 8, 36], variant="integer"))
    doci = jsonio.artifacts_to_json(arti)
    assert_clean_document(doci, "construction")
    assert doci["deltas"] is None and doci["kappa"] is None
    assert jsonio.artifacts_from_json(doci) == arti

    arte = construct(PowerSetInput.from_values([]))
    doce = jsonio.artifacts_to_json(arte)
    assert doce["f"] == ["2"] and doce["g"] is None
    assert jsonio.artifacts_from_json(doce) == arte


def test_artifacts_from_json_rejects_wrong_kind():
    with pytest.raises(ValidationError):
        jsonio.artifacts_from_json({"schema": "power-forge/v1", "kind": "trace"})
    with pytest.raises(ValidationError):
        jsonio.artifacts_from_json({"schema": "other/v2", "kind": "construction"})


def test_report_document():
    art = construct(PowerSetInput.from_values(["9/25"]))
    rep = verify_construction(art, 30)
    doc = jsonio.report_to_json(rep)
    assert_clean_document(doc, "verification")
    assert doc["verdict"] == "PASS"
    assert doc["bound"] == 30 and isinstance(doc["points_scanned"], int)
    assert doc["hits"][0] == {
        "x": "9/25",
        "value": "9/25",
        "power": {"base": "3/5", "exponent": 2},
    }


def test_trace_document_uses_strings_for_big_integers():
    rec = trace_quantities(((9, 25),), Fraction(1, 2))
    doc = jsonio.trace_to_json(rec)
    assert_clean_document(doc, "trace")
    assert doc["power_sum"] == "2417" and doc["A"] == "7"
    assert doc["k"] == 4
    assert doc["ok"] is True
    assert list(doc["checks"]) == [
        "coprime_pair",
        "gcd_power_of_two",
        "small_sum_trivial",
        "value_identity",
        "mod_four",
        "zero_iff_member",
    ]


def test_solutions_document():
    sol = search_catalan(20, 6)
    doc = jsonio.solutions_to_json(sol)
    assert_clean_document(doc, "solutions")
    assert doc["solutions"] == [[3, 2, 2, 3]]
    assert doc["count"] == 1 and doc["exhaustive"] is True


def test_power_scan_document():
    hits = scan_gamma_minus_pow2(Fraction(12), 8)
    doc = jsonio.power_hits_to_json(hits, "gamma - 2^t", {"gamma": "12", "t_max": 8})
    assert_clean_document(doc, "power-scan")
    assert doc["count"] == 2
    assert doc["hits"][0] == {
        "index": 2,
        "value": "8",
        "power": {"base": "2", "exponent": 3},
    }


def test_power_query_document():
    doc = jsonio.power_query_to_json(Fraction(64), decompose_integer_power(64))
    assert_clean_document(doc, "power")
    assert doc == {
        "schema": "power-forge/v1",
        "kind": "power",
        "value": "64",
        "is_power": True,
        "base": "2",
        "exponent": 6,
    }
    miss = jsonio.power_query_to_json(Fraction(12), None)
    assert miss["is_power"] is False and miss["base"] is None


def test_error_document():
    doc = jsonio.error_to_json("boom", "validation")
    assert_clean_document(doc, "error")
    assert doc["error"] == {"code": "validation", "message": "boom"}


def test_ascii_negative_fractions():
    art = construct(PowerSetInput.from_values(["-8/27"]))
    text = jsonio.dumps(jsonio.artifacts_to_json(art))
    assert '"-8/27"' in text
    assert text.isascii()


def test_integers_past_the_str_digit_limit_roundtrip():
    big = 10**20000 - 7  # 20,000 digits, far past the default limit of 4,300
    p = IntPoly([-big, 0, big // 3, 10**640])
    data = jsonio.poly_to_json(p)
    assert len(data[0]) == 20001 and data[0].startswith("-9999") and data[0].endswith("93")
    assert data[3] == "1" + "0" * 640
    assert jsonio.poly_from_json(data) == p
    dec = PowerDecomposition(Fraction(-big, 3**9000), 3)
    assert jsonio.decomposition_from_json(jsonio.decomposition_to_json(dec)) == dec


def test_conversions_ignore_the_str_digit_limit(rng):
    # texts at the split points of the halving: 603 and 604 characters, a leading run of zeros
    texts = ["0" * 700 + "5", "8" * 603, "8" * 604, "-" + "8" * 602, "-" + "8" * 603]
    expected = {text: int(text) for text in texts}  # under the default limit of 4,300
    # 640 is the least nonzero limit Python accepts
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        values = [0, -1, 10**603 - 1, 10**603, -(10**1200), 10**2400 + 1]
        for bits in (2001, 4000, 9000, 40000):
            values.append(rng.getrandbits(bits) * rng.choice((1, -1)))
        # ints at the split points: either side of the direct bound, powers of ten
        # and their neighbours, low halves that are zeros or start with zeros
        split = [rng.getrandbits(bits - 1) | 1 << (bits - 1) for bits in (2000, 2001)]
        split += [10**k + d for k in (602, 603, 604, 1206, 5000) for d in (-1, 1)]
        split += [7 * 10**2000, 10**3001 + 1]
        values += split + [-n for n in split]
        for n in values:
            text = jsonio._int_text(n)
            assert jsonio._parse_int(text) == n
            q = Fraction(n, 3**700)
            assert jsonio.parse_rational(jsonio.rational_text(q)) == q
        sys.set_int_max_str_digits(0)
        assert all(jsonio._int_text(n) == str(n) for n in values)
        assert all(jsonio._parse_int(str(n)) == n for n in values)
        for limit in (640, 0):
            sys.set_int_max_str_digits(limit)
            for text, n in expected.items():
                assert jsonio._parse_int(text) == n and jsonio.parse_rational(text) == n
            assert jsonio.parse_rational("-0/5") == 0
            assert jsonio.parse_rational("007/3") == Fraction(7, 3)
    finally:
        sys.set_int_max_str_digits(old_limit)
    # text that is no number is bad input, at any length
    for text in ("1" * 700 + "_1", "2x"):
        with pytest.raises(ValidationError):
            jsonio.poly_from_json(["1", text])
    for text in ("1" * 700 + "/-3", "1/0", "x/2"):
        with pytest.raises(ValidationError, match="cannot parse"):
            jsonio.parse_rational(text)


def test_artifacts_are_checked_against_their_recipe():
    doc = jsonio.artifacts_to_json(construct(PowerSetInput.from_values(["9/25", "4"])))
    assert jsonio.artifacts_from_json(doc).f.degree == doc["degree"]
    for field in ("f", "g", "h"):
        bad = dict(doc, **{field: list(doc[field])})
        bad[field][1] = str(int(bad[field][1]) + 1)
        with pytest.raises(ValidationError, match=f"stored {field}$"):
            jsonio.artifacts_from_json(bad)
    # a tampered k is refused by the degree of f, before any rebuild
    with pytest.raises(ValidationError, match="degree"):
        jsonio.artifacts_from_json(dict(doc, k=10**9))
    with pytest.raises(ValidationError, match="stored f, h$"):  # g does not involve s
        jsonio.artifacts_from_json(dict(doc, s=doc["s"] + 2, kappa=doc["kappa"] + 1))
    # a tampered s is refused by the size of f's coefficients, before 2**s is built
    for s in (10**12, -1):
        with pytest.raises(ValidationError, match="out of range"):
            jsonio.artifacts_from_json(dict(doc, s=s))
    # k must be a multiple of the canonical k, and the integer variant has k=2, s=0
    with pytest.raises(ValidationError, match="k=6"):
        jsonio.artifacts_from_json(dict(doc, k=6))
    doc = jsonio.artifacts_to_json(construct(PowerSetInput.from_values([4, 8], "integer")))
    assert jsonio.artifacts_from_json(doc).k == 2
    for k, s in ((4, 0), (2, 1)):
        with pytest.raises(ValidationError, match=f"not k={k}, s={s}"):
            jsonio.artifacts_from_json(dict(doc, k=k, s=s))


# -- the decimal text of a recipe ------------------------------------------------

_CANONICAL = re.compile(r"0|-?[1-9][0-9]*")


@pytest.fixture(scope="module")
def bench_pools():
    """POOL_K12 + POOL_K4 of bench/workloads.py, which imports nothing from power_forge."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(bench))  # for its own "import checks"
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(bench))
        for name in (spec.name, "checks"):
            sys.modules.pop(name, None)
    return workloads.POOL_K12 + workloads.POOL_K4


# the construct sets of the CLI corpus; then a set holding 0, one whose g has
# zero coefficients that the decimal build reaches as -0 (P = X**2 - 64), and
# one whose coefficients have about 4,820 digits, past str()'s limit of 4,300
FIXED_SETS = [
    (["9/25"], "rational"),
    (["9/25", "4"], "rational"),
    (["-1/8", "4/25"], "rational"),
    (["1/49", "8/27", "4/121"], "rational"),
    (["4", "8", "36"], "integer"),
    (["0", "9/25", "-8"], "rational"),
    (["-8", "8"], "rational"),
    (["-8", "8"], "integer"),
    ([f"1/{2**2000}"], "rational"),
]


@pytest.mark.parametrize("limit", [640, 0])
def test_the_decimal_build_writes_the_text_of_the_int_coefficients(rng, bench_pools, limit):
    sets = [PowerSetInput.from_values(values, variant) for values, variant in FIXED_SETS]
    sets += [PowerSetInput(tuple(rng.sample(bench_pools, rng.randint(1, 4)))) for _ in range(12)]
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for inp in sets:
            art = construct(inp)
            doc = jsonio.artifacts_to_json(art)
            for name in "fgh":
                text = doc[name]
                assert text == [jsonio._int_text(c) for c in getattr(art, name).coeffs], name
                assert all(_CANONICAL.fullmatch(t) for t in text), name
            assert jsonio.artifacts_from_json(doc) == art
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_a_context_that_is_not_exact_raises_rather_than_round(monkeypatch):
    # P = 25X - 9 to the 8th has at most 13 digits; 2**2047 has 617 and rounds at 50
    pairs = element_pairs(PowerSetInput.from_values(["9/25"]))
    exact = recipe_text(pairs, 4, 2047)
    assert max(len(t) for t in exact[2]) > 600
    # the context's precision is read at call time: a rounded step is trapped
    monkeypatch.setattr(decimal, "MAX_PREC", 50)
    with pytest.raises(ArithmeticError):
        recipe_text(pairs, 4, 2047)


def _tampered(doc):
    """(edited document, the name its refusal must carry) for each edit of the grid."""
    for name in "fgh":
        stored = doc[name]
        zero = stored.index("0") if "0" in stored else None
        shortest = min(range(len(stored)), key=lambda i: len(stored[i]))
        zeros = "0" * max(map(len, stored))
        edits = {
            "plus-one": (1, str(int(stored[1]) + 1)),
            "leading-zero": (2, re.sub(r"^(-?)", r"\g<1>0", stored[2])),
            "minus-zero": (zero, "-0"),
            # the longest text, but not the largest value: f's refusal still names f, not s
            "padded-longest": (shortest, re.sub(r"^(-?)", r"\g<1>" + zeros, stored[shortest])),
        }
        for edit, (i, text) in edits.items():
            if i is not None:
                yield f"{name}-{edit}", dict(doc, **{name: stored[:i] + [text] + stored[i + 1:]}), \
                    f"stored {name}"
        # f's length is its degree, checked first; g and h are refused by the build
        yield f"{name}-drop-last", dict(doc, **{name: stored[:-1]}), \
            "of f" if name == "f" else f"stored {name}"
    yield "degree", dict(doc, degree=doc["degree"] + 1), "stored degree"
    yield "k", dict(doc, k=2 * doc["k"]), f"k={2 * doc['k']}"
    yield "s", dict(doc, s=doc["s"] + 2), f"s={doc['s'] + 2}"
    yield "kappa", dict(doc, kappa=doc["kappa"] + 1), f"kappa={doc['kappa'] + 1}"


TAMPER_SETS = [["9/25", "4"], ["0", "9/25", "-8"]]


@pytest.mark.parametrize("values", TAMPER_SETS, ids=["9/25,4", "0,9/25,-8"])
def test_every_tampered_field_is_refused_naming_it(capsys, tmp_path, values):
    doc = jsonio.artifacts_to_json(construct(PowerSetInput.from_values(values)))
    edits = list(_tampered(doc))
    # the set holding 0 has zero coefficients in f, g and h alike
    assert sum(edit.endswith("minus-zero") for edit, _, _ in edits) == (3 if "0" in values else 0)
    target = tmp_path / "art.json"
    for edit, bad, named in edits:
        with pytest.raises(ValidationError) as caught:
            jsonio.artifacts_from_json(bad)
        assert named in str(caught.value), edit
        target.write_text(jsonio.dumps(bad))
        capsys.readouterr()
        assert main(["verify", "--artifacts", str(target), "--height", "1"]) == 2, edit
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "validation" and named in error["message"], edit


# list entries the generic encoder escapes or that look like digits and are not ASCII digits
HOSTILE = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "٣", "²", " ", "1-2", "", "-",
           "- 1", "1e3", "+7", "?"]


def _random_value(rng, depth):
    """A JSON value: often a list of signed digit strings, now and then with a hostile entry."""
    roll = rng.random()
    if roll < 0.4:
        entries = [str(rng.randint(-10**rng.randint(0, 40), 10**40)) for _ in range(rng.randint(0, 6))]
        if entries and rng.random() < 0.4:
            entries[rng.randrange(len(entries))] = rng.choice(HOSTILE)
        return entries
    if roll < 0.55 and depth:
        return [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if roll < 0.7 and depth:
        return {str(i): _random_value(rng, depth - 1) for i in range(rng.randint(0, 3))}
    return rng.choice([None, True, False, 0, -7, 2**70, 1.5, "", "x", "٣", "a\"b\\c\n",
                       ["1", 2], ("1", "2"), []])


def _random_document(rng):
    keys = ["f", "g", "h", "k", "notes", "é", 'q"uote']
    if rng.random() < 0.1:
        keys += [1, 2.5, True, None]  # written as "1", "2.5", "true", "null"
    if rng.random() < 0.05:
        return _random_value(rng, 2)
    return {key: _random_value(rng, 2) for key in rng.sample(keys, rng.randint(0, len(keys)))}


def test_dumps_is_json_dumps_byte_for_byte_on_random_documents(rng):
    direct = 0
    for _ in range(3000):
        doc = _random_document(rng)
        assert jsonio.dumps(doc) == json.dumps(doc, indent=2) + "\n", doc
        direct += isinstance(doc, dict) and any(map(jsonio._verbatim, doc.values()))
    assert direct > 1000  # the direct path is taken, not only the fallback


def test_only_lists_of_ascii_digit_strings_are_written_verbatim():
    assert jsonio._verbatim(["0", "-12", "345"])
    for entry in HOSTILE:
        if set(entry) <= set("0123456789-"):
            assert jsonio._verbatim(["1", entry]), entry  # JSON writes it as is all the same
        else:
            assert not jsonio._verbatim(["1", entry]), entry
    for value in ([], [""], ["1", 2], ("1", "2"), "12", None, [["1"]]):
        assert not jsonio._verbatim(value), value


def test_dumps_matches_json_dumps_on_hypothesis_documents():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    digits = st.integers().map(str) | st.text("0123456789-", max_size=4)
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    values = st.recursive(
        scalars | st.lists(digits | st.text(max_size=3), min_size=1),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=12,
    )
    keys = st.text(max_size=4) | st.integers() | st.booleans() | st.none()

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.dictionaries(keys, values | st.lists(digits, min_size=1), max_size=5) | values)
    def same(doc):
        assert jsonio.dumps(doc) == json.dumps(doc, indent=2) + "\n"

    same()


def test_dumps_of_a_construction_document_peaks_below_one_and_a_half_outputs():
    import tracemalloc

    doc = jsonio.artifacts_to_json(construct(PowerSetInput.from_values(["1/19321"])))  # 1/139**2
    tracemalloc.start()
    try:
        text = jsonio.dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(doc, indent=2) + "\n"
    # json.dumps peaks at about 2.06 outputs: its chunks and their joined copy
    assert peak <= 1.5 * len(text), peak / len(text)


def test_each_construct_and_each_load_seeks_the_deltas_and_k_once(monkeypatch):
    # wrapped in the module, as the benchmark's tracer wraps them
    module, calls = sys.modules["power_forge.construct"], {}
    for name in ("find_deltas", "compute_k"):
        def counted(*args, real=getattr(module, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    once = {"find_deltas": 1, "compute_k": 1}
    for values in (["9/25"], ["-1/8", "4/25"], ["1/49", "8/27", "4/121"]):
        calls.clear()
        inp = PowerSetInput.from_values(values)
        art = construct(inp)
        assert calls == once, values
        construct(inp)
        assert calls == once, values
        doc = jsonio.artifacts_to_json(art)
        calls.clear()
        jsonio.artifacts_from_json(doc)
        assert calls == once, values
