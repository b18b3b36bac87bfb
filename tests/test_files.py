"""File formats: facet lists, filtration documents, barcode documents."""

from __future__ import annotations

import json
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phcalc import (
    Barcode,
    Filtration,
    FiltrationError,
    PersistencePair,
    Simplex,
    barcode,
)
from phcalc.cli import main
from phcalc.files import (
    MAX_CLOSURE_SIZE,
    FiltrationDocument,
    ParseError,
    parse_barcodes,
    parse_facets,
    parse_filtration,
    serialize_barcodes,
    serialize_facets,
)
from phcalc.generate import random_filtration_document

from .support import random_filtration


def test_parse_facets_basic():
    text = "# diabolo\n2 3\n3 4\n\n3 5\n4 5\n0 1 2  # filled triangle\n"
    facets = parse_facets(text)
    assert facets == (
        Simplex((2, 3)), Simplex((3, 4)), Simplex((3, 5)),
        Simplex((4, 5)), Simplex((0, 1, 2)),
    )


def test_parse_facets_empty_is_empty_complex():
    assert parse_facets("") == ()
    assert parse_facets("# only comments\n\n") == ()


def test_parse_facets_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_facets("0 1\n1 2\n1 x\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_facets("0 1\n4 4\n")
    big = " ".join(map(str, range(21)))  # closes to 2**21 - 1 simplices
    for text, message in [
        ("0 1\n4 4\n", "line 2: duplicate vertices in (4, 4)"),
        ("0 1\n\n2 -1 # x\n", "line 3: vertex -1 is not a non-negative integer"),
        (f"0 1\n{big}\n", "line 2: the facets so far may close to 2097154 simplices,"
                          f" more than {MAX_CLOSURE_SIZE}"),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_facets(text)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits"
)
def test_an_integer_too_long_to_read_is_a_parse_error_at_the_document():
    digits = "1" * 5000
    for parse, text in [
        (parse_filtration, f'{{"levels": [[[0, {digits}]]]}}'),
        (parse_barcodes, f'{{"barcodes": [{{"dimension": {digits}, "intervals": []}}]}}'),
    ]:
        with pytest.raises(ParseError, match=r"^document: Exceeds the limit \(\d+ digits\)"):
            parse(text)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits"
)
def test_a_facet_integer_too_long_to_read_is_a_parse_error_at_its_line():
    # the interpreter's reason, with no digit echoed; other lines as before
    too_long = r"^line 2: Exceeds the limit \(\d+ digits\)"
    with pytest.raises(ParseError, match=too_long) as info:
        parse_facets("0 1\n0 " + "1" * 5000 + "\n")
    assert "11111" not in str(info.value)
    not_integers = r"^line 2: vertices must be integers, got '0 x'$"
    with pytest.raises(ParseError, match=not_integers):
        parse_facets("0 1\n0 x\n")


@pytest.mark.parametrize(
    "line", ["0 1_0", "+1 2", "1 \uff15"], ids=["underscore", "plus", "fullwidth-digit"]
)
def test_a_facet_vertex_is_an_ascii_integer(line):
    # as in JSON: no `+`, no `_` and no non-ASCII digit, which `int()` would take
    message = f"line 2: vertices must be integers, got {line!r}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_facets(f"0 1\n{line}\n")


def test_a_long_bad_facet_line_is_cut_in_the_message():
    # 5,000 ones then `x` is no integer, so no digit-limit message either;
    # up to 80 characters a line is echoed in full, past them cut and marked
    for line, shown in [
        ("0 " + "1" * 5000 + "x", "'0 " + "1" * 78 + "'..."),
        ("0 " + "1" * 78 + "x", "'0 " + "1" * 78 + "'..."),
        ("0 " + "1" * 77 + "x", "'0 " + "1" * 77 + "x'"),
    ]:
        message = f"line 2: vertices must be integers, got {shown}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_facets(f"0 1\n{line}\n")


def test_facets_round_trip():
    facets = (Simplex((0, 1, 2)), Simplex((2, 3)), Simplex((7,)))
    assert parse_facets(serialize_facets(facets)) == facets


def test_parse_filtration(diabolo_json):
    doc = parse_filtration(diabolo_json)
    assert doc.name == "diabolo"
    assert len(doc.levels) == 6
    f = doc.to_filtration()
    assert f.m == 5
    assert f[5].betti(1) == 1


def test_filtration_round_trip(diabolo_json):
    doc = parse_filtration(diabolo_json)
    assert parse_filtration(doc.serialize()) == doc
    unnamed = FiltrationDocument(doc.levels)
    assert parse_filtration(unnamed.serialize()) == unnamed


def test_parse_filtration_incremental():
    cumulative = '{"levels": [[[0,1]], [[0,1],[1,2]]]}'
    incremental = '{"levels": [[[0,1]], [[1,2]]]}'
    assert parse_filtration(incremental, incremental=True) == (
        parse_filtration(cumulative)
    )


def test_parse_filtration_located_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_filtration("{nope")
    with pytest.raises(ParseError, match="document"):
        parse_filtration('["not", "an", "object"]')
    with pytest.raises(ParseError, match="unknown fields"):
        parse_filtration('{"levels": [[[0]]], "extra": 1}')
    with pytest.raises(ParseError, match="levels"):
        parse_filtration('{"levels": []}')
    with pytest.raises(ParseError, match=r"levels\[0\]\[0\]\[1\]"):
        parse_filtration('{"levels": [[[0, true]]]}')
    with pytest.raises(ParseError, match=r"levels\[1\]"):
        parse_filtration('{"levels": [[[0]], "x"]}')
    with pytest.raises(ParseError, match="name"):
        parse_filtration('{"name": 3, "levels": [[[0]]]}')


def test_parse_filtration_builds_each_facet_once(monkeypatch):
    # a cumulative file lists a facet at every level from its birth on
    built = []
    original = Simplex.__post_init__

    def counting(self):
        built.append(self.vertices)
        original(self)

    monkeypatch.setattr(Simplex, "__post_init__", counting)
    text = json.dumps({"levels": [
        [[0, 1, 2]], [[0, 1, 2], [2, 3]], [[0, 1, 2], [2, 3], [3, 4]],
    ]})
    doc = parse_filtration(text)
    assert sorted(built) == [(0, 1, 2), (2, 3), (3, 4)]
    assert [len(level) for level in doc.levels] == [1, 2, 3]
    assert doc.levels[2][0] is doc.levels[0][0]
    # every occurrence is still type-checked: true must not pass as 1
    with pytest.raises(ParseError, match=r"^levels\[1\]\[1\]\[0\]: "):
        parse_filtration('{"levels": [[[1, 2]], [[1, 2], [true, 2]]]}')


def _over_the_bound_in_a_plain_level():
    # 3 + 2 * (2**19 - 1) simplices: the second 19-vertex facet crosses the bound
    return [[[0, 1]], [[0, 1], list(range(2, 21)), [1, 0], list(range(21, 40)), [5, 6]]]


@pytest.mark.parametrize("levels, expected", [
    ([[[1, 2]], [[1, 2], [True, 2]]], "levels[1][1][0]: vertex must be an integer, got True"),
    ([[[1, 2]], [[1, 2], [1.0, 2]]], "levels[1][1][0]: vertex must be an integer, got 1.0"),
    ([[[1, 2]], [[1, 2], ["1", 2]]], "levels[1][1][0]: vertex must be an integer, got '1'"),
    ([[[1, 2]], [[1, 2], []]], "levels[1][1]: each facet must be a non-empty list of vertices"),
    ([[[1, 2]], [[1, 2], {}]], "levels[1][1]: each facet must be a non-empty list of vertices"),
    ([[[1, 2]], [[1, 2], "1 2"]], "levels[1][1]: each facet must be a non-empty list of vertices"),
    ([[[1, 2]], {"0": [1, 2]}], "levels[1]: each level must be a list of facets"),
    ([[[1, 2]], [[1, 2], [2, 1, 2]]], "levels[1][1]: duplicate vertices in (1, 2, 2)"),
    (_over_the_bound_in_a_plain_level(),
     f"levels[1][3]: the facets so far may close to 1048577 simplices, more than {MAX_CLOSURE_SIZE}"),
    ([[[0, 1]], [[0, 1], [1, 2], [1, 2]]], {
        "levels": [[(0, 1)], [(0, 1), (1, 2), (1, 2)]],
        "objects": [[0], [0, 1, 1]],
        "births": {(0,): 0, (1,): 0, (0, 1): 0, (2,): 1, (1, 2): 1},
    }),
    ([[[0, 1, 2]], [[2, 0, 1], [0, 1, 2], [3]]], {
        "levels": [[(0, 1, 2)], [(0, 1, 2), (0, 1, 2), (3,)]],
        "objects": [[0], [1, 0, 2]],
        "births": {
            (0,): 0, (1,): 0, (2,): 0, (0, 1): 0, (0, 2): 0, (1, 2): 0, (0, 1, 2): 0,
            (3,): 1,
        },
    }),
], ids=[
    "true", "float", "string-vertex", "empty-facet", "object-facet", "string-facet",
    "object-level", "duplicate-vertex", "closure-bound", "same-facet-twice", "permuted-facet",
])
def test_a_level_is_checked_in_bulk_and_read_as_entry_by_entry(levels, expected):
    """The second level relists a facet of the first; a bad entry is located as before."""
    text = json.dumps({"levels": levels})
    if isinstance(expected, str):
        for incremental in (False, True):
            with pytest.raises(ParseError) as info:
                parse_filtration(text, incremental=incremental)
            assert str(info.value) == expected
        return
    doc = parse_filtration(text)
    assert [[f.vertices for f in level] for level in doc.levels] == expected["levels"]
    objects: dict[int, int] = {}  # each distinct Simplex object, numbered as first met
    assert [
        [objects.setdefault(id(f), len(objects)) for f in level] for level in doc.levels
    ] == expected["objects"]
    f = doc.to_filtration()
    assert {v: birth for n in range(f.dim + 1) for v, birth in f.births(n)} == expected["births"]


def test_parse_filtration_validates_nesting():
    with pytest.raises(FiltrationError) as excinfo:
        parse_filtration('{"levels": [[[0,1]], [[2,3]]]}')
    assert str(excinfo.value) == "simplex (0) of level 0 missing from level 1"


@pytest.fixture
def builds(monkeypatch):
    """Count Filtration constructions for the rest of the test."""
    count = []
    original = Filtration.__init__

    def counting(self, levels):
        count.append(1)
        original(self, levels)

    monkeypatch.setattr(Filtration, "__init__", counting)
    return count


def test_parsed_document_keeps_its_filtration(diabolo_json, builds):
    doc = parse_filtration(diabolo_json)
    f = doc.to_filtration()
    assert doc.to_filtration() is f
    assert len(builds) == 1
    assert f == Filtration.from_level_facets(doc.levels)


def test_generated_document_builds_on_demand(builds):
    doc = random_filtration_document(20, 3, seed=4)
    assert not builds
    f = doc.to_filtration()
    assert len(builds) == 1
    assert f.m == 2
    assert doc.to_filtration() is f


@pytest.mark.parametrize("parse", [parse_filtration, parse_barcodes])
def test_deeply_nested_json_is_a_parse_error(parse):
    with pytest.raises(ParseError, match="document: nested too deeply"):
        parse("[" * 100_000)


def test_barcode_round_trip(diabolo_filtration):
    codes = [barcode(diabolo_filtration, n) for n in (0, 1, 2)]
    assert parse_barcodes(serialize_barcodes(codes)) == tuple(codes)


def test_barcode_round_trip_random():
    rng = random.Random(107)
    for _ in range(15):
        f = random_filtration(rng)
        codes = [barcode(f, n) for n in range(3)]
        assert parse_barcodes(serialize_barcodes(codes)) == tuple(codes)


def test_barcode_infinite_death_is_null():
    text = serialize_barcodes([Barcode(0, (PersistencePair(0, math.inf, 1),))])
    assert '"death": null' in text
    (parsed,) = parse_barcodes(text)
    assert parsed.pairs[0].is_infinite


def test_parse_barcodes_located_errors():
    with pytest.raises(ParseError, match="document"):
        parse_barcodes("[]")
    with pytest.raises(ParseError, match=r"barcodes\[0\]\.dimension"):
        parse_barcodes('{"barcodes": [{"dimension": -1, "intervals": []}]}')
    with pytest.raises(ParseError, match=r"intervals\[0\]"):
        parse_barcodes(
            '{"barcodes": [{"dimension": 0,'
            ' "intervals": [{"birth": 0, "death": 0, "multiplicity": 1}]}]}'
        )
    with pytest.raises(ParseError, match="multiplicity"):
        parse_barcodes(
            '{"barcodes": [{"dimension": 0,'
            ' "intervals": [{"birth": 0, "death": 1, "multiplicity": true}]}]}'
        )


@pytest.mark.parametrize("interval, expected", [
    ([0, 1], "each interval must be an object"),
    ({"birth": 0, "death": None, "multiplicity": 1, "x": 1}, "unknown fields ['x']"),
])
def test_parse_barcodes_rejects_a_malformed_interval(interval, expected):
    text = json.dumps({"barcodes": [{"dimension": 0, "intervals": [interval]}]})
    with pytest.raises(ParseError) as info:
        parse_barcodes(text)
    assert str(info.value) == f"barcodes[0].intervals[0]: {expected}"


def test_parse_barcodes_rejects_an_interval_with_no_death():
    # null is a bar that never dies; a missing death is an error, as a
    # missing birth or multiplicity is
    text = '{"barcodes": [{"dimension": 0, "intervals": [{"birth": 0, "multiplicity": 1}]}]}'
    with pytest.raises(
        ParseError, match=r"^barcodes\[0\]\.intervals\[0\]: missing field 'death'$"
    ):
        parse_barcodes(text)


def _barcodes_text(*barcodes) -> str:
    """A barcode document: (dimension, [(birth, death or None), ...]) per barcode."""
    return json.dumps({"barcodes": [
        {"dimension": dim, "intervals": [
            {"birth": birth, "death": death, "multiplicity": 1} for birth, death in bars
        ]} for dim, bars in barcodes
    ]})


def test_parse_barcodes_rejects_intervals_out_of_birth_death_order():
    # one barcode has one reading: [0,inf) sorts after [0,1) and before [1,2)
    text = _barcodes_text((0, [(0, None), (1, 2)]), (1, [(0, 1), (1, 2), (0, None)]))
    with pytest.raises(ParseError) as info:
        parse_barcodes(text)
    assert str(info.value) == (
        "barcodes[1].intervals[2]: interval [0,inf) listed after [1,2), "
        "out of (birth, death) order"
    )


def test_parse_barcodes_rejects_an_interval_listed_twice():
    # a repeated bar is one interval with a higher multiplicity
    text = _barcodes_text((0, [(0, 1), (0, 1), (2, None)]))
    with pytest.raises(ParseError) as info:
        parse_barcodes(text)
    assert str(info.value) == "barcodes[0].intervals[1]: interval [0,1) listed twice"
    with pytest.raises(ParseError, match=r"^barcodes\[0\]\.intervals\[1\]: interval \[2,inf\)"):
        parse_barcodes(_barcodes_text((0, [(2, None), (2, None)])))


def test_parse_barcodes_rejects_a_dimension_listed_twice():
    text = _barcodes_text((1, [(0, 1)]), (0, []), (1, [(2, 3)]))
    with pytest.raises(ParseError) as info:
        parse_barcodes(text)
    assert str(info.value) == "barcodes[2].dimension: dimension 1 listed twice"


# 40 vertices close to 2**40 - 1 simplices; only the up-front bound may see them
HUGE_FACET = list(range(40))


def test_parse_facets_bounds_the_closure():
    text = "0 1 2\n\n" + " ".join(map(str, HUGE_FACET)) + "\n"
    with pytest.raises(ParseError, match=rf"^line 3: .* more than {MAX_CLOSURE_SIZE}$"):
        parse_facets(text)


def test_parse_filtration_bounds_the_closure(monkeypatch):
    def no_closure(self):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(FiltrationDocument, "to_filtration", no_closure)
    text = json.dumps({"levels": [[[0, 1]], [[0, 1], HUGE_FACET]]})
    for incremental in (False, True):
        with pytest.raises(ParseError, match=r"^levels\[1\]\[1\]: "):
            parse_filtration(text, incremental=incremental)


# What a filtration file's "levels" may hold: in half the documents nested
# lists of ints, half of them listed cumulatively; in the other half also
# bools, floats, strings and empty lists anywhere.
@st.composite
def _raw_levels(draw):
    if draw(st.booleans()):
        junk = st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
        junk = junk | st.text(max_size=2) | st.just([])
        facet = st.lists(st.integers(-1, 5) | junk, max_size=3) | junk
        return draw(st.lists(st.lists(facet, max_size=4) | junk, max_size=4))
    facet = st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True)
    levels = draw(st.lists(st.lists(facet, max_size=3), min_size=1, max_size=4))
    if draw(st.booleans()):
        levels = [sum(levels[: j + 1], []) for j in range(len(levels))]
    return levels


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_raw_levels(), st.booleans())
def test_parse_filtration_of_any_nested_lists_parses_or_raises(levels, incremental):
    try:
        doc = parse_filtration(json.dumps({"levels": levels}), incremental=incremental)
    except (ParseError, FiltrationError):
        return
    if incremental:
        levels = [sum(levels[: j + 1], []) for j in range(len(levels))]
    built = [[Simplex(tuple(f)) for f in level] for level in levels]
    assert doc.levels == tuple(map(tuple, built))
    assert doc.to_filtration() == Filtration.from_level_facets(built)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.text(max_size=40) | st.text("0123456789 -+_#x\n\uff15", max_size=40))
def test_parse_facets_of_any_text_parses_or_raises_at_a_line(text):
    try:
        parse_facets(text)
    except ParseError as exc:
        assert re.match(r"line \d+$", exc.location)


# Any JSON value, small
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=2)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
# A barcode document as serialize_barcodes writes one: distinct dimensions,
# each bar born before it dies, each interval once in (birth, death) order
_fitting_barcodes = st.lists(
    st.fixed_dictionaries({
        "dimension": st.integers(0, 3),
        "intervals": st.lists(st.builds(
            lambda birth, length, count: {"birth": birth, "multiplicity": count,
                                          "death": None if length is None else birth + length},
            st.integers(0, 3), st.none() | st.integers(1, 3), st.integers(1, 2),
        ), max_size=3, unique_by=lambda bar: (bar["birth"], bar["death"])).map(
            lambda bars: sorted(bars, key=lambda bar: (bar["birth"], bar["death"] or math.inf))
        ),
    }),
    max_size=3,
    unique_by=lambda barcode: barcode["dimension"],
).map(lambda barcodes: {"barcodes": barcodes})


@st.composite
def _barcodes_document(draw):
    """A fitting barcode document, or one changed in one place: a value
    replaced by any JSON value, or a field left out or added."""
    root = [draw(_fitting_barcodes)]
    if draw(st.booleans()):
        return root[0]
    places = []  # (container, key) of every value, the document's own included

    def walk(node):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            places.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(root)
    node, key = draw(st.sampled_from(places[::-1]))  # leaves first
    change = draw(st.sampled_from(["replace", "drop", "add"]))
    if change == "drop" and isinstance(node, dict):
        del node[key]
    elif change == "add" and isinstance(node[key], dict):
        node[key][draw(st.text(max_size=2))] = draw(_json)
    else:
        node[key] = draw(_json)
    return root[0]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_fitting_barcodes)
def test_parse_barcodes_reads_every_fitting_document(doc):
    parsed = parse_barcodes(json.dumps(doc))
    assert json.loads(serialize_barcodes(parsed)) == doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_barcodes_document())
def test_parse_barcodes_of_any_json_parses_or_raises_and_round_trips(doc):
    try:
        parsed = parse_barcodes(json.dumps(doc))
    except ParseError:
        return
    assert parse_barcodes(serialize_barcodes(parsed)) == parsed


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_raw_levels(), st.booleans())
def test_barcode_command_on_any_nested_lists_exits_with_a_documented_code(
    tmp_path_factory, levels, incremental
):
    path = tmp_path_factory.getbasetemp() / "fuzzed-levels.json"
    path.write_text(json.dumps({"levels": levels}))
    argv = ["barcode", str(path), "--all-dims"] + ["--incremental"] * incremental
    assert main(argv) in (0, 1, 2)
