"""File formats: facet lists, filtration documents, barcode documents."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import re
import sys
import tracemalloc

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
from phcalc import files
from phcalc.cli import main
from phcalc.files import (
    MAX_CLOSURE_SIZE,
    FiltrationDocument,
    ParseError,
    parse_facets,
    parse_filtration,
    serialize_barcodes,
)
from phcalc.generate import random_filtration_document

from .support import incremental_forms, random_filtration


def test_parse_facets_basic():
    text = "# diabolo\n2 3\n3 4\n\n3 5\n4 5\n0 1 2  # filled triangle\n"
    facets = parse_facets(text)
    assert facets == ((2, 3), (3, 4), (3, 5), (4, 5), (0, 1, 2))


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
    with pytest.raises(ParseError, match=r"^document: Exceeds the limit \(\d+ digits\)"):
        parse_filtration(f'{{"levels": [[[0, {digits}]]]}}')


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


_VERTICES = st.integers(min_value=0, max_value=10**30)
_FACETS = st.lists(_VERTICES, min_size=1, max_size=4).map(lambda vs: tuple(sorted(set(vs))))


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.lists(_FACETS, max_size=4).map(tuple), max_size=4).map(tuple),
    name=st.none() | st.text() | st.sampled_from(['"quoted" \\ name', "caf\u00e9 \u2603 \U0001f600"]),
)
def test_serialize_writes_the_layout_of_json_dumps_indent_2(levels, name):
    # byte for byte, with empty levels, no levels, no name, and names
    # with quotes, backslashes, control and non-ASCII characters
    doc = {} if name is None else {"name": name}
    doc["levels"] = [[list(facet) for facet in level] for level in levels]
    written = FiltrationDocument(levels, name).serialize()
    assert written == json.dumps(doc, indent=2) + "\n"


def test_parse_filtration_incremental():
    cumulative = '{"levels": [[[0,1]], [[0,1],[1,2]]]}'
    incremental = '{"levels": [[[0,1]], [[2,1]]]}'
    doc = parse_filtration(incremental, incremental=True)
    assert doc.levels == (((0, 1),), ((1, 2),))  # what the file lists, in canonical form
    assert doc.to_filtration() == parse_filtration(cumulative).to_filtration()


def _incremental_documents() -> list[FiltrationDocument]:
    """The two-level example and each `incremental_forms` document, parsed with --incremental."""
    texts = ['{"levels": [[[0,1]], [[1,2]]]}']
    texts += [json.dumps({"levels": levels}) for _, _, levels in incremental_forms()]
    return [parse_filtration(text, incremental=True) for text in texts]


def test_copies_and_pickles_of_an_incremental_document_build_its_filtration():
    for doc in _incremental_documents():
        f = doc.to_filtration()
        for twin in (copy.copy(doc), copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
            assert twin.to_filtration() == f


def test_documents_of_the_two_modes_are_unequal():
    for doc in _incremental_documents():
        cumulative = FiltrationDocument(doc.levels, doc.name)
        assert doc != cumulative
        assert hash(doc) != hash(cumulative)


def test_a_serialized_document_reads_back_in_its_own_mode():
    texts = [('{"name": "two", "levels": [[[0,1]], [[1,2]]]}', True)]
    for _, cumulative, incremental in incremental_forms():
        texts += [(json.dumps({"levels": cumulative}), False),
                  (json.dumps({"levels": incremental}), True)]
    for text, incremental in texts:
        doc = parse_filtration(text, incremental=incremental)
        back = parse_filtration(doc.serialize(), incremental=doc.incremental)
        assert back == doc
        assert back.to_filtration() == doc.to_filtration()


def test_an_incremental_file_is_read_in_one_pass():
    # 4,000 one-edge levels: each level keeps its own facet, and none is made cumulative
    text = json.dumps({"levels": [[[k, k + 1]] for k in range(4000)]})
    tracemalloc.start()
    try:
        doc = parse_filtration(text, incremental=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, doc.levels)) == 4000
    assert peak < 16 << 20
    f = doc.to_filtration()
    assert f.m == 3999 and f.births(1)[-1] == ((3999, 4000), 3999)


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
    original = files._canonical

    def counting(vertices):
        built.append(vertices)
        return original(vertices)

    monkeypatch.setattr(files, "_canonical", counting)
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
    assert [list(level) for level in doc.levels] == expected["levels"]
    objects: dict[int, int] = {}  # each distinct tuple object, numbered as first met
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
    """Count Filtration builds, from Simplex or tuple levels, for the rest of the test."""
    count = []
    original = Filtration._build

    def counting(self, levels, incremental):
        count.append(1)
        return original(self, levels, incremental)

    monkeypatch.setattr(Filtration, "_build", counting)
    return count


def test_parsed_document_keeps_its_filtration(diabolo_json, builds):
    doc = parse_filtration(diabolo_json)
    f = doc.to_filtration()
    assert doc.to_filtration() is f
    assert len(builds) == 1
    assert f == Filtration.from_level_facets([map(Simplex, level) for level in doc.levels])


def test_generated_document_builds_on_demand(builds):
    doc = random_filtration_document(20, 3, seed=4)
    assert not builds
    f = doc.to_filtration()
    assert len(builds) == 1
    assert f.m == 2
    assert doc.to_filtration() is f


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(ParseError, match="document: nested too deeply"):
        parse_filtration("[" * 100_000)


def _barcodes_as_dicts(codes) -> dict:
    """The document `serialize_barcodes` should write, built from each pair."""
    return {"barcodes": [
        {"dimension": b.dimension, "intervals": [
            {"birth": p.birth, "death": None if p.is_infinite else p.death,
             "multiplicity": p.multiplicity} for p in b.pairs
        ]} for b in codes
    ]}


def test_barcode_round_trip(diabolo_filtration):
    codes = [barcode(diabolo_filtration, n) for n in (0, 1, 2)]
    assert json.loads(serialize_barcodes(codes)) == _barcodes_as_dicts(codes)


def test_barcode_round_trip_random():
    rng = random.Random(107)
    for _ in range(15):
        f = random_filtration(rng)
        codes = [barcode(f, n) for n in range(3)]
        assert json.loads(serialize_barcodes(codes)) == _barcodes_as_dicts(codes)


def test_barcode_infinite_death_is_null():
    text = serialize_barcodes([Barcode(0, (PersistencePair(0, math.inf, 1),))])
    assert '"death": null' in text
    (parsed,) = json.loads(text)["barcodes"]
    assert parsed["intervals"][0]["death"] is None


# 40 vertices close to 2**40 - 1 simplices; only the up-front bound may see them
HUGE_FACET = list(range(40))


def test_parse_facets_bounds_the_closure():
    text = "0 1 2\n\n" + " ".join(map(str, HUGE_FACET)) + "\n"
    with pytest.raises(ParseError, match=rf"^line 3: .* more than {MAX_CLOSURE_SIZE}$"):
        parse_facets(text)


def test_parse_filtration_bounds_the_closure(monkeypatch):
    def no_table(self, levels, incremental):
        raise AssertionError("a birth table was built")

    monkeypatch.setattr(Filtration, "_build", no_table)
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
    built = [[Simplex(tuple(f)) for f in level] for level in levels]
    assert doc.levels == tuple(tuple(f.vertices for f in level) for level in built)
    if incremental:
        built = [sum(built[: j + 1], []) for j in range(len(built))]
    assert doc.to_filtration() == Filtration.from_level_facets(built)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.text(max_size=40) | st.text("0123456789 -+_#x\n\uff15", max_size=40))
def test_parse_facets_of_any_text_parses_or_raises_at_a_line(text):
    try:
        parse_facets(text)
    except ParseError as exc:
        assert re.match(r"line \d+$", exc.location)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_raw_levels(), st.booleans())
def test_barcode_command_on_any_nested_lists_exits_with_a_documented_code(
    tmp_path_factory, levels, incremental
):
    path = tmp_path_factory.getbasetemp() / "fuzzed-levels.json"
    path.write_text(json.dumps({"levels": levels}))
    argv = ["barcode", str(path), "--all-dims"] + ["--incremental"] * incremental
    assert main(argv) in (0, 1, 2)
