"""Command-line behaviors: outputs, formats, exit codes, stdin."""

from __future__ import annotations

import io
import json
from bisect import insort
from collections import Counter
from pathlib import Path

import pytest

from phcalc import cli, persistence
from phcalc.cli import main
from phcalc.complexes import SimplicialComplex
from phcalc.filtration import Filtration
from phcalc.files import parse_barcodes, parse_filtration
from phcalc.generate import random_filtration_document
from phcalc.persistence import LemmaReport, LemmaViolation, barcode, persistent_betti

from .support import count_boundary_builds, perturb_rank_rows

DIABOLO_FACETS_TEXT = "2 3\n3 4\n3 5\n4 5\n0 1 2\n"


@pytest.fixture
def facets_file(tmp_path):
    path = tmp_path / "diabolo.txt"
    path.write_text(DIABOLO_FACETS_TEXT)
    return str(path)


@pytest.fixture
def filtration_file(tmp_path, diabolo_json):
    path = tmp_path / "diabolo.json"
    path.write_text(diabolo_json)
    return str(path)


def test_betti_command(facets_file, capsys):
    assert main(["betti", facets_file, "-n", "0"]) == 0
    assert main(["betti", facets_file, "-n", "1"]) == 0
    assert capsys.readouterr().out == "1\n1\n"


def test_betti_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert main(["betti", str(path), "-n", "0"]) == 0
    assert capsys.readouterr().out == "0\n"


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin that, like it, has bytes under its text.

    Its text side escapes bytes that are not UTF-8, as sys.stdin does under
    the C locale or in UTF-8 mode, so only a read of the bytes refuses them.
    """
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_betti_from_stdin(monkeypatch, capsys):
    stdin = _stdin(DIABOLO_FACETS_TEXT.encode())
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["betti", "-", "-n", "1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert not stdin.closed  # read, not closed: stdin belongs to the process


@pytest.mark.parametrize("command, data, message", [
    ("betti", b"\xff\xfe",
     "-: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("barcode", b'{"name": "caf\xe9", "levels": [[[0]]]}',
     "-: 'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte"),
])
def test_stdin_that_is_not_utf8_is_refused_at_dash(monkeypatch, capsys, command, data, message):
    # read as a file is: strict UTF-8, whatever the locale's error handler
    monkeypatch.setattr("sys.stdin", _stdin(data))
    assert main([command, "-", "-n", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"phcalc: error: {message}\n"


@pytest.mark.parametrize("source", ["facet file", "filtration file", "stdin"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, monkeypatch, capsys, diabolo_json, source):
    # as RFC 8259 section 8.1 allows for JSON; a facet list is read the same way
    command, text = ("barcode", diabolo_json) if source == "filtration file" else (
        "betti", DIABOLO_FACETS_TEXT)
    outputs = []
    for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
        path = tmp_path / "input"
        path.write_bytes(data)
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", _stdin(data))
            path = "-"
        assert main([command, str(path), "-n", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] != ""


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_decode_error_after_a_byte_order_mark_counts_the_mark(tmp_path, monkeypatch, capsys,
                                                                source):
    # the 0xff is the input's eighth byte: offset 7, the mark's 3 bytes included
    data, path = b"\xef\xbb\xbf0 1\n\xff\n", tmp_path / "input.txt"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", _stdin(data))
        path = "-"
    assert main(["betti", str(path), "-n", "0"]) == 1
    assert capsys.readouterr().err == (
        f"phcalc: error: {path}: 'utf-8' codec can't decode byte 0xff"
        " in position 7: invalid start byte\n"
    )


# bytes read alike from a path and from stdin, by command
SAME_FROM_PATH_AND_STDIN = {
    "CR-only JSON with an error": ("barcode", b'{"levels":\r[[[0, 1]],\r [[0, x]]]}\r'),
    "CRLF facet file": ("betti", DIABOLO_FACETS_TEXT.replace("\n", "\r\n").encode()),
    "CR-only facet file": ("betti", DIABOLO_FACETS_TEXT.replace("\n", "\r").encode()),
    "byte-order mark": ("betti", b"\xef\xbb\xbf" + DIABOLO_FACETS_TEXT.encode()),
    "byte-order mark then 0xff": ("betti", b"\xef\xbb\xbf0 1\n\xff\n"),
    "not UTF-8": ("betti", b"\xff\xfe"),
}


@pytest.mark.parametrize(
    "command, data", SAME_FROM_PATH_AND_STDIN.values(), ids=SAME_FROM_PATH_AND_STDIN
)
def test_a_path_and_stdin_give_the_same_answer_for_the_same_bytes(tmp_path, monkeypatch, capsys,
                                                                   command, data):
    # stdin is read through the same text-mode reader as a file, newlines
    # included; only the location of an unreadable input names its source
    path = tmp_path / "input"
    path.write_bytes(data)
    results = []
    for source in (str(path), "-"):
        monkeypatch.setattr("sys.stdin", _stdin(data))
        status = main([command, source, "-n", "1"])
        captured = capsys.readouterr()
        results.append((status, captured.out, captured.err.replace(str(path), "-")))
    assert results[0] == results[1]


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command, data, out, err", [
    # a line ends at LF, CR LF or CR: a form feed, NEL or U+2028 is
    # whitespace inside a line, so it neither counts a line nor splits one
    ("betti", b"0 1\n\x0c\n0 x\n", "", "line 3: vertices must be integers, got '0 x'"),
    ("betti", "0 1\x852 3\n".encode(), "1\n", ""),
    ("betti", "0 1\u20282\n".encode(), "1\n", ""),
    ("barcode", b'{"levels":\r[[[0, 1]],\r [[0, x]]]}\r', "", "line 3 column 7: Expecting value"),
], ids=["form feed", "NEL", "U+2028", "CR-only JSON"])
def test_a_line_ends_only_at_a_universal_newline(tmp_path, monkeypatch, capsys, source, command,
                                                  data, out, err):
    path = tmp_path / "input"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", _stdin(data))
        path = "-"
    assert main([command, str(path), "-n", "0"]) == (1 if err else 0)
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == (f"phcalc: error: {err}\n" if err else "")


def test_pbetti_command(filtration_file, capsys):
    assert main(["pbetti", filtration_file, "-n", "0", "-j", "0", "-p", "4"]) == 0
    assert main(["pbetti", filtration_file, "-n", "0", "-j", "0", "-p", "0"]) == 0
    assert capsys.readouterr().out == "1\n3\n"


def test_pbetti_rejects_bad_levels(filtration_file, capsys):
    assert main(["pbetti", filtration_file, "-n", "0", "-j", "3", "-p", "2"]) == 1
    err = capsys.readouterr().err
    assert "0 <= j <= p <= 5" in err


def test_mu_command(filtration_file, capsys):
    assert main(["mu", filtration_file, "-n", "0", "-j", "2", "-p", "3"]) == 0
    assert main(["mu", filtration_file, "-n", "1", "-j", "3", "-p", "inf"]) == 0
    assert capsys.readouterr().out == "2\n1\n"


def test_barcode_text(filtration_file, capsys):
    assert main(["barcode", filtration_file, "-n", "0"]) == 0
    out = capsys.readouterr().out
    bar_rows = [line for line in out.splitlines() if "*" in line]
    assert len(bar_rows) == 6


def test_barcode_json_all_dims(filtration_file, capsys):
    assert main(["barcode", filtration_file, "--all-dims", "--format", "json"]) == 0
    codes = parse_barcodes(capsys.readouterr().out)
    assert [b.dimension for b in codes] == [0, 1, 2]
    assert codes[1].total_bars() == 2


def test_barcode_svg_to_file(filtration_file, tmp_path, capsys):
    out_path = tmp_path / "bars.svg"
    assert main(
        ["barcode", filtration_file, "--all-dims", "--format", "svg",
         "-o", str(out_path)]
    ) == 0
    assert capsys.readouterr().out == ""
    svg = out_path.read_text()
    assert svg.startswith("<svg ")
    assert svg.count('class="title"') == 3


def test_barcode_requires_dimension_choice(filtration_file, capsys):
    assert main(["barcode", filtration_file]) == 1
    assert main(["barcode", filtration_file, "-n", "0", "--all-dims"]) == 1


def test_check_passes(filtration_file, capsys):
    assert main(["check", filtration_file, "--max-dim", "2", "--oracle"]) == 0
    out = capsys.readouterr().out
    for line in ("nilpotency: ok", "inclusions: ok", "fundamental-lemma: ok",
                 "oracle: ok", "all checks passed"):
        assert line in out


def test_check_rejects_non_nested(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"levels": [[[0,1]], [[2,3]]]}')
    assert main(["check", str(path)]) == 2
    assert "missing from level 1" in capsys.readouterr().err


def test_check_reports_violations_as_json(filtration_file, capsys, monkeypatch):
    broken = LemmaReport(
        0, 5, 21, (LemmaViolation("barcode-span", 1, 2, 3, 4),)
    )
    monkeypatch.setattr("phcalc.cli.check_fundamental_lemma", lambda f, n: broken)
    assert main(["check", filtration_file, "--max-dim", "0"]) == 3
    out = capsys.readouterr().out
    assert "fundamental-lemma: FAIL" in out
    payload = json.loads(out[out.index("[") :])
    assert payload[0]["check"] == "fundamental-lemma"
    assert payload[0]["kind"] == "barcode-span"


def test_check_fails_on_a_wrong_rank_grid(filtration_file, capsys, monkeypatch):
    perturb_rank_rows(monkeypatch, {(3, 4): 1})
    assert main(["check", filtration_file]) == 3
    out = capsys.readouterr().out
    assert "fundamental-lemma: FAIL" in out
    payload = json.loads(out[out.index("[") :])
    assert {"check": "fundamental-lemma", "dim": 1, "kind": "barcode-span",
            "k": 3, "l": 4, "detail": "expected 3, got 2"} in payload


def test_check_fails_on_a_wrong_kept_rank(filtration_file, capsys, monkeypatch):
    # rank D_1(K^3) one too high, as if the kept row of birth -1 raised it
    # at level 3, not 4: dimension 1 counts a cycle too few there, and
    # dimension 0 a boundary too many
    def raise_early(f):
        assert persistence._later_raises(f, 0, -1, f.m) == [1, 1, 3, 3, 4]
        f._later[(0, -1)] = (f.m, [1, 1, 3, 3, 3])

    code, out, payload = _tampered_check(monkeypatch, capsys, filtration_file, raise_early)
    assert code == 3
    assert "fundamental-lemma: FAIL" in out
    assert {v["check"] for v in payload} == {"fundamental-lemma"}
    assert {v["dim"] for v in payload} == {0, 1}
    assert {"check": "fundamental-lemma", "dim": 1, "kind": "barcode-span",
            "k": 3, "l": 3, "detail": "expected 1, got 2"} in payload


PINNED_CHECK_OUTPUT = """\
nilpotency: ok
inclusions: ok
fundamental-lemma: FAIL
[
  {
    "check": "fundamental-lemma",
    "dim": 1,
    "kind": "negative-count",
    "k": 3,
    "l": 4,
    "detail": "expected 0, got -1"
  },
  {
    "check": "fundamental-lemma",
    "dim": 1,
    "kind": "negative-count",
    "k": 2,
    "l": 6,
    "detail": "expected 0, got -1"
  },
  {
    "check": "fundamental-lemma",
    "dim": 1,
    "kind": "barcode-span",
    "k": 1,
    "l": 5,
    "detail": "expected 1, got 0"
  },
  {
    "check": "fundamental-lemma",
    "dim": 1,
    "kind": "barcode-span",
    "k": 3,
    "l": 3,
    "detail": "expected 1, got 2"
  },
  {
    "check": "fundamental-lemma",
    "dim": 1,
    "kind": "barcode-span",
    "k": 4,
    "l": 4,
    "detail": "expected 3, got 2"
  }
]
"""


def test_check_output_pinned_on_a_wrong_rank_grid(filtration_file, capsys, monkeypatch):
    # (3, 3) - 1 makes the finite mu(3, 4) negative, (1, 5) + 1 the
    # never-dying mu at birth 2, and (4, 4) + 1 only breaks its span:
    # finite negative-counts come first, then never-dying, then spans
    perturb_rank_rows(monkeypatch, {(3, 3): -1, (1, 5): 1, (4, 4): 1}, dim=1)
    assert main(["check", filtration_file]) == 3
    assert capsys.readouterr().out == PINNED_CHECK_OUTPUT


def test_check_tells_never_dying_from_finite_negative_counts(
    filtration_file, capsys, monkeypatch
):
    # raising beta(0, 5) makes the finite mu(0, 5) negative (and the
    # never-dying count at birth 1), lowering it the never-dying count at
    # birth 0; never-dying counts die at m + 1 = 6, past the last level
    outputs = []
    for delta in (1, -1):
        perturb_rank_rows(monkeypatch, {(0, 5): delta}, dim=1)
        assert main(["check", filtration_file]) == 3
        out = capsys.readouterr().out
        outputs.append(json.loads(out[out.index("[") :]))
    negative = [
        [(v["k"], v["l"]) for v in payload if v["kind"] == "negative-count"]
        for payload in outputs
    ]
    assert negative == [[(0, 5), (1, 6)], [(0, 6)]]


def test_check_max_dim_stops_at_the_top_dimension(filtration_file, capsys, monkeypatch):
    built = count_boundary_builds(monkeypatch)
    runs = {}
    for extra in ([], ["--max-dim", "50"], ["--max-dim", "1000000000"]):
        built.clear()
        assert main(["check", filtration_file] + extra) == 0
        runs[tuple(extra)] = (dict(built), capsys.readouterr().out)
    default = runs[()]
    assert default[0] == {d: 1 for d in range(4)}
    assert runs[("--max-dim", "50")][0] == default[0]
    assert runs[("--max-dim", "1000000000")] == default


def test_check_builds_each_matrix_once(filtration_file, capsys, monkeypatch):
    calls = {"boundary": 0, "inclusion": 0}

    def counted(key, method):
        def wrapper(*args):
            calls[key] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(SimplicialComplex, "boundary_matrix",
                        counted("boundary", SimplicialComplex.boundary_matrix))
    monkeypatch.setattr(Filtration, "inclusion_matrix",
                        counted("inclusion", Filtration.inclusion_matrix))
    built = count_boundary_builds(monkeypatch)
    assert main(["check", filtration_file]) == 0
    # no level's matrices: D_0..D_3 of the last level, once each, serve
    # every section, the rank grid of the fundamental lemma included
    assert calls == {"boundary": 0, "inclusion": 0}
    assert built == {d: 1 for d in range(4)}
    assert capsys.readouterr().out.endswith("all checks passed\n")


def test_all_barcodes_build_and_reduce_each_boundary_matrix_once(
    filtration_file, capsys, monkeypatch
):
    # the filtration keeps each dimension's pivots: D_d is built and
    # reduced once for every barcode and check that needs it, top down
    # where all are needed, so that each is cleared by the pivots above
    f = parse_filtration(Path(filtration_file).read_text()).to_filtration()
    for n in range(3):
        barcode(f, n)
    columns = [len(f.births(d)) for d in range(4)]
    pivots = [len(f._pivots[d]) for d in range(4)] + [0]
    assert pivots[1] and pivots[2]
    built, reduced = [], []
    build, reduce = persistence._boundary_columns, persistence._reduce

    def counting_build(cells, faces):
        built.append(len(faces[0][0]) if faces else 0)
        return build(cells, faces)

    def counting_reduce(cols, cleared=()):
        reduced.append((len(cols), len(cleared)))
        return reduce(cols, cleared)

    monkeypatch.setattr(persistence, "_boundary_columns", counting_build)
    monkeypatch.setattr(persistence, "_reduce", counting_reduce)
    # (degree, degree whose pivots clear it or None), in reduction order
    for argv, order in (
        (["barcode", filtration_file, "--all-dims", "--format", "json"],
         [(3, None), (2, 3), (1, 2), (0, 1)]),
        (["check", filtration_file], [(3, None), (2, 3), (1, 2), (0, 1)]),
        (["barcode", filtration_file, "-n", "1"], [(2, None), (1, 2)]),
        (["barcode", filtration_file, "-n", "0"], [(1, None), (0, 1)]),
    ):
        built.clear()
        reduced.clear()
        assert main(argv) == 0
        assert built == [d for d, _ in order], argv
        assert reduced == [
            (columns[d], 0 if above is None else pivots[above]) for d, above in order
        ], argv
    capsys.readouterr()


def test_perturbed_rank_rows_reach_check_after_point_queries(
    filtration_file, capsys, monkeypatch
):
    # point queries keep their rank_later rows and check reads the same
    # kept rows, so a wrong kept row shows in check and in the point
    # queries on one filtration
    asked = []

    def ask_first(f):
        assert [persistent_betti(f, 1, j, 5) for j in range(6)] == [0, 0, 0, 1, 1, 1]
        asked.append(f)
        insort(f._later[(1, 3)][1], 4)  # one raise too many in row 3 at 4

    code, out, payload = _tampered_check(monkeypatch, capsys, filtration_file, ask_first)
    assert code == 3 and "fundamental-lemma: FAIL" in out
    assert {(n, j) for n, j in asked[0]._later if j >= 0} == {(1, j) for j in range(6)}
    assert {"check": "fundamental-lemma", "dim": 1, "kind": "barcode-span",
            "k": 3, "l": 4, "detail": "expected 3, got 2"} in payload
    assert [persistent_betti(asked[0], 1, 3, 4) for _ in range(2)] == [3, 3]


def _tampered_check(monkeypatch, capsys, path, tamper):
    """Run check on the filtration in path, changed by tamper first."""
    load = cli._load_filtration

    def tampered(args):
        f = load(args)
        tamper(f)
        return f

    monkeypatch.setattr(cli, "_load_filtration", tampered)
    code = main(["check", path])
    out = capsys.readouterr().out
    return code, out, json.loads(out[out.index("["):])


def test_check_nilpotency_can_fail(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gen.json"
    path.write_text(random_filtration_document(40, 8, seed=3).serialize())
    dropped = {}

    def drop_a_face(f):
        born, columns = f._birth_columns(2)
        k = len(born) // 2
        columns[k] &= columns[k] - 1  # its first-born face
        dropped.update(birth=born[k], m=f.m)

    code, out, records = _tampered_check(monkeypatch, capsys, str(path), drop_a_face)
    assert code == 3
    assert "nilpotency: FAIL\ninclusions: ok\n" in out
    birth, m = dropped["birth"], dropped["m"]
    assert 0 < birth < m
    nilpotency = [(r["level"], r["dim"]) for r in records if r["check"] == "nilpotency"]
    assert nilpotency == [(j, 1) for j in range(birth, m + 1)]


def test_check_inclusions_can_fail(filtration_file, capsys, monkeypatch):
    def late_vertex(f):
        # vertex 3 is born at 2, its edges (3,4) and (3,5) at 3, (2,3) at 4
        f._births[(3,)] = 4

    code, out, records = _tampered_check(monkeypatch, capsys, filtration_file, late_vertex)
    assert code == 3
    assert "nilpotency: ok\ninclusions: FAIL\n" in out
    assert [r for r in records if r["check"] == "chain-map-square"] == [
        {"check": "chain-map-square", "level": 3, "dim": 1,
         "detail": f"face (3) of ({edge}) is born at 4, after it at 3"}
        for edge in ("3,4", "3,5")
    ]


def test_check_inclusions_skip_a_column_with_no_faces(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gen.json"
    path.write_text(random_filtration_document(40, 8, seed=3).serialize())
    zeroed = {}

    def zero_an_edge(f):
        born, columns = f._birth_columns(1)
        columns[0] = 0  # the first-born edge, which has a coface
        zeroed.update(birth=born[0], last=f._birth_columns(0)[0][-1])

    code, out, records = _tampered_check(monkeypatch, capsys, str(path), zero_an_edge)
    # a zero column read as its top row would name the last-born vertex, born later
    assert zeroed["birth"] < zeroed["last"]
    assert code == 3
    assert "nilpotency: FAIL\ninclusions: ok\n" in out
    assert {r["check"] for r in records} == {"nilpotency"}


def test_betti_rejects_a_facet_too_big_to_close(tmp_path, capsys, monkeypatch):
    def no_closure(facets):
        raise AssertionError("the closure was built")

    monkeypatch.setattr("phcalc.cli.closure_of_facets", no_closure)
    path = tmp_path / "huge.txt"
    path.write_text("0 1\n" + " ".join(str(v) for v in range(40)) + "\n")
    assert main(["betti", str(path), "-n", "0"]) == 1
    assert capsys.readouterr().err.startswith("phcalc: error: line 2: ")


def test_check_oracle_skips_when_too_large(filtration_file, capsys, monkeypatch):
    monkeypatch.setattr("phcalc.oracle.ENUMERATION_LIMIT_BITS", 2)
    assert main(["check", filtration_file, "--oracle"]) == 0
    assert "oracle: skipped (enumeration bound)" in capsys.readouterr().out


def test_check_oracle_fails_when_it_hits_its_bound_after_a_violation(
    tmp_path, capsys, monkeypatch
):
    # level 0 is one vertex, in the bound, where betti is one too high;
    # level 1 closes a triangle, 7 simplices, past a bound of 3 bits
    monkeypatch.setattr("phcalc.oracle.ENUMERATION_LIMIT_BITS", 3)
    original = SimplicialComplex.betti
    monkeypatch.setattr(
        SimplicialComplex, "betti", lambda self, n: original(self, n) + (n == 0)
    )
    path = tmp_path / "bounded.json"
    path.write_text('{"levels": [[[0]], [[0], [1, 2, 3]], [[0, 1, 2, 3]]]}')
    assert _oracle_violations(str(path), capsys) == [
        {"check": "oracle-betti", "level": 0, "dim": 0,
         "detail": "rank method 2, oracle 1"}
    ]


def _oracle_violations(path, capsys) -> list[dict]:
    """Run check --oracle on path, which must fail in the oracle section only."""
    assert main(["check", path, "--oracle"]) == 3
    out = capsys.readouterr().out
    for line in ("nilpotency: ok", "inclusions: ok", "fundamental-lemma: ok",
                 "oracle: FAIL"):
        assert line in out
    return json.loads(out[out.index("["):])


def test_check_oracle_fails_on_a_wrong_persistent_betti(
    filtration_file, capsys, monkeypatch
):
    def wrong(f, n, j, p):
        return persistent_betti(f, n, j, p) + ((n, j, p) == (1, 2, 4))

    monkeypatch.setattr(cli, "persistent_betti", wrong)
    assert _oracle_violations(filtration_file, capsys) == [
        {"check": "oracle-pbetti", "dim": 1, "j": 2, "p": 4,
         "detail": "rank method 2, oracle 1"}
    ]


def test_check_oracle_fails_on_a_wrong_betti_number(
    filtration_file, diabolo_filtration, capsys, monkeypatch
):
    original, level = SimplicialComplex.betti, diabolo_filtration[3]

    def wrong(self, n):
        return original(self, n) + (n == 1 and self == level)

    monkeypatch.setattr(SimplicialComplex, "betti", wrong)
    assert _oracle_violations(filtration_file, capsys) == [
        {"check": "oracle-betti", "level": 3, "dim": 1,
         "detail": "rank method 3, oracle 2"}
    ]


def test_an_unwritable_output_is_an_error_at_its_path(filtration_file, tmp_path, capsys):
    path = str(tmp_path / "missing" / "out")
    for argv in (["barcode", filtration_file, "-n", "0", "-o", path],
                 ["gen", "-t", "4", "-l", "2", "-o", path]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"phcalc: error: {path}: No such file or directory\n"


def test_gen_writes_deterministic_file(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    args = ["gen", "-t", "10", "-l", "5", "-s", "42"]
    assert main(args + ["-o", str(out_path)]) == 0
    assert main(args) == 0
    assert capsys.readouterr().out == out_path.read_text()
    doc = parse_filtration(out_path.read_text())
    assert doc.name == "random triangles=10 levels=5 vertices=12 seed=42"
    assert len(doc.levels) == 5


def test_gen_output_passes_check(tmp_path, capsys):
    path = tmp_path / "gen.json"
    assert main(["gen", "-t", "6", "-l", "3", "-v", "7", "-s", "9",
                 "-o", str(path)]) == 0
    assert main(["check", str(path), "--oracle"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_gen_rejects_bad_arguments(capsys):
    assert main(["gen", "-t", "0", "-l", "1"]) == 1
    assert main(["gen", "-t", "1", "-l", "1", "-v", "2"]) == 1
    capsys.readouterr()


def test_gen_refuses_more_triangles_than_a_file_may_close_to(tmp_path, capsys):
    # 149,797 triangles could close past MAX_CLOSURE_SIZE, which every reader refuses
    path = tmp_path / "big.json"
    assert main(["gen", "-t", "149797", "-l", "1", "-o", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "phcalc: error: need at most 149796 triangles, got 149797: each closes to"
        " 7 simplices, and a file may close to at most 1048576\n"
    )
    assert not path.exists()


def test_bench_table_layout(capsys):
    assert main(["bench", "-t", "2,3", "-l", "2", "-s", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    assert header.split() == ["2", "3"]
    rows = {line.split()[0] for line in lines if line and line[0].isalpha()}
    assert "Betti" in rows and "Persistent" in rows


def test_bench_rejects_a_triangle_count_that_is_no_integer(capsys):
    assert main(["bench", "-t", "1,x"]) == 1
    assert "expected comma-separated integers, got '1,x'" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["betti"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["betti", "x.txt", "-n", "-3"]) == 1
    assert main(["bench", "-t", "0"]) == 1
    capsys.readouterr()


def test_missing_file_exits_one(capsys):
    assert main(["betti", "/nonexistent/path.txt", "-n", "0"]) == 1
    assert "path.txt" in capsys.readouterr().err


def test_a_file_not_in_utf8_is_a_parse_error_at_its_path(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff 0 1\n")
    for args in (["betti", str(path), "-n", "0"], ["barcode", str(path), "--all-dims"]):
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"phcalc: error: {path}: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n"
        )


def test_parse_error_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"levels": [[[0, "x"]]]}')
    assert main(["pbetti", str(path), "-n", "0", "-j", "0", "-p", "0"]) == 1
    assert "levels[0][0][1]" in capsys.readouterr().err


def test_deeply_nested_json_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["barcode", str(path), "-n", "0"]) == 1
    err = capsys.readouterr().err
    assert err == "phcalc: error: document: nested too deeply\n"


def test_incremental_mode(tmp_path, capsys):
    path = tmp_path / "inc.json"
    path.write_text('{"levels": [[[0,1]], [[1,2]]]}')
    assert main(["pbetti", str(path), "--incremental",
                 "-n", "0", "-j", "0", "-p", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "betti" in capsys.readouterr().out
