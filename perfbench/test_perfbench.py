"""Tests of the benchmark's own parts: generator, reference, comparators,
tracer, input pool and speed rescaling.

    PYTHONPATH=src python3 -m pytest -q perfbench

Only these tests import phcalc next to the reference, to hold the
reference to the enumeration oracle and the generator to `phcalc gen`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from phcalc import Filtration, Simplex, barcode, oracle_persistent_betti  # noqa: E402
from phcalc.files import serialize_barcodes  # noqa: E402
from phcalc.generate import random_filtration_document  # noqa: E402
from phcalc.render import ascii_bars  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402


def _filtration(level_facets) -> Filtration:
    return Filtration.from_level_facets(
        [[Simplex(f) for f in level] for level in level_facets]
    )


@pytest.mark.parametrize("triangles,levels,seed", [(1, 1, 0), (7, 3, 5), (50, 6, 2)])
def test_generator_matches_phcalc_gen(triangles, levels, seed):
    text, _ = reference.generate(triangles, levels, seed)
    assert text == random_filtration_document(triangles, levels, seed=seed).serialize()


HOLLOW = [(0, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("level_facets,bars", [
    # hollow triangle, filled one level later: a 1-cycle lives for one level
    ([HOLLOW, HOLLOW + [(0, 1, 2)]],
     {0: {(0, None): 1}, 1: {(0, 1): 1}, 2: {}}),
    # filled triangle from the start: contractible
    ([[(0, 1, 2)]], {0: {(0, None): 1}, 1: {}, 2: {}}),
    # two vertices joined at level 1, then a hollow triangle that never fills
    ([[(0,), (1,)], [(0, 1)], HOLLOW],
     {0: {(0, None): 1, (0, 1): 1}, 1: {(2, None): 1}}),
])
def test_reference_on_hand_known_complexes(level_facets, bars):
    got = reference.reference(level_facets)
    assert got == bars
    f = _filtration(level_facets)
    for n in got:
        for j in range(len(f)):
            for p in range(j, len(f)):
                assert reference.spanning(got, n, j, p) == oracle_persistent_betti(f, n, j, p)


@pytest.mark.parametrize("seed", range(8))
def test_reference_matches_oracle(seed):
    _, level_facets = reference.generate(5, 4, seed)
    bars = reference.reference(level_facets)
    f = _filtration(level_facets)
    for n in range(3):
        for j in range(len(f)):
            for p in range(j, len(f)):
                want = oracle_persistent_betti(f, n, j, p)
                assert reference.spanning(bars, n, j, p) == want, (n, j, p)


def test_euler_check_catches_a_wrong_reduction(monkeypatch):
    real = reference.barcodes

    def one_bar_short(birth):
        bars = real(birth)
        del bars[0][(0, None)]
        return bars

    monkeypatch.setattr(reference, "barcodes", one_bar_short)
    with pytest.raises(AssertionError):
        reference.reference([HOLLOW])


def test_output_parsers_read_phcalc_formats():
    _, level_facets = reference.generate(40, 6, 3)
    bars = reference.reference(level_facets)
    f = _filtration(level_facets)
    codes = [barcode(f, n) for n in range(f.dim + 1)]
    assert reference.from_json(serialize_barcodes(codes)) == bars
    text = "\n".join(ascii_bars(b, f.m) for b in codes)
    assert reference.from_text(text) == bars


def test_comparator_counts_wrong_answers_as_failed():
    _, level_facets = reference.generate(40, 6, 3)
    bars = reference.reference(level_facets)
    doc = {"barcodes": [
        {"dimension": n, "intervals": [
            {"birth": b, "death": d, "multiplicity": c} for (b, d), c in sorted(
                dim_bars.items(), key=lambda kv: (kv[0][0], kv[0][1] is None, kv[0][1]))
        ]} for n, dim_bars in bars.items()
    ]}
    tally = run.Tally()
    assert tally.record(run.barcode_ok(json.dumps(doc), "json", bars))
    doc["barcodes"][1]["intervals"][0]["multiplicity"] += 1
    tally.record(run.barcode_ok(json.dumps(doc), "json", bars))

    (born, died), count = next(
        (key, c) for key, c in bars[1].items() if key[1] is not None
    )
    query = ["mu", 1, born, died]
    assert run.answer_ok(query, count, bars)
    tally.record(run.answer_ok(query, count + 1, bars))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_check_comparator_needs_exit_zero_and_the_pass_line():
    assert run.check_ok(0, "nilpotency: ok\nall checks passed\n")
    assert not run.check_ok(3, "nilpotency: FAIL\n")
    assert not run.check_ok(0, "nilpotency: ok\n")


def test_layer_totals_subtracts_children():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 50, 0, 3],
        ["b", 20, 30, 1, 0],
        ["a", 60, 70, 0, 4],
    ]
    totals = layer_totals({"spans": spans, "simplices": 0})
    assert totals["root"]["self_s"] == pytest.approx(50e-9)
    assert totals["a"] == {"self_s": pytest.approx(40e-9), "calls": 2, "size": 7}
    assert totals["b"]["calls"] == 1


def test_tracer_records_nested_spans():
    tracer = Tracer()
    inner = tracer.span("inner", lambda x: x + 1, size=lambda args, result: result)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(name, parent, size) for name, _, _, parent, size in tracer.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 2)]


def test_pool_starts_at_the_seed_and_repeats():
    seeds = run.pool_seeds(1, run.CLI_POOL)
    assert seeds[0] == 1
    assert len(set(seeds)) == run.CLI_POOL
    assert run.pool_seeds(1, run.CLI_POOL) == seeds
    assert run.pool_seeds(2, run.CLI_POOL) != seeds


def test_rescale_takes_out_the_machine_speed():
    at_reference = speed.rescale(1.0, speed.REFERENCE_S, speed.REFERENCE_S)
    assert at_reference == pytest.approx(1.0)
    # The same work at half speed: the operation and the loops both take twice as long.
    slow = 2 * speed.REFERENCE_S
    assert speed.rescale(2.0, slow, slow) == pytest.approx(at_reference)
    assert speed.loop_s() > 0
