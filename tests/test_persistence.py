"""Persistent Betti numbers, multiplicities, barcodes, interval identities.

The diabolo expectations below were worked out by hand from the
definition (and independently cross-checked by the enumeration oracle
in test_oracle.py); the property tests run against seeded random
filtrations.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from enum import IntEnum
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phcalc import (
    INFINITE_DEATH,
    Barcode,
    Filtration,
    LemmaViolation,
    PersistencePair,
    Simplex,
    SimplicialComplex,
    barcode,
    betti_table,
    check_fundamental_lemma,
    mu,
    mu_infinity,
    oracle_persistent_betti,
    persistent_betti,
    persistent_betti_simplified,
)
from phcalc import persistence, ranks
from phcalc.cli import main
from phcalc.files import parse_filtration
from phcalc.generate import random_filtration_document
from phcalc.gf2 import Gf2Matrix
from phcalc.ranks import _betti_grid

from .support import (
    count_boundary_builds,
    count_inserts,
    count_reductions,
    kept_state,
    perturb_rank_rows,
    random_filtration,
    stacked_rank_grid,
)

# per-level Betti numbers of the diabolo filtration, by dimension
DIABOLO_BETTI = {0: (3, 1, 4, 2, 1, 1), 1: (0, 1, 1, 2, 2, 1)}


def test_diabolo_per_level_betti(diabolo_filtration):
    for n, expected in DIABOLO_BETTI.items():
        assert tuple(level.betti(n) for level in diabolo_filtration) == expected


def test_diabolo_diagonal_is_betti(diabolo_filtration):
    for n in (0, 1, 2):
        for j in range(6):
            assert persistent_betti(diabolo_filtration, n, j, j) == (
                diabolo_filtration[j].betti(n)
            )


def test_diabolo_key_queries(diabolo_filtration):
    f = diabolo_filtration
    assert persistent_betti(f, 0, 0, 0) == 3
    assert persistent_betti(f, 0, 0, 4) == 1
    # the two level-0 vertices 0,1 merge into the component of 2 at level 1
    assert persistent_betti(f, 0, 0, 1) == 1
    # both holes of level 3 survive to level 4, one survives level 5
    assert persistent_betti(f, 1, 3, 4) == 2
    assert persistent_betti(f, 1, 3, 5) == 1


def test_diabolo_betti_table_rows(diabolo_filtration):
    table = betti_table(diabolo_filtration, 0)
    assert [table[(0, p)] for p in range(6)] == [3, 1, 1, 1, 1, 1]
    table1 = betti_table(diabolo_filtration, 1)
    assert [table1[(3, p)] for p in range(3, 6)] == [2, 2, 1]
    assert set(table) == {(j, p) for j in range(6) for p in range(j, 6)}


def test_betti_table_matches_pointwise(diabolo_filtration):
    for n in (0, 1):
        table = betti_table(diabolo_filtration, n)
        for (j, p), value in table.items():
            assert value == persistent_betti(diabolo_filtration, n, j, p)


def test_domain_errors(diabolo_filtration):
    f = diabolo_filtration
    with pytest.raises(ValueError):
        persistent_betti(f, -1, 0, 0)
    with pytest.raises(ValueError, match="0 <= j <= p <= 5"):
        persistent_betti(f, 0, 3, 2)
    with pytest.raises(ValueError, match="0 <= j < p <= 5"):
        mu(f, 0, 2, 2)
    with pytest.raises(ValueError):
        mu_infinity(f, 0, 6)


def test_dimension_error_comes_before_level_error(diabolo_filtration):
    f = diabolo_filtration
    for query in (
        lambda: persistent_betti(f, -1, 3, 2),
        lambda: persistent_betti_simplified(f, -1, 3, 2),
        lambda: mu(f, -1, 2, 2),
        lambda: mu_infinity(f, -1, 6),
    ):
        with pytest.raises(ValueError, match="dimension must be >= 0, got -1"):
            query()


@pytest.mark.parametrize("query, dim", [
    (lambda f: persistent_betti(f, 1.5, 0, 2), "1.5"),
    (lambda f: mu(f, 1.0, 0, 2), "1.0"),
    (lambda f: mu_infinity(f, 0.5, 1), "0.5"),
    (lambda f: barcode(f, 1.5), "1.5"),
    (lambda f: persistent_betti(f, 1.5, 0.5, 2.5), "1.5"),
], ids=["persistent_betti", "mu", "mu_infinity", "barcode", "dimension-before-levels"])
def test_a_non_integer_dimension_is_refused_by_name(diabolo_filtration, query, dim):
    # a named error before anything is swept, reduced or kept, and before the levels
    f = diabolo_filtration
    kept = kept_state(f)
    with pytest.raises(TypeError, match=f"^dimension n must be an integer, got {dim}$"):
        query(f)
    assert kept_state(f) == kept


def test_persistent_betti_refuses_a_non_integer_level(diabolo_filtration):
    # as f[3.5] does, and before it keeps a row under a key that is no level
    f = diabolo_filtration
    kept = kept_state(f)
    with pytest.raises(TypeError, match="level j must be an integer, got 3.5"):
        persistent_betti(f, 1, 3.5, 4)
    with pytest.raises(TypeError, match="level p must be an integer, got 4.5"):
        persistent_betti(f, 1, 3, 4.5)
    assert kept_state(f) == kept


def test_mu_refuses_a_non_integer_level(diabolo_filtration):
    f = diabolo_filtration
    kept = kept_state(f)
    with pytest.raises(TypeError, match="level j must be an integer, got 2.5"):
        mu(f, 1, 2.5, 4)
    with pytest.raises(TypeError, match="level p must be an integer, got 4.5"):
        mu(f, 1, 2, 4.5)
    assert kept_state(f) == kept


def test_mu_infinity_refuses_a_non_integer_level(diabolo_filtration):
    f = diabolo_filtration
    kept = kept_state(f)
    with pytest.raises(TypeError, match="level j must be an integer, got 2.5"):
        mu_infinity(f, 1, 2.5)
    assert kept_state(f) == kept


_QUERIES = {"persistent_betti": persistent_betti, "mu": mu, "mu_infinity": mu_infinity}
_PAIR = "need 0 <= j <= p <= 5, got "
_MU_PAIR = "need 0 <= j < p <= 5, got "
_BIRTH = "need 0 <= j <= 5, got "
# (query, (n, j[, p]), the error, its exact text) on the diabolo filtration, m = 5
_REFUSED = [
    (name, args, TypeError, f"dimension n must be an integer, got {bad!r}")
    for bad in (1.0, "1", None)
    for name, args in (("persistent_betti", (bad, 2, 4)), ("mu", (bad, 2, 4)),
                       ("mu_infinity", (bad, 2)))
] + [
    (name, args, TypeError, f"level {level} must be an integer, got {bad!r}")
    for bad in (2.0, "2", None)
    for name, args, level in (
        ("persistent_betti", (1, bad, 4), "j"), ("persistent_betti", (1, 2, bad), "p"),
        ("mu", (1, bad, 4), "j"), ("mu", (1, 2, bad), "p"), ("mu_infinity", (1, bad), "j"),
    )
] + [
    (name, (-1, *levels), ValueError, "dimension must be >= 0, got -1")
    for name, levels in (("persistent_betti", (2, 4)), ("mu", (2, 4)), ("mu_infinity", (2,)))
] + [
    ("persistent_betti", (1, j, p), ValueError, f"{_PAIR}j={j}, p={p}")
    for j, p in ((-1, 4), (6, 6), (2, -1), (2, 6), (4, 2))
] + [
    ("mu", (1, j, p), ValueError, f"{_MU_PAIR}j={j}, p={p}")
    for j, p in ((-1, 4), (6, 7), (2, -1), (2, 6), (4, 2), (3, 3))
] + [
    ("mu_infinity", (1, j), ValueError, f"{_BIRTH}j={j}") for j in (-1, 6)
] + [  # the first failing check speaks: the dimension, then j, then p, then the range
    ("persistent_betti", (-1, 4, 2), ValueError, "dimension must be >= 0, got -1"),
    ("mu", (-1, 3, 3), ValueError, "dimension must be >= 0, got -1"),
    ("mu_infinity", (-1, 6), ValueError, "dimension must be >= 0, got -1"),
    ("persistent_betti", (1.0, None, 9), TypeError, "dimension n must be an integer, got 1.0"),
    ("mu", (-1, 2.0, "x"), ValueError, "dimension must be >= 0, got -1"),
    ("mu", (1, 2.0, "x"), TypeError, "level j must be an integer, got 2.0"),
    ("persistent_betti", (1, 9, None), TypeError, "level p must be an integer, got None"),
]


@pytest.mark.parametrize("name, args, error, message", _REFUSED)
def test_the_inline_check_refuses_what_the_full_checks_refuse(
    diabolo_filtration, name, args, error, message
):
    # a plain int in range passes one inline test; anything else meets the
    # full checks, with their errors and texts, in their order, and no
    # refused query keeps anything, on a fresh filtration or a warm one
    f = diabolo_filtration
    for warm in (False, True):
        if warm:
            for n in range(3):
                persistent_betti(f, n, 0, 5)
                mu(f, n, 2, 5)
                mu_infinity(f, n, 5)
        kept = kept_state(f)
        with pytest.raises(error) as refused:
            _QUERIES[name](f, *args)
        assert type(refused.value) is error and str(refused.value) == message
        assert kept_state(f) == kept


class _Level(IntEnum):
    ZERO, ONE, TWO, THREE, FOUR, FIVE = range(6)


@pytest.mark.parametrize("name, args, answer", [
    ("persistent_betti", (0, 0, 1), 1), ("persistent_betti", (1, 3, 4), 2),
    ("mu", (1, 1, 5), 1), ("mu", (0, 2, 3), 2), ("mu_infinity", (0, 0), 1),
    ("mu_infinity", (1, 3), 1),
])
def test_bools_and_int_enums_get_the_plain_ints_answer(diabolo_filtration, name, args, answer):
    # bool and IntEnum are ints that the inline test leaves to the full
    # checks, which accept them: the same answer, kept under equal keys
    plain = Filtration(diabolo_filtration.levels)
    assert _QUERIES[name](plain, *args) == answer

    def like(value):
        return bool(value) if value in (0, 1) else _Level(value)

    variants = [args[:k] + (like(args[k]),) + args[k + 1:] for k in range(len(args))]
    variants += [tuple(map(like, args)), tuple(map(_Level, args))]
    for variant in variants:
        f = Filtration(diabolo_filtration.levels)
        assert _QUERIES[name](f, *variant) == answer, variant
        assert kept_state(f) == kept_state(plain), variant


def test_matrices_built_once_per_query(diabolo_filtration, monkeypatch):
    calls = Counter()
    method = Gf2Matrix.kernel_basis

    def counting(*args, **kwargs):
        calls["kernel_basis"] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(Gf2Matrix, "kernel_basis", counting)
    built, reduced = count_boundary_builds(monkeypatch), count_reductions(monkeypatch)
    f = diabolo_filtration
    for query, reductions in (
        # the reduction of D_n and D_{n+1} of the last level, kept by the filtration
        (lambda: mu(f, 1, 3, 5), 2),
        (lambda: mu(f, 1, 3, 5), 0),
        (lambda: persistent_betti(f, 1, 3, 5), 0),
        (lambda: mu_infinity(f, 1, 3), 0),
    ):
        calls.clear()
        reduced.clear()
        query()
        assert calls["kernel_basis"] == 0
        assert sum(reduced.values()) == reductions
    assert built == {}  # and no column of the rank side


def test_rank_grid_builds_no_level(monkeypatch):
    text = random_filtration_document(60, 8, seed=1).serialize()
    asked = []
    original = Filtration.__getitem__

    def recording(self, j):
        asked.append(j)
        return original(self, j)

    monkeypatch.setattr(Filtration, "__getitem__", recording)
    for query in (
        lambda f: betti_table(f, 1),
        lambda f: mu(f, 1, 3, 5),
        lambda f: mu_infinity(f, 1, 3),
        lambda f: persistent_betti(f, 1, 2, 4),
    ):
        f = parse_filtration(text).to_filtration()
        asked.clear()
        query(f)
        assert asked == []


def test_fast_paths_construct_no_complex(diabolo_filtration, diabolo_json, tmp_path,
                                         capsys, monkeypatch):
    # a level is built only through the public, face-closure-checked
    # constructor, and no fast path builds one
    path = tmp_path / "diabolo.json"
    path.write_text(diabolo_json)
    f = diabolo_filtration
    expected = (
        [barcode(f, n) for n in range(3)],
        [betti_table(f, n) for n in range(3)],
        (persistent_betti(f, 1, 3, 5), mu(f, 0, 2, 3), mu_infinity(f, 1, 3)),
    )

    def no_complex(self, simplices):
        raise AssertionError("a SimplicialComplex was built")

    monkeypatch.setattr(SimplicialComplex, "__init__", no_complex)
    f = parse_filtration(diabolo_json).to_filtration()
    assert (
        [barcode(f, n) for n in range(3)],
        [betti_table(f, n) for n in range(3)],
        (persistent_betti(f, 1, 3, 5), mu(f, 0, 2, 3), mu_infinity(f, 1, 3)),
    ) == expected
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    with pytest.raises(AssertionError, match="SimplicialComplex"):
        f[0]


def _point_queries(m: int) -> list[tuple]:
    """Every persistent_betti, mu and mu_infinity query in dims 0-2, by p."""
    queries = [("mu_infinity", n, j, m + 1) for n in range(3) for j in range(m + 1)]
    for n in range(3):
        for j in range(m + 1):
            for p in range(j, m + 1):
                queries.append(("persistent_betti", n, j, p))
                if j < p:
                    queries.append(("mu", n, j, p))
    return sorted(queries, key=lambda q: q[3])


def _grid_mu(table: dict, m: int, j: int, p: int) -> int:
    """The paper's (beta(j, p-1) - beta(j, p)) - (beta(j-1, p-1) - beta(j-1, p)) off a grid.

    beta is 0 at birth -1 and at death m + 1, past the last level, so
    at p = m + 1 it counts the classes born at j that never die.
    """
    def beta(k: int, l: int) -> int:
        return table[(k, l)] if k >= 0 and l <= m else 0

    return beta(j, p - 1) - beta(j, p) - beta(j - 1, p - 1) + beta(j - 1, p)


def _from_table(table: dict, m: int, query: tuple) -> int:
    """What a grid of beta says a point query (name, n, j, p) answers; p = m + 1 for mu_infinity."""
    name, _, j, p = query
    return table[(j, p)] if name == "persistent_betti" else _grid_mu(table, m, j, p)


def _ask(f: Filtration, query: tuple) -> int:
    name, n, j, p = query
    if name == "persistent_betti":
        return persistent_betti(f, n, j, p)
    if name == "mu":
        return mu(f, n, j, p)
    return mu_infinity(f, n, j)


def test_a_round_of_point_queries_builds_each_boundary_matrix_once(monkeypatch):
    # each boundary matrix is built and reduced once, for the bars, and
    # none is built on the rank side
    f = random_filtration_document(200, 10, seed=5).to_filtration()
    built, reduced = count_boundary_builds(monkeypatch), count_reductions(monkeypatch)
    for query in _point_queries(f.m):
        _ask(f, query)
    assert reduced == {d: 1 for d in range(4)}
    assert built == {}


def test_point_queries_in_any_order_match_the_stacked_rank_grid():
    # one filtration answers every query in three orders; each answer
    # must equal a fresh filtration's and the stacked rank per pair
    for seed in range(24):
        doc = random_filtration_document(4 + seed % 9, 5, vertices=7, seed=seed)
        level_facets = [[Simplex(v) for v in level] for level in doc.levels]
        m = len(level_facets) - 1
        levels = range(m + 1)
        grids = [
            stacked_rank_grid(Filtration(level_facets), n, levels, levels) for n in range(3)
        ]

        queries = _point_queries(m)
        infinity_first = sorted(queries, key=lambda q: q[0] != "mu_infinity")
        for order in (queries, queries[::-1], infinity_first):
            shared = Filtration(level_facets)
            for query in order:
                fresh = _ask(Filtration(level_facets), query)
                assert _ask(shared, query) == _from_table(grids[query[1]], m, query) == fresh


def test_betti_grid_matches_the_stacked_rank_grid():
    # the full grid, against one stacked rank per pair
    rng = random.Random(73)
    for _ in range(25):
        f = random_filtration(rng, vertices=7, count=6, levels=4, max_size=4)
        levels = range(len(f))
        for n in range(4):
            rows = list(_betti_grid(f, n))
            assert [j for j, _ in rows] == list(levels)
            # 0 below the birth and at m + 1, past the last level
            assert all(row[:j] + row[len(f):] == [0] * (j + 1) for j, row in rows)
            assert {(j, p): row[p] for j, row in rows for p in levels if p >= j} == (
                stacked_rank_grid(f, n, levels, levels)
            )


def test_rank_rows_sweep_from_the_first_column_born_after_the_birth(monkeypatch):
    # a D_{n+1} column born <= j has no face born after j, so it is 0 on
    # the rows born after j: the sweep for birth j skips it; and D_0 has
    # no rows, so its rank is 0 at every level, with no column swept
    inserted = count_inserts(monkeypatch)
    for n in range(3):
        f = random_filtration_document(40, 6, seed=3).to_filtration()
        cells, bounds = f._birth_columns(n)[0] if n else [], f._birth_columns(n + 1)[0]
        inserted.clear()
        betti_table(f, n)
        later = sum(born > j for j in range(len(f)) for born in bounds)
        assert len(inserted) == len(cells) + len(bounds) + later


def _record(monkeypatch, names: tuple[str, ...]) -> list:
    """Record, from now on, the name and arguments past the filtration of each call of names.

    Each name is patched in the module that defines it: `persistence`, or
    `ranks` for the rank formula's helpers.
    """
    calls = []

    def recording(module, name):
        original = getattr(module, name)

        def record(*args):
            calls.append((name, *args[1:]))
            return original(*args)

        return record

    for name in names:
        module = persistence if hasattr(persistence, name) else ranks
        monkeypatch.setattr(module, name, recording(module, name))
    return calls


def test_point_queries_reduce_each_dimension_once_and_build_each_row_once(monkeypatch):
    # a round of every point query in dims 0-2, in random order, keeps the
    # bars of each dimension from one reduction of each D_d, and builds
    # each row of beta once, on the first persistent_betti at its birth;
    # no query sweeps a rank-side column
    f = random_filtration_document(40, 6, seed=3).to_filtration()
    inserted, reduced = count_inserts(monkeypatch), count_reductions(monkeypatch)
    rows = _record(monkeypatch, ("_bar_row",))
    queries = _point_queries(f.m)
    random.Random(17).shuffle(queries)
    first = set()
    for query in queries:
        name, n, j, _ = query
        before = len(rows)
        _ask(f, query)
        if name == "persistent_betti" and (n, j) not in first:
            first.add((n, j))
            assert rows[before:] == [("_bar_row", n, j)]
        else:
            assert rows[before:] == [], query
    assert reduced == {d: 1 for d in range(4)} and inserted == []
    assert set(f._rows) == first == {(n, j) for n in range(3) for j in range(f.m + 1)}
    assert set(f._bars) == {0, 1, 2}


def test_mu_and_mu_infinity_equal_the_finite_difference_of_two_grid_rows(
    diabolo_filtration,
):
    # mu and mu_infinity look the bar up; the grid's rows of births j - 1
    # and j give the difference as the paper writes it, on a filtration of
    # its own, and persistent_betti, read off its row of the bars, equals
    # the grid's entry
    rng = random.Random(59)
    filtrations = [diabolo_filtration, _two_spheres(rng)]
    filtrations += [random_filtration(rng, vertices=7, count=6, levels=5, max_size=4)
                    for _ in range(8)]
    filtrations += [random_filtration_document(8 + 6 * s, 4 + s, seed=s).to_filtration()
                    for s in range(4)]
    tops = set()
    for f in filtrations:
        m, grid = f.m, Filtration(f.levels)
        tops.add(f.dim)
        for n in range(4):
            rows = dict(_betti_grid(grid, n))
            for j in range(m + 1):
                row, before = rows[j], rows.get(j - 1, [0] * (m + 2))
                for p in range(j, m + 1):
                    assert persistent_betti(f, n, j, p) == row[p], (n, j, p)
                for p in range(j + 1, m + 2):
                    count = (row[p - 1] - row[p]) - (before[p - 1] - before[p])
                    query = mu(f, n, j, p) if p <= m else mu_infinity(f, n, j)
                    assert query == count, (n, j, p)
    assert 3 in tops


def test_first_mu_keeps_the_bars_and_no_row_and_a_warm_one_builds_nothing(monkeypatch):
    # a multiplicity is one lookup in the bars: the first mu in a fresh
    # dimension n reduces D_{n+1} and D_n, keeps the bars of n and no row
    # of beta; after it neither mu nor mu_infinity builds anything, nor
    # does persistent_betti at birth j once one query has built its row,
    # and no point query runs the rank grid or sweeps a rank-side column
    levels = 8
    text = random_filtration_document(60, levels, seed=11).serialize()
    inserted, reduced = count_inserts(monkeypatch), count_reductions(monkeypatch)

    def no_grid(*args, **kwargs):
        raise AssertionError("a point query ran the rank grid")

    monkeypatch.setattr(ranks, "_betti_grid", no_grid)
    rng = random.Random(23)
    for n in range(3):
        for j in range(levels - 1):
            f = parse_filtration(text).to_filtration()
            m = f.m
            p = rng.randrange(j + 1, m + 1)
            reduced.clear()
            mu(f, n, j, p)
            assert reduced == {n: 1, n + 1: 1}, (n, j, p)
            assert (set(f._bars), f._rows) == ({n}, {}), (n, j, p)
            mu_infinity(f, n, j)
            persistent_betti(f, n, j, m)
            kept = kept_state(f)
            reduced.clear()
            mu_infinity(f, n, j)
            for q in range(j + 1, m + 1):
                mu(f, n, j, q)
            for q in range(j, m + 1):
                persistent_betti(f, n, j, q)
            assert (reduced, inserted, kept_state(f)) == ({}, [], kept), (n, j)


def test_point_queries_after_check_reduce_nothing_again(monkeypatch):
    # check keeps the bars of every dimension, through its barcodes, so a
    # round of point queries after it reduces nothing and sweeps no
    # rank-side column; persistent_betti builds only its own rows
    f = random_filtration_document(40, 6, seed=3).to_filtration()
    assert all(check_fundamental_lemma(f, n).ok for n in range(3))
    assert (set(f._bars), f._rows) == ({0, 1, 2}, {})
    inserted, reduced = count_inserts(monkeypatch), count_reductions(monkeypatch)
    for query in _point_queries(f.m):
        _ask(f, query)
    assert (reduced, inserted) == ({}, [])
    assert set(f._rows) == {(n, j) for n in range(3) for j in range(f.m + 1)}


def test_check_and_betti_table_keep_no_row_of_beta():
    # they stream one row of beta per birth from the rank formula and keep
    # none, so their memory stays linear in m; check keeps the bars of its
    # barcodes, and a point query keeps the row of each birth it asks
    f = random_filtration_document(60, 12, seed=7).to_filtration()
    tables = [betti_table(f, n) for n in range(3)]
    assert (f._rows, f._bars) == ({}, {})
    assert all(check_fundamental_lemma(f, n).ok for n in range(3))
    assert (f._rows, set(f._bars)) == ({}, {0, 1, 2})
    assert mu(f, 1, 3, 7) == tables[1][(3, 6)] - tables[1][(3, 7)] - (
        tables[1][(2, 6)] - tables[1][(2, 7)]
    )
    assert f._rows == {}
    assert persistent_betti(f, 1, 3, 7) == tables[1][(3, 7)]
    assert {key: len(row) for key, row in f._rows.items()} == {(1, 3): f.m - 2}


def _two_spheres(rng: random.Random) -> Filtration:
    """An octahedron, filled later, and a hollow tetrahedron, facets born at random."""
    octahedron = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    filling = [(0, 1, b, c) for b in (2, 3) for c in (4, 5)]
    hollow = list(combinations(range(6, 10), 3))
    born = [(s, rng.randrange(4)) for s in octahedron + hollow]
    born += [(s, rng.randrange(3, 6)) for s in filling]
    return Filtration.from_level_facets(
        [[Simplex(s) for s, at in born if at <= j] for j in range(6)]
    )


def test_seeded_point_queries_in_random_order_match_betti_table_and_barcode():
    # one filtration answers every query, kept bars and rows and all, and
    # repeated queries and growing deaths on one birth read a kept row;
    # each answer is held to the rank grid, and the grid to the barcode
    rng = random.Random(41)
    filtrations = [random_filtration_document(6 + 4 * s, 3 + s % 7, seed=s).to_filtration()
                   for s in range(6)]
    filtrations += [random_filtration(rng, vertices=7, count=6, levels=6, max_size=4)
                    for _ in range(6)]
    filtrations += [_two_spheres(rng) for _ in range(4)]
    asked, h2 = Counter(), False
    for f in filtrations:
        m = f.m
        tables = [betti_table(Filtration(f.levels), n) for n in range(3)]
        bars = [barcode(Filtration(f.levels), n) for n in range(3)]
        h2 |= bars[2].total_bars() > 0

        queries = []
        for _ in range(40):
            n, j = rng.randrange(3), rng.randrange(m + 1)
            kind = rng.choice(("persistent_betti", "mu", "mu_infinity"))
            if kind == "mu" and j == m:
                j -= 1
            if kind == "mu_infinity":
                queries.append((kind, n, j, m + 1))
            else:
                queries.append((kind, n, j, rng.randrange(j + (kind == "mu"), m + 1)))
        queries += rng.sample(queries, 10)
        n, j = rng.randrange(3), rng.randrange(m)
        queries += [("persistent_betti", n, j, p) for p in range(j, m + 1)]
        queries += [("mu", n, j, p) for p in range(j + 1, m + 1)]
        for query in queries:
            table = tables[query[1]]
            assert _ask(f, query) == _from_table(table, m, query) == _from_bars(bars[query[1]], query), query
            asked[query[0], query[1]] += 1
    assert h2 and len(asked) == 9


def _from_bars(bars: Barcode, query: tuple) -> int:
    """What the barcode says a point query (name, n, j, p) answers."""
    name, _, j, p = query
    if name == "persistent_betti":
        return bars.betti_at(j, p)
    death = INFINITE_DEATH if name == "mu_infinity" else p
    return sum(b.multiplicity for b in bars.pairs if (b.birth, b.death) == (j, death))


def test_a_kept_row_is_read_by_later_queries_and_matches_betti_table():
    # a mu at birth 0 keeps the bars of n and no row; a persistent_betti at
    # birth 0 then builds row 0 of beta from them, levels 0 to m, and keeps
    # it; a query one dimension up keeps that dimension's bars (none above
    # the top dimension), or a persistent_betti at another birth its own
    # row; and later queries at birth 0 read the same row.  Every answer
    # is held to betti_table and to a fresh filtration asked the same
    # queries in reverse order
    rng = random.Random(47)
    for s in range(8):
        levels = random_filtration_document(12 + 5 * s, 4 + s, seed=s).to_filtration().levels
        tables = [betti_table(Filtration(levels), n) for n in range(4)]
        m = len(levels) - 1
        for n in range(3):
            f, p = Filtration(levels), rng.randrange(1, m)
            j, q, b = rng.randrange(1, p + 1), rng.randrange(p + 1, m + 1), rng.randrange(p + 1)
            queries = [("mu", n, 0, p), ("persistent_betti", n, 0, b)]
            answers = [_ask(f, query) for query in queries]
            assert (set(f._bars), set(f._rows)) == ({n}, {(n, 0)}), (s, n)
            row = f._rows[n, 0]
            assert len(row) == m + 1, (s, n)
            extend = ("mu_infinity", n + 1, j, m + 1) if s % 2 else ("persistent_betti", n, j, q)
            answers.append(_ask(f, extend))
            if s % 2:
                assert set(f._bars) == ({n, n + 1} if n < f.dim else {n}), (s, n)
            else:
                assert set(f._rows) == {(n, 0), (n, j)}, (s, n)
            later = [("mu", n, 0, q), ("persistent_betti", n, 0, q), ("mu_infinity", n, 0, m + 1)]
            answers += [_ask(f, query) for query in later]
            assert f._rows[n, 0] is row, (s, n, extend)
            queries += [extend] + later
            expected = [_from_table(tables[query[1]], m, query) for query in queries]
            assert answers == expected, (s, n)
            fresh = Filtration(levels)
            assert [_ask(fresh, query) for query in reversed(queries)] == answers[::-1], (s, n)


def test_kept_ranks_match_each_levels_boundary_matrix():
    # against the matrix form, which shares no elimination with the sweep
    rng = random.Random(29)
    tops = set()
    for _ in range(20):
        f = random_filtration(rng, vertices=7, count=6, levels=4, max_size=4)
        tops.add(f.dim)
        for d in range(f.dim + 2):
            assert ranks._rank_g(f, d - 1) == [
                level.boundary_matrix(d).rank() for level in f
            ]
    assert 3 in tops


def test_kept_cycle_counts_and_boundary_ranks_match_each_levels_matrices():
    # z[j] is |S_n(K^j)| - rank D_n(K^j) and rank_g[p] is rank D_{n+1}(K^p),
    # held to the matrix form, which shares no code with the sweeps; the
    # boundary of the 4-simplex, grown one facet per level, reaches dimension 3
    rng = random.Random(31)
    sphere = list(combinations(range(5), 4))
    filtrations = [random_filtration(rng, vertices=7, count=6, levels=4, max_size=4)
                   for _ in range(20)]
    filtrations.append(Filtration.from_level_facets(
        [[Simplex(s) for s in sphere[: k + 1]] for k in range(len(sphere))]
    ))
    tops = set()
    for f in filtrations:
        tops.add(f.dim)
        for n in range(f.dim + 2):
            z, rank_g = ranks._z(f, n), ranks._rank_g(f, n)
            assert z == [
                len(level.n_simplices(n)) - level.boundary_matrix(n).rank() for level in f
            ]
            assert rank_g == [level.boundary_matrix(n + 1).rank() for level in f]
    assert 3 in tops


def test_warm_point_queries_read_the_kept_bars_and_rows(monkeypatch):
    # after one round of every point query in dims 0-2, the same round
    # again, in another order, keeps nothing new, sweeps no column and
    # calls no builder: each query reads its bars or its row inline, in
    # dimension 2 too, whose kept bars are none
    f = random_filtration_document(40, 6, seed=3).to_filtration()
    queries, rng = _point_queries(f.m), random.Random(37)
    rng.shuffle(queries)
    for query in queries:
        _ask(f, query)
    kept = kept_state(f)
    assert kept[1][2] == {}
    inserted = count_inserts(monkeypatch)
    calls = _record(monkeypatch, ("_bars", "_bar_row", "_pivots", "_beta", "_sweep", "_z",
                                  "_rank_g"))
    rng.shuffle(queries)
    for query in queries:
        _ask(f, query)
    assert (calls, inserted, kept_state(f)) == ([], [], kept)


def test_betti_table_uses_no_reduction(diabolo_filtration, monkeypatch):
    # check holds the rank grid against the reduction, so the grid must
    # answer with the reduction's helpers broken
    tables = [betti_table(diabolo_filtration, n) for n in range(3)]

    def broken(*args, **kwargs):
        raise AssertionError("the rank grid went through the reduction")

    monkeypatch.setattr(persistence, "_reduce", broken)
    monkeypatch.setattr(persistence, "_boundary_columns", broken)
    f = Filtration(diabolo_filtration.levels)
    with pytest.raises(AssertionError, match="reduction"):
        barcode(f, 0)
    assert [betti_table(f, n) for n in range(3)] == tables


def test_point_queries_use_no_rank_grid_columns(diabolo_filtration, diabolo_json,
                                                monkeypatch):
    # the point queries read the reduction's bars, which the grid is held
    # against, so they must answer with the grid's kept columns and their
    # builder broken
    f = diabolo_filtration
    tables = [betti_table(f, n) for n in range(3)]
    multiplicities = (mu(f, 0, 2, 3), mu(f, 1, 1, 5), mu(f, 1, 3, 4), mu_infinity(f, 0, 0),
                      mu_infinity(f, 1, 3))
    assert multiplicities == (2, 1, 0, 1, 1)

    def broken(*args, **kwargs):
        raise AssertionError("a point query went through the kept columns")

    monkeypatch.setattr(Filtration, "_birth_columns", broken)
    f = parse_filtration(diabolo_json).to_filtration()
    with pytest.raises(AssertionError, match="kept columns"):
        betti_table(f, 0)
    for n in range(3):
        assert {key: persistent_betti(f, n, *key) for key in tables[n]} == tables[n]
    assert (mu(f, 0, 2, 3), mu(f, 1, 1, 5), mu(f, 1, 3, 4), mu_infinity(f, 0, 0),
            mu_infinity(f, 1, 3)) == multiplicities


def test_reduction_uses_no_rank_grid_columns(diabolo_filtration, diabolo_json,
                                             monkeypatch):
    # the mirror image: the reduction must answer with the grid's kept
    # columns and their builder broken
    bars = [barcode(diabolo_filtration, n) for n in range(3)]

    def broken(*args, **kwargs):
        raise AssertionError("the reduction went through the kept columns")

    monkeypatch.setattr(Filtration, "_birth_columns", broken)
    f = parse_filtration(diabolo_json).to_filtration()
    with pytest.raises(AssertionError, match="kept columns"):
        betti_table(f, 0)
    assert [barcode(f, n) for n in range(3)] == bars


def test_diabolo_mu_values(diabolo_filtration):
    f = diabolo_filtration
    assert mu(f, 0, 0, 1) == 2
    assert mu(f, 0, 2, 3) == 2
    assert mu(f, 0, 2, 4) == 1
    assert mu(f, 1, 1, 5) == 1
    assert mu(f, 1, 3, 4) == 0
    assert mu_infinity(f, 0, 0) == 1
    assert mu_infinity(f, 0, 2) == 0
    assert mu_infinity(f, 1, 3) == 1


def test_diabolo_barcodes_exact(diabolo_filtration):
    bars0 = barcode(diabolo_filtration, 0)
    assert Counter({(p.birth, p.death): p.multiplicity for p in bars0.pairs}) == (
        Counter({(0, INFINITE_DEATH): 1, (0, 1): 2, (2, 3): 2, (2, 4): 1})
    )
    bars1 = barcode(diabolo_filtration, 1)
    assert Counter({(p.birth, p.death): p.multiplicity for p in bars1.pairs}) == (
        Counter({(1, 5): 1, (3, INFINITE_DEATH): 1})
    )
    assert barcode(diabolo_filtration, 2).pairs == ()


def test_barcode_ordering_and_totals(diabolo_filtration):
    bars = barcode(diabolo_filtration, 0)
    assert list(bars.pairs) == sorted(bars.pairs)
    assert bars.total_bars() == 6
    assert bars.betti_at(0, 0) == 3
    assert bars.betti_at(0, 4) == 1


def test_persistence_pair_validation():
    pair = PersistencePair(1, INFINITE_DEATH, 2)
    assert pair.is_infinite
    assert str(pair) == "[1,inf)"
    assert PersistencePair(0, 3, 1).spans(2, 2)
    assert not PersistencePair(0, 3, 1).spans(2, 3)
    with pytest.raises(ValueError):
        PersistencePair(2, 2, 1)
    with pytest.raises(ValueError):
        PersistencePair(0, 1, 0)
    with pytest.raises(ValueError):
        PersistencePair(-1, 2, 1)


def test_fundamental_lemma_diabolo(diabolo_filtration):
    for n in (0, 1, 2):
        report = check_fundamental_lemma(diabolo_filtration, n)
        assert report.ok
        assert report.violations == ()
        assert report.pairs_checked == 21
        assert report.last_level == 5


def test_dual_formulas_agree_random():
    rng = random.Random(61)
    for _ in range(40):
        f = random_filtration(rng)
        for n in range(3):
            for j in range(len(f)):
                for p in range(j, len(f)):
                    assert persistent_betti(f, n, j, p) == (
                        persistent_betti_simplified(f, n, j, p)
                    )


def test_dual_forms_can_disagree(diabolo_filtration, monkeypatch):
    # a wrong push-forward in the matrix form must show against the
    # by-simplex form; swapping the first and last rows keeps the
    # inclusion injective
    original = Filtration.inclusion_matrix

    def swapped(self, n, j, p):
        inc = original(self, n, j, p)
        if inc.rows < 2:
            return inc
        rows = list(inc.row_bits)
        rows[0], rows[-1] = rows[-1], rows[0]
        return Gf2Matrix(inc.rows, inc.cols, tuple(rows))

    monkeypatch.setattr(Filtration, "inclusion_matrix", swapped)
    f = diabolo_filtration
    assert any(
        persistent_betti(f, n, j, p) != persistent_betti_simplified(f, n, j, p)
        for n in range(3)
        for j in range(len(f))
        for p in range(j, len(f))
    )


def test_monotonicity_random():
    # classes alive at p can only disappear as p grows, and relaxing
    # the birth bound j can only admit more of them
    rng = random.Random(67)
    for _ in range(30):
        f = random_filtration(rng)
        for n in range(3):
            table = betti_table(f, n)
            for j in range(len(f)):
                for p in range(j, len(f) - 1):
                    assert table[(j, p)] >= table[(j, p + 1)]
            for p in range(len(f)):
                for j in range(p):
                    assert table[(j, p)] <= table[(j + 1, p)]


def test_interval_counts_conserve_births():
    # everything born at j either dies at some finite p or never does
    rng = random.Random(71)
    for _ in range(25):
        f = random_filtration(rng)
        for n in range(3):
            table = betti_table(f, n)
            for j in range(len(f)):
                born = table[(j, j)] - (table[(j - 1, j)] if j else 0)
                ended = sum(mu(f, n, j, p) for p in range(j + 1, len(f)))
                assert born == ended + mu_infinity(f, n, j)


def test_lemma_check_keeps_no_grid_of_level_pairs():
    # the check walks the rows of beta holding two of them and one running
    # row of bars, so its memory grows with m, not with the (m+1)^2 pairs
    # (three grids of the pairs take 3.1 MB here)
    f = random_filtration_document(150, 150, seed=5).to_filtration()
    for d in range(4):
        f._birth_columns(d)
    tracemalloc.start()
    try:
        reports = [check_fundamental_lemma(f, n) for n in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.m == 149 and all(report.ok for report in reports)
    assert peak <= 1 << 20


def test_fundamental_lemma_random():
    rng = random.Random(73)
    for _ in range(30):
        f = random_filtration(rng)
        for n in range(3):
            report = check_fundamental_lemma(f, n)
            assert report.ok, [str(v) for v in report.violations]


def test_barcode_spanning_equals_pbetti_random():
    rng = random.Random(79)
    for _ in range(25):
        f = random_filtration(rng)
        for n in range(3):
            bars, table = barcode(f, n), betti_table(f, n)
            for k in range(len(f)):
                for l in range(k, len(f)):
                    assert bars.betti_at(k, l) == table[(k, l)]


def test_barcode_multiplicities_match_mu_random():
    rng = random.Random(83)
    for _ in range(20):
        f = random_filtration(rng)
        for n in range(3):
            by_interval = {
                (p.birth, p.death): p.multiplicity for p in barcode(f, n).pairs
            }
            table, m = betti_table(f, n), f.m
            for j in range(len(f)):
                for p in range(j + 1, len(f)):
                    assert by_interval.get((j, p), 0) == _grid_mu(table, m, j, p)
                assert by_interval.get((j, INFINITE_DEATH), 0) == _grid_mu(table, m, j, m + 1)


def test_barcode_is_dataclass_value():
    a = Barcode(0, (PersistencePair(0, math.inf, 1),))
    b = Barcode(0, (PersistencePair(0, math.inf, 1),))
    assert a == b
    assert a.total_bars() == 1


def _assert_barcode_matches_rank_grid(f, n):
    """The reduction's barcode against the paper's rank formulas."""
    bars = barcode(f, n)
    table, m = betti_table(f, n), len(f) - 1
    assert {(j, p): bars.betti_at(j, p) for (j, p) in table} == table
    expected = {
        (j, p): _grid_mu(table, m, j, p) for j in range(len(f)) for p in range(j + 1, len(f))
    }
    expected.update({(j, INFINITE_DEATH): _grid_mu(table, m, j, m + 1) for j in range(len(f))})
    by_interval = {(p.birth, p.death): p.multiplicity for p in bars.pairs}
    assert by_interval == {key: count for key, count in expected.items() if count}


def test_reduction_matches_rank_grid():
    rng = random.Random(89)
    generated = [
        random_filtration_document(5 + seed, 1 + seed % 6, seed=seed).to_filtration()
        for seed in range(30)
    ]
    drawn = [random_filtration(rng, levels=rng.randint(1, 5)) for _ in range(20)]
    for f in generated + drawn:
        for n in range(3):
            _assert_barcode_matches_rank_grid(f, n)


@st.composite
def small_filtrations(draw):
    levels = draw(st.integers(1, 4))
    facet = st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True)
    drawn = draw(st.lists(st.tuples(facet, st.integers(0, levels - 1)), max_size=6))
    return Filtration.from_level_facets(
        [[Simplex(tuple(v)) for v, at in drawn if at <= j] for j in range(levels)]
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_filtrations())
def test_reduction_matches_oracle(f):
    for n in range(3):
        # the reduction, the rank grid and the matrix form on one draw
        bars, table = barcode(f, n), betti_table(f, n)
        for j in range(len(f)):
            for p in range(j, len(f)):
                expected = oracle_persistent_betti(f, n, j, p)
                assert table[(j, p)] == expected
                assert persistent_betti_simplified(f, n, j, p) == expected
                assert bars.betti_at(j, p) == expected


def test_barcode_of_empty_filtration():
    f = Filtration([SimplicialComplex(()), SimplicialComplex(())])
    for n in range(2):
        assert barcode(f, n) == Barcode(n, ())
        _assert_barcode_matches_rank_grid(f, n)


def test_cycle_born_and_filled_in_one_level_has_no_bar():
    f = Filtration.from_level_facets([[Simplex((0,))], [Simplex((0, 1, 2))]])
    assert barcode(f, 0).pairs == (PersistencePair(0, INFINITE_DEATH, 1),)
    assert barcode(f, 1).pairs == ()
    assert barcode(f, 2).pairs == ()
    for n in range(3):
        _assert_barcode_matches_rank_grid(f, n)


def test_barcode_above_top_dimension(diabolo_filtration):
    assert diabolo_filtration.dim == 2
    for n in (3, 7):
        assert barcode(diabolo_filtration, n) == Barcode(n, ())
    with pytest.raises(ValueError, match="dimension must be >= 0"):
        barcode(diabolo_filtration, -1)


def test_queries_above_the_top_dimension_answer_0_and_keep_nothing(monkeypatch):
    # no n-cell lives above the top dimension, so every beta, multiplicity
    # and bar there is 0; 1,000 such dimensions, asked of a fresh
    # filtration and of one warm in every dimension, keep nothing, and
    # no query there builds a row of beta, even to read a 0 off it
    f = random_filtration_document(40, 6, seed=3).to_filtration()
    m, top = f.m, f.dim
    built = _record(monkeypatch, ("_bar_row", "_beta", "_pivots"))
    for warm in (False, True):
        if warm:
            for n in range(top + 1):
                persistent_betti(f, n, 0, m), mu(f, n, 0, m), mu_infinity(f, n, m)
                barcode(f, n)
        kept = kept_state(f)
        built.clear()
        for n in range(top + 1, top + 1001):
            assert persistent_betti(f, n, 0, m) == persistent_betti(f, n, m, m) == 0, n
            assert mu(f, n, 0, m) == mu(f, n, m - 1, m) == mu_infinity(f, n, 0) == 0, n
            assert barcode(f, n) == Barcode(n, ()), n
        assert set(betti_table(f, top + 1).values()) == {0}
        assert (kept_state(f), built) == (kept, [])


def test_lemma_check_catches_a_wrong_rank_grid(diabolo_filtration, monkeypatch):
    # the barcode side comes from the reduction, so one wrong table entry
    # must show up as a barcode-span violation
    perturb_rank_rows(monkeypatch, {(3, 4): 1})
    report = check_fundamental_lemma(diabolo_filtration, 1)
    assert [v for v in report.violations if v.kind == "barcode-span"] == [
        LemmaViolation("barcode-span", 3, 4, 3, 2)
    ]


def test_a_lemma_violation_reads_as_its_kind_point_and_counts():
    violation = LemmaViolation("barcode-span", 3, 4, 3, 2)
    assert str(violation) == "barcode-span at (k=3, l=4): expected 3, got 2"


def test_lemma_check_orders_finite_negative_counts_before_never_dying(
    diabolo_filtration, monkeypatch
):
    # mu(0, 5) dies at the last level, so it is finite and comes before
    # mu(3, 4), and both before the never-dying count at birth 1
    perturb_rank_rows(monkeypatch, {(0, 5): 1, (3, 3): -1})
    report = check_fundamental_lemma(diabolo_filtration, 1)
    negative = [(v.k, v.l) for v in report.violations if v.kind == "negative-count"]
    assert negative == [(0, 5), (3, 4), (1, 6)]


def test_loading_and_barcodes_build_no_level(monkeypatch):
    # births are read from the filtration's table, never from a level
    text = random_filtration_document(60, 6, seed=1).serialize()
    built = []
    monkeypatch.setattr(SimplicialComplex, "__init__", lambda self, s: built.append(s))
    f = parse_filtration(text).to_filtration()
    bars = [barcode(f, n) for n in range(f.dim + 1)]
    assert not built
    assert bars[0].total_bars() > 0
