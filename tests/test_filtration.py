"""Filtration validation, level access, inclusion matrices."""

from __future__ import annotations

import random

import pytest

from phcalc import (
    Filtration,
    FiltrationError,
    Simplex,
    SimplicialComplex,
    closure_of_facets,
    validate,
)
from phcalc.generate import random_filtration_document

from .support import naive_nesting_violation, random_filtration, random_level_facets


def _closures(*facet_lists):
    return [closure_of_facets([Simplex(f) for f in facets]) for facets in facet_lists]


def test_validate_accepts_nested():
    levels = _closures([(0, 1)], [(0, 1), (1, 2)])
    assert validate(levels) is None


class _RawLevel:
    """Stand-in level that skips the complex constructor's own check."""

    def __init__(self, simplices):
        self.simplices = frozenset(simplices)


def test_validate_flags_non_complex():
    violation = validate([_RawLevel([Simplex((0, 1))])])
    assert violation is not None
    assert violation.kind == "not-a-complex"
    assert violation.level == 0
    assert violation.simplex in (Simplex((0,)), Simplex((1,)))
    assert "not face-closed" in str(violation)


def test_validate_flags_non_nested():
    levels = _closures([(0, 1)], [(2, 3)])
    violation = validate(levels)
    assert violation is not None
    assert violation.kind == "not-nested"
    assert violation.level == 1
    assert violation.simplex == Simplex((0,))
    assert "level 1" in str(violation)


def test_constructor_raises_on_bad_input():
    levels = _closures([(0, 1)], [(2, 3)])
    with pytest.raises(FiltrationError) as excinfo:
        Filtration(levels)
    assert excinfo.value.violation.kind == "not-nested"


def test_from_level_facets_builds_closures(diabolo_filtration):
    assert diabolo_filtration.m == 5
    assert len(diabolo_filtration) == 6
    assert diabolo_filtration[0].betti(0) == 3
    assert diabolo_filtration.dim == 2
    assert diabolo_filtration[5] == closure_of_facets(
        [Simplex(f) for f in ((0, 1, 2), (2, 3), (3, 4), (3, 5), (4, 5))]
    )


def test_empty_levels_allowed():
    f = Filtration.from_level_facets([[], [Simplex((0, 1))]])
    assert f[0].betti(0) == 0
    assert f[1].betti(0) == 1


def test_at_least_one_level_required():
    with pytest.raises(ValueError):
        Filtration([])


def test_check_level_pair(diabolo_filtration):
    diabolo_filtration.check_level_pair(0, 5)
    for j, p in ((3, 2), (-1, 0), (0, 6)):
        with pytest.raises(ValueError, match="0 <= j <= p <= 5"):
            diabolo_filtration.check_level_pair(j, p)


def test_inclusion_matrix_shape_and_content(diabolo_filtration):
    inc = diabolo_filtration.inclusion_matrix(0, 0, 2)
    assert (inc.rows, inc.cols) == (6, 3)
    # K^0 vertices (0),(1),(2) are the first three of K^2 in lex order
    assert inc.to_rows() == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0],
    ]


def test_inclusion_is_identity_at_equal_levels(diabolo_filtration):
    for n in range(3):
        inc = diabolo_filtration.inclusion_matrix(n, 2, 2)
        assert inc.rows == inc.cols
        assert inc.rank() == inc.rows


def test_inclusion_injective_random():
    rng = random.Random(47)
    for _ in range(40):
        f = random_filtration(rng)
        for n in range(3):
            for j in range(len(f)):
                for p in range(j, len(f)):
                    inc = f.inclusion_matrix(n, j, p)
                    assert inc.cols == len(f[j].n_simplices(n))
                    assert inc.rows == len(f[p].n_simplices(n))
                    assert inc.rank() == inc.cols


def test_inclusion_functorial():
    # composing j->p with p->q equals j->q
    rng = random.Random(53)
    for _ in range(25):
        f = random_filtration(rng, levels=4)
        for n in range(3):
            for j in range(len(f)):
                for p in range(j, len(f)):
                    for q in range(p, len(f)):
                        left = f.inclusion_matrix(n, p, q) @ f.inclusion_matrix(n, j, p)
                        assert left == f.inclusion_matrix(n, j, q)


def test_inclusion_commutes_with_boundary():
    # the chain-map square: D_n(K^p) . I_n = I_{n-1} . D_n(K^j)
    rng = random.Random(59)
    for _ in range(30):
        f = random_filtration(rng)
        for n in range(1, 4):
            for j in range(len(f)):
                for p in range(j, len(f)):
                    left = f[p].boundary_matrix(n) @ f.inclusion_matrix(n, j, p)
                    right = f.inclusion_matrix(n - 1, j, p) @ f[j].boundary_matrix(n)
                    assert left == right


def test_equality_and_iteration(diabolo_filtration):
    levels = list(diabolo_filtration)
    assert len(levels) == 6
    rebuilt = Filtration(levels)
    assert rebuilt == diabolo_filtration


def test_a_filtration_equals_no_other_type_and_reads_as_its_size(diabolo_filtration):
    assert diabolo_filtration != diabolo_filtration.levels
    assert diabolo_filtration.__eq__(diabolo_filtration.levels) is NotImplemented
    assert repr(diabolo_filtration) == "Filtration(6 levels, dim 2)"


def test_validate_of_no_levels():
    assert validate([]) is None


def _verdict(level_facets):
    try:
        Filtration([[Simplex(f) for f in facets] for facets in level_facets])
    except FiltrationError as exc:
        return exc.violation.level, exc.violation.simplex.vertices
    return None


def test_nesting_verdict_matches_per_level_closures():
    rng = random.Random(67)
    seen = {"nested": 0, "nested-in-closure-only": 0, "not-nested": 0}
    for _ in range(400):
        level_facets = random_level_facets(rng)
        expected = naive_nesting_violation(level_facets)
        assert _verdict(level_facets) == expected
        closures = [closure_of_facets([Simplex(f) for f in fs]) for fs in level_facets]
        violation = validate(closures)
        assert (violation and (violation.level, violation.simplex.vertices)) == expected
        verbatim = all(set(a) <= set(b) for a, b in zip(level_facets, level_facets[1:]))
        kind = "not-nested" if expected else "nested" if verbatim else "nested-in-closure-only"
        seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def test_nested_in_closure_only():
    vertices = [(0,), (1,), (2,)]
    edges = [(0, 1), (0, 2), (1, 2)]
    assert _verdict([vertices, edges, [(0, 1, 2)]]) is None
    assert _verdict([edges, vertices]) == (1, (0, 1))


@pytest.fixture
def built(monkeypatch):
    """The complexes constructed for the rest of the test."""
    complexes = []
    original = SimplicialComplex.__init__

    def counting(self, simplices):
        complexes.append(self)
        original(self, simplices)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    return complexes


def test_levels_are_built_on_first_use_and_kept(built):
    levels = [[(0,)], [(0, 1)], [(0, 1), (1, 2)]]
    f = Filtration.from_level_facets([[Simplex(v) for v in level] for level in levels])
    assert not built
    assert f.m == 2 and f.dim == 1
    assert not built
    level = f[1]
    assert built == [level]
    assert f[1] is level and f[-2] is level
    assert f.levels[1] is level
    assert len(built) == 3
    assert [len(k) for k in f] == [1, 3, 5]
    assert len(built) == 3
    with pytest.raises(IndexError):
        f[3]


def test_table_built_levels_equal_the_closures_of_their_facets():
    # levels are built from the birth table, not from their facets
    for seed in range(12):
        doc = random_filtration_document(2 + 5 * seed, 6, seed=seed)
        level_facets = [[Simplex(v) for v in level] for level in doc.levels]
        f = Filtration(level_facets)
        for level, facets in zip(f, level_facets):
            closure = closure_of_facets(facets)
            assert level == closure
            assert level.dim == closure.dim
            assert list(level) == list(closure)


def test_births_returns_a_new_list_on_each_call(diabolo_filtration):
    f = diabolo_filtration
    edges = [((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((3, 4), 3), ((3, 5), 3),
             ((4, 5), 3), ((2, 3), 4)]
    first = f.births(1)
    assert first == edges
    first.append(((9,), 0))
    first.reverse()
    assert f.births(1) == edges
    assert f.births(-1) == [] == f.births(3)


def test_kept_columns_hold_every_level_as_a_prefix():
    # each level's D_d is the submatrix of the kept columns born by it,
    # rows and columns relabelled from birth order to its own bases
    for seed in range(8):
        f = random_filtration_document(3 + 4 * seed, 5, seed=seed).to_filtration()
        for d in range(4):
            born, columns = f._birth_columns(d)
            cells, faces = f.births(d), f.births(d - 1)
            assert born == [b for _, b in cells]
            for j, level in enumerate(f):
                col_of = {s.vertices: k for k, s in enumerate(level.n_simplices(d))}
                rows = level.n_simplices(d - 1) if d else ()
                row_of = {s.vertices: r for r, s in enumerate(rows)}
                entries = {
                    (row_of[faces[r][0]], col_of[v])
                    for (v, b), col in zip(cells, columns) if b <= j
                    for r in range(col.bit_length()) if col >> r & 1
                }
                matrix = level.boundary_matrix(d)
                assert entries == {
                    (r, k) for r in range(matrix.rows) for k in range(matrix.cols)
                    if matrix[r, k]
                }
