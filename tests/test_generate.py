"""Random filtration generator: determinism, validity, parameters."""

from __future__ import annotations

import pytest

from phcalc.generate import default_vertices, random_filtration_document


def test_default_vertices():
    assert default_vertices(1) == 3
    assert default_vertices(4) == 6
    assert default_vertices(5) == 9
    assert default_vertices(10) == 12
    assert default_vertices(100) == 30
    with pytest.raises(ValueError):
        default_vertices(0)


def test_same_seed_same_document():
    a = random_filtration_document(10, 5, seed=42)
    b = random_filtration_document(10, 5, seed=42)
    assert a == b
    assert a.serialize() == b.serialize()
    c = random_filtration_document(10, 5, seed=43)
    assert a != c


def test_header_records_parameters():
    doc = random_filtration_document(10, 5, seed=42)
    assert doc.name == "random triangles=10 levels=5 vertices=12 seed=42"
    explicit = random_filtration_document(10, 5, vertices=20, seed=42)
    assert "vertices=20" in explicit.name


def test_levels_are_cumulative_and_valid():
    doc = random_filtration_document(8, 4, seed=7)
    assert len(doc.levels) == 4
    for earlier, later in zip(doc.levels, doc.levels[1:]):
        assert set(earlier) <= set(later)
    f = doc.to_filtration()  # validation happens here
    assert f.m == 3
    # all drawn facets are triangles
    assert all(len(facet) == 3 for facet in doc.levels[-1])


def test_vertices_within_budget():
    doc = random_filtration_document(20, 3, vertices=9, seed=1)
    used = {v for facet in doc.levels[-1] for v in facet}
    assert used <= set(range(9))


def test_single_forced_outcome():
    doc = random_filtration_document(1, 1, vertices=3, seed=0)
    assert doc.levels == (((doc.levels[0][0]),),)
    assert doc.levels[0][0] == (0, 1, 2)
    f = doc.to_filtration()
    assert f[0].betti(0) == 1 and len(f[0]) == 7


def test_argument_validation():
    with pytest.raises(ValueError):
        random_filtration_document(0, 1)
    with pytest.raises(ValueError):
        random_filtration_document(1, 0)
    with pytest.raises(ValueError):
        random_filtration_document(1, 1, vertices=2)
