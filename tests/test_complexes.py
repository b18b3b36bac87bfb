"""Simplices, face closure, boundary matrices, Betti numbers."""

from __future__ import annotations

import random

import pytest

from phcalc import Filtration, Simplex, SimplicialComplex, closure_of_facets, is_complex
from phcalc.complexes import _missing_face

from .support import component_count, naive_missing_face, random_complex, random_facets


def test_simplex_canonical_form():
    s = Simplex((2, 0, 1))
    assert s.vertices == (0, 1, 2)
    assert s.dim == 2
    assert len(s) == 3
    assert str(s) == "(0,1,2)"
    assert Simplex((2, 0, 1)) == Simplex((0, 1, 2))


def test_simplex_rejects_bad_vertices():
    with pytest.raises(ValueError):
        Simplex(())
    with pytest.raises(ValueError):
        Simplex((0, 0))
    with pytest.raises(ValueError):
        Simplex((-1, 2))
    with pytest.raises(ValueError):
        Simplex((True, 2))
    for mixed in ((1, "a"), ("a", 1)):
        with pytest.raises(ValueError, match="vertex 'a' is not a non-negative integer"):
            Simplex(mixed)


def test_faces():
    s = Simplex((0, 1, 2))
    assert s.face(0) == Simplex((1, 2))
    assert s.face(2) == Simplex((0, 1))
    assert set(s.faces()) == {Simplex((1, 2)), Simplex((0, 2)), Simplex((0, 1))}
    with pytest.raises(ValueError):
        Simplex((3,)).face(0)
    with pytest.raises(IndexError):
        s.face(3)


def test_is_complex():
    closed = closure_of_facets([Simplex((0, 1))]).simplices
    assert is_complex(closed)
    assert not is_complex((Simplex((0, 1)),))
    assert is_complex(())


def test_missing_face_matches_a_full_subset_scan():
    # the witness too: the quick codimension-1 check must not change which one
    rng = random.Random(44)
    found = 0
    for _ in range(40):
        closed = random_complex(rng, vertices=7, count=4, max_size=5).simplices
        members = sorted(closed, key=lambda s: s.vertices)
        vertex = rng.choice([s for s in members if len(s.vertices) == 1])
        assert _missing_face(closed) is None is naive_missing_face(closed)
        for simplices in (closed - {vertex}, closed - set(rng.sample(members, 3))):
            want = naive_missing_face(simplices)
            assert _missing_face(simplices) == want
            found += want is not None
    assert found > 40


def test_complex_requires_closure():
    with pytest.raises(ValueError, match=r"missing face \(0\)"):
        SimplicialComplex((Simplex((0, 1, 2)),))


def test_closure_of_facets():
    c = closure_of_facets([Simplex((0, 1, 2))])
    assert len(c) == 7
    assert Simplex((0, 2)) in c
    assert Simplex((3,)) not in c
    # duplicates and faces of other facets are absorbed
    again = closure_of_facets([Simplex((0, 1, 2)), Simplex((0, 1)), Simplex((0, 1, 2))])
    assert again == c


def test_simplices_ordered_by_dim_then_lex(diabolo):
    listed = list(diabolo)
    assert listed == sorted(listed, key=lambda s: (s.dim, s.vertices))
    assert [s.vertices for s in diabolo.n_simplices(1)] == [
        (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5),
    ]


def test_n_simplices_bounds(diabolo):
    assert diabolo.n_simplices(5) == ()
    with pytest.raises(ValueError):
        diabolo.n_simplices(-1)


def test_boundary_matrix_shapes(diabolo):
    d0 = diabolo.boundary_matrix(0)
    assert (d0.rows, d0.cols) == (0, 6)
    d1 = diabolo.boundary_matrix(1)
    assert (d1.rows, d1.cols) == (6, 7)
    d2 = diabolo.boundary_matrix(2)
    assert (d2.rows, d2.cols) == (7, 1)
    d3 = diabolo.boundary_matrix(3)
    assert (d3.rows, d3.cols) == (1, 0)


def test_boundary_entries_are_face_incidences(diabolo):
    d2 = diabolo.boundary_matrix(2)
    edges = diabolo.n_simplices(1)
    triangle = diabolo.n_simplices(2)[0]
    expected_rows = {edges.index(face) for face in triangle.faces()}
    assert {i for i in range(d2.rows) if d2[i, 0]} == expected_rows


def test_diabolo_betti(diabolo):
    assert diabolo.betti(0) == 1
    assert diabolo.betti(1) == 1
    assert diabolo.betti(2) == 0
    assert diabolo.betti(7) == 0


def test_empty_and_point_complexes():
    empty = SimplicialComplex(())
    assert empty.betti(0) == 0
    assert empty.dim == -1
    point = closure_of_facets([Simplex((0,))])
    assert point.betti(0) == 1
    assert point.betti(1) == 0


def test_two_disjoint_triangles():
    c = closure_of_facets([Simplex((0, 1, 2)), Simplex((3, 4, 5))])
    assert c.betti(0) == 2
    assert c.betti(1) == 0


def test_nilpotency_random():
    rng = random.Random(31)
    for _ in range(60):
        c = random_complex(rng, vertices=9, count=6, max_size=5)
        for n in range(4):
            assert (c.boundary_matrix(n) @ c.boundary_matrix(n + 1)).is_zero()


def test_boundary_matrix_columns_match_the_column_builder():
    # boundary_matrix builds rows (cofaces), and the rank side's
    # Filtration._birth_columns columns (faces); a one-level filtration
    # orders its cells as the complex does, lexicographically
    rng = random.Random(41)
    for _ in range(60):
        c = random_complex(rng, vertices=9, count=6, max_size=5)
        f = Filtration([c.simplices])
        for n in range(c.dim + 2):
            assert c.boundary_matrix(n).column_bits() == f._birth_columns(n)[1]


def test_betti0_against_union_find():
    rng = random.Random(37)
    for _ in range(60):
        c = random_complex(rng, vertices=10, count=5, max_size=3)
        assert c.betti(0) == component_count(c)


def test_euler_characteristic():
    # alternating sums of face counts and of Betti numbers agree
    rng = random.Random(41)
    for _ in range(40):
        c = random_complex(rng, vertices=8, count=5, max_size=5)
        by_faces = sum(
            (-1) ** n * len(c.n_simplices(n)) for n in range(c.dim + 1)
        )
        by_betti = sum((-1) ** n * c.betti(n) for n in range(c.dim + 1))
        assert by_faces == by_betti


def test_subcomplex_relation(diabolo):
    sub = closure_of_facets([Simplex((2, 3)), Simplex((3, 4))])
    assert sub.is_subcomplex_of(diabolo)
    assert not diabolo.is_subcomplex_of(sub)


def test_equality_and_hash():
    a = closure_of_facets([Simplex((0, 1))])
    b = closure_of_facets([Simplex((0, 1)), Simplex((1,))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != closure_of_facets([Simplex((0, 2))])


def test_a_complex_equals_no_other_type_and_reads_as_its_size():
    c = closure_of_facets([Simplex((0, 1, 2))])
    assert c != c.simplices
    assert c.__eq__(c.simplices) is NotImplemented
    assert repr(c) == "SimplicialComplex(7 simplices, dim 2)"
    assert repr(SimplicialComplex([])) == "SimplicialComplex(0 simplices, dim -1)"


def test_closure_matches_powerset():
    rng = random.Random(43)
    for _ in range(25):
        facets = random_facets(rng, vertices=7, count=4, max_size=4)
        c = closure_of_facets(facets)
        for s in c.simplices:
            assert any(set(s.vertices) <= set(f.vertices) for f in facets)
        for f in facets:
            assert f in c
