"""Brute-force enumeration oracle and differential tests against it."""

from __future__ import annotations

import random

import pytest

from phcalc import (
    ChainSet,
    EnumerationLimitError,
    Simplex,
    SimplicialComplex,
    closure_of_facets,
    enumerate_image,
    enumerate_kernel,
    oracle_betti,
    oracle_persistent_betti,
    persistent_betti,
)
from phcalc.gf2 import Gf2Matrix

from .support import matrix_from_lists, random_complex, random_filtration, random_lists


def test_chainset_validation():
    good = ChainSet(2, (0, 1, 2, 3))
    assert good.dimension == 2
    assert len(good) == 4
    assert 3 in good and 4 not in good
    with pytest.raises(ValueError):
        ChainSet(2, (1, 2))  # no zero
    with pytest.raises(ValueError):
        ChainSet(2, (0, 1, 2))  # not a power of two
    with pytest.raises(ValueError):
        ChainSet(2, (0, 2, 1, 3))  # not sorted
    with pytest.raises(ValueError):
        ChainSet(1, (0, 2))  # stray bit


def test_chainset_set_operations():
    a = ChainSet(3, (0, 1, 2, 3))
    b = ChainSet(3, (0, 2, 4, 6))
    meet = a.intersect(b)
    assert meet.members == (0, 2)
    assert meet.dimension == 1
    assert meet.is_subset_of(a) and meet.is_subset_of(b)
    assert not a.is_subset_of(b)
    with pytest.raises(ValueError):
        a.intersect(ChainSet(2, (0,)))
    assert a.is_xor_closed()
    assert not ChainSet(3, (0, 1, 2, 4)).is_xor_closed()


def test_a_chainset_is_no_subset_across_ambient_dimensions():
    # the same members, in spaces of different dimension
    assert not ChainSet(2, (0, 1)).is_subset_of(ChainSet(3, (0, 1)))
    assert ChainSet(3, (0, 1)).is_subset_of(ChainSet(3, (0, 1)))


def _span(vectors: list[int]) -> set[int]:
    span = {0}
    for vec in vectors:
        span |= {s ^ vec for s in span}
    return span


def test_meet_and_subset_are_set_intersection_and_inclusion():
    rng = random.Random(107)
    for _ in range(300):
        dim = rng.randint(1, 8)
        gens = [rng.randrange(1 << dim) for _ in range(rng.randint(0, dim))]
        # b shares some of a's generators, so meets and inclusions are not all trivial
        shared = [g for g in gens if rng.random() < 0.5]
        more = [rng.randrange(1 << dim) for _ in range(rng.randint(0, dim))]
        a_set, b_set = _span(gens), _span(shared + more)
        a = ChainSet(dim, tuple(sorted(a_set)))
        b = ChainSet(dim, tuple(sorted(b_set)))
        assert set(a.intersect(b).members) == a_set & b_set
        assert a.is_subset_of(b) == (a_set <= b_set)
        assert b.is_subset_of(a) == (b_set <= a_set)
        # the zero space of another ambient dimension: a subset as sets, not as spaces
        other = rng.choice([d for d in range(1, 10) if d != dim])
        zero = ChainSet(other, (0,))
        for x, y in ((a, zero), (zero, a)):
            with pytest.raises(ValueError) as excinfo:
                x.intersect(y)
            assert str(excinfo.value) == (
                f"ambient dimensions differ: {x.ambient_dim} vs {y.ambient_dim}"
            )
            assert not x.is_subset_of(y)


def test_enumerate_kernel_examples():
    assert enumerate_kernel(Gf2Matrix.identity(3)).members == (0,)
    full = enumerate_kernel(Gf2Matrix.zero(2, 3))
    assert full.members == tuple(range(8))
    assert full.dimension == 3


def test_enumerate_image_examples():
    assert enumerate_image(Gf2Matrix.zero(4, 3)).members == (0,)
    assert enumerate_image(Gf2Matrix.identity(2)).members == (0, 1, 2, 3)


def test_diabolo_kernel_and_image(diabolo):
    d1 = diabolo.boundary_matrix(1)
    cycles = enumerate_kernel(d1)
    assert len(cycles) == 4
    assert cycles.dimension == 2
    d2 = diabolo.boundary_matrix(2)
    boundaries = enumerate_image(d2)
    assert len(boundaries) == 2
    # the only nonzero boundary is the triangle outline (0,1)+(0,2)+(1,2)
    edges = diabolo.n_simplices(1)
    outline = sum(
        1 << edges.index(Simplex(e)) for e in ((0, 1), (0, 2), (1, 2))
    )
    assert boundaries.members == (0, outline)
    assert boundaries.is_subset_of(cycles)


def test_kernel_size_matches_rank():
    rng = random.Random(89)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(0, 10)
        m = matrix_from_lists(random_lists(rng, rows, cols), cols=cols)
        kernel = enumerate_kernel(m)
        assert len(kernel) == 1 << (cols - m.rank())
        assert kernel.is_xor_closed()


def test_kernel_agrees_with_kernel_basis():
    rng = random.Random(97)
    for _ in range(25):
        cols = rng.randint(1, 8)
        m = matrix_from_lists(random_lists(rng, rng.randint(1, 5), cols), cols=cols)
        listed = enumerate_kernel(m)
        span = {0}
        for vec in m.kernel_basis().column_bits():
            span |= {s ^ vec for s in span}
        assert set(listed.members) == span


def test_enumeration_limit():
    wide = Gf2Matrix.zero(1, 21)
    with pytest.raises(EnumerationLimitError) as excinfo:
        enumerate_kernel(wide)
    assert excinfo.value.cols == 21
    assert "2**20" in str(excinfo.value)
    with pytest.raises(EnumerationLimitError):
        enumerate_image(wide)


def test_enumeration_limit_env_override(monkeypatch):
    # the cap is read when a call checks it, so a lowered cap holds at once
    monkeypatch.setattr("phcalc.oracle.ENUMERATION_LIMIT_BITS", 4)
    with pytest.raises(EnumerationLimitError):
        enumerate_kernel(Gf2Matrix.zero(1, 5))
    assert enumerate_kernel(Gf2Matrix.zero(1, 4)).dimension == 4


def test_oracle_betti_examples(diabolo):
    assert oracle_betti(diabolo, 0) == 1
    assert oracle_betti(diabolo, 1) == 1
    point = closure_of_facets([Simplex((0,))])
    assert oracle_betti(point, 0) == 1
    two = closure_of_facets([Simplex((0, 1, 2)), Simplex((3, 4, 5))])
    assert oracle_betti(two, 0) == 2


def test_oracle_betti_refuses_boundaries_that_are_not_cycles(monkeypatch):
    # the filled triangle's boundary D_2 made to send it to one edge, no cycle
    original = SimplicialComplex.boundary_matrix

    def broken(self, n):
        return matrix_from_lists([[1], [0], [0]]) if n == 2 else original(self, n)

    monkeypatch.setattr(SimplicialComplex, "boundary_matrix", broken)
    triangle = closure_of_facets([Simplex((0, 1, 2))])
    with pytest.raises(ValueError, match="^boundaries of degree 1 are not all cycles; "):
        oracle_betti(triangle, 1)


def test_oracle_betti_differential():
    rng = random.Random(101)
    for _ in range(40):
        c = random_complex(rng, vertices=7, count=4, max_size=4)
        for n in range(3):
            assert oracle_betti(c, n) == c.betti(n)


def test_oracle_persistent_betti_examples(diabolo_filtration):
    f = diabolo_filtration
    assert oracle_persistent_betti(f, 0, 0, 4) == 1
    assert oracle_persistent_betti(f, 1, 3, 5) == 1
    for n in (0, 1):
        for j in range(6):
            assert oracle_persistent_betti(f, n, j, j) == f[j].betti(n)


def test_oracle_persistent_betti_differential():
    rng = random.Random(103)
    for _ in range(30):
        f = random_filtration(rng, vertices=6, count=3, max_size=3)
        for n in range(3):
            for j in range(len(f)):
                for p in range(j, len(f)):
                    assert oracle_persistent_betti(f, n, j, p) == (
                        persistent_betti(f, n, j, p)
                    )
