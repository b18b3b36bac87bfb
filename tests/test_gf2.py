"""Bit-packed GF(2) matrices against naive references."""

from __future__ import annotations

import itertools
import random

import pytest

from phcalc.generate import random_filtration_document
from phcalc.gf2 import Gf2Matrix

from .support import matrix_from_lists, naive_rank, random_lists, rref_kernel_basis


def test_zero_and_identity():
    z = Gf2Matrix.zero(2, 3)
    assert (z.rows, z.cols) == (2, 3)
    assert z.is_zero()
    assert z.rank() == 0
    eye = Gf2Matrix.identity(4)
    assert eye.rank() == 4
    assert all(eye[i, j] == (i == j) for i in range(4) for j in range(4))


def test_from_rows_infers_and_validates():
    m = matrix_from_lists([[1, 0, 1], [0, 1, 1]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.to_rows() == [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows([[2, 0]])
    assert Gf2Matrix.from_rows([], cols=5).rows == 0


def test_from_rows_needs_cols_without_rows_and_the_row_length_with_them():
    with pytest.raises(ValueError, match="^cols is required for a matrix with no rows$"):
        Gf2Matrix.from_rows([])
    with pytest.raises(ValueError, match="^cols=2 does not match row length 3$"):
        Gf2Matrix.from_rows([[1, 0, 1]], cols=2)
    assert Gf2Matrix.from_rows([[1, 0, 1]], cols=3) == Gf2Matrix.from_rows([[1, 0, 1]])


def test_construction_rejects_stray_bits():
    with pytest.raises(ValueError):
        Gf2Matrix(1, 2, (0b100,))
    with pytest.raises(ValueError):
        Gf2Matrix(2, 2, (0b01,))
    with pytest.raises(ValueError):
        Gf2Matrix(-1, 2, ())


def test_getitem_bounds():
    m = Gf2Matrix.identity(2)
    assert m[1, 1] == 1
    with pytest.raises(IndexError):
        m[2, 0]
    with pytest.raises(IndexError):
        m[0, -1]


def test_multiply_against_naive():
    rng = random.Random(7)
    for _ in range(60):
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a_rows = random_lists(rng, r, k)
        b_rows = random_lists(rng, k, c)
        product = matrix_from_lists(a_rows, cols=k) @ matrix_from_lists(b_rows, cols=c)
        expected = [
            [sum(a_rows[i][t] * b_rows[t][j] for t in range(k)) % 2 for j in range(c)]
            for i in range(r)
        ]
        assert product.to_rows() == expected


def test_multiply_shape_mismatch():
    with pytest.raises(ValueError):
        Gf2Matrix.zero(2, 3) @ Gf2Matrix.zero(2, 3)


def test_identity_is_neutral():
    rng = random.Random(11)
    m = matrix_from_lists(random_lists(rng, 4, 6), cols=6)
    assert Gf2Matrix.identity(4) @ m == m
    assert m @ Gf2Matrix.identity(6) == m


def test_multiply_associative():
    rng = random.Random(13)
    for _ in range(20):
        a = matrix_from_lists(random_lists(rng, 3, 4), cols=4)
        b = matrix_from_lists(random_lists(rng, 4, 5), cols=5)
        c = matrix_from_lists(random_lists(rng, 5, 2), cols=2)
        assert (a @ b) @ c == a @ (b @ c)


def test_hstack_layout():
    a = matrix_from_lists([[1, 0], [0, 1]])
    b = matrix_from_lists([[1, 1, 0], [0, 1, 1]])
    stacked = a.hstack(b)
    assert (stacked.rows, stacked.cols) == (2, 5)
    assert stacked.to_rows() == [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]]
    with pytest.raises(ValueError):
        a.hstack(Gf2Matrix.zero(3, 1))


def test_rank_exhaustive_small():
    for rows, cols in itertools.product(range(4), repeat=2):
        for packed in range(1 << (rows * cols)):
            entries = [
                [(packed >> (i * cols + j)) & 1 for j in range(cols)]
                for i in range(rows)
            ]
            assert matrix_from_lists(entries, cols=cols).rank() == naive_rank(entries)


def test_rank_randomized():
    rng = random.Random(17)
    for _ in range(40):
        rows, cols = rng.randint(1, 24), rng.randint(1, 24)
        entries = random_lists(rng, rows, cols)
        assert matrix_from_lists(entries, cols=cols).rank() == naive_rank(entries)


def test_rank_invariants():
    rng = random.Random(19)
    for _ in range(25):
        m = matrix_from_lists(random_lists(rng, 5, 7), cols=7)
        assert m.rank() == m.hstack(m).rank()
        assert m.rank() <= min(m.rows, m.cols)


def test_kernel_basis_properties():
    rng = random.Random(23)
    for _ in range(50):
        rows, cols = rng.randint(0, 6), rng.randint(0, 8)
        m = matrix_from_lists(random_lists(rng, rows, cols), cols=cols)
        kernel = m.kernel_basis()
        assert kernel.rows == cols
        assert kernel.cols == cols - m.rank()
        assert (m @ kernel).is_zero()
        assert kernel.rank() == kernel.cols


def test_kernel_of_identity_and_zero():
    assert Gf2Matrix.identity(5).kernel_basis().cols == 0
    kernel = Gf2Matrix.zero(3, 4).kernel_basis()
    assert kernel.cols == 4
    assert kernel == Gf2Matrix.identity(4)


def test_kernel_basis_matches_rref_on_boundary_matrices():
    # every level's D_0..D_{dim+1} of seeded gen inputs
    checked = 0
    for seed in range(20):
        f = random_filtration_document(40, 5, seed=seed).to_filtration()
        for level in f:
            for n in range(f.dim + 2):
                d = level.boundary_matrix(n)
                assert d.kernel_basis() == rref_kernel_basis(d)
                checked += 1
    assert checked == 20 * 5 * 4


def test_kernel_basis_matches_rref_on_random_matrices():
    rng = random.Random(31)
    shapes = [(0, 0), (0, 5), (5, 0), (6, 6), (4, 9), (9, 4)]
    shapes += [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(200)]
    for rows, cols in shapes:
        m = matrix_from_lists(random_lists(rng, rows, cols), cols=cols)
        assert m.kernel_basis() == rref_kernel_basis(m)
    # full rank: square, wide and tall, made from the identity
    for k in range(1, 8):
        eye = Gf2Matrix.identity(k)
        extra = matrix_from_lists(random_lists(rng, k, 3), cols=3)
        wide = eye.hstack(extra)
        below = tuple(rng.randrange(1 << k) for _ in range(3))
        tall = Gf2Matrix(k + 3, k, eye.row_bits + below)
        for m in (eye, wide, tall):
            assert m.kernel_basis() == rref_kernel_basis(m)
        assert wide.kernel_basis().cols == 3
        assert tall.kernel_basis().cols == 0


def test_kernel_members_are_exactly_the_kernel():
    # brute-force cross-check: span of the basis equals the solution set
    rng = random.Random(29)
    for _ in range(20):
        cols = rng.randint(1, 6)
        m = matrix_from_lists(random_lists(rng, rng.randint(1, 5), cols), cols=cols)
        kernel = m.kernel_basis()
        basis_cols = kernel.column_bits()
        span = {0}
        for vec in basis_cols:
            span |= {s ^ vec for s in span}
        columns = m.column_bits()
        truth = set()
        for v in range(1 << cols):
            image = 0
            for j in range(cols):
                if (v >> j) & 1:
                    image ^= columns[j]
            if image == 0:
                truth.add(v)
        assert span == truth


def test_str_rendering():
    m = matrix_from_lists([[1, 1, 0], [0, 0, 1]])
    assert str(m) == "110\n001"


def test_str_rendering_of_empty_and_random_shapes():
    assert str(Gf2Matrix.zero(0, 4)) == ""
    assert str(Gf2Matrix.zero(3, 0)) == "\n\n"  # three empty rows
    rng = random.Random(109)
    for _ in range(50):
        rows, cols = rng.randint(1, 6), rng.randint(1, 9)
        lists = random_lists(rng, rows, cols)
        text = "\n".join("".join("01"[x] for x in row) for row in lists)
        assert str(matrix_from_lists(lists, cols=cols)) == text
