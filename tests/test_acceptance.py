"""Acceptance gate: the guarantees this package ships under.

One test per criterion; each prints a single pass/fail line (visible
with pytest -s) and then asserts.  Expected values are exact; timing
budgets are generous on purpose and enforced as hard bounds.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from phcalc import (
    INFINITE_DEATH,
    Filtration,
    Simplex,
    barcode,
    betti_table,
    check_fundamental_lemma,
    closure_of_facets,
    oracle_betti,
    oracle_persistent_betti,
    persistent_betti,
    persistent_betti_simplified,
)
from phcalc.cli import main

from .conftest import DIABOLO_FACETS, DIABOLO_LEVELS
from .support import matrix_from_lists, naive_rank, random_complex, random_filtration

EXPECTED_D1 = "1100000\n1010000\n0111000\n0001110\n0000101\n0000011"


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {number} failed: {name}"


def _diabolo():
    return closure_of_facets([Simplex(f) for f in DIABOLO_FACETS])


def _diabolo_filtration():
    return Filtration.from_level_facets(
        [[Simplex(f) for f in level] for level in DIABOLO_LEVELS]
    )


def test_criterion_01_diabolo_betti():
    complex_ = _diabolo()
    start = time.perf_counter()
    values = (complex_.betti(0), complex_.betti(1))
    elapsed = time.perf_counter() - start
    _report(1, "diabolo Betti numbers are 1 and 1 within 10 ms",
            values == (1, 1) and elapsed < 0.010)


def test_criterion_02_diabolo_persistence_query():
    f = _diabolo_filtration()
    start = time.perf_counter()
    level0 = f[0].betti(0)
    alive = persistent_betti(f, 0, 0, 4)
    elapsed = time.perf_counter() - start
    _report(2, "level-0 components are 3, one alive at level 4, within 10 ms",
            (level0, alive) == (3, 1) and elapsed < 0.010)


def test_criterion_03_diabolo_barcodes():
    f = _diabolo_filtration()

    def as_multiset(n):
        return Counter(
            {(p.birth, p.death): p.multiplicity for p in barcode(f, n).pairs}
        )

    ok = as_multiset(0) == Counter(
        {(0, INFINITE_DEATH): 1, (0, 1): 2, (2, 3): 2, (2, 4): 1}
    ) and as_multiset(1) == Counter({(1, 5): 1, (3, INFINITE_DEATH): 1})
    _report(3, "diabolo barcodes match the known intervals exactly", ok)


def test_criterion_04_printed_d1_matrix():
    d1 = _diabolo().boundary_matrix(1)
    ok = (
        (d1.rows, d1.cols) == (6, 7)
        and str(d1) == EXPECTED_D1
        and d1.rank() == 5
    )
    _report(4, "degree-1 boundary matrix prints entry-for-entry with rank 5", ok)


def test_criterion_05_nilpotency_suite():
    rng = random.Random(0xD1AB010)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        c = random_complex(
            rng,
            vertices=rng.randint(5, 10),
            count=rng.randint(1, 7),
            max_size=5,
        )
        for n in range(4):
            if not (c.boundary_matrix(n) @ c.boundary_matrix(n + 1)).is_zero():
                ok = False
    elapsed = time.perf_counter() - start
    _report(5, "boundary-of-boundary vanishes on 200 random complexes in 30 s",
            ok and elapsed < 30.0)


def test_criterion_06_fundamental_lemma_suite():
    rng = random.Random(0xF17A)
    start = time.perf_counter()
    ok = all(check_fundamental_lemma(_diabolo_filtration(), n).ok for n in range(3))
    for _ in range(100):
        f = random_filtration(
            rng,
            vertices=rng.randint(5, 8),
            count=rng.randint(1, 5),
            levels=rng.randint(1, 4),
        )
        for n in range(3):
            if not check_fundamental_lemma(f, n).ok:
                ok = False
    elapsed = time.perf_counter() - start
    _report(6, "interval identities hold on diabolo and 100 random filtrations "
               "in 60 s", ok and elapsed < 60.0)


def test_criterion_07_oracle_equivalence():
    rng = random.Random(0x0AC1E)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        f = random_filtration(
            rng,
            vertices=6,
            count=rng.randint(1, 3),
            levels=rng.randint(1, 3),
            max_size=3,
        )
        for n in range(3):
            for j in range(len(f)):
                if f[j].betti(n) != oracle_betti(f[j], n):
                    ok = False
                for p in range(j, len(f)):
                    if persistent_betti(f, n, j, p) != (
                        oracle_persistent_betti(f, n, j, p)
                    ):
                        ok = False
    elapsed = time.perf_counter() - start
    _report(7, "rank method equals brute-force oracle on 100 instances in 120 s",
            ok and elapsed < 120.0)


def test_criterion_08_dual_formula_agreement():
    rng = random.Random(0xD0A1)
    ok = True
    f = _diabolo_filtration()
    filtrations = [f] + [random_filtration(rng) for _ in range(50)]
    for f in filtrations:
        for n in range(3):
            table = betti_table(f, n)  # the bookkeeping form, by the paper's rank formula
            for j in range(len(f)):
                for p in range(j, len(f)):
                    reduced = persistent_betti_simplified(f, n, j, p)
                    if not persistent_betti(f, n, j, p) == table[(j, p)] == reduced:
                        ok = False
    _report(8, "bookkeeping and reduced persistent-Betti formulas agree", ok)


def test_criterion_09_bench_completes(capsys):
    start = time.perf_counter()
    code = main(["bench", "--triangles", "10,50,100,200,500"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    header_ok = lines[0].split() == ["10", "50", "100", "200", "500"]
    rows_ok = (
        lines[1].startswith("Betti")
        and lines[2].startswith("Persistent Betti")
        and len(lines[1].split()) == 6
        and len(lines[2].split()) == 7
    )
    with capsys.disabled():
        _report(9, "benchmark table over 10..500 triangles completes in 60 s",
                code == 0 and elapsed < 60.0 and header_ok and rows_ok)


def test_criterion_10_gf2_rank_correctness():
    ok = True
    for rows in range(4):
        for cols in range(4):
            for packed in range(1 << (rows * cols)):
                entries = [
                    [(packed >> (i * cols + j)) & 1 for j in range(cols)]
                    for i in range(rows)
                ]
                if matrix_from_lists(entries, cols=cols).rank() != naive_rank(entries):
                    ok = False
    rng = random.Random(0x64)
    for _ in range(30):
        rows, cols = rng.randint(1, 64), rng.randint(1, 64)
        entries = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        if matrix_from_lists(entries, cols=cols).rank() != naive_rank(entries):
            ok = False
    _report(10, "rank matches naive elimination exhaustively (3x3) and up to 64x64",
            ok)
