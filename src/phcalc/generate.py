"""Seeded random filtration generation for tests and benchmarks."""

from __future__ import annotations

import math
import random
import time

from .files import MAX_CLOSURE_SIZE, FiltrationDocument
from .persistence import barcode, betti_table

# A triangle closes to 7 simplices, so this many always parse back
MAX_TRIANGLES = MAX_CLOSURE_SIZE // 7


def default_vertices(triangles: int) -> int:
    """Vertex budget used when none is given: 3 * ceil(sqrt(T))."""
    if triangles < 1:
        raise ValueError(f"need at least 1 triangle, got {triangles}")
    return 3 * (math.isqrt(triangles - 1) + 1)


def random_filtration_document(
    triangles: int,
    levels: int,
    vertices: int | None = None,
    seed: int = 0,
) -> FiltrationDocument:
    """Draw a random filtration of triangle facets.

    Each of the T facets is a uniform 3-subset of {0, ..., V-1}
    (duplicates allowed; the closure absorbs them) with a uniform level
    in 0..L-1.  Level j lists every facet drawn at level <= j, so the
    result is nested by construction.  The same seed reproduces the
    same document.  More than MAX_TRIANGLES facets are refused before
    any is drawn: their file could close past MAX_CLOSURE_SIZE, which
    every reader refuses.
    """
    if triangles < 1:
        raise ValueError(f"need at least 1 triangle, got {triangles}")
    if triangles > MAX_TRIANGLES:
        raise ValueError(
            f"need at most {MAX_TRIANGLES} triangles, got {triangles}: each closes to"
            f" 7 simplices, and a file may close to at most {MAX_CLOSURE_SIZE}"
        )
    if levels < 1:
        raise ValueError(f"need at least 1 level, got {levels}")
    if vertices is None:
        vertices = default_vertices(triangles)
    if vertices < 3:
        raise ValueError(f"need at least 3 vertices, got {vertices}")

    rng = random.Random(seed)
    drawn = [
        (tuple(sorted(rng.sample(range(vertices), 3))), rng.randrange(levels))
        for _ in range(triangles)
    ]
    cumulative = tuple(
        tuple(facet for facet, at in drawn if at <= j) for j in range(levels)
    )
    name = f"random triangles={triangles} levels={levels} vertices={vertices} seed={seed}"
    return FiltrationDocument(cumulative, name)


def bench_table(triangle_counts: list[int], levels: int, seed: int) -> str:
    """`phcalc bench`'s table: wall-clock seconds per triangle count.

    For each count, one random filtration; the "Betti" row times `betti`
    of its last level in dims 0-2, and the "Persistent Betti" row the
    degree-1 `betti_table` and barcode.
    """
    betti_times = []
    pbetti_times = []
    for triangles in triangle_counts:
        f = random_filtration_document(triangles, levels, seed=seed).to_filtration()
        top = f[f.m]

        start = time.perf_counter()
        for n in range(3):
            top.betti(n)
        betti_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        betti_table(f, 1)
        barcode(f, 1)
        pbetti_times.append(time.perf_counter() - start)

    width = len("Persistent Betti")
    rows = [" " * width + "".join(f"{t:>10}" for t in triangle_counts)]
    for label, times in (("Betti", betti_times), ("Persistent Betti", pbetti_times)):
        rows.append(f"{label:<{width}}" + "".join(f"{s:>10.3f}" for s in times))
    return "# wall-clock seconds per triangle count\n" + "\n".join(rows) + "\n"
