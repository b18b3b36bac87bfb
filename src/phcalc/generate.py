"""Seeded random filtration generation for tests and benchmarks."""

from __future__ import annotations

import math
import random

from .files import MAX_CLOSURE_SIZE, FiltrationDocument

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
