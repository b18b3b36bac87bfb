"""Shared test helpers: naive references and random input builders.

Everything here is deliberately written in the most obvious way
possible (lists of ints, textbook elimination, union-find) so the
package's bit-packed implementations are tested against independent
logic rather than against themselves.
"""

from __future__ import annotations

import functools
import inspect
import random
from collections import Counter

from phcalc import Barcode, Filtration, Simplex, SimplicialComplex, closure_of_facets
from phcalc import persistence, ranks
from phcalc.generate import random_filtration_document
from phcalc.gf2 import Gf2Matrix


def count_boundary_builds(monkeypatch) -> Counter:
    """Count the rank side's column builds by degree, from now on.

    `Filtration._birth_columns` builds D_d when no columns of degree d
    are kept yet, and reads the kept ones otherwise.
    """
    built: Counter = Counter()
    original = Filtration._birth_columns

    def counting(f, d):
        if d not in f._columns:
            built[d] += 1
        return original(f, d)

    monkeypatch.setattr(Filtration, "_birth_columns", counting)
    return built


def count_inserts(monkeypatch) -> list[int]:
    """Record every column the rank grid's elimination inserts, from now on."""
    inserted: list[int] = []
    original = ranks._insert

    def counting(pivots, col):
        inserted.append(col)
        return original(pivots, col)

    monkeypatch.setattr(ranks, "_insert", counting)
    return inserted


def count_reductions(monkeypatch) -> Counter:
    """Count the reduction's boundary builds by degree, from now on: one per reduced D_d.

    The degree is read off the faces: 0 when there are none, as for the vertices.
    """
    built: Counter = Counter()
    original = persistence._boundary_columns

    def counting(cells, faces):
        built[len(faces[0][0]) if faces else 0] += 1
        return original(cells, faces)

    monkeypatch.setattr(persistence, "_boundary_columns", counting)
    return built


def kept_state(f: Filtration) -> tuple:
    """A copy of what the filtration keeps for point queries and barcodes.

    Each kept row of beta by (dimension, birth), each dimension's bars,
    and the degrees whose pivots and rank-side columns are kept.
    """
    return ({key: list(row) for key, row in f._rows.items()},
            {n: dict(bars) for n, bars in f._bars.items()}, set(f._pivots), set(f._columns))


def perturb_rank_rows(monkeypatch, deltas: dict, dim: int | None = None) -> None:
    """Add deltas[(j, p)] to beta(j, p) in every grid row of beta read from now on.

    Only the rows of degree ``dim`` change, or those of every degree when
    it is None; an entry outside j <= p <= m is left out.  A later call
    replaces the perturbation rather than adding to it.
    """
    original = inspect.unwrap(ranks._betti_grid)

    @functools.wraps(original)
    def perturbed(f, n):
        for j, row in original(f, n):
            if dim is None or n == dim:
                for (birth, p), delta in deltas.items():
                    if birth == j and j <= p <= f.m:
                        row[p] += delta
            yield j, row

    monkeypatch.setattr(ranks, "_betti_grid", perturbed)


def naive_ascii_bars(barcode: Barcode, last_level: int) -> str:
    """`render.ascii_bars` drawn a cell per level, then stripped of blanks."""
    rows = [f"# dim {barcode.dimension}, levels 0..{last_level}"]
    width = max((len(str(p)) for p in barcode.pairs), default=0)
    for pair in barcode.pairs:
        for _ in range(pair.multiplicity):
            cells = [" "] * (last_level + 2)
            cells[pair.birth] = "*"
            end = last_level + 1 if pair.is_infinite else pair.death
            for level in range(pair.birth + 1, end):
                cells[level] = "-"
            cells[end] = ">" if pair.is_infinite else "o"
            rows.append(f"{str(pair):<{width}}  " + "".join(cells).rstrip())
    return "\n".join(rows) + "\n"


def naive_rank(rows: list[list[int]]) -> int:
    """Textbook Gaussian elimination over GF(2) on nested lists."""
    work = [list(r) for r in rows]
    n_cols = len(work[0]) if work else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                work[r] = [a ^ b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def rref_kernel_basis(m: Gf2Matrix) -> Gf2Matrix:
    """Kernel basis by reduced row echelon form: the reference for kernel_basis.

    One kernel vector per free column, in ascending order, with a 1 at
    its own free column and 0 at every other free column.
    """
    # Reduced row echelon form, kept as {pivot column -> row bits}.
    # Invariant: every stored row has 0 in all other pivot columns.
    pivots: dict[int, int] = {}
    for bits in m.row_bits:
        cur = bits
        for col, row in pivots.items():
            if (cur >> col) & 1:
                cur ^= row
        if cur == 0:
            continue
        lead = (cur & -cur).bit_length() - 1
        for col, row in pivots.items():
            if (row >> lead) & 1:
                pivots[col] = row ^ cur
        pivots[lead] = cur

    free_cols = [c for c in range(m.cols) if c not in pivots]
    kernel_rows = [0] * m.cols
    for idx, free in enumerate(free_cols):
        kernel_rows[free] |= 1 << idx
        for pivot_col, row in pivots.items():
            if (row >> free) & 1:
                kernel_rows[pivot_col] |= 1 << idx
    return Gf2Matrix(m.cols, len(free_cols), tuple(kernel_rows))


def stacked_rank_grid(
    f: Filtration, n: int, births, deaths
) -> dict[tuple[int, int], int]:
    """persistent_betti at every 0 <= j <= p in births x deaths, pair by pair.

    For each pair, the RREF kernel basis of K^j is pushed into K^p by
    simplex and stacked beside D_{n+1}(K^p) as nested lists, and both
    ranks come from naive_rank: z - (rank_g + z - rank_stacked).
    """
    grid = {}
    for j in births:
        for p in deaths:
            if not 0 <= j <= p:
                continue
            kernel = rref_kernel_basis(f[j].boundary_matrix(n))
            z = kernel.cols
            simplices = (s.vertices for s in f[j].n_simplices(n))
            cycle_row = dict(zip(simplices, kernel.to_rows()))
            bound = f[p].boundary_matrix(n + 1).to_rows()
            stacked = [
                row + cycle_row.get(s.vertices, [0] * z)
                for s, row in zip(f[p].n_simplices(n), bound)
            ]
            rank_g = naive_rank(bound)
            grid[(j, p)] = z - (rank_g + z - naive_rank(stacked))
    return grid


def matrix_from_lists(rows: list[list[int]], cols: int | None = None) -> Gf2Matrix:
    return Gf2Matrix.from_rows(rows, cols=cols)


def random_lists(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]


def component_count(complex_: SimplicialComplex) -> int:
    """Union-find count of connected components: an independent beta_0."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for simplex in complex_.n_simplices(0):
        parent[simplex.vertices[0]] = simplex.vertices[0]
    for edge in complex_.n_simplices(1):
        a, b = (find(v) for v in edge.vertices)
        if a != b:
            parent[a] = b
    return sum(1 for v in parent if find(v) == v)


def random_facets(
    rng: random.Random, vertices: int, count: int, max_size: int = 4
) -> list[Simplex]:
    """Random facets of mixed sizes 1..max_size on {0, ..., vertices-1}."""
    facets = []
    for _ in range(count):
        size = rng.randint(1, min(max_size, vertices))
        facets.append(Simplex(tuple(rng.sample(range(vertices), size))))
    return facets


def random_complex(
    rng: random.Random, vertices: int = 8, count: int = 5, max_size: int = 4
) -> SimplicialComplex:
    return closure_of_facets(random_facets(rng, vertices, count, max_size))


def random_filtration(
    rng: random.Random,
    vertices: int = 7,
    count: int = 4,
    levels: int = 3,
    max_size: int = 3,
) -> Filtration:
    """Cumulative random filtration with mixed facet sizes."""
    drawn = [
        (facet, rng.randrange(levels))
        for facet in random_facets(rng, vertices, count, max_size)
    ]
    per_level = [
        [facet for facet, at in drawn if at <= j] for j in range(levels)
    ]
    return Filtration.from_level_facets(per_level)


def random_level_facets(
    rng: random.Random, vertices: int = 6, levels: int = 4, count: int = 5
) -> list[list[tuple[int, ...]]]:
    """Random facet lists, one per level, nested or not.

    Each drawn facet is listed from its level on.  A face of it may be
    listed from an earlier level until the facet arrives, so the
    closures nest while the lists do not (vertices at one level, an
    edge on them at the next).  Half the time one facet is then dropped
    from one level, which may break nesting.
    """
    per_level: list[list[tuple[int, ...]]] = [[] for _ in range(levels)]
    for _ in range(count):
        facet = tuple(sorted(rng.sample(range(vertices), rng.randint(1, 3))))
        face = facet[: rng.randint(1, len(facet))]
        at = rng.randrange(levels)
        for j in range(rng.randrange(at + 1), levels):
            per_level[j].append(facet if j >= at else face)
    j = rng.randrange(levels)
    if rng.random() < 0.5 and per_level[j]:
        per_level[j].pop(rng.randrange(len(per_level[j])))
    return per_level


def incremental_forms() -> list[tuple[int, list, list]]:
    """20 seeded `gen` documents, each as (seed, cumulative levels, incremental levels).

    The levels are lists of vertex lists, as a file holds them.  One
    cumulative level is listed twice, so its incremental twin adds
    nothing, and one facet is listed again in the incremental form, its
    vertices reversed, at a level from its birth on.
    """
    rng = random.Random(32)
    forms = []
    for seed in range(20):
        doc = random_filtration_document(rng.randrange(1, 30), rng.randrange(1, 8), seed=seed)
        cumulative = [[list(facet) for facet in level] for level in doc.levels]
        at = rng.randrange(len(cumulative))
        cumulative.insert(at, cumulative[at])
        incremental = [
            [facet for facet in level if facet not in earlier]
            for earlier, level in zip([[]] + cumulative, cumulative)
        ]
        assert incremental[at + 1] == []
        facet = rng.choice(cumulative[-1])
        birth = next(j for j, level in enumerate(cumulative) if facet in level)
        incremental[rng.randrange(birth, len(cumulative))].append(facet[::-1])
        forms.append((seed, cumulative, incremental))
    return forms


def naive_missing_face(simplices: frozenset[Simplex]) -> Simplex | None:
    """The least subset, by size then vertices, absent from the first member lacking one.

    "First" is in the set's own iteration order.  Every subset of every
    member is enumerated by bitmask, with no shortcut through the faces.
    """
    present = {s.vertices for s in simplices}
    for s in simplices:
        verts = s.vertices
        subsets = (tuple(v for i, v in enumerate(verts) if mask >> i & 1)
                   for mask in range(1, 1 << len(verts)))
        missing = [sub for sub in subsets if sub not in present]
        if missing:
            return Simplex(min(missing, key=lambda sub: (len(sub), sub)))
    return None


def naive_nesting_violation(
    level_facets: list[list[tuple[int, ...]]],
) -> tuple[int, tuple[int, ...]] | None:
    """(level, least dropped simplex) at the first non-nested level, or None.

    Closes every level on its own, enumerating each facet's subsets by
    bitmask, and compares each adjacent pair of closures.
    """
    closures = []
    for facets in level_facets:
        closure = set()
        for facet in facets:
            for mask in range(1, 1 << len(facet)):
                closure.add(tuple(v for i, v in enumerate(facet) if mask >> i & 1))
        closures.append(closure)
    for j in range(1, len(closures)):
        dropped = closures[j - 1] - closures[j]
        if dropped:
            return j, min(dropped)
    return None
