"""Reference answers computed without phcalc.

Everything here is standalone on purpose: the input generator, the
barcode and the per-level Euler characteristic share no code with the
package under test, so a bug there cannot hide by agreeing with itself.

A barcode is a dict ``{dim: {(birth, death): multiplicity}}`` with
``death`` None for a class that never dies.
"""

from __future__ import annotations

import json
import math
import random
import re
from itertools import combinations

Facet = tuple[int, ...]
Barcodes = dict[int, dict[tuple[int, int | None], int]]


def default_vertices(triangles: int) -> int:
    """3 * ceil(sqrt(T)), the vertex budget `phcalc gen` uses by default."""
    return 3 * (math.isqrt(triangles - 1) + 1)


def generate(triangles: int, levels: int, seed: int) -> tuple[str, list[list[Facet]]]:
    """A random triangle filtration drawn like `phcalc gen -t T -l L -s SEED`.

    Each facet is a uniform 3-subset of V = 3*ceil(sqrt(T)) vertices
    with a uniform level; level j lists every facet drawn at a level
    <= j.  Returns the document text, byte-identical to what
    `phcalc gen` writes, and the cumulative facet lists.
    """
    vertices = default_vertices(triangles)
    rng = random.Random(seed)
    drawn = [
        (tuple(sorted(rng.sample(range(vertices), 3))), rng.randrange(levels))
        for _ in range(triangles)
    ]
    level_facets = [[f for f, at in drawn if at <= j] for j in range(levels)]
    doc = {
        "name": f"random triangles={triangles} levels={levels} "
        f"vertices={vertices} seed={seed}",
        "levels": [[list(f) for f in level] for level in level_facets],
    }
    return json.dumps(doc, indent=2) + "\n", level_facets


def births(level_facets: list[list[Facet]]) -> dict[Facet, int]:
    """Birth level of every simplex: the first level whose closure holds it.

    The levels must be nested, as `generate` makes them.
    """
    birth: dict[Facet, int] = {}
    for j, facets in enumerate(level_facets):
        for facet in facets:
            if facet in birth:  # its faces are already there too
                continue
            for size in range(1, len(facet) + 1):
                for face in combinations(facet, size):
                    birth.setdefault(face, j)
    return birth


def barcodes(birth: dict[Facet, int]) -> Barcodes:
    """Every barcode, by GF(2) column reduction of the filtered boundary matrix.

    Simplices are ordered by (birth, dim, vertices); a column whose
    reduced lowest entry is row i kills the class that simplex i
    created.  Zero-length pairs (same birth level) are dropped.
    """
    order = sorted(birth, key=lambda s: (birth[s], len(s), s))
    index = {s: i for i, s in enumerate(order)}
    top = max((len(s) - 1 for s in order), default=0)
    bars: Barcodes = {n: {} for n in range(top + 1)}
    reduced_by_low: dict[int, int] = {}
    creators = []
    for i, s in enumerate(order):
        col = 0
        if len(s) > 1:
            for k in range(len(s)):
                col |= 1 << index[s[:k] + s[k + 1 :]]
        while col:
            low = col.bit_length() - 1
            other = reduced_by_low.get(low)
            if other is None:
                reduced_by_low[low] = col
                _add(bars[len(s) - 2], birth[order[low]], birth[s])
                break
            col ^= other
        else:
            creators.append(i)
    for i in creators:
        if i not in reduced_by_low:
            s = order[i]
            _add(bars[len(s) - 1], birth[s], None)
    return bars


def _add(dim_bars: dict[tuple[int, int | None], int], born: int, died: int | None) -> None:
    if died is None or born < died:
        dim_bars[(born, died)] = dim_bars.get((born, died), 0) + 1


def euler_by_level(birth: dict[Facet, int], levels: int) -> list[int]:
    """Euler characteristic of every level, from the simplex counts."""
    chi = [0] * levels
    for s, born in birth.items():
        chi[born] += -1 if len(s) % 2 == 0 else 1
    for j in range(1, levels):
        chi[j] += chi[j - 1]
    return chi


def euler_from_bars(bars: Barcodes, levels: int) -> list[int]:
    """Alternating sum over dimensions of the bars alive at each level."""
    return [
        sum((-1) ** n * spanning(bars, n, k, k) for n in bars) for k in range(levels)
    ]


def spanning(bars: Barcodes, n: int, j: int, p: int) -> int:
    """Persistent Betti number beta_n^{j,p}: bars born by j and alive at p."""
    return sum(
        count
        for (born, died), count in bars.get(n, {}).items()
        if born <= j and (died is None or died > p)
    )


def reference(level_facets: list[list[Facet]]) -> Barcodes:
    """Barcodes of a generated input, cross-checked by the Euler characteristic.

    Raises AssertionError when the bars alive at some level do not
    add up to that level's Euler characteristic, which would mean the
    reduction above is wrong.
    """
    birth = births(level_facets)
    bars = barcodes(birth)
    expected = euler_by_level(birth, len(level_facets))
    got = euler_from_bars(bars, len(level_facets))
    if got != expected:
        raise AssertionError(f"reference Euler characteristic {got} != {expected}")
    return bars


# ----------------------------------------------------------------------
# Reading phcalc's outputs back, to compare with the reference.


def from_json(text: str) -> Barcodes:
    """Barcodes from `phcalc barcode --format json` output."""
    out: Barcodes = {}
    for code in json.loads(text)["barcodes"]:
        dim_bars = out.setdefault(code["dimension"], {})
        for bar in code["intervals"]:
            key = (bar["birth"], bar["death"])
            dim_bars[key] = dim_bars.get(key, 0) + bar["multiplicity"]
    return out


_ROW = re.compile(r"^\[(\d+),(\d+|inf)\)\s")
_HEADER = re.compile(r"^# dim (\d+), levels 0\.\.\d+$")


def from_text(text: str) -> Barcodes:
    """Barcodes from `phcalc barcode --format text` output.

    Each `[b,d)` row is one bar; multiplicities are counted from the
    repeated rows under each `# dim n` header.
    """
    out: Barcodes = {}
    dim_bars = None
    for line in text.splitlines():
        if not line:
            continue
        header = _HEADER.match(line)
        if header:
            dim_bars = out.setdefault(int(header.group(1)), {})
            continue
        row = _ROW.match(line)
        if row is None or dim_bars is None:
            raise ValueError(f"unexpected barcode line {line!r}")
        died = None if row.group(2) == "inf" else int(row.group(2))
        key = (int(row.group(1)), died)
        dim_bars[key] = dim_bars.get(key, 0) + 1
    return out


def query_answer(bars: Barcodes, query: list) -> int:
    """The reference answer to one point query.

    ``["pbetti", n, j, p]`` is the number of bars spanning [j, p];
    ``["mu", n, j, p]`` the multiplicity of [j, p);
    ``["mu_inf", n, j]`` the multiplicity of [j, inf).
    """
    kind, n, j = query[:3]
    if kind == "pbetti":
        return spanning(bars, n, j, query[3])
    died = query[3] if kind == "mu" else None
    return bars.get(n, {}).get((j, died), 0)


def make_queries(levels: int, seed: int, per_kind: int) -> list[list]:
    """A seeded, shuffled list of point queries in dimensions 0 and 1.

    Each (kind, dimension) stratum gets ``per_kind`` queries whose
    birth level is spread evenly over the levels, so the cost mix of
    the list, and with it the latency percentiles, depends little on
    the seed.
    """
    rng = random.Random(seed)
    queries = []
    for kind in ("pbetti", "mu", "mu_inf"):
        for n in (0, 1):
            for i in range(per_kind):
                top = levels - 1 if kind == "mu" else levels
                j = int((i + rng.random()) * top / per_kind)
                if kind == "pbetti":
                    queries.append([kind, n, j, rng.randrange(j, levels)])
                elif kind == "mu":
                    queries.append([kind, n, j, rng.randrange(j + 1, levels)])
                else:
                    queries.append([kind, n, j])
    rng.shuffle(queries)
    return queries
