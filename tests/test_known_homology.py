"""Spaces with known GF(2) homology, each grown one facet per level.

The never-dying bars of the last level are the Betti numbers of the
space, which are known without running phcalc (Lutz, "The Manifold
Page"): the boundary of a simplex is a sphere, and the two surfaces are
the minimal triangulations of the projective plane and the torus.  Over
the rationals RP^2 has Betti numbers (1, 0, 0), so it tells GF(2) from
a field of characteristic 0.  The boundaries of the 3- and 4-simplex
give deaths in degree 2 and boundary columns in dimension 3, which
`gen`'s triangles never give.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations

import pytest

from phcalc import Filtration, Simplex, barcode
from phcalc.cli import main
from phcalc.complexes import subsets

RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
TORUS = [tuple(sorted({i, (i + a) % 7, (i + 3) % 7})) for a in (1, 2) for i in range(7)]

SPACES = {
    "boundary of the 2-simplex": (list(combinations(range(3), 2)), (1, 1)),
    "boundary of the 3-simplex": (list(combinations(range(4), 3)), (1, 0, 1)),
    "boundary of the 4-simplex": (list(combinations(range(5), 4)), (1, 0, 0, 1)),
    "6-vertex RP^2": (RP2, (1, 1, 1)),
    "7-vertex torus": (TORUS, (1, 2, 1)),
}


def _grown(facets: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Level k holds the first k + 1 facets."""
    return [facets[: k + 1] for k in range(len(facets))]


@pytest.mark.parametrize("name", SPACES)
def test_never_dying_bars_are_the_betti_numbers(name):
    facets, betti = SPACES[name]
    f = Filtration([[Simplex(s) for s in level] for level in _grown(facets)])
    infinite = tuple(
        sum(bar.multiplicity for bar in barcode(f, n).pairs if bar.is_infinite)
        for n in range(len(betti) + 1)
    )
    assert infinite == betti + (0,)


@pytest.mark.parametrize("name", SPACES)
def test_check_with_the_oracle_passes_on_a_grown_space(name, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"levels": _grown(SPACES[name][0])}))
    assert main(["check", "--oracle", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the torus's 21 edges are past the oracle's 2**20 chains
    oracle = "skipped (enumeration bound)" if name == "7-vertex torus" else "ok"
    assert lines[-2:] == [f"oracle: {oracle}", "all checks passed"]


@pytest.mark.parametrize("name", SPACES)
def test_the_euler_characteristic_is_the_alternating_betti_sum(name):
    # counted on the closure, so a mistyped facet list shows before phcalc runs
    facets, betti = SPACES[name]
    closure = {face for facet in facets for face in subsets(facet)}
    by_dim = Counter(len(face) - 1 for face in closure)
    assert sum((-1) ** d * count for d, count in by_dim.items()) == sum(
        (-1) ** n * b for n, b in enumerate(betti)
    )


@pytest.mark.parametrize("facets", [RP2, TORUS], ids=["RP^2", "torus"])
def test_the_surfaces_are_closed_surfaces(facets):
    # every edge lies in two triangles, and every vertex link is one cycle
    assert len(set(facets)) == len(facets)
    edges = Counter(edge for facet in facets for edge in combinations(facet, 2))
    assert set(edges.values()) == {2}
    for v in {v for facet in facets for v in facet}:
        link = [tuple(u for u in facet if u != v) for facet in facets if v in facet]
        degree = Counter(u for edge in link for u in edge)
        assert set(degree.values()) == {2}
        seen, todo = set(), [link[0][0]]
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo += [w for edge in link if u in edge for w in edge]
        assert seen == set(degree)
