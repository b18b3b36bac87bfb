"""Spaces with known GF(2) homology, each grown one facet per level.

The never-dying bars of the last level are the Betti numbers of the
space, which are known without running phcalc (Lutz, "The Manifold
Page"): the boundary of a simplex is a sphere, RP^2 and the torus are
their minimal triangulations, and the Klein bottle is the 3 x 3 grid
with one side glued back reversed.  Over the rationals RP^2 has Betti
numbers (1, 0, 0) and the Klein bottle (1, 1, 0), so each tells GF(2)
from a field of characteristic 0.  The dunce hat is contractible, but
no edge is free, so no collapse starts.  The boundaries of the 3- and
4-simplex give deaths in degree 2 and boundary columns in dimension 3,
which `gen`'s triangles never give.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations

import pytest

from phcalc import Filtration, Simplex, barcode
from phcalc.cli import main
from phcalc.complexes import subsets
from phcalc.oracle import ENUMERATION_LIMIT_BITS

RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
TORUS = [tuple(sorted({i, (i + a) % 7, (i + 3) % 7})) for a in (1, 2) for i in range(7)]


def _klein(i: int, j: int) -> int:
    """v(i, j) = i + 3j on Z_3 x Z_3; crossing j = 3 -> 0 maps i to -i."""
    return (-i if j == 3 else i) % 3 + 3 * (j % 3)


KLEIN = [tuple(sorted({_klein(i, j), corner, _klein(i + 1, j + 1)}))
         for i in range(3) for j in range(3) for corner in (_klein(i + 1, j), _klein(i, j + 1))]


def _label(k: int) -> int:
    """The dunce hat's boundary vertex k, read a a a^-1 with a cut into 0, 1, 2."""
    k %= 9
    return k % 3 if k <= 6 else (9 - k) % 3


# a disk: the boundary 0..8 (labelled), the inner cycle 3..11 and the centre 12
DUNCE_HAT = [tuple(sorted(t)) for k in range(9) for t in (
    {_label(k), _label(k + 1), 3 + k},
    {_label(k + 1), 3 + (k + 1) % 9, 3 + k},
    {12, 3 + k, 3 + (k + 1) % 9},
)]

SPACES = {
    "boundary of the 2-simplex": (list(combinations(range(3), 2)), (1, 1)),
    "boundary of the 3-simplex": (list(combinations(range(4), 3)), (1, 0, 1)),
    "boundary of the 4-simplex": (list(combinations(range(5), 4)), (1, 0, 0, 1)),
    "6-vertex RP^2": (RP2, (1, 1, 1)),
    "7-vertex torus": (TORUS, (1, 2, 1)),
    "9-vertex Klein bottle": (KLEIN, (1, 2, 1)),
    "13-vertex dunce hat": (DUNCE_HAT, (1, 0, 0)),
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
    # a space with more edges than the oracle's bit limit has too many 1-chains to enumerate
    edges = {edge for facet in SPACES[name][0] for edge in combinations(facet, 2)}
    oracle = "skipped (enumeration bound)" if len(edges) > ENUMERATION_LIMIT_BITS else "ok"
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


@pytest.mark.parametrize(
    "facets", [RP2, TORUS, KLEIN], ids=["RP^2", "torus", "Klein bottle"]
)
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


def test_the_dunce_hat_has_no_free_edge():
    # 13 vertices, 39 edges, 27 triangles; the three segments of a lie in
    # three triangles each and every other edge in two
    assert len(set(DUNCE_HAT)) == len(DUNCE_HAT) == 27
    assert {v for facet in DUNCE_HAT for v in facet} == set(range(13))
    edges = Counter(edge for facet in DUNCE_HAT for edge in combinations(facet, 2))
    assert len(edges) == 39
    assert {edge for edge, count in edges.items() if count == 3} == {(0, 1), (0, 2), (1, 2)}
    assert set(edges.values()) == {2, 3}
