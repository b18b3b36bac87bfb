"""Every small filtration, exhaustively: all methods agree on each one.

A filtration of L levels on a vertex set, by default {0, 1, 2, 3}, is a
map from the simplices on it (15 on four vertices) to a birth in
{0, ..., L - 1}, or "absent", that never gives a face a later birth
than a coface.  Relabelling the vertices changes no answer, so one map
is kept per class.  On four vertices the scope holds every dimension up
to 3, deaths in every degree, and empty and repeated levels.  Two levels
give 7,413 maps in 590 classes, checked here; three give 153,367 maps in
8,735 classes, which take about 25 s on a 2-core machine:

    PYTHONPATH=src python3 -c "from tests.test_exhaustive import check_scope; check_scope(3)"

One level on five vertices, every complex on them, gives 7,580 maps in
209 classes, checked here in degrees 0-4; the boundary of the 4-simplex
is among them, with its degree-3 class.

See the "small scope hypothesis" (Jackson, Software Abstractions, 2006)
and bounded-exhaustive testing (Boyapati, Khurshid and Marinov, Korat,
ISSTA 2002).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import combinations, permutations
from operator import itemgetter

from phcalc import Filtration, Simplex
from phcalc.oracle import oracle_persistent_betti
from phcalc.persistence import (
    barcode, check_fundamental_lemma, mu, mu_infinity, persistent_betti,
    persistent_betti_simplified
)

VERTICES = (0, 1, 2, 3)
FIVE = (0, 1, 2, 3, 4)


@cache
def scope(vertices: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[list[int]], list]:
    """The simplices on ``vertices``, faces first; the faces of each, by index; and,
    per relabelling, the getter that reads a map's births in the relabelled order."""
    simplices = [s for k in range(1, len(vertices) + 1) for s in combinations(vertices, k)]
    faces = [[simplices.index(f) for f in combinations(s, len(s) - 1) if f] for s in simplices]
    relabelled = []
    for pi in permutations(vertices):
        relabel = dict(zip(vertices, pi))
        relabelled.append(itemgetter(
            *(simplices.index(tuple(sorted(relabel[v] for v in s))) for s in simplices)))
    return simplices, faces, relabelled


def monotone_maps(
    levels: int, vertices: tuple[int, ...] = VERTICES, births: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Every map, as the births of the simplices in order; ``levels`` stands for absent.

    Absent is born after every level, so a coface of an absent face is
    absent, and the one rule left is that no face is born after a coface.
    """
    simplices, faces, _ = scope(vertices)
    if len(births) == len(simplices):
        yield births
        return
    lo = max((births[i] for i in faces[len(births)]), default=0)
    for birth in range(lo, levels + 1):
        yield from monotone_maps(levels, vertices, births + (birth,))


def classes(
    levels: int, vertices: tuple[int, ...] = VERTICES
) -> tuple[int, list[tuple[int, ...]]]:
    """(the count of maps, the least map of each relabelling class)."""
    relabelled = scope(vertices)[2]
    count, kept = 0, []
    for births in monotone_maps(levels, vertices):
        count += 1
        if all(births <= relabel(births) for relabel in relabelled):
            kept.append(births)
    return count, kept


def filtration(births: tuple[int, ...], levels: int,
               vertices: tuple[int, ...] = VERTICES) -> Filtration:
    simplices = scope(vertices)[0]
    return Filtration(
        [[Simplex(s) for s, b in zip(simplices, births) if b <= j] for j in range(levels)]
    )


def check_filtration(f: Filtration, degrees: range) -> None:
    """Every method gives each answer the barcode gives, in each of ``degrees``."""
    for n in degrees:
        assert check_fundamental_lemma(f, n).ok, (f, n)
        bars = barcode(f, n)
        for j in range(f.m + 1):
            for p in range(j, f.m + 1):
                answers = {
                    "persistent_betti": persistent_betti(f, n, j, p),
                    "persistent_betti_simplified": persistent_betti_simplified(f, n, j, p),
                    "oracle_persistent_betti": oracle_persistent_betti(f, n, j, p),
                }
                assert set(answers.values()) == {bars.betti_at(j, p)}, (f, n, j, p, answers)
            born = {bar.death: bar.multiplicity for bar in bars.pairs if bar.birth == j}
            for p in range(j + 1, f.m + 1):
                assert mu(f, n, j, p) == born.get(p, 0), (f, n, j, p)
            assert mu_infinity(f, n, j) == born.get(float("inf"), 0), (f, n, j)


def check_scope(levels: int, vertices: tuple[int, ...] = VERTICES) -> tuple[int, int]:
    """Check every class of ``levels`` levels on ``vertices``; return (maps, classes)."""
    count, kept = classes(levels, vertices)
    for births in kept:
        try:
            check_filtration(filtration(births, levels, vertices), range(len(vertices)))
        except AssertionError as exc:
            raise AssertionError(f"births {births} over {scope(vertices)[0]}: {exc}") from None
    return count, len(kept)


def test_every_filtration_of_two_levels_on_four_vertices():
    assert check_scope(2) == (7_413, 590)


def test_one_level_maps_are_the_complexes_on_four_vertices():
    # the nonempty down-sets of the subsets of {0, 1, 2, 3}: Dedekind's 168,
    # and 30 up to relabelling, less the empty one, which holds no empty face
    count, kept = classes(1)
    assert (count, len(kept)) == (167, 29)


def test_every_complex_on_five_vertices():
    # one level on {0, ..., 4}: Dedekind's 7,581 down-sets of its subsets, and 210
    # up to relabelling, less the empty one; checked in degrees 0-4
    assert check_scope(1, FIVE) == (7_580, 209)


def test_five_vertices_reach_the_boundary_of_the_4_simplex():
    # every face of the 4-simplex at level 0, and the 4-simplex itself absent
    sphere = tuple(int(len(s) == 5) for s in scope(FIVE)[0])
    assert sphere in classes(1, FIVE)[1]
    f = filtration(sphere, 1, FIVE)
    assert [barcode(f, n).total_bars() for n in range(5)] == [1, 0, 0, 1, 0]


def test_kept_maps_lie_in_distinct_relabelling_classes():
    relabelled = scope(VERTICES)[2]
    for levels in (1, 2):
        kept = classes(levels)[1]
        assert len({min(relabel(b) for relabel in relabelled) for b in kept}) == len(kept)
