"""Every small filtration, exhaustively: all methods agree on each one.

A filtration of L levels on the vertices {0, 1, 2, 3} is a map from the
15 simplices on them to a birth in {0, ..., L - 1}, or "absent", that
never gives a face a later birth than a coface.  Relabelling the
vertices changes no answer, so one map is kept per class.  The scope
holds every dimension up to 3, deaths in every degree, and empty and
repeated levels.  Two levels give 7,413 maps in 590 classes, checked
here; three give 153,367 maps in 8,735 classes, which take about 25 s
on a 2-core machine:

    PYTHONPATH=src python3 -c "from tests.test_exhaustive import check_scope; check_scope(3)"

See the "small scope hypothesis" (Jackson, Software Abstractions, 2006)
and bounded-exhaustive testing (Boyapati, Khurshid and Marinov, Korat,
ISSTA 2002).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, permutations
from operator import itemgetter

from phcalc import Filtration, Simplex
from phcalc.oracle import oracle_persistent_betti
from phcalc.persistence import (
    barcode, check_fundamental_lemma, mu, mu_infinity, persistent_betti,
    persistent_betti_simplified
)

VERTICES = (0, 1, 2, 3)
SIMPLICES = [s for k in range(1, 5) for s in combinations(VERTICES, k)]  # faces first
FACES = [[SIMPLICES.index(f) for f in combinations(s, len(s) - 1) if f] for s in SIMPLICES]
# per relabelling, the getter that reads a map's births in the relabelled simplex order
RELABELLED = [
    itemgetter(*(SIMPLICES.index(tuple(sorted(pi.index(v) for v in s))) for s in SIMPLICES))
    for pi in permutations(VERTICES)
]


def monotone_maps(levels: int, births: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Every map, as the births of SIMPLICES in order; ``levels`` stands for absent.

    Absent is born after every level, so a coface of an absent face is
    absent, and the one rule left is that no face is born after a coface.
    """
    if len(births) == len(SIMPLICES):
        yield births
        return
    lo = max((births[i] for i in FACES[len(births)]), default=0)
    for birth in range(lo, levels + 1):
        yield from monotone_maps(levels, births + (birth,))


def classes(levels: int) -> tuple[int, list[tuple[int, ...]]]:
    """(the count of maps, the least map of each relabelling class)."""
    count, kept = 0, []
    for births in monotone_maps(levels):
        count += 1
        if all(births <= relabel(births) for relabel in RELABELLED):
            kept.append(births)
    return count, kept


def filtration(births: tuple[int, ...], levels: int) -> Filtration:
    return Filtration(
        [[Simplex(s) for s, b in zip(SIMPLICES, births) if b <= j] for j in range(levels)]
    )


def check_filtration(f: Filtration) -> None:
    """Every method gives each answer the barcode gives, in every degree."""
    for n in range(4):
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


def check_scope(levels: int) -> tuple[int, int]:
    """Check every class of ``levels`` levels; return (maps, classes)."""
    count, kept = classes(levels)
    for births in kept:
        try:
            check_filtration(filtration(births, levels))
        except AssertionError as exc:
            raise AssertionError(f"births {births} over {SIMPLICES}: {exc}") from None
    return count, len(kept)


def test_every_filtration_of_two_levels_on_four_vertices():
    assert check_scope(2) == (7_413, 590)


def test_one_level_maps_are_the_complexes_on_four_vertices():
    # the nonempty down-sets of the subsets of {0, 1, 2, 3}: Dedekind's 168,
    # and 30 up to relabelling, less the empty one, which holds no empty face
    count, kept = classes(1)
    assert (count, len(kept)) == (167, 29)


def test_kept_maps_lie_in_distinct_relabelling_classes():
    for levels in (1, 2):
        kept = classes(levels)[1]
        assert len({min(relabel(b) for relabel in RELABELLED) for b in kept}) == len(kept)
