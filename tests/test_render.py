"""ASCII and SVG barcode renderings."""

from __future__ import annotations

import math
import random

import pytest

from phcalc import Barcode, PersistencePair, barcode
from phcalc.render import ascii_bars, svg_document

from .support import naive_ascii_bars, random_filtration


def _bar_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if "*" in line]


def test_ascii_glyphs():
    bars = Barcode(
        0,
        (
            PersistencePair(0, 1, 1),
            PersistencePair(0, math.inf, 1),
            PersistencePair(2, 4, 1),
        ),
    )
    rows = _bar_rows(ascii_bars(bars, 5))
    assert rows[0].endswith("*o")
    assert rows[1].endswith("*----->")
    assert rows[2].endswith("*-o")
    # bars align: the * of rows 0 and 1 sit in the same column
    assert rows[0].index("*") == rows[1].index("*")
    assert rows[2].index("*") == rows[0].index("*") + 2


def test_ascii_row_count_counts_multiplicity(diabolo_filtration):
    for n in (0, 1):
        bars = barcode(diabolo_filtration, n)
        text = ascii_bars(bars, diabolo_filtration.m)
        assert len(_bar_rows(text)) == bars.total_bars()
        assert text.splitlines()[0].startswith("#")


def test_ascii_empty_barcode():
    text = ascii_bars(Barcode(2, ()), 5)
    assert _bar_rows(text) == []
    assert "dim 2" in text


def test_ascii_row_count_random():
    rng = random.Random(109)
    for _ in range(15):
        f = random_filtration(rng)
        for n in range(3):
            bars = barcode(f, n)
            assert len(_bar_rows(ascii_bars(bars, f.m))) == bars.total_bars()


def _many_level_barcode(rng: random.Random, m: int) -> Barcode:
    """Seeded bars over levels 0..m, with a bar of multiplicity 3, a death
    at birth + 1 and a never-dying bar born at the last level among them."""
    counts = {}
    for _ in range(rng.randint(20, 60)):
        birth = rng.randrange(m + 1)
        death = math.inf if birth == m or rng.random() < 0.2 else rng.randint(birth + 1, m)
        counts[birth, death] = rng.randint(1, 3)
    counts.update({(7, 20): 3, (3, 4): 1, (m, math.inf): 1})
    return Barcode(1, tuple(PersistencePair(b, d, k) for (b, d), k in sorted(counts.items())))


@pytest.mark.parametrize("seed", range(5))
def test_ascii_bars_match_a_cell_per_level_reference(seed):
    rng = random.Random(seed)
    m = rng.randint(500, 1000)
    for bars in (_many_level_barcode(rng, m), Barcode(2, ())):
        assert ascii_bars(bars, m) == naive_ascii_bars(bars, m)


def test_svg_structure(diabolo_filtration):
    codes = [barcode(diabolo_filtration, n) for n in (0, 1)]
    svg = svg_document(codes, diabolo_filtration.m)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count('class="birth"') == sum(b.total_bars() for b in codes)
    # finite deaths get open circles, infinite deaths arrowheads
    finite = sum(
        p.multiplicity for b in codes for p in b.pairs if not p.is_infinite
    )
    infinite = sum(p.multiplicity for b in codes for p in b.pairs if p.is_infinite)
    assert svg.count('class="death"') == finite
    assert svg.count('class="head"') == infinite
    assert svg.count('class="title"') == 2
    # one tick label per level in each panel
    assert svg.count('class="tick"') == 2 * (diabolo_filtration.m + 1)


def test_svg_is_self_contained_xml(diabolo_filtration):
    import xml.etree.ElementTree as ET

    svg = svg_document([barcode(diabolo_filtration, 0)], diabolo_filtration.m)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
