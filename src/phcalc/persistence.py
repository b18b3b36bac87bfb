"""Persistent Betti numbers, interval multiplicities, and barcodes.

All quantities are computed exactly over GF(2), by two independent
methods.

Barcodes come from one column reduction of the filtered boundary
matrix (Edelsbrunner-Letscher-Zomorodian; Zomorodian-Carlsson), with
clearing (Chen-Kerber): each pivot pairs the birth of a class with its
death.  It reads births from the filtration's table and builds no
level.  The filtration keeps each dimension's pivots, so the barcodes
of every dimension reduce each boundary matrix once, and each
dimension's bars as {(birth, death): multiplicity}, death
`INFINITE_DEATH` for a class that never dies; `barcode` wraps them.

Point queries read the bars.  By the pairing lemma
(Edelsbrunner-Harer, ch. VII), `mu(j, p)` is the multiplicity of the
bar [j, p) and `mu_infinity(j)` that of [j, inf), one lookup each, and
`persistent_betti(j, p)` is the number of bars born <= j that die
after p.  It reads row j of beta, built once from the bars born by j,
their deaths counted by level and summed from the end, O(bars + m),
and kept on the filtration from j to m.  A warm point query is one
inline test and a read or two: plain ints pass the test, and any other
argument meets the full checks, which raise or accept it as they would
alone.  Above the top dimension no n-cell lives and every answer is 0:
nothing is reduced, built or kept.

The reference path, the paper's rank formula, is in `ranks`, which
shares no code with the reduction: `betti_table`,
`check_fundamental_lemma` and `persistent_betti_simplified` stay here as
the public names and import it inside their bodies, so a process that
runs only barcodes and point queries never compiles it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Container, Sequence
from itertools import accumulate, combinations

from ._value import Value, _require_dim, _require_integer
from .filtration import Filtration

TYPE_CHECKING = False  # no `typing` import at run time: type checkers read it as True
if TYPE_CHECKING:
    from .ranks import LemmaReport

INFINITE_DEATH = math.inf


class PersistencePair(Value, order=True):
    """A birth-death interval [birth, death) with a multiplicity.

    ``death`` is a level index, or ``math.inf`` for classes that never
    die; the float infinity sorts after every finite level.
    """

    birth: int
    death: int | float
    multiplicity: int

    def __post_init__(self) -> None:
        if self.birth < 0:
            raise ValueError(f"negative birth {self.birth}")
        if self.birth >= self.death:
            raise ValueError(f"birth {self.birth} not before death {self.death}")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity {self.multiplicity} < 1")

    @property
    def is_infinite(self) -> bool:
        return self.death == INFINITE_DEATH

    def spans(self, k: int, l: int) -> bool:
        """Whether the interval covers [k, l]: birth <= k and death > l."""
        return self.birth <= k and self.death > l

    def __str__(self) -> str:
        death = "inf" if self.is_infinite else str(self.death)
        return f"[{self.birth},{death})"


class Barcode(Value):
    """All intervals of one homology dimension, sorted by (birth, death)."""

    dimension: int
    pairs: tuple[PersistencePair, ...]

    def total_bars(self) -> int:
        return sum(p.multiplicity for p in self.pairs)

    def betti_at(self, k: int, l: int) -> int:
        """Number of intervals (with multiplicity) spanning [k, l]."""
        return sum(p.multiplicity for p in self.pairs if p.spans(k, l))


def _bar_row(f: Filtration, n: int, j: int) -> list[int]:
    """beta(j, p) for p = j..m, at index p - j: the bars born <= j that die after p.

    The deaths of the bars born by j and alive at j are counted by
    level, m + 1 for those that never die, and summed from the end.
    """
    m = f.m
    deaths = [0] * (m + 1 - j)  # at levels j + 1..m + 1
    for (birth, death), count in _bars(f, n).items():
        if birth <= j < death:
            deaths[min(death, m + 1) - j - 1] += count
    return list(accumulate(reversed(deaths)))[::-1]


def persistent_betti(f: Filtration, n: int, j: int, p: int) -> int:
    """Number of degree-n classes of K^j still alive at K^p.

    beta(j, p), the bars born <= j that die after p, read off row j of
    beta, which `_bar_row` builds on first use and the filtration keeps.
    """
    if not (type(n) is int is type(j) is type(p)
            and 0 <= n and 0 <= j <= p < len(f._levels)):
        _require_dim(n)
        f.check_level_pair(j, p)
    row = f._rows.get((n, j))
    if row is None:
        if not f._cells(n):  # above the top dimension: no bar, and nothing is kept
            return 0
        row = f._rows[n, j] = _bar_row(f, n, j)
    return row[p - j]


def persistent_betti_simplified(f: Filtration, n: int, j: int, p: int) -> int:
    """Algebraically reduced form of :func:`persistent_betti`, in matrix form.

    rank [D_{n+1}(K^p) | I N_n(K^j)] - rank D_{n+1}(K^p), with the cycle
    basis N_n(K^j) pushed forward by the inclusion matrix I
    (`ranks.matrix_form`).  It shares no boundary code with the prefix
    form, which reads K^m's kept columns and takes no level, no kernel
    basis, no inclusion and no `rank`, nor with the reduction, so each
    checks the others; they must agree on every input.
    """
    from .ranks import matrix_form

    return matrix_form(f, n, j, p)


def betti_table(f: Filtration, n: int) -> dict[tuple[int, int], int]:
    """persistent_betti over the whole (j, p) grid, j <= p, by the rank formula."""
    from .ranks import _betti_grid

    _require_dim(n)
    return {(j, p): row[p] for j, row in _betti_grid(f, n) for p in range(j, f.m + 1)}


def mu(f: Filtration, n: int, j: int, p: int) -> int:
    """Count of degree-n classes born exactly at K^j that die entering K^p.

    The multiplicity of the bar [j, p), which the pairing lemma equates
    with the paper's (beta(j, p-1) - beta(j, p)) - (beta(j-1, p-1) -
    beta(j-1, p)); `check_fundamental_lemma` holds the two against each
    other.
    """
    if not (type(n) is int is type(j) is type(p) and 0 <= n):
        _require_dim(n)
        _require_integer("level j", j)
        _require_integer("level p", p)
    if not 0 <= j < p < len(f._levels):
        raise ValueError(f"need 0 <= j < p <= {f.m}, got j={j}, p={p}")
    return (f._bars[n] if n in f._bars else _bars(f, n)).get((j, p), 0)


def mu_infinity(f: Filtration, n: int, j: int) -> int:
    """Count of degree-n classes born exactly at K^j that never die.

    The multiplicity of the bar [j, inf), which the pairing lemma
    equates with beta(j, m) - beta(j-1, m).
    """
    if not (type(n) is int is type(j) and 0 <= n):
        _require_dim(n)
        _require_integer("level j", j)
    if not 0 <= j < len(f._levels):
        raise ValueError(f"need 0 <= j <= {f.m}, got j={j}")
    return (f._bars[n] if n in f._bars else _bars(f, n)).get((j, INFINITE_DEATH), 0)


def _boundary_columns(
    cells: Sequence[tuple[tuple[int, ...], int]], faces: Sequence[tuple[tuple[int, ...], int]]
) -> list[int]:
    """The boundary of each cell as a bitset over the indices of ``faces``."""
    if not faces:  # the cells are vertices, or there are none
        return [0] * len(cells)
    row_of = {verts: r for r, (verts, _) in enumerate(faces)}
    columns = []
    for verts, _ in cells:
        bits = 0
        for face in combinations(verts, len(verts) - 1):
            bits |= 1 << row_of[face]
        columns.append(bits)
    return columns


def _reduce(columns: list[int], cleared: Container[int]) -> dict[int, int]:
    """Reduce the columns left to right; return {pivot row: column}.

    A column's pivot is its lowest (highest-index) nonzero row.  Earlier
    reduced columns are added to it until its pivot is new or it is
    zero.  Columns in ``cleared`` are known to reduce to zero and are
    skipped.
    """
    pivots: dict[int, int] = {}
    reduced: dict[int, int] = {}
    for c, col in enumerate(columns):
        if c in cleared:
            continue
        while col:
            low = col.bit_length() - 1
            if low not in reduced:
                reduced[low] = col
                pivots[low] = c
                break
            col ^= reduced[low]
    return pivots


def _pivots(f: Filtration, d: int) -> dict[int, int]:
    """{pivot row: column} of the reduced D_d, kept on the filtration.

    The pivots do not depend on clearing; D_d is cleared by D_{d+1}'s
    pivots when those are kept already, and no other reduction is run.
    """
    if d not in f._pivots:
        columns = _boundary_columns(f._cells(d), f._cells(d - 1))
        f._pivots[d] = _reduce(columns, f._pivots.get(d + 1, ()))
    return f._pivots[d]


def _top_down(run, f: Filtration, dims) -> list:
    """[run(f, n) for n in dims], run top down: each reduction is cleared by the one above.

    The order is the caller's, not `_pivots`'s: a `_pivots(f, d)` that
    reduced D_{d+1} first would reduce every dimension above d, though
    one barcode reads only D_n and D_{n+1}.  Tried, it made `barcode -n
    0` on `gen -t 3000 -l 10 -s 1` go from 16.4-17.0 to 20.4-24.1 ms,
    and from 69-79 to 100-101 ms at T = 10,000 (Python 3.11.7).
    """
    return [run(f, n) for n in reversed(dims)][::-1]


def _bars(f: Filtration, n: int) -> dict[tuple[int, int | float], int]:
    """{(birth, death): multiplicity} of the degree-n bars, kept on the filtration.

    Reduces the degree-(n+1) boundary columns, then the degree-n ones
    with clearing: an n-simplex that is a pivot of degree n+1 creates a
    class, so its column is skipped.  A reduction kept from an earlier
    call is read, not run again.  Each pivot (i, c) is the interval
    [birth of i, birth of c), dropped when both are born at one level;
    an n-simplex whose column reduces to zero and that is no pivot is a
    class that never dies.  Above the top dimension there is no bar,
    and nothing is reduced or kept.
    """
    if n in f._bars or not f._cells(n):
        return f._bars.get(n, {})
    deaths = _pivots(f, n + 1)
    negative = set(_pivots(f, n).values())
    cells, above = f._cells(n), f._cells(n + 1)
    bars: Counter[tuple[int, int | float]] = Counter()
    for i, c in deaths.items():
        birth, death = cells[i][1], above[c][1]
        if birth < death:
            bars[(birth, death)] += 1
    for i, (_, birth) in enumerate(cells):
        if i not in deaths and i not in negative:
            bars[(birth, INFINITE_DEATH)] += 1
    f._bars[n] = bars
    return bars


def barcode(f: Filtration, n: int) -> Barcode:
    """The degree-n barcode: every interval with positive multiplicity, from `_bars`."""
    _require_dim(n)
    pairs = sorted(_bars(f, n).items())
    return Barcode(n, tuple(PersistencePair(b, d, k) for (b, d), k in pairs))


def check_fundamental_lemma(f: Filtration, n: int) -> LemmaReport:
    """Check the rank grid of degree n against the reduction's barcode (`ranks.lemma_report`).

    The barcode is read through this module's `barcode`, so a wrapper
    set on it is the one called.
    """
    from .ranks import lemma_report

    return lemma_report(f, n, barcode(f, n).pairs)


def __getattr__(name: str):
    """`LemmaReport` and `LemmaViolation`, from `ranks` on first use (PEP 562)."""
    if name in ("LemmaReport", "LemmaViolation"):
        from . import ranks

        return getattr(ranks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
