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

The reference path follows the paper's rank formula, and shares no
code with the reduction.  The degree-n classes of level j that are
still alive at level p form a quotient space: the cycles of K^j modulo
the boundaries of K^p they meet.  Its dimension is obtained from the
degree-n boundary matrix of K^j, the degree-(n+1) boundary matrix of
K^p, and the inclusion between the two n-simplex bases.  One builder,
`_beta`, evaluates the formula one birth row at a time, at every death
level, and builds no level: the filtration keeps, per dimension, the
boundary matrix of the last level K^m with rows and columns in birth
order, of which every level's is a prefix.  A row of beta is z[j] -
rank_g[q] + rank_later(j, q) for q = 0..m, from one sweep:
rank_later(j, q) is the rank of the boundaries of K^q on the rows born
after j (the lower-left submatrices of Edelsbrunner-Harer's pairing
lemma), swept from the first column born after j; a sweep counts the
columns that raise the rank by level and sums the counts, so a rank is
one index in a row.  The sweep from birth -1 is rank_g, the rank of
D_{n+1}(K^q) at every level, and z[j], the cycle count of K^j, is the
n-cells born by j less dimension n-1's rank_g.  `betti_table` and
`check_fundamental_lemma` read rows of beta from `_betti_grid`, which
computes z and rank_g once per grid and keeps nothing on the
filtration, as lists over the death levels 0..m+1, 0 below the birth
and at m+1, past the last level, so their memory stays linear in m.
`check_fundamental_lemma` takes the paper's finite difference of four
persistent Betti numbers (Zomorodian-Carlsson), (beta(j, p-1) -
beta(j, p)) - (beta(j-1, p-1) - beta(j-1, p)), on two rows at a time,
from a row of zeros for birth -1, and holds each method against the
other.  `persistent_betti_simplified` keeps the per-pair matrix form
on the two levels: a kernel basis, the inclusion matrix, its product,
`rank`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Container, Iterator, Sequence
from itertools import accumulate, combinations
from operator import sub

from ._value import Value
from .complexes import _require_dim, _require_integer
from .filtration import Filtration

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


def _insert(pivots: dict[int, int], col: int) -> bool:
    """Reduce a column against {last nonzero row: column}; keep it if nonzero, and say so."""
    while col:
        low = col.bit_length() - 1
        if low not in pivots:
            pivots[low] = col
            return True
        col ^= pivots[low]
    return False


def _beta(f: Filtration, n: int, j: int, z: list[int], rank_g: list[int]) -> list[int]:
    """beta(j, q) for q = 0..m, 0 below j, from one sweep and the grid's z and rank_g.

    z[j] - rank_g[q] + rank_later(j, q), the paper's z - (rank_g + z -
    rank_stacked): the cycles of K^j stacked with the boundaries of K^q
    have rank z + rank_later.  rank_later(j, q) is the rank of
    D_{n+1}(K^q) on the rows of the n-simplices born after j, a
    lower-left submatrix rank of Edelsbrunner-Harer's pairing lemma,
    and the boundaries of K^q that are cycles of K^j span rank_g -
    rank_later of them.
    """
    later = accumulate(_sweep(f, n, j)[j + 1:], initial=z[j])  # z + rank_later(j, q), q >= j
    return [0] * j + list(map(sub, later, rank_g[j:]))


def _sweep(f: Filtration, n: int, j: int) -> list[int]:
    """The raises of rank_later(j, q) at each level q = 0..m, and keep nothing.

    A D_{n+1} column born <= j has no face born after j, so it is 0 on
    those rows and rank_later(j, q) is 0 for q <= j: the columns born
    after j are shifted past the rows born by j and inserted, and those
    that raise the rank are counted by level, so rank_later(j, q) is
    the sum of the counts up to q.  At j = -1 no row is shifted off,
    and the sums are rank D_{n+1}(K^q).
    """
    born, columns = f._birth_columns(n + 1)
    start = bisect_right(born, j)
    shift = bisect_right(f._birth_columns(n)[0], j) if j >= 0 else 0
    pivots: dict[int, int] = {}
    raises = [0] * (f.m + 1)
    for birth, col in zip(born[start:], columns[start:]):
        if _insert(pivots, col >> shift):
            raises[birth] += 1
    return raises


def _rank_g(f: Filtration, n: int) -> list[int]:
    """rank_g, the rank of D_{n+1}(K^q) for q = 0..m: the sums of the sweep from birth -1.

    At n = -1 it is 0 at every level, as D_0 has no rows, and nothing is swept.
    """
    return list(accumulate(_sweep(f, n, -1))) if n >= 0 else [0] * (f.m + 1)


def _z(f: Filtration, n: int) -> list[int]:
    """z[j], the dimension of the degree-n cycles of K^j, for j in 0..m.

    The n-cells born by j, counted by level and summed, less rank
    D_n(K^j), dimension n - 1's rank_g.
    """
    cells = [0] * (f.m + 1)
    for birth in f._birth_columns(n)[0]:
        cells[birth] += 1
    return [c - r for c, r in zip(accumulate(cells), _rank_g(f, n - 1))]


def _betti_grid(f: Filtration, n: int) -> Iterator[tuple[int, list[int]]]:
    """persistent_betti by birth row: (j, row), j ascending, row[p] = beta(j, p).

    Each row is a new list of m+2 entries: beta(j, p) for j <= p <= m,
    and 0 below j and at m+1, where no class lives past the last level.
    z and rank_g are computed once per grid, and nothing is kept, so
    the grid's memory stays linear in m.  Above the top dimension every
    row is zeros, and nothing is swept.
    """
    m = f.m
    if not f._cells(n):
        yield from ((j, [0] * (m + 2)) for j in range(m + 1))
        return
    z, rank_g = _z(f, n), _rank_g(f, n)
    for j in range(m + 1):
        yield j, _beta(f, n, j, z, rank_g) + [0]


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
    basis N_n(K^j) pushed forward by the inclusion matrix I.  It shares
    no boundary code with the prefix form, which reads K^m's kept
    columns and takes no level, no kernel basis, no inclusion and no
    `rank`, nor with the reduction, so each checks the others; they
    must agree on every input.
    """
    _require_dim(n)
    f.check_level_pair(j, p)
    d = f[p].boundary_matrix(n + 1)
    pushed = f.inclusion_matrix(n, j, p) @ f[j].boundary_matrix(n).kernel_basis()
    return d.hstack(pushed).rank() - d.rank()


def betti_table(f: Filtration, n: int) -> dict[tuple[int, int], int]:
    """persistent_betti over the whole (j, p) grid, j <= p, by the rank formula."""
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


class LemmaViolation(Value):
    """One failed check at grid point (k, l).

    A "negative-count" multiplicity is born at k and dies at l; those
    that never die come after the finite ones, with l = m + 1, the
    death past the last level.
    """

    kind: str  # "barcode-span" | "negative-count"
    k: int
    l: int
    expected: int
    actual: int

    def __str__(self) -> str:
        return (
            f"{self.kind} at (k={self.k}, l={self.l}): "
            f"expected {self.expected}, got {self.actual}"
        )


class LemmaReport(Value):
    """Outcome of holding the rank grid against the reduction in one degree.

    Every multiplicity of the rank grid must be a count (>= 0), and for
    every 0 <= k <= l <= m its persistent Betti number must equal the
    number of intervals of the reduction's barcode spanning [k, l].
    Failures are reported as violations rather than raised.
    """

    dimension: int
    last_level: int
    pairs_checked: int
    violations: tuple[LemmaViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_fundamental_lemma(f: Filtration, n: int) -> LemmaReport:
    """Check the rank grid of degree n against the reduction's barcode.

    Walks the rows of beta in birth order and holds two of them, k-1 and k,
    with one running row of the bars born <= k alive at each level.  The
    multiplicity mu(k, p) is written once, as the paper's difference
    (beta(k, p-1) - beta(k, p)) - (beta(k-1, p-1) - beta(k-1, p)): the
    row before birth 0 is all zeros, and at p = m+1, where beta is 0, it
    counts the classes born at k that never die.
    """
    m, bars, i = f.m, barcode(f, n).pairs, 0  # the bars by birth
    finite, never_dying, spans, before = [], [], [], [0] * (m + 2)
    spanning = [0] * (m + 1)
    for k, row in _betti_grid(f, n):
        for p in range(k + 1, m + 2):
            count = (row[p - 1] - row[p]) - (before[p - 1] - before[p])
            if count < 0:
                violation = LemmaViolation("negative-count", k, p, 0, count)
                (finite if p <= m else never_dying).append(violation)
        while i < len(bars) and bars[i].birth <= k:
            for l in range(k, min(bars[i].death, m + 1)):
                spanning[l] += bars[i].multiplicity
            i += 1
        spans += [
            LemmaViolation("barcode-span", k, l, row[l], spanning[l])
            for l in range(k, m + 1)
            if row[l] != spanning[l]
        ]
        before = row
    violations = tuple(finite + never_dying + spans)
    return LemmaReport(n, m, (m + 1) * (m + 2) // 2, violations)
