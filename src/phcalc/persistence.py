"""Persistent Betti numbers, interval multiplicities, and barcodes.

All quantities are computed exactly over GF(2), by two independent
methods.

Point queries follow the paper's rank formula.  The degree-n classes
of level j that are still alive at level p form a quotient space: the
cycles of K^j modulo the boundaries of K^p they meet.  Its dimension
is obtained from the degree-n boundary matrix of K^j, the
degree-(n+1) boundary matrix of K^p, and the inclusion between the
two n-simplex bases.  One helper evaluates the formula one birth row
at a time, at every death level, and builds no level: the
filtration keeps, per dimension, the boundary matrix of the last level
K^m with rows and columns in birth order, of which every level's is a
prefix.  Every rank it needs is read off one kind of swept row: the
births of the columns that raise the rank of the boundaries on the
rows born after j (the lower-left submatrices of Edelsbrunner-Harer's
pairing lemma), swept from the first column born after j.  A rank is
one bisect in a row.  The row of birth -1 is the rank of D_d at every
level; it is swept once per dimension and kept on the filtration.
`betti_table` and `check_fundamental_lemma` read the helper's rows.
The cycle count z(j) is read by `_cycles`: the n-cells born by j less
the raises of D_n's row of birth -1 up to j.  The helper reads it once
per birth row, the point queries read no grid, and `mu_infinity`
telescopes z(j) - z(j-1) on its own.
`persistent_betti` takes its one number off three swept rows, by one
bisect each: D_n's row -1 through `_cycles`, D_{n+1}'s row -1 for
rank_g, and row j.
Interval multiplicities are a finite difference of four persistent
Betti numbers (Zomorodian-Carlsson), in which the cycle count and
rank_g cancel, so `mu` and `mu_infinity` count the raises of two
adjacent swept rows.  The point queries keep each birth row they
sweep, up to the furthest death asked for that birth, so a later
query inside it sweeps nothing; `betti_table` and
`check_fundamental_lemma` keep no row of a birth >= 0, so their memory
stays linear in m.  The helper's rows are lists indexed by death
level, 0 below the birth and at m+1, past the last level, and
`check_fundamental_lemma` takes the finite difference as written, on
two of them at a time, from a row of zeros for birth -1.
`persistent_betti_simplified` keeps the per-pair matrix form on the
two levels: a kernel basis, the inclusion matrix, its product, `rank`.

Barcodes come from one column reduction of the filtered boundary
matrix (Edelsbrunner-Letscher-Zomorodian; Zomorodian-Carlsson), with
clearing (Chen-Kerber): each pivot pairs the birth of a class with its
death.  It reads births from the filtration's table and builds no
level, and the filtration keeps each dimension's pivots, so the
barcodes of every dimension reduce each boundary matrix once.
`check_fundamental_lemma` holds each method against the other.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Container, Iterator
from itertools import combinations, compress

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


def _later_raises(f: Filtration, n: int, j: int, p: int, keep: bool = False) -> list[int]:
    """The births of the D_{n+1} columns born after j that raise rank_later(j, .).

    rank_later(j, q) is the rank of D_{n+1}(K^q) on the rows of the
    n-simplices born after j; a column born <= j is 0 there.  For q <= p
    it is the count of the births returned that are <= q.  At j = -1 no
    row is born by j, so none is shifted off and D_n's births are not
    read: rank_later(-1, q) is rank D_{n+1}(K^q).  The filtration keeps
    rows as {(n, j): (reach, the births up to reach)}, O(rank) integers
    each.  A kept row that reaches p is read, not swept; otherwise the
    columns born in (j, p] are swept, and their row is kept if ``keep``
    is true or j is -1, whose row is rank D_{n+1} at every level.
    """
    reach, raised = f._later.get((n, j), (-1, None))
    if reach >= p:
        return raised
    born, columns = f._birth_columns(n + 1)
    start, end = bisect_right(born, j), bisect_right(born, p)
    shift = bisect_right(f._birth_columns(n)[0], j) if j >= 0 else 0
    pivots: dict[int, int] = {}
    raises = [_insert(pivots, col >> shift) for col in columns[start:end]]
    raised = list(compress(born[start:end], raises))
    if keep or j < 0:
        f._later[(n, j)] = (p, raised)
    return raised


def _cycles(f: Filtration, n: int, j: int) -> int:
    """z(j), the dimension of the degree-n cycles of K^j; 0 at j = -1.

    The n-cells born by j less rank D_n(K^j), the raises of D_n's row of
    birth -1 up to j.  The grid and `persistent_betti` read z here;
    `mu_infinity` telescopes z(j) - z(j-1) into one count of the cells
    born at j and one of the raises at j, because two reads through here
    made a warm `mu_infinity` go from 1.93-1.99 to 2.30-2.32 us on the
    benchmark's `queries` input (in process, Python 3.11.7).
    """
    raised_n = _later_raises(f, n - 1, -1, f.m)
    return bisect_right(f._birth_columns(n)[0], j) - bisect_right(raised_n, j)


def _betti_grid(f: Filtration, n: int) -> Iterator[tuple[int, list[int]]]:
    """persistent_betti by birth row: (j, row), j ascending, row[p] = beta(j, p).

    Each row is a list of m+2 entries: beta(j, p) for j <= p <= m, and 0
    below j and at m+1, where no class lives past the last level.

    The filtration keeps D_n(K^m) and D_{n+1}(K^m) with rows and columns
    in (birth, vertices) order, in which every level is a prefix of K^m.
    Inserting the columns born at or before a level gives rank D_n(K^j),
    hence the z cycles of K^j, and rank_g, the rank of the boundaries of
    K^p: a column born <= p has no face born after p.  The boundaries
    that are cycles of K^j, those that are 0 on the rows born after j,
    span rank_g - rank_later: rank_later is the rank of D_{n+1}(K^p) on
    the rows from the count of n-simplices born <= j up, a lower-left
    submatrix rank of Edelsbrunner-Harer's pairing lemma, swept from the
    first column born after j, as every earlier one is 0 on those rows.
    The cycles of K^j stacked with the boundaries of K^p have rank z +
    rank_later, so this is the paper's z - (rank_g + z - rank_stacked).
    z is `_cycles`'s, once per row, and rank_g is the row of birth -1 of
    dimension n, kept once swept.  Every rank is one bisect in a row of
    raises, rank_g's once per level.  Each birth row reaches m and is
    not kept, so the grid's memory stays linear in m.
    """
    m, raised_g = f.m, _later_raises(f, n, -1, f.m)
    rank_g = [bisect_right(raised_g, p) for p in range(m + 1)]
    for j in range(m + 1):
        z = _cycles(f, n, j)
        raised = _later_raises(f, n, j, m)
        yield j, [0] * j + [z - rank_g[p] + bisect_right(raised, p) for p in range(j, m + 1)] + [0]


def persistent_betti(f: Filtration, n: int, j: int, p: int) -> int:
    """Number of degree-n classes of K^j still alive at K^p.

    z(j) - rank_g(p) + rank_later(j, p), the form `_betti_grid` derives,
    read off three swept rows: D_n's row -1 at j for the cycles, through
    `_cycles`, D_{n+1}'s row -1 at p for rank_g, and row j, kept, at p.
    """
    _require_dim(n)
    f.check_level_pair(j, p)
    z, rank_g = _cycles(f, n, j), bisect_right(_later_raises(f, n, -1, f.m), p)
    return z - rank_g + bisect_right(_later_raises(f, n, j, p, keep=True), p)


def persistent_betti_simplified(f: Filtration, n: int, j: int, p: int) -> int:
    """Algebraically reduced form of :func:`persistent_betti`, in matrix form.

    rank [D_{n+1}(K^p) | I N_n(K^j)] - rank D_{n+1}(K^p), with the cycle
    basis N_n(K^j) pushed forward by the inclusion matrix I.  It shares
    no boundary code with the prefix form, which reads K^m's kept
    columns and takes no level, no kernel basis, no inclusion and no
    `rank`, so each checks the other; the two must agree on every input.
    """
    _require_dim(n)
    f.check_level_pair(j, p)
    d = f[p].boundary_matrix(n + 1)
    pushed = f.inclusion_matrix(n, j, p) @ f[j].boundary_matrix(n).kernel_basis()
    return d.hstack(pushed).rank() - d.rank()


def betti_table(f: Filtration, n: int) -> dict[tuple[int, int], int]:
    """persistent_betti over the whole (j, p) grid, j <= p."""
    _require_dim(n)
    return {(j, p): row[p] for j, row in _betti_grid(f, n) for p in range(j, f.m + 1)}


def _raised(f: Filtration, n: int, j: int, p: int) -> int:
    """How many D_{n+1} columns born at p raise row j of degree n.

    That is rank_later(j, p) - rank_later(j, p - 1).  Row j is kept,
    reaching p; row -1, whose raises are rank_g's, reaches m.
    """
    raised = _later_raises(f, n, j, p if j >= 0 else f.m, keep=True)
    return bisect_right(raised, p) - bisect_left(raised, p)


def mu(f: Filtration, n: int, j: int, p: int) -> int:
    """Count of degree-n classes born exactly at K^j that die entering K^p.

    (beta(j, p-1) - beta(j, p)) - (beta(j-1, p-1) - beta(j-1, p)).  With
    beta(j, p) = z(j) - rank_g(p) + rank_later(j, p), the z and rank_g
    terms cancel, which leaves the raises of row j-1 at p minus those of
    row j at p; row -1 is rank_g's, so the beta terms at birth level -1
    are 0.  Only a wrong row could make it negative, and nothing here
    checks it: `check_fundamental_lemma` finds "negative-count"
    violations on the grid rows, where it takes the same difference.
    """
    _require_dim(n)
    _require_integer("level j", j)
    _require_integer("level p", p)
    if not 0 <= j < p <= f.m:
        raise ValueError(f"need 0 <= j < p <= {f.m}, got j={j}, p={p}")
    return _raised(f, n, j - 1, p) - _raised(f, n, j, p)


def mu_infinity(f: Filtration, n: int, j: int) -> int:
    """Count of degree-n classes born exactly at K^j that never die.

    beta(j, m) - beta(j-1, m): the classes of K^j alive at the final
    level, minus those already present one level earlier.  rank_g
    cancels, z(j) - z(j-1) is the n-cells born at j less the raises of
    D_n's row -1 at j (telescoped, not two `_cycles` reads), and the
    rank_later terms are rows j and j-1, which reach m, so each is its
    length.
    """
    _require_dim(n)
    _require_integer("level j", j)
    if not 0 <= j <= f.m:
        raise ValueError(f"need 0 <= j <= {f.m}, got j={j}")
    cells, m = f._birth_columns(n)[0], f.m
    born = bisect_right(cells, j) - bisect_left(cells, j)
    later = len(_later_raises(f, n, j, m, keep=True))
    later -= len(_later_raises(f, n, j - 1, m, keep=True))
    return born - _raised(f, n - 1, -1, j) + later


def _boundary_columns(
    cells: list[tuple[tuple[int, ...], int]], faces: list[tuple[tuple[int, ...], int]]
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
        columns = _boundary_columns(f.births(d), f.births(d - 1))
        f._pivots[d] = _reduce(columns, f._pivots.get(d + 1, ()))
    return f._pivots[d]


def barcode(f: Filtration, n: int) -> Barcode:
    """The degree-n barcode: every interval with positive multiplicity.

    Reduces the degree-(n+1) boundary columns, then the degree-n ones
    with clearing: an n-simplex that is a pivot of degree n+1 creates a
    class, so its column is skipped.  A reduction kept from an earlier
    barcode is read, not run again.  Each pivot (i, c) is the interval
    [birth of i, birth of c), dropped when both are born at one level;
    an n-simplex whose column reduces to zero and that is no pivot is a
    class that never dies.
    """
    _require_dim(n)
    deaths = _pivots(f, n + 1)
    negative = set(_pivots(f, n).values())
    cells, above = f.births(n), f.births(n + 1)
    counts: Counter[tuple[int, int | float]] = Counter()
    for i, c in deaths.items():
        birth, death = cells[i][1], above[c][1]
        if birth < death:
            counts[(birth, death)] += 1
    for i, (_, birth) in enumerate(cells):
        if i not in deaths and i not in negative:
            counts[(birth, INFINITE_DEATH)] += 1
    return Barcode(
        n, tuple(PersistencePair(b, d, k) for (b, d), k in sorted(counts.items()))
    )


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

    Walks the rank rows in birth order and holds two of them, k-1 and k,
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
