"""The paper's rank formula: the reference path held against the reduction.

It shares no code with the reduction in `persistence`.  The degree-n
classes of level j that are still alive at level p form a quotient
space: the cycles of K^j modulo the boundaries of K^p they meet.  Its
dimension is obtained from the degree-n boundary matrix of K^j, the
degree-(n+1) boundary matrix of K^p, and the inclusion between the two
n-simplex bases.  One builder, `_beta`, evaluates the formula one birth
row at a time, at every death level, and builds no level: the
filtration keeps, per dimension, the boundary matrix of the last level
K^m with rows and columns in birth order, of which every level's is a
prefix.  A row of beta is z[j] - rank_g[q] + rank_later(j, q) for q =
0..m, from one sweep: rank_later(j, q) is the rank of the boundaries of
K^q on the rows born after j (the lower-left submatrices of
Edelsbrunner-Harer's pairing lemma), swept from the first column born
after j; a sweep counts the columns that raise the rank by level and
sums the counts, so a rank is one index in a row.  The sweep from birth
-1 is rank_g, the rank of D_{n+1}(K^q) at every level, and z[j], the
cycle count of K^j, is the n-cells born by j less dimension n-1's
rank_g.  `betti_table` and `check_fundamental_lemma` read rows of beta
from `_betti_grid`, which computes z and rank_g once per grid and keeps
nothing on the filtration, as lists over the death levels 0..m+1, 0
below the birth and at m+1, past the last level, so their memory stays
linear in m.  `lemma_report` takes the paper's finite difference of
four persistent Betti numbers (Zomorodian-Carlsson), (beta(j, p-1) -
beta(j, p)) - (beta(j-1, p-1) - beta(j-1, p)), on two rows at a time,
from a row of zeros for birth -1, and holds each method against the
other.  `matrix_form` keeps the per-pair matrix form of
`persistent_betti_simplified` on the two levels: a kernel basis, the
inclusion matrix, its product, `rank`.

`persistence` keeps the public functions, `betti_table`,
`check_fundamental_lemma` and `persistent_betti_simplified`, and each
imports this module inside its body, so a process that runs only the
reduction and the point queries never compiles it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate
from operator import sub

from ._value import Value, _require_dim
from .filtration import Filtration

TYPE_CHECKING = False  # no `typing` import at run time: type checkers read it as True
if TYPE_CHECKING:
    from .persistence import PersistencePair


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


def matrix_form(f: Filtration, n: int, j: int, p: int) -> int:
    """rank [D_{n+1}(K^p) | I N_n(K^j)] - rank D_{n+1}(K^p), on the two levels' matrices."""
    _require_dim(n)
    f.check_level_pair(j, p)
    d = f[p].boundary_matrix(n + 1)
    pushed = f.inclusion_matrix(n, j, p) @ f[j].boundary_matrix(n).kernel_basis()
    return d.hstack(pushed).rank() - d.rank()


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


def lemma_report(f: Filtration, n: int, bars: Sequence[PersistencePair]) -> LemmaReport:
    """The rank grid of degree n against ``bars``, the reduction's barcode, by birth.

    Walks the rows of beta in birth order and holds two of them, k-1 and k,
    with one running row of the bars born <= k alive at each level.  The
    multiplicity mu(k, p) is written once, as the paper's difference
    (beta(k, p-1) - beta(k, p)) - (beta(k-1, p-1) - beta(k-1, p)): the
    row before birth 0 is all zeros, and at p = m+1, where beta is 0, it
    counts the classes born at k that never die.
    """
    m, i = f.m, 0
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
