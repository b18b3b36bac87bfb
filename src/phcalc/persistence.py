"""Persistent Betti numbers, interval multiplicities, and barcodes.

All quantities are computed exactly over GF(2), by two independent
methods.

Point queries follow the paper's rank formula.  The degree-n classes
of level j that are still alive at level p form a quotient space: the
cycles of K^j, pushed into K^p along the basis inclusion, modulo the
boundaries of K^p they meet.  Its dimension is obtained from three
matrices per (j, p) query: the degree-n boundary matrix of K^j, the
degree-(n+1) boundary matrix of K^p, and the inclusion matrix between
the two n-simplex bases.  `persistent_betti`, `betti_table`, `mu` and
`mu_infinity` use it.

Barcodes come from one column reduction of the filtered boundary
matrix (Edelsbrunner-Letscher-Zomorodian; Zomorodian-Carlsson), with
clearing (Chen-Kerber): each pivot pairs the birth of a class with its
death.  `check_fundamental_lemma` holds each method against the other.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Container

from .filtration import Filtration

INFINITE_DEATH = math.inf


class NegativeMuError(RuntimeError):
    """An interval multiplicity came out negative.

    This signals a non-filtration input or an implementation fault;
    multiplicities of genuine filtrations are counts.  `barcode` counts
    pivots, so it cannot produce one; `check_fundamental_lemma` reports
    a negative rank-grid multiplicity as a "negative-count" violation.
    """

    def __init__(self, n: int, j: int, p: int | float, value: int):
        super().__init__(
            f"negative interval multiplicity {value} at dimension {n}, "
            f"birth {j}, death {p}"
        )
        self.n = n
        self.j = j
        self.p = p
        self.value = value


@dataclass(frozen=True, order=True)
class PersistencePair:
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


@dataclass(frozen=True)
class Barcode:
    """All intervals of one homology dimension, sorted by (birth, death)."""

    dimension: int
    pairs: tuple[PersistencePair, ...]

    def total_bars(self) -> int:
        return sum(p.multiplicity for p in self.pairs)

    def betti_at(self, k: int, l: int) -> int:
        """Number of intervals (with multiplicity) spanning [k, l]."""
        return sum(p.multiplicity for p in self.pairs if p.spans(k, l))


def _pbetti_ranks(f: Filtration, n: int, j: int, p: int) -> tuple[int, int, int]:
    """(z, rank_g, rank_stacked) for one persistent-Betti query.

    z is the cycle-space dimension at level j; rank_g the boundary-space
    rank at level p; rank_stacked the rank of the boundary columns of
    K^p adjoined with the pushed-forward cycle basis of K^j.
    """
    d_f = f[j].boundary_matrix(n)
    d_g = f[p].boundary_matrix(n + 1)
    kernel = d_f.kernel_basis()
    pushed = f.inclusion_matrix(n, j, p) @ kernel
    return kernel.cols, d_g.rank(), d_g.hstack(pushed).rank()


def persistent_betti(f: Filtration, n: int, j: int, p: int) -> int:
    """Number of degree-n classes of K^j still alive at K^p.

    Computed as z - (rank_g + z - rank_stacked): the cycle dimension at
    level j minus the dimension of the intersection of the pushed
    cycles with the boundaries of level p.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    f.check_level_pair(j, p)
    z, rank_g, rank_stacked = _pbetti_ranks(f, n, j, p)
    return z - (rank_g + z - rank_stacked)


def persistent_betti_simplified(f: Filtration, n: int, j: int, p: int) -> int:
    """Algebraically reduced form of :func:`persistent_betti`.

    rank_stacked - rank_g.  Kept as an independent cross-check of the
    bookkeeping form; the two must agree on every input.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    f.check_level_pair(j, p)
    _, rank_g, rank_stacked = _pbetti_ranks(f, n, j, p)
    return rank_stacked - rank_g


def betti_table(f: Filtration, n: int) -> dict[tuple[int, int], int]:
    """persistent_betti over the whole (j, p) grid, j <= p.

    Shares the per-level matrices across the grid: each level's cycle
    basis and boundary rank are computed once, not once per pair.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    kernels = [f[j].boundary_matrix(n).kernel_basis() for j in range(len(f))]
    bounds = [f[p].boundary_matrix(n + 1) for p in range(len(f))]
    ranks = [d.rank() for d in bounds]
    table: dict[tuple[int, int], int] = {}
    for j in range(len(f)):
        z = kernels[j].cols
        for p in range(j, len(f)):
            pushed = f.inclusion_matrix(n, j, p) @ kernels[j]
            rank_stacked = bounds[p].hstack(pushed).rank()
            table[(j, p)] = z - (ranks[p] + z - rank_stacked)
    return table


def mu(f: Filtration, n: int, j: int, p: int) -> int:
    """Count of degree-n classes born exactly at K^j that die entering K^p.

    (beta(j, p-1) - beta(j, p)) - (beta(j-1, p-1) - beta(j-1, p)), with
    the beta terms at birth level -1 taken as 0.  Signed: a negative
    value is surfaced as data here and as a hard error in barcodes.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if not 0 <= j < p <= f.m:
        raise ValueError(f"need 0 <= j < p <= {f.m}, got j={j}, p={p}")
    born_by_j = persistent_betti(f, n, j, p - 1) - persistent_betti(f, n, j, p)
    if j == 0:
        return born_by_j
    born_earlier = persistent_betti(f, n, j - 1, p - 1) - persistent_betti(f, n, j - 1, p)
    return born_by_j - born_earlier


def mu_infinity(f: Filtration, n: int, j: int) -> int:
    """Count of degree-n classes born exactly at K^j that never die.

    beta(j, m) - beta(j-1, m): the classes of K^j alive at the final
    level, minus those already present one level earlier.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if not 0 <= j <= f.m:
        raise ValueError(f"need 0 <= j <= {f.m}, got j={j}")
    alive = persistent_betti(f, n, j, f.m)
    if j == 0:
        return alive
    return alive - persistent_betti(f, n, j - 1, f.m)


def _mu_grid(
    table: dict[tuple[int, int], int], m: int
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """All finite multiplicities and the never-dying column, from a table."""

    def beta(j: int, p: int) -> int:
        return 0 if j < 0 else table[(j, p)]

    finite = {
        (j, p): (beta(j, p - 1) - beta(j, p)) - (beta(j - 1, p - 1) - beta(j - 1, p))
        for j in range(m + 1)
        for p in range(j + 1, m + 1)
    }
    infinite = [beta(j, m) - beta(j - 1, m) for j in range(m + 1)]
    return finite, infinite


def _filtration_order(f: Filtration, n: int) -> list[tuple[tuple[int, ...], int]]:
    """(vertices, birth) of every n-simplex, in filtration order.

    A simplex is born at the first level that contains it.  Sorting on
    (birth, vertices) is the (birth, dim, vertices) order restricted to
    one dimension; in that order faces come before their cofaces.
    """
    birth: dict[tuple[int, ...], int] = {}
    if n >= 0:
        for j, level in enumerate(f.levels):
            for s in level.n_simplices(n):
                birth.setdefault(s.vertices, j)
    return sorted(birth.items(), key=lambda item: (item[1], item[0]))


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


def _reduce(columns: list[int], cleared: Container[int] = ()) -> dict[int, int]:
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


def barcode(f: Filtration, n: int) -> Barcode:
    """The degree-n barcode: every interval with positive multiplicity.

    Reduces the degree-(n+1) boundary columns, then the degree-n ones
    with clearing: an n-simplex that is a pivot of degree n+1 creates a
    class, so its column is skipped.  Each pivot (i, c) is the interval
    [birth of i, birth of c), dropped when both are born at one level;
    an n-simplex whose column reduces to zero and that is no pivot is a
    class that never dies.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    below, cells, above = (_filtration_order(f, d) for d in (n - 1, n, n + 1))
    deaths = _reduce(_boundary_columns(above, cells))
    negative = set(_reduce(_boundary_columns(cells, below), deaths).values())
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


@dataclass(frozen=True)
class LemmaViolation:
    """One failed identity at grid point (k, l)."""

    kind: str  # "interval-sum" | "barcode-span" | "negative-count"
    k: int
    l: int
    expected: int
    actual: int

    def __str__(self) -> str:
        return (
            f"{self.kind} at (k={self.k}, l={self.l}): "
            f"expected {self.expected}, got {self.actual}"
        )


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of checking the persistence interval identities in one degree.

    For every 0 <= k <= l <= m the persistent Betti number of the rank
    grid must equal both (a) the grid's multiplicities of deaths after l
    among births up to k plus the count still alive at the last level,
    and (b) the number of intervals of the reduction's barcode spanning
    [k, l].  Negative multiplicities are reported as violations rather
    than raised.
    """

    dimension: int
    last_level: int
    pairs_checked: int
    violations: tuple[LemmaViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_fundamental_lemma(f: Filtration, n: int) -> LemmaReport:
    """Verify the interval identities of degree n over the whole grid."""
    m = f.m
    table = betti_table(f, n)
    finite, infinite = _mu_grid(table, m)
    bars = barcode(f, n)

    violations: list[LemmaViolation] = []
    for (j, p), count in sorted(finite.items()):
        if count < 0:
            violations.append(LemmaViolation("negative-count", j, p, 0, count))
    for j, count in enumerate(infinite):
        if count < 0:
            violations.append(LemmaViolation("negative-count", j, m, 0, count))

    checked = 0
    # after row k, later[l] (l >= k) sums finite[(i, q)] over i <= k, q > l
    later = [0] * (m + 1)
    for k in range(m + 1):
        tail = 0
        for l in range(m, k, -1):
            later[l] += tail
            tail += finite[(k, l)]
        later[k] += tail
        for l in range(k, m + 1):
            checked += 1
            lhs = table[(k, l)]
            rhs = later[l] + table[(k, m)]
            if lhs != rhs:
                violations.append(LemmaViolation("interval-sum", k, l, lhs, rhs))
            spanning = bars.betti_at(k, l)
            if lhs != spanning:
                violations.append(LemmaViolation("barcode-span", k, l, lhs, spanning))
    return LemmaReport(n, m, checked, tuple(violations))
