"""Filtrations, held as one simplex-to-birth table, and their basis inclusions.

The table holds vertex tuples, so `complexes` is imported only where a
`Simplex` or a level is built: by `validate`, `__getitem__` and the
witness of a level that is not nested.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations, groupby
from operator import attrgetter

from ._value import Value, _require_dim, _require_integer, subsets

TYPE_CHECKING = False  # no `typing` import at run time: type checkers read it as True
if TYPE_CHECKING:
    from .complexes import Simplex, SimplicialComplex
    from .gf2 import Gf2Matrix

_vertices = attrgetter("vertices")


class FiltrationViolation(Value):
    """Why a level sequence is not a filtration.

    ``kind`` is "not-a-complex" (``simplex`` is a missing face of some
    member of level ``level``) or "not-nested" (``simplex`` belongs to
    level ``level - 1`` but not to level ``level``).
    """

    kind: str
    level: int
    simplex: Simplex

    def __str__(self) -> str:
        if self.kind == "not-nested":
            return f"simplex {self.simplex} of level {self.level - 1} missing from level {self.level}"
        return f"level {self.level} is not face-closed: missing {self.simplex}"


class FiltrationError(ValueError):
    """Raised when a level sequence fails filtration validation."""

    def __init__(self, violation: FiltrationViolation):
        super().__init__(str(violation))
        self.violation = violation


def validate(levels: Sequence[SimplicialComplex]) -> FiltrationViolation | None:
    """First violation of the filtration conditions, or None if valid.

    Conditions: every level is face-closed, and each level's simplices
    are contained in the next level's.  Adjacent pairs suffice because
    inclusion is transitive.
    """
    from .complexes import _missing_face

    for j, level in enumerate(levels):
        missing = _missing_face(level.simplices)
        if missing is not None:
            return FiltrationViolation("not-a-complex", j, missing)
    return _sweep(map(_vertices, level.simplices) for level in levels)[1]


def _sweep(
    level_facets: Iterable[Iterable[tuple[int, ...]]], incremental: bool = False,
) -> tuple[dict[tuple[int, ...], int], FiltrationViolation | None]:
    """The birth of each simplex of the levels' closures, or the first violation.

    Levels are given as canonical vertex tuples.  A facet of level j
    that level j - 1 lacks gives birth j to its faces not yet in the
    table.  Level j's closure is built only if it lacks a facet of level
    j - 1; the witness is then the least simplex of the table outside it.
    An incremental level lists only facets new at it, so it nests by
    construction: its facets go into the table as they are, with no
    nesting test and no difference with the level before.
    """
    births: dict[tuple[int, ...], int] = {}
    previous: set[tuple[int, ...]] = set()
    for j, level in enumerate(level_facets):
        if not incremental:
            facets = set(level)
            if not previous <= facets:
                closure = {verts for facet in facets for verts in subsets(facet)}
                dropped = births.keys() - closure
                if dropped:
                    from .complexes import Simplex

                    return births, FiltrationViolation("not-nested", j, Simplex(min(dropped)))
            level, previous = facets - previous, facets
        for facet in level:
            if facet not in births:
                for verts in subsets(facet):
                    births.setdefault(verts, j)
    return births, None


class Filtration:
    """A non-empty nested sequence of complexes K^0 <= ... <= K^m.

    Held as one simplex-to-birth table.  Validated eagerly at
    construction; immutable afterwards.  Built from the table on first
    use and kept, which changes no value the filtration reports: the
    simplices of each dimension in (birth, vertices) order, in which
    every level is a prefix of K^m; per dimension d, the columns of
    D_d(K^m) with rows and columns in that order; and each level asked
    for, through the public constructor and its face-closure check.
    `persistence` keeps, per dimension, the reduction's pivots in
    ``_pivots`` and its bars in ``_bars``, as {(birth, death):
    multiplicity}, and in ``_rows`` the row of persistent Betti numbers
    beta(j, p) for p = j..m of each (dimension, birth j) a point query
    asked, each described where it is filled.  Nothing is kept for a
    dimension above the top, where no n-cell lives.
    """

    def __init__(self, levels: Iterable[Iterable[Simplex]]):
        self._build([map(_vertices, level) for level in levels], False)

    @classmethod
    def _of_tuples(cls, levels: Sequence[Iterable[tuple[int, ...]]], incremental: bool) -> Filtration:
        """The filtration of levels of canonical vertex tuples, cumulative or incremental."""
        return cls.__new__(cls)._build(levels, incremental)

    def _build(self, levels: Sequence[Iterable[tuple[int, ...]]], incremental: bool) -> Filtration:
        """Sweep the levels into the birth table, raising at the first violation."""
        if not levels:
            raise ValueError("a filtration needs at least one level")
        self._births, violation = _sweep(levels, incremental)
        if violation is not None:
            raise FiltrationError(violation)
        self._levels: list[SimplicialComplex | None] = [None] * len(levels)
        self._by_dim: list[list[tuple[tuple[int, ...], int]]] | None = None
        self._columns: dict[int, tuple[list[int], list[int]]] = {}
        self._pivots: dict[int, dict[int, int]] = {}
        self._bars: dict[int, dict[tuple[int, int | float], int]] = {}
        self._rows: dict[tuple[int, int], list[int]] = {}
        return self

    @classmethod
    def from_level_facets(cls, level_facets: Sequence[Iterable[Simplex]]) -> Filtration:
        """Build level j as the facet closure of ``level_facets[j]``."""
        return cls(level_facets)

    @property
    def m(self) -> int:
        """Index of the last level."""
        return len(self._levels) - 1

    @property
    def levels(self) -> tuple[SimplicialComplex, ...]:
        return tuple(self)

    @property
    def dim(self) -> int:
        """Top dimension of the final (largest) complex."""
        return max(map(len, self._births), default=0) - 1

    def births(self, n: int) -> list[tuple[tuple[int, ...], int]]:
        """(vertices, birth) of each n-simplex by (birth, vertices), in a new list."""
        return list(self._cells(n))

    def _cells(self, n: int) -> Sequence[tuple[tuple[int, ...], int]]:
        """`births` without the copy: the kept list, empty above the top dimension."""
        if self._by_dim is None:  # face-closed: every dimension up to the top is there
            cells = sorted(self._births.items(), key=lambda c: (len(c[0]), c[1], c[0]))
            self._by_dim = [list(group) for _, group in groupby(cells, lambda c: len(c[0]))]
        return self._by_dim[n] if 0 <= n < len(self._by_dim) else ()

    def __len__(self) -> int:
        return len(self._levels)

    def __getitem__(self, j: int) -> SimplicialComplex:
        j = range(len(self._levels))[j]
        if self._levels[j] is None:
            from .complexes import Simplex, SimplicialComplex

            members = (Simplex(v) for v, birth in self._births.items() if birth <= j)
            self._levels[j] = SimplicialComplex(members)
        return self._levels[j]

    def _birth_columns(self, d: int) -> tuple[list[int], list[int]]:
        """The births of the d-simplices and the columns of D_d(K^m), all by birth.

        Rows are by birth too, so each level's D_d is a prefix of both.
        Column k holds the faces of the k-th d-cell as a bitset over the
        (d-1)-cells; the rank side's one builder, which shares no code with
        the reduction's or `SimplicialComplex.boundary_matrix`.
        """
        if d not in self._columns:
            row_of = {verts: r for r, (verts, _) in enumerate(self._cells(d - 1))}
            born, columns = self._columns[d] = ([], [])
            for verts, birth in self._cells(d):
                bits = 0
                for face in combinations(verts, d) if d else ():  # a vertex has no face
                    bits |= 1 << row_of[face]
                born.append(birth)
                columns.append(bits)
        return self._columns[d]

    def __iter__(self) -> Iterator[SimplicialComplex]:
        return (self[j] for j in range(len(self._levels)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filtration):
            return NotImplemented
        return len(self) == len(other) and self._births == other._births

    def __repr__(self) -> str:
        return f"Filtration({len(self._levels)} levels, dim {self.dim})"

    def check_level_pair(self, j: int, p: int) -> None:
        _require_integer("level j", j)
        _require_integer("level p", p)
        if not 0 <= j <= p <= self.m:
            raise ValueError(
                f"need 0 <= j <= p <= {self.m}, got j={j}, p={p}"
            )

    def inclusion_matrix(self, n: int, j: int, p: int) -> Gf2Matrix:
        """Matrix of the basis inclusion of n-chains of K^j into K^p.

        Shape |S_n(K^p)| x |S_n(K^j)|; column c has a single 1, in the
        row where the c-th n-simplex of K^j sits in K^p's basis.  Always
        injective (full column rank).
        """
        from .gf2 import Gf2Matrix

        _require_dim(n)
        self.check_level_pair(j, p)
        domain = self[j].n_simplices(n)
        codomain = self[p].n_simplices(n)
        row_of = {s.vertices: r for r, s in enumerate(codomain)}
        bits = [0] * len(codomain)
        for c, s in enumerate(domain):
            bits[row_of[s.vertices]] |= 1 << c
        return Gf2Matrix(len(codomain), len(domain), tuple(bits))
