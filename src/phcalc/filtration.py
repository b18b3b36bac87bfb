"""Nested sequences of complexes and the inclusion maps between their bases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .complexes import Simplex, SimplicialComplex, _missing_face, closure_of_facets
from .gf2 import Gf2Matrix


@dataclass(frozen=True)
class FiltrationViolation:
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
    for j, level in enumerate(levels):
        missing = _missing_face(level.simplices)
        if missing is not None:
            return FiltrationViolation("not-a-complex", j, missing)
    return _first_dropped(levels)


def _first_dropped(levels: Sequence[SimplicialComplex]) -> FiltrationViolation | None:
    """A "not-nested" violation at the first level that drops a simplex, or None."""
    for j in range(1, len(levels)):
        dropped = levels[j - 1].simplices - levels[j].simplices
        if dropped:
            return FiltrationViolation("not-nested", j, min(dropped))
    return None


class Filtration:
    """A non-empty nested sequence of complexes K^0 <= ... <= K^m.

    Validated eagerly at construction; immutable afterwards.
    """

    def __init__(self, levels: Iterable[SimplicialComplex]):
        self._levels = tuple(levels)
        if not self._levels:
            raise ValueError("a filtration needs at least one level")
        # each level's constructor has already checked it is face-closed
        violation = _first_dropped(self._levels)
        if violation is not None:
            raise FiltrationError(violation)

    @classmethod
    def from_level_facets(cls, level_facets: Sequence[Iterable[Simplex]]) -> Filtration:
        """Build level j as the facet closure of ``level_facets[j]``."""
        return cls(closure_of_facets(facets) for facets in level_facets)

    @property
    def m(self) -> int:
        """Index of the last level."""
        return len(self._levels) - 1

    @property
    def levels(self) -> tuple[SimplicialComplex, ...]:
        return self._levels

    @property
    def dim(self) -> int:
        """Top dimension of the final (largest) complex."""
        return self._levels[-1].dim

    def __len__(self) -> int:
        return len(self._levels)

    def __getitem__(self, j: int) -> SimplicialComplex:
        return self._levels[j]

    def __iter__(self) -> Iterator[SimplicialComplex]:
        return iter(self._levels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filtration):
            return NotImplemented
        return self._levels == other._levels

    def __repr__(self) -> str:
        return f"Filtration({len(self._levels)} levels, dim {self.dim})"

    def check_level_pair(self, j: int, p: int) -> None:
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
        if n < 0:
            raise ValueError(f"dimension must be >= 0, got {n}")
        self.check_level_pair(j, p)
        domain = self._levels[j].n_simplices(n)
        codomain = self._levels[p].n_simplices(n)
        row_of = {s.vertices: r for r, s in enumerate(codomain)}
        bits = [0] * len(codomain)
        for c, s in enumerate(domain):
            bits[row_of[s.vertices]] |= 1 << c
        return Gf2Matrix(len(codomain), len(domain), tuple(bits))
