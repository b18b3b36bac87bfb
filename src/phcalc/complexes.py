"""Simplices, face-closed complexes, boundary matrices, Betti numbers.

Simplices are finite sets of non-negative integer vertex ids kept in
canonical (strictly increasing) form; every `combinations` subset of a
canonical tuple is canonical, so faces are looked up as bare tuples.
A complex stores its simplices grouped by dimension in lexicographic
order, which fixes the row and column bases of every boundary matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations, groupby

from ._value import Value, _canonical, _require_dim, subsets

TYPE_CHECKING = False  # no `typing` import at run time: type checkers read it as True
if TYPE_CHECKING:
    from .gf2 import Gf2Matrix


class Simplex(Value, order=True):
    """A non-empty finite vertex set; an n-simplex has n+1 vertices."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        # types first: sorting mixed types would raise TypeError
        verts = tuple(self.vertices)
        for v in verts:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"vertex {v!r} is not a non-negative integer")
        object.__setattr__(self, "vertices", _canonical(verts))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def face(self, i: int) -> Simplex:
        """The codimension-1 face obtained by dropping the i-th vertex."""
        if self.dim < 1:
            raise ValueError("a 0-simplex has no faces")
        if not 0 <= i <= self.dim:
            raise IndexError(f"face index {i} out of range 0..{self.dim}")
        return Simplex(self.vertices[:i] + self.vertices[i + 1 :])

    def faces(self) -> tuple[Simplex, ...]:
        """All codimension-1 faces, in vertex-drop order."""
        return tuple(self.face(i) for i in range(self.dim + 1))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.vertices) + ")"


def is_complex(simplices: Iterable[Simplex]) -> bool:
    """True iff every non-empty proper subset of every member is a member."""
    return _missing_face(frozenset(simplices)) is None


def _missing_face(simplices: frozenset[Simplex]) -> Simplex | None:
    """A witness subset absent from the set, or None if face-closed.

    Face-closure is transitive, so a set that holds each member's
    codimension-1 faces is closed: that check reads sum |s| faces, where
    the subset scan reads sum 2^|s|.  Only a set that fails it is
    scanned, so the witness is the same: the first subset missing from
    the first member that has one.
    """
    present = {s.vertices for s in simplices}
    if all(face in present for verts in present if len(verts) > 1
           for face in combinations(verts, len(verts) - 1)):
        return None
    for s in simplices:
        for verts in subsets(s.vertices):
            if verts not in present:
                return Simplex(verts)
    return None


class SimplicialComplex:
    """A face-closed set of simplices with per-dimension ordered bases.

    Immutable after construction; all query methods are pure, so
    instances may be freely shared between threads.
    """

    def __init__(self, simplices: Iterable[Simplex]):
        self._simplices = frozenset(simplices)
        missing = _missing_face(self._simplices)
        if missing is not None:
            raise ValueError(f"not face-closed: missing face {missing}")
        # face-closed, so every dimension from 0 to the top has a group
        ordered = sorted(self._simplices, key=lambda s: (len(s.vertices), s.vertices))
        self._by_dim = tuple(tuple(group) for _, group in groupby(ordered, len))

    @property
    def simplices(self) -> frozenset[Simplex]:
        return self._simplices

    @property
    def dim(self) -> int:
        """Top dimension; -1 for the empty complex."""
        return len(self._by_dim) - 1

    def n_simplices(self, n: int) -> tuple[Simplex, ...]:
        """The n-simplices in lexicographic order (the standard basis)."""
        _require_dim(n)
        if n >= len(self._by_dim):
            return ()
        return self._by_dim[n]

    def boundary_matrix(self, n: int) -> Gf2Matrix:
        """Matrix of the degree-n differential in the standard bases.

        Shape is |S_{n-1}| x |S_n|; entry (r, k) is 1 iff the r-th
        (n-1)-simplex is a face of the k-th n-simplex.  For n = 0 the
        row count is 0 (there is nothing below the vertices).
        """
        from .gf2 import Gf2Matrix

        cols = self.n_simplices(n)
        rows = self.n_simplices(n - 1) if n else ()
        row_of = {s.vertices: r for r, s in enumerate(rows)}
        bits = [0] * len(rows)  # row r: the cofaces of face r
        for k, s in enumerate(cols if rows else ()):
            for face in combinations(s.vertices, n):
                bits[row_of[face]] |= 1 << k
        return Gf2Matrix(len(rows), len(cols), tuple(bits))

    def betti(self, n: int) -> int:
        """The n-th Betti number: |S_n| - rank(D_n) - rank(D_{n+1})."""
        ns = len(self.n_simplices(n))
        return ns - self.boundary_matrix(n).rank() - self.boundary_matrix(n + 1).rank()

    def __contains__(self, s: Simplex) -> bool:
        return s in self._simplices

    def __len__(self) -> int:
        return len(self._simplices)

    def __iter__(self) -> Iterator[Simplex]:
        """Deterministic iteration: by dimension, lexicographic within."""
        for group in self._by_dim:
            yield from group

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._simplices == other._simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self._simplices)} simplices, dim {self.dim})"

    def is_subcomplex_of(self, other: SimplicialComplex) -> bool:
        return self._simplices <= other._simplices


def closure_of_facets(facets: Iterable[Simplex]) -> SimplicialComplex:
    """Smallest face-closed complex containing every given facet.

    The union of the (non-empty) powersets of the facets; duplicate or
    dominated facets are absorbed.  Idempotent: feeding a complex's own
    simplices back in reproduces the complex.
    """
    members = {verts for facet in facets for verts in subsets(facet.vertices)}
    return SimplicialComplex(Simplex(verts) for verts in members)
