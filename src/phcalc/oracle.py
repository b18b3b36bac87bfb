"""Brute-force homology oracle by exhaustive chain enumeration.

Implements the quotient-space definitions literally: kernels and images
are materialized as explicit element sets of GF(2) vectors, and every
dimension is read off as log2 of a set size.  Exponential in the number
of simplices, so usable only for differential testing at small scale;
the enumeration cap keeps worst-case runs within seconds.
"""

from __future__ import annotations

from bisect import bisect_left

from ._value import Value
from .complexes import SimplicialComplex, _require_dim
from .filtration import Filtration
from .gf2 import Gf2Matrix

# Largest column count we will enumerate (2**bits chain vectors).
ENUMERATION_LIMIT_BITS = 20


class EnumerationLimitError(ValueError):
    """The request would enumerate more than 2**cap chain vectors."""

    def __init__(self, cols: int, limit_bits: int):
        super().__init__(
            f"enumerating 2**{cols} chain vectors exceeds the 2**{limit_bits} cap"
        )
        self.cols = cols
        self.limit_bits = limit_bits


class ChainSet(Value):
    """A GF(2) subspace given by its full element list.

    Vectors are bitmasks of length ambient_dim, kept sorted so that a
    membership test is a bisection and validation is one pass.  The
    member count of a subspace is a power of two and its log2 is the
    dimension; the power-of-two invariant is what certifies that an
    intersection of two XOR-closed sets produced an integral dimension.
    """

    ambient_dim: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError(f"negative ambient dimension {self.ambient_dim}")
        if not self.members or self.members[0] != 0:
            raise ValueError("a subspace must contain the zero vector")
        count = len(self.members)
        if count & (count - 1):
            raise ValueError(f"{count} members is not a power of two")
        for prev, cur in zip(self.members, self.members[1:]):
            if prev >= cur:
                raise ValueError("members must be strictly increasing")
        if self.members[-1] >> self.ambient_dim:
            raise ValueError(
                f"member wider than ambient dimension {self.ambient_dim}"
            )

    @property
    def dimension(self) -> int:
        return len(self.members).bit_length() - 1

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, vector: int) -> bool:
        i = bisect_left(self.members, vector)
        return i < len(self.members) and self.members[i] == vector

    def is_xor_closed(self) -> bool:
        """Full pairwise closure check; quadratic, for small sets only."""
        universe = set(self.members)
        return all(a ^ b in universe for a in universe for b in universe)

    def is_subset_of(self, other: ChainSet) -> bool:
        if self.ambient_dim != other.ambient_dim:
            return False
        return all(v in other for v in self.members)

    def intersect(self, other: ChainSet) -> ChainSet:
        """The meet of two subspaces: their common members."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs "
                f"{other.ambient_dim}"
            )
        return ChainSet(self.ambient_dim, tuple(sorted(set(self.members) & set(other.members))))


def _check_limit(cols: int) -> None:
    if cols > ENUMERATION_LIMIT_BITS:
        raise EnumerationLimitError(cols, ENUMERATION_LIMIT_BITS)


def _apply(matrix: Gf2Matrix, vector: int) -> int:
    """matrix times a column-bitmask vector, as a row-index bitmask."""
    out = 0
    for i, row in enumerate(matrix.row_bits):
        if (row & vector).bit_count() & 1:
            out |= 1 << i
    return out


def enumerate_kernel(d: Gf2Matrix) -> ChainSet:
    """All x with D x = 0, by testing every vector in {0,1}^cols.

    Walks the 2**cols inputs in Gray-code order so each step updates
    the running product by a single column XOR.
    """
    _check_limit(d.cols)
    columns = d.column_bits()
    found = [0]
    image = 0
    for i in range(1, 1 << d.cols):
        image ^= columns[(i & -i).bit_length() - 1]
        if image == 0:
            found.append(i ^ (i >> 1))
    found.sort()
    return ChainSet(d.cols, tuple(found))


def enumerate_image(d: Gf2Matrix) -> ChainSet:
    """The set { D x : x in {0,1}^cols }, materialized element by element."""
    _check_limit(d.cols)
    columns = d.column_bits()
    seen = {0}
    image = 0
    for i in range(1, 1 << d.cols):
        image ^= columns[(i & -i).bit_length() - 1]
        seen.add(image)
    return ChainSet(d.rows, tuple(sorted(seen)))


def oracle_betti(c: SimplicialComplex, n: int) -> int:
    """Betti number as log2 |Z_n| - log2 |B_n| over explicit sets."""
    _require_dim(n)
    cycles = enumerate_kernel(c.boundary_matrix(n))
    boundaries = enumerate_image(c.boundary_matrix(n + 1))
    if not boundaries.is_subset_of(cycles):
        raise ValueError(
            f"boundaries of degree {n} are not all cycles; "
            "boundary matrices are inconsistent"
        )
    return cycles.dimension - boundaries.dimension


def oracle_persistent_betti(f: Filtration, n: int, j: int, p: int) -> int:
    """Persistent Betti number from the literal quotient definition.

    Pushes every cycle of K^j into K^p through the inclusion matrix,
    intersects the resulting set with the boundaries of K^p, and
    subtracts the log-dimensions.
    """
    _require_dim(n)
    f.check_level_pair(j, p)
    cycles = enumerate_kernel(f[j].boundary_matrix(n))
    inclusion = f.inclusion_matrix(n, j, p)
    pushed = ChainSet(
        inclusion.rows,
        tuple(sorted(_apply(inclusion, v) for v in cycles.members)),
    )
    boundaries = enumerate_image(f[p].boundary_matrix(n + 1))
    meet = pushed.intersect(boundaries)
    return pushed.dimension - meet.dimension
