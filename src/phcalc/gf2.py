"""Dense exact linear algebra over the two-element field.

Every matrix is immutable after construction and safe to share across
threads.  Rows are stored as Python int bitsets (bit ``j`` holds the entry
in column ``j``), so a row operation is a single XOR regardless of width.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._value import Value


class Gf2Matrix(Value):
    """A ``rows x cols`` matrix with entries in {0, 1}, arithmetic mod 2.

    Either dimension may be zero; empty matrices behave as the usual
    degenerate cases (rank 0, stacking identities, zero products).
    Values are compared and hashed structurally.
    """

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative dimensions: {self.rows}x{self.cols}")
        if len(self.row_bits) != self.rows:
            raise ValueError(
                f"expected {self.rows} row bitsets, got {len(self.row_bits)}"
            )
        limit = 1 << self.cols
        if any(bits < 0 or bits >= limit for bits in self.row_bits):
            raise ValueError(f"row bitset out of range for {self.cols} columns")

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def zero(cls, rows: int, cols: int) -> Gf2Matrix:
        """All-zero matrix of the given shape."""
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        """n x n matrix with 1s exactly on the diagonal."""
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(
        cls, entries: Sequence[Sequence[int]], cols: int | None = None
    ) -> Gf2Matrix:
        """Build a matrix from nested 0/1 sequences.

        ``cols`` is required when ``entries`` is empty and must otherwise
        match the (uniform) row length.
        """
        if not entries:
            if cols is None:
                raise ValueError("cols is required for a matrix with no rows")
            return cls(0, cols, ())
        width = len(entries[0])
        if cols is not None and cols != width:
            raise ValueError(f"cols={cols} does not match row length {width}")
        bits = []
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged rows")
            acc = 0
            for j, value in enumerate(row):
                if value not in (0, 1):
                    raise ValueError(f"entry {value!r} is not 0 or 1")
                acc |= value << j
            bits.append(acc)
        return cls(len(entries), width, tuple(bits))

    # ------------------------------------------------------------------
    # Element access

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return (self.row_bits[i] >> j) & 1

    def to_rows(self) -> list[list[int]]:
        """Entries as nested lists, row major."""
        return [
            [(bits >> j) & 1 for j in range(self.cols)] for bits in self.row_bits
        ]

    def column_bits(self) -> list[int]:
        """Column bitsets (bit ``i`` of entry ``k`` = entry at row i, col k)."""
        cols = [0] * self.cols
        for i, bits in enumerate(self.row_bits):
            bit = 1 << i
            while bits:
                k = bits.bit_length() - 1
                cols[k] |= bit
                bits ^= 1 << k
        return cols

    def is_zero(self) -> bool:
        return not any(self.row_bits)

    # ------------------------------------------------------------------
    # Arithmetic

    def multiply(self, other: Gf2Matrix) -> Gf2Matrix:
        """Matrix product mod 2; requires ``self.cols == other.rows``."""
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for bits in self.row_bits:
            acc = 0
            rem = bits
            while rem:
                low = rem & -rem
                acc ^= other.row_bits[low.bit_length() - 1]
                rem ^= low
            out.append(acc)
        return Gf2Matrix(self.rows, other.cols, tuple(out))

    def __matmul__(self, other: Gf2Matrix) -> Gf2Matrix:
        return self.multiply(other)

    def hstack(self, other: Gf2Matrix) -> Gf2Matrix:
        """Adjoin the columns of ``other`` to the right of ``self``."""
        if self.rows != other.rows:
            raise ValueError(
                f"cannot stack {self.rows}x{self.cols} beside {other.rows}x{other.cols}"
            )
        merged = tuple(
            a | (b << self.cols) for a, b in zip(self.row_bits, other.row_bits)
        )
        return Gf2Matrix(self.rows, self.cols + other.cols, merged)

    def rank(self) -> int:
        """Dimension of the row space (= column space) over GF(2).

        Gaussian elimination, rows processed top to bottom; each row's
        pivot is its first nonzero column after reduction against the
        pivots found so far.  The input is never modified.
        """
        pivots: dict[int, int] = {}
        for bits in self.row_bits:
            cur = bits
            while cur:
                lead = (cur & -cur).bit_length() - 1
                row = pivots.get(lead)
                if row is None:
                    pivots[lead] = cur
                    break
                cur ^= row
        return len(pivots)

    def kernel_basis(self) -> Gf2Matrix:
        """Basis of the null space {x : self @ x = 0}, as matrix columns.

        The columns are reduced left to right, each against the earlier
        ones, keeping the combination of original columns it has become.
        A column that reduces to zero is a free column c, and its
        combination is e_c plus earlier pivot columns: the one kernel
        vector with a 1 at c and a 0 at every other free column.

        Returns:
            A ``cols x z`` matrix with ``z = cols - rank``.  Kernel vectors
            are ordered by their free column index (ascending) and each has
            a 1 in its own free position, so the output is deterministic.
        """
        reduced: dict[int, tuple[int, int]] = {}  # pivot row -> (column, combination)
        free: list[int] = []
        for c, col in enumerate(self.column_bits()):
            combo = 1 << c
            while col:
                low = col.bit_length() - 1
                if low not in reduced:
                    reduced[low] = (col, combo)
                    break
                pivot_col, pivot_combo = reduced[low]
                col ^= pivot_col
                combo ^= pivot_combo
            else:
                free.append(combo)
        vectors = Gf2Matrix(len(free), self.cols, tuple(free))
        return Gf2Matrix(self.cols, len(free), tuple(vectors.column_bits()))

    # ------------------------------------------------------------------
    # Rendering

    def __str__(self) -> str:
        return "\n".join("".join(map(str, row)) for row in self.to_rows())

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.rows}x{self.cols})"
