"""Dense exact matrices over a coefficient ring.

Vectors are plain lists; matrices act on column vectors from the left.
Entries are kept in the ring's canonical representation (ints, Fractions,
or ints reduced into [0, p)).  Entries are coerced only where data comes in
from outside: ``Matrix(ring, data)`` with the default ``copy=True`` and
``matrix_from_json``.  Every other constructor trusts its entries to be
canonical already.
"""

from __future__ import annotations

from .rings import Ring


class DimensionMismatch(ValueError):
    pass


class Matrix:
    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: Ring, data: list[list], copy: bool = True, cols: int | None = None):
        self.ring = ring
        if copy:
            data = [[ring.coerce(x) for x in row] for row in data]
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        for row in data:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        z = ring.zero
        return cls(ring, [[z] * cols for _ in range(rows)], copy=False, cols=cols)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        m = cls.zeros(ring, n, n)
        for i in range(n):
            m.data[i][i] = ring.one
        return m

    @classmethod
    def from_columns(cls, ring: Ring, columns: list[list], nrows: int | None = None) -> "Matrix":
        """The matrix with the given columns.  Entries are not coerced:
        columns must hold canonical entries of ``ring``."""
        if not columns:
            if nrows is None:
                raise DimensionMismatch("need nrows for empty column list")
            return cls.zeros(ring, nrows, 0)
        n = len(columns[0])
        return cls(
            ring,
            [[col[i] for col in columns] for i in range(n)],
            copy=False,
            cols=len(columns),
        )

    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.cols)]

    def row(self, i: int) -> list:
        return list(self.data[i])

    def copy(self) -> "Matrix":
        return Matrix(self.ring, [list(r) for r in self.data], copy=False, cols=self.cols)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.ring,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            copy=False,
            cols=self.rows,
        )

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(x == z for row in self.data for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.ring, tuple(tuple(r) for r in self.data)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise DimensionMismatch("ring mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        z = ring.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        bt = other.transpose().data
        for i in range(self.rows):
            arow = self.data[i]
            orow = out[i]
            for j in range(other.cols):
                brow = bt[j]
                acc = z
                for k in range(self.cols):
                    a = arow[k]
                    if a != z:
                        acc = ring.add(acc, ring.mul(a, brow[k]))
                orow[j] = acc
        return Matrix(ring, out, copy=False, cols=other.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in +")
        ring = self.ring
        return Matrix(
            ring,
            [
                [ring.add(self.data[i][j], other.data[i][j]) for j in range(self.cols)]
                for i in range(self.rows)
            ],
            copy=False,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(self.ring.neg(self.ring.one))

    def scale(self, c) -> "Matrix":
        ring = self.ring
        c = ring.coerce(c)
        return Matrix(
            ring,
            [[ring.mul(c, x) for x in row] for row in self.data],
            copy=False,
        )

    def apply(self, vec: list) -> list:
        """The product with a column vector, summed over the vector's
        nonzero entries only.  The result is canonical: sums start from
        ``ring.zero`` (a Fraction over Q) and are reduced mod p once, at
        the end, over F_p."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"matrix {self.rows}x{self.cols} applied to len-{len(vec)} vector")
        ring = self.ring
        z = ring.zero
        nz = [(k, x) for k, x in enumerate(vec) if x]
        out = []
        for row in self.data:
            acc = z
            for k, x in nz:
                a = row[k]
                if a:
                    acc += a * x
            out.append(acc)
        if ring.kind == "Fp":
            p = ring.p
            out = [a % p for a in out]
        return out

    def add_block(self, r0: int, c0: int, blk: "Matrix", coeff=None) -> None:
        """Add coeff * blk (blk itself when coeff is None) into this matrix
        in place, with blk's top-left entry at (r0, c0)."""
        ring = self.ring
        z = ring.zero
        for r, brow in enumerate(blk.data):
            row = self.data[r0 + r]
            for c, x in enumerate(brow):
                if x != z:
                    if coeff is not None:
                        x = ring.mul(coeff, x)
                    row[c0 + c] = ring.add(row[c0 + c], x)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(
            self.ring,
            [self.data[i] + other.data[i] for i in range(self.rows)],
            copy=False,
            cols=self.cols + other.cols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack col mismatch")
        return Matrix(self.ring, [list(r) for r in self.data + other.data], copy=False, cols=self.cols)

    def to_json(self) -> dict:
        out = dict(self.ring.to_json())
        out["rows"] = self.rows
        out["cols"] = self.cols
        out["entries"] = [[self.ring.entry_to_json(x) for x in row] for row in self.data]
        return out

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols})"

    def pretty(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.data)


def matrix_from_json(d: dict) -> Matrix:
    from .rings import ring_from_json

    ring = ring_from_json(d)
    entries = d["entries"]
    if not entries:
        return Matrix.zeros(ring, d.get("rows", 0), d.get("cols", 0))
    return Matrix(ring, [[ring.entry_from_json(x) for x in row] for row in entries], copy=False)

