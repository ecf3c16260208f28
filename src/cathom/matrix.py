"""Exact sparse matrices over a coefficient ring.

A vector is a zero-free ``{index: value}`` dict, and a matrix stores one
such dict per column (``vecs``, keyed by row); that is its only stored
form.  Matrices act on column vectors from the left.  Entries are kept in
the ring's canonical representation (ints, Fractions, or ints reduced into
[0, p)).  Entries are coerced only where data comes in from outside:
``Matrix(ring, rows)`` and ``matrix_from_json``.  Every other constructor
takes column dicts that are canonical and zero-free already.  Column dicts
may be shared between matrices and the exact kernel, so nothing mutates
one it did not build.  ``data`` is a dense list-of-rows copy for the
renderers and the tests.

Sums become canonical vectors here and nowhere else: ``_axpy`` adds a
multiple of one vector into another in place, ``_sum_terms`` adds up
(index, value) terms, and both it and the tight loops that sum with plain
``+`` (``Matrix.apply``, ``catmod.FreeCatModule.transport``, the bar
complex of ``groupbar``) end in ``_canonical``, which reduces mod p once
over F_p and drops zeros.  (Reducing modulo a presented module's
annihilators is ``fpmod._mod_anns``.)
"""

from __future__ import annotations

from heapq import heappush

from .rings import Ring


class DimensionMismatch(ValueError):
    pass


def _axpy(ring: Ring, dst: dict, src: dict, c, heap: list | None = None) -> None:
    """dst += c * src in place, keeping dst zero-free.  Each ring has its
    own loop: plain + and * over Z and Q, one % p per entry over F_p.
    Keys new to dst are pushed on ``heap`` when one is given."""
    get = dst.get
    if ring.kind == "Fp":
        p = ring.p
        for k, x in src.items():
            y = get(k)
            v = (c * x if y is None else y + c * x) % p
            if v:
                dst[k] = v
                if y is None and heap is not None:
                    heappush(heap, k)
            elif y is not None:
                del dst[k]
        return
    for k, x in src.items():
        y = get(k)
        v = c * x if y is None else y + c * x
        if v:
            dst[k] = v
            if y is None and heap is not None:
                heappush(heap, k)
        elif y is not None:
            del dst[k]


def _canonical(ring: Ring, acc: dict) -> dict:
    """acc, a fresh dict of plain sums of canonical entries, as a canonical
    vector: reduced mod p once over F_p (in place), zeros dropped."""
    if ring.kind == "Fp":
        p = ring.p
        for k, v in acc.items():
            acc[k] = v % p
    return acc if all(acc.values()) else {k: v for k, v in acc.items() if v}


def _sum_terms(ring: Ring, terms) -> dict:
    """The canonical vector sum of c e_k over the (k, c) terms, each c a
    canonical entry or a product or negation of them.  Sums start from
    ``ring.zero`` (a Fraction over Q)."""
    z = ring.zero
    acc: dict = {}
    get = acc.get
    for k, c in terms:
        acc[k] = get(k, z) + c
    return _canonical(ring, acc)


class Matrix:
    __slots__ = ("ring", "rows", "cols", "vecs")

    def __init__(self, ring: Ring, data: list[list], cols: int | None = None):
        """The matrix with the given dense rows, entries coerced into ring."""
        self.ring = ring
        self.rows = len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        vecs = [{} for _ in range(self.cols)]
        for i, row in enumerate(data):
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")
            for j, x in enumerate(row):
                x = ring.coerce(x)
                if x:
                    vecs[j][i] = x
        self.vecs = vecs

    @classmethod
    def from_columns(cls, ring: Ring, vecs: list[dict], nrows: int) -> "Matrix":
        """The nrows x len(vecs) matrix with the given column dicts, stored
        as they are: they must be zero-free with canonical entries."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols, m.vecs = ring, nrows, len(vecs), vecs
        return m

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        return cls.from_columns(ring, [{} for _ in range(cols)], rows)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        return cls.from_columns(ring, [{i: ring.one} for i in range(n)], n)

    @property
    def data(self) -> list[list]:
        """The dense rows, as a fresh copy."""
        z = self.ring.zero
        out = [[z] * self.cols for _ in range(self.rows)]
        for j, vec in enumerate(self.vecs):
            for i, x in vec.items():
                out[i][j] = x
        return out

    def is_zero(self) -> bool:
        return not any(self.vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.vecs == other.vecs
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise DimensionMismatch("ring mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Matrix.from_columns(self.ring, [self.apply(v) for v in other.vecs], self.rows)

    def apply(self, vec: dict) -> dict:
        """The product with a column vector, summed over the vector's
        nonzero entries (vec may hold zeros).  The sums start from
        ``ring.zero`` (a Fraction over Q) and end in ``_canonical``."""
        z = self.ring.zero
        vecs = self.vecs
        acc: dict = {}
        try:
            for k, x in vec.items():
                if x:
                    for i, a in vecs[k].items():
                        acc[i] = acc.get(i, z) + a * x
        except IndexError:
            raise DimensionMismatch(
                f"matrix {self.rows}x{self.cols} applied to a vector with index {k}"
            ) from None
        return _canonical(self.ring, acc)

    def add_block(self, r0: int, c0: int, blk: "Matrix", coeff=None) -> None:
        """Add coeff * blk (blk itself when coeff is None) into this matrix
        in place, with blk's top-left entry at (r0, c0).  The target's
        columns must be its own."""
        c = self.ring.one if coeff is None else coeff
        for j, bvec in enumerate(blk.vecs):
            _axpy(self.ring, self.vecs[c0 + j],
                  {r0 + r: x for r, x in bvec.items()} if r0 else bvec, c)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix.from_columns(self.ring, self.vecs + other.vecs, self.rows)

    def entries_json(self) -> list[list]:
        """The rows of entries in their JSON form."""
        return [[self.ring.entry_to_json(x) for x in row] for row in self.data]

    def to_json(self) -> dict:
        out = dict(self.ring.to_json())
        out["rows"] = self.rows
        out["cols"] = self.cols
        out["entries"] = self.entries_json()
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
    return Matrix(ring, entries)
