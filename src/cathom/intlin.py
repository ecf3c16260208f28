"""Exact linear algebra kernel: staircase lattices, solving, Smith normal form.

Everything here works uniformly over Z, Q and F_p.  Over Z, lattices of
integer row vectors are kept in staircase (echelon) form with Euclidean
pivot combination, which gives bases, membership tests with exact
divisibility, saturated kernels and integral solving.  Over the fields the
same code degenerates to Gaussian elimination.  A staircase visits the
columns of a vector in increasing order through a heap, and row
operations run one loop per ring (``matrix._axpy``), with no per-entry
ring calls.

Vectors are the zero-free {index: value} dicts of ``matrix``, and matrices
are read and built through their column dicts; only ``det_int``, the
independent determinant used by the tests, works on a dense copy.  SNF and
``invariant_factors`` add in place, canonical entry by entry, as ``_axpy``.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .matrix import DimensionMismatch, Matrix, _axpy
from .rings import Ring


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _transpose(vecs: list[dict], n: int) -> list[dict]:
    """The n dicts of the other direction: column dicts to row dicts or back."""
    out: list[dict] = [{} for _ in range(n)]
    for j, vec in enumerate(vecs):
        for i, x in vec.items():
            out[i][j] = x
    return out


class StairBasis:
    """Row lattice (or subspace) kept in staircase form under insertion.

    Vectors are zero-free {column: value} dicts; an inserted or reduced
    vector is copied once and the copy is worked on in place.  Pivot rows have zeros strictly left
    of their pivot column.  Over Z the rows form a basis of the generated
    lattice; over a field, of the spanned subspace.

    ``add`` and ``reduce`` take the next column of the working vector
    from a heap, pushing each column a step adds to it.  Clearing column c
    adds only columns right of c (a pivot row has nothing left of its
    pivot), so the columns come in the increasing order a ``min`` over the
    row gives; a popped column no longer in the row is skipped.
    """

    def __init__(self, ring: Ring, ncols: int):
        self.ring = ring
        self.ncols = ncols
        self.pivots: dict[int, dict] = {}  # pivot column -> sparse row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when the lattice grew."""
        ring = self.ring
        row = dict(vec)
        heap = sorted(row)
        grew = False
        while heap:
            c = heappop(heap)
            lead = row.get(c)
            if lead is None:
                continue
            piv = self.pivots.get(c)
            if piv is None:
                # normalize leading entry: positive over Z, 1 over fields
                if ring.is_field:
                    inv = ring.inv(lead)
                    row = {j: ring.mul(inv, x) for j, x in row.items()}
                elif lead < 0:
                    row = {j: -x for j, x in row.items()}
                self.pivots[c] = row
                return True
            a = piv[c]
            if ring.is_field:
                _axpy(ring, row, piv, ring.neg(ring.mul(lead, ring.inv(a))), heap)
                continue
            q, r = divmod(lead, a)
            if r == 0:
                _axpy(ring, row, piv, -q, heap)
                continue
            # genuine gcd step: replace pivot, keep reducing the remainder
            g, x, y = _xgcd(a, lead)
            new_piv = {}
            for j in set(piv) | set(row):
                v = x * piv.get(j, 0) + y * row.get(j, 0)
                if v:
                    new_piv[j] = v
            rem = {}
            fa = a // g
            fb = lead // g
            for j in set(piv) | set(row):
                v = fa * row.get(j, 0) - fb * piv.get(j, 0)
                if v:
                    rem[j] = v
            self.pivots[c] = new_piv
            row = rem
            heap = sorted(rem)
            grew = True  # pivot changed: lattice strictly grew
        return grew

    def reduce(self, vec: dict, record: dict | None = None) -> dict:
        """Reduce vec by the current pivots (no insertion).

        Over Z only exact-division reductions are applied, so the residual
        is zero exactly when vec lies in the lattice.  When ``record`` is
        given, it accumulates {pivot_col: coefficient} with
        vec = sum coeff * pivot_row + residual.
        """
        ring = self.ring
        row = dict(vec)
        heap = sorted(row)
        while heap:
            c = heappop(heap)
            piv = self.pivots.get(c)
            x = row.get(c)
            if piv is None or x is None:
                continue  # no pivot there (the entry stays), or cancelled
            a = piv[c]
            if ring.is_field:
                q = ring.mul(x, ring.inv(a))
            else:
                q, r = divmod(x, a)
                if r != 0:
                    continue  # stuck: the entry stays
            _axpy(ring, row, piv, ring.neg(q), heap)
            if record is not None:
                record[c] = q  # column c is cleared at most once
        return row

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def express(self, vec: dict) -> dict | None:
        """Coefficients {pivot_col: c} with vec = sum c * pivot_row, else None."""
        rec: dict = {}
        if self.reduce(vec, rec):
            return None
        return rec

    def pivot_cols(self) -> list[int]:
        return sorted(self.pivots)

    def basis(self) -> list[dict]:
        """The pivot rows in pivot-column order (shared, not copies)."""
        return [self.pivots[c] for c in sorted(self.pivots)]


class ColumnOps:
    """Column space, kernel and solving for a fixed matrix A.

    Built on a staircase basis of the augmented rows (column_j(A), e_j):
    rows with zero left part witness the kernel {x : A x = 0} (a saturated
    lattice over Z), the others give a staircase basis of the column span
    with expression witnesses.
    """

    def __init__(self, A: Matrix):
        self.A = A
        self.ring = A.ring
        m, n = A.rows, A.cols
        self.m, self.n = m, n
        basis = StairBasis(self.ring, m + n)
        one = self.ring.one
        for j, col in enumerate(A.vecs):
            basis.add({**col, m + j: one})
        self._basis = basis
        self._kernel_rows: list[dict] = []
        self._span_cols: list[int] = []
        for c in sorted(basis.pivots):
            if c < m:
                self._span_cols.append(c)
            else:
                self._kernel_rows.append(basis.pivots[c])

    def kernel_basis(self) -> Matrix:
        """Columns form a basis of {x : A x = 0} (saturated over Z)."""
        m = self.m
        cols = [{j - m: v for j, v in row.items()} for row in self._kernel_rows]
        return Matrix.from_columns(self.ring, cols, self.n)

    def rank(self) -> int:
        return len(self._span_cols)

    def solve(self, b: dict) -> dict | None:
        """Some x with A x = b, or None (exact over Z)."""
        ring = self.ring
        if b and max(b) >= self.m:
            raise DimensionMismatch("rhs index out of range")
        res = self._basis.reduce(b)
        if any(j < self.m for j in res):
            return None
        # every basis row satisfies left = A * right, so the residual of
        # (b, 0) is (0, -x) for a solution x
        return {j - self.m: ring.neg(v) for j, v in res.items()}


def kernel_basis(A: Matrix) -> Matrix:
    """Basis of ker(x -> A x) as matrix columns (saturated lattice over Z)."""
    return ColumnOps(A).kernel_basis()


def preimage_basis(A: Matrix, L_cols: Matrix) -> Matrix:
    """Basis (columns) of {x : A x in column-span(L_cols)}."""
    if L_cols.cols == 0:
        return kernel_basis(A)
    if L_cols.rows != A.rows:
        raise DimensionMismatch("preimage target dimension mismatch")
    aug = A.hstack(L_cols)
    K = ColumnOps(aug).kernel_basis()
    # project kernel vectors to the A-block; staircase-reduce to a basis
    n = A.cols
    basis = StairBasis(A.ring, n)
    for v in K.vecs:
        basis.add({i: x for i, x in v.items() if i < n})
    return Matrix.from_columns(A.ring, basis.basis(), n)


class SNFResult:
    def __init__(self, U, S, V, Uinv, Vinv):
        self.U = U
        self.S = S
        self.V = V
        self.Uinv = Uinv
        self.Vinv = Vinv

    def diagonal(self) -> list:
        S = self.S
        z = S.ring.zero
        return [S.vecs[i].get(i, z) for i in range(min(S.rows, S.cols))]


def smith_normal_form(A: Matrix) -> SNFResult:
    """U A V = S diagonal with the divisibility chain d1 | d2 | ...

    Over Z, U and V are unimodular and the diagonal is non-negative; the
    pivot rule is smallest absolute value, then lowest row, then lowest
    column.  Over a field the diagonal is normalized to ones.  Inverses of
    U and V are tracked alongside.

    Every working array is sparse and held in the direction its elementary
    operations run: S, U and Vinv by rows, Uinv and V by columns.  When
    pivot k is being cleared, the rows above k hold only their diagonal
    entry, so column operations need only look at rows k and below.
    """
    ring = A.ring
    m, n = A.rows, A.cols
    z, one = ring.zero, ring.one
    field = ring.is_field
    p = ring.p if ring.kind == "Fp" else 0
    S = _transpose(A.vecs, m)
    U = [{i: one} for i in range(m)]
    Uinv = [{i: one} for i in range(m)]
    V = [{i: one} for i in range(n)]
    Vinv = [{i: one} for i in range(n)]
    k = 0

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        Uinv[i], Uinv[j] = Uinv[j], Uinv[i]

    def col_swap(i, j):
        for r in range(k, m):
            row = S[r]
            a, b = row.pop(i, None), row.pop(j, None)
            if a is not None:
                row[j] = a
            if b is not None:
                row[i] = b
        V[i], V[j] = V[j], V[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_addmul(i, j, c):
        # row_i += c * row_j ; U likewise; Uinv col_j -= c * col_i
        _axpy(ring, S[i], S[j], c)
        _axpy(ring, U[i], U[j], c)
        _axpy(ring, Uinv[j], Uinv[i], ring.neg(c))

    def col_addmul(i, j, c):
        # col_i += c * col_j ; V likewise; Vinv row_j -= c * row_i
        for r in range(k, m):
            row = S[r]
            x = row.get(j)
            if x is not None:
                v = row.get(i, z) + c * x
                if p:
                    v %= p
                if v:
                    row[i] = v
                else:
                    row.pop(i, None)
        _axpy(ring, V[i], V[j], c)
        _axpy(ring, Vinv[j], Vinv[i], ring.neg(c))

    def row_scale(i, u):
        S[i] = {j: ring.mul(u, x) for j, x in S[i].items()}
        U[i] = {j: ring.mul(u, x) for j, x in U[i].items()}
        uinv = ring.inv(u)
        Uinv[i] = {j: ring.mul(x, uinv) for j, x in Uinv[i].items()}

    def find_pivot(k):
        # rows k and below have no entries left of column k
        best = None
        for i in range(k, m):
            row = S[i]
            if not row:
                continue
            if field:
                return (i, min(row))
            for j, x in row.items():
                cand = (abs(x), i, j)
                if best is None or cand < best:
                    best = cand
            if best[0] == 1:
                return (i, best[2])
        if best is None:
            return None
        return (best[1], best[2])

    def balanced_div(x, a):
        # quotient with remainder in (-a/2, a/2], a > 0
        return (2 * x + a) // (2 * a)

    while k < min(m, n):
        if find_pivot(k) is None:
            break
        while True:
            i0, j0 = find_pivot(k)
            if i0 != k:
                row_swap(k, i0)
            if j0 != k:
                col_swap(k, j0)
            if not field and S[k][k] < 0:
                row_scale(k, -1)
            a = S[k][k]
            # one reduction sweep against the current global-minimum pivot;
            # each operation changes only the row (column) it targets
            clear = True
            for i in [i for i in range(k + 1, m) if k in S[i]]:
                x = S[i][k]
                q = ring.exact_div(x, a) if field else balanced_div(x, a)
                if q != z:
                    row_addmul(i, k, ring.neg(q))
                if k in S[i]:
                    clear = False
            for j in sorted(j for j in S[k] if j > k):
                x = S[k][j]
                q = ring.exact_div(x, a) if field else balanced_div(x, a)
                if q != z:
                    col_addmul(j, k, ring.neg(q))
                if j in S[k]:
                    clear = False
            if not clear:
                continue
            if not field and a != 1:
                # pivot must divide the remaining submatrix (1 always does)
                offender = next(
                    (i for i in range(k + 1, m) if any(x % a for x in S[i].values())), None
                )
                if offender is not None:
                    row_addmul(k, offender, one)
                    continue
            break
        k += 1

    # normalize the diagonal: positive over Z, ones over fields
    for i in range(min(m, n)):
        x = S[i].get(i)
        if x is None:
            continue
        if field:
            row_scale(i, ring.inv(x))
        elif x < 0:
            row_scale(i, -1)

    return SNFResult(
        Matrix.from_columns(ring, _transpose(U, m), m),
        Matrix.from_columns(ring, _transpose(S, n), m),
        Matrix.from_columns(ring, V, n),
        Matrix.from_columns(ring, Uinv, m),
        Matrix.from_columns(ring, _transpose(Vinv, n), n),
    )


def invariant_factors(A: Matrix) -> list:
    """The nonzero diagonal of the Smith normal form of A, built without
    transforms: positive over Z, all ones over a field, so the rank is its
    length.

    Columns are reduced in order against the unit pivots found so far; a
    reduced column with a unit entry becomes a pivot (its last unit entry,
    scaled to 1), any other nonzero column goes to a rest.  The pivots
    split off a unit diagonal block, so the factors are those ones
    followed by the SNF diagonal of the rest, reduced once more against
    every pivot (Dumas, Saunders and Villard, J. Symb. Comput. 32 (2001)).
    Over a field every nonzero entry is a unit and the rest stays empty.
    The last unit entry, not the first, keeps the fill-in of the
    lexicographically ordered bar and Tor complexes low: on the Or(S3)
    bar complexes the first one made the elimination about ten times
    slower.
    """
    ring = A.ring
    field = ring.is_field
    p = ring.p if ring.kind == "Fp" else 0
    rows: list[int] = []  # pivot row of pivot k, k in order of creation
    cols: list[dict] = []  # pivot k's column: 1 at rows[k], 0 at rows[:k]
    index: dict[int, int] = {}  # pivot row -> k

    def reduce(vec: dict) -> dict:
        # eliminate pivot rows in creation order: pivot k has no entry at
        # an earlier pivot row, so no eliminated entry comes back
        v = dict(vec)
        heap = [index[i] for i in v if i in index]
        heap.sort()
        while heap:
            k = heappop(heap)
            c = v.get(rows[k])
            if c is None:
                continue
            for i, x in cols[k].items():
                y = v.get(i)
                if y is None:
                    y = -c * x % p if p else -c * x
                    v[i] = y
                    if i in index:
                        heappush(heap, index[i])
                else:
                    y = (y - c * x) % p if p else y - c * x
                    if y:
                        v[i] = y
                    else:
                        del v[i]
        return v

    rest = []
    for vec in A.vecs:
        v = reduce(vec)
        if not v:
            continue
        r = max((i for i, x in v.items() if field or x in (1, -1)), default=None)
        if r is None:
            rest.append(v)
            continue
        if v[r] != 1:
            u = ring.inv(v[r])
            v = {i: ring.mul(u, x) for i, x in v.items()}
        index[r] = len(rows)
        rows.append(r)
        cols.append(v)
    factors = [ring.one] * len(rows)
    rest = [v for v in map(reduce, rest) if v]
    if rest:
        # renumber the rows the rest touches, so SNF sees only those
        pos = {i: t for t, i in enumerate(sorted({i for v in rest for i in v}))}
        R = Matrix.from_columns(ring, [{pos[i]: x for i, x in v.items()} for v in rest], len(pos))
        factors += [d for d in smith_normal_form(R).diagonal() if d]
    return factors


def det_int(A: Matrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = [[int(x) for x in row] for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]
