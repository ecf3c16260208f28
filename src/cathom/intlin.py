"""Exact linear algebra kernel: staircase lattices, solving, Smith normal form.

Everything here works uniformly over Z, Q and F_p.  Over Z, lattices of
integer row vectors are kept in staircase (echelon) form with Euclidean
pivot combination, which gives bases, membership tests with exact
divisibility, saturated kernels and integral solving.  Over the fields the
same code degenerates to Gaussian elimination.

Rows are stored sparsely as {column: value} dicts; the public interface
speaks dense lists.
"""

from __future__ import annotations

from .matrix import DimensionMismatch, Matrix
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


def _to_sparse(vec: list, zero) -> dict:
    return {j: x for j, x in enumerate(vec) if x != zero}


def _to_dense(row: dict, ncols: int, zero) -> list:
    out = [zero] * ncols
    for j, x in row.items():
        out[j] = x
    return out


class StairBasis:
    """Row lattice (or subspace) kept in staircase form under insertion.

    Pivot rows have zeros strictly left of their pivot column.  Over Z the
    rows form a basis of the generated lattice; over a field, of the
    spanned subspace.
    """

    def __init__(self, ring: Ring, ncols: int):
        self.ring = ring
        self.ncols = ncols
        self.pivots: dict[int, dict] = {}  # pivot column -> sparse row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _combine(self, row: dict, other: dict, c) -> dict:
        """row + c*other, sparsely."""
        ring = self.ring
        z = ring.zero
        out = dict(row)
        for j, x in other.items():
            v = ring.add(out.get(j, z), ring.mul(c, x))
            if v == z:
                out.pop(j, None)
            else:
                out[j] = v
        return out

    def add(self, vec: list | dict) -> bool:
        """Insert a vector; returns True when the lattice grew."""
        ring = self.ring
        z = ring.zero
        row = dict(vec) if isinstance(vec, dict) else _to_sparse(vec, z)
        grew = False
        while row:
            c = min(row)
            lead = row[c]
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
                row = self._combine(row, piv, ring.neg(ring.mul(lead, ring.inv(a))))
                continue
            q, r = divmod(lead, a)
            if r == 0:
                row = self._combine(row, piv, -q)
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
            grew = True  # pivot changed: lattice strictly grew
        return grew

    def reduce(self, vec: list | dict, record: dict | None = None):
        """Reduce vec by the current pivots (no insertion).

        Over Z only exact-division reductions are applied, so the residual
        is zero exactly when vec lies in the lattice.  When ``record`` is
        given, it accumulates {pivot_col: coefficient} with
        vec = sum coeff * pivot_row + residual.
        """
        ring = self.ring
        z = ring.zero
        row = dict(vec) if isinstance(vec, dict) else _to_sparse(vec, z)
        stuck: set[int] = set()
        while True:
            cands = [c for c in row if c not in stuck]
            if not cands:
                break
            c = min(cands)
            piv = self.pivots.get(c)
            if piv is None:
                stuck.add(c)
                continue
            a = piv[c]
            x = row[c]
            if ring.is_field:
                q = ring.mul(x, ring.inv(a))
            else:
                q, r = divmod(x, a)
                if r != 0:
                    stuck.add(c)
                    continue
            row = self._combine(row, piv, ring.neg(q))
            if record is not None:
                record[c] = ring.add(record.get(c, z), q)
        return row

    def contains(self, vec: list | dict) -> bool:
        return not self.reduce(vec)

    def express(self, vec: list | dict) -> dict | None:
        """Coefficients {pivot_col: c} with vec = sum c * pivot_row, else None."""
        rec: dict = {}
        if self.reduce(vec, rec):
            return None
        return rec

    def basis_rows(self) -> list[list]:
        z = self.ring.zero
        return [
            _to_dense(self.pivots[c], self.ncols, z) for c in sorted(self.pivots)
        ]

    def pivot_cols(self) -> list[int]:
        return sorted(self.pivots)


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
        z = self.ring.zero
        for j in range(n):
            row = {i: A.data[i][j] for i in range(m) if A.data[i][j] != z}
            row[m + j] = self.ring.one
            basis.add(row)
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
        z = self.ring.zero
        cols = [
            _to_dense({j - self.m: v for j, v in row.items()}, self.n, z)
            for row in self._kernel_rows
        ]
        return Matrix.from_columns(self.ring, cols, nrows=self.n)

    def rank(self) -> int:
        return len(self._span_cols)

    def solve(self, b: list) -> list | None:
        """Some x with A x = b, or None (exact over Z)."""
        ring = self.ring
        z = ring.zero
        if len(b) != self.m:
            raise DimensionMismatch("rhs length mismatch")
        row = {i: x for i, x in enumerate(b) if x != z}
        res = self._basis.reduce(row)
        if any(j < self.m for j in res):
            return None
        # every basis row satisfies left = A * right, so the residual of
        # (b, 0) is (0, -x) for a solution x
        x = [z] * self.n
        for j, v in res.items():
            x[j - self.m] = ring.neg(v)
        return x

    def contains(self, b: list) -> bool:
        return self.solve(b) is not None


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
    basis = StairBasis(A.ring, A.cols)
    for j in range(K.cols):
        basis.add([K.data[i][j] for i in range(A.cols)])
    return Matrix.from_columns(A.ring, [list(r) for r in basis.basis_rows()], nrows=A.cols)


class SNFResult:
    def __init__(self, U, S, V, Uinv, Vinv):
        self.U = U
        self.S = S
        self.V = V
        self.Uinv = Uinv
        self.Vinv = Vinv

    def diagonal(self) -> list:
        S = self.S
        return [S.data[i][i] for i in range(min(S.rows, S.cols))]


def smith_normal_form(A: Matrix) -> SNFResult:
    """U A V = S diagonal with the divisibility chain d1 | d2 | ...

    Over Z, U and V are unimodular and the diagonal is non-negative; the
    pivot rule is smallest absolute value, then lowest row, then lowest
    column.  Over a field the diagonal is normalized to ones.  Inverses of
    U and V are tracked alongside.
    """
    ring = A.ring
    m, n = A.rows, A.cols
    S = [list(r) for r in A.data]
    U = Matrix.identity(ring, m).data
    Uinv = Matrix.identity(ring, m).data
    V = Matrix.identity(ring, n).data
    Vinv = Matrix.identity(ring, n).data
    z = ring.zero

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_addmul(i, j, c):
        # row_i += c * row_j ; U likewise; Uinv col_j -= c * col_i
        Si, Sj = S[i], S[j]
        for k in range(n):
            if Sj[k] != z:
                Si[k] = ring.add(Si[k], ring.mul(c, Sj[k]))
        Ui, Uj = U[i], U[j]
        for k in range(m):
            if Uj[k] != z:
                Ui[k] = ring.add(Ui[k], ring.mul(c, Uj[k]))
        nc = ring.neg(c)
        for r in Uinv:
            if r[i] != z:
                r[j] = ring.add(r[j], ring.mul(nc, r[i]))

    def col_addmul(i, j, c):
        # col_i += c * col_j ; V likewise; Vinv row_j -= c * row_i
        for r in S:
            if r[j] != z:
                r[i] = ring.add(r[i], ring.mul(c, r[j]))
        for r in V:
            if r[j] != z:
                r[i] = ring.add(r[i], ring.mul(c, r[j]))
        nc = ring.neg(c)
        Vi, Vj = Vinv[i], Vinv[j]
        for k in range(n):
            if Vi[k] != z:
                Vj[k] = ring.add(Vj[k], ring.mul(nc, Vi[k]))

    def row_scale(i, u):
        S[i] = [ring.mul(u, x) for x in S[i]]
        U[i] = [ring.mul(u, x) for x in U[i]]
        uinv = ring.inv(u)
        for r in Uinv:
            r[i] = ring.mul(r[i], uinv)

    def find_pivot(k):
        best = None
        for i in range(k, m):
            row = S[i]
            for j in range(k, n):
                x = row[j]
                if x == z:
                    continue
                if ring.is_field:
                    return (i, j)
                ax = abs(x)
                if best is None or ax < best[0]:
                    best = (ax, i, j)
                    if ax == 1:
                        return (i, j)
        if best is None:
            return None
        return (best[1], best[2])

    def balanced_div(x, a):
        # quotient with remainder in (-a/2, a/2], a > 0
        return (2 * x + a) // (2 * a)

    k = 0
    while k < min(m, n):
        if find_pivot(k) is None:
            break
        while True:
            piv = find_pivot(k)
            i0, j0 = piv
            if i0 != k:
                row_swap(k, i0)
            if j0 != k:
                col_swap(k, j0)
            if not ring.is_field and S[k][k] < 0:
                row_scale(k, -1)
            a = S[k][k]
            # one reduction sweep against the current global-minimum pivot
            clear = True
            for i in range(k + 1, m):
                x = S[i][k]
                if x == z:
                    continue
                q = ring.exact_div(x, a) if ring.is_field else balanced_div(x, a)
                if q != z:
                    row_addmul(i, k, ring.neg(q))
                if S[i][k] != z:
                    clear = False
            for j in range(k + 1, n):
                x = S[k][j]
                if x == z:
                    continue
                q = ring.exact_div(x, a) if ring.is_field else balanced_div(x, a)
                if q != z:
                    col_addmul(j, k, ring.neg(q))
                if S[k][j] != z:
                    clear = False
            if not clear:
                continue
            if not ring.is_field:
                # pivot must divide the remaining submatrix
                a = S[k][k]
                offender = None
                for i in range(k + 1, m):
                    row = S[i]
                    for j in range(k + 1, n):
                        if row[j] % a != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is not None:
                    row_addmul(k, offender, ring.one)
                    continue
            break
        k += 1

    # normalize the diagonal: positive over Z, ones over fields
    for i in range(min(m, n)):
        x = S[i][i]
        if x == z:
            continue
        if ring.is_field:
            row_scale(i, ring.inv(x))
        elif x < 0:
            row_scale(i, -1)

    return SNFResult(
        Matrix(ring, U, copy=False),
        Matrix(ring, S, copy=False),
        Matrix(ring, V, copy=False),
        Matrix(ring, Uinv, copy=False),
        Matrix(ring, Vinv, copy=False),
    )


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
