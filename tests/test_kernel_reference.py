"""The staircase kernel against a reference copy of its earlier form.

``RefStairBasis``, ``ref_axpy`` and ``ref_sum_terms`` are the
straightforward versions: ``add`` and ``reduce`` take the next column with
``min`` over the whole working row, and ``ref_axpy`` and ``ref_sum_terms``
add every entry through ``ring.add`` and ``ring.mul``.  The kernel in ``cathom`` takes columns from a heap and has a
loop per ring; both must give the same pivots, growth flags, residuals and
recorded coefficients, with entries in the ring's canonical form.

``HermiteBasis`` is a second, independent staircase: it keeps its rows in
Hermite normal form after every insertion (the Kannan-Bachem order), which
is unique for a lattice over Z and is the reduced echelon form over a
field.  Its kernels and preimages, read off one staircase of the augmented
rows, must span the same lattices as ``intlin.kernel_basis`` and
``intlin.preimage_basis``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix
from sympy.matrices.normalforms import hermite_normal_form

from cathom.intlin import StairBasis, _xgcd, kernel_basis, preimage_basis
from cathom.matrix import Matrix, _axpy, _sum_terms
from cathom.rings import GF, QQ, ZZ

RINGS = {"Z": ZZ, "Q": QQ, "F2": GF(2), "F5": GF(5)}


def ref_axpy(ring, dst, src, c):
    z = ring.zero
    for k, x in src.items():
        v = ring.add(dst.get(k, z), ring.mul(c, x))
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)


def ref_sum_terms(ring, terms):
    out = {}
    for k, c in terms:
        out[k] = ring.add(out.get(k, ring.zero), c)
    return {k: x for k, x in out.items() if x}


class RefStairBasis:
    def __init__(self, ring, ncols):
        self.ring = ring
        self.ncols = ncols
        self.pivots = {}

    def add(self, vec):
        ring = self.ring
        row = dict(vec)
        grew = False
        while row:
            c = min(row)
            lead = row[c]
            piv = self.pivots.get(c)
            if piv is None:
                if ring.is_field:
                    inv = ring.inv(lead)
                    row = {j: ring.mul(inv, x) for j, x in row.items()}
                elif lead < 0:
                    row = {j: -x for j, x in row.items()}
                self.pivots[c] = row
                return True
            a = piv[c]
            if ring.is_field:
                ref_axpy(ring, row, piv, ring.neg(ring.mul(lead, ring.inv(a))))
                continue
            q, r = divmod(lead, a)
            if r == 0:
                ref_axpy(ring, row, piv, -q)
                continue
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
            grew = True
        return grew

    def reduce(self, vec, record=None):
        ring = self.ring
        z = ring.zero
        row = dict(vec)
        stuck = set()
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
            ref_axpy(ring, row, piv, ring.neg(q))
            if record is not None:
                record[c] = ring.add(record.get(c, z), q)
        return row


def canonical(ring, x):
    if ring.kind == "Fp":
        return type(x) is int and 0 <= x < ring.p
    if ring.kind == "Q":
        return type(x) is Fraction
    return type(x) is int


# non-unit leads (2, 3, 4, 6, -9) force gcd steps and stuck columns over Z
NUMBERS = [0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -9]


@st.composite
def vectors(draw, ring, ncols, count):
    def entry():
        x = draw(st.sampled_from(NUMBERS))
        if ring is QQ:
            return Fraction(x, draw(st.sampled_from([1, 1, 2, 3])))
        return ring.coerce(x)

    out = []
    for _ in range(draw(st.integers(0, count))):
        vec = {j: entry() for j in range(ncols)}
        out.append({j: x for j, x in vec.items() if x})
    return out


@st.composite
def kernel_cases(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    ncols = draw(st.integers(1, 7))
    return ring, ncols, draw(vectors(ring, ncols, 8)), draw(vectors(ring, ncols, 5))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_add_and_reduce(self, case):
        ring, ncols, inserts, queries = case
        ref, new = RefStairBasis(ring, ncols), StairBasis(ring, ncols)
        for vec in inserts:
            assert new.add(vec) == ref.add(vec)
            assert new.pivots == ref.pivots
        for row in new.pivots.values():
            assert all(canonical(ring, x) for x in row.values())
        for vec in [*queries, *inserts]:
            rec_ref, rec_new = {}, {}
            res = new.reduce(vec, rec_new)
            assert res == ref.reduce(vec, rec_ref)
            assert rec_new == rec_ref
            assert all(canonical(ring, x) for x in [*res.values(), *rec_new.values()])

    def test_gcd_step(self):
        # 4 does not divide 6: the pivot becomes -1 (4, 1, 0) + (6, 0, 1)
        # and the remainder 2 (6, 0, 1) - 3 (4, 1, 0), negated, a new pivot
        ref, new = RefStairBasis(ZZ, 3), StairBasis(ZZ, 3)
        for vec in ({0: 4, 1: 1}, {0: 6, 2: 1}):
            assert new.add(vec) and ref.add(vec)
        assert new.pivots == {0: {0: 2, 1: -1, 2: 1}, 1: {1: 3, 2: -2}}
        assert new.pivots == ref.pivots

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases(), st.sampled_from(NUMBERS))
    def test_axpy(self, case, c):
        ring, _ncols, vecs, more = case
        c = Fraction(c, 2) if ring is QQ else ring.coerce(c)
        for dst, src in zip([*vecs, *more], [*more, *vecs][::-1]):
            want, got = dict(dst), dict(dst)
            ref_axpy(ring, want, src, c)
            _axpy(ring, got, src, c)
            assert got == want
            assert all(canonical(ring, x) for x in got.values())


    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["Z", "Q", "F2", "F3"]), st.data())
    def test_sum_terms(self, name, data):
        ring = {"Z": ZZ, "Q": QQ, "F2": GF(2), "F3": GF(3)}[name]
        terms = [(k, Fraction(x, d) if ring is QQ else ring.coerce(x)) for k, x, d in data.draw(
            st.lists(st.tuples(st.integers(0, 5), st.sampled_from(NUMBERS),
                               st.sampled_from([1, 2, 3])), max_size=10))]
        # a term and its negation, or p copies of one term over F_p, cancel
        if terms:
            terms += [(k, -c) for k, c in data.draw(st.lists(st.sampled_from(terms), max_size=4))]
        if ring.kind == "Fp" and terms:
            terms += [terms[0]] * ring.p
        data.draw(st.randoms()).shuffle(terms)
        got = _sum_terms(ring, iter(terms))
        assert got == ref_sum_terms(ring, terms)
        assert all(x and canonical(ring, x) for x in got.values())
        assert _sum_terms(ring, [*terms, *((k, -c) for k, c in terms)]) == {}


class HermiteBasis:
    """Row lattice (or subspace) in Hermite normal form: after every
    insertion each pivot is positive (1 over a field) and every entry
    above a pivot lies in [0, pivot) (is 0 over a field)."""

    def __init__(self, ring):
        self.ring = ring
        self.pivots = {}

    def add(self, vec):
        ring = self.ring
        row = {j: x for j, x in vec.items() if x}
        while row:
            c = min(row)
            lead = row[c]
            piv = self.pivots.get(c)
            if piv is None:
                if ring.is_field:
                    row = {j: ring.mul(ring.inv(lead), x) for j, x in row.items()}
                elif lead < 0:
                    row = {j: -x for j, x in row.items()}
                self.pivots[c] = row
                break
            if ring.is_field:
                ref_axpy(ring, row, piv, ring.neg(ring.mul(lead, ring.inv(piv[c]))))
                continue
            # the gcd of the two leads becomes the pivot; the rest goes on
            a = piv[c]
            g, x, y = _xgcd(a, lead)
            new_piv, rem = {}, {}
            for j in set(piv) | set(row):
                u, v = piv.get(j, 0), row.get(j, 0)
                if x * u + y * v:
                    new_piv[j] = x * u + y * v
                if (a // g) * v - (lead // g) * u:
                    rem[j] = (a // g) * v - (lead // g) * u
            self.pivots[c] = new_piv
            row = rem
        self._reduce_above_pivots()

    def _reduce_above_pivots(self):
        ring = self.ring
        cols = sorted(self.pivots)
        for i, b in enumerate(cols):
            row = self.pivots[b]
            for d in cols[i + 1:]:
                x = row.get(d)
                if x is None:
                    continue
                piv = self.pivots[d]
                q = ring.mul(x, ring.inv(piv[d])) if ring.is_field else x // piv[d]
                ref_axpy(ring, row, piv, ring.neg(q))

    def rows(self):
        return [self.pivots[c] for c in sorted(self.pivots)]


def hermite_rows(ring, vecs):
    basis = HermiteBasis(ring)
    for vec in vecs:
        basis.add(vec)
    return basis.rows()


def reference_preimage(A, L):
    """{x : A x in the span of L's columns}, from the Hermite form of the
    rows (column_j(A), e_j) and (column_k(L), 0): its rows with zero left
    part span the vectors (0, x) with A x + L y = 0 for some y."""
    m = A.rows
    rows = [{**col, m + j: A.ring.one} for j, col in enumerate(A.vecs)] + list(L.vecs)
    return [{j - m: x for j, x in row.items()}
            for row in hermite_rows(A.ring, rows) if min(row) >= m]


@st.composite
def matrices(draw, ring, nrows, ncols):
    def entry():
        x = draw(st.sampled_from(NUMBERS))
        if ring is QQ:
            return Fraction(x, draw(st.sampled_from([1, 1, 2, 3])))
        return ring.coerce(x)

    cols = [{i: entry() for i in range(nrows)} for _ in range(ncols)]
    return Matrix.from_columns(ring, [{i: x for i, x in c.items() if x} for c in cols], nrows)


@st.composite
def preimage_cases(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    m = draw(st.integers(0, 5))
    A = draw(matrices(ring, m, draw(st.integers(1, 6))))
    L = draw(matrices(ring, m, draw(st.integers(0, 3))))
    return A, L


class TestAgainstHermiteReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), vectors(ZZ, n, 8))))
    def test_reference_is_sympys_hermite_form_over_z(self, case):
        # sympy's form is column-style and reduces from the right, so the
        # rows go in as columns with their coordinates reversed
        n, rows = case
        want = []
        if any(rows):
            H = hermite_normal_form(SympyMatrix(
                [[row.get(n - 1 - i, 0) for row in rows] for i in range(n)]))
            want = [{n - 1 - i: int(H[i, j]) for i in range(n) if H[i, j]}
                    for j in range(H.cols)]
            want = sorted((col for col in want if col), key=min)
        assert hermite_rows(ZZ, rows) == want

    @settings(max_examples=300, deadline=None)
    @given(preimage_cases())
    def test_kernel_basis(self, case):
        A, _ = case
        ring = A.ring
        K = kernel_basis(A)
        want = reference_preimage(A, Matrix.zeros(ring, A.rows, 0))
        assert (K.rows, len(K.vecs)) == (A.cols, len(want))
        assert (A @ K).is_zero()
        assert hermite_rows(ring, K.vecs) == want

    @settings(max_examples=300, deadline=None)
    @given(preimage_cases())
    def test_preimage_basis(self, case):
        A, L = case
        ring = A.ring
        P = preimage_basis(A, L)
        want = reference_preimage(A, L)
        assert (P.rows, len(P.vecs)) == (A.cols, len(want))
        assert hermite_rows(ring, P.vecs) == want
