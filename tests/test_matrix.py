from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathom.matrix import DimensionMismatch, Matrix
from cathom.rings import GF, QQ, ZZ

RINGS = [ZZ, QQ, GF(2), GF(5)]


def naive_apply(A, vec):
    ring = A.ring
    out = []
    for row in A.data:
        acc = ring.zero
        for a, x in zip(row, vec):
            acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return out


def dense(vec, n, ring):
    return [vec.get(i, ring.zero) for i in range(n)]


def is_canonical(ring, x):
    if ring.kind == "Fp":
        return type(x) is int and 0 <= x < ring.p
    if ring.kind == "Q":
        return type(x) is Fraction
    return type(x) is int


# mostly zeros, with negative entries; over Q also proper fractions
ints = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 7, -12])
entries = st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 4)))


@st.composite
def matrix_and_vector(draw):
    ring = draw(st.sampled_from(RINGS))
    elem = entries if ring is QQ else ints
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    data = [[draw(elem) for _ in range(cols)] for _ in range(rows)]
    vec = [draw(elem) for _ in range(cols)]
    return Matrix(ring, data, cols=cols), vec


class TestApply:
    @settings(max_examples=300, deadline=None)
    @given(matrix_and_vector())
    def test_matches_naive_reference(self, mv):
        A, raw = mv
        vec = [A.ring.coerce(x) for x in raw]
        out = A.apply(dict(enumerate(vec)))
        assert dense(out, A.rows, A.ring) == naive_apply(A, vec)
        assert all(is_canonical(A.ring, x) for x in out.values())

    @settings(max_examples=200, deadline=None)
    @given(matrix_and_vector())
    def test_uncoerced_vector_gives_canonical_result(self, mv):
        # unreduced ints over F_p and plain ints over Q
        A, raw = mv
        out = A.apply(dict(enumerate(raw)))
        assert dense(out, A.rows, A.ring) == naive_apply(A, [A.ring.coerce(x) for x in raw])
        assert all(is_canonical(A.ring, x) for x in out.values())

    def test_zero_vector_and_empty_matrix(self):
        for ring in RINGS:
            A = Matrix(ring, [[1, 2], [3, 4]])
            assert A.apply({0: 0, 1: 0}) == {}
            assert Matrix.zeros(ring, 0, 3).apply({0: 1, 1: 0, 2: 1}) == {}

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix(ZZ, [[1, 2]]).apply({2: 1})


# -- the sparse column store -------------------------------------------------


def assert_store(A):
    """Every column is a zero-free dict of canonical entries inside the shape."""
    assert len(A.vecs) == A.cols
    for vec in A.vecs:
        for i, x in vec.items():
            assert 0 <= i < A.rows
            assert x != A.ring.zero
            assert is_canonical(A.ring, x)


def naive_matmul(A, B):
    ring = A.ring
    cols = list(zip(*B.data)) if B.rows else [()] * B.cols
    return [naive_apply(A, list(col)) for col in cols]


@st.composite
def ring_and_matrices(draw, count):
    ring = draw(st.sampled_from(RINGS))
    elem = entries if ring is QQ else ints
    rows = draw(st.integers(0, 5))
    out = []
    for _ in range(count):
        cols = draw(st.integers(0, 5))
        data = [[draw(elem) for _ in range(cols)] for _ in range(rows)]
        out.append(Matrix(ring, data, cols=cols))
    return ring, out


class TestStore:
    @settings(max_examples=200, deadline=None)
    @given(ring_and_matrices(1))
    def test_from_columns(self, rm):
        ring, (A,) = rm
        B = Matrix.from_columns(ring, [dict(vec) for vec in A.vecs], A.rows)
        assert_store(A)
        assert_store(B)
        assert B == A and B.data == A.data

    @settings(max_examples=300, deadline=None)
    @given(ring_and_matrices(2), st.data())
    def test_add_block(self, rm, data):
        ring, (A, B) = rm
        # the block fits at an offset; with cancel set it is -A's own block,
        # so every entry it touches sums to zero
        br = data.draw(st.integers(0, A.rows))
        bc = data.draw(st.integers(0, A.cols))
        r0 = data.draw(st.integers(0, A.rows - br))
        c0 = data.draw(st.integers(0, A.cols - bc))
        if data.draw(st.booleans()):
            blk = Matrix(ring, [[ring.neg(A.data[r0 + r][c0 + c]) for c in range(bc)]
                                for r in range(br)], cols=bc)
            coeff = None
        else:
            blk = Matrix(ring, [[B.data[r % B.rows][c % B.cols] if B.rows and B.cols else 0
                                 for c in range(bc)] for r in range(br)], cols=bc)
            coeff = ring.coerce(data.draw(ints))
        want = A.data
        for r, row in enumerate(blk.data):
            for c, x in enumerate(row):
                x = x if coeff is None else ring.mul(coeff, x)
                want[r0 + r][c0 + c] = ring.add(want[r0 + r][c0 + c], x)
        A.add_block(r0, c0, blk, coeff)
        assert_store(A)
        assert A.data == want
        if coeff is None:
            assert all(A.data[r0 + r][c0 + c] == ring.zero
                       for r in range(br) for c in range(bc))

    @settings(max_examples=300, deadline=None)
    @given(matrix_and_vector())
    def test_apply_is_zero_free(self, mv):
        A, raw = mv
        out = A.apply(dict(enumerate(raw)))
        assert_store(Matrix.from_columns(A.ring, [out], A.rows))

    @settings(max_examples=200, deadline=None)
    @given(ring_and_matrices(2))
    def test_matmul(self, rm):
        ring, (A, B) = rm
        # A is rows x k; make B k x cols by reshaping its entries
        k = A.cols
        Bk = Matrix(ring, [[B.data[i % B.rows][j] if B.rows else 0 for j in range(B.cols)]
                           for i in range(k)], cols=B.cols)
        C = A @ Bk
        assert_store(C)
        assert (C.rows, C.cols) == (A.rows, Bk.cols)
        assert [[row[j] for row in C.data] for j in range(C.cols)] == naive_matmul(A, Bk)

    @settings(max_examples=200, deadline=None)
    @given(ring_and_matrices(2))
    def test_hstack(self, rm):
        ring, (A, B) = rm
        C = A.hstack(B)
        assert_store(C)
        assert (C.rows, C.cols) == (A.rows, A.cols + B.cols)
        assert C.data == [ra + rb for ra, rb in zip(A.data, B.data)]
