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
        out = A.apply(vec)
        assert out == naive_apply(A, vec)
        assert all(is_canonical(A.ring, x) for x in out)

    @settings(max_examples=200, deadline=None)
    @given(matrix_and_vector())
    def test_uncoerced_vector_gives_canonical_result(self, mv):
        # unreduced ints over F_p and plain ints over Q
        A, raw = mv
        out = A.apply(raw)
        assert out == naive_apply(A, [A.ring.coerce(x) for x in raw])
        assert all(is_canonical(A.ring, x) for x in out)

    def test_zero_vector_and_empty_matrix(self):
        for ring in RINGS:
            A = Matrix(ring, [[1, 2], [3, 4]])
            assert A.apply([0, 0]) == [ring.zero, ring.zero]
            assert Matrix.zeros(ring, 0, 3).apply([1, 0, 1]) == []

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix(ZZ, [[1, 2]]).apply([1])

