import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathom.intlin import (
    ColumnOps,
    StairBasis,
    det_int,
    invariant_factors,
    kernel_basis,
    preimage_basis,
    smith_normal_form,
)
from cathom.matrix import Matrix
from cathom.rings import GF, QQ, ZZ


def M(data, ring=ZZ):
    return Matrix(ring, data)


def random_matrix(rng, rows, cols, lo=-9, hi=9, ring=ZZ):
    return Matrix(ring, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


class TestSmithNormalForm:
    def test_identity(self):
        A = Matrix.identity(ZZ, 2)
        r = smith_normal_form(A)
        assert r.S == A
        assert r.U == Matrix.identity(ZZ, 2)
        assert r.V == Matrix.identity(ZZ, 2)

    def test_hand_example(self):
        # gcd of entries is 2 and d1*d2 = |det| = 8, so S = diag(2, 4)
        A = M([[2, 4], [6, 8]])
        r = smith_normal_form(A)
        assert r.diagonal() == [2, 4]
        assert r.U @ A @ r.V == r.S

    def test_zero(self):
        A = Matrix.zeros(ZZ, 3, 2)
        r = smith_normal_form(A)
        assert r.S.is_zero()
        assert r.U == Matrix.identity(ZZ, 3)
        assert r.V == Matrix.identity(ZZ, 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_properties(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        A = random_matrix(rng, rows, cols)
        r = smith_normal_form(A)
        assert r.U @ A @ r.V == r.S
        assert abs(det_int(r.U)) == 1
        assert abs(det_int(r.V)) == 1
        assert r.U @ r.Uinv == Matrix.identity(ZZ, rows)
        assert r.V @ r.Vinv == Matrix.identity(ZZ, cols)
        d = r.diagonal()
        for i in range(len(d) - 1):
            if d[i + 1]:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
            assert d[i] >= 0
        # off-diagonal zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert r.S.data[i][j] == 0

    def test_field_snf(self):
        A = M([[2, 4], [6, 8]], QQ)
        r = smith_normal_form(A)
        assert r.diagonal() == [1, 1]
        A2 = Matrix(GF(2), [[1, 1], [1, 1]])
        r2 = smith_normal_form(A2)
        assert r2.diagonal() == [1, 0]


class TestKernelAndSolve:
    def test_kernel_injective(self):
        assert kernel_basis(Matrix.identity(ZZ, 2)).cols == 0

    def test_kernel_rank_one(self):
        K = kernel_basis(M([[1, 1]]))
        assert K.cols == 1
        v = K.vecs[0]
        assert sorted(v.values()) == [-1, 1]

    def test_kernel_invertible_rational(self):
        # det = -8 != 0
        assert kernel_basis(M([[2, 4], [6, 8]], QQ)).cols == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_kernel_saturated_and_correct(self, seed):
        rng = random.Random(100 + seed)
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        K = kernel_basis(A)
        assert (A @ K).is_zero() if K.cols else True
        # rank-nullity over Q agrees (saturation)
        AQ = Matrix(QQ, [[x for x in row] for row in A.data])
        assert K.cols == kernel_basis(AQ).cols

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)])
    def test_solve_roundtrip(self, ring):
        rng = random.Random(7)
        for _ in range(10):
            A = random_matrix(rng, 4, 3, ring=ring)
            x = {k: ring.coerce(rng.randint(-5, 5)) for k in range(3)}
            b = A.apply(x)
            sol = ColumnOps(A).solve(b)
            assert sol is not None
            assert A.apply(sol) == b

    def test_solve_no_solution(self):
        A = M([[2]])
        assert ColumnOps(A).solve({0: 1}) is None
        assert ColumnOps(A).solve({0: 4}) == {0: 2}

    def test_rank_nullity_fields(self):
        rng = random.Random(5)
        for ring in (QQ, GF(5)):
            for _ in range(10):
                A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), ring=ring)
                ops = ColumnOps(A)
                assert ops.rank() + ops.kernel_basis().cols == A.cols

    def test_preimage(self):
        # preimage of span{(2,0)} under identity is that span plus kernel
        A = Matrix.identity(ZZ, 2)
        L = M([[2], [0]])
        P = preimage_basis(A, L)
        cols = sorted(tuple(row[j] for row in P.data) for j in range(P.cols))
        assert cols == [(2, 0)]


class TestStairBasis:
    def test_membership_divisibility(self):
        b = StairBasis(ZZ, 2)
        b.add({0: 2})
        b.add({1: 3})
        assert b.contains({0: 4, 1: 3})
        assert not b.contains({0: 1})
        assert b.express({0: 2, 1: 3}) is not None

    def test_growth_flag(self):
        b = StairBasis(ZZ, 2)
        assert b.add({0: 2, 1: 4})
        assert not b.add({0: 4, 1: 8})
        assert b.add({0: 3, 1: 6})  # gcd step shrinks the pivot
        assert b.contains({0: 1, 1: 2})


def snf_factors(A):
    return [d for d in smith_normal_form(A).diagonal() if d]


def sympy_factors(A):
    from sympy import Matrix as SMatrix
    from sympy import ZZ as SZZ
    from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

    if A.rows == 0 or A.cols == 0:
        return []
    return [abs(int(d)) for d in sympy_invariant_factors(SMatrix(A.data), domain=SZZ) if d]


FACTOR_RINGS = {"Z": ZZ, "Q": QQ, "F2": GF(2), "F5": GF(5)}


@st.composite
def ring_matrices(draw, entries=(0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -9)):
    tag = draw(st.sampled_from(sorted(FACTOR_RINGS)))
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.sampled_from(entries), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return Matrix(FACTOR_RINGS[tag], rows, cols=n)


class TestInvariantFactors:
    """invariant_factors against SNF with transforms and, over Z, sympy."""

    @settings(max_examples=300, deadline=None)
    @given(ring_matrices())
    def test_matches_snf(self, A):
        f = invariant_factors(A)
        assert f == snf_factors(A)
        if A.ring.is_field:
            assert all(d == A.ring.one for d in f)
        else:
            assert f == sympy_factors(A)

    @settings(max_examples=100, deadline=None)
    @given(ring_matrices(entries=(1, -1, 1, -1, 0, 2)))
    def test_unit_heavy_matches_snf(self, A):
        f = invariant_factors(A)
        assert f == snf_factors(A)
        if not A.ring.is_field:
            assert f == sympy_factors(A)

    @pytest.mark.parametrize("tag", sorted(FACTOR_RINGS))
    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5)])
    def test_empty_and_zero_shapes(self, tag, shape):
        ring = FACTOR_RINGS[tag]
        assert invariant_factors(Matrix.zeros(ring, *shape)) == []

    def test_no_unit_entry_goes_to_the_rest(self):
        assert invariant_factors(M([[2, 0], [0, 3]])) == [1, 6]
        assert invariant_factors(M([[2, 4], [6, 8]])) == [2, 4]
        assert invariant_factors(M([[2, 0], [0, 2]])) == [2, 2]
        assert invariant_factors(M([[4, 6]])) == [2]

    def test_units_then_rest(self):
        # a unit pivot, and a rest whose second reduction changes it
        A = M([[1, 2, 0], [1, 0, 2], [0, 2, 4]])
        assert invariant_factors(A) == snf_factors(A) == sympy_factors(A)

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_unit_heavy(self, seed):
        rng = random.Random(seed)
        for ring in (ZZ, GF(5)):
            A = Matrix(ring, [[rng.choice([1, -1, 1, 0]) for _ in range(12)] for _ in range(10)])
            assert invariant_factors(A) == snf_factors(A)
        A = Matrix(ZZ, [[rng.choice([1, -1, 1, 0]) for _ in range(12)] for _ in range(10)])
        assert invariant_factors(A) == sympy_factors(A)
