import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathom.fpmod import (
    CanonicalQuotient,
    FPModule,
    NotASubmodule,
    Subquotient,
    induced_map,
    is_exact,
    presented_homology,
    subquotient,
)
from cathom.intlin import det_int, smith_normal_form
from cathom.matrix import DimensionMismatch, Matrix
from cathom.rings import GF, QQ, ZZ


def M(data, ring=ZZ):
    return Matrix(ring, data)


def empty(rows, ring=ZZ):
    return Matrix.zeros(ring, rows, 0)


class TestFPModule:
    def test_pretty(self):
        assert FPModule(ZZ, 2, (2, 4)).pretty() == "Z^2 + Z/2 + Z/4"
        assert FPModule(ZZ, 0).pretty() == "0"
        assert FPModule(QQ, 1).pretty() == "Q"

    def test_direct_sum_chains(self):
        a = FPModule(ZZ, 0, (2,))
        b = FPModule(ZZ, 0, (3,))
        assert a.direct_sum(b) == FPModule(ZZ, 0, (6,))
        c = FPModule(ZZ, 1, (2, 4))
        d = FPModule(ZZ, 0, (2,))
        assert c.direct_sum(d) == FPModule(ZZ, 1, (2, 2, 4))

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            FPModule(ZZ, 0, (4, 2))


def reference_of_diagonal(anns: list[int]) -> FPModule:
    """Z^n modulo d e_i for each d = anns[i], by prime powers: the k-th
    largest invariant factor is the product over the primes of their k-th
    largest prime-power part."""
    exponents: dict[int, list[int]] = {}
    for d in anns:
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d, e = d // p, e + 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    columns = max((len(es) for es in exponents.values()), default=0)
    factors = [1] * columns
    for p, es in exponents.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            factors[k] *= p ** e
    return FPModule(ZZ, anns.count(0), tuple(reversed(factors)))


diagonals = st.lists(st.integers(0, 60), max_size=8)


class TestOfDiagonal:
    """FPModule.of_diagonal, the one canonical form of a diagonal
    presentation, against a prime-power reference."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(diagonals)
    def test_against_prime_powers(self, anns):
        assert FPModule.of_diagonal(ZZ, anns) == reference_of_diagonal(anns)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(diagonals, diagonals)
    def test_direct_sum(self, a, b):
        A, B = FPModule.of_diagonal(ZZ, a), FPModule.of_diagonal(ZZ, b)
        assert A.direct_sum(B) == reference_of_diagonal(a + b)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(diagonals)
    def test_fields_count_only_the_free_rank(self, anns):
        for ring in (QQ, GF(2)):
            entries = [ring.coerce(d) for d in anns]
            free = sum(1 for d in entries if not d)
            assert FPModule.of_diagonal(ring, entries) == FPModule(ring, free)


def homology_at(d_out, d_in):
    """ker(d_out)/im(d_in) for maps of free modules: the homology at a
    spot of modules with no relations."""
    return presented_homology(d_out, d_in, [0] * d_out.cols, [0] * d_out.rows).module


class TestHomologyAt:
    def test_z_mod_2(self):
        d_out = Matrix.zeros(ZZ, 1, 1)
        d_in = M([[2]])
        assert homology_at(d_out, d_in) == FPModule(ZZ, 0, (2,))

    def test_exact(self):
        d_out = Matrix.identity(ZZ, 2)
        d_in = Matrix.zeros(ZZ, 2, 0)
        assert homology_at(d_out, d_in).is_zero()

    def test_free_rank_3(self):
        d_out = Matrix.zeros(ZZ, 1, 3)
        d_in = Matrix.zeros(ZZ, 3, 2)
        assert homology_at(d_out, d_in) == FPModule(ZZ, 3)

    def test_nonzero_composite_rejected(self):
        # im(d_in) is not inside ker(d_out)
        with pytest.raises(NotASubmodule):
            homology_at(M([[1]]), M([[1]]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            homology_at(M([[1, 0]]), M([[1]]))

    def test_basis_change_invariance(self):
        # invariant factors survive conjugation by unimodular matrices
        rng = random.Random(3)
        d_in = M([[2, 0], [0, 6], [0, 0]])
        d_out = Matrix.zeros(ZZ, 1, 3)
        base = homology_at(d_out, d_in)
        for _ in range(5):
            P = _random_unimodular(rng, 3)
            Q = _random_unimodular(rng, 2)
            assert homology_at(d_out @ _inverse(P), P @ d_in @ Q) == base


def _random_unimodular(rng, n):
    A = Matrix.identity(ZZ, n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        data = [list(r) for r in A.data]
        for k in range(n):
            data[i][k] += c * data[j][k]
        A = Matrix(ZZ, data)
    assert abs(det_int(A)) == 1
    return A


def _inverse(A):
    n = A.rows
    r = smith_normal_form(A)
    # A = Uinv S Vinv with S = I up to signs; invert through the factors
    Sinv = Matrix.identity(ZZ, n)
    for i in range(n):
        Sinv.vecs[i][i] = r.S.vecs[i][i]  # entries are +-1
    return r.V @ Sinv @ r.U


class TestSubquotient:
    def test_z2_squared(self):
        Z = Matrix.identity(ZZ, 2)
        B = M([[2, 0], [0, 2]])
        assert subquotient(2, Z, B).module == FPModule(ZZ, 0, (2, 2))

    def test_zero_when_equal(self):
        Z = M([[1, 0], [0, 1]])
        assert subquotient(2, Z, Z).module.is_zero()

    def test_free_rank_one(self):
        Z = M([[1], [0]])
        assert subquotient(2, Z, empty(2)).module == FPModule(ZZ, 1)

    def test_not_a_submodule(self):
        Z = M([[2], [0]])
        B = M([[1], [0]])
        with pytest.raises(NotASubmodule):
            subquotient(2, Z, B)

    def test_project_lift_roundtrip(self):
        Z = Matrix.identity(ZZ, 2)
        B = M([[2, 0], [0, 3]])
        sq = subquotient(2, Z, B)
        for j in range(sq.module.n_gens):
            v = sq.lift(j)
            coords = sq.project(v)
            expected = {j: 1}
            assert coords == expected

    def test_unimodular_invariance(self):
        rng = random.Random(11)
        Z = M([[1, 0], [0, 2], [0, 0]])
        B = M([[2], [0], [0]])
        base = subquotient(3, Z, B).module
        for _ in range(5):
            P = _random_unimodular(rng, 3)
            assert subquotient(3, P @ Z, P @ B).module == base

    def test_induced_map(self):
        # multiplication by 1 from Z/4 onto Z/2
        src = subquotient(1, Matrix.identity(ZZ, 1), M([[4]]))
        dst = subquotient(1, Matrix.identity(ZZ, 1), M([[2]]))
        T = Matrix.identity(ZZ, 1)
        m = induced_map(src, dst, T)
        assert m.data == [[1]]


class TestPresentedHomology:
    def test_group_z2_homology(self):
        # Z[C2]-resolution of Z: ... -> ZG -(g-1)-> ZG -(g+1)-> ZG -(g-1)-> ZG
        # tensored with trivial Z: maps 0, 2, 0, 2 on Z
        zero = Matrix.zeros(ZZ, 1, 1)
        two = M([[2]])
        maps = [zero, two, zero, two]  # d1..d4 acting Z <- Z
        anns = [0]
        hs = []
        for q in range(4):
            d_out = maps[q - 1] if q >= 1 else Matrix.zeros(ZZ, 0, 1)
            d_in = maps[q]
            hs.append(presented_homology(d_out, d_in, [0], anns if q >= 1 else []).module)
        assert hs[0] == FPModule(ZZ, 1)
        assert hs[1] == FPModule(ZZ, 0, (2,))
        assert hs[2].is_zero()
        assert hs[3] == FPModule(ZZ, 0, (2,))

    def test_with_torsion_ambient(self):
        # homology of 0 -> Z/4 -(x2)-> Z/4 at the right spot:
        # cycles = ker(Z/4 -x2-> Z/4) = 2Z/4, boundaries = 0 => Z/2
        d_out = M([[2]])
        d_in = Matrix.zeros(ZZ, 1, 0)
        h = presented_homology(d_out, d_in, [4], [4])
        assert h.module == FPModule(ZZ, 0, (2,))


class TestIsExact:
    def test_z_times_2_onto_z_mod_2(self):
        # Z -(x2)-> Z -> Z/2 is exact at the middle Z
        assert is_exact(M([[1]]), M([[2]]), [0], [2])

    def test_z_times_4_onto_z_mod_2(self):
        # with x4 the homology at the middle Z is 2Z/4Z = Z/2
        assert not is_exact(M([[1]]), M([[4]]), [0], [2])

    def test_nonzero_composite_is_not_exact(self):
        # Z -(x1)-> Z -> Z/2: the composite is 1, nonzero modulo 2
        with pytest.raises(NotASubmodule):
            presented_homology(M([[1]]), M([[1]]), [0], [2])
        assert not is_exact(M([[1]]), M([[1]]), [0], [2])

    def test_over_f3(self):
        # F3 -(1, 1)-> F3^2 -(1 2)-> F3 is exact; with a zero map in, not
        d_out = M([[1, 2]], GF(3))
        assert is_exact(d_out, M([[1], [1]], GF(3)), [0, 0], [0])
        assert not is_exact(d_out, Matrix.zeros(GF(3), 2, 1), [0, 0], [0])

    def test_injective_and_surjective_as_exactness(self):
        # Z/4 -(x1)-> Z/2 is onto (exact at Z/2 before 0) but not into
        # (not exact at Z/4 after 0)
        one = M([[1]])
        assert is_exact(Matrix.zeros(ZZ, 0, 1), one, [2], [])
        assert not is_exact(one, Matrix.zeros(ZZ, 1, 0), [4], [2])


class TestZeroQuotientShortcut:
    """A staircase of full rank with unit pivots is the whole lattice: the
    quotient is zero without an SNF, and later relations are not read."""

    @pytest.fixture
    def snf_calls(self, monkeypatch):
        import cathom.fpmod as fpmod

        calls = []

        def counting(A):
            calls.append(A)
            return smith_normal_form(A)

        monkeypatch.setattr(fpmod, "smith_normal_form", counting)
        return calls

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)])
    def test_full_unit_staircase_is_zero_without_snf(self, monkeypatch, ring):
        import cathom.fpmod as fpmod

        def refuse(A):
            raise AssertionError("SNF of a zero quotient")

        monkeypatch.setattr(fpmod, "smith_normal_form", refuse)
        read = []

        def relations():
            for vec in ({0: 3, 1: 2}, {0: 1, 2: 1}, {0: 1, 1: 1}, {1: 1, 2: 2}, {2: 1}):
                read.append(vec)
                yield {i: ring.coerce(x) for i, x in vec.items() if ring.coerce(x)}

        q = CanonicalQuotient(ring, 3, relations())
        assert q.module.is_zero()
        assert q.project({0: ring.one, 2: ring.coerce(4)}) == {}
        # the first three relations have determinant -1, so they span R^3
        # over every ring and the last two are never read
        assert len(read) == 3

    def test_full_rank_with_a_pivot_of_2_goes_through_snf(self, snf_calls):
        q = CanonicalQuotient(ZZ, 2, [{0: 1, 1: 1}, {1: 2}])
        assert q.module == FPModule(ZZ, 0, (2,))
        assert len(snf_calls) == 1
        assert q.project(q.lift(0)) == {0: 1}
        assert q.project({0: 1, 1: 1}) == {}

    def test_ambient_rank_0(self, snf_calls):
        for ring in (ZZ, GF(3)):
            q = CanonicalQuotient(ring, 0, [])
            assert q.module.is_zero() and q.project({}) == {}
            sq = Subquotient(ring, 0, Matrix.zeros(ring, 0, 0), Matrix.zeros(ring, 0, 0))
            assert sq.module.is_zero() and sq.lifts().cols == 0
        assert snf_calls == []

    def test_not_full_rank_keeps_its_free_part(self, snf_calls):
        q = CanonicalQuotient(ZZ, 3, [{0: 1}, {1: 1}])
        assert q.module == FPModule(ZZ, 1)
        assert len(snf_calls) == 1
