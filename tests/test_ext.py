import pytest

from cathom.catmod import CatModule, CONTRA, VarianceMismatch
from cathom.e1data import ChainGroupData, chain_oracle
from cathom.extpages import ExtFilteredComplex, ext_pages
from cathom.fixtures import FIXTURE_NAMES, alternative_contravariant, fixture_category
from cathom.fpmod import FPModule
from cathom.resolve import ext
from cathom.rings import GF, ZZ


class TestExtPages:
    def test_point_single_column(self):
        cat = fixture_category("point")
        M = CatModule.constant(cat, ZZ, CONTRA)
        pages, rep = ext_pages(M, M, q_max=4, n_max=3)
        assert rep.all_match
        einf = pages[-1]
        assert einf.entry(0, 0) == FPModule(ZZ, 1)
        assert all(einf.entry(0, q).is_zero() for q in (1, 2, 3))

    def test_one_object_z2_column(self):
        # E_infty^{0,q} = H^q(Z/2; Z) = Z, 0, Z/2, 0
        cat = fixture_category("BZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        pages, rep = ext_pages(M, M, q_max=4, n_max=3)
        assert rep.all_match
        einf = pages[-1]
        assert [einf.entry(0, q).pretty() for q in range(4)] == ["Z", "0", "Z/2", "0"]

    def test_or_z2_final_object(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        pages, rep = ext_pages(M, M, q_max=4, n_max=3)
        assert rep.all_match
        assert [d["total"] for d in rep.degrees] == ["Z", "0", "0", "0"]

    @pytest.mark.parametrize("name", ["OrZ3", "OrZ4"])
    def test_more_orbit_categories(self, name):
        cat = fixture_category(name)
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = alternative_contravariant(cat, ZZ)
        for coeff in (M, N):
            pages, rep = ext_pages(M, coeff, q_max=3, n_max=2)
            assert rep.all_match, rep.to_json()

    def test_product_form_rows_present(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        pages, rep = ext_pages(M, M, q_max=4, n_max=3)
        assert any(r["p"] == 0 and r["q"] == 2 and r["product_form"] == "Z/2"
                   for r in rep.e1_rows)
        assert all(r["match"] for r in rep.e1_rows)

    def test_field_coefficients(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, GF(2), CONTRA)
        pages, rep = ext_pages(M, M, q_max=3, n_max=2)
        assert rep.all_match

    def test_variance_guard(self):
        cat = fixture_category("point")
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, "co")
        with pytest.raises(VarianceMismatch):
            ExtFilteredComplex(M, N)

    def test_dr_bidegree(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        pages, rep = ext_pages(M, M, q_max=4, n_max=3)
        for page in pages:
            for (p, q), mat in page.diffs.items():
                assert (p + page.r, q - page.r + 1) in page.entries


class TestExtChainOracle:
    """The E_1 product-form rows call the Ext oracle once per distinct
    chain datum; each chain's answer is a fresh Ext of its own data."""

    @pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
    @pytest.mark.parametrize("coeff", ["const", "alt"])
    @pytest.mark.parametrize("name", ["OrZ4", "OrV4", "OrS3"])
    def test_product_form_is_fresh_ext_per_chain(self, name, coeff, ring):
        cat = fixture_category(name)
        M = CatModule.constant(cat, ring, CONTRA)
        N = M if coeff == "const" else alternative_contravariant(cat, ring)
        pages, rep = ext_pages(M, N, q_max=3, n_max=2)
        assert rep.all_match, rep.to_json()
        fcx = ExtFilteredComplex(M, N, q_max=3)
        table = chain_oracle(fcx, ext, rep.band)
        for p in sorted(fcx.chains):
            fresh = []
            for chain in fcx.chains[p]:
                data = ChainGroupData(fcx, chain)
                fresh.append(ext(data.A, data.B, rep.band))
                assert table[(p, chain)] == fresh[-1]
            for row in rep.e1_rows:
                if row["p"] == p:
                    total = FPModule(ring, 0)
                    for groups in fresh:
                        total = total.direct_sum(groups[row["q"]])
                    assert row["product_form"] == total.pretty()

    def test_once_per_distinct_key(self, monkeypatch):
        import cathom.extpages as extpages

        cat = fixture_category("OrS3")
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = alternative_contravariant(cat, ZZ)
        fcx = ExtFilteredComplex(M, N, q_max=3)
        keys = {ChainGroupData(fcx, chain).key for p in fcx.chains for chain in fcx.chains[p]}
        n_chains = sum(len(fcx.chains[p]) for p in fcx.chains)
        assert len(keys) < n_chains
        calls = []
        real_ext = extpages.ext

        def counting(A, B, n_max):
            calls.append(A)
            return real_ext(A, B, n_max)

        monkeypatch.setattr(extpages, "ext", counting)
        pages, rep = ext_pages(M, N, q_max=3, n_max=2)
        assert rep.all_match
        # one call per distinct chain datum, plus the total-cohomology oracle
        assert len(calls) == len(keys) + 1


class TestCEColumns:
    """Every column P(W_p) of the Cartan-Eilenberg resolution resolves its
    row W_p, the end columns (p = 0 and p = p_max, next to the zero ends of
    the row complex) included."""

    @pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_column_resolves_its_row(self, name, ring):
        cat = fixture_category(name)
        M = CatModule.constant(cat, ring, CONTRA)
        N = alternative_contravariant(cat, ring)
        fcx = ExtFilteredComplex(M, N, q_max=3)
        assert len(fcx.PW) == fcx.p_max + 1
        for p, PW in enumerate(fcx.PW):
            assert PW.M is fcx.W[p].module
            assert PW.verify() == [], (name, p)
