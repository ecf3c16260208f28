import pytest

from cathom.catmod import CatModule, CONTRA, VarianceMismatch
from cathom.extpages import ExtFilteredComplex, ext_pages
from cathom.fixtures import FIXTURE_NAMES, alternative_contravariant, fixture_category
from cathom.fpmod import FPModule
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
