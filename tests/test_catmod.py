import pytest

from cathom.catmod import (
    CO,
    CONTRA,
    CatModule,
    FreeCatModule,
    Functor,
    NotAFunctor,
    VarianceMismatch,
    full_subcategory,
    restrict,
    induce,
    tensor_over_C,
)
from cathom.fixtures import (
    FIXTURE_NAMES,
    arrow_category,
    augmentation_covariant,
    alternative_contravariant,
    fixture_category,
    fixture_modules,
    group_category,
    poset_category,
    trivial_category,
)
from cathom.fpmod import FPModule
from cathom.groups import FiniteGroup, orbit_category
from cathom.matrix import Matrix
from cathom.resolve import (
    assembly_tor,
    ext,
    free_resolution,
    tensor_complex,
    tor,
)
from cathom.rings import GF, QQ, ZZ


class TestCatModule:
    @pytest.mark.parametrize("name", ["point", "arrow", "poset012", "BZ2", "OrZ2", "OrZ4"])
    def test_fixture_modules_validate(self, name):
        cat = fixture_category(name)
        for ring in (ZZ, GF(2)):
            M = CatModule.constant(cat, ring, CONTRA)
            assert M.validate() == []
            assert alternative_contravariant(cat, ring).validate() == []
            assert augmentation_covariant(cat, ring).validate() == []

    def test_free_module_action_functorial(self):
        cat = orbit_category(FiniteGroup.cyclic(4))
        F = FreeCatModule(cat, ZZ, CONTRA, [cat.objects[0], cat.objects[2]])
        assert F.as_catmodule().validate() == []

    def test_transport_collision_cancels_to_the_zero_vector(self):
        # covariantly, both automorphisms of G/H0 compose with G/H0 -> G/H1
        # to the one map, so e_id - e_sigma is carried to 0, with no entry
        cat = fixture_category("OrZ2")
        ident, sigma = cat.hom[("G/H0", "G/H0")]
        (f,) = cat.hom[("G/H0", "G/H1")]
        for ring in (ZZ, QQ, GF(3)):
            F = FreeCatModule(cat, ring, CO, ["G/H0"])
            pairs = {(0, ident): ring.one, (0, sigma): ring.neg(ring.one)}
            assert F.transport(f, pairs) == {}
            assert F.transport(f, {(0, ident): ring.one, (0, sigma): ring.one}) == {
                (0, f): ring.add(ring.one, ring.one)}

    def test_presented_load_canonicalizes(self):
        cat = trivial_category()
        values = {"*": (2, [[2, 0], [0, 1]])}  # Z/2 + killed generator
        raw = {"id": Matrix.identity(ZZ, 2)}
        M = CatModule.from_presentations(cat, CONTRA, ZZ, values, raw)
        assert M.value("*") == FPModule(ZZ, 0, (2,))


class TestTensor:
    @pytest.mark.parametrize("name", ["point", "arrow", "OrZ2", "OrZ4", "BZ2"])
    def test_yoneda(self, name):
        # R mor(?, c) (x)_C N = N(c) for every object c
        cat = fixture_category(name)
        for ring in (ZZ, GF(2)):
            N = augmentation_covariant(cat, ring)
            for c in cat.objects:
                free = FreeCatModule(cat, ring, CONTRA, [c]).as_catmodule()
                assert tensor_over_C(free, N) == N.value(c)

    def test_point_tensor(self):
        cat = trivial_category()
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, CO)
        assert tensor_over_C(M, N) == FPModule(ZZ, 1)

    def test_or_z2_constants(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, CO)
        assert tensor_over_C(M, N) == FPModule(ZZ, 1)

    def test_variance_checked(self):
        cat = trivial_category()
        M = CatModule.constant(cat, ZZ, CONTRA)
        with pytest.raises(VarianceMismatch):
            tensor_over_C(M, M)


class TestResolution:
    def test_free_module_resolves_as_itself(self):
        cat = fixture_category("OrZ4")
        free = FreeCatModule(cat, ZZ, CONTRA, [cat.objects[1]]).as_catmodule()
        res = free_resolution(free, 2)
        assert res.levels[0].summands == [cat.objects[1]]
        assert res.levels[1].summands == []
        assert res.verify() == []

    def test_constant_over_arrow_single_summand(self):
        # [1] has final object 1: the constant module is R mor(?, 1)
        cat = arrow_category()
        res = free_resolution(CatModule.constant(cat, ZZ, CONTRA), 2)
        assert res.levels[0].summands == ["1"]
        assert res.levels[1].summands == []
        assert res.verify() == []

    def test_constant_over_orbit_final_object(self):
        cat = fixture_category("OrS3")
        res = free_resolution(CatModule.constant(cat, ZZ, CONTRA), 1)
        assert len(res.levels[0].summands) == 1  # mor(?, G/G)
        assert res.levels[1].summands == []

    @pytest.mark.parametrize("name", ["arrow", "poset012", "BZ2", "OrZ2", "OrZ4"])
    def test_exactness(self, name):
        cat = fixture_category(name)
        for ring in (ZZ, GF(2)):
            for M in (
                CatModule.constant(cat, ring, CONTRA),
                alternative_contravariant(cat, ring),
            ):
                res = free_resolution(M, 3)
                assert res.verify() == []

    def test_full_strategy_also_exact(self):
        cat = fixture_category("OrZ2")
        res = free_resolution(CatModule.constant(cat, ZZ, CONTRA), 3, strategy="full")
        assert res.verify() == []

    def test_covariant_resolution(self):
        cat = fixture_category("OrZ4")
        res = free_resolution(CatModule.constant(cat, ZZ, CO), 3)
        assert res.verify() == []

    def test_corrupted_augmentation_reported_once(self):
        # Z + sign + sign over BZ2; sending the trivial generator to e1 + e2
        # breaks aug . d1 in two rows of the one object, and the changed
        # augmentation is no longer exact at level 0
        cat = group_category(FiniteGroup.cyclic(2))
        act = {"g0": Matrix.identity(ZZ, 3), "g1": Matrix(ZZ, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])}
        M = CatModule(cat, CONTRA, ZZ, {"*": [0, 0, 0]}, act)
        res = free_resolution(M, 2)
        assert res.verify() == []
        assert res.aug_images[0] == {0: 1}
        res.aug_images[0] = {1: 1, 2: 1}
        assert res.verify() == ["aug . d1 != 0 at *", "not exact at level 0, object *"]


class TestTorOracle:
    def test_group_z2_homology(self):
        # Tor_q(Z, Z) over Z[Z/2] = Z, Z/2, 0, Z/2 (bar-resolution values)
        cat = group_category(FiniteGroup.cyclic(2))
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, CO)
        t = tor(M, N, 3)
        assert t[0] == FPModule(ZZ, 1)
        assert t[1] == FPModule(ZZ, 0, (2,))
        assert t[2].is_zero()
        assert t[3] == FPModule(ZZ, 0, (2,))

    def test_group_z3_homology(self):
        cat = group_category(FiniteGroup.cyclic(3))
        t = tor(CatModule.constant(cat, ZZ, CONTRA), CatModule.constant(cat, ZZ, CO), 3)
        assert [m.pretty() for m in t] == ["Z", "Z/3", "0", "Z/3"]

    @pytest.mark.parametrize("name", ["OrZ2", "OrZ3", "OrZ4", "OrS3"])
    def test_final_object_collapse(self, name):
        # constant contra module is free, so Tor vanishes above degree 0
        cat = fixture_category(name)
        M = CatModule.constant(cat, ZZ, CONTRA)
        for N in (CatModule.constant(cat, ZZ, CO), augmentation_covariant(cat, ZZ)):
            t = tor(M, N, 3)
            final = cat.objects[-1]  # largest subgroup is last
            assert t[0] == N.value(final)
            assert all(t[q].is_zero() for q in (1, 2, 3))

    def test_rational_groupoid_vanishing(self):
        cat = group_category(FiniteGroup.cyclic(3))
        M = CatModule.constant(cat, QQ, CONTRA)
        N = CatModule.constant(cat, QQ, CO)
        t = tor(M, N, 3)
        assert t[0] == FPModule(QQ, 1)
        assert all(t[q].is_zero() for q in (1, 2, 3))

    def test_resolution_independence(self):
        cat = fixture_category("OrZ2")
        M = alternative_contravariant(cat, ZZ)
        N = augmentation_covariant(cat, ZZ)
        assert tor(M, N, 3) == tor(M, N, 3, strategy="full")

    def test_variance_mismatch(self):
        cat = trivial_category()
        M = CatModule.constant(cat, ZZ, CONTRA)
        with pytest.raises(VarianceMismatch):
            tor(M, M, 1)


class TestExtOracle:
    def test_group_z2_cohomology(self):
        # H^q(Z/2; Z) = Z, 0, Z/2, 0
        cat = group_category(FiniteGroup.cyclic(2))
        M = CatModule.constant(cat, ZZ, CONTRA)
        e = ext(M, M, 3)
        assert [m.pretty() for m in e] == ["Z", "0", "Z/2", "0"]

    def test_or_z2_final_object(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        e = ext(M, M, 3)
        assert e[0] == FPModule(ZZ, 1)
        assert all(e[q].is_zero() for q in (1, 2, 3))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_resolution_independence(self, name):
        # the greedy cover and the full kernel basis give the same Ext
        Ms, _ = fixture_modules(fixture_category(name), ZZ)
        assert ext(Ms["alt"], Ms["const"], 2) == ext(Ms["alt"], Ms["const"], 2, strategy="full")


class TestFunctors:
    def test_identity_restrict_induce(self):
        cat = fixture_category("OrZ2")
        F = Functor.identity(cat)
        M = alternative_contravariant(cat, ZZ)
        R = restrict(F, M)
        assert R.anns == M.anns
        ind = induce(F, M)
        for c in cat.objects:
            assert ind.value(c) == M.value(c)

    def test_not_a_functor(self):
        cat = fixture_category("OrZ2")
        with pytest.raises(NotAFunctor):
            Functor(cat, cat, {c: c for c in cat.objects},
                    {f: cat.id_of(cat.src(f)) for f in cat.morphisms})

    def test_induce_point_inclusion_gives_free(self):
        # inclusion of the one-object subcategory on c0 with trivial aut:
        # inducing the constant module gives R mor(?, c0)
        cat = poset_category(3)
        sub, inc = full_subcategory(cat, ["1"])
        M = CatModule.constant(sub, ZZ, CONTRA)
        ind = induce(inc, M)
        free = FreeCatModule(cat, ZZ, CONTRA, ["1"]).as_catmodule()
        for c in cat.objects:
            assert ind.value(c) == free.value(c)

    @pytest.mark.parametrize("name", ["OrZ2", "OrZ4"])
    def test_adjunction(self, name):
        # M (x)_B F^*(N) = F_*(M) (x)_C N for the subcategory inclusion
        cat = fixture_category(name)
        sub, inc = full_subcategory(cat, cat.objects[:2])
        N = CatModule.constant(cat, ZZ, CO)
        for M in (
            CatModule.constant(sub, ZZ, CONTRA),
            alternative_contravariant(sub, ZZ) if sub.iso_classes().count > 1 else CatModule.constant(sub, ZZ, CONTRA),
        ):
            lhs = tensor_over_C(M, restrict(inc, N))
            rhs = tensor_over_C(induce(inc, M), N)
            assert lhs == rhs

    @pytest.mark.parametrize("name", ["arrow", "poset012", "BZ2", "OrZ2", "OrZ4", "OrS3"])
    def test_covariant_induction_adjunction(self, name):
        # F^*(M) (x)_B X = M (x)_C F_*(X) for covariant X over a full subcategory
        cat = fixture_category(name)
        for ring in (ZZ, GF(2)):
            Ms, Ns = fixture_modules(cat, ring)
            for k in range(1, len(cat.objects) + 1):
                sub, inc = full_subcategory(cat, cat.objects[:k])
                for X in (CatModule.constant(sub, ring, CO), restrict(inc, Ns["aug"])):
                    ind = induce(inc, X)
                    assert ind.validate() == []
                    for M in Ms.values():
                        assert tensor_over_C(restrict(inc, M), X) == tensor_over_C(M, ind)


class TestAssembly:
    def test_identity_assembly(self):
        cat = fixture_category("OrZ2")
        N = CatModule.constant(cat, ZZ, CO)
        res = assembly_tor(Functor.identity(cat), N, 2)
        assert all(res.iso)

    def test_tr_to_all_or_z2(self):
        # B = Or(Z/2, TR) -> C = Or(Z/2, ALL): degree 0 iso Z -> Z,
        # degree 1 map H_1(Z/2; Z) = Z/2 -> 0
        G = FiniteGroup.cyclic(2)
        C = orbit_category(G)
        B, inc = full_subcategory(C, [C.objects[0]])
        N = CatModule.constant(C, ZZ, CO)
        res = assembly_tor(inc, N, 3)
        assert res.source[0] == FPModule(ZZ, 1)
        assert res.target[0] == FPModule(ZZ, 1)
        assert res.iso[0]
        assert res.source[1] == FPModule(ZZ, 0, (2,))
        assert res.target[1].is_zero()
        assert not res.iso[1]

    def test_cofinal_subfamily_s3(self):
        # reduced family {S3} includes cofinally into ALL
        G = FiniteGroup.symmetric(3)
        C = orbit_category(G)
        B, inc = full_subcategory(C, [C.objects[-1]])
        N = CatModule.constant(C, ZZ, CO)
        res = assembly_tor(inc, N, 3)
        assert all(res.iso)


class TestHomYoneda:
    def test_hom_from_representable_evaluates(self):
        # Hom(R mor(?, c), N) = N(c): degree-0 Ext of a free module
        from cathom.resolve import ext as cat_ext

        cat = fixture_category("OrZ4")
        N = alternative_contravariant(cat, ZZ)
        for c in cat.objects:
            free = FreeCatModule(cat, ZZ, CONTRA, [c]).as_catmodule()
            groups = cat_ext(free, N, 2)
            assert groups[0] == N.value(c)
            assert groups[1].is_zero() and groups[2].is_zero()
