import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathom.catmod import CatModule, CO, CONTRA, FreeCatModule
from cathom.extpages import ExtFilteredComplex
from cathom.fincat import NerveCache, chain_bound, nd_tilde_nerve
from cathom.fixtures import (
    FIXTURE_NAMES,
    alternative_contravariant,
    fixture_category,
    fixture_modules,
    group_category,
)
from cathom.fpmod import CanonicalQuotient, FPModule, is_exact, presented_homology
from cathom.groups import FiniteGroup, orbit_category
from cathom.matrix import Matrix
from cathom.resolve import tor
from cathom.rings import GF, QQ, ZZ
from cathom.spectral import (
    Cell,
    MergedQuotient,
    NotTwoColumn,
    build_filtered_complex,
    converge_and_compare,
    page_entry,
    spectral_page,
    spectral_pages,
    total_homology,
    two_column_les,
)


def constants(cat, ring=ZZ):
    return CatModule.constant(cat, ring, CONTRA), CatModule.constant(cat, ring, CO)


def nerve_complex(cat):
    """The cellular complex of the two-sided tilde nerve, (p, s, t) -> the
    cell D_p(s, t) for p up to the chain bound: by co-Yoneda, the cell over
    the representable R mor(-, t) at the summand s."""
    nerve = NerveCache(cat)
    reps = {t: FreeCatModule(cat, ZZ, CONTRA, [t]).as_catmodule() for t in cat.objects}
    return {
        (p, s, t): Cell.over(reps[t], nerve, p, s)
        for p in range(chain_bound(cat) + 1)
        for s in cat.objects
        for t in cat.objects
    }


class TestNerveComplex:
    def test_groupoid_ranks(self):
        cat = fixture_category("BZ2")
        cells = nerve_complex(cat)
        assert chain_bound(cat) == 0
        assert cells[(0, "*", "*")].dim == 2  # classes of * -> * -> * are indexed by the composite

    def test_or_z2_rank(self):
        cat = fixture_category("OrZ2")
        cells = nerve_complex(cat)
        free, fixed = cat.objects
        assert cells[(1, free, fixed)].dim == 1

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_cells_are_free_on_the_nerve_classes(self, name):
        cat = fixture_category(name)
        for (p, s, t), cell in nerve_complex(cat).items():
            assert cell.dim == nd_tilde_nerve(cat, p, s, t).size(), (p, s, t)
            assert cell.module.torsion == (), (p, s, t)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_d_squared_zero(self, name):
        cat = fixture_category(name)
        cells = nerve_complex(cat)
        for (p, s, t), cell in cells.items():
            if p >= 2:
                d1 = cell.boundary(cells[(p - 1, s, t)])
                d0 = cells[(p - 1, s, t)].boundary(cells[(p - 2, s, t)])
                assert (d0 @ d1).is_zero(), (p, s, t)

    def test_homology_is_mor_bimodule(self):
        # the nerve complex resolves the morphism bimodule in each slot pair
        for name in FIXTURE_NAMES:
            cat = fixture_category(name)
            cells = nerve_complex(cat)
            top = chain_bound(cat)
            for s in cat.objects:
                for t in cat.objects:
                    dims = [cells[(p, s, t)].dim for p in range(top + 1)]
                    diffs = [Matrix.zeros(ZZ, 0, dims[0])] + [
                        cells[(p, s, t)].boundary(cells[(p - 1, s, t)])
                        for p in range(1, top + 1)
                    ] + [Matrix.zeros(ZZ, dims[top], 0)]
                    for p in range(top + 1):
                        h = presented_homology(diffs[p], diffs[p + 1], [0] * dims[p],
                                               [0] * (dims[p - 1] if p else 0)).module
                        want = FPModule(ZZ, len(cat.hom[(s, t)]) if p == 0 else 0)
                        assert h == want, (name, p, s, t)


class TestFilteredComplex:
    @pytest.mark.parametrize("name", ["OrZ2", "OrZ4", "OrV4"])
    def test_total_d_squared_zero(self, name):
        cat = fixture_category(name)
        M, N = constants(cat)
        fc = build_filtered_complex(M, N, q_max=3)
        for n in range(2, fc.p_max + fc.q_max + 1):
            comp = fc.total_diff(n - 1) @ fc.total_diff(n)
            anns = fc.anns_of_degree(n - 2)
            for i in range(comp.rows):
                for j in range(comp.cols):
                    x = comp.data[i][j]
                    assert (x % anns[i] if anns[i] else x) == 0

    def test_ranks_reported(self):
        cat = fixture_category("OrZ2")
        M, N = constants(cat)
        fc = build_filtered_complex(M, N, p_max=1, q_max=3)
        for (p, q), cell in fc.cells.items():
            assert cell.dim >= 0
        assert fc.cells[(1, 0)].dim >= 1

    def test_jobs_variants_identical(self):
        cat = fixture_category("OrZ4")
        M, N = constants(cat)
        fc1 = build_filtered_complex(M, N, q_max=3, jobs=1)
        fc8 = build_filtered_complex(M, N, q_max=3, jobs=8)
        for n in range(fc1.p_max + fc1.q_max + 1):
            assert fc1.total_diff(n).data == fc8.total_diff(n).data


class TestPages:
    def test_groupoid_single_column(self):
        cat = group_category(FiniteGroup.cyclic(2))
        M, N = constants(cat)
        fc = build_filtered_complex(M, N, q_max=4)
        pages = spectral_pages(fc)
        einf = pages[-1]
        assert [einf.entry(0, q).pretty() for q in range(4)] == ["Z", "Z/2", "0", "Z/2"]
        assert pages[-1].stabilized
        # single column: E^1 = E^infty
        e1 = pages[1]
        for q in range(4):
            assert e1.entry(0, q) == einf.entry(0, q)

    def test_or_z2_collapse_to_point(self):
        cat = fixture_category("OrZ2")
        M, N = constants(cat)
        fc = build_filtered_complex(M, N, q_max=4)
        pages = spectral_pages(fc)
        einf = pages[-1]
        assert einf.entry(0, 0) == FPModule(ZZ, 1)
        for (p, q) in einf.entries:
            if (p, q) != (0, 0) and p + q <= fc.certified_band():
                assert einf.entry(p, q).is_zero()

    @pytest.mark.parametrize("name", ["OrZ2", "OrZ4"])
    def test_dr_squared_zero_and_page_passage(self, name):
        cat = fixture_category(name)
        M, N = constants(cat)
        fc = build_filtered_complex(M, N, q_max=3)
        pages = spectral_pages(fc)
        for r in range(1, len(pages)):
            page = pages[r - 1]
            nxt = pages[r]
            for (p, q), entry in page.entries.items():
                d_out = page.diffs.get((p, q))
                src_anns = entry.module.anns()
                if d_out is None:
                    tgt = page.entries.get((p - (r - 1), q + (r - 1) - 1))
                    d_out = Matrix.zeros(
                        fc.ring, tgt.module.n_gens if tgt else 0, entry.module.n_gens
                    )
                d_in = page.diffs.get((p + (r - 1), q - (r - 1) + 1))
                if d_in is None:
                    src = page.entries.get((p + (r - 1), q - (r - 1) + 1))
                    d_in = Matrix.zeros(
                        fc.ring, entry.module.n_gens,
                        src.module.n_gens if src else 0,
                    )
                tgt_entry = page.entries.get((p - (r - 1), q + (r - 1) - 1))
                h = presented_homology(
                    d_out, d_in, src_anns,
                    tgt_entry.module.anns() if tgt_entry else [],
                ).module
                assert h == nxt.entries[(p, q)].module
            # d^r o d^r = 0
            for (p, q), mat in page.diffs.items():
                nxt_mat = page.diffs.get((p - (r - 1), q + (r - 1) - 1))
                if nxt_mat is not None:
                    comp = nxt_mat @ mat
                    tgt = page.entries[(p - 2 * (r - 1), q + 2 * ((r - 1)) - 2)]
                    anns = tgt.module.anns()
                    for i in range(comp.rows):
                        for j in range(comp.cols):
                            x = comp.data[i][j]
                            assert (x % anns[i] if anns[i] else x) == 0

    def test_stabilized_page_has_no_differentials(self):
        cat = fixture_category("OrZ4")
        M, N = constants(cat)
        fc = build_filtered_complex(M, N, q_max=3)
        pages = spectral_pages(fc)
        last = pages[-1]
        assert last.stabilized
        for mat in last.diffs.values():
            assert mat.is_zero() or mat.rows == 0 or mat.cols == 0


class TestConvergence:
    @pytest.mark.parametrize("name", ["point", "arrow", "poset012", "BZ2", "BZ3",
                                      "OrZ2", "OrZ3", "OrZ4"])
    @pytest.mark.parametrize("ringname", ["Z", "F2"])
    def test_fixture_sweep(self, name, ringname):
        ring = ZZ if ringname == "Z" else GF(2)
        cat = fixture_category(name)
        Ms, Ns = fixture_modules(cat, ring)
        rep = converge_and_compare(Ms["const"], Ns["aug"], 2, q_max=3)
        assert rep.all_match, rep.to_json()

    def test_final_object_fixture(self):
        cat = fixture_category("OrZ3")
        M, N = constants(cat)
        rep = converge_and_compare(M, N, 3)
        final = cat.objects[-1]
        assert rep.degrees[0]["oracle"] == N.value(final).pretty()
        assert all(d["oracle"] == "0" for d in rep.degrees[1:])
        assert rep.all_match

    def test_total_homology_matches_oracle_directly(self):
        cat = fixture_category("OrZ4")
        Ms, Ns = fixture_modules(cat, ZZ)
        M, N = Ms["alt"], Ns["aug"]
        fc = build_filtered_complex(M, N, q_max=4)
        oracle = tor(M, N, 3)
        for m in range(4):
            assert total_homology(fc, m).module == oracle[m]


def _content(A):
    """A hashable copy of a matrix's entries, column by column."""
    return (A.rows, tuple(tuple(sorted(vec.items())) for vec in A.vecs))


class TestPagesComputeOnce:
    """spectral_pages builds one Subquotient per distinct (Z, B) input and
    solves each restricted differential once; the convergence check
    solves none that the pages already solved."""

    @pytest.fixture
    def traced(self, monkeypatch):
        import cathom.spectral as spectral

        log = {"entries": [], "solved": []}
        real_sub, real_pre = spectral.Subquotient, spectral.preimage_basis

        def sub(ring, ambient, gens_Z, gens_B):
            log["entries"].append((ambient, _content(gens_Z), _content(gens_B)))
            return real_sub(ring, ambient, gens_Z, gens_B)

        def pre(A, L):
            log["solved"].append((_content(A), _content(L)))
            return real_pre(A, L)

        monkeypatch.setattr(spectral, "Subquotient", sub)
        monkeypatch.setattr(spectral, "preimage_basis", pre)
        return log

    @pytest.mark.parametrize("cat,n_max", [
        (fixture_category("OrV4"), 3),
        (orbit_category(FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                                   FiniteGroup.cyclic(4))), 2),
    ], ids=["OrV4", "Or(Z2xZ4)"])
    def test_alt_aug(self, traced, cat, n_max):
        Ms, Ns = fixture_modules(cat, ZZ)
        fc = build_filtered_complex(Ms["alt"], Ns["aug"], q_max=n_max + 1)
        pages = spectral_pages(fc)
        entries, solved = traced["entries"], traced["solved"]
        assert len(entries) == len(set(entries))
        assert len(entries) < sum(len(pg.entries) for pg in pages)
        assert len(solved) == len(set(solved))
        pages_solved = set(solved)
        del solved[:]
        rep = converge_and_compare(Ms["alt"], Ns["aug"], n_max, fc=fc, pages=pages)
        assert rep.all_match
        assert not pages_solved & set(solved)
        assert len(solved) == len(set(solved))


class TestRationalDegeneration:
    @pytest.mark.parametrize("name", ["BZ3", "OrZ2", "OrZ4"])
    def test_e1_vanishes_above_row_zero(self, name):
        cat = fixture_category(name)
        M, N = constants(cat, QQ)
        fc = build_filtered_complex(M, N, q_max=3)
        pages = spectral_pages(fc)
        e1 = pages[1]
        for p in range(fc.p_max + 1):
            for q in range(1, fc.q_max):
                assert e1.entry(p, q).is_zero()
        # E^2 equals E^infty
        e2 = pages[min(2, len(pages) - 1)]
        einf = pages[-1]
        for key in einf.entries:
            assert e2.entries[key].module == einf.entries[key].module

    def test_e2_equals_p_complex_homology(self):
        # over Q the E^2 row q=0 is the homology of the chain-indexed complex
        cat = fixture_category("OrZ4")
        M, N = constants(cat, QQ)
        fc = build_filtered_complex(M, N, q_max=2)
        pages = spectral_pages(fc)
        e2 = pages[2]
        d1 = {p: pages[1].diffs.get((p, 0)) for p in (1, 2)}
        anns0 = pages[1].entries[(0, 0)].module.anns()
        for p in range(fc.p_max + 1):
            d_out = d1.get(p)
            if d_out is None:
                tgt = pages[1].entries.get((p - 1, 0))
                d_out = Matrix.zeros(QQ, tgt.module.n_gens if tgt else 0,
                                     pages[1].entries[(p, 0)].module.n_gens)
            d_in = d1.get(p + 1)
            if d_in is None:
                src = pages[1].entries.get((p + 1, 0))
                d_in = Matrix.zeros(QQ, pages[1].entries[(p, 0)].module.n_gens,
                                    src.module.n_gens if src else 0)
            h = presented_homology(d_out, d_in,
                                   pages[1].entries[(p, 0)].module.anns(),
                                   []).module
            assert h == e2.entries[(p, 0)].module


class TestTwoColumnLES:
    @pytest.mark.parametrize("name", ["OrZ2", "OrZ3"])
    def test_exact(self, name):
        cat = fixture_category(name)
        Ms, Ns = fixture_modules(cat, ZZ)
        for M in Ms.values():
            for N in Ns.values():
                assert two_column_les(M, N, 3).all_exact

    def test_refuses_or_z4(self):
        cat = fixture_category("OrZ4")
        M, N = constants(cat)
        with pytest.raises(NotTwoColumn):
            two_column_les(M, N, 3)

    def test_groupoid_degenerate(self):
        cat = fixture_category("BZ3")
        M, N = constants(cat)
        rep = two_column_les(M, N, 3)
        assert rep.all_exact


# -- cells from blocks -------------------------------------------------------


def _d8():
    return FiniteGroup.from_permutations([[(0, 1, 2, 3)], [(0, 2)]], 4, name="D8")


BLOCK_CATEGORIES = [*FIXTURE_NAMES, "Or(Z2xZ4)", "Or(D8)"]


def _block_category(name):
    if name == "Or(Z2xZ4)":
        return orbit_category(FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                                         FiniteGroup.cyclic(4)))
    if name == "Or(D8)":
        return orbit_category(_d8())
    return fixture_category(name)


def reference_cell(cat, M, nerve, p, summands):
    """(raw generators, rows) of M (x)_C D_p(b, -) summed over the
    summands, built directly over the whole cell by one coequalizer loop."""
    ring = M.ring
    gens = [(i, d, cls, j) for i, b in enumerate(summands) for d in cat.objects if M.rank(d)
            for cls in range(nerve(p, b, d).size()) for j in range(M.rank(d))]
    index = {g: k for k, g in enumerate(gens)}
    rows = [{k: M.anns[d][j]} for k, (i, d, cls, j) in enumerate(gens) if M.anns[d][j]]
    for i, b in enumerate(summands):
        for f, (d, dprime) in cat.morphisms.items():
            if M.rank(dprime) == 0 or (f == cat.id_of(d) and d == dprime):
                continue
            for cls in range(nerve(p, b, d).size()):
                alpha, phis, beta = nerve(p, b, d).classes[cls]
                cls2 = nerve(p, b, dprime).class_of((alpha, phis, cat.compose(f, beta)))
                for j in range(M.rank(dprime)):
                    row = {}
                    for a, c in M.act(f).vecs[j].items():
                        u = index[(i, d, cls, a)]
                        row[u] = ring.add(row.get(u, ring.zero), c)
                    v = index[(i, dprime, cls2, j)]
                    row[v] = ring.sub(row.get(v, ring.zero), ring.one)
                    rows.append(row)
    return gens, rows


def reference_restrict(cell, gens, rows, key):
    """(raw generators, rows) of the chain's sub-cell, by scanning every
    row of the whole cell."""
    keys = [cell.nerve(cell.p, cell.summands[i], d).chain_key(cls) for (i, d, cls, j) in gens]
    sub = [g for g, k in zip(gens, keys) if k == key]
    index = {g: k for k, g in enumerate(sub)}
    out = []
    for row in rows:
        touched = [gens[u] in index for u in row]
        if any(touched):
            assert all(touched)
            out.append({index[gens[u]]: c for u, c in row.items()})
    return sub, out


def _same_cell(cell, gens, rows):
    """The cell has these raw generators and rows, row order and entry
    order included, and the quotient they present."""
    ring = cell.ring
    assert cell.raw_gens == gens
    assert [list(row.items()) for row in cell.rows] == [list(row.items()) for row in rows]
    ref = MergedQuotient(ring, len(gens), rows)
    assert cell.module == ref.module
    for u in range(len(gens)):
        assert cell.quot.project_raw([(u, ring.one)]) == ref.project_raw([(u, ring.one)])
    for j in range(cell.dim):
        assert cell.quot.lift(j) == ref.lift(j)


class TestCellBlocks:
    """Cells joined from per-(p, object) blocks, and their chain sub-cells,
    equal the cells built directly over all their summands."""

    @pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
    @pytest.mark.parametrize("coeff", ["const", "alt"])
    @pytest.mark.parametrize("name", BLOCK_CATEGORIES)
    def test_cells_and_restrictions_match_a_direct_build(self, name, coeff, ring):
        cat = _block_category(name)
        Ms, Ns = fixture_modules(cat, ring)
        self._check(cat, Ms[coeff], Ns["aug"])

    @pytest.mark.parametrize("name", BLOCK_CATEGORIES)
    def test_torsion_coefficients(self, name):
        # constant Z/3: every raw generator has an annihilator row, so the
        # rows of a cell with several summands interleave two kinds
        cat = _block_category(name)
        M = CatModule.from_presentations(
            cat, CONTRA, ZZ, {c: (1, [[3]]) for c in cat.objects},
            {f: Matrix.identity(ZZ, 1) for f in cat.morphisms})
        self._check(cat, M, fixture_modules(cat, ZZ)[1]["aug"])

    @staticmethod
    def _check(cat, M, N):
        fc = build_filtered_complex(M, N, q_max=2)
        for (p, q), cell in fc.cells.items():
            gens, rows = reference_cell(cat, M, fc.nerve, p, fc.Q.levels[q].summands)
            _same_cell(cell, gens, rows)
            keys = {cell.nerve(p, cell.summands[i], d).chain_key(cls)
                    for (i, d, cls, j) in gens}
            for key in sorted(keys) + [(-1,)]:
                _same_cell(cell.restrict(key), *reference_restrict(cell, gens, rows, key))
        # the single-summand cells of the cohomology row complex
        for p in range(fc.p_max + 1):
            for s in cat.objects:
                _same_cell(Cell.over(M, fc.nerve, p, s),
                           *reference_cell(cat, M, fc.nerve, p, [s]))

    def test_each_block_built_once_per_complex(self):
        cat = fixture_category("OrS3")
        Ms, Ns = fixture_modules(cat, ZZ)
        fcs = [build_filtered_complex(Ms[m], Ns["aug"], q_max=3) for m in ("const", "alt")]
        blocks = []
        for fc in fcs:
            mine = {id(blk): blk for cell in fc.cells.values() for blk in cell.blocks}
            # one block per (p, b), shared by every cell with b as a summand
            assert len({(blk.p, blk.b) for blk in mine.values()}) == len(mine)
            blocks.append(set(mine))
        # two complexes with different M share no block
        assert not blocks[0] & blocks[1]

    def test_straddling_relation_raises(self):
        cat = fixture_category("OrZ4")
        Ms, Ns = fixture_modules(cat, ZZ)
        fc = build_filtered_complex(Ms["const"], Ns["const"], q_max=2)
        cell = fc.cells[(1, 0)]
        blk = cell.blocks[0]
        keys = [fc.nerve(blk.p, blk.b, d).chain_key(cls) for (d, cls, j) in blk.gens]
        u, v = 0, next(k for k, key in enumerate(keys) if key != keys[0])
        blk.rels.append({u: ZZ.one, v: ZZ.neg(ZZ.one)})
        with pytest.raises(AssertionError, match="straddles chains"):
            cell.restrict(keys[0])


def _z2xz4():
    return FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))


def _entry_complex(name, ring, q_max=3):
    """A fresh complex: alt/aug over a fixture or Or(Z2xZ4) (step +1), or
    for ext-<fixture> the step -1 complex of alt against const."""
    if name.startswith("ext-"):
        cat = fixture_category(name[len("ext-"):])
        return ExtFilteredComplex(alternative_contravariant(cat, ring),
                                  CatModule.constant(cat, ring, CONTRA), q_max=q_max)
    cat = orbit_category(_z2xz4()) if name == "Or(Z2xZ4)" else fixture_category(name)
    Ms, Ns = fixture_modules(cat, ring)
    return build_filtered_complex(Ms["alt"], Ns["aug"], q_max=q_max)


class TestPageEntries:
    """E^r_{p,q} read entry by entry equals the entry of the full pages,
    so every entry the pages read off the page before as zero is zero."""

    @pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "Or(Z2xZ4)", "ext-OrV4", "ext-OrS3"])
    def test_entry_equals_page_entry(self, name, ring):
        fc = _entry_complex(name, ring)
        pages = spectral_pages(fc)
        fresh = _entry_complex(name, ring)
        for page in reversed(pages):
            for (p, q), want in page.entries.items():
                got = page_entry(fresh, page.r, p, q)
                assert got.ambient == want.ambient
                assert got.module == want.module
                assert got.lifts() == want.lifts()
        assert spectral_page(fresh, 1).to_json() == pages[1].to_json()


class TestZeroEntriesReadOffThePageBefore:
    """spectral_pages calls page_entry for E^r_{p,q} exactly where page
    r-1 leaves it open: not where E^{r-1}_{p,q} is zero (r >= 1), and not
    where E^{r-1} is exact at (p, q) under d^{r-1} (r >= 2)."""

    @staticmethod
    def exact(page, p, q):
        """Whether page is exact at (p, q): d out of it and into it, found
        by their targets, a missing one the zero map."""
        ring = page.entries[(p, q)].ring
        here = page.entries[(p, q)].module
        tgt = page.entries.get(page.target(p, q))
        n_tgt = tgt.module.n_gens if tgt else 0
        d_out = page.diffs.get((p, q)) or Matrix.zeros(ring, n_tgt, here.n_gens)
        sources = [key for key in page.entries if page.target(*key) == (p, q)]
        assert len(sources) <= 1
        if sources and sources[0] in page.diffs:
            d_in = page.diffs[sources[0]]
        else:
            n_src = page.entries[sources[0]].module.n_gens if sources else 0
            d_in = Matrix.zeros(ring, here.n_gens, n_src)
        return is_exact(d_out, d_in, here.anns(), tgt.module.anns() if tgt else [])

    def test_alt_aug_or_z2xz4(self, monkeypatch):
        import cathom.spectral as spectral

        fc = _entry_complex("Or(Z2xZ4)", ZZ, q_max=4)
        called = []
        real_entry = spectral.page_entry

        def entry(fc, r, p, q):
            called.append((r, p, q))
            return real_entry(fc, r, p, q)

        monkeypatch.setattr(spectral, "page_entry", entry)
        pages = spectral_pages(fc)
        decided = set()
        for prev in pages[:-1]:
            for (p, q), e in prev.entries.items():
                if e.module.is_zero() or (prev.r >= 1 and self.exact(prev, p, q)):
                    decided.add((prev.r + 1, p, q))
        every = {(page.r, p, q) for page in pages for (p, q) in page.entries}
        assert len(called) == len(set(called))
        assert any(r >= 2 and not pages[r - 1].entries[(p, q)].module.is_zero()
                   for (r, p, q) in decided)
        assert set(called) == every - decided
        for (r, p, q) in decided:
            assert pages[r].entries[(p, q)].module.is_zero()


class TestCyclesKeyedByRestrictedDifferential:
    """TotalComplex.cycles is memoised by the restricted differential it
    solves alone: arguments beyond either end of the filtration name the
    group of the end, and each restricted differential is solved once."""

    @pytest.mark.parametrize("name", ["OrZ4", "ext-OrV4"])
    def test_sizes_do_the_clamp(self, monkeypatch, name):
        import cathom.spectral as spectral

        fc = _entry_complex(name, ZZ)
        solved = []
        real_pre = spectral.preimage_basis

        def pre(A, L):
            solved.append((A.rows, A.cols))
            return real_pre(A, L)

        monkeypatch.setattr(spectral, "preimage_basis", pre)
        lo, hi = sorted(fc.filtration_range())
        span = range(lo - 3, hi + 4)
        for n in range(fc.p_max + fc.q_max + 2):
            for p in span:
                for bound in span:
                    got = fc.cycles(n, p, bound)
                    assert got is fc.cycles(n, min(max(p, lo), hi), min(max(bound, lo), hi))
        # e.g. (n, p_max + 3, -5) against (n, p_max, -1) at step +1
        empty, full = fc.filtration_range()
        beyond = (full + 3 * fc.step, empty - 5 * fc.step)
        assert fc.cycles(fc.p_max, *beyond) is fc.cycles(fc.p_max, full, empty)
        # one solve per key (n, |F_p T_n|, #rows outside F_bound) with columns
        assert solved
        assert sorted(solved) == sorted((n_out, n_cols) for (_, n_cols, n_out) in fc._cycles
                                        if n_cols)


class TestEntriesLiveOnTheComplex:
    """The complex keeps its page entries: after spectral_pages, an entry
    read alone is the page's own wherever page_entry built it, and
    verify_e1 on the same complex builds none of those again."""

    @pytest.mark.parametrize("name", ["OrV4", "OrS3", "OrZ4"])
    def test_alt_aug(self, monkeypatch, name):
        import cathom.e1data as e1data
        import cathom.spectral as spectral

        cat = fixture_category(name)
        Ms, Ns = fixture_modules(cat, ZZ)
        M, N = Ms["alt"], Ns["aug"]
        fc = build_filtered_complex(M, N, q_max=4)
        built = []
        real_sub, real_entry = spectral.Subquotient, spectral.page_entry

        def sub(*args):
            built.append(args)
            return real_sub(*args)

        called = set()

        def entry(fc, r, p, q):
            called.add((r, p, q))
            return real_entry(fc, r, p, q)

        monkeypatch.setattr(spectral, "Subquotient", sub)
        monkeypatch.setattr(spectral, "page_entry", entry)
        pages = spectral_pages(fc)
        assert any(r == 1 for (r, _, _) in called)
        rebuilt = []

        def e1_entry(fc, r, p, q):
            before = len(built)
            out = real_entry(fc, r, p, q)
            if (r, p, q) in called:
                rebuilt.extend(built[before:])
                assert out is pages[r].entries[(p, q)]
            return out

        monkeypatch.setattr(e1data, "page_entry", e1_entry)
        assert e1data.verify_e1(M, N, 3, fc=fc).all_match
        assert not rebuilt
        for page in pages:
            for (p, q), e in page.entries.items():
                alone = real_entry(fc, page.r, p, q)
                if (page.r, p, q) in called:
                    assert alone is e
                else:
                    assert e.module.is_zero() and alone.module.is_zero()


@st.composite
def merge_cases(draw):
    """(ring, n_raw, rows): two-term unit rows e_u - e_v, mixed with rows
    of one to three entries from {1, -1, 2, 3}, some of them two-term."""
    ring = draw(st.sampled_from([ZZ, GF(2)]))
    n = draw(st.integers(1, 12))
    one, neg_one = ring.one, ring.neg(ring.one)
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        if n > 1 and draw(st.booleans()):
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            rows.append({u: one, v: neg_one} if draw(st.booleans()) else {u: neg_one, v: one})
        else:
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
            row = {u: ring.coerce(draw(st.sampled_from([1, -1, 2, 3]))) for u in support}
            rows.append({u: c for u, c in row.items() if c != ring.zero})
    return ring, n, rows


class TestMergedQuotient:
    """Generators joined by two-term unit rows merge into one, named by the
    least raw generator of the component."""

    @settings(max_examples=300, deadline=None)
    @given(merge_cases())
    def test_components_named_by_least_member(self, case):
        ring, n, rows = case
        one, neg_one = ring.one, ring.neg(ring.one)
        links = {u: [] for u in range(n)}
        for row in rows:
            if len(row) == 2 and sorted(row.values()) == sorted([one, neg_one]):
                u, v = row
                links[u].append(v)
                links[v].append(u)
        least = {}
        for u in range(n):
            if u not in least:
                component, todo = {u}, [u]
                while todo:
                    for v in links[todo.pop()]:
                        if v not in component:
                            component.add(v)
                            todo.append(v)
                for v in component:
                    least[v] = u
        mq = MergedQuotient(ring, n, rows)
        assert mq.quot.ambient == len(set(least.values()))
        assert [mq._raw_rep[mq._rep_of_raw[u]] for u in range(n)] == [least[u] for u in range(n)]
        for u in range(n):
            assert mq.project_raw([(u, one)]) == mq.project_raw([(least[u], one)])
        assert mq.module == CanonicalQuotient(ring, n, rows).module

    def test_long_chain_does_not_recurse(self):
        # rows in decreasing order link k to k-1, one link per row
        n = 3001
        rows = [{k - 1: ZZ.one, k: ZZ.neg(ZZ.one)} for k in range(n - 1, 0, -1)]
        mq = MergedQuotient(ZZ, n, rows)
        assert mq._raw_rep == [0] and mq._rep_of_raw == [0] * n
        assert mq.module == FPModule(ZZ, 1)
