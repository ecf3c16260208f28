from itertools import product
from math import gcd

import pytest

from cathom import e1data
from cathom.catmod import CatModule, CO, CONTRA
from cathom.e1data import (
    ChainGroupData,
    NotLeftFree,
    TransportTables,
    chain_oracle,
    d1_components,
    d1_face_block,
    e1_direct,
    verify_e1,
)
from cathom.fixtures import FIXTURE_NAMES, fixture_category, fixture_modules
from cathom.fpmod import FPModule
from cathom.groupbar import bar_complex, generators_and_splits, group_tor
from cathom.groups import FiniteGroup, group_category, group_from_aut
from cathom.matrix import Matrix
from cathom import resolve
from cathom.resolve import free_resolution, hom_complex, tensor_complex
from cathom.rings import GF, QQ, ZZ
from cathom.spectral import build_filtered_complex


def normalized_bar(A: CatModule, B: CatModule, top: int) -> resolve.PresentedComplex:
    """The plain normalized two-sided bar complex up to level ``top``, with
    (|G|-1)^q group tuples at level q: the reference the Morse-reduced
    ``bar_complex`` is checked against.  Cells (i, t, j) are ordered
    lexicographically."""
    (obj,) = A.cat.objects
    G, elems = group_from_aut(A.cat, obj)
    ring = A.ring
    a_anns, b_anns = A.anns[obj], B.anns[obj]
    a_act = [A.act(g) for g in elems]
    b_act = [B.act(g) for g in elems]
    anns = []
    gens_per_level = []
    for q in range(top + 1):
        # q-tuples of non-identity elements (the identity is element 0)
        tuples = list(product(range(1, G.n), repeat=q))
        gens = [(i, t, j) for i in range(len(a_anns)) for t in tuples
                for j in range(len(b_anns))]
        gens_per_level.append(gens)
        if ring.is_field:
            anns.append([ring.zero] * len(gens))
        else:
            anns.append([gcd(a_anns[i], b_anns[j]) for (i, t, j) in gens])
    diffs = []
    z = ring.zero
    p = ring.p if ring.kind == "Fp" else 0
    for q in range(1, top + 1):
        tgt_index = {g: k for k, g in enumerate(gens_per_level[q - 1])}
        cols = []
        for (i, t, j) in gens_per_level[q]:
            col: dict = {}
            # a.g1 (x) rest
            for r, c in a_act[t[0]].vecs[i].items():
                row = tgt_index[(r, t[1:], j)]
                col[row] = col.get(row, z) + c
            # interior multiplications
            sign = 1
            for k in range(q - 1):
                sign = -sign
                g = G.mul(t[k], t[k + 1])
                if g == G.e:
                    continue  # a degenerate face, zero in the normalized complex
                merged = t[:k] + (g,) + t[k + 2 :]
                row = tgt_index[(i, merged, j)]
                col[row] = col.get(row, z) + sign
            # last (x) g_q . b
            sign = -sign
            for r, c in b_act[t[-1]].vecs[j].items():
                row = tgt_index[(i, t[:-1], r)]
                col[row] = col.get(row, z) + sign * c
            if p:
                cols.append({row: x for row, x in ((row, x % p) for row, x in col.items()) if x})
            else:
                cols.append({row: x for row, x in col.items() if x})
        diffs.append(Matrix.from_columns(ring, cols, len(gens_per_level[q - 1])))
    return resolve.PresentedComplex(ring, anns, diffs, 1)


def critical_counts(BG, top: int) -> list[int]:
    """Critical cells per (i, j) of the bar complex over BG at levels
    0..top, for top >= 1: 1, |X|, then (|X||G| - (|G|-1)) (|G|-1)^(q-2)."""
    G, _ = group_from_aut(BG, "*")
    X, _ = generators_and_splits(G)
    n = G.n
    return [1, len(X), *((len(X) * n - (n - 1)) * (n - 1) ** (q - 2)
                         for q in range(2, top + 1))]


class TestGroupBar:
    def test_z2_trivial_coefficients(self):
        BG = group_category(FiniteGroup.cyclic(2))
        A = CatModule.constant(BG, ZZ, CONTRA)
        B = CatModule.constant(BG, ZZ, CO)
        t = [m.pretty() for m in group_tor(A, B, 3)]
        assert t == ["Z", "Z/2", "0", "Z/2"]

    def test_z3(self):
        BG = group_category(FiniteGroup.cyclic(3))
        A = CatModule.constant(BG, ZZ, CONTRA)
        B = CatModule.constant(BG, ZZ, CO)
        t = [m.pretty() for m in group_tor(A, B, 3)]
        assert t == ["Z", "Z/3", "0", "Z/3"]

    def test_regular_module_acyclic(self):
        # Tor(R[G], Z) vanishes in positive degrees
        BG = group_category(FiniteGroup.cyclic(2))
        act = {f"g{g}": Matrix(ZZ, [[0, 1], [1, 0]]) if g else Matrix.identity(ZZ, 2)
               for g in range(2)}
        A = CatModule(BG, CONTRA, ZZ, {"*": [0, 0]}, act)
        assert A.validate() == []
        B = CatModule.constant(BG, ZZ, CO)
        t = group_tor(A, B, 2)
        assert t[0] == FPModule(ZZ, 1)
        assert t[1].is_zero() and t[2].is_zero()


    @pytest.mark.parametrize("group", ["C2", "C3", "S3"])
    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)], ids=str)
    def test_normalized_bar_matches_resolution(self, group, ring):
        G = {"C2": FiniteGroup.cyclic(2), "C3": FiniteGroup.cyclic(3),
             "S3": FiniteGroup.symmetric(3)}[group]
        BG = group_category(G)
        A = CatModule.constant(BG, ring, CONTRA)
        B = CatModule.constant(BG, ring, CO)
        bar = group_tor(A, B, 3)
        assert bar == resolve.tor(A, B, 3)
        ranks = A.rank("*") * B.rank("*")
        assert [len(a) for a in normalized_bar(A, B, 4).anns] == [
            ranks * (G.n - 1) ** q for q in range(5)
        ]
        assert [len(a) for a in bar_complex(A, B, 4).anns] == [
            ranks * c for c in critical_counts(BG, 4)
        ]


def regular_group_module(ring, G, BG, variance):
    """R[G] over BG, with g acting by multiplication on the right
    (contravariant) or on the left (covariant)."""
    mul = (lambda g, x: G.mul(x, g)) if variance == CONTRA else G.mul
    act = {f"g{g}": Matrix.from_columns(ring, [{mul(g, x): ring.one} for x in range(G.n)], G.n)
           for g in range(G.n)}
    return CatModule(BG, variance, ring, {"*": [ring.zero] * G.n}, act)


GROUPS = {"C2": lambda: FiniteGroup.cyclic(2), "C3": lambda: FiniteGroup.cyclic(3),
          "C4": lambda: FiniteGroup.cyclic(4), "S3": lambda: FiniteGroup.symmetric(3)}


MORSE_GROUPS = {
    **GROUPS,
    "D8": lambda: FiniteGroup.from_permutations([[(0, 1, 2, 3)], [(0, 2)]], 4, name="D8"),
    "Z2xZ4": lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
}


def bar_modules(ring, G, BG, modules):
    """(A, B) for the bar complex: constant modules, with R[G] on the
    left ("regular-left", B) or on the right ("regular-right", A)."""
    A = (regular_group_module(ring, G, BG, CONTRA) if modules == "regular-right"
         else CatModule.constant(BG, ring, CONTRA))
    B = (regular_group_module(ring, G, BG, CO) if modules == "regular-left"
         else CatModule.constant(BG, ring, CO))
    return A, B


class TestMorseBar:
    """``bar_complex`` is the Morse reduction of ``normalized_bar`` along
    the matching [h | rest] <-> [x(h) | y(h) | rest]."""

    @pytest.mark.parametrize("group", sorted(MORSE_GROUPS))
    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), QQ], ids=str)
    @pytest.mark.parametrize("modules", ["trivial", "regular-left", "regular-right"])
    def test_same_homology_as_the_plain_complex(self, group, ring, modules):
        G = MORSE_GROUPS[group]()
        BG = group_category(G)
        A, B = bar_modules(ring, G, BG, modules)
        top = 3
        want = [normalized_bar(A, B, top).homology(q) for q in range(top)]
        assert [bar_complex(A, B, top).homology(q) for q in range(top)] == want
        assert group_tor(A, B, top - 1) == want

    @pytest.mark.parametrize("group", sorted(MORSE_GROUPS))
    @pytest.mark.parametrize("torsion", [(4, 0), (0, 6), (4, 6)], ids=["Z/4-Z", "Z-Z/6", "Z/4-Z/6"])
    def test_torsion_coefficients(self, group, torsion):
        # trivial actions on Z/4 or Z/6; the levels carry annihilators, so
        # the types come from witnesses
        BG = group_category(MORSE_GROUPS[group]())
        identities = {f: Matrix.identity(ZZ, 1) for f in BG.morphisms}
        A = CatModule(BG, CONTRA, ZZ, {"*": [torsion[0]]}, identities)
        B = CatModule(BG, CO, ZZ, {"*": [torsion[1]]}, identities)
        top = 3
        want = [normalized_bar(A, B, top).homology(q) for q in range(top)]
        assert [bar_complex(A, B, top).homology(q) for q in range(top)] == want
        if 0 in torsion:  # otherwise the bar complex is no resolution
            assert group_tor(A, B, top - 1) == want

    @pytest.mark.parametrize("group", sorted(MORSE_GROUPS))
    @pytest.mark.parametrize("modules", ["trivial", "regular-right"])
    def test_matching_invariants(self, group, modules):
        G0 = MORSE_GROUPS[group]()
        BG = group_category(G0)
        A, B = bar_modules(ZZ, G0, BG, modules)
        G, _ = group_from_aut(BG, "*")  # the element order bar_complex uses
        X, split = generators_and_splits(G)
        assert all(x not in G.subgroup_closure(X[:k]) for k, x in enumerate(X))
        assert G.subgroup_closure(X) == frozenset(range(G.n))
        assert all(g in G.subgroup_closure([x for x in X if x < g]) for g in range(G.n)
                   if g not in X)
        length = {G.e: 0}  # word length under left multiplication by X
        queue = [G.e]
        for y in queue:
            for x in X:
                if G.mul(x, y) not in length:
                    length[G.mul(x, y)] = length[y] + 1
                    queue.append(G.mul(x, y))
        assert sorted(split) == sorted(h for h in length if length[h] >= 2)
        for h, (x, y) in split.items():
            assert x in X and G.mul(x, y) == h and length[y] == length[h] - 1

        top = 3
        nA, nB = A.rank("*"), B.rank("*")
        cells = [[(i, t, j) for i in range(nA) for t in product(range(1, G.n), repeat=q)
                  for j in range(nB)] for q in range(top + 1)]
        index = [{c: k for k, c in enumerate(level)} for level in cells]

        def kind(t):
            if t and length[t[0]] >= 2:
                return "lower"
            if len(t) >= 2 and split.get(G.mul(t[0], t[1])) == t[:2]:
                return "upper"
            return "critical"

        ref = normalized_bar(A, B, top)
        reduced = bar_complex(A, B, top)
        counts = critical_counts(BG, top)
        for q in range(top + 1):
            kinds = [kind(t) for (i, t, j) in cells[q]]
            assert kinds.count("critical") == nA * nB * counts[q] == len(reduced.anns[q])
            if q == top:
                continue
            uppers = {c for c in cells[q + 1] if kind(c[1]) == "upper"}
            partners = {}
            for (i, t, j) in cells[q]:
                if kind(t) != "lower":
                    continue
                tau = (i, t, j)
                sigma = (i, split[t[0]] + t[1:], j)
                assert sigma in uppers and sigma not in partners
                partners[sigma] = tau
                col = ref.diffs[q].vecs[index[q + 1][sigma]]
                assert col[index[q][tau]] == -1
                for row in col:
                    rho = cells[q][row]
                    if rho != tau and kind(rho[1]) == "lower":
                        # only a d0 face leads on, to a shorter first letter
                        assert rho[1] == split[t[0]][1:] + t[1:]
                        assert length[rho[1][0]] == length[t[0]] - 1
            assert set(partners) == uppers


class TestTypeOnlyHomology:
    """PresentedComplex.homology/cohomology (ranks and invariant factors)
    against the Subquotient witnesses they replace."""

    @pytest.mark.parametrize("group", sorted(GROUPS))
    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), QQ], ids=str)
    @pytest.mark.parametrize("modules", ["trivial", "regular-left", "regular-right"])
    def test_bar_complexes(self, group, ring, modules):
        G = GROUPS[group]()
        BG = group_category(G)
        A, B = bar_modules(ring, G, BG, modules)
        assert A.validate() == [] and B.validate() == []
        cx = bar_complex(A, B, 3)
        for q in range(3):  # level 3 is the truncation, with no d_4
            assert cx.homology(q) == cx.witness(q).module
        tor = group_tor(A, B, 2)
        assert tor == [cx.homology(q) for q in range(3)]
        if modules != "trivial":
            assert all(m.is_zero() for m in tor[1:])

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=str)
    def test_fixture_tensor_and_hom_complexes(self, name, ring):
        cat = fixture_category(name)
        Ms, Ns = fixture_modules(cat, ring)
        for M in Ms.values():
            res = free_resolution(M, 3)
            for N in Ns.values():
                cx = tensor_complex(res, N)
                for q in range(4):
                    assert cx.homology(q) == cx.witness(q).module
            for N in Ms.values():
                cx = hom_complex(res, N)
                for q in range(4):
                    assert cx.homology(q) == cx.witness(q).module

    def test_level_out_of_range(self):
        # the trivial C3 bar complex has levels 0..3 of rank 1, 2, 4, 8,
        # and its Morse reduction 1, 1, 1, 2; the Ext complex of Or(Z/2)
        # runs the other way (step -1)
        BG = group_category(FiniteGroup.cyclic(3))
        A, B = CatModule.constant(BG, ZZ, CONTRA), CatModule.constant(BG, ZZ, CO)
        assert [len(a) for a in normalized_bar(A, B, 3).anns] == [1, 2, 4, 8]
        bar = bar_complex(A, B, 3)
        assert [len(a) for a in bar.anns] == [1, 1, 1, 2]
        cat = fixture_category("OrZ2")
        M = fixture_modules(cat, ZZ)[0]["const"]
        cochains = hom_complex(free_resolution(M, 3), M)
        for cx in (bar, cochains):
            for n in (-1, 4):
                for fn in (cx.homology, cx.witness):
                    with pytest.raises(IndexError, match=f"no level {n}"):
                        fn(n)

    def test_annihilator_fallback(self):
        # A = Z/2 with trivial action, B = Z: the bar levels carry the
        # annihilators gcd(2, 0) = 2, so the types come from the witnesses
        BG = group_category(FiniteGroup.cyclic(2))
        A = CatModule(BG, CONTRA, ZZ, {"*": [2]},
                      {f: Matrix.identity(ZZ, 1) for f in BG.morphisms})
        B = CatModule.constant(BG, ZZ, CO)
        assert any(any(level) for level in bar_complex(A, B, 3).anns)
        tor = group_tor(A, B, 3)
        assert tor == resolve.tor(A, B, 3)
        assert [m.pretty() for m in tor] == ["Z/2", "Z/2", "Z/2", "Z/2"]

    def test_no_witnesses_without_annihilators(self, monkeypatch):
        import cathom.fpmod as fpmod
        import cathom.intlin as intlin

        def refuse(*args, **kwargs):
            raise AssertionError("witness built on annihilator-free levels")

        for cls in (intlin.StairBasis, fpmod.Subquotient, fpmod.CanonicalQuotient):
            monkeypatch.setattr(cls, "__init__", refuse)
        BG = group_category(FiniteGroup.symmetric(3))
        tor = group_tor(CatModule.constant(BG, ZZ, CONTRA),
                        CatModule.constant(BG, ZZ, CO), 3)
        assert [m.pretty() for m in tor] == ["Z", "Z/2", "0", "Z/6"]


class TestE1Direct:
    def test_or_z2_chain_values(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, CO)
        table = e1_direct(M, N, 3)
        by_reps = {ch.reps: vals for (p, ch), vals in table.items()}
        free, fixed = cat.objects
        # 0-chain at the free orbit: H_q(Z/2; Z)
        assert [m.pretty() for m in by_reps[(free,)]] == ["Z", "Z/2", "0", "Z/2"]
        # 0-chain at the fixed point: trivial group homology
        assert [m.pretty() for m in by_reps[(fixed,)]] == ["Z", "0", "0", "0"]
        # 1-chain: A = Z with trivial Z/2-action
        assert [m.pretty() for m in by_reps[(free, fixed)]] == ["Z", "Z/2", "0", "Z/2"]

    def test_not_left_free_guard(self):
        # a category with a non-free aut action: two parallel arrows
        # collapsing under post-composition cannot occur in our fixtures,
        # so construct one directly
        from cathom.fincat import FiniteCategory

        mors = {
            "ia": ("a", "a"), "ib": ("b", "b"), "s": ("b", "b"),
            "f": ("a", "b"), "g": ("a", "b"),
        }
        comp = {
            ("ia", "ia"): "ia", ("ib", "ib"): "ib",
            ("ib", "s"): "s", ("s", "ib"): "s", ("s", "s"): "ib",
            ("f", "ia"): "f", ("g", "ia"): "g",
            ("ib", "f"): "f", ("ib", "g"): "g",
            ("s", "f"): "f", ("s", "g"): "g",  # s acts trivially: not free
        }
        cat = FiniteCategory(["a", "b"], mors, comp, {"a": "ia", "b": "ib"})
        assert cat.validate().ok
        assert not cat.is_left_free()
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, CO)
        with pytest.raises(NotLeftFree):
            e1_direct(M, N, 1)


class TestVerifyE1:
    @pytest.mark.parametrize("name", ["point", "arrow", "poset012", "BZ2", "BZ3",
                                      "OrZ2", "OrZ3", "OrZ4"])
    def test_fixtures_match(self, name):
        cat = fixture_category(name)
        Ms, Ns = fixture_modules(cat, ZZ)
        rep = verify_e1(Ms["const"], Ns["const"], 2)
        assert rep.all_match, rep.mismatches()

    def test_nonconstant_modules(self):
        cat = fixture_category("OrZ4")
        Ms, Ns = fixture_modules(cat, ZZ)
        rep = verify_e1(Ms["alt"], Ns["aug"], 2)
        assert rep.all_match, rep.mismatches()

    def test_rational_vanishing(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, QQ, CONTRA)
        N = CatModule.constant(cat, QQ, CO)
        rep = verify_e1(M, N, 2)
        assert rep.all_match
        for row in rep.rows:
            if row["q"] > 0:
                assert row["engine"] == "0"


class TestChainOracleOnce:
    """The group-level oracle runs once per distinct chain datum, and every
    chain still gets the answer of its own data."""

    @pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
    @pytest.mark.parametrize("pair", [("const", "const"), ("alt", "aug")])
    @pytest.mark.parametrize("name", ["OrZ4", "OrV4", "OrS3"])
    def test_every_chain_gets_its_own_answer(self, name, pair, ring):
        cat = fixture_category(name)
        Ms, Ns = fixture_modules(cat, ring)
        M, N = Ms[pair[0]], Ns[pair[1]]
        fc = build_filtered_complex(M, N, q_max=3)
        table = e1_direct(M, N, 2, fc=fc)
        rows = {(r["p"], r["chain"], r["q"]): r["group_tor"]
                for r in verify_e1(M, N, 2, fc=fc).rows}
        assert set(table) == {(p, chain) for p in fc.chains for chain in fc.chains[p]}
        for (p, chain), answer in table.items():
            data = ChainGroupData(fc, chain)
            fresh = group_tor(data.A, data.B, 2)
            assert answer == fresh
            assert [rows[(p, repr(chain), q)] for q in range(3)] == [m.pretty() for m in fresh]

    @pytest.mark.parametrize("pair, calls", [(("const", "const"), 5), (("alt", "aug"), 8)])
    def test_once_per_distinct_key(self, monkeypatch, pair, calls):
        import cathom.e1data as e1data

        cat = fixture_category("OrS3")
        Ms, Ns = fixture_modules(cat, ZZ)
        M, N = Ms[pair[0]], Ns[pair[1]]
        fc = build_filtered_complex(M, N, q_max=4)
        chains = [chain for p in fc.chains for chain in fc.chains[p]]
        seen = []
        real_group_tor = e1data.group_tor

        def counting(A, B, q_max):
            seen.append(A)
            return real_group_tor(A, B, q_max)

        monkeypatch.setattr(e1data, "group_tor", counting)
        assert verify_e1(M, N, 3, fc=fc).all_match
        assert (len(seen), len(chains)) == (calls, 11)
        seen.clear()
        e1_direct(M, N, 3, fc=fc)
        assert len(seen) == calls
        if pair == ("alt", "aug"):
            # chains with one bottom object but different coefficients
            keys = {ChainGroupData(fc, chain).key for chain in chains}
            assert len({key[0] for key in keys}) < len(keys)

    def test_key_tells_actions_apart(self):
        # Or(Z/2) with M(G/e) the sign module, M(G/G) = Z and zero restriction:
        # the 0-chain at G/e and the 1-chain G/e < G/G both have A of rank 1
        # at G/e, with the sign and the trivial action respectively
        cat = fixture_category("OrZ2")
        free, fixed = cat.objects
        action = {}
        for f, (a, b) in cat.morphisms.items():
            if f == cat.identity.get(a) or a != b:
                action[f] = Matrix(ZZ, [[1 if a == b else 0]])
            else:
                action[f] = Matrix(ZZ, [[-1]])
        M = CatModule(cat, CONTRA, ZZ, {free: [0], fixed: [0]}, action)
        N = CatModule.constant(cat, ZZ, CO)
        fc = build_filtered_complex(M, N, q_max=4)
        by_reps = {ch.reps: [m.pretty() for m in vals]
                   for (p, ch), vals in e1_direct(M, N, 3, fc=fc).items()}
        assert by_reps[(free,)] == ["Z/2", "0", "Z/2", "0"]
        assert by_reps[(free, fixed)] == ["Z", "Z/2", "0", "Z/2"]
        assert verify_e1(M, N, 3, fc=fc).all_match

    def test_memo_does_not_outlive_the_call(self):
        cat = fixture_category("OrZ2")
        Ms, Ns = fixture_modules(cat, ZZ)
        fc = build_filtered_complex(Ms["const"], Ns["const"], q_max=3)
        calls = []

        def oracle(A, B, n_max):
            calls.append(A)
            return group_tor(A, B, n_max)

        first = chain_oracle(fc, oracle, 2)
        n = len(calls)
        assert chain_oracle(fc, oracle, 2) == first
        assert len(calls) == 2 * n


class TestColumnHomologyOnce:
    """Each chain column computes the homology of a degree once, however
    often verify_e1 and the d^1 helpers ask for it."""

    @pytest.fixture
    def column_homology_calls(self, monkeypatch):
        import cathom.e1data as e1data
        import cathom.fpmod as fpmod
        import cathom.resolve as resolve

        calls = []
        in_group_tor = []
        real_homology = fpmod.presented_homology
        real_group_tor = e1data.group_tor

        def counting(*args, **kwargs):
            if not in_group_tor:  # the bar complexes of the group-level side
                calls.append(1)
            return real_homology(*args, **kwargs)

        def flagged(*args, **kwargs):
            in_group_tor.append(1)
            try:
                return real_group_tor(*args, **kwargs)
            finally:
                in_group_tor.pop()

        for mod in (e1data, resolve):
            monkeypatch.setattr(mod, "presented_homology", counting, raising=False)
        monkeypatch.setattr(e1data, "group_tor", flagged)
        return calls

    def test_verify_e1(self, column_homology_calls):
        cat = fixture_category("OrZ4")
        Ms, Ns = fixture_modules(cat, ZZ)
        fc = build_filtered_complex(Ms["const"], Ns["const"], q_max=3)
        rep = verify_e1(Ms["const"], Ns["const"], 2, fc=fc)
        assert rep.all_match
        distinct = sum(len(fc.chains[p]) for p in fc.chains) * (rep.band + 1)
        assert len(column_homology_calls) == distinct

    def test_d1_helpers(self, column_homology_calls):
        cat = fixture_category("OrV4")
        Ms, Ns = fixture_modules(cat, ZZ)
        fc = build_filtered_complex(Ms["const"], Ns["aug"], q_max=3)
        tables = TransportTables(fc)
        cols = {}
        for p in sorted(fc.chains):
            for chain in fc.chains[p] if p >= 1 else []:
                for q in (0, 1):
                    for comp in d1_components(fc, p, chain, q, tables, cols):
                        d1_face_block(fc, p, chain, comp["i"], q, cols)
        assert len(column_homology_calls) == 2 * len(cols)


class TestE1EntryByEntry:
    """verify_e1 reads the E^1 entries it compares and nothing else: no
    pages, no E^0 entry, no d^0 or d^1 map and no q = q_max row."""

    @pytest.mark.parametrize("pair", [("const", "const"), ("alt", "aug")])
    def test_reads_only_e1_entries(self, monkeypatch, pair):
        import cathom.spectral as spectral

        cat = fixture_category("OrS3")
        Ms, Ns = fixture_modules(cat, ZZ)
        M, N = Ms[pair[0]], Ns[pair[1]]
        fc = build_filtered_complex(M, N, q_max=4)
        calls = {"spectral_pages": 0, "spectral_page": 0, "induced_map": 0}
        read = []
        real_entry = spectral.page_entry

        def counter(name):
            real = getattr(spectral, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counting

        def entry(fc, r, p, q):
            read.append((r, p, q))
            return real_entry(fc, r, p, q)

        for name in calls:
            monkeypatch.setattr(spectral, name, counter(name))
        monkeypatch.setattr(spectral, "page_entry", entry)
        monkeypatch.setattr(e1data, "page_entry", entry)
        rep = verify_e1(M, N, 3, fc=fc)
        assert rep.all_match
        assert calls == {"spectral_pages": 0, "spectral_page": 0, "induced_map": 0}
        assert sorted(read) == [(1, p, q) for p in sorted(fc.chains) for q in range(4)]


class TestD1Components:
    def test_or_z2_alternating_sum_is_d1(self):
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, CO)
        fc = build_filtered_complex(M, N, q_max=4)
        chain = fc.chains[1][0]
        tables = TransportTables(fc)
        cols = {}
        for q in range(4):
            comps = d1_components(fc, 1, chain, q, tables, cols)
            for comp in comps:
                face = d1_face_block(fc, 1, chain, comp["i"], q, cols)
                assert comp["matrix"].data == face.data

    def test_or_z2_partial_assembly_shape(self):
        # i = 0 component of d1_{1,q}: iso in degree 0, zero above
        cat = fixture_category("OrZ2")
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, CO)
        fc = build_filtered_complex(M, N, q_max=4)
        chain = fc.chains[1][0]
        comps0 = d1_components(fc, 1, chain, 0)
        c0 = next(c for c in comps0 if c["i"] == 0)
        assert c0["source_module"] == FPModule(ZZ, 1)
        assert c0["target_module"] == FPModule(ZZ, 1)
        assert c0["matrix"].data in ([[1]], [[-1]])
        for q in (1, 2, 3):
            comps = d1_components(fc, 1, chain, q)
            c = next(cc for cc in comps if cc["i"] == 0)
            assert c["target_module"].is_zero()

    def test_or_z4_two_chain_concatenation(self):
        # i = p concatenation on the 2-chain composes the unique projections
        cat = fixture_category("OrZ4")
        M = CatModule.constant(cat, ZZ, CONTRA)
        N = CatModule.constant(cat, ZZ, CO)
        fc = build_filtered_complex(M, N, q_max=3)
        (chain2,) = fc.chains[2]
        tables = TransportTables(fc)
        cols = {}
        for q in range(2):
            comps = d1_components(fc, 2, chain2, q, tables, cols)
            assert len(comps) == 3
            for comp in comps:
                face = d1_face_block(fc, 2, chain2, comp["i"], q, cols)
                assert comp["matrix"].data == face.data

    def test_or_v4_components_match_faces(self):
        cat = fixture_category("OrV4")
        Ms, Ns = fixture_modules(cat, ZZ)
        M, N = Ms["const"], Ns["aug"]
        fc = build_filtered_complex(M, N, q_max=3)
        tables = TransportTables(fc)
        cols = {}
        for chain in fc.chains[1]:
            for q in (0, 1):
                comps = d1_components(fc, 1, chain, q, tables, cols)
                for comp in comps:
                    face = d1_face_block(fc, 1, chain, comp["i"], q, cols)
                    assert comp["matrix"].data == face.data
