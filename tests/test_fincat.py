from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathom.catmod import CO, CONTRA
from cathom.fincat import (
    BalancedTriples,
    ChainBiset,
    FiniteCategory,
    NerveCell,
    PChain,
    UnboundedChains,
    chain_bound,
    chain_biset,
    enumerate_chains,
    face,
    nd_tilde_nerve,
)
from cathom.fixtures import FIXTURE_NAMES, fixture_category
from cathom.groups import FiniteGroup, SubgroupFamily, orbit_category
from cathom.resolve import scan_order


def trivial_category():
    return FiniteCategory(["*"], {"id": ("*", "*")}, {("id", "id"): "id"}, {"*": "id"}, name="pt")


def arrow_category():
    """The category [1]: objects 0, 1 and one non-identity arrow."""
    mors = {"i0": ("0", "0"), "i1": ("1", "1"), "a": ("0", "1")}
    comp = {
        ("i0", "i0"): "i0",
        ("i1", "i1"): "i1",
        ("a", "i0"): "a",
        ("i1", "a"): "a",
    }
    return FiniteCategory(["0", "1"], mors, comp, {"0": "i0", "1": "i1"}, name="[1]")


def poset012():
    objs = ["0", "1", "2"]
    mors = {f"i{k}": (k, k) for k in objs}
    mors.update({"a01": ("0", "1"), "a12": ("1", "2"), "a02": ("0", "2")})
    comp = {}
    for f, (a, b) in mors.items():
        for g, (b2, c) in mors.items():
            if b != b2:
                continue
            comp[(g, f)] = next(
                m for m, (x, y) in mors.items() if (x, y) == (a, c)
            )
    return FiniteCategory(objs, mors, comp, {k: f"i{k}" for k in objs}, name="0<1<2")


def group_category(G: FiniteGroup):
    mors = {f"g{a}": ("*", "*") for a in range(G.n)}
    comp = {(f"g{a}", f"g{b}"): f"g{G.mul(a, b)}" for a in range(G.n) for b in range(G.n)}
    return FiniteCategory(["*"], mors, comp, {"*": "g0"}, name=f"B{G.name}")


def idempotent_category():
    """One object with a non-identity idempotent endo: not EI."""
    mors = {"id": ("*", "*"), "e": ("*", "*")}
    comp = {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e", ("e", "e"): "e"}
    return FiniteCategory(["*"], mors, comp, {"*": "id"}, name="idem")


def parallel_arrows_category():
    """Two parallel arrows a -> b that the automorphism s of b fixes, so
    aut(b) does not act freely on mor(a, b)."""
    mors = {
        "ia": ("a", "a"), "ib": ("b", "b"), "s": ("b", "b"),
        "f": ("a", "b"), "g": ("a", "b"),
    }
    comp = {
        ("ia", "ia"): "ia", ("ib", "ib"): "ib",
        ("ib", "s"): "s", ("s", "ib"): "s", ("s", "s"): "ib",
        ("f", "ia"): "f", ("g", "ia"): "g",
        ("ib", "f"): "f", ("ib", "g"): "g",
        ("s", "f"): "f", ("s", "g"): "g",
    }
    return FiniteCategory(["a", "b"], mors, comp, {"a": "ia", "b": "ib"}, name="a=>b")


def op(cat: FiniteCategory) -> FiniteCategory:
    """The opposite category: f: a -> b becomes f: b -> a."""
    mors = {f: (b, a) for f, (a, b) in cat.morphisms.items()}
    comp = {(f, g): h for (g, f), h in cat.compose_table.items()}
    return FiniteCategory(cat.objects, mors, comp, cat.identity, name=f"{cat.name}^op")


def double(cat: FiniteCategory) -> FiniteCategory:
    """Every object c doubled into isomorphic copies c|0 and c|1: each
    f: a -> b gives f|ij: a|i -> b|j, composed as (g o f)|ik."""
    objs = [f"{c}|{i}" for c in cat.objects for i in "01"]
    mors = {f"{f}|{i}{j}": (f"{a}|{i}", f"{b}|{j}")
            for f, (a, b) in cat.morphisms.items() for i in "01" for j in "01"}
    comp = {(f"{g}|{j}{k}", f"{f}|{i}{j}"): f"{h}|{i}{k}"
            for (g, f), h in cat.compose_table.items()
            for i in "01" for j in "01" for k in "01"}
    ident = {f"{c}|{i}": f"{e}|{i}{i}" for c, e in cat.identity.items() for i in "01"}
    return FiniteCategory(objs, mors, comp, ident, name=f"2{cat.name}")


class TestValidation:
    def test_trivial_valid(self):
        assert trivial_category().validate().ok

    def test_arrow_valid(self):
        assert arrow_category().validate().ok

    def test_broken_composition_reported(self):
        mors = {"i0": ("0", "0"), "i1": ("1", "1"), "a": ("0", "1")}
        comp = {
            ("i0", "i0"): "i0",
            ("i1", "i1"): "i1",
            ("a", "i0"): "i1",  # wrong: endpoints (0,1) expected
            ("i1", "a"): "a",
        }
        cat = FiniteCategory(["0", "1"], mors, comp, {"0": "i0", "1": "i1"})
        rep = cat.validate()
        assert not rep.ok
        assert any("i1" in v and "a" in v for v in rep.violations)


class TestIsoClasses:
    def test_group_category_single_class(self):
        cat = group_category(FiniteGroup.cyclic(3))
        data = cat.iso_classes()
        assert data.count == 1
        assert sorted(data.aut_group(0)) == sorted(cat.aut("*"))
        assert len(cat.aut("*")) == 3

    def test_or_z2_two_classes(self):
        G = FiniteGroup.cyclic(2)
        cat = orbit_category(G)
        data = cat.iso_classes()
        assert data.count == 2
        # aut(G/1) = Z/2, aut(G/G) trivial
        sizes = sorted(len(cat.aut(r)) for r in data.representative)
        assert sizes == [1, 2]

    def test_isomorphic_copies_merge(self):
        # two objects, isomorphic: 4 morphisms
        mors = {
            "ia": ("a", "a"),
            "ib": ("b", "b"),
            "u": ("a", "b"),
            "v": ("b", "a"),
        }
        comp = {}
        for f, (x, y) in mors.items():
            for g, (y2, z) in mors.items():
                if y != y2:
                    continue
                comp[(g, f)] = next(m for m, (s, t) in mors.items() if (s, t) == (x, z))
        cat = FiniteCategory(["a", "b"], mors, comp, {"a": "ia", "b": "ib"})
        assert cat.validate().ok
        data = cat.iso_classes()
        assert data.count == 1
        assert cat.tgt(data.witness["b"]) == "a"


class TestPredicates:
    def test_group_category_EI_left_free(self):
        cat = group_category(FiniteGroup.cyclic(2))
        assert cat.is_EI()
        assert cat.is_left_free()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbit_categories_left_free(self, n):
        cat = orbit_category(FiniteGroup.cyclic(n))
        assert cat.is_left_free()
        assert cat.is_EI()

    def test_idempotent_not_EI(self):
        assert not idempotent_category().is_EI()

    def test_noniso_morphisms(self):
        G = FiniteGroup.cyclic(2)
        cat = orbit_category(G)
        free, fixed = cat.objects  # G/1 first (order 1 subgroup)
        assert cat.noniso_morphisms(free, free) == []
        assert len(cat.noniso_morphisms(free, fixed)) == 1
        assert cat.noniso_morphisms(fixed, free) == []


class TestChains:
    def test_arrow_chains(self):
        chains = enumerate_chains(arrow_category())
        assert [len(chains[p]) for p in sorted(chains)] == [2, 1]

    def test_group_category_only_zero_chains(self):
        chains = enumerate_chains(group_category(FiniteGroup.cyclic(2)), p_max=2)
        assert len(chains[0]) == 1
        assert chains[1] == [] and chains[2] == []

    def test_or_z4_chain_counts(self):
        # subgroup lattice 1 < Z/2 < Z/4: 3 classes, 3 one-chains, 1 two-chain
        cat = orbit_category(FiniteGroup.cyclic(4))
        chains = enumerate_chains(cat)
        assert [len(chains[p]) for p in sorted(chains)] == [3, 3, 1]
        assert chain_bound(cat) == 2

    def test_or_s3_zero_chains(self):
        cat = orbit_category(FiniteGroup.symmetric(3))
        chains = enumerate_chains(cat)
        assert len(chains[0]) == 4  # conjugacy classes of subgroups

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedChains):
            enumerate_chains(idempotent_category())

    def test_partial_order_antisymmetric(self):
        for cat in (orbit_category(FiniteGroup.cyclic(4)), poset012()):
            edges = cat.iso_classes().edges
            for i, js in enumerate(edges):
                for j in js:
                    assert i not in edges[j]


class TestChainBiset:
    def test_or_z2_single_element(self):
        cat = orbit_category(FiniteGroup.cyclic(2))
        chains = enumerate_chains(cat)
        (chain,) = chains[1]
        bs = chain_biset(cat, chain)
        assert bs.size() == 1
        c0, cp = chain.reps[0], chain.reps[-1]
        for a in cat.aut(c0):
            assert bs.right_act(0, a) == 0
        for a in cat.aut(cp):
            assert bs.left_act(a, 0) == 0

    def test_or_z4_two_chain(self):
        cat = orbit_category(FiniteGroup.cyclic(4))
        chains = enumerate_chains(cat)
        (chain2,) = chains[2]
        bs = chain_biset(cat, chain2)
        assert bs.size() == 1

    def test_actions_commute(self):
        cat = orbit_category(FiniteGroup.symmetric(3))
        chains = enumerate_chains(cat)
        for chain in chains[1] + chains[2]:
            bs = chain_biset(cat, chain)
            c0, cp = chain.reps[0], chain.reps[-1]
            for a in cat.aut(cp):
                for b in cat.aut(c0):
                    for k in range(bs.size()):
                        assert bs.right_act(bs.left_act(a, k), b) == bs.left_act(
                            a, bs.right_act(k, b)
                        )

    def test_empty_when_no_morphisms(self):
        cat = orbit_category(FiniteGroup.cyclic(2))
        free, fixed = cat.iso_classes().representative
        bs = ChainBiset(cat, PChain((fixed, free)))
        assert bs.size() == 0


def assert_nerve_is_balanced_triples(cat: FiniteCategory, p_max: int):
    """Every nerve cell at p <= p_max is the disjoint union of the balanced
    triples of its chains, by class_of of their diagrams."""
    chains = enumerate_chains(cat, p_max)
    bisets = {ch: chain_biset(cat, ch) for p in chains if p >= 1 for ch in chains[p]}
    for p in range(p_max + 1):
        plist = chains[p]
        for s in cat.objects:
            for t in cat.objects:
                cell = nd_tilde_nerve(cat, p, s, t)
                total = 0
                hit = set()
                for ch in plist:
                    bt = BalancedTriples(cat, ch, s, t, bisets.get(ch))
                    total += bt.size()
                    for k in range(bt.size()):
                        hit.add(cell.class_of(bt.to_diagram(k)))
                assert total == cell.size()
                assert hit == set(range(cell.size()))


class TestNerve:
    def test_group_category_higher_simplices_empty(self):
        cat = group_category(FiniteGroup.cyclic(2))
        assert nd_tilde_nerve(cat, 1, "*", "*").size() == 0
        assert nd_tilde_nerve(cat, 0, "*", "*").size() == 2

    def test_or_z2_p1_single_class(self):
        cat = orbit_category(FiniteGroup.cyclic(2))
        free, fixed = cat.objects
        assert nd_tilde_nerve(cat, 1, free, fixed).size() == 1

    @pytest.mark.parametrize(
        "catf",
        [
            lambda: trivial_category(),
            lambda: arrow_category(),
            lambda: poset012(),
            lambda: group_category(FiniteGroup.cyclic(3)),
            lambda: orbit_category(FiniteGroup.cyclic(2)),
            lambda: orbit_category(FiniteGroup.cyclic(4)),
        ],
    )
    def test_bijection_with_chain_decomposition(self, catf):
        assert_nerve_is_balanced_triples(catf(), 2)

    def test_or_s4_bijection_at_scale(self):
        # every subgroup of S4 is an object: 30 objects in 11 iso classes
        G = FiniteGroup.symmetric(4)
        cat = orbit_category(G, SubgroupFamily(G, G.subgroups(24), closure=False))
        assert len(cat.objects) == 30 and cat.iso_classes().count == 11
        assert_nerve_is_balanced_triples(cat, 1)

    def test_faces_simplicial(self):
        cat = orbit_category(FiniteGroup.cyclic(4))
        cell2 = nd_tilde_nerve(cat, 2, cat.objects[0], cat.objects[2])
        for d in cell2.classes:
            for i in range(3):
                fi = face(cat, d, i)
                for j in range(i):
                    # d_j d_i = d_{i-1} d_j for j < i
                    left = face(cat, fi, j) if fi else None
                    fj = face(cat, d, j)
                    right = face(cat, fj, i - 1) if fj else None
                    cell0 = nd_tilde_nerve(cat, 0, cat.objects[0], cat.objects[2])
                    lc = cell0.class_of(left) if left else None
                    rc = cell0.class_of(right) if right else None
                    assert lc == rc


class TestBisetActionLaws:
    def test_actions_are_homomorphisms(self):
        cat = orbit_category(FiniteGroup.symmetric(3))
        chains = enumerate_chains(cat)
        for chain in chains[1]:
            bs = chain_biset(cat, chain)
            c0, cp = chain.reps[0], chain.reps[-1]
            for a in cat.aut(cp):
                for b in cat.aut(cp):
                    ab = cat.compose(a, b)
                    for k in range(bs.size()):
                        assert bs.left_act(ab, k) == bs.left_act(a, bs.left_act(b, k))
            for a in cat.aut(c0):
                for b in cat.aut(c0):
                    ab = cat.compose(a, b)
                    for k in range(bs.size()):
                        # right action: s.(a o b) = (s.a).b
                        assert bs.right_act(k, ab) == bs.right_act(bs.right_act(k, a), b)
            ident_p, ident_0 = cat.id_of(cp), cat.id_of(c0)
            for k in range(bs.size()):
                assert bs.left_act(ident_p, k) == k
                assert bs.right_act(k, ident_0) == k


def reference_nerve(cat: FiniteCategory, p: int, src: str, tgt: str):
    """(classes, index) of the tilde-nerve cell by brute force: every
    (p+1)-tuple of objects, every string of non-isomorphisms along it,
    orbits under every isomorphism between any two objects."""

    def noniso(a, b):
        return [f for f in cat.hom[(a, b)] if not cat.is_iso(f)]

    diagrams = []
    for objs in product(cat.objects, repeat=p + 1):
        interior_sets = [noniso(objs[i], objs[i + 1]) for i in range(p)]
        if any(not s for s in interior_sets):
            continue
        for alpha in cat.hom[(src, objs[0])]:
            for phis in product(*interior_sets):
                for beta in cat.hom[(objs[p], tgt)]:
                    diagrams.append((alpha, tuple(phis), beta))

    def moves(diagram):
        alpha, phis, beta = diagram
        objs = [cat.tgt(alpha)] + [cat.tgt(f) for f in phis]
        for i in range(p + 1):
            c = objs[i]
            for cprime in cat.objects:
                for u in cat.isos_between(c, cprime):
                    if u == cat.id_of(c):
                        continue
                    uinv = cat.inverse(u)
                    a2, ph2, b2 = alpha, list(phis), beta
                    if i == 0:
                        a2 = cat.compose(u, alpha)
                        if p > 0:
                            ph2[0] = cat.compose(phis[0], uinv)
                        else:
                            b2 = cat.compose(beta, uinv)
                    elif i < p:
                        ph2[i - 1] = cat.compose(u, phis[i - 1])
                        ph2[i] = cat.compose(phis[i], uinv)
                    else:
                        ph2[i - 1] = cat.compose(u, phis[i - 1])
                        b2 = cat.compose(beta, uinv)
                    yield (a2, tuple(ph2), b2)

    return orbit_classes(diagrams, moves)


def orbit_classes(elements, moves):
    """(classes, index) by brute force: the orbit of each element is
    closed under ``moves`` (its images under a generating set) by a
    search and named by its least member; classes are the sorted names,
    and index maps each element to the position of its class."""
    name = {}
    for x in elements:
        if x in name:
            continue
        orbit, todo = {x}, [x]
        while todo:
            for y in moves(todo.pop()):
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        least = min(orbit)
        for y in orbit:
            name[y] = least
    classes = sorted(set(name.values()))
    position = {c: k for k, c in enumerate(classes)}
    return classes, {x: position[name[x]] for x in elements}


def _z2xz4_orbit_category():
    return orbit_category(
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)))


class TestNerveAgainstReference:
    """NerveCell's orbit minima are the classes of a scan of every object
    tuple, and class_of agrees with the scan on every diagram.  The
    opposite, two-arrow and doubled categories are not left-free or not
    skeletal, so a least prefix is reached by more than one move."""

    @pytest.mark.parametrize("catf,p_max", [
        *[((lambda name=name: fixture_category(name)), None) for name in FIXTURE_NAMES],
        (_z2xz4_orbit_category, 3),
        (lambda: op(fixture_category("OrS3")), None),
        (lambda: op(fixture_category("OrV4")), None),
        (parallel_arrows_category, None),
        (lambda: double(fixture_category("OrZ4")), None),
    ], ids=[*FIXTURE_NAMES, "OrZ2xZ4", "OrS3op", "OrV4op", "parallel", "doubledOrZ4"])
    def test_same_classes_and_index(self, catf, p_max):
        cat = catf()
        assert cat.validate().ok
        if p_max is None:
            p_max = chain_bound(cat)
        for p in range(p_max + 1):
            for s in cat.objects:
                for t in cat.objects:
                    classes, index = reference_nerve(cat, p, s, t)
                    cell = NerveCell(cat, p, s, t)
                    assert cell.classes == classes, (p, s, t)
                    assert {d: cell.class_of(d) for d in index} == index, (p, s, t)


def _d8_orbit_category():
    D8 = FiniteGroup.from_permutations([[(0, 1, 2, 3)], [(0, 2)]], 4, name="D8")
    return orbit_category(D8)


def _s4_orbit_category():
    G = FiniteGroup.symmetric(4)
    return orbit_category(G, SubgroupFamily(G, G.subgroups(24), closure=False))


def reference_biset(cat: FiniteCategory, chain: PChain):
    """(elements, index) of S(chain) by brute force: every string of
    non-isomorphisms along the chain, orbits under the automorphisms of
    the interior objects."""
    reps, p = chain.reps, chain.p
    strings = list(product(*[
        [f for f in cat.hom[(reps[i], reps[i + 1])] if not cat.is_iso(f)]
        for i in range(p)
    ]))

    def moves(s):
        for i in range(1, p):
            for a in cat.aut(reps[i]):
                t = list(s)
                t[i] = cat.compose(s[i], a)
                t[i - 1] = cat.compose(cat.inverse(a), s[i - 1])
                yield tuple(t)

    return orbit_classes(strings, moves)


def reference_triples(cat: FiniteCategory, chain: PChain, src: str, tgt: str):
    """(classes, index) of the balanced triples (beta, k, alpha) by brute
    force over reference_biset: (beta o u, s, alpha) ~ (beta, u . s, alpha)
    for u in aut(c_p), (beta, s . w, alpha) ~ (beta, s, w o alpha) for w
    in aut(c_0)."""
    c0, cp = chain.reps[0], chain.reps[-1]
    if chain.p == 0:
        ks = [None]

        def moves(t):
            b, k, a = t
            for u in cat.aut(c0):
                yield (cat.compose(b, u), k, cat.compose(cat.inverse(u), a))
    else:
        strings, index = reference_biset(cat, chain)
        ks = range(len(strings))

        def moves(t):
            b, k, a = t
            s = strings[k]
            for u in cat.aut(cp):
                us = s[:-1] + (cat.compose(cat.inverse(u), s[-1]),)
                yield (cat.compose(b, u), index[us], a)
            for w in cat.aut(c0):
                sw = (cat.compose(s[0], w),) + s[1:]
                yield (b, index[sw], cat.compose(cat.inverse(w), a))

    triples = [(b, k, a) for b in cat.hom[(cp, tgt)] for k in ks for a in cat.hom[(src, c0)]]
    return orbit_classes(triples, moves)


class TestOrbitNamesAgainstReference:
    """Iso classes, biset elements and balanced triples are the orbit
    minima of a brute-force closure, and every index agrees with it."""

    @pytest.mark.parametrize("catf,p_max", [
        *[((lambda name=name: fixture_category(name)), None) for name in FIXTURE_NAMES],
        (_d8_orbit_category, 2),
        (_z2xz4_orbit_category, 2),
        (_s4_orbit_category, 1),
        (lambda: double(fixture_category("OrZ4")), None),
    ], ids=[*FIXTURE_NAMES, "OrD8", "OrZ2xZ4", "OrS4", "doubledOrZ4"])
    def test_same_classes_and_index(self, catf, p_max):
        cat = catf()
        objects = cat.objects
        iso_moves = {
            cat.obj_index[a]: [cat.obj_index[b] for f, (a2, b) in cat.morphisms.items()
                               if a2 == a and cat.is_iso(f)]
            for a in objects
        }
        classes, index = orbit_classes(range(len(objects)), iso_moves.__getitem__)
        data = cat.iso_classes()
        assert data.representative == [objects[i] for i in classes]
        assert data.class_of == {c: index[i] for i, c in enumerate(objects)}
        assert data.classes == [[c for c in objects if data.class_of[c] == k]
                                for k in range(len(classes))]
        for c in objects:
            rep = data.representative[data.class_of[c]]
            assert data.witness[c] == min(f for f in cat.hom[(c, rep)] if cat.is_iso(f))

        chains = enumerate_chains(cat, chain_bound(cat) if p_max is None else p_max)
        for p, plist in chains.items():
            for chain in plist:
                biset = ChainBiset(cat, chain) if p >= 1 else None
                if biset is not None:
                    elements, index = reference_biset(cat, chain)
                    assert biset.elements == elements, chain
                    assert {s: biset.index[s] for s in index} == index, chain
                for s in objects:
                    for t in objects:
                        classes, index = reference_triples(cat, chain, s, t)
                        bt = BalancedTriples(cat, chain, s, t, biset)
                        assert bt.classes == classes, (chain, s, t)
                        assert {x: bt.index[x] for x in index} == index, (chain, s, t)


# -- the class walk against references ---------------------------------


def reference_scan_order(cat: FiniteCategory, variance: str) -> list[str]:
    """An independent scan order: its own depth-first post-order over the
    pairs (i, j), i != j, of classes with mor(rep_i, rep_j) nonempty,
    reversed for CO; category order when that preorder has a cycle."""
    data = cat.iso_classes()
    n = data.count
    reps = data.representative
    reach = {(i, j) for i in range(n) for j in range(n) if cat.hom[(reps[i], reps[j])]}
    edges = {i: [j for j in range(n) if i != j and (i, j) in reach] for i in range(n)}
    order: list[int] = []
    state = {}

    def dfs(v):
        state[v] = 1
        for w in edges[v]:
            if state.get(w, 0) == 1:
                raise ValueError("cyclic")
            if state.get(w, 0) == 0:
                dfs(w)
        state[v] = 2
        order.append(v)

    try:
        for v in range(n):
            if state.get(v, 0) == 0:
                dfs(v)
    except ValueError:
        return list(cat.objects)
    if variance == CO:
        order = order[::-1]
    return [c for k in order for c in data.classes[k]]


def _category(objects, mors, composite, identity):
    """The category whose composition table is composite(g, f) on every
    composable pair."""
    comp = {(g, f): composite(g, f) for f, (a, b) in mors.items()
            for g, (b2, c) in mors.items() if b == b2}
    return FiniteCategory(objects, mors, comp, identity, name="generated")


@st.composite
def class_walk_categories(draw):
    """(category, strict order lt on the poset elements 0..n-1, n, whether
    the chains are bounded).

    A random poset on up to 7 elements, i < j for every (i, j) in lt, its
    objects listed in a shuffled order.  The "idempotent" variant adds a
    non-isomorphism e = e o e at one element, fixing every other morphism
    (not EI, no cycle); the "split" variant adds a separate pair s0, s1
    with r: s0 -> s1, s: s1 -> s0 and r o s = id (two classes on a
    cycle).  Small ones may be doubled into isomorphic copies.
    """
    n = draw(st.integers(1, 7))
    lt = {(i, j) for i, j in combinations(range(n), 2) if draw(st.booleans())}
    for k in range(n):  # transitive closure, k as the middle element
        lt |= {(i, j) for (i, k2) in lt if k2 == k for (k3, j) in lt if k3 == k}
    variant = draw(st.sampled_from(["poset", "idempotent", "split"]))
    objects = [f"x{i}" for i in range(n)]
    mors = {f"a{i}_{j}": (f"x{i}", f"x{j}") for i in range(n) for j in range(n)
            if i == j or (i, j) in lt}
    identity = {f"x{i}": f"a{i}_{i}" for i in range(n)}

    def composite(g, f):
        (a, _), (_, c) = mors[f], mors[g]
        return f"a{a[1:]}_{c[1:]}"

    if variant == "idempotent":
        x = f"x{draw(st.integers(0, n - 1))}"
        mors["e"] = (x, x)
        plain = composite

        def composite(g, f):
            if "e" not in (g, f):
                return plain(g, f)
            if mors[f] == mors[g]:  # e with e or with the identity of x
                return "e"
            return f if g == "e" else g
    elif variant == "split":
        objects += ["s0", "s1"]
        mors.update({"i0": ("s0", "s0"), "i1": ("s1", "s1"), "e": ("s0", "s0"),
                     "r": ("s0", "s1"), "s": ("s1", "s0")})
        identity.update({"s0": "i0", "s1": "i1"})
        table = {("s", "r"): "e", ("r", "s"): "i1", ("e", "e"): "e",
                 ("r", "e"): "r", ("e", "s"): "s"}
        plain = composite

        def composite(g, f):
            if mors[f][0][0] == "x":
                return plain(g, f)
            if g in ("i0", "i1"):
                return f
            if f in ("i0", "i1"):
                return g
            return table[(g, f)]
    objects = draw(st.permutations(objects))
    cat = _category(objects, mors, composite, identity)
    if n <= 4 and draw(st.booleans()):
        cat = double(cat)
    return cat, lt, n, variant == "poset"


def brute_chain_counts(n: int, lt: set) -> list[int]:
    """The number of chains x_0 < ... < x_p for each p, by testing every
    subset of the elements for being totally ordered."""
    counts = [0] * n
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if all(pair in lt for pair in combinations(subset, 2)):
                counts[size - 1] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


class TestClassWalkAgainstReference:
    """scan_order, chain_bound and enumerate_chains read the one cached walk
    of the class graph on IsoClassData; they agree with an independent
    scan order and with brute-force chains."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(class_walk_categories())
    def test_generated_categories(self, case):
        cat, lt, n, bounded = case
        assert cat.validate().ok
        for variance in (CONTRA, CO):
            assert scan_order(cat, variance) == reference_scan_order(cat, variance)
        if not bounded:
            with pytest.raises(UnboundedChains):
                chain_bound(cat)
            with pytest.raises(UnboundedChains):
                enumerate_chains(cat)
            return
        counts = brute_chain_counts(n, lt)
        assert chain_bound(cat) == len(counts) - 1
        chains = enumerate_chains(cat)
        assert [len(chains[p]) for p in sorted(chains)] == counts

    @pytest.mark.parametrize("catf", [
        *[(lambda name=name: fixture_category(name)) for name in FIXTURE_NAMES],
        _s4_orbit_category,
    ], ids=[*FIXTURE_NAMES, "OrS4"])
    def test_fixtures(self, catf):
        cat = catf()
        for variance in (CONTRA, CO):
            assert scan_order(cat, variance) == reference_scan_order(cat, variance)
