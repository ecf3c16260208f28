"""Finite groups, subgroup lattices, families, and orbit categories.

Groups are multiplication tables on element indices 0..n-1 with identity
at index 0.  Subgroups are frozensets of indices.  Families are sets of
subgroups closed under conjugation; closure is computed, not trusted.

The (M)/(NM) predicates are the finite-group adaptation of conditions on
maximal members of a family: the literature states them for infinite
groups with finite subgroups, here they are restricted to families inside
a finite group.
"""

from __future__ import annotations

from .fincat import FiniteCategory


class GroupTooLarge(Exception):
    pass


class FamilyMismatch(ValueError):
    pass


DEFAULT_ORDER_BOUND = 16

# The largest group built from permutations or read from a bundle, and the
# largest permutation degree: S5 (order 120) is built, S6 (720) is refused
# before its table, since ``FiniteGroup.validate`` takes n^3 steps.
GROUP_ORDER_BOUND = 120


class FiniteGroup:
    def __init__(self, table: list[list[int]], name: str = "G"):
        self.name = name
        self.table = [list(r) for r in table]
        self.n = len(table)
        e = None
        for i in range(self.n):
            if all(self.table[i][j] == j == self.table[j][i] for j in range(self.n)):
                e = i
                break
        if e is None:
            raise ValueError("no identity element")
        if e != 0:
            raise ValueError("identity must be element 0")
        self.e = 0
        self.inv = [0] * self.n
        for a in range(self.n):
            for b in range(self.n):
                if self.table[a][b] == 0:
                    self.inv[a] = b
                    break
            else:
                raise ValueError(f"element {a} has no inverse")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv[g])

    def validate(self) -> list[str]:
        out = []
        n = self.n
        for a in range(n):
            row = set(self.table[a])
            col = {self.table[b][a] for b in range(n)}
            if row != set(range(n)) or col != set(range(n)):
                out.append(f"row/column {a} is not a permutation")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        out.append(f"associativity fails at ({a},{b},{c})")
                        return out
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        t = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(t, name=f"Z/{n}")

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls([[0]], name="1")

    @classmethod
    def direct_product(cls, A: "FiniteGroup", B: "FiniteGroup") -> "FiniteGroup":
        pairs = [(a, b) for a in range(A.n) for b in range(B.n)]
        idx = {p: i for i, p in enumerate(pairs)}
        t = [
            [idx[(A.mul(a1, a2), B.mul(b1, b2))] for (a2, b2) in pairs]
            for (a1, b1) in pairs
        ]
        return cls(t, name=f"{A.name}x{B.name}")

    @classmethod
    def from_permutations(cls, gens: list[list[tuple[int, ...]]], degree: int,
                          name: str = "G") -> "FiniteGroup":
        """Group generated by permutations given in cycle notation.  A
        degree or an order past ``GROUP_ORDER_BOUND`` is refused before the
        table is built."""
        if degree > GROUP_ORDER_BOUND:
            raise GroupTooLarge(f"degree {degree} exceeds the group order bound "
                                f"{GROUP_ORDER_BOUND}")

        def to_map(cycles):
            m = list(range(degree))
            for cyc in cycles:
                for i, x in enumerate(cyc):
                    m[x] = cyc[(i + 1) % len(cyc)]
            return tuple(m)

        identity = tuple(range(degree))
        gen_maps = [to_map(g) for g in gens]
        elems = {identity}
        frontier = [identity]
        while frontier:
            new = []
            for p in frontier:
                for g in gen_maps:
                    q = tuple(g[p[i]] for i in range(degree))
                    if q not in elems:
                        elems.add(q)
                        new.append(q)
            if len(elems) > GROUP_ORDER_BOUND:
                raise GroupTooLarge(f"|G| exceeds the group order bound {GROUP_ORDER_BOUND}")
            frontier = new
        ordered = [identity] + sorted(e for e in elems if e != identity)
        idx = {p: i for i, p in enumerate(ordered)}
        t = [
            [idx[tuple(p[q[i]] for i in range(degree))] for q in ordered]
            for p in ordered
        ]
        return cls(t, name=name)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        if n <= 1:
            return cls.trivial()
        gens = [[tuple(range(n))], [(0, 1)]] if n > 2 else [[(0, 1)]]
        return cls.from_permutations(gens, n, name=f"S{n}")

    # -- subgroups ------------------------------------------------------

    def subgroup_closure(self, seed) -> frozenset[int]:
        elems = set(seed) | {0}
        frontier = list(elems)
        while frontier:
            new = []
            for a in frontier:
                for b in list(elems):
                    for c in (self.mul(a, b), self.mul(b, a), self.inv[a]):
                        if c not in elems:
                            elems.add(c)
                            new.append(c)
            frontier = new
        return frozenset(elems)

    def subgroups(self, bound: int = DEFAULT_ORDER_BOUND) -> list[frozenset[int]]:
        """All subgroups, sorted by (order, element tuple)."""
        if self.n > bound:
            raise GroupTooLarge(f"|G| = {self.n} exceeds the bound {bound}")
        found = {frozenset([0])}
        frontier = [frozenset([0])]
        while frontier:
            new = []
            for H in frontier:
                for g in range(1, self.n):
                    if g in H:
                        continue
                    K = self.subgroup_closure(H | {g})
                    if K not in found:
                        found.add(K)
                        new.append(K)
            frontier = new
        return sorted(found, key=lambda H: (len(H), tuple(sorted(H))))

    def conjugate_subgroup(self, H: frozenset[int], g: int) -> frozenset[int]:
        return frozenset(self.conj(h, g) for h in H)

    def normalizer(self, H: frozenset[int]) -> frozenset[int]:
        return frozenset(
            g for g in range(self.n) if self.conjugate_subgroup(H, g) == H
        )

    def is_subgroup(self, H) -> bool:
        H = set(H)
        if 0 not in H:
            return False
        return all(self.mul(a, b) in H for a in H for b in H)

    def cosets(self, H: frozenset[int]) -> list[frozenset[int]]:
        """Partition of G into left cosets gH, in order of least element."""
        seen = set()
        out = []
        for g in range(self.n):
            if g in seen:
                continue
            cs = frozenset(self.mul(g, h) for h in H)
            seen |= cs
            out.append(cs)
        return out

    def weyl(self, H: frozenset[int]) -> "WeylData":
        return WeylData(self, H)


class WeylData:
    """The Weyl group WH = NH/H with explicit coset representatives."""

    def __init__(self, G: FiniteGroup, H: frozenset[int]):
        self.G = G
        self.H = H
        self.NH = G.normalizer(H)
        # the cosets inside NH, ordered by least element: H itself first
        self.cosets = cosets = [c for c in G.cosets(H) if c <= self.NH]
        self.reps = [min(c) for c in cosets]
        idx = {c: i for i, c in enumerate(cosets)}
        table = []
        for a in self.reps:
            row = []
            for b in self.reps:
                ab = G.mul(a, b)
                row.append(idx[frozenset(G.mul(ab, h) for h in H)])
            table.append(row)
        self.group = FiniteGroup(table, name=f"W({G.name})")
        assert self.group.n == len(self.NH) // len(H)


class SubgroupFamily:
    """A set of subgroups closed under conjugation."""

    def __init__(self, G: FiniteGroup, members, closure: bool = True):
        self.G = G
        mem = {frozenset(H) for H in members}
        for H in mem:
            if not G.is_subgroup(H):
                raise ValueError(f"{sorted(H)} is not a subgroup")
        if closure:
            closed = set()
            for H in mem:
                for g in range(G.n):
                    closed.add(G.conjugate_subgroup(H, g))
            mem = closed
        else:
            for H in mem:
                for g in range(G.n):
                    if G.conjugate_subgroup(H, g) not in mem:
                        raise ValueError("family is not closed under conjugation")
        self.members = sorted(mem, key=lambda H: (len(H), tuple(sorted(H))))
        self._set = set(self.members)

    @classmethod
    def all_subgroups(cls, G: FiniteGroup, bound: int = DEFAULT_ORDER_BOUND):
        return cls(G, G.subgroups(bound), closure=False)

    @classmethod
    def trivial(cls, G: FiniteGroup):
        return cls(G, [frozenset([0])], closure=False)

    def __contains__(self, H) -> bool:
        return frozenset(H) in self._set

    def __len__(self):
        return len(self.members)

    def maximal_members(self) -> list[frozenset[int]]:
        return [
            H
            for H in self.members
            if not any(H < K for K in self.members)
        ]

    def is_subfamily_of(self, other: "SubgroupFamily") -> bool:
        return all(H in other for H in self.members)


class LatticeEntry:
    def __init__(self, G: FiniteGroup, H: frozenset[int]):
        self.subgroup = H
        self.conjugacy_class = sorted(
            {G.conjugate_subgroup(H, g) for g in range(G.n)},
            key=lambda K: tuple(sorted(K)),
        )
        self.normalizer = G.normalizer(H)
        self.weyl = G.weyl(H)


def subgroup_lattice(G: FiniteGroup, bound: int = DEFAULT_ORDER_BOUND) -> list[LatticeEntry]:
    """All subgroups with conjugacy class, normalizer and Weyl data."""
    return [LatticeEntry(G, H) for H in G.subgroups(bound)]


# -- structural predicates on families ----------------------------------


def check_M(G: FiniteGroup, F: SubgroupFamily) -> bool:
    """Every non-trivial member lies in a unique maximal member of F."""
    maximal = F.maximal_members()
    for H in F.members:
        if len(H) == 1:
            continue
        containers = [K for K in maximal if H <= K]
        if len(containers) != 1:
            return False
    return True


def check_NM(G: FiniteGroup, F: SubgroupFamily) -> bool:
    """Every maximal member of F is self-normalizing."""
    return all(G.normalizer(M) == M for M in F.maximal_members())


def cofinal_inclusion_check(
    sub: SubgroupFamily, fam: SubgroupFamily
) -> tuple[bool, dict]:
    """Check the maximal-element condition making Or(G,sub) -> Or(G,fam) cofinal.

    For every H in fam - sub the set {L in sub | H <= L} must have a
    maximum K_H.  Returns (ok, witnesses) where witnesses maps H to K_H,
    or, on failure, contains the offending H under key "counterexample".
    """
    if not sub.is_subfamily_of(fam):
        raise FamilyMismatch("first family is not a subfamily of the second")
    witnesses: dict = {}
    for H in fam.members:
        if H in sub:
            continue
        over = [L for L in sub.members if H <= L]
        maxima = [L for L in over if all(K <= L for K in over)]
        if not maxima:
            return False, {"counterexample": H}
        witnesses[H] = maxima[0]
    return True, witnesses


def reduce_family(fam: SubgroupFamily) -> SubgroupFamily:
    """The subfamily of all maximal members plus every member contained in
    no or in more than one maximal member; its inclusion is cofinal."""
    maximal = fam.maximal_members()
    keep = set(maximal)
    for H in fam.members:
        containers = [K for K in maximal if H <= K]
        if len(containers) != 1:
            keep.add(H)
    return SubgroupFamily(fam.G, keep, closure=False)


# -- orbit categories ---------------------------------------------------


class OrbitCategory(FiniteCategory):
    """Or(G, F): one object per subgroup in F, morphisms the G-maps.

    A G-map G/H -> G/K is a coset gK with g^-1 H g <= K, acting by
    xH -> xgK; composition multiplies coset representatives.  Morphism
    ids are "src>tgt:r" with r the minimal coset element.
    """

    def __init__(self, G: FiniteGroup, F: SubgroupFamily):
        self.group = G
        self.family = F
        subs = F.members
        objects = [f"G/H{i}" for i in range(len(subs))]
        self.subgroup_of = {objects[i]: subs[i] for i in range(len(subs))}
        obj_idx = {o: i for i, o in enumerate(objects)}
        morphisms: dict[str, tuple[str, str]] = {}
        self.coset_of: dict[str, frozenset[int]] = {}
        identity: dict[str, str] = {}
        mor_id = {}
        for i, H in enumerate(subs):
            for j, K in enumerate(subs):
                for coset in G.cosets(K):
                    g = min(coset)
                    # g^-1 h g in K for all h in H
                    if all(G.conj(h, G.inv[g]) in K for h in H):
                        mid = f"{objects[i]}>{objects[j]}:{g}"
                        morphisms[mid] = (objects[i], objects[j])
                        self.coset_of[mid] = coset
                        mor_id[(i, j, coset)] = mid
            identity[objects[i]] = mor_id[(i, i, subs[i])]
        compose = {}
        for f, (a, b) in morphisms.items():
            gf = min(self.coset_of[f])
            for g2, (b2, c) in morphisms.items():
                if b != b2:
                    continue
                rep = G.mul(gf, min(self.coset_of[g2]))
                L = self.subgroup_of[c]
                coset = frozenset(G.mul(rep, l) for l in L)
                compose[(g2, f)] = mor_id[(obj_idx[a], obj_idx[c], coset)]
        super().__init__(objects, morphisms, compose, identity, name=f"Or({G.name})")

    def weyl_to_aut(self, obj: str) -> dict[int, str]:
        """The bijection WH -> aut(G/H), coset gH -> right translation by g^-1."""
        G = self.group
        H = self.subgroup_of[obj]
        wd = G.weyl(H)
        out = {}
        for k, rep in enumerate(wd.reps):
            coset = frozenset(G.mul(G.inv[rep], h) for h in H)
            out[k] = f"{obj}>{obj}:{min(coset)}"
        return out


def orbit_category(G: FiniteGroup, F: SubgroupFamily | None = None) -> OrbitCategory:
    if F is None:
        F = SubgroupFamily.all_subgroups(G)
    return OrbitCategory(G, F)


def group_category(G: FiniteGroup) -> FiniteCategory:
    """BG: one object *, a morphism g<a> for each element a, composed by
    the group law."""
    mors = {f"g{a}": ("*", "*") for a in range(G.n)}
    comp = {
        (f"g{a}", f"g{b}"): f"g{G.mul(a, b)}"
        for a in range(G.n)
        for b in range(G.n)
    }
    return FiniteCategory(["*"], mors, comp, {"*": "g0"}, name=f"B{G.name}")


def count_equivariant_maps(G: FiniteGroup, H: frozenset[int], K: frozenset[int]) -> int:
    """Brute-force count of G-maps G/H -> G/K as functions on cosets.

    A G-map is determined by the image coset C of eH and exists exactly
    when hC = C setwise for all h in H; this checks the function-level
    condition directly, independent of the subconjugacy formula.
    """
    count = 0
    for C in G.cosets(K):
        if all(frozenset(G.mul(h, x) for x in C) == C for h in H):
            count += 1
    return count


def group_from_aut(cat: FiniteCategory, obj: str) -> tuple[FiniteGroup, list[str]]:
    """The automorphism group of an object as a multiplication-table group.

    Returns (group, elements) where elements[i] is the morphism id of
    group element i; element 0 is the identity.
    """
    auts = cat.aut(obj)
    auts = [cat.id_of(obj)] + [a for a in auts if a != cat.id_of(obj)]
    idx = {a: i for i, a in enumerate(auts)}
    table = [[idx[cat.compose(a, b)] for b in auts] for a in auts]
    return FiniteGroup(table, name=f"aut({obj})"), auts
