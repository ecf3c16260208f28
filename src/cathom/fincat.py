"""Finite small categories with total composition tables.

Provides validation, isomorphism classes and automorphism data, the
EI/left-free predicates, chains of isomorphism classes with their bisets,
and the non-degenerate simplices of the two-sided tilde nerve (diagram
classes modulo objectwise isomorphism).

Each derived object is computed once and kept: the category holds its
isomorphisms with their inverses, its non-isomorphism graph and its
isomorphism classes, and ``IsoClassData`` holds the class graph (i -> j
when mor(rep_i, rep_j) is nonempty, i != j), its depth-first post-order
and the longest path from each class.  The chain bound, the chains and
the resolutions' scan order all read that one walk.

Every orbit class is named by its least member (canonical orbit
representatives, as in Holt, Eick and O'Brien, Handbook of Computational
Group Theory, ch. 4): an isomorphism class by its first object, a biset
element and a nerve class by the least string of morphisms, built one
position at a time by ``_least_string`` without listing the orbit, and a
balanced triple by the least triple of its listed orbit.

For a finite category, any non-invertible endomorphism yields arbitrarily
long composable strings of non-isomorphisms, so chain enumeration is only
defined for EI categories; everything else raises UnboundedChains.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import product


class UnboundedChains(Exception):
    pass


def _unbounded(reps: list[str]) -> UnboundedChains:
    return UnboundedChains(
        f"non-isomorphism strings repeat classes {reps}; the chain filtration is infinite")


class FiniteCategory:
    """A finite category: objects, hom lists, a total composition table.

    Hom-sets are ordered lists and every downstream basis follows this
    order.  Composition is stored as (g, f) -> g o f for composable pairs
    f: a -> b, g: b -> c.
    """

    def __init__(
        self,
        objects: list[str],
        morphisms: dict[str, tuple[str, str]],
        compose: dict[tuple[str, str], str],
        identity: dict[str, str],
        name: str = "C",
    ):
        self.name = name
        self.objects = list(objects)
        self.obj_index = {c: i for i, c in enumerate(self.objects)}
        self.morphisms = dict(morphisms)
        self.compose_table = dict(compose)
        self.identity = dict(identity)
        self.hom: dict[tuple[str, str], list[str]] = {
            (a, b): [] for a in objects for b in objects
        }
        for f, (a, b) in morphisms.items():
            # a morphism with an unknown endpoint is in no hom-set; validate names it
            if (a, b) in self.hom:
                self.hom[(a, b)].append(f)
        for key in self.hom:
            self.hom[key].sort()

    def src(self, f: str) -> str:
        return self.morphisms[f][0]

    def tgt(self, f: str) -> str:
        return self.morphisms[f][1]

    def compose(self, g: str, f: str) -> str:
        """g o f for f: a -> b, g: b -> c."""
        return self.compose_table[(g, f)]

    def id_of(self, obj: str) -> str:
        return self.identity[obj]

    # -- validation ----------------------------------------------------

    def validate(self) -> "ValidationReport":
        report = ValidationReport()
        seen_ids = set()
        for c in self.objects:
            if c in seen_ids:
                report.add(f"duplicate object id {c!r}")
            seen_ids.add(c)
        # the identity and composition typing are checked on the morphisms
        # whose endpoints are both objects; the others are named once here
        mors = {}
        for f, (a, b) in self.morphisms.items():
            unknown = [f"{end} {x!r}" for end, x in (("source", a), ("target", b))
                       if x not in self.obj_index]
            if unknown:
                plural = "s" if len(unknown) > 1 else ""
                report.add(f"morphism {f!r} has unknown endpoint{plural}: {', '.join(unknown)}")
            else:
                mors[f] = (a, b)
        for c in self.objects:
            e = self.identity.get(c)
            if e is None or e not in self.morphisms:
                report.add(f"object {c!r} has no identity morphism")
            elif e in mors and mors[e] != (c, c):
                report.add(f"identity of {c!r} is not an endomorphism of it")
        # composition totality and typing
        for g, f in self.compose_table:
            for m in sorted({g, f} - self.morphisms.keys()):
                report.add(f"compose triple ({g!r},{f!r}) names unknown morphism {m!r}")
        for f, (a, b) in mors.items():
            for g, (b2, c) in mors.items():
                if b != b2:
                    if (g, f) in self.compose_table:
                        report.add(f"compose defined on non-composable pair ({g!r},{f!r})")
                    continue
                gf = self.compose_table.get((g, f))
                if gf is None:
                    report.add(f"compose missing for composable pair ({g!r},{f!r})")
                elif gf not in self.morphisms:
                    report.add(f"compose({g!r},{f!r}) = {gf!r} is not a morphism")
                elif gf in mors and mors[gf] != (a, c):
                    report.add(
                        f"compose({g!r},{f!r}) = {gf!r} has wrong endpoints "
                        f"{mors[gf]} != {(a, c)}"
                    )
        if report.violations:
            return report
        # identity laws
        for f, (a, b) in mors.items():
            if self.compose(self.id_of(b), f) != f:
                report.add(f"id o {f!r} != {f!r}")
            if self.compose(f, self.id_of(a)) != f:
                report.add(f"{f!r} o id != {f!r}")
        # associativity, exhaustively over composable triples
        by_src: dict[str, list[str]] = {c: [] for c in self.objects}
        for f, (a, b) in mors.items():
            by_src[a].append(f)
        for f, (a, b) in mors.items():
            for g in by_src[b]:
                gf = self.compose(g, f)
                for h in by_src[self.tgt(g)]:
                    if self.compose(h, gf) != self.compose(self.compose(h, g), f):
                        report.add(f"associativity fails on ({h!r},{g!r},{f!r})")
        return report

    # -- isomorphisms ---------------------------------------------------

    @cached_property
    def _inverses(self) -> dict[str, str]:
        """f -> f^-1 for every isomorphism f."""
        inverse = {}
        for f, (a, b) in self.morphisms.items():
            for g in self.hom[(b, a)]:
                if (
                    self.compose(g, f) == self.id_of(a)
                    and self.compose(f, g) == self.id_of(b)
                ):
                    inverse[f] = g
                    break
        return inverse

    def is_iso(self, f: str) -> bool:
        return f in self._inverses

    def inverse(self, f: str) -> str:
        return self._inverses[f]

    def isos_between(self, a: str, b: str) -> list[str]:
        return [f for f in self.hom[(a, b)] if self.is_iso(f)]

    @cached_property
    def _noniso_graph(self) -> tuple[dict[str, dict[str, list[str]]],
                                     dict[str, list[tuple[str, str]]]]:
        """(noniso_out, iso_out).

        ``noniso_out[a]`` maps each b with mor(a, b) holding a
        non-isomorphism to those morphisms in hom order (b in object
        order); ``iso_out[a]`` lists (u, u^-1) for every isomorphism u
        leaving a, the identity first.
        """
        inverses = self._inverses
        noniso_out: dict[str, dict[str, list[str]]] = {}
        iso_out: dict[str, list[tuple[str, str]]] = {}
        for a in self.objects:
            ida = self.identity[a]
            out = noniso_out[a] = {}
            inv = iso_out[a] = [(ida, ida)]
            for b in self.objects:
                for f in self.hom[(a, b)]:
                    if f not in inverses:
                        out.setdefault(b, []).append(f)
                    elif f != ida:
                        inv.append((f, inverses[f]))
        return noniso_out, iso_out

    def noniso_morphisms(self, a: str, b: str) -> list[str]:
        """mor(a, b) minus the isomorphisms."""
        return list(self._noniso_graph[0][a].get(b, ()))

    def aut(self, c: str) -> list[str]:
        """Automorphisms of c, in hom order."""
        return self.isos_between(c, c)

    # -- predicates -----------------------------------------------------

    def is_EI(self) -> bool:
        """True when every endomorphism is an isomorphism."""
        return all(
            self.is_iso(f) for c in self.objects for f in self.hom[(c, c)]
        )

    def is_left_free(self) -> bool:
        """True when aut(c') acts freely on mor(c, c') by post-composition."""
        for c in self.objects:
            for d in self.objects:
                homs = self.hom[(c, d)]
                for a in self.aut(d):
                    if a == self.id_of(d):
                        continue
                    for f in homs:
                        if self.compose(a, f) == f:
                            return False
        return True

    @cached_property
    def _iso_data(self) -> "IsoClassData":
        return IsoClassData(self)

    def iso_classes(self) -> "IsoClassData":
        return self._iso_data

    def __repr__(self):
        return f"FiniteCategory({self.name}, {len(self.objects)} objects, {len(self.morphisms)} morphisms)"


class ValidationReport:
    def __init__(self):
        self.violations: list[str] = []

    def add(self, msg: str):
        self.violations.append(msg)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        return "valid" if self.ok else "invalid:\n" + "\n".join(self.violations)


class IsoClassData:
    """Partition of objects into isomorphism classes with witnesses, and
    the class graph.

    The representative of each class is its first object in category
    order; witness(c) is an isomorphism c -> representative.  ``edges``,
    ``order`` and ``depth`` are the class graph, its walk and its longest
    paths, each computed on first use and kept.
    """

    def __init__(self, cat: FiniteCategory):
        self.cat = cat
        self.classes: list[list[str]] = []
        self.representative: list[str] = []
        self.class_of: dict[str, int] = {}
        # witnesses: the first iso c -> representative in hom order
        self.witness: dict[str, str] = {}
        for c in cat.objects:
            for k, rep in enumerate(self.representative):
                isos = cat.isos_between(c, rep)
                if isos:
                    break
            else:
                k = len(self.classes)
                self.classes.append([])
                self.representative.append(c)
                isos = cat.isos_between(c, c)
            self.classes[k].append(c)
            self.class_of[c] = k
            self.witness[c] = isos[0]

    @property
    def count(self) -> int:
        return len(self.classes)

    def aut_group(self, class_idx: int) -> list[str]:
        return self.cat.aut(self.representative[class_idx])

    @cached_property
    def edges(self) -> list[tuple[int, ...]]:
        """i -> the classes j != i with mor(rep_i, rep_j) nonempty, in
        class order.  Every such morphism is a non-isomorphism."""
        hom = self.cat.hom
        reps = self.representative
        return [tuple(j for j, rj in enumerate(reps) if j != i and hom[(ri, rj)])
                for i, ri in enumerate(reps)]

    @cached_property
    def order(self) -> tuple[int, ...]:
        """The depth-first post-order of ``edges``, roots in class order:
        each class comes after every class it reaches.  A cycle raises
        UnboundedChains naming its classes."""
        edges = self.edges
        state: dict[int, int] = {}
        order: list[int] = []

        def dfs(v, stack):
            state[v] = 1
            for w in edges[v]:
                if state.get(w) == 1:
                    raise _unbounded([self.representative[i]
                                      for i in stack[stack.index(w):] + [w]])
                if w not in state:
                    dfs(w, stack + [w])
            state[v] = 2
            order.append(v)

        for v in range(self.count):
            if v not in state:
                dfs(v, [v])
        return tuple(order)

    @cached_property
    def depth(self) -> list[int]:
        """Class -> the length of the longest path of ``edges`` from it."""
        depth = [0] * self.count
        for v in self.order:
            depth[v] = max((1 + depth[w] for w in self.edges[v]), default=0)
        return depth


# -- chains ------------------------------------------------------------


class PChain:
    """A tuple of isomorphism classes with nonempty biset, by representatives."""

    __slots__ = ("reps",)

    def __init__(self, reps: tuple[str, ...]):
        self.reps = tuple(reps)

    @property
    def p(self) -> int:
        return len(self.reps) - 1

    def omit(self, i: int) -> "PChain":
        return PChain(self.reps[:i] + self.reps[i + 1 :])

    def __eq__(self, other):
        return isinstance(other, PChain) and self.reps == other.reps

    def __hash__(self):
        return hash(self.reps)

    def __repr__(self):
        return "<" + " -> ".join(self.reps) + ">"


def check_bounded_chains(cat: FiniteCategory) -> IsoClassData:
    """The category's class data once its chains are bounded: raise
    UnboundedChains on a non-isomorphism endomorphism of a representative.

    This is the EI condition, and for a finite category it also rules out
    a cycle of the class graph.  Going round a cycle rep_0 -> ... -> rep_k
    = rep_0 composes to an endomorphism of rep_0; when it is not
    invertible, rep_0 has a loop.  When it is, the first step f: rep_0 ->
    rep_1 has a left inverse g, and f g (g, then f) is an idempotent of
    rep_1.  It is not the identity (else f would be an isomorphism between
    two classes), so it is not invertible: rep_1 has a loop.  So
    ``IsoClassData.order`` never raises once this returns.
    """
    data = cat.iso_classes()
    for rep in data.representative:
        if cat.noniso_morphisms(rep, rep):
            raise _unbounded([rep, rep])
    return data


def chain_bound(cat: FiniteCategory) -> int:
    """Length of the longest chain (longest path in the acyclic class graph)."""
    return max(check_bounded_chains(cat).depth, default=0)


def enumerate_chains(cat: FiniteCategory, p_max: int | None = None) -> dict[int, list[PChain]]:
    """All p-chains with nonempty biset, grouped by p, for p <= p_max."""
    data = check_bounded_chains(cat)
    edges = data.edges
    if p_max is None:
        p_max = max(data.depth, default=0)
    out: dict[int, list[PChain]] = {p: [] for p in range(p_max + 1)}
    reps = data.representative

    def extend(path: tuple[int, ...]):
        p = len(path) - 1
        if p > p_max:
            return
        out[p].append(PChain(tuple(reps[i] for i in path)))
        for j in edges[path[-1]]:
            extend(path + (j,))

    for i in range(len(reps)):
        extend((i,))
    for p in out:
        out[p].sort(key=lambda ch: tuple(data.class_of[r] for r in ch.reps))
    return out


# -- bisets ------------------------------------------------------------


class ChainBiset:
    """S(chain): strings of non-isomorphisms along the chain, modulo the
    middle automorphism actions, with the residual left aut(c_p)- and
    right aut(c_0)-actions.

    Elements are the least strings (phi_0, ..., phi_{p-1}) of their
    orbits, phi_i: rep_i -> rep_{i+1}, found by ``_least_string`` with the
    automorphisms of c_1, ..., c_{p-1} as moves; c_0 and c_p stay fixed.
    ``index`` maps every string to the position of its class.
    """

    def __init__(self, cat: FiniteCategory, chain: PChain):
        if chain.p < 1:
            raise ValueError("chain_biset needs p >= 1")
        self.cat = cat
        self.chain = chain
        reps = chain.reps
        p = chain.p
        noniso_out, iso_out = cat._noniso_graph
        compose = cat.compose_table
        factor_sets = [noniso_out[reps[i]].get(reps[i + 1], []) for i in range(p)]
        moves = [[(a, ainv) for a, ainv in iso_out[c] if cat.tgt(a) == c] for c in reps[1:-1]]
        moves.append(iso_out[reps[-1]][:1])
        fixed_c0 = {cat.identity[reps[0]]}
        least = {s: _least_string(compose, s, fixed_c0, moves) for s in product(*factor_sets)}
        self.elements = sorted(set(least.values()))
        position = {s: k for k, s in enumerate(self.elements)}
        self.index = {s: position[t] for s, t in least.items()}

    def size(self) -> int:
        return len(self.elements)

    def left_act(self, a: str, k: int) -> int:
        """Class of a . s for a in aut(c_p)."""
        s = list(self.elements[k])
        s[-1] = self.cat.compose(a, s[-1])
        return self.index[tuple(s)]

    def right_act(self, k: int, a: str) -> int:
        """Class of s . a for a in aut(c_0)."""
        s = list(self.elements[k])
        s[0] = self.cat.compose(s[0], a)
        return self.index[tuple(s)]


def chain_biset(cat: FiniteCategory, chain: PChain) -> ChainBiset:
    return ChainBiset(cat, chain)


# -- tilde nerve -------------------------------------------------------


class NerveCell:
    """Non-degenerate p-simplices of the tilde nerve of src|C|tgt.

    A diagram is (alpha, (phi_0, ..., phi_{p-1}), beta) with alpha:
    src -> c_0, beta: c_p -> tgt and no interior phi_i an isomorphism;
    classes are orbits under objectwise isomorphisms, each named by its
    least diagram in the lexicographic order on (alpha, phi_0, ..., beta).

    A move u: c_i -> c_i' changes only the two morphisms beside c_i, so the
    least diagram of an orbit is fixed one position at a time: the moves at
    c_i that reach the least prefix (a stabiliser coset, one move when the
    category is left-free) are extended over the moves at c_{i+1}.  The
    moves at c are ``iso_out[c]`` of the category's cached
    ``_noniso_graph``, the identity first; src and tgt never move.

    The classes are found by a depth-first walk over the non-isomorphisms
    of the same cached graph.  A walk starts at an object c_0 with
    mor(src, c_0) nonempty and steps only to objects with a morphism to
    tgt, so every walk ends at a c_p with mor(c_p, tgt) nonempty; by
    composition no string outside these walks carries a diagram.  A prefix
    is dropped as soon as some move makes it smaller, and the diagrams that
    survive to the end are exactly the orbit minima.  ``class_of`` finds
    the least diagram of its argument on first use and keeps the answer.
    """

    def __init__(self, cat: FiniteCategory, p: int, src: str, tgt: str):
        self.cat = cat
        self.p = p
        self.src = src
        self.tgt = tgt
        noniso_out, iso_out = cat._noniso_graph
        hom = cat.hom
        compose = cat.compose_table
        fixed_tgt = iso_out[tgt][:1]
        src_out = [(b, hom[(src, b)]) for b in cat.objects]
        found = []

        def walk(string, c, stab):
            # string runs from src to c; stab holds u^-1 for the moves u at c
            # that leave it as it is
            if len(string) > p:
                for f in hom[(c, tgt)]:
                    if _least_step(compose, f, stab, fixed_tgt)[0] == f:
                        found.append((string[0], string[1:], f))
                return
            for b, fs in noniso_out[c].items() if string else src_out:
                if hom[(b, tgt)]:
                    moves = iso_out[b]
                    for f in fs:
                        least, stab2 = _least_step(compose, f, stab, moves)
                        if least == f:
                            walk(string + (f,), b, stab2)

        walk((), src, {cat.identity[src]})
        self.classes = sorted(found)
        self._class = {}

    def _objects_of(self, alpha, phis, beta):
        cat = self.cat
        objs = [cat.tgt(alpha)]
        for f in phis:
            objs.append(cat.tgt(f))
        return objs

    def size(self) -> int:
        return len(self.classes)

    def class_of(self, diagram: tuple) -> int:
        k = self._class.get(diagram)
        if k is None:
            least = self._least(diagram)
            k = bisect_left(self.classes, least)
            if k == len(self.classes) or self.classes[k] != least:
                raise KeyError(diagram)
            self._class[diagram] = k
        return k

    def _least(self, diagram: tuple) -> tuple:
        """The least diagram in the orbit of diagram."""
        cat = self.cat
        iso_out = cat._noniso_graph[1]
        alpha, phis, beta = diagram
        moves = [iso_out[cat.tgt(f)] for f in (alpha, *phis)]
        moves.append(iso_out[self.tgt][:1])
        least = _least_string(cat.compose_table, (alpha, *phis, beta),
                              {cat.identity[self.src]}, moves)
        return (least[0], least[1:-1], least[-1])

    def chain_key(self, k: int) -> tuple[int, ...]:
        """Iso classes of the interior objects of class k."""
        data = self.cat.iso_classes()
        alpha, phis, beta = self.classes[k]
        objs = self._objects_of(alpha, phis, beta)
        return tuple(data.class_of[c] for c in objs)


def _least_step(compose: dict, f: str, stab, moves) -> tuple[str, set]:
    """(least, stab'): the least u o f o v^-1 over v^-1 in stab and (u,
    u^-1) in moves, and the u^-1 of the moves u that reach it."""
    least, out = None, set()
    for vinv in stab:
        x = compose[(f, vinv)]
        for u, uinv in moves:
            y = compose[(u, x)]
            if least is None or y < least:
                least, out = y, {uinv}
            elif y == least:
                out.add(uinv)
    return least, out


def _least_string(compose: dict, string, stab, moves) -> tuple:
    """The least string in the orbit of string under f_i -> u o f_i o v^-1,
    where (u, u^-1) runs over moves[i], the moves at the target of f_i, and
    v is the move at its source (v^-1 in stab for f_0).  Each position in
    turn takes its least value over the moves that keep the prefix least
    (see ``NerveCell``)."""
    out = []
    for f, m in zip(string, moves):
        least, stab = _least_step(compose, f, stab, m)
        out.append(least)
    return tuple(out)


def nd_tilde_nerve(cat: FiniteCategory, p: int, src: str, tgt: str) -> NerveCell:
    return NerveCell(cat, p, src, tgt)


class NerveCache:
    """nerve(p, src, tgt): the cell nd_tilde_nerve(cat, p, src, tgt), built
    on first use and kept."""

    def __init__(self, cat: FiniteCategory):
        self.cat = cat
        self._cells: dict[tuple[int, str, str], NerveCell] = {}

    def __call__(self, p: int, src: str, tgt: str) -> NerveCell:
        key = (p, src, tgt)
        if key not in self._cells:
            self._cells[key] = nd_tilde_nerve(self.cat, p, src, tgt)
        return self._cells[key]


def face(cat: FiniteCategory, diagram: tuple, i: int):
    """i-th face of a non-degenerate diagram; None when it degenerates."""
    alpha, phis, beta = diagram
    p = len(phis)
    if not 0 <= i <= p:
        raise IndexError(f"face index {i} out of range for p={p}")
    if i == 0:
        return (cat.compose(phis[0], alpha), phis[1:], beta)
    if i == p:
        return (alpha, phis[:-1], cat.compose(beta, phis[-1]))
    merged = cat.compose(phis[i], phis[i - 1])
    if cat.is_iso(merged):
        return None
    return (alpha, phis[: i - 1] + (merged,) + phis[i + 1 :], beta)


# -- the chain/biset decomposition of the nerve ------------------------


class BalancedTriples:
    """mor(c_p, tgt) x_{aut(c_p)} S x_{aut(c_0)} mor(src, c_0) for one chain.

    For p = 0 this is mor(c_0, tgt) x_{aut(c_0)} mor(src, c_0).  Each class
    maps to a nerve diagram via (beta, s, alpha) -> (alpha, s, beta).
    """

    def __init__(self, cat: FiniteCategory, chain: PChain, src: str, tgt: str,
                 biset: ChainBiset | None = None):
        self.cat = cat
        self.chain = chain
        p = chain.p
        reps = chain.reps
        c0, cp = reps[0], reps[-1]
        betas = cat.hom[(cp, tgt)]
        alphas = cat.hom[(src, c0)]
        if p == 0:
            triples = [(b, None, a) for b in betas for a in alphas]
        else:
            self.biset = biset if biset is not None else ChainBiset(cat, chain)
            left, right = self.biset.left_act, self.biset.right_act
            triples = [
                (b, k, a)
                for b in betas
                for k in range(self.biset.size())
                for a in alphas
            ]
        compose = cat.compose_table
        aut_p = [(u, cat.inverse(u)) for u in cat.aut(cp)]
        aut_0 = [(w, cat.inverse(w)) for w in cat.aut(c0)]
        # each orbit, {(beta o u, u^-1 . s . w, w^-1 o alpha)}, is listed
        # once, from its first triple, and named by its least member
        name: dict = {}
        for t in triples:
            if t in name:
                continue
            b, k, a = t
            if p == 0:
                orbit = {(compose[(b, u)], k, compose[(uinv, a)]) for u, uinv in aut_p}
            else:
                orbit = {
                    (compose[(b, u)], left(uinv, right(k, w)), compose[(winv, a)])
                    for u, uinv in aut_p
                    for w, winv in aut_0
                }
            least = min(orbit)
            for x in orbit:
                name[x] = least
        self.classes = sorted(set(name.values()))
        position = {t: k for k, t in enumerate(self.classes)}
        self.index = {t: position[least] for t, least in name.items()}

    def size(self) -> int:
        return len(self.classes)

    def to_diagram(self, class_idx: int) -> tuple:
        b, k, a = self.classes[class_idx]
        if self.chain.p == 0:
            return (a, (), b)
        return (a, self.biset.elements[k], b)
