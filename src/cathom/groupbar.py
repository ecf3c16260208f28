"""Group-ring Tor via the truncated two-sided bar complex.

C_q = A (x) R[G-e]^(x q) (x) B for a right module A and a left module B:
the normalized bar complex, whose q-tuples avoid the identity e, with the
standard alternating-sum differential.  Dropping the degenerate tuples
changes no homology, because they span an acyclic subcomplex.  Generators
are ordered lexicographically in (A-generator, group tuple, B-generator),
so all presentations are deterministic.  Rank (|G|-1)^q is the intended
cost model for the small automorphism groups this is used on.

Only the isomorphism type of each Tor group is computed.  Over a field,
or over Z when the bar levels carry no annihilators, it comes from the
ranks and invariant factors of the differentials
(``PresentedComplex.homology``, through ``intlin.invariant_factors``),
which shares no code with ``StairBasis``, ``Subquotient`` or
``CanonicalQuotient``; levels with Z-torsion read it off a ``Subquotient``
witness.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .fpmod import FPModule
from .groups import FiniteGroup, group_category
from .matrix import Matrix
from .rings import Ring
from .resolve import PresentedComplex


class GroupModule:
    """A finitely presented module with an action of a finite group.

    act[g] is the matrix of the action of element g on canonical
    generators; side records whether it is a right or left action.
    """

    def __init__(self, ring: Ring, G: FiniteGroup, anns: list, act: list[Matrix], side: str):
        assert side in ("left", "right")
        self.ring = ring
        self.G = G
        self.anns = list(anns)
        self.act = act
        self.side = side

    @property
    def rank(self) -> int:
        return len(self.anns)

    def module(self) -> FPModule:
        free = sum(1 for d in self.anns if not d)
        torsion = tuple(sorted(int(d) for d in self.anns if d))
        return FPModule(self.ring, free, torsion)

    def check(self) -> list[str]:
        out = []
        G = self.G
        ident = self.act[0]
        n = self.rank
        from .catmod import mats_equal_mod

        if not mats_equal_mod(ident, Matrix.identity(self.ring, n), self.anns):
            out.append("identity does not act as identity")
        for a in range(G.n):
            for b in range(G.n):
                ab = G.mul(a, b)
                if self.side == "left":
                    comp = self.act[a] @ self.act[b]
                else:
                    comp = self.act[b] @ self.act[a]
                if not mats_equal_mod(comp, self.act[ab], self.anns):
                    out.append(f"action not a homomorphism at ({a},{b})")
                    return out
        return out


def _tuple_list(G: FiniteGroup, q: int) -> list[tuple[int, ...]]:
    """q-tuples of non-identity elements (the identity is element 0)."""
    return list(product(range(1, G.n), repeat=q))


def bar_complex(A: GroupModule, B: GroupModule, top: int) -> PresentedComplex:
    """The normalized two-sided bar complex up to level ``top``."""
    assert A.side == "right" and B.side == "left"
    assert A.G is B.G or A.G.table == B.G.table
    ring = A.ring
    G = A.G
    anns = []
    gens_per_level = []
    for q in range(top + 1):
        tuples = _tuple_list(G, q)
        gens = [(i, t, j) for i in range(A.rank) for t in tuples for j in range(B.rank)]
        gens_per_level.append(gens)
        if ring.is_field:
            anns.append([ring.zero] * len(gens))
        else:
            anns.append([gcd(A.anns[i], B.anns[j]) for (i, t, j) in gens])
    diffs = []
    z = ring.zero
    for q in range(1, top + 1):
        tgt_index = {g: k for k, g in enumerate(gens_per_level[q - 1])}
        cols = []
        for (i, t, j) in gens_per_level[q]:
            col: dict = {}
            # a.g1 (x) rest
            for r, c in A.act[t[0]].vecs[i].items():
                row = tgt_index[(r, t[1:], j)]
                col[row] = ring.add(col.get(row, z), c)
            # interior multiplications
            sign = ring.one
            for k in range(q - 1):
                sign = ring.neg(sign)
                g = G.mul(t[k], t[k + 1])
                if g == G.e:
                    continue  # a degenerate face, zero in the normalized complex
                merged = t[:k] + (g,) + t[k + 2 :]
                row = tgt_index[(i, merged, j)]
                col[row] = ring.add(col.get(row, z), sign)
            # last (x) g_q . b
            sign = ring.neg(sign)
            for r, c in B.act[t[-1]].vecs[j].items():
                row = tgt_index[(i, t[:-1], r)]
                col[row] = ring.add(col.get(row, z), ring.mul(sign, c))
            cols.append({row: x for row, x in col.items() if x})
        diffs.append(Matrix.from_columns(ring, cols, len(gens_per_level[q - 1])))
    return PresentedComplex(ring, anns, diffs, 1)


def _tor_by_resolution(A: GroupModule, B: GroupModule, q_max: int) -> list[FPModule]:
    from .catmod import CO, CONTRA, CatModule
    from .resolve import free_resolution, tensor_complex

    cat = group_category(A.G)
    a_mod = CatModule(cat, CONTRA, A.ring, {"*": A.anns},
                      {f"g{i}": A.act[i] for i in range(A.G.n)}, check=False)
    b_mod = CatModule(cat, CO, B.ring, {"*": B.anns},
                      {f"g{i}": B.act[i] for i in range(B.G.n)}, check=False)
    res = free_resolution(a_mod, q_max + 1)
    cx = tensor_complex(res, b_mod)
    return [cx.homology(q) for q in range(q_max + 1)]


def group_tor(A: GroupModule, B: GroupModule, q_max: int) -> list[FPModule]:
    """Tor_q^{R[G]}(A, B) for q <= q_max.

    The truncated two-sided bar complex is used whenever one argument is
    free over the coefficient ring (always over a field); it is not a
    resolution when both sides carry R-torsion, so that case falls back
    to an honest free R[G]-resolution of A.
    """
    ring = A.ring
    if (
        ring.is_field
        or all(not d for d in A.anns)
        or all(not d for d in B.anns)
    ):
        cx = bar_complex(A, B, q_max + 1)
        return [cx.homology(q) for q in range(q_max + 1)]
    return _tor_by_resolution(A, B, q_max)


def trivial_group_module(ring: Ring, G: FiniteGroup, side: str) -> GroupModule:
    return GroupModule(ring, G, [ring.zero], [Matrix.identity(ring, 1)] * G.n, side)
