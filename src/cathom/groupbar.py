"""Group-ring Tor via the truncated two-sided bar complex.

C_q = A (x) R[G-e]^(x q) (x) B for a right module A and a left module B:
the normalized bar complex, whose q-tuples avoid the identity e, with the
standard alternating-sum differential.  Both modules are ``CatModule``s
over one one-object category whose automorphism group is G: A is
contravariant (x.g = A(g) x) and B covariant (g.y = B(g) y).  The group
table and the element order (the identity first, then hom order) come
from ``groups.group_from_aut``, so the inner loop runs on ints.
Dropping the degenerate tuples changes no homology, because they span an
acyclic subcomplex.  Generators are ordered lexicographically in
(A-generator, group tuple, B-generator), so all presentations are
deterministic.  Rank (|G|-1)^q is the intended cost model for the small
automorphism groups this is used on.

Only the isomorphism type of each Tor group is computed.  Over a field,
or over Z when the bar levels carry no annihilators, it comes from the
ranks and invariant factors of the differentials
(``PresentedComplex.homology``, through ``intlin.invariant_factors``),
which shares no code with ``StairBasis``, ``Subquotient`` or
``CanonicalQuotient``; levels with Z-torsion read it off a ``Subquotient``
witness.  When both sides carry Z-torsion the bar complex is no
resolution, and ``group_tor`` calls the category-level oracle
``resolve.tor`` on the same two modules.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .catmod import CO, CONTRA, CatModule, VarianceMismatch
from .fpmod import FPModule
from .groups import group_from_aut
from .matrix import Matrix
from .resolve import PresentedComplex, tor


def bar_complex(A: CatModule, B: CatModule, top: int) -> PresentedComplex:
    """The normalized two-sided bar complex up to level ``top``, for A
    contravariant (the right module) and B covariant (the left module)
    over one one-object category."""
    if A.variance != CONTRA or B.variance != CO:
        raise VarianceMismatch("the bar complex needs A contravariant, B covariant")
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
    # plain + and * from ring.zero (a Fraction over Q), reduced mod p once
    # per column over F_p, as in Matrix.apply
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
    return PresentedComplex(ring, anns, diffs, 1)


def group_tor(A: CatModule, B: CatModule, q_max: int) -> list[FPModule]:
    """Tor_q^{R[G]}(A, B) for q <= q_max, for A contravariant and B
    covariant over one one-object category with automorphism group G.

    The truncated two-sided bar complex is used whenever one argument is
    free over the coefficient ring (always over a field); it is not a
    resolution when both sides carry R-torsion, so that case falls back
    to ``resolve.tor``, an honest free R[G]-resolution of A.
    """
    (obj,) = A.cat.objects
    if A.ring.is_field or not any(A.anns[obj]) or not any(B.anns[obj]):
        cx = bar_complex(A, B, q_max + 1)
        return [cx.homology(q) for q in range(q_max + 1)]
    return tor(A, B, q_max)
