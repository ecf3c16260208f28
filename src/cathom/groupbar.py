"""Group-ring Tor via the Morse-reduced, truncated two-sided bar complex.

C_q = A (x) R[G-e]^(x q) (x) B for a right module A and a left module B:
the normalized bar complex, whose q-tuples avoid the identity e, with the
standard alternating-sum differential.  Both modules are ``CatModule``s
over one one-object category whose automorphism group is G: A is
contravariant (x.g = A(g) x) and B covariant (g.y = B(g) y).  The group
table and the element order (the identity first, then hom order) come
from ``groups.group_from_aut``, so the inner loop runs on ints.
Dropping the degenerate tuples changes no homology, because they span an
acyclic subcomplex.

``bar_complex`` returns this complex reduced by one acyclic matching
(algebraic Morse theory: Skoldberg, Trans. AMS 358 (2006); Joellenbeck
and Welker, Mem. AMS 197 (2009)).  X takes each element, in element
order, that the earlier ones do not generate; l is the word length under
left multiplication by X, and each h with l(h) >= 2 has one factorization
h = x(h).y(h) with x(h) in X and l(y(h)) = l(h) - 1.  The cell
(i, [h | rest], j) with l(h) >= 2 is matched with (i, [x(h) | y(h) | rest],
j), whose first interior face it is, with coefficient -1: a unit over
every ring, and an isomorphism of the cyclic summands R/(gcd(a_i, b_j)),
since i and j are the same.  Only d0 faces lead from a matched cell on to
another, and l of their first letter falls by one, so the matching is
acyclic.  The critical cells are [] at level 0, [x] with x in X at level
1, and [x | y | rest] with x in X and (x, y) no factorization pair at
level q >= 2: (|X||G| - (|G|-1)) (|G|-1)^(q-2) per pair (i, j), in place
of (|G|-1)^q.  The Morse differential is read off the faces alone, by a
memo local to each level and each call, so the reduction uses no
``StairBasis``, ``Subquotient`` or ``CanonicalQuotient`` and the oracle
stays independent of the page engine.  Cells are ordered
lexicographically in (A-generator, group tuple, B-generator), so all
presentations are deterministic.  Columns and Morse images are summed
with plain + in tight loops and made canonical once per vector by
``matrix._canonical``, the tail of ``Matrix.apply``.

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
from .groups import FiniteGroup, group_from_aut
from .matrix import Matrix, _canonical
from .resolve import PresentedComplex, tor


def generators_and_splits(G: FiniteGroup) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """The generators X of the matching, and split[h] = (x(h), y(h)) for
    every h of word length l(h) >= 2, with l found breadth-first from e
    (see the module docstring)."""
    X: list[int] = []
    span = frozenset([G.e])
    for g in range(G.n):
        if g not in span:
            X.append(g)
            span = G.subgroup_closure(X)
    length = {G.e: 0}
    split = {}
    queue = [G.e]
    for y in queue:
        for x in X:
            h = G.mul(x, y)
            if h not in length:
                length[h] = length[y] + 1
                queue.append(h)
                if length[h] >= 2:
                    split[h] = (x, y)
    return X, split


def bar_complex(A: CatModule, B: CatModule, top: int) -> PresentedComplex:
    """The Morse reduction of the normalized two-sided bar complex, up to
    level ``top``, for A contravariant (the right module) and B covariant
    (the left module) over one one-object category: its critical cells
    and the Morse differential between them."""
    if A.variance != CONTRA or B.variance != CO:
        raise VarianceMismatch("the bar complex needs A contravariant, B covariant")
    (obj,) = A.cat.objects
    G, elems = group_from_aut(A.cat, obj)
    X, split = generators_and_splits(G)
    ring = A.ring
    a_anns, b_anns = A.anns[obj], B.anns[obj]
    a_act = [A.act(g) for g in elems]
    b_act = [B.act(g) for g in elems]
    z = ring.zero  # sums start from it: a Fraction over Q

    def faces(i, t, j):
        """(cell, coefficient) for every face of the cell (i, t, j)."""
        for r, c in a_act[t[0]].vecs[i].items():  # a.g1 (x) rest
            yield (r, t[1:], j), c
        sign = 1
        for k in range(len(t) - 1):  # interior multiplications
            sign = -sign
            g = G.mul(t[k], t[k + 1])
            if g != G.e:  # a degenerate face is zero in the normalized complex
                yield (i, t[:k] + (g,) + t[k + 2 :], j), sign
        for r, c in b_act[t[-1]].vecs[j].items():  # last (x) g_q . b
            yield (i, t[:-1], r), -sign * c

    nonid = range(1, G.n)
    gens_per_level = []
    for q in range(top + 1):
        if q < 2:
            tuples = [(x,) for x in X] if q else [()]
        else:
            tuples = [(x, y) + t for x in X for y in nonid if split.get(G.mul(x, y)) != (x, y)
                      for t in product(nonid, repeat=q - 2)]
        gens_per_level.append([(i, t, j) for i in range(len(a_anns)) for t in tuples
                               for j in range(len(b_anns))])
    if ring.is_field:
        anns = [[z] * len(gens) for gens in gens_per_level]
    else:
        anns = [[gcd(a_anns[i], b_anns[j]) for (i, t, j) in gens] for gens in gens_per_level]

    diffs = []
    for q in range(1, top + 1):
        index = {g: k for k, g in enumerate(gens_per_level[q - 1])}
        memo: dict = {}

        def image(cell) -> dict:
            """The cell's image on the critical cells of its level: itself
            when critical, 0 when matched down, and for a cell matched up
            the other faces of its partner, whose own face is -1 times it."""
            if cell in memo:
                return memo[cell]
            i, t, j = cell
            vec: dict = {}
            if cell in index:
                vec[index[cell]] = ring.one
            elif t and t[0] in split:
                own = 0
                for face, c in faces(i, split[t[0]] + t[1:], j):
                    if face == cell:
                        own += c
                        continue
                    for k, x in image(face).items():
                        vec[k] = vec.get(k, z) + c * x
                if own != -1:
                    raise AssertionError(f"bar cell {cell} meets its partner with {own}, not -1")
                vec = _canonical(ring, vec)
            memo[cell] = vec
            return vec

        cols = []
        for (i, t, j) in gens_per_level[q]:
            col: dict = {}
            for face, c in faces(i, t, j):
                for k, x in image(face).items():
                    col[k] = col.get(k, z) + c * x
            cols.append(_canonical(ring, col))
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
