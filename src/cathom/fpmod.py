"""Finitely presented modules in canonical invariant-factor form.

An FPModule value is the canonical form (free rank, invariant factors > 1).
CanonicalQuotient and Subquotient carry the witness data (projection and
lifts) needed to push maps through quotients, which is what the homology
and spectral-page machinery is built on.  Vectors in and out of them are
the zero-free {index: value} dicts of ``matrix``, relations included, and
generator sets are matrix columns.  ``_mod_anns`` is the one reduction of
a vector modulo the diagonal relations of a canonical presentation: it
gives ``CanonicalQuotient.project`` and the action matrices of
``catmod.CatModule`` their canonical entries.  A quotient whose relations
already span the whole ambient lattice is the zero module without an SNF.
``presented_homology`` is the one homology at a spot A -> B -> C of
presented modules, with witnesses; ``resolve.PresentedComplex`` reads a
whole complex through it.  ``is_exact`` is the one test of exactness:
that homology is zero.
"""

from __future__ import annotations

from .intlin import ColumnOps, StairBasis, preimage_basis, smith_normal_form
from .matrix import DimensionMismatch, Matrix, _axpy
from .rings import Ring


class NotASubmodule(ValueError):
    pass


class FPModule:
    """Canonical form of a finitely generated module over Z, Q or F_p."""

    __slots__ = ("ring", "free_rank", "torsion")

    def __init__(self, ring: Ring, free_rank: int, torsion: tuple[int, ...] = ()):
        if ring.is_field and torsion:
            raise ValueError("no torsion over a field")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must divide: {torsion}")
        if any(d <= 1 for d in torsion):
            raise ValueError(f"invariant factors must exceed 1: {torsion}")
        self.ring = ring
        self.free_rank = free_rank
        self.torsion = tuple(torsion)

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def n_gens(self) -> int:
        return self.free_rank + len(self.torsion)

    def anns(self) -> list[int]:
        """Per-generator annihilators: 0 for free generators."""
        return [0] * self.free_rank + list(self.torsion)

    def direct_sum(self, other: "FPModule") -> "FPModule":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        merged = sorted(self.torsion + other.torsion)
        # restore the divisibility chain via pairwise lcm/gcd sweeps
        merged = _divisibility_chain(merged)
        return FPModule(self.ring, self.free_rank + other.free_rank, tuple(merged))

    def __eq__(self, other):
        return (
            isinstance(other, FPModule)
            and self.ring == other.ring
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.ring, self.free_rank, self.torsion))

    def __repr__(self):
        return f"FPModule({self.ring}, {self.pretty()})"

    def pretty(self) -> str:
        sym = {"Z": "Z", "Q": "Q"}.get(self.ring.kind, f"F{getattr(self.ring, 'p', '?')}")
        parts = []
        if self.free_rank == 1:
            parts.append(sym)
        elif self.free_rank > 1:
            parts.append(f"{sym}^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _divisibility_chain(factors: list[int]) -> list[int]:
    """Rewrite a multiset of torsion orders as a divisibility chain."""
    from math import gcd

    factors = [d for d in factors if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                g = gcd(a, b)
                l = a * b // g
                if (g, l) != (a, b) and (g, l) != (b, a):
                    factors[i], factors[j] = g, l
                    changed = True
        factors = [d for d in factors if d > 1]
        factors.sort()
    return factors


class CanonicalQuotient:
    """R^n modulo a lattice of relation vectors, with projection and
    generator lifts.

    The relations go into a staircase one by one.  Once it has rank n and
    unit pivots it is all of R^n, so the rest are not read and SNF is not
    called: the quotient is zero."""

    def __init__(self, ring: Ring, ambient: int, relations: list[dict]):
        self.ring = ring
        self.ambient = ambient
        basis = StairBasis(ring, ambient)
        one = ring.one
        whole = ambient == 0
        for vec in relations:
            # a full staircase with unit pivots is all of R^n: no later
            # relation can change it
            if (basis.add(vec) and basis.rank == ambient
                    and all(row[c] == one for c, row in basis.pivots.items())):
                whole = True
                break
        if whole:
            # the zero module: no generators, so nothing for SNF to find
            self._kept = []
            self.module = FPModule(ring, 0)
            self._anns = []
            self._proj = Matrix.zeros(ring, 0, ambient)
            return
        # the relations' staircase basis as the columns SNF diagonalizes
        snf = smith_normal_form(Matrix.from_columns(ring, basis.basis(), ambient))
        diag = snf.diagonal()
        n = ambient
        k = len(diag)
        anns = []
        for i in range(n):
            d = diag[i] if i < k else ring.zero
            anns.append(d)
        free_idx = [i for i in range(n) if anns[i] == ring.zero]
        if ring.is_field:
            tors_idx = []
        else:
            tors_idx = [i for i in range(n) if anns[i] not in (ring.zero, one)]
            tors_idx.sort(key=lambda i: (anns[i], i))
        self._kept = free_idx + tors_idx
        torsion = tuple(int(anns[i]) for i in tors_idx)
        self.module = FPModule(ring, len(free_idx), torsion)
        self._anns = self.module.anns()
        # the kept rows of U, renumbered as canonical coordinates
        pos = {i: t for t, i in enumerate(self._kept)}
        self._proj = Matrix.from_columns(
            ring,
            [{pos[i]: x for i, x in col.items() if i in pos} for col in snf.U.vecs],
            len(self._kept),
        )
        self._Uinv = snf.Uinv

    def project(self, vec: dict) -> dict:
        """Canonical coordinates of the class of an ambient vector."""
        w = self._proj.apply(vec)
        return _mod_anns(w, self._anns) if self.module.torsion else w

    def lift(self, j: int) -> dict:
        """An ambient representative of canonical generator j (shared:
        callers must not change it)."""
        return self._Uinv.vecs[self._kept[j]]


class Subquotient:
    """(span Z)/(span B) inside an ambient free module, with witnesses.

    Generators are given as matrix columns.  Raises NotASubmodule when the
    B-span is not contained in the Z-span.
    """

    def __init__(self, ring: Ring, ambient: int, gens_Z: Matrix, gens_B: Matrix):
        if gens_Z.cols and gens_Z.rows != ambient:
            raise DimensionMismatch("Z-generator length != ambient rank")
        if gens_B.cols and gens_B.rows != ambient:
            raise DimensionMismatch("B-generator length != ambient rank")
        self.ring = ring
        self.ambient = ambient
        zbasis = StairBasis(ring, ambient)
        for vec in gens_Z.vecs:
            zbasis.add(vec)
        self._zbasis = zbasis
        self._zcols = zbasis.pivot_cols()
        self._zpos = {c: t for t, c in enumerate(self._zcols)}
        rels = []
        for j, vec in enumerate(gens_B.vecs):
            coeffs = zbasis.express(vec)
            if coeffs is None:
                raise NotASubmodule(f"B-generator {j} is not in the Z-span")
            rels.append({self._zpos[c]: x for c, x in coeffs.items()})
        self._quot = CanonicalQuotient(ring, zbasis.rank, rels)
        self.module = self._quot.module

    def project(self, vec: dict) -> dict:
        coeffs = self._zbasis.express(vec)
        if coeffs is None:
            raise NotASubmodule("vector is not in the Z-span")
        zpos = self._zpos
        return self._quot.project({zpos[c]: x for c, x in coeffs.items()})

    def lift(self, j: int) -> dict:
        out: dict = {}
        for t, coeff in self._quot.lift(j).items():
            _axpy(self.ring, out, self._zbasis.pivots[self._zcols[t]], coeff)
        return out

    def lifts(self) -> Matrix:
        return Matrix.from_columns(
            self.ring, [self.lift(j) for j in range(self.module.n_gens)], nrows=self.ambient
        )


def subquotient(ambient_rank: int, gens_Z: Matrix, gens_B: Matrix) -> Subquotient:
    """The module (span Z)/(span B) in canonical form with witnesses."""
    if gens_Z.ring != gens_B.ring:
        raise DimensionMismatch("ring mismatch between generator sets")
    return Subquotient(gens_Z.ring, ambient_rank, gens_Z, gens_B)


def _ann_columns(ring: Ring, anns: list) -> Matrix:
    """The relation vectors d e_i of a diagonal presentation, one column
    for each nonzero annihilator d, in order."""
    return Matrix.from_columns(ring, [{i: d} for i, d in enumerate(anns) if d], len(anns))


def _mod_anns(vec: dict, anns: list) -> dict:
    """vec with entry i reduced modulo the annihilator anns[i] (0: none),
    zeros dropped: one canonical representative of its class over Z."""
    return {i: y for i, y in ((i, x % anns[i] if anns[i] else x) for i, x in vec.items()) if y}


def presented_homology(
    d_out: Matrix,
    d_in: Matrix,
    anns_here: list,
    anns_next: list,
) -> Subquotient:
    """Homology at B of A -> B -> C for presented modules.

    The modules carry diagonal annihilators (canonical presentations);
    anns_here are B's, anns_next are C's.  Cycles are the preimage of C's
    relation lattice, boundaries are im(d_in) plus B's relations.
    """
    ring = d_out.ring
    ann_C = _ann_columns(ring, anns_next)
    cycles = preimage_basis(d_out, ann_C)
    bounds = d_in.hstack(_ann_columns(ring, anns_here))
    return Subquotient(ring, d_out.cols, cycles, bounds)


def is_exact(d_out: Matrix, d_in: Matrix, anns_here: list, anns_next: list) -> bool:
    """Whether A -> B -> C is exact at B, for presented modules as in
    ``presented_homology``: its homology is zero.  A composite that is
    nonzero modulo C's relations is not exact."""
    try:
        return presented_homology(d_out, d_in, anns_here, anns_next).module.is_zero()
    except NotASubmodule:
        return False


def induced_map(src: Subquotient | CanonicalQuotient,
                dst: Subquotient | CanonicalQuotient, T: Matrix) -> Matrix:
    """Matrix, on canonical generators, of the map induced by the ambient
    map T from src to dst."""
    cols = []
    for j in range(src.module.n_gens):
        cols.append(dst.project(T.apply(src.lift(j))))
    return Matrix.from_columns(src.ring, cols, nrows=dst.module.n_gens)


def solve_mod(A: Matrix, anns_target: list, b: dict) -> dict | None:
    """Some x with A x = b modulo the diagonal annihilator lattice."""
    aug = A.hstack(_ann_columns(A.ring, anns_target))
    sol = ColumnOps(aug).solve(b)
    if sol is None:
        return None
    return {i: x for i, x in sol.items() if i < A.cols}
