"""The cohomology variant: Ext pages from a Cartan-Eilenberg resolution.

With both modules contravariant, the engine builds the row complex
W_p = M (x)_C D_p (nerve bimodule tensored on the second slot; W_p(s) is
the ``spectral.Cell`` over the single summand s, the coequalizer the
homology cells use), splits it through boundaries/cycles/homology
subfunctors, resolves those by the greedy free resolutions and assembles
horseshoe resolutions P(W_p) with a strictly commuting horizontal
differential (the classical construction, realized by exact linear
solving).  The row complex has zero ends: W_{-1} and W_{p_max+1} are the
zero module and d^h is the zero map at both ends, so every column runs the
same steps (Z_0 = W_0, B_{p_max} = 0, and the horseshoe over the empty
resolution of B_{-1} = 0 is P(Z_0) with its augmentation into W_0).  The
double cochain complex is then Hom_C(P(W_p)_q, N), which collapses to sums
of values of N by Yoneda: column p is ``resolve.hom_complex(P(W_p), N)``.

This module only builds that double complex.  ``ExtFilteredComplex`` is a
``spectral.TotalComplex`` with step -1: delta raises degree and the
descending column filtration F^p is the columns p' >= p.  The pages (d_r
of bidegree (+r, 1-r)), the total cohomology and the E_inf-versus-
filtration check are spectral.py's, the same code that computes homology.
E_1^{p,q} = Ext^q(W_p, N) splits as the product over p-chains of
group-level Ext: the Ext oracle on ``e1data.ChainGroupData``'s modules over
the one-object subcategory on the chain's bottom object, run once per
distinct chain datum by ``e1data.chain_oracle``; every p still gets its
own row.  The total cohomology is compared against the Ext oracle too.
"""

from __future__ import annotations

from .catmod import CONTRA, CatModule, VarianceMismatch
from .e1data import chain_oracle
from .fpmod import CanonicalQuotient, FPModule, Subquotient, _ann_columns, induced_map
from .intlin import preimage_basis
from .matrix import Matrix
from .resolve import Resolution, ext, free_resolution, hom_complex, horseshoe, yoneda_matrix
from .spectral import Cell, ConvergenceReport, TotalComplex, compare_with_oracle, spectral_pages


class WModule:
    """W_p = M (x) D_p(-, ??) as a contravariant module: one ``spectral.Cell``
    per object s, over the single summand s, kept for the face maps."""

    def __init__(self, owner: "ExtFilteredComplex", p: int):
        cat = owner.cat
        one = owner.ring.one
        self.cells: dict[str, Cell] = {
            s: Cell.over(owner.M, owner.nerve, p, s) for s in cat.objects
        }
        anns = {s: self.cells[s].module.anns() for s in cat.objects}
        # contravariant: g: s2 -> s acts W(s) -> W(s2) by alpha-precomposition
        action = {
            g: self.cells[s].precompose_map(self.cells[s2], [{(0, g): one}])
            for g, (s2, s) in cat.morphisms.items()
        }
        self.module = CatModule(cat, CONTRA, owner.ring, anns, action, check=False)


def _sub_catmodule(cat, ring, W: CatModule, lattices: dict[str, Matrix]):
    """The submodule functor of W spanned per object by the lattice columns
    and W's relations, as a CatModule plus its per-object Subquotients
    (lift is the inclusion, project expresses a member)."""
    subs = {}
    for s in cat.objects:
        rels = _ann_columns(ring, W.anns[s])
        subs[s] = Subquotient(ring, W.rank(s), lattices[s].hstack(rels), rels)
    return CatModule.from_quotients(cat, CONTRA, ring, subs, W.action, check=False), subs


def _projection(quot: CanonicalQuotient | Subquotient, T: Matrix) -> Matrix:
    """The matrix, on canonical generators, of x -> quot.project(T x)."""
    return Matrix.from_columns(T.ring, [quot.project(v) for v in T.vecs],
                               nrows=quot.module.n_gens)


class ExtFilteredComplex(TotalComplex):
    """Hom_C(P(W_*), N) for a Cartan-Eilenberg resolution P(W_*)."""

    step = -1

    def __init__(self, M: CatModule, N: CatModule, p_max: int | None = None,
                 q_max: int = 4):
        if M.variance != CONTRA or N.variance != CONTRA:
            raise VarianceMismatch("the cohomology pages need both modules contravariant")
        super().__init__(M, N, p_max, q_max)
        cat, ring, top = self.cat, self.ring, self.p_max
        self.W: list[WModule] = [WModule(self, p) for p in range(top + 1)]
        # the row complex with zero ends: row[p] is W_p for -1 <= p <= top + 1
        zero = CatModule(cat, CONTRA, ring, {s: [] for s in cat.objects},
                         {g: Matrix.zeros(ring, 0, 0) for g in cat.morphisms}, check=False)
        row = {-1: zero, **{p: w.module for p, w in enumerate(self.W)}, top + 1: zero}
        # d^h_p: W_p -> W_{p-1} per object for 0 <= p <= top + 1, zero at both ends
        self.dh: list[dict[str, Matrix]] = (
            [{s: Matrix.zeros(ring, 0, row[0].rank(s)) for s in cat.objects}]
            + [{s: self.W[p].cells[s].boundary(self.W[p - 1].cells[s]) for s in cat.objects}
               for p in range(1, top + 1)]
            + [{s: Matrix.zeros(ring, row[top].rank(s), 0) for s in cat.objects}]
        )
        # the boundaries B_p = im d^h_{p+1} and their resolutions, -1 <= p <= top
        B_subs, RB = {}, {}
        for p in range(-1, top + 1):
            B_mod, B_subs[p] = _sub_catmodule(cat, ring, row[p], self.dh[p + 1])
            RB[p] = free_resolution(B_mod, q_max)
        # the cycles, homology and the CE resolution of each column
        self.PW: list[Resolution] = []
        for p in range(top + 1):
            Wp = row[p]
            ker = {s: preimage_basis(self.dh[p][s], _ann_columns(ring, row[p - 1].anns[s]))
                   for s in cat.objects}
            Z_mod, Z_subs = _sub_catmodule(cat, ring, Wp, ker)
            # H = Z / B with B expressed inside Z
            bincl = {s: induced_map(B_subs[p][s], Z_subs[s], Matrix.identity(ring, Wp.rank(s)))
                     for s in cat.objects}
            hquots = {
                s: CanonicalQuotient(ring, Z_mod.rank(s),
                                     _ann_columns(ring, Z_mod.anns[s]).vecs + bincl[s].vecs)
                for s in cat.objects
            }
            H_mod = CatModule.from_quotients(cat, CONTRA, ring, hquots, Z_mod.action,
                                             check=False)
            RH = free_resolution(H_mod, q_max)
            hproj = {s: _projection(hquots[s], Matrix.identity(ring, Z_mod.rank(s)))
                     for s in cat.objects}
            RZ = horseshoe(bincl, hproj, RB[p], RH, Z_mod)
            # 0 -> Z_p -> W_p -> B_{p-1} -> 0
            zincl = {s: Z_subs[s].lifts() for s in cat.objects}
            wproj = {s: _projection(B_subs[p - 1][s], self.dh[p][s]) for s in cat.objects}
            self.PW.append(horseshoe(zincl, wproj, RZ, RB[p - 1], Wp))
        # _rb_sizes[p][q]: the number of RB_p summands at level q, the tail of PW_{p+1}
        self._rb_sizes = [[len(lvl.summands) for lvl in RB[p].levels] for p in range(top)]
        # column p is Hom(PW_p, N); level q is the sum of N(c_i) (Yoneda)
        self._hom = [hom_complex(PW, N) for PW in self.PW]

    # -- the blocks of the total complex ------------------------------------

    def horizontal(self, p: int, q: int) -> Matrix:
        """Hom(delta_{p+1}, N): cell (p, q) -> cell (p+1, q).

        delta: PW_{p+1} -> PW_p sends the RB_p tail summands of PW_{p+1}
        identically onto the leading RB_p summands of PW_p.
        """
        dst_sums = self.PW[p + 1].levels[q].summands  # source of delta
        src_sums = self.PW[p].levels[q].summands      # target of delta
        lead = len(dst_sums) - self._rb_sizes[p][q]
        images = [{} for _ in range(lead)]
        for t, c in enumerate(dst_sums[lead:]):
            if src_sums[t] != c:
                raise AssertionError("CE block misalignment")
            images.append({(t, self.cat.id_of(c)): self.ring.one})
        return yoneda_matrix(self.N, dst_sums, src_sums, images, cochain=True)

    def vertical(self, p: int, q: int) -> Matrix:
        return self._hom[p].diffs[q]

    def block_dim(self, p: int, q: int) -> int:
        return len(self._hom[p].anns[q])

    def block_anns(self, p: int, q: int) -> list:
        return self._hom[p].anns[q]


class ExtReport(ConvergenceReport):
    """The convergence report with the E_1 product-form rows."""

    def __init__(self, band: int, degrees: list[dict], cells: list[dict],
                 e1_rows: list[dict]):
        super().__init__(band, degrees, cells)
        self.e1_rows = e1_rows

    @property
    def all_match(self) -> bool:
        return super().all_match and all(r["match"] for r in self.e1_rows)

    def to_json(self) -> dict:
        return {**super().to_json(), "e1": self.e1_rows}


def ext_pages(M: CatModule, N: CatModule, p_max: int | None = None,
              q_max: int = 4, n_max: int | None = None):
    """Cohomology pages E_0 .. E_inf with d_r of bidegree (+r, 1-r):
    convergence against the Ext oracle and the E_1 product-form
    cross-check."""
    fcx = ExtFilteredComplex(M, N, p_max=p_max, q_max=q_max)
    band = fcx.certified_band() if n_max is None else min(n_max, fcx.certified_band())
    pages = spectral_pages(fcx)
    degrees, cells = compare_with_oracle(fcx, pages[-1], ext(M, N, band), "n")
    ring = fcx.ring
    e1 = pages[1]
    # Ext^q over R[aut(c_0)] of each chain's data, by the Ext oracle over the
    # one-object subcategory, independent of the page machinery
    direct = chain_oracle(fcx, ext, band)
    e1_rows = []
    for p in sorted(fcx.chains):
        for q in range(band + 1):
            total = FPModule(ring, 0)
            for chain in fcx.chains[p]:
                total = total.direct_sum(direct[(p, chain)][q])
            page_entry = e1.entry(p, q)
            e1_rows.append({"p": p, "q": q, "page": page_entry.pretty(),
                            "product_form": total.pretty(),
                            "match": page_entry == total})
    return pages, ExtReport(band, degrees, cells, e1_rows)
