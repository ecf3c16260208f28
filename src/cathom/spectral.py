"""The chain-indexed spectral sequence engine.

The engine computes pages from an explicit filtered double complex: the
cellular bimodule complex of the two-sided tilde nerve is tensored with a
contravariant module M (honest coequalizer, in which a unit move merges
two raw generators into one named by the lesser) and with a free
resolution Q of the covariant module N (collapsed by co-Yoneda, so the
vertical direction is indexed by the resolution's free summands).

Sign convention: horizontal differential = alternating sum of nerve face
maps; vertical = (-1)^p times the resolution differential.  Degenerate
faces map to zero (normalized chains).  ``Cell.boundary`` is the one
alternating face sum.

The bimodule complex D_*(s, t) is not built on its own: by co-Yoneda it
is the cell over the representable R mor(-, t), ``Cell.over(R mor(-, t),
nerve, p, s)``, and its homology is R mor(s, t) in degree 0 and zero
above.  So the tests check the resolution property on the cells that
every page runs.

The filtered complex is a direct sum twice over, and the cells use both
splits.  A ``Block`` is M (x)_C D_p(b, -) for one object b, in local
indices: its raw generators, annihilator rows and coequalizer rows, built
by one coequalizer loop.  ``Cell`` is the only nerve-tensor cell, the join
of one block per summand b with index offsets.  ``FilteredComplex`` builds
each (p, b) block once, and its cells over the summands of Q_q share them;
``extpages.WModule`` builds one single-summand cell per object
(``Cell.over``).  No coequalizer relation crosses two p-chains, so each
block splits by chain key in one pass (``Block.chains``), and
``Cell.restrict``, which ``e1data.ChainColumn`` uses, joins the blocks'
parts of one chain.  All cells map between each other through
``Cell.map_to``, with the nerve face and the alpha-leg precomposition
written once each (``face_map``, ``precompose_map``).

This module is the only page engine.  ``TotalComplex`` holds the total
complex of a double complex and its column filtration; its class constant
``step`` says which way the arrows run.  ``FilteredComplex`` (homology,
step +1: D lowers degree, F_p is the columns p' <= p) and
``extpages.ExtFilteredComplex`` (cohomology, step -1: delta raises degree,
F^p is the columns p' >= p) share the set-up of ``TotalComplex.__init__``,
build their blocks on demand and plug into the same cycle bases, pages,
total (co)homology and E^inf-versus-filtration comparison.  The complex
owns one memo per computed object, which lives and is freed with it.  Its
cycle groups (``TotalComplex.cycles``) are keyed by the restricted
differential each one solves, so each is solved once and is one object;
the pages, the total (co)homology and the filtration comparison all read
them.  Its page entries are keyed by their input: ``page_entry`` builds
one entry E^r_{p,q}, the ``Subquotient`` of its generators, once per
distinct input, so a page that has stabilised shares its entries with the
page before, and a caller that reads single entries, such as
``e1data.verify_e1``, reads the pages' own.  ``spectral_page`` builds one
page, its entries and d^r; ``spectral_pages`` maps it over r and gives
each page the page before.  Since E^r = H(E^{r-1}, d^{r-1}) (McCleary, A
User's Guide to Spectral Sequences, Thm 2.6), E^r_{p,q} is zero where
E^{r-1}_{p,q} is, and where E^{r-1} is exact at (p, q); such an entry is
read off the page before as the one zero entry of its ambient size, with
no cycle kernel and no SNF.  The exactness test runs from E^1 on: E^1 is
the vertical homology of E^0, which the test seldom finds zero.
``compare_with_oracle`` is the one comparison of total (co)homology with
an oracle, the Tor oracle for ``converge_and_compare`` and the Ext oracle
for ``extpages.ext_pages``.

The chain-summand identifications (E^1 via group-ring Tor) and the d^1
component decomposition live in e1data.py; this module owns the filtered
complex, the pages, the convergence check and the two-column long exact
sequence.
"""

from __future__ import annotations

from functools import cached_property

from .catmod import CO, CONTRA, CatModule, VarianceMismatch
from .fincat import NerveCache, chain_bound, enumerate_chains, face
from .fpmod import (
    CanonicalQuotient,
    FPModule,
    Subquotient,
    _ann_columns,
    induced_map,
    is_exact,
)
from .intlin import preimage_basis
from .matrix import Matrix, _sum_terms
from .resolve import PresentedComplex, Resolution, free_resolution, tor
from .rings import Ring


class NotTwoColumn(Exception):
    pass


# -- merged coequalizer quotients -----------------------------------------


class MergedQuotient:
    """Quotient of a free module by relations.  A two-term unit relation
    (e_u = e_v) merges two raw generators instead of becoming a row; each
    merged generator is named by the least raw generator it holds."""

    def __init__(self, ring: Ring, n_raw: int, sparse_rows: list[dict]):
        self.ring = ring
        self.n_raw = n_raw
        # a forest on the raw generators whose roots are the least members
        # of their classes, so parent[u] <= u
        parent = list(range(n_raw))

        def root(u):
            r = u
            while parent[r] != r:
                r = parent[r]
            while parent[u] != r:
                parent[u], u = r, parent[u]
            return r

        kept = []
        one = ring.one
        neg_one = ring.neg(one)
        for row in sparse_rows:
            if len(row) == 2:
                (u, cu), (v, cv) = sorted(row.items())
                if (cu, cv) in ((one, neg_one), (neg_one, one)):
                    ru, rv = root(u), root(v)
                    if ru < rv:
                        parent[rv] = ru
                    elif rv < ru:
                        parent[ru] = rv
                    continue
            kept.append(row)  # an empty row is no relation: the staircase skips it
        # in increasing order the parent of u is already numbered
        self._raw_rep = []
        self._rep_of_raw = []
        for u, r in enumerate(parent):
            if r == u:
                self._rep_of_raw.append(len(self._raw_rep))
                self._raw_rep.append(u)
            else:
                self._rep_of_raw.append(self._rep_of_raw[r])
        rep = self._rep_of_raw
        self.quot = CanonicalQuotient(ring, len(self._raw_rep), [
            _sum_terms(ring, [(rep[u], c) for u, c in row.items()]) for row in kept])
        self.module = self.quot.module

    def project_raw(self, terms) -> dict:
        """Canonical coordinates of the class of the sum of c e_u over the
        (raw generator u, c) terms, such as a raw vector's items()."""
        rep = self._rep_of_raw
        return self.quot.project(_sum_terms(self.ring, [(rep[u], c) for u, c in terms]))

    def lift(self, j: int) -> dict:
        """A raw-coordinate representative of canonical generator j."""
        return {self._raw_rep[m]: c for m, c in self.quot.lift(j).items()}


# -- the total complex -------------------------------------------------------


class TotalComplex:
    """The total complex of a double complex A_{p,q} (0 <= p <= p_max,
    0 <= q <= q_max), filtered by columns.

    ``step`` is the direction of the arrows, fixed by the subclass.  For
    step = +1 the horizontal block maps (p, q) to (p-1, q), the vertical
    block (p, q) to (p, q-1), and F_p is the blocks with p' <= p.  For
    step = -1 every arrow is reversed and F^p is the blocks with p' >= p.
    In both, D_n: T_n -> T_{n-step} is horizontal + (-1)^p vertical.

    ``__init__`` does the set-up both subclasses share (the ring check, M,
    N, the column range, the p-chains and the nerve cache).  Subclasses
    check the variances, call it, and provide ``block_dim(p, q)``,
    ``block_anns(p, q)``, ``horizontal(p, q)`` and ``vertical(p, q)``; the
    last two build a block on demand, as ``total_diff`` keeps each degree.

    Beside the total differentials (``_total_cache``), the complex owns one
    memo of its cycle groups (``_cycles``, keyed by the restricted
    differential; see ``cycles``) and one of its page entries
    (``_entries``, keyed by their input; see ``page_entry``), so both live
    exactly as long as the complex.
    """

    step: int

    def __init__(self, M: CatModule, N: CatModule, p_max: int | None, q_max: int):
        if M.ring != N.ring:
            raise VarianceMismatch("M and N have different rings")
        self.cat = M.cat
        self.ring = M.ring
        self.M = M
        self.N = N
        self.p_bound = chain_bound(self.cat)
        self.p_max = self.p_bound if p_max is None else min(p_max, self.p_bound)
        self.q_max = q_max
        self.chains = enumerate_chains(self.cat, self.p_max)
        self.nerve = NerveCache(self.cat)
        self._total_cache: dict[int, Matrix] = {}
        self._cycles: dict[tuple[int, int, int], Matrix] = {}  # restricted differential
        self._entries: dict[tuple, Subquotient] = {}  # page entries by their input

    def blocks(self, n: int) -> list[tuple[int, int]]:
        return [
            (p, n - p)
            for p in range(min(self.p_max, n) + 1)
            if 0 <= n - p <= self.q_max
        ]

    def total_dim(self, n: int) -> int:
        return sum(self.block_dim(*blk) for blk in self.blocks(n))

    def offsets(self, n: int) -> dict[tuple[int, int], int]:
        out = {}
        total = 0
        for blk in self.blocks(n):
            out[blk] = total
            total += self.block_dim(*blk)
        return out

    def anns_of_degree(self, n: int) -> list:
        out = []
        for blk in self.blocks(n):
            out.extend(self.block_anns(*blk))
        return out

    def total_diff(self, n: int) -> Matrix:
        """D_n: T_n -> T_{n-step}, horizontal + (-1)^p vertical."""
        if n in self._total_cache:
            return self._total_cache[n]
        ring = self.ring
        s = self.step
        out = Matrix.zeros(ring, self.total_dim(n - s), self.total_dim(n))
        ofs_src = self.offsets(n)
        ofs_dst = self.offsets(n - s)
        for (p, q) in self.blocks(n):
            c0 = ofs_src[(p, q)]
            # the blocks never overlap, so adding them places them
            if (p - s, q) in ofs_dst:
                out.add_block(ofs_dst[(p - s, q)], c0, self.horizontal(p, q))
            if (p, q - s) in ofs_dst:
                sign = ring.one if p % 2 == 0 else ring.neg(ring.one)
                out.add_block(ofs_dst[(p, q - s)], c0, self.vertical(p, q), sign)
        self._total_cache[n] = out
        return out

    def filtration_cols(self, n: int, p: int) -> list[int]:
        """Coordinate indices of the filtration step F_p T_n."""
        s = self.step
        ofs = self.offsets(n)
        out = []
        for (pp, qq) in self.blocks(n):
            if s * pp <= s * p:
                start = ofs[(pp, qq)]
                out.extend(range(start, start + self.block_dim(pp, qq)))
        return out

    def filtration_range(self) -> tuple[int, int]:
        """(empty, full): F_empty is zero and F_full is the whole degree;
        beyond them the filtration is constant."""
        return (-1, self.p_max) if self.step == 1 else (self.p_max + 1, 0)

    def certified_band(self) -> int:
        """Total degrees for which pages and homology are trusted."""
        return self.q_max - 1

    def cycles(self, n: int, p: int, bound: int) -> Matrix:
        """{x in F_p T_n : D x in F_bound + relations}, as matrix columns.

        F_p T_n is a prefix (step +1) or a suffix (step -1) of T_n's
        coordinates, and the rows outside F_bound are the other end of
        T_{n-s}'s, so (n, |F_p T_n|, #rows outside F_bound) names the
        restricted differential that is solved.  ``_cycles`` is keyed by
        that triple alone: beyond either end of the filtration the two
        sizes stop changing, so each restricted differential is solved once
        whatever p and bound name it, and is one object, which page entries
        recognise by identity."""
        ring = self.ring
        s = self.step
        n_cols = sum(self.block_dim(*blk) for blk in self.blocks(n) if s * blk[0] <= s * p)
        n_out = sum(self.block_dim(*blk) for blk in self.blocks(n - s) if s * blk[0] > s * bound)
        key = (n, n_cols, n_out)
        out = self._cycles.get(key)
        if out is not None:
            return out
        if not n_cols:
            out = Matrix.zeros(ring, self.total_dim(n), 0)
        else:
            cols = self.filtration_cols(n, p)
            first = self.total_dim(n - s) - n_out if s == 1 else 0
            out_rows = range(first, first + n_out)
            D = self.total_diff(n)
            anns_next = self.anns_of_degree(n - s)
            sub = Matrix.from_columns(
                ring, [{r_ - first: x for r_, x in D.vecs[c].items() if r_ in out_rows}
                       for c in cols], n_out)
            K = preimage_basis(sub, _ann_columns(ring, [anns_next[r_] for r_ in out_rows]))
            # embed back into T_n coordinates
            out = Matrix.from_columns(
                ring, [{cols[k]: x for k, x in vec.items()} for vec in K.vecs], self.total_dim(n))
        self._cycles[key] = out
        return out


# -- the filtered double complex -------------------------------------------


class Block:
    """M (x)_C D_p(b, -) for one summand object b, in local indices.

    ``gens`` are the raw generators (object d, nerve class, M-generator);
    ``anns`` are their annihilator rows and ``rels`` the coequalizer rows
    x.M(f) (x) sigma - x (x) f.sigma, both sparse over ``gens``.  A
    ``Cell`` joins the blocks of its summands; ``chains`` splits a block by
    chain key, the same three lists for the generators of each chain."""

    def __init__(self, nerve: NerveCache, p: int, b: str, gens: list[tuple],
                 anns: list[dict], rels: list[dict]):
        self.nerve = nerve
        self.p = p
        self.b = b
        self.gens = gens
        self.anns = anns
        self.rels = rels

    @cached_property
    def chains(self) -> dict[tuple, "Block"]:
        """Chain key -> the sub-block on the generators of that chain, its
        rows in the sub-block's indices.  Every row is checked once: a
        coequalizer relation must stay inside a chain."""
        parts: dict[tuple, Block] = {}
        keys: dict[tuple, tuple] = {}  # (d, cls) -> chain key
        where = []  # generator -> (its sub-block, its index there)
        for (d, cls, j) in self.gens:
            key = keys.get((d, cls))
            if key is None:
                key = keys[(d, cls)] = self.nerve(self.p, self.b, d).chain_key(cls)
            part = parts.get(key)
            if part is None:
                part = parts[key] = Block(self.nerve, self.p, self.b, [], [], [])
            where.append((part, len(part.gens)))
            part.gens.append((d, cls, j))
        for rows, field in ((self.anns, "anns"), (self.rels, "rels")):
            for row in rows:
                part = where[next(iter(row))][0]
                out = {}
                for u, c in row.items():
                    part_u, k = where[u]
                    if part_u is not part:
                        raise AssertionError("coequalizer relation straddles chains")
                    out[k] = c
                getattr(part, field).append(out)
        return parts


def _build_block(M: CatModule, nerve: NerveCache, p: int, b: str) -> Block:
    """The block M (x)_C D_p(b, -), built by one coequalizer loop."""
    cat = nerve.cat
    ring = M.ring
    gens = [
        (d, cls, j)
        for d in cat.objects
        if M.rank(d)
        for cls in range(nerve(p, b, d).size())
        for j in range(M.rank(d))
    ]
    index = {g: k for k, g in enumerate(gens)}
    anns = [{k: M.anns[d][j]} for k, (d, cls, j) in enumerate(gens) if M.anns[d][j]]
    rels: list[dict] = []
    neg_one = ring.neg(ring.one)
    for f, (d, dprime) in cat.morphisms.items():
        # no relation lands where M vanishes
        if M.rank(dprime) == 0 or (f == cat.id_of(d) and d == dprime):
            continue
        Mf = M.act(f)  # M(d') -> M(d)
        cell_d = nerve(p, b, d)
        cell_dp = nerve(p, b, dprime)
        for cls in range(cell_d.size()):
            alpha, phis, beta = cell_d.classes[cls]
            cls2 = cell_dp.class_of((alpha, phis, cat.compose(f, beta)))
            for j in range(M.rank(dprime)):
                row = _sum_terms(ring, [(index[(d, cls, a)], c) for a, c in Mf.vecs[j].items()]
                                 + [(index[(dprime, cls2, j)], neg_one)])
                if row:
                    rels.append(row)
    return Block(nerve, p, b, gens, anns, rels)


class Cell:
    """One nerve-tensor cell: M (x)_C D_p(b, -) summed over the summands b,
    the join of one ``Block`` per summand.

    Raw generators are (summand index, object d, nerve class, M-generator),
    the blocks' generators in summand order; the coequalizer relations
    (``rows``) are the annihilator rows of every summand, then, summand by
    summand, its relation rows, each shifted by its block's offset.
    ``map_to`` carries a map of raw generators to the canonical generators of
    another cell; ``face_map`` and ``precompose_map`` are the two raw maps
    every page is built from."""

    def __init__(self, ring: Ring, nerve: NerveCache, p: int, blocks: list[Block]):
        self.cat = nerve.cat
        self.ring = ring
        self.nerve = nerve
        self.p = p
        self.blocks = blocks
        self.summands = [blk.b for blk in blocks]
        self.raw_gens = [(i, *g) for i, blk in enumerate(blocks) for g in blk.gens]
        self.raw_index = {g: k for k, g in enumerate(self.raw_gens)}
        self.quot = MergedQuotient(ring, len(self.raw_gens), self.rows)
        self.module = self.quot.module

    @classmethod
    def over(cls, M: CatModule, nerve: NerveCache, p: int, b: str) -> "Cell":
        """The cell over the single summand b: its one block."""
        return cls(M.ring, nerve, p, [_build_block(M, nerve, p, b)])

    @property
    def rows(self) -> list[dict]:
        """The coequalizer relations, sparse over the raw generators."""
        offsets = []
        total = 0
        for blk in self.blocks:
            offsets.append(total)
            total += len(blk.gens)
        return [
            row if off == 0 else {u + off: c for u, c in row.items()}
            for field in ("anns", "rels")
            for off, blk in zip(offsets, self.blocks)
            for row in getattr(blk, field)
        ]

    @property
    def dim(self) -> int:
        return self.module.n_gens

    def restrict(self, chain_key: tuple) -> "Cell":
        """The sub-cell on the raw generators of one chain: the join of the
        blocks' parts of that chain."""
        return Cell(self.ring, self.nerve, self.p, [
            blk.chains.get(chain_key) or Block(self.nerve, self.p, blk.b, [], [], [])
            for blk in self.blocks
        ])

    def map_to(self, dst: "Cell", raw_fn) -> Matrix:
        """The matrix, on canonical generators, of the map that sends each
        raw generator g to the sum of coeff * h over (h, coeff) in raw_fn(g)."""
        index, raw_gens = dst.raw_index, self.raw_gens
        cols = [
            dst.quot.project_raw([
                (index[v], c * c2)
                for u, c in self.quot.lift(jgen).items()
                for v, c2 in raw_fn(raw_gens[u])])
            for jgen in range(self.dim)]
        return Matrix.from_columns(self.ring, cols, nrows=dst.dim)

    def face_map(self, dst: "Cell", i: int) -> Matrix:
        """The i-th nerve face onto dst, the cell at p - 1 over the same
        summands; degenerate faces map to zero."""
        one = self.ring.one

        def raw_fn(gen):
            si, d, cls, j = gen
            b = self.summands[si]
            fd = face(self.cat, self.nerve(self.p, b, d).classes[cls], i)
            if fd is None:
                return []
            return [((si, d, dst.nerve(dst.p, b, d).class_of(fd), j), one)]

        return self.map_to(dst, raw_fn)

    def boundary(self, dst: "Cell") -> Matrix:
        """The nerve differential onto dst: sum_i (-1)^i face_map(dst, i)."""
        out = Matrix.zeros(self.ring, dst.dim, self.dim)
        sign = self.ring.one
        for i in range(self.p + 1):
            out.add_block(0, 0, self.face_map(dst, i), sign)
            sign = self.ring.neg(sign)
        return out

    def precompose_map(self, dst: "Cell", images: list[dict]) -> Matrix:
        """Precompose the alpha leg: summand i goes to the sum of
        coeff * (alpha . psi) over ((i2, psi), coeff) in images[i], where
        psi: dst.summands[i2] -> self.summands[i]."""
        cat = self.cat

        def raw_fn(gen):
            si, d, cls, j = gen
            alpha, phis, beta = self.nerve(self.p, self.summands[si], d).classes[cls]
            out = []
            for (i2, psi), coeff in images[si].items():
                pulled = (cat.compose(alpha, psi), phis, beta)
                cls2 = dst.nerve(dst.p, dst.summands[i2], d).class_of(pulled)
                out.append(((i2, d, cls2, j), coeff))
            return out

        return self.map_to(dst, raw_fn)


class FilteredComplex(TotalComplex):
    """A_{p,q} = M (x)_C D_p (x)_C Q_q with both differentials recorded."""

    step = 1

    def __init__(self, M: CatModule, N: CatModule, p_max: int | None = None,
                 q_max: int = 4, Q: Resolution | None = None):
        if M.variance != CONTRA:
            raise VarianceMismatch("M must be contravariant")
        if N.variance != CO:
            raise VarianceMismatch("N must be covariant")
        if M.cat is not N.cat and M.cat.objects != N.cat.objects:
            raise VarianceMismatch("M and N live over different categories")
        super().__init__(M, N, p_max, q_max)
        self.Q: Resolution = Q if Q is not None else free_resolution(N, q_max)
        # each (p, b) block is built once; the cells share them
        blocks: dict[tuple[int, str], Block] = {}

        def block(p: int, b: str) -> Block:
            out = blocks.get((p, b))
            if out is None:
                out = blocks[(p, b)] = _build_block(M, self.nerve, p, b)
            return out

        self.cells: dict[tuple[int, int], Cell] = {
            (p, q): Cell(self.ring, self.nerve, p,
                         [block(p, b) for b in self.Q.levels[q].summands])
            for q in range(q_max + 1)
            for p in range(self.p_max + 1)
        }

    # -- the total complex --------------------------------------------------

    def horizontal(self, p: int, q: int) -> Matrix:
        return self.cells[(p, q)].boundary(self.cells[(p - 1, q)])

    def vertical(self, p: int, q: int) -> Matrix:
        # psi: b_{i2} -> b (covariant basis) in the resolution differential
        return self.cells[(p, q)].precompose_map(self.cells[(p, q - 1)], self.Q.gen_images[q])

    def block_dim(self, p: int, q: int) -> int:
        return self.cells[(p, q)].dim

    def block_anns(self, p: int, q: int) -> list:
        return self.cells[(p, q)].module.anns()


def build_filtered_complex(M: CatModule, N: CatModule, p_max: int | None = None,
                           q_max: int = 4, Q: Resolution | None = None,
                           jobs: int = 1) -> FilteredComplex:
    """The filtered complex; ``jobs`` is accepted and ignored, the build is
    serial."""
    return FilteredComplex(M, N, p_max, q_max, Q)


# -- pages -----------------------------------------------------------------


class Page:
    """E^r: each entry is the Subquotient of its generators, d^r the induced
    maps between entries."""

    def __init__(self, r: int, entries: dict[tuple[int, int], Subquotient],
                 diffs: dict[tuple[int, int], Matrix], stabilized: bool, step: int):
        self.r = r
        self.entries = entries
        self.diffs = diffs  # d^r starting at (p, q), into self.target(p, q)
        self.stabilized = stabilized
        self.step = step

    def target(self, p: int, q: int) -> tuple[int, int]:
        """Where d^r from (p, q) lands: (p - step r, q + step (r-1))."""
        return (p - self.step * self.r, q + self.step * (self.r - 1))

    def entry(self, p: int, q: int) -> FPModule:
        e = self.entries.get((p, q))
        return e.module if e else None

    def to_json(self) -> dict:
        ents = []
        for (p, q) in sorted(self.entries):
            m = self.entries[(p, q)].module
            ents.append({
                "p": p, "q": q,
                "free_rank": m.free_rank,
                "torsion": list(m.torsion),
            })
        diffs = []
        for (p, q) in sorted(self.diffs):
            mat = self.diffs[(p, q)]
            if mat.rows == 0 or mat.cols == 0 or mat.is_zero():
                continue
            diffs.append({
                "from": [p, q],
                "to": list(self.target(p, q)),
                "matrix": mat.entries_json(),
            })
        return {"r": self.r, "stabilized": self.stabilized,
                "entries": ents, "differentials": diffs}


def _ann_gen_cols(fc: TotalComplex, n: int, p: int) -> list[dict]:
    anns = fc.anns_of_degree(n)
    return [{c: anns[c]} for c in fc.filtration_cols(n, p) if anns[c]]


def _zero_entry(fc: TotalComplex, n: int) -> Subquotient:
    """The zero entry of total degree n: no Z and no B in the ambient T_n.
    The complex keeps one per ambient size among its entries, so every
    zero entry of that size, read off a page or built by ``page_entry``, is
    this one object."""
    total = fc.total_dim(n)
    entry = fc._entries.get(("zero", total))
    if entry is None:
        empty = Matrix.zeros(fc.ring, total, 0)
        entry = fc._entries[("zero", total)] = Subquotient(fc.ring, total, empty, empty)
    return entry


def page_entry(fc: TotalComplex, r: int, p: int, q: int) -> Subquotient:
    """E^r_{p,q} = Z(r, p, q) / (Z(max(r-1, 0), p-s, q+s) + D Z(r-1, p+s(r-1),
    q-s(r-2)) + relations), with s = fc.step and the D term for r >= 1 only.

    The complex keeps one Subquotient per distinct input (``_entries``), so
    the pages and a caller that reads single entries share them.  There is
    one cycle object per restricted differential (``TotalComplex.cycles``),
    kept as long as the complex, so (Z, Z_prev, Z_src) by identity name the
    cycle groups and no identity is reused; the annihilator generators are
    the first (step +1) or last (step -1) of their degree, so their number
    names them.  With Z and B both empty the entry is ``_zero_entry``."""
    s = fc.step
    n = p + q

    def Z(r, p, q):
        # the group {x in F_p T_{p+q} : D x in F_{p-sr}}
        return fc.cycles(p + q, p, p - s * r)

    zr, zprev = Z(r, p, q), Z(max(r - 1, 0), p - s, q + s)
    zsrc = Z(r - 1, p + s * (r - 1), q - s * (r - 2)) if r >= 1 else None
    if zsrc is not None and not zsrc.cols:
        zsrc = None
    anns = _ann_gen_cols(fc, n, p)
    if not (zr.cols or zprev.cols or zsrc is not None or anns):
        return _zero_entry(fc, n)
    key = (n, id(zr), id(zprev), id(zsrc), len(anns))
    entry = fc._entries.get(key)
    if entry is None:
        total = fc.total_dim(n)
        b_cols = list(zprev.vecs)
        if zsrc is not None:
            Dsrc = fc.total_diff(n + s)
            b_cols.extend(Dsrc.apply(vec) for vec in zsrc.vecs)
        b_cols.extend(anns)
        gens_B = Matrix.from_columns(fc.ring, b_cols, nrows=total)
        entry = fc._entries[key] = Subquotient(fc.ring, total, zr, gens_B)
    return entry


def _dies(fc: TotalComplex, prev: Page, p: int, q: int) -> bool:
    """Whether E^{r+1}_{p,q} is zero, read off the page prev = E^r alone:
    E^{r+1} = H(E^r, d^r), so it is zero where E^r_{p,q} is, and where E^r
    is exact at (p, q) under d^r.  Exactness is not tested on E^0.  The
    homology type comes from ``PresentedComplex``, which reads it off ranks
    and invariant factors when no entry involved has torsion."""
    here = prev.entries[(p, q)].module
    if here.is_zero():
        return True
    if prev.r == 0:
        return False
    # d^r out of (p, q) and into it; a d^r that is not on the page is zero
    tgt = prev.target(p, q)
    src = (p + prev.step * prev.r, q - prev.step * (prev.r - 1))
    anns_tgt = prev.entries[tgt].module.anns() if tgt in prev.entries else []
    anns_src = prev.entries[src].module.anns() if src in prev.entries else []
    d_out = prev.diffs.get((p, q))
    if d_out is None:
        d_out = Matrix.zeros(fc.ring, len(anns_tgt), here.n_gens)
    d_in = prev.diffs.get(src)
    if d_in is None:
        d_in = Matrix.zeros(fc.ring, here.n_gens, len(anns_src))
    level = PresentedComplex(fc.ring, [anns_tgt, here.anns(), anns_src], [d_out, d_in], 1)
    return level.homology(1).is_zero()


def spectral_page(fc: TotalComplex, r: int, prev: Page | None = None) -> Page:
    """E^r: every entry, from the complex's entries, and d^r, which runs
    from (p, q) to (p-sr, q+s(r-1)).

    ``prev`` is E^{r-1} when the caller has it.  E^r is the homology of
    E^{r-1} under d^{r-1}, so an entry that is zero there, or at which
    E^{r-1} is exact, is ``_zero_entry`` with no cycle kernel and no SNF;
    every other entry is ``page_entry``'s."""
    grid = [(p, q) for p in range(fc.p_max + 1) for q in range(fc.q_max + 1)]
    page = Page(r, {}, {}, r >= fc.p_max + 1, fc.step)
    for (p, q) in grid:
        if prev is not None and _dies(fc, prev, p, q):
            page.entries[(p, q)] = _zero_entry(fc, p + q)
        else:
            page.entries[(p, q)] = page_entry(fc, r, p, q)
    for (p, q) in grid:
        src = page.entries[(p, q)]
        tgt = page.target(p, q)
        if tgt not in page.entries or src.module.n_gens == 0:
            continue
        dst = page.entries[tgt]
        if dst.module.n_gens == 0:
            continue
        page.diffs[(p, q)] = induced_map(src, dst, fc.total_diff(p + q))
    return page


def spectral_pages(fc: TotalComplex) -> list[Page]:
    """E^0 .. E^{p_max+1}: the pages stabilize once r exceeds the column
    range, so the last is E^inf; a caller that wants fewer slices the
    list.  The entries are the complex's, so a page that has stabilised
    shares its entries with the page before.

    Each page after E^0 is given the page before, from which it reads its
    zero entries (``spectral_page``).  E^r = H(E^{r-1}, d^{r-1}) holds for
    these pages: E^r is the standard page of the filtered total complex
    of presented modules, truncated at q_max or not, since a truncated
    resolution still gives a double complex, and a d^r whose target lies
    off the grid is the zero map in it."""
    pages: list[Page] = []
    for r in range(fc.p_max + 2):
        pages.append(spectral_page(fc, r, pages[-1] if pages else None))
    return pages


# -- convergence -------------------------------------------------------------


class ConvergenceReport:
    def __init__(self, band: int, degrees: list[dict], cells: list[dict]):
        self.band = band
        self.degrees = degrees
        self.cells = cells

    @property
    def all_match(self) -> bool:
        return all(d["match"] for d in self.degrees) and all(
            c["match"] for c in self.cells
        )

    def to_json(self) -> dict:
        return {
            "certified_band": self.band,
            "degrees": self.degrees,
            "cells": self.cells,
            "all_match": self.all_match,
        }


def total_homology(fc: TotalComplex, m: int) -> Subquotient:
    """H_m of the total complex (H^m when fc.step is -1), with witnesses:
    the cycles of the whole degree modulo the boundaries and relations."""
    empty, full = fc.filtration_range()
    bounds = fc.total_diff(m + fc.step).hstack(_ann_columns(fc.ring, fc.anns_of_degree(m)))
    return Subquotient(fc.ring, fc.total_dim(m), fc.cycles(m, full, empty), bounds)


def _filtration_cells(fc: TotalComplex, m: int, h: Subquotient, einf: Page) -> list[dict]:
    """E^inf at each block (p, m-p) against F_p H / F_{p-step} H, the graded
    pieces of the filtration the total complex induces on h = H_m."""
    ring = fc.ring
    n_h = h.module.n_gens
    rels = _ann_columns(ring, h.module.anns())
    empty, _ = fc.filtration_range()
    # images of the filtration steps inside H_m
    steps = {}
    for p in (empty, *range(fc.p_max + 1)):
        zcap = fc.cycles(m, p, empty)  # D x in relations
        gens = [h.project(vec) for vec in zcap.vecs]
        steps[p] = Matrix.from_columns(ring, gens, nrows=n_h).hstack(rels)
    cells = []
    for (p, q) in fc.blocks(m):
        graded = Subquotient(ring, n_h, steps[p], steps[p - fc.step]).module
        em = einf.entry(p, q)
        cells.append({
            "p": p, "q": q,
            "E_inf": em.pretty(),
            "graded": graded.pretty(),
            "match": em == graded,
        })
    return cells


def compare_with_oracle(fc: TotalComplex, einf: Page, oracle: list[FPModule],
                        key: str) -> tuple[list[dict], list[dict]]:
    """Per total degree m up to the length of the oracle: the total
    (co)homology against oracle[m], then E^inf against the graded pieces
    of its filtration.  ``key`` names the degree in the degree rows."""
    degrees = []
    cells = []
    for m, want in enumerate(oracle):
        h = total_homology(fc, m)
        degrees.append({key: m, "oracle": want.pretty(), "total": h.module.pretty(),
                        "match": want == h.module})
        cells.extend(_filtration_cells(fc, m, h, einf))
    return degrees, cells


def converge_and_compare(M: CatModule, N: CatModule, n_max: int = 3,
                         q_max: int | None = None,
                         fc: FilteredComplex | None = None,
                         pages: list[Page] | None = None) -> ConvergenceReport:
    """Assemble E^inf, compare graded pieces of the filtration on the
    total homology, and compare the total homology with the Tor oracle.

    ``pages`` are the full ``spectral_pages(fc)`` when the caller already
    has them."""
    if fc is None:
        fc = build_filtered_complex(M, N, q_max=n_max + 1 if q_max is None else q_max)
    band = min(fc.certified_band(), n_max)
    if pages is None:
        pages = spectral_pages(fc)
    degrees, cells = compare_with_oracle(fc, pages[-1], tor(M, N, band), "m")
    return ConvergenceReport(band, degrees, cells)


# -- two-column long exact sequence ------------------------------------------


class LESReport:
    def __init__(self, nodes: list[dict]):
        self.nodes = nodes

    @property
    def all_exact(self) -> bool:
        return all(n["exact"] for n in self.nodes)

    def to_json(self) -> dict:
        return {"nodes": self.nodes, "all_exact": self.all_exact}


def two_column_les(M: CatModule, N: CatModule, n_max: int = 3,
                   fc: FilteredComplex | None = None) -> LESReport:
    """The long exact sequence ... -> E1_{1,q} -> E1_{0,q} -> Tor_q ->
    E1_{1,q-1} -> ... when there are no p-chains beyond p = 1; exactness
    is checked by ``fpmod.is_exact`` at every node up to total degree
    n_max."""
    if fc is None:
        fc = build_filtered_complex(M, N, q_max=n_max + 1)
    if fc.p_bound > 1:
        raise NotTwoColumn(
            f"chains of length {fc.p_bound} exist; the E^1 page has more than two columns"
        )
    ring = fc.ring
    band = min(fc.certified_band(), n_max)
    e1 = spectral_page(fc, 1)

    zero_entry = Subquotient(ring, 0, Matrix.zeros(ring, 0, 0), Matrix.zeros(ring, 0, 0))

    def col_entry(p, q):
        return e1.entries.get((p, q), zero_entry)

    def d1(q):
        d = e1.diffs.get((1, q))
        if d is None:
            d = Matrix.zeros(ring, col_entry(0, q).module.n_gens, col_entry(1, q).module.n_gens)
        return d

    # per q, the exactness of E1_{1,q} -d1-> E1_{0,q} -iota-> Tor_q
    # -proj-> E1_{1,q-1} -d1-> E1_{0,q-1}, where E1_{1,-1} = 0
    nodes = []
    for q in range(band + 1):
        e0, e1q, h = col_entry(0, q), col_entry(1, q - 1), total_homology(fc, q)
        # iota and proj are induced by the identity of the total complex
        ident = Matrix.identity(ring, h.ambient)
        iota = induced_map(e0, h, ident)
        if (1, q - 1) in e1.entries:
            proj = induced_map(h, e1q, ident)
        else:
            proj = Matrix.zeros(ring, 0, h.module.n_gens)
        nodes.append({"node": f"E1_0,{q}",
                      "exact": is_exact(iota, d1(q), e0.module.anns(), h.module.anns())})
        nodes.append({"node": f"Tor_{q}",
                      "exact": is_exact(proj, iota, h.module.anns(), e1q.module.anns())})
        if q >= 1:
            nodes.append({"node": f"E1_1,{q-1}", "exact": is_exact(
                d1(q - 1), proj, e1q.module.anns(), col_entry(0, q - 1).module.anns())})
    return LESReport(nodes)
