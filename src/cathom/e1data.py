"""The chain-summand identifications of the first page.

For a left-free base, the E^1 entry at (p, q) splits as a direct sum over
p-chains, and each summand is a group-ring Tor over the automorphism
group of the chain's bottom object, with coefficients twisted through the
chain's biset.  This module computes both sides:

* per-chain column homology inside the engine's filtered complex: each
  column restricts the engine's ``spectral.Cell`` to the chain's raw
  generators, so it is the presentation the pages see.  A cell is split by
  chain once, block by block (``spectral.Block.chains``), and every chain
  of the cell reads its part of that partition, and
* the group-level Tor via the truncated bar complex (independent route):
  ``ChainGroupData`` builds its two modules as ``CatModule``s over the
  one-object subcategory on the chain's bottom object; the coefficients
  M(c_p) (x)_{R aut(c_p)} RS(chain) are a ``catmod.TensorResult``, not
  the engine's ``Cell`` coequalizer, so the two sides share no code there,

plus the d^1 component maps.  The group-level side runs once per distinct
chain datum within a call: ``chain_oracle`` keys each chain's data by its
bottom object and coefficient module, and chains with equal keys share
one oracle call.  The rows stay per chain, and the engine side is still
computed per chain.  ``verify_e1`` checks the chain sums against the E^1
entries read one by one (``spectral.page_entry``) for q up to the band,
so it builds no other page, no d^0 or d^1 map and no q = q_max row.  The
entries are the complex's, so on a complex whose pages are built it
builds none of them again.
Components for i >= 1 are biset concatenations transported through the
explicit chain/biset bijection of the nerve; the i = 0 component is the
change-of-groups composite, which on the free resolution summands
evaluates to pushing the bottom leg through the module structure (the
partial assembly at module level).
"""

from __future__ import annotations

from .catmod import CO, CONTRA, CatModule, TensorResult, full_subcategory, restrict
from .fincat import BalancedTriples, ChainBiset, PChain
from .fpmod import FPModule, Subquotient, induced_map
from .groupbar import group_tor
from .matrix import Matrix
from .resolve import PresentedComplex
from .spectral import Cell, FilteredComplex, build_filtered_complex, page_entry


class NotLeftFree(Exception):
    pass


def chain_key_of(fc: FilteredComplex, chain: PChain) -> tuple[int, ...]:
    data = fc.cat.iso_classes()
    return tuple(data.class_of[r] for r in chain.reps)


class ChainColumn:
    """The chain's sub-cells of the engine's cells at fixed p, with the
    vertical differential and its homology, each degree computed once."""

    def __init__(self, fc: FilteredComplex, p: int, chain: PChain):
        self.fc = fc
        self.p = p
        self.chain = chain
        key = chain_key_of(fc, chain)
        self.cells: list[Cell] = [fc.cells[(p, q)].restrict(key) for q in range(fc.q_max + 1)]
        self.vert: list[Matrix] = [None]  # vert[q]: column_q -> column_{q-1}
        for q in range(1, fc.q_max + 1):
            self.vert.append(self.cells[q].precompose_map(self.cells[q - 1], fc.Q.gen_images[q]))
        self.complex = PresentedComplex(
            fc.ring, [cell.module.anns() for cell in self.cells], self.vert[1:], 1
        )
        self._homology: dict[int, Subquotient] = {}

    def homology(self, q: int) -> Subquotient:
        if q not in self._homology:
            self._homology[q] = self.complex.witness(q)
        return self._homology[q]


# -- the independent group-level side ------------------------------------


class ChainGroupData:
    """A(chain) = M(c_p) (x)_{R aut(c_p)} RS(chain), contravariant (a right
    module) over the one-object subcategory on c_0, together with N(c_0)
    restricted to that subcategory (a left module for covariant N).  The
    chains need an EI base, so that subcategory is the group aut(c_0)."""

    def __init__(self, fc: FilteredComplex, chain: PChain):
        cat = fc.cat
        ring = fc.ring
        M, N = fc.M, fc.N
        self.chain = chain
        c0 = chain.reps[0]
        cp = chain.reps[-1]
        sub, inc = full_subcategory(cat, [c0])
        if chain.p == 0:
            self.A = restrict(inc, M)
        else:
            S = ChainBiset(cat, chain)
            n = S.size()
            one = ring.one
            sub_p, inc_p = full_subcategory(cat, [cp])
            # RS: the permutation module of the left aut(c_p) action on S
            RS = CatModule(sub_p, CO, ring, {cp: [ring.zero] * n}, {
                a: Matrix.from_columns(ring, [{S.left_act(a, k): one} for k in range(n)], n)
                for a in sub_p.morphisms
            }, check=False)
            T = TensorResult(restrict(inc_p, M), RS)
            index = {g: i for i, g in enumerate(T.raw_gens)}
            # right action of a on the raw generators: (c_p, j, k) -> (c_p, j, k.a)
            raw_action = {
                a: Matrix.from_columns(
                    ring, [{index[(cp, j, S.right_act(k, a))]: one} for _, j, k in T.raw_gens],
                    len(index))
                for a in sub.morphisms
            }
            self.A = CatModule.from_quotients(sub, CONTRA, ring, {c0: T.quot}, raw_action,
                                              check=False)
        self.B = restrict(inc, N)
        # B is N restricted to c_0 and the ring is fixed by fc, so c_0 and
        # A's annihilators and action columns fix every input of an oracle
        self.key = (c0, tuple(self.A.anns[c0]), tuple(
            tuple(tuple(sorted(v.items())) for v in self.A.act(g).vecs)
            for g in sub.morphisms))


def chain_oracle(fc: FilteredComplex, oracle, n_max: int) -> dict:
    """oracle(A, B, n_max) on every p-chain's ``ChainGroupData``, keyed by
    (p, chain).  Chains with equal keys share one call: the memo lives
    only inside this call."""
    memo: dict[tuple, list[FPModule]] = {}
    out = {}
    for p in sorted(fc.chains):
        for chain in fc.chains[p]:
            data = ChainGroupData(fc, chain)
            if data.key not in memo:
                memo[data.key] = oracle(data.A, data.B, n_max)
            out[(p, chain)] = memo[data.key]
    return out


def e1_direct(M: CatModule, N: CatModule, q_max: int = 3,
              fc: FilteredComplex | None = None) -> dict:
    """Per p-chain, Tor_q over the bottom automorphism group of the
    balanced coefficient module, via the truncated bar complex."""
    if not M.cat.is_left_free():
        raise NotLeftFree("the E^1 identification requires a left-free base")
    if fc is None:
        fc = build_filtered_complex(M, N, q_max=q_max + 1)
    return chain_oracle(fc, group_tor, q_max)


class E1Report:
    def __init__(self, rows: list[dict], band: int):
        self.rows = rows
        self.band = band

    @property
    def all_match(self) -> bool:
        return all(r["match"] for r in self.rows)

    def mismatches(self) -> list[dict]:
        return [r for r in self.rows if not r["match"]]

    def to_json(self) -> dict:
        return {"band": self.band, "rows": self.rows, "all_match": self.all_match}


def verify_e1(M: CatModule, N: CatModule, q_max: int = 3,
              fc: FilteredComplex | None = None) -> E1Report:
    """Check, summand by summand, that the engine's E^1 entries equal the
    group-ring Tor of the chain data, and that the chain summands add up
    to the page entries."""
    if not M.cat.is_left_free():
        raise NotLeftFree("the E^1 identification requires a left-free base")
    if fc is None:
        fc = build_filtered_complex(M, N, q_max=q_max + 1)
    band = min(q_max, fc.q_max - 1)
    direct_tor = chain_oracle(fc, group_tor, band)
    rows = []
    ring = fc.ring
    for p in sorted(fc.chains):
        columns = {}
        for chain in fc.chains[p]:
            col = ChainColumn(fc, p, chain)
            direct = direct_tor[(p, chain)]
            columns[chain] = col
            for q in range(band + 1):
                engine = col.homology(q).module
                rows.append({
                    "p": p,
                    "chain": repr(chain),
                    "q": q,
                    "engine": engine.pretty(),
                    "group_tor": direct[q].pretty(),
                    "match": engine == direct[q],
                })
        for q in range(band + 1):
            total = FPModule(ring, 0)
            for chain in fc.chains[p]:
                total = total.direct_sum(columns[chain].homology(q).module)
            entry = page_entry(fc, 1, p, q).module
            rows.append({
                "p": p,
                "chain": "(sum)",
                "q": q,
                "engine": entry.pretty(),
                "group_tor": total.pretty(),
                "match": entry == total,
            })
    return E1Report(rows, band)


# -- transport tables and d^1 components -----------------------------------


class TransportTables:
    """Balanced-triple decompositions with inverse lookup, cached."""

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self._bisets: dict[tuple, ChainBiset] = {}
        self._triples: dict[tuple, BalancedTriples] = {}
        self._nerve_to_triple: dict[tuple, dict[int, int]] = {}

    def biset(self, chain: PChain) -> ChainBiset:
        if chain.reps not in self._bisets:
            self._bisets[chain.reps] = ChainBiset(self.fc.cat, chain)
        return self._bisets[chain.reps]

    def triples(self, chain: PChain, src: str, tgt: str) -> BalancedTriples:
        key = (chain.reps, src, tgt)
        if key not in self._triples:
            bs = self.biset(chain) if chain.p >= 1 else None
            bt = BalancedTriples(self.fc.cat, chain, src, tgt, bs)
            self._triples[key] = bt
            cell = self.fc.nerve(chain.p, src, tgt)
            table = {}
            for k in range(bt.size()):
                cls = cell.class_of(bt.to_diagram(k))
                if cls in table:
                    raise AssertionError("chain decomposition not injective")
                table[cls] = k
            self._nerve_to_triple[key] = table
        return self._triples[key]

    def nerve_to_triple(self, chain: PChain, src: str, tgt: str) -> dict[int, int]:
        self.triples(chain, src, tgt)
        return self._nerve_to_triple[(chain.reps, src, tgt)]


def _column(fc: FilteredComplex, columns: dict, p: int, chain: PChain) -> ChainColumn:
    key = (p, chain.reps)
    if key not in columns:
        columns[key] = ChainColumn(fc, p, chain)
    return columns[key]


def d1_components(fc: FilteredComplex, p: int, chain: PChain, q: int,
                  tables: TransportTables | None = None,
                  columns: dict | None = None) -> list[dict]:
    """The maps (d^1)_i on the chain summand of E^1_{p,q}, one per face
    index, as matrices between chain-column homology presentations.

    i >= 1 components concatenate the biset witness strings; the i = 0
    component composes the bottom leg into the next object (the partial
    assembly at module level).  All are computed through the explicit
    chain/biset bijection, independently of the stored face matrices.
    """
    if p < 1:
        return []
    cat = fc.cat
    ring = fc.ring
    if tables is None:
        tables = TransportTables(fc)
    if columns is None:
        columns = {}
    src_col = _column(fc, columns, p, chain)
    src_h = src_col.homology(q)
    out = []
    for i in range(p + 1):
        target_chain = chain.omit(i)
        tgt_col = _column(fc, columns, p - 1, target_chain)
        tgt_h = tgt_col.homology(q)

        def raw_fn(gen, i=i, target_chain=target_chain):
            si, d, cls, j = gen
            b = fc.Q.levels[q].summands[si]
            bt_src = tables.triples(chain, b, d)
            k3 = tables.nerve_to_triple(chain, b, d)[cls]
            beta, s_idx, alpha = bt_src.classes[k3]
            string = tables.biset(chain).elements[s_idx] if p >= 1 else ()
            if i == 0:
                alpha2 = cat.compose(string[0], alpha)
                beta2 = beta
                string2 = string[1:]
            elif i == p:
                beta2 = cat.compose(beta, string[-1])
                alpha2 = alpha
                string2 = string[:-1]
            else:
                merged = cat.compose(string[i], string[i - 1])
                alpha2, beta2 = alpha, beta
                string2 = string[: i - 1] + (merged,) + string[i + 1 :]
            bt_tgt = tables.triples(target_chain, b, d)
            if target_chain.p == 0:
                triple = (beta2, None, alpha2)
            else:
                s2 = tables.biset(target_chain).index[string2]
                triple = (beta2, s2, alpha2)
            k2 = bt_tgt.index[triple]
            cls2 = fc.nerve(p - 1, b, d).class_of(bt_tgt.to_diagram(k2))
            return [((si, d, cls2, j), ring.one)]

        mat = induced_map(src_h, tgt_h, src_col.cells[q].map_to(tgt_col.cells[q], raw_fn))
        out.append({"i": i, "target": target_chain, "matrix": mat,
                    "source_module": src_h.module, "target_module": tgt_h.module})
    return out


def d1_face_block(fc: FilteredComplex, p: int, chain: PChain, i: int, q: int,
                  columns: dict | None = None) -> Matrix:
    """The i-th face map extracted from the filtered complex, restricted
    to the chain blocks (the engine-side matrix)."""
    if columns is None:
        columns = {}
    src_col = _column(fc, columns, p, chain)
    tgt_col = _column(fc, columns, p - 1, chain.omit(i))
    return induced_map(src_col.homology(q), tgt_col.homology(q),
                       src_col.cells[q].face_map(tgt_col.cells[q], i))
