"""Modules over a finite category: functors into finitely presented modules.

A CatModule stores, for every object, a canonical presentation (diagonal
annihilators) and, for every morphism, the action matrix between the
canonical generators.  ``action_ends`` is the one statement of its
direction: f: a -> b acts M(b) -> M(a) on a contravariant module and
M(a) -> M(b) on a covariant one.  Values given by arbitrary presentations
are canonicalized on load and the actions are transported.

Also here: free modules on represented functors, the tensor product over
the category, functors between categories, and restriction/induction
along a functor.  ``TensorResult`` is the one coequalizer presentation of
a balanced tensor product M (x)_C N.  Induction along F: B -> C tensors
X over B with a represented functor of C restricted along F, and
``e1data.ChainGroupData`` balances M(c_p) with a chain's biset through
it.  (The page engine's ``spectral.Cell`` keeps its own coequalizer,
whose raw generator order fixes the page bases.)

``represented(cat, variance, c, d)`` is the one statement of the basis at d
of the functor represented by c; ``FreeCatModule.basis`` and
``resolve.free_resolution`` read it.  ``FreeCatModule.transport`` is the
one place in a free module that picks the composition order by variance,
and ``action_matrix`` is built from its columns.
"""

from __future__ import annotations

from .fincat import FiniteCategory
from .fpmod import CanonicalQuotient, FPModule, _ann_columns, _mod_anns, induced_map
from .matrix import Matrix, _canonical, _sum_terms
from .rings import Ring


class VarianceMismatch(ValueError):
    pass


class BaseMismatch(ValueError):
    pass


class RingMismatch(ValueError):
    pass


class NotAFunctor(ValueError):
    pass


CONTRA = "contra"
CO = "co"


def action_ends(cat: FiniteCategory, variance: str, f: str) -> tuple[str, str]:
    """(source, target) of the action of f on a module of this variance."""
    a, b = cat.morphisms[f]
    return (b, a) if variance == CONTRA else (a, b)


def represented(cat: FiniteCategory, variance: str, c: str, d: str) -> list[str]:
    """The basis at d of the functor represented by c: mor(d, c) for a
    contravariant module, mor(c, d) for a covariant one."""
    return cat.hom[(d, c)] if variance == CONTRA else cat.hom[(c, d)]


def _reduce_mod_anns(mat: Matrix, anns: list) -> Matrix:
    """The matrix with every column reduced modulo the target anns, its
    canonical form over Z; over a field or with no relations, mat itself."""
    if mat.ring.is_field or not any(anns):
        return mat
    return Matrix.from_columns(mat.ring, [_mod_anns(vec, anns) for vec in mat.vecs], mat.rows)


def mats_equal_mod(A: Matrix, B: Matrix, anns: list) -> bool:
    """Whether A and B, with canonical entries, agree modulo the target anns."""
    return (A.rows, A.cols) == (B.rows, B.cols) and (
        A.vecs == B.vecs or _reduce_mod_anns(A, anns).vecs == _reduce_mod_anns(B, anns).vecs)


class CatModule:
    """A co- or contravariant functor from the category into f.p. modules."""

    def __init__(
        self,
        cat: FiniteCategory,
        variance: str,
        ring: Ring,
        anns: dict[str, list],
        action: dict[str, Matrix],
        check: bool = True,
    ):
        if variance not in (CO, CONTRA):
            raise VarianceMismatch(f"unknown variance {variance!r}")
        self.cat = cat
        self.variance = variance
        self.ring = ring
        self.anns = {c: list(anns[c]) for c in cat.objects}
        self.action = {
            f: _reduce_mod_anns(action[f], self.anns[action_ends(cat, variance, f)[1]])
            for f in cat.morphisms
        }
        if check:
            problems = self.validate()
            if problems:
                raise ValueError("not a module:\n" + "\n".join(problems))

    def rank(self, obj: str) -> int:
        return len(self.anns[obj])

    def value(self, obj: str) -> FPModule:
        return FPModule.of_diagonal(self.ring, self.anns[obj])

    def act(self, f: str) -> Matrix:
        return self.action[f]

    def validate(self) -> list[str]:
        out = []
        cat = self.cat
        ring = self.ring
        for f in cat.morphisms:
            src, tgt = action_ends(cat, self.variance, f)
            mat = self.action[f]
            if (mat.rows, mat.cols) != (self.rank(tgt), self.rank(src)):
                out.append(f"action of {f!r} has wrong shape")
                continue
            if not ring.is_field:
                # well-defined on presentations: ann * column dies in target
                for j, d in enumerate(self.anns[src]):
                    if not d:
                        continue
                    for i, x in mat.vecs[j].items():
                        v = d * x
                        e = self.anns[tgt][i]
                        if (v % e if e else v) != 0:
                            out.append(f"action of {f!r} not defined on relations")
                            break
        if out:
            return out
        for c in cat.objects:
            ident = self.action[cat.id_of(c)]
            if not mats_equal_mod(ident, Matrix.identity(ring, self.rank(c)), self.anns[c]):
                out.append(f"action of id_{c} is not the identity")
        by_src = {c: [] for c in cat.objects}
        for f, (a, b) in cat.morphisms.items():
            by_src[a].append(f)
        for f, (a, b) in cat.morphisms.items():
            for g in by_src[b]:
                gf = cat.compose(g, f)
                if self.variance == CONTRA:
                    comp = self.action[f] @ self.action[g]
                else:
                    comp = self.action[g] @ self.action[f]
                tgt = action_ends(cat, self.variance, gf)[1]
                if not mats_equal_mod(comp, self.action[gf], self.anns[tgt]):
                    out.append(f"functoriality fails on ({g!r},{f!r})")
        return out

    @classmethod
    def constant(cls, cat: FiniteCategory, ring: Ring, variance: str = CONTRA) -> "CatModule":
        """The constant module: value R everywhere, all actions identity."""
        anns = {c: [ring.zero] for c in cat.objects}
        action = {f: Matrix.identity(ring, 1) for f in cat.morphisms}
        return cls(cat, variance, ring, anns, action, check=False)

    @classmethod
    def from_presentations(
        cls,
        cat: FiniteCategory,
        variance: str,
        ring: Ring,
        values: dict[str, tuple[int, list[list]]],
        raw_action: dict[str, Matrix],
    ) -> "CatModule":
        """Canonicalize per-object presentations and transport the actions.

        values[obj] = (rank, dense relation rows); raw_action is given on the
        raw generators with the variance-appropriate direction.
        """
        quots = {}
        for c in cat.objects:
            rank, rel_rows = values[c]
            quots[c] = CanonicalQuotient(ring, rank, [
                {i: x for i, x in enumerate(map(ring.coerce, row)) if x} for row in rel_rows
            ])
        return cls.from_quotients(cat, variance, ring, quots, raw_action)

    @classmethod
    def from_quotients(
        cls,
        cat: FiniteCategory,
        variance: str,
        ring: Ring,
        quots: dict,
        raw_action: dict[str, Matrix],
        check: bool = True,
    ) -> "CatModule":
        """The module whose value at c is quots[c].module and whose action
        of f is the map raw_action[f] induces between the quotients.

        quots[c] is a ``CanonicalQuotient`` or ``Subquotient`` of the raw
        generators at c; raw_action[f] is given on the raw generators with
        the variance-appropriate direction.
        """
        anns = {c: quots[c].module.anns() for c in cat.objects}
        action = {}
        for f in cat.morphisms:
            src, tgt = action_ends(cat, variance, f)
            action[f] = induced_map(quots[src], quots[tgt], raw_action[f])
        return cls(cat, variance, ring, anns, action, check=check)

    def __repr__(self):
        return f"CatModule({self.cat.name}, {self.variance}, {self.ring})"


class FreeCatModule:
    """A finite direct sum of represented functors R mor(?, c_i) (contra)
    or R mor(c_i, ?) (co).  Bases are (summand, morphism) pairs in summand
    order then hom order."""

    def __init__(self, cat: FiniteCategory, ring: Ring, variance: str, summands: list[str]):
        self.cat = cat
        self.ring = ring
        self.variance = variance
        self.summands = list(summands)
        self._basis_cache: dict[str, list] = {}
        self._index_cache: dict[str, dict] = {}

    def basis(self, obj: str) -> list[tuple[int, str]]:
        if obj not in self._basis_cache:
            out = [(i, f) for i, c in enumerate(self.summands)
                   for f in represented(self.cat, self.variance, c, obj)]
            self._basis_cache[obj] = out
            self._index_cache[obj] = {bf: k for k, bf in enumerate(out)}
        return self._basis_cache[obj]

    def basis_index(self, obj: str) -> dict:
        self.basis(obj)
        return self._index_cache[obj]

    def rank(self, obj: str) -> int:
        return len(self.basis(obj))

    def transport(self, f: str, pairs: dict[tuple[int, str], object]) -> dict:
        """Push a sparse vector along the action of f.

        contra, f: a -> b: F(b) -> F(a), (i, psi) -> (i, psi o f);
        co, f: a -> b: F(a) -> F(b), (i, psi) -> (i, f o psi).
        """
        # a tight loop like Matrix.apply's: it runs for every resolution column
        compose = self.cat.compose
        contra = self.variance == CONTRA
        z = self.ring.zero
        out: dict = {}
        for (i, psi), c in pairs.items():
            key = (i, compose(psi, f) if contra else compose(f, psi))
            out[key] = out.get(key, z) + c
        return _canonical(self.ring, out)

    def to_keys(self, obj: str, vec: dict) -> dict:
        """The vector {k: coeff} over basis(obj) as {basis(obj)[k]: coeff}."""
        basis = self.basis(obj)
        return {basis[k]: x for k, x in vec.items()}

    def to_coords(self, obj: str, keyed: dict) -> dict:
        """The zero-free vector {(i, psi): coeff} as a vector over the
        positions of basis(obj)."""
        idx = self.basis_index(obj)
        return {idx[key]: coeff for key, coeff in keyed.items()}

    def push(self, obj: str, image: dict, vecs: list[dict]) -> dict:
        """sum of coeff * transport(psi, vecs[j]) over the terms
        ((j, psi), coeff) of image, as a vector over basis(obj)."""
        return self.to_coords(obj, _sum_terms(self.ring, [
            (key, coeff * c)
            for (j, psi), coeff in image.items()
            for key, c in self.transport(psi, vecs[j]).items()]))

    def action_matrix(self, f: str) -> Matrix:
        """The action of f, column by column the ``transport`` of a basis
        element."""
        src, tgt = action_ends(self.cat, self.variance, f)
        one = self.ring.one
        cols = [self.to_coords(tgt, self.transport(f, {key: one})) for key in self.basis(src)]
        return Matrix.from_columns(self.ring, cols, self.rank(tgt))

    def as_catmodule(self) -> CatModule:
        anns = {c: [self.ring.zero] * self.rank(c) for c in self.cat.objects}
        action = {f: self.action_matrix(f) for f in self.cat.morphisms}
        return CatModule(self.cat, self.variance, self.ring, anns, action, check=False)


# -- tensor over the category ------------------------------------------


class TensorResult:
    """Coequalizer presentation of M (x)_C N with witnesses.

    Raw generators are (object, M-generator, N-generator) triples in
    object order; quotient carries the canonical projection.
    """

    def __init__(self, M: CatModule, N: CatModule):
        if M.cat is not N.cat and M.cat.objects != N.cat.objects:
            raise BaseMismatch("modules live over different categories")
        if M.ring != N.ring:
            raise RingMismatch("modules have different coefficient rings")
        if M.variance != CONTRA or N.variance != CO:
            raise VarianceMismatch("tensor needs contravariant (x) covariant")
        cat = M.cat
        ring = M.ring
        self.raw_gens: list[tuple[str, int, int]] = []
        offset: dict[str, int] = {}
        for c in cat.objects:
            offset[c] = len(self.raw_gens)
            for j in range(M.rank(c)):
                for k in range(N.rank(c)):
                    self.raw_gens.append((c, j, k))
        n = len(self.raw_gens)

        def gid(c, j, k):
            return offset[c] + j * N.rank(c) + k

        rows = _ann_columns(ring, [M.anns[c][j] for (c, j, k) in self.raw_gens]).vecs
        rows += _ann_columns(ring, [N.anns[c][k] for (c, j, k) in self.raw_gens]).vecs
        for f, (a, b) in cat.morphisms.items():
            if f == cat.id_of(a) and a == b:
                continue
            Mf = M.act(f)  # M(b) -> M(a)
            Nf = N.act(f)  # N(a) -> N(b)
            for j in range(M.rank(b)):
                for k in range(N.rank(a)):
                    # (x phi) (x) y - x (x) (phi y)
                    rows.append(_sum_terms(
                        ring, [(gid(a, a_i, k), c) for a_i, c in Mf.vecs[j].items()]
                        + [(gid(b, j, b_i), -c) for b_i, c in Nf.vecs[k].items()]))
        self.quot = CanonicalQuotient(ring, n, rows)
        self.module = self.quot.module


def tensor_over_C(M: CatModule, N: CatModule) -> FPModule:
    """M (x)_C N by the coequalizer presentation, in canonical form."""
    return TensorResult(M, N).module


# -- functors -----------------------------------------------------------


class Functor:
    def __init__(self, src: FiniteCategory, dst: FiniteCategory,
                 obj_map: dict[str, str], mor_map: dict[str, str], check: bool = True):
        self.src = src
        self.dst = dst
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        if check:
            problems = self.validate()
            if problems:
                raise NotAFunctor("\n".join(problems))

    def validate(self) -> list[str]:
        out = []
        for c in self.src.objects:
            if self.obj_map.get(c) not in self.dst.obj_index:
                out.append(f"object {c!r} not mapped")
        for f, (a, b) in self.src.morphisms.items():
            g = self.mor_map.get(f)
            if g is None or g not in self.dst.morphisms:
                out.append(f"morphism {f!r} not mapped")
                continue
            if self.dst.morphisms[g] != (self.obj_map[a], self.obj_map[b]):
                out.append(f"morphism {f!r} has incompatible image")
        if out:
            return out
        for c in self.src.objects:
            if self.mor_map[self.src.id_of(c)] != self.dst.id_of(self.obj_map[c]):
                out.append(f"identity of {c!r} not preserved")
        by_src = {c: [] for c in self.src.objects}
        for f, (a, b) in self.src.morphisms.items():
            by_src[a].append(f)
        for f, (a, b) in self.src.morphisms.items():
            for g in by_src[b]:
                if self.mor_map[self.src.compose(g, f)] != self.dst.compose(
                    self.mor_map[g], self.mor_map[f]
                ):
                    out.append(f"composition not preserved on ({g!r},{f!r})")
        return out

    @classmethod
    def identity(cls, cat: FiniteCategory) -> "Functor":
        return cls(cat, cat, {c: c for c in cat.objects},
                   {f: f for f in cat.morphisms}, check=False)


def full_subcategory(cat: FiniteCategory, objects: list[str]) -> tuple[FiniteCategory, Functor]:
    """The full subcategory on the given objects, sharing morphism ids,
    together with its inclusion functor."""
    objs = [c for c in cat.objects if c in set(objects)]
    keep = set(objs)
    mors = {f: (a, b) for f, (a, b) in cat.morphisms.items() if a in keep and b in keep}
    comp = {
        (g, f): gf
        for (g, f), gf in cat.compose_table.items()
        if f in mors and g in mors
    }
    ident = {c: cat.id_of(c) for c in objs}
    sub = FiniteCategory(objs, mors, comp, ident, name=f"{cat.name}|{len(objs)}")
    inc = Functor(sub, cat, {c: c for c in objs}, {f: f for f in mors}, check=False)
    return sub, inc


def restrict(F: Functor, M: CatModule) -> CatModule:
    """M o F: pointwise restriction along a functor."""
    if M.cat is not F.dst and M.cat.objects != F.dst.objects:
        raise BaseMismatch("module does not live over the functor's target")
    anns = {b: list(M.anns[F.obj_map[b]]) for b in F.src.objects}
    action = {f: M.act(F.mor_map[f]) for f in F.src.morphisms}
    return CatModule(F.src, M.variance, M.ring, anns, action, check=False)


def induce(F: Functor, X: CatModule) -> CatModule:
    """F_* X, the induction of X along F, as a balanced tensor product at
    each object d of the target:

    contra X: (F_*X)(d) = X (x)_B R mor(d, F(-));
    co X:     (F_*X)(d) = R mor(F(-), d) (x)_B X.
    """
    if X.cat is not F.src and X.cat.objects != F.src.objects:
        raise BaseMismatch("module does not live over the functor's source")
    cat = F.dst
    ring = X.ring
    contra = X.variance == CONTRA
    quots = {}
    keyed = {}  # raw generators at d as (b, X-generator, morphism) triples
    for d in cat.objects:
        rep = restrict(F, FreeCatModule(cat, ring, CO if contra else CONTRA, [d]).as_catmodule())
        if contra:
            T = TensorResult(X, rep)
            keyed[d] = [(b, x, cat.hom[(d, F.obj_map[b])][i]) for b, x, i in T.raw_gens]
        else:
            T = TensorResult(rep, X)
            keyed[d] = [(b, x, cat.hom[(F.obj_map[b], d)][i]) for b, i, x in T.raw_gens]
        quots[d] = T.quot
    index = {d: {g: i for i, g in enumerate(keyed[d])} for d in cat.objects}
    raw_action = {}
    for g in cat.morphisms:
        src, tgt = action_ends(cat, X.variance, g)
        # (b, x, phi) -> (b, x, phi o g) or (b, x, g o phi), one to one
        moved = [
            {index[tgt][(b, x, cat.compose(phi, g) if contra else cat.compose(g, phi))]: ring.one}
            for b, x, phi in keyed[src]
        ]
        raw_action[g] = Matrix.from_columns(ring, moved, len(keyed[tgt]))
    return CatModule.from_quotients(cat, X.variance, ring, quots, raw_action, check=False)
