"""Free resolutions over a category and the Tor/Ext oracles.

Resolutions are built by a deterministic greedy cover: objects are
scanned in a fixed topological order of iso-classes and a generator is
added only when the current free module does not already generate the
target element.  strategy="full" instead adds every kernel basis vector
at every object; it is kept as the independent second resolution for the
oracle-independence tests.

Every collapse of a map of free modules against a coefficient module N is
built by the one block builder ``yoneda_matrix``: the Tor complex
(F_* (x)_C N), the Ext complex Hom_C(F_*, N) (also the columns of
``extpages.ExtFilteredComplex`` and its horizontal blocks) and the chain
map of the assembly.  Vectors over a free module's basis are moved and
renumbered by ``FreeCatModule.to_keys``/``to_coords``/``push``.  Which
morphisms a generator reaches is ``catmod.represented``'s, and
``Resolution.lift`` is the one degreewise lift through a level's map out
(the augmentation at level 0): the assembly map lifts through it at every
level, the horseshoe from level 2 on.  ``tor`` and ``ext`` differ only in
their variance check and their collapse, and share one body.

A ``PresentedComplex`` carries the ``step`` of ``spectral.TotalComplex``:
+1 for the Tor complex and the bar complex, -1 for the Ext complex.  Its
``homology(n)`` is H_n or H^n alike.  The Tor and Ext oracles need only
isomorphism types, so ``homology`` reads them off the ranks and invariant
factors of the differentials when the levels involved carry no
annihilators, and off the ``Subquotient`` of ``witness(n)`` otherwise.

The assembly map along a functor F: B -> C is computed by inducing a free
resolution of the constant module over B (a symbol-level relabeling),
lifting its augmentation into a free resolution of the constant module
over C degreewise by exact linear solving, and taking homology of the
tensored complexes.
"""

from __future__ import annotations

from .catmod import (
    CO,
    CONTRA,
    CatModule,
    FreeCatModule,
    Functor,
    VarianceMismatch,
    mats_equal_mod,
    represented,
)
from .fincat import FiniteCategory, UnboundedChains
from .fpmod import (
    FPModule,
    Subquotient,
    _ann_columns,
    induced_map,
    is_exact,
    presented_homology,
    solve_mod,
)
from .intlin import ColumnOps, StairBasis, invariant_factors, kernel_basis, preimage_basis
from .matrix import Matrix, _sum_terms
from .rings import Ring


class LiftFailed(AssertionError):
    pass


def scan_order(cat: FiniteCategory, variance: str) -> list[str]:
    """Objects ordered so that early generators cover as much as possible.

    A contravariant generator at c reaches d when mor(d, c) is nonempty,
    so sinks of the class preorder come first; covariantly, sources come
    first.  The classes are taken in ``IsoClassData.order``, reversed for
    CO.  Falls back to category order when the preorder has cycles.
    """
    data = cat.iso_classes()
    try:
        order = data.order
    except UnboundedChains:
        return list(cat.objects)
    # order has sinks first; that is the contravariant scan order
    if variance == CO:
        order = order[::-1]
    return [c for k in order for c in data.classes[k]]


class Resolution:
    """F_0 <- F_1 <- ... <- F_len, free modules with an augmentation to M."""

    def __init__(self, M: CatModule):
        self.M = M
        self.cat = M.cat
        self.ring = M.ring
        self.variance = M.variance
        self.levels: list[FreeCatModule] = []
        self.aug_images: list[dict] = []  # per level-0 generator: vector in M(c)
        self.gen_images: list[list[dict]] = [[]]  # level k>=1: sparse over F_{k-1} basis

    @property
    def length(self) -> int:
        return len(self.levels) - 1

    def eval_aug(self, obj: str) -> Matrix:
        F0 = self.levels[0]
        cols = []
        for (i, phi) in F0.basis(obj):
            cols.append(self.M.act(phi).apply(self.aug_images[i]))
        return Matrix.from_columns(self.ring, cols, nrows=self.M.rank(obj))

    def eval_diff(self, k: int, obj: str) -> Matrix:
        """The matrix F_k(obj) -> F_{k-1}(obj)."""
        Fprev = self.levels[k - 1]
        cols = [
            Fprev.to_coords(obj, Fprev.transport(phi, self.gen_images[k][i]))
            for (i, phi) in self.levels[k].basis(obj)
        ]
        return Matrix.from_columns(self.ring, cols, nrows=Fprev.rank(obj))

    def lift(self, k: int, obj: str, rhs: dict) -> dict | None:
        """A keyed x in F_k(obj) that the map out of F_k sends to rhs, or
        None.  At k = 0 that map is the augmentation, solved exactly, not
        modulo M's relations."""
        x = ColumnOps(self.eval_aug(obj) if k == 0 else self.eval_diff(k, obj)).solve(rhs)
        return None if x is None else self.levels[k].to_keys(obj, x)

    def _maps(self, obj: str) -> list[Matrix]:
        """[aug, d_1, ..., d_len] at obj."""
        return [self.eval_aug(obj)] + [self.eval_diff(k, obj) for k in range(1, self.length + 1)]

    def _complex_violations(self, obj: str, maps: list[Matrix]) -> list[str]:
        out = []
        for k in range(1, len(maps)):
            prod = maps[k - 1] @ maps[k]
            if k == 1:
                zero = Matrix.zeros(self.ring, prod.rows, prod.cols)
                if not mats_equal_mod(prod, zero, self.M.anns[obj]):
                    out.append(f"aug . d1 != 0 at {obj}")
            elif not prod.is_zero():
                out.append(f"d{k-1} . d{k} != 0 at {obj}")
        return out

    def is_complex(self) -> bool:
        """aug . d1 = 0 modulo M's relations and d_{k-1} . d_k = 0 at every
        object: the first half of ``verify``, without the exactness."""
        return not any(self._complex_violations(obj, self._maps(obj))
                       for obj in self.cat.objects)

    def verify(self) -> list[str]:
        """Check d.d = 0 and exactness objectwise below the top level."""
        out = []
        for obj in self.cat.objects:
            maps = self._maps(obj)
            out.extend(self._complex_violations(obj, maps))
            for k in range(self.length):
                anns_next = self.M.anns[obj] if k == 0 else []
                zeros = [0] * maps[k].cols
                if not is_exact(maps[k], maps[k + 1], zeros, anns_next):
                    out.append(f"not exact at level {k}, object {obj}")
        return out


def free_resolution(M: CatModule, length: int, strategy: str = "greedy") -> Resolution:
    """A free resolution F_0 <- ... <- F_length of M.

    greedy: deterministic minimal-ish cover in scan order; full: every
    kernel basis vector at every object becomes a generator.
    """
    res = Resolution(M)
    cat = M.cat
    ring = M.ring
    order = scan_order(cat, M.variance)

    # level 0: cover the values of M
    spanned = {c: StairBasis(ring, M.rank(c)) for c in cat.objects}
    for c in cat.objects:
        for vec in _ann_columns(ring, M.anns[c]).vecs:
            spanned[c].add(vec)
    summands: list[str] = []
    for c in order:
        for j in range(M.rank(c)):
            e = {j: ring.one}
            if strategy != "full" and spanned[c].contains(e):
                continue
            summands.append(c)
            res.aug_images.append(e)
            for d in cat.objects:
                for phi in represented(cat, M.variance, c, d):
                    spanned[d].add(M.act(phi).apply(e))
    res.levels.append(FreeCatModule(cat, ring, M.variance, summands))

    for k in range(1, length + 1):
        prev = res.levels[k - 1]
        kernels = {}
        for d in cat.objects:
            if k == 1:
                kernels[d] = preimage_basis(
                    res.eval_aug(d), _ann_columns(ring, M.anns[d])
                )
            else:
                kernels[d] = kernel_basis(res.eval_diff(k - 1, d))
        spanned = {c: StairBasis(ring, prev.rank(c)) for c in cat.objects}
        summands = []
        images: list[dict] = []
        for c in order:
            for v in kernels[c].vecs:
                if strategy != "full" and spanned[c].contains(v):
                    continue
                summands.append(c)
                keyed = prev.to_keys(c, v)
                images.append(keyed)
                for d in cat.objects:
                    for phi in represented(cat, M.variance, c, d):
                        spanned[d].add(prev.to_coords(d, prev.transport(phi, keyed)))
        res.levels.append(FreeCatModule(cat, ring, M.variance, summands))
        res.gen_images.append(images)
    return res


class PresentedComplex:
    """A bounded complex C_0 .. C_top of canonically presented modules.

    ``step`` is the direction of the arrows, as on ``spectral.TotalComplex``:
    d(n): C_n -> C_{n-step}, so +1 for a chain complex and -1 for a cochain
    complex.  diffs[k-1] is the map between levels k and k-1 (d(k) for step
    +1, d(k-1) for step -1); anns[k] are the generator annihilators of C_k.
    """

    def __init__(self, ring: Ring, anns: list[list], diffs: list[Matrix], step: int):
        self.ring = ring
        self.anns = anns
        self.diffs = diffs
        self.step = step
        self._factors: dict[int, list] = {}  # n -> invariant_factors(d(n))

    def _check(self, n: int) -> None:
        if not 0 <= n < len(self.anns):
            raise IndexError(f"complex has no level {n}; its levels are 0..{len(self.anns) - 1}")

    def _anns(self, n: int) -> list:
        """The annihilators of C_n; none off the complex."""
        return self.anns[n] if 0 <= n < len(self.anns) else []

    def d(self, n: int) -> Matrix:
        """d(n): C_n -> C_{n-step}; the zero map where an end is off the complex."""
        k = n if self.step == 1 else n + 1
        if 1 <= k < len(self.anns):
            return self.diffs[k - 1]
        return Matrix.zeros(self.ring, len(self._anns(n - self.step)), len(self._anns(n)))

    def witness(self, n: int) -> Subquotient:
        """ker d(n) / im d(n+step) at level n, as a Subquotient."""
        self._check(n)
        s = self.step
        return presented_homology(self.d(n), self.d(n + s), self.anns[n], self._anns(n - s))

    def homology(self, n: int) -> FPModule:
        """The homology type at level n.  When levels n and n - step carry
        no annihilators it is read off ranks and invariant factors: rank
        n_n - rk d(n) - rk d(n+step), torsion the non-unit factors of
        d(n+step).  Otherwise it is the witness's module."""
        self._check(n)
        s = self.step
        if any(self.anns[n]) or any(self._anns(n - s)):
            return self.witness(n).module
        out, inc = self._factors_of(n), self._factors_of(n + s)
        torsion = tuple(d for d in inc if d != 1)
        return FPModule(self.ring, len(self.anns[n]) - len(out) - len(inc), torsion)

    def _factors_of(self, n: int) -> list:
        if n not in self._factors:
            self._factors[n] = invariant_factors(self.d(n))
        return self._factors[n]


def yoneda_matrix(N: CatModule, gens: list[str], targets: list[str],
                  images: list[dict], cochain: bool = False) -> Matrix:
    """A map of free modules collapsed against N by (co-)Yoneda.

    Generator i (at object gens[i]) maps to the sum of coeff * (j, psi)
    over the terms ((j, psi), coeff) of images[i], j indexing targets.  The
    block coeff * N(psi) goes at (target j, generator i), as a block of the
    tensored chain map; with cochain set it goes at (generator i, target j),
    as a block of the Hom cochain map.
    """
    def offsets(objs):
        out, total = [], 0
        for c in objs:
            out.append(total)
            total += N.rank(c)
        return out, total

    g_offs, g_dim = offsets(gens)
    t_offs, t_dim = offsets(targets)
    m = Matrix.zeros(N.ring, g_dim, t_dim) if cochain else Matrix.zeros(N.ring, t_dim, g_dim)
    for i, image in enumerate(images):
        for (j, psi), coeff in image.items():
            if cochain:
                m.add_block(g_offs[i], t_offs[j], N.act(psi), coeff)
            else:
                m.add_block(t_offs[j], g_offs[i], N.act(psi), coeff)
    return m


def _collapse(res: Resolution, N: CatModule, cochain: bool) -> PresentedComplex:
    """Level k is the sum of N(c_i) over the summands c_i of F_k; diffs[k-1]
    is the Yoneda collapse of F_k -> F_{k-1}."""
    anns = [[d for c in lvl.summands for d in N.anns[c]] for lvl in res.levels]
    diffs = [
        yoneda_matrix(N, res.levels[k].summands, res.levels[k - 1].summands,
                      res.gen_images[k], cochain)
        for k in range(1, res.length + 1)
    ]
    return PresentedComplex(N.ring, anns, diffs, -1 if cochain else 1)


def tensor_complex(res: Resolution, N: CatModule) -> PresentedComplex:
    """(F_* of the resolution) (x)_C N, collapsed by co-Yoneda."""
    if N.variance != (CO if res.variance == CONTRA else CONTRA):
        raise VarianceMismatch("tensor needs opposite variances")
    return _collapse(res, N, cochain=False)


def hom_complex(res: Resolution, N: CatModule) -> PresentedComplex:
    """Hom_C(F_*, N) for contravariant res and N, collapsed by Yoneda: a
    complex of step -1, whose diffs[q] is delta^q: C^q -> C^{q+1} and whose
    ``homology(q)`` is H^q."""
    if res.variance != CONTRA or N.variance != CONTRA:
        raise VarianceMismatch("Ext needs both modules contravariant")
    return _collapse(res, N, cochain=True)


def _oracle(M: CatModule, N: CatModule, n_max: int, strategy: str,
            collapse) -> list[FPModule]:
    """The homology types in degrees 0..n_max of ``collapse`` (the tensor
    or the Hom complex) of a free resolution of M against N."""
    if M.ring != N.ring:
        raise VarianceMismatch("M and N have different rings")
    cx = collapse(free_resolution(M, n_max + 1, strategy=strategy), N)
    return [cx.homology(q) for q in range(n_max + 1)]


def tor(M: CatModule, N: CatModule, n_max: int, strategy: str = "greedy") -> list[FPModule]:
    """Tor_q^{RC}(M, N) for q <= n_max via a free resolution of M."""
    if M.variance != CONTRA or N.variance != CO:
        raise VarianceMismatch("tor needs M contravariant, N covariant")
    return _oracle(M, N, n_max, strategy, tensor_complex)


def ext(M: CatModule, N: CatModule, n_max: int, strategy: str = "greedy") -> list[FPModule]:
    """Ext^q_{RC}(M, N) for q <= n_max; both modules contravariant."""
    if M.variance != CONTRA or N.variance != CONTRA:
        raise VarianceMismatch("ext needs both modules contravariant")
    return _oracle(M, N, n_max, strategy, hom_complex)


def horseshoe(iota: dict[str, Matrix], pi: dict[str, Matrix],
              resA: Resolution, resC: Resolution, middle: CatModule) -> Resolution:
    """The horseshoe resolution of the middle term of a short exact
    sequence 0 -> A -> B -> C -> 0 from resolutions of A and C.

    Levels are the direct sums (A summands first); the C-part of the
    differential carries a degreewise-solved correction into the A-part,
    and the C-part of the augmentation is a solved lift through pi.
    """
    ring = middle.ring
    cat = middle.cat
    out = Resolution(middle)
    depth = min(resA.length, resC.length)
    for k in range(depth + 1):
        out.levels.append(FreeCatModule(
            cat, ring, middle.variance,
            resA.levels[k].summands + resC.levels[k].summands,
        ))
    # augmentation
    for i, obj in enumerate(resA.levels[0].summands):
        out.aug_images.append(iota[obj].apply(resA.aug_images[i]))
    sigma0: list[dict] = []
    for i, obj in enumerate(resC.levels[0].summands):
        v = solve_mod(pi[obj], resC.M.anns[obj], resC.aug_images[i])
        if v is None:
            raise LiftFailed("horseshoe: no lift of the augmentation")
        out.aug_images.append(v)
        sigma0.append(v)

    h_prev: list[dict] = []  # per C-generator of level k-1: sparse over F(A)_{k-1}
    for k in range(1, depth + 1):
        lenA_prev = len(resA.levels[k - 1].summands)
        images: list[dict] = []
        for i in range(len(resA.levels[k].summands)):
            images.append(dict(resA.gen_images[k][i]))
        h_this: list[dict] = []
        for i, obj in enumerate(resC.levels[k].summands):
            dC = resC.gen_images[k][i]
            if k == 1:
                # minus sigma_0 extended to F(C)_0(obj) by the middle module's action
                rhs = _sum_terms(ring, [(t, -coeff * x) for (j, psi), coeff in dC.items()
                                        for t, x in middle.act(psi).apply(sigma0[j]).items()])
                mat = iota[obj] @ resA.eval_aug(obj)
                hvec = solve_mod(mat, middle.anns[obj], rhs)
                hkeyed = None if hvec is None else resA.levels[0].to_keys(obj, hvec)
            else:
                rhs = resA.levels[k - 2].push(obj, dC, h_prev)
                hkeyed = resA.lift(k - 1, obj, {t: ring.neg(x) for t, x in rhs.items()})
            if hkeyed is None:
                raise LiftFailed(f"horseshoe: no correction at level {k}")
            h_this.append(hkeyed)
            combined: dict = dict(hkeyed)
            for (j, psi), coeff in dC.items():
                combined[(j + lenA_prev, psi)] = coeff
            images.append(combined)
        out.gen_images.append(images)
        h_prev = h_this
    return out


# -- assembly ------------------------------------------------------------


def induce_free(F: Functor, res: Resolution) -> Resolution:
    """F_* of a free resolution: relabel summand objects and morphisms."""
    out = Resolution(res.M)  # M field only used for ring/variance here
    out.cat = F.dst
    out.levels = [
        FreeCatModule(F.dst, res.ring, res.variance,
                      [F.obj_map[c] for c in lvl.summands])
        for lvl in res.levels
    ]
    out.aug_images = res.aug_images
    out.gen_images = [[]]
    for k in range(1, res.length + 1):
        out.gen_images.append([
            _sum_terms(res.ring, (((j, F.mor_map[psi]), c) for (j, psi), c in sparse.items()))
            for sparse in res.gen_images[k]])
    return out


class AssemblyResult:
    def __init__(self, source: list[FPModule], target: list[FPModule],
                 maps: list[Matrix], iso: list[bool]):
        self.source = source
        self.target = target
        self.maps = maps
        self.iso = iso


def assembly_tor(F: Functor, N: CatModule, n_max: int) -> AssemblyResult:
    """The maps Tor_q^{RB}(R, F^*N) -> Tor_q^{RC}(R, N) induced by F.

    Computed by inducing a free resolution of the constant contravariant
    module over B, lifting through a free resolution of the constant
    module over C (degreewise linear solving; existence is projectivity
    plus exactness), and taking homology of the tensored complexes.
    """
    if N.variance != CO:
        raise VarianceMismatch("assembly_tor needs a covariant coefficient module")
    ring = N.ring
    B, C = F.src, F.dst
    constB = CatModule.constant(B, ring, CONTRA)
    constC = CatModule.constant(C, ring, CONTRA)
    P = free_resolution(constB, n_max + 1)
    Pp = free_resolution(constC, n_max + 1)
    FP = induce_free(F, P)

    # lift rho: F_* P -> P' over the counit F_* const_B -> const_C
    rho: list[list[dict]] = []  # per level, per generator: sparse over P'_k(obj)
    for k in range(n_max + 2):
        level_vecs = []
        for i, obj in enumerate(FP.levels[k].summands):
            # the augmentation value (a vector of length 1), or
            # rho_{k-1}(d(gen i)) inside P'_{k-1}(obj)
            rhs = (P.aug_images[i] if k == 0
                   else Pp.levels[k - 1].push(obj, FP.gen_images[k][i], rho[k - 1]))
            v = Pp.lift(k, obj, rhs)
            if v is None:
                raise LiftFailed(f"no lift at level {k} generator {i}")
            level_vecs.append(v)
        rho.append(level_vecs)

    src_cx = tensor_complex(FP, N)  # equals P (x)_B F^* N by adjunction
    dst_cx = tensor_complex(Pp, N)
    # chain map on tensored complexes from rho
    maps = []
    sources = []
    targets = []
    isos = []
    for q in range(n_max + 1):
        m = yoneda_matrix(N, FP.levels[q].summands, Pp.levels[q].summands, rho[q])
        src_h = src_cx.witness(q)
        dst_h = dst_cx.witness(q)
        hmap = induced_map(src_h, dst_h, m)
        maps.append(hmap)
        sources.append(src_h.module)
        targets.append(dst_h.module)
        src_anns, dst_anns = src_h.module.anns(), dst_h.module.anns()
        # 0 -> source -> target is exact at the source, and
        # source -> target -> 0 at the target
        injective = is_exact(hmap, Matrix.zeros(ring, len(src_anns), 0), src_anns, dst_anns)
        surjective = is_exact(Matrix.zeros(ring, 0, len(dst_anns)), hmap, dst_anns, [])
        isos.append(injective and surjective)
    return AssemblyResult(sources, targets, maps, isos)
