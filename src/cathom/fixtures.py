"""Standard categories, groups and modules used by the test and
acceptance suites: the point, the arrow [1], the chain poset 0<1<2,
one-object group categories, and orbit categories of small groups."""

from __future__ import annotations

from .catmod import CO, CONTRA, CatModule, FreeCatModule, action_ends
from .fincat import FiniteCategory
from .groups import FiniteGroup, group_category, orbit_category
from .resolve import scan_order
from .rings import Ring


def trivial_category() -> FiniteCategory:
    return FiniteCategory(
        ["*"], {"id": ("*", "*")}, {("id", "id"): "id"}, {"*": "id"}, name="pt"
    )


def arrow_category() -> FiniteCategory:
    mors = {"i0": ("0", "0"), "i1": ("1", "1"), "a": ("0", "1")}
    comp = {
        ("i0", "i0"): "i0",
        ("i1", "i1"): "i1",
        ("a", "i0"): "a",
        ("i1", "a"): "a",
    }
    return FiniteCategory(["0", "1"], mors, comp, {"0": "i0", "1": "i1"}, name="[1]")


def poset_category(n: int = 3) -> FiniteCategory:
    """The linear poset 0 < 1 < ... < n-1 as a category."""
    objs = [str(k) for k in range(n)]
    mors = {}
    for i in range(n):
        for j in range(i, n):
            mors[f"a{i}{j}"] = (str(i), str(j))
    comp = {}
    for f, (a, b) in mors.items():
        for g, (b2, c) in mors.items():
            if b != b2:
                continue
            comp[(g, f)] = f"a{a}{c}"
    ident = {str(k): f"a{k}{k}" for k in range(n)}
    return FiniteCategory(objs, mors, comp, ident, name="<".join(objs))


def idempotent_category() -> FiniteCategory:
    mors = {"id": ("*", "*"), "e": ("*", "*")}
    comp = {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e", ("e", "e"): "e"}
    return FiniteCategory(["*"], mors, comp, {"*": "id"}, name="idem")


def klein_four() -> FiniteGroup:
    return FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))


def support_module(cat: FiniteCategory, ring: Ring, variance: str,
                   support: set[str]) -> CatModule:
    """Rank-one value on a downward/upward-closed set of objects, zero off it.

    Actions are identities within the support and zero maps off it; the
    caller is responsible for closure (validated on construction).
    """
    from .matrix import Matrix

    anns = {c: [ring.zero] if c in support else [] for c in cat.objects}
    action = {}
    for f in cat.morphisms:
        src, tgt = action_ends(cat, variance, f)
        rows = len(anns[tgt])
        cols = [{0: ring.one} if rows else {} for _ in anns[src]]
        action[f] = Matrix.from_columns(ring, cols, rows)
    return CatModule(cat, variance, ring, anns, action)


def torsion_point_module(cat: FiniteCategory, ring: Ring, variance: str,
                         d: int = 2) -> CatModule:
    """One-object categories only: the value R/(d) with trivial action."""
    assert len(cat.objects) == 1
    obj = cat.objects[0]
    values = {obj: (1, [[d]])}
    from .matrix import Matrix

    raw = {f: Matrix.identity(ring, 1) for f in cat.morphisms}
    return CatModule.from_presentations(cat, variance, ring, values, raw)


def alternative_contravariant(cat: FiniteCategory, ring: Ring) -> CatModule:
    """A non-constant contravariant module for the fixture category.

    Multi-class categories: constant below the top class; one-object
    categories: the free module on the object (group ring), except the
    point, which gets a torsion value.
    """
    data = cat.iso_classes()
    if data.count == 1:
        if len(cat.morphisms) == 1:
            return torsion_point_module(cat, ring, CONTRA, 2)
        return FreeCatModule(cat, ring, CONTRA, [cat.objects[0]]).as_catmodule()
    order = scan_order(cat, CONTRA)
    top_class = data.class_of[order[0]]
    support = {c for c in cat.objects if data.class_of[c] != top_class}
    return support_module(cat, ring, CONTRA, support)


def augmentation_covariant(cat: FiniteCategory, ring: Ring) -> CatModule:
    """An augmentation-style covariant module: concentrated on the bottom
    class (the free-orbit class for orbit categories)."""
    data = cat.iso_classes()
    if data.count == 1:
        if len(cat.morphisms) == 1:
            return torsion_point_module(cat, ring, CO, 2)
        return FreeCatModule(cat, ring, CO, [cat.objects[0]]).as_catmodule()
    order = scan_order(cat, CO)
    bottom_class = data.class_of[order[0]]
    support = {c for c in cat.objects if data.class_of[c] == bottom_class}
    return support_module(cat, ring, CO, support)


FIXTURE_NAMES = [
    "point",
    "arrow",
    "poset012",
    "BZ2",
    "BZ3",
    "OrZ2",
    "OrZ3",
    "OrZ4",
    "OrV4",
    "OrS3",
]


def fixture_category(name: str) -> FiniteCategory:
    if name == "point":
        return trivial_category()
    if name == "arrow":
        return arrow_category()
    if name == "poset012":
        return poset_category(3)
    if name == "BZ2":
        return group_category(FiniteGroup.cyclic(2))
    if name == "BZ3":
        return group_category(FiniteGroup.cyclic(3))
    if name == "OrZ2":
        return orbit_category(FiniteGroup.cyclic(2))
    if name == "OrZ3":
        return orbit_category(FiniteGroup.cyclic(3))
    if name == "OrZ4":
        return orbit_category(FiniteGroup.cyclic(4))
    if name == "OrV4":
        return orbit_category(klein_four())
    if name == "OrS3":
        return orbit_category(FiniteGroup.symmetric(3))
    raise KeyError(name)


def fixture_modules(cat: FiniteCategory, ring: Ring):
    """(M options, N options) for the oracle convergence sweep."""
    Ms = {
        "const": CatModule.constant(cat, ring, CONTRA),
        "alt": alternative_contravariant(cat, ring),
    }
    Ns = {
        "const": CatModule.constant(cat, ring, CO),
        "aug": augmentation_covariant(cat, ring),
    }
    return Ms, Ns
