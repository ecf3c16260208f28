"""JSON schemas and hashing for all workspace entities.

Categories: {"objects": [...], "morphisms": [{"id","src","tgt"}...],
"compose": [[g, f, gf]...], "identity": {obj: mor}}.
Groups: {"order": n, "table": [[...]]} or {"perm_gens": [...], "degree": n}.
Families: {"subgroups": [[element ids]...], "closure": "auto"|"strict"}.
Modules: {"variance": "contra"|"co", "ring": ..., "values":
{obj: {"rank": r, "relations": [[...]]}}, "action": {mor: [[...]]}}.
Bundles collect named entities in one self-describing document and hash
to a stable content address.
"""

from __future__ import annotations

import hashlib
import json

from .catmod import CatModule, action_ends
from .fincat import FiniteCategory
from .groups import GROUP_ORDER_BOUND, FiniteGroup, GroupTooLarge, SubgroupFamily
from .matrix import Matrix
from .rings import ring_from_tag

BUNDLE_FORMAT = "cathom-bundle-v1"


class ParseError(ValueError):
    pass


def _object(value, name: str) -> dict:
    """value itself when it is a JSON object; otherwise a ParseError that
    names it."""
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be an object, not {type(value).__name__}")
    return value


def _field(value, where: str, key: str):
    """value[key] for a JSON object value; otherwise a ParseError that
    names value, or the key it lacks."""
    if key not in _object(value, where):
        raise ParseError(f"{where} has no {key!r}")
    return value[key]


def _name(value, where: str) -> str:
    """value itself when it is a string; otherwise a ParseError naming where."""
    if not isinstance(value, str):
        raise ParseError(f"{where} must be a string, not {type(value).__name__}")
    return value


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# -- categories ----------------------------------------------------------


def category_to_json(cat: FiniteCategory) -> dict:
    return {
        "objects": list(cat.objects),
        "morphisms": [
            {"id": f, "src": a, "tgt": b} for f, (a, b) in sorted(cat.morphisms.items())
        ],
        "compose": [
            [g, f, gf] for (g, f), gf in sorted(cat.compose_table.items())
        ],
        "identity": dict(sorted(cat.identity.items())),
        "name": cat.name,
    }


def category_from_json(d: dict) -> FiniteCategory:
    try:
        objects, morphisms, compose, identity = (
            _field(d, "'category'", key) for key in ("objects", "morphisms", "compose", "identity"))
        objects = [_name(c, f"object entry {i}") for i, c in enumerate(objects)]
        mors = {}
        for i, m in enumerate(morphisms):
            f, a, b = (_name(_field(m, f"morphism entry {i}", key), f"morphism entry {i} {key!r}")
                       for key in ("id", "src", "tgt"))
            mors[f] = (a, b)
        comp = {}
        for i, triple in enumerate(compose):
            g, f, gf = (_name(x, f"compose entry {i}") for x in triple)
            comp[(g, f)] = gf
        identity = {c: _name(e, f"identity of {c!r}")
                    for c, e in _object(identity, "'identity'").items()}
        return FiniteCategory(objects, mors, comp, identity, name=d.get("name", "C"))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad category JSON: {e}") from e


# -- groups and families ---------------------------------------------------


def _is_index(x, n) -> bool:
    """Whether x is an integer in 0..n-1 (a JSON boolean is not)."""
    return type(x) is int and 0 <= x < n


def group_to_json(G: FiniteGroup) -> dict:
    return {"order": G.n, "table": [list(r) for r in G.table], "name": G.name}


def group_from_json(d: dict) -> FiniteGroup:
    try:
        if "table" in d:
            n = len(d["table"])
            if n > GROUP_ORDER_BOUND:
                raise GroupTooLarge(f"|G| = {n} exceeds the group order bound "
                                    f"{GROUP_ORDER_BOUND}")
            if any(len(row) != n or not all(_is_index(x, n) for x in row) for row in d["table"]):
                raise ParseError(f"group table must be {n} x {n} with entries 0..{n - 1}")
            G = FiniteGroup(d["table"], name=d.get("name", "G"))
            if "order" in d and d["order"] != G.n:
                raise ParseError("declared order does not match the table")
            return G
        if "perm_gens" in d:
            gens = [[tuple(c) for c in g] for g in d["perm_gens"]]
            if any(not _is_index(x, d["degree"]) for g in gens for c in g for x in c):
                raise ParseError(f"perm_gens name a point outside 0..{d['degree'] - 1}")
            return FiniteGroup.from_permutations(
                gens, d["degree"], name=d.get("name", "G")
            )
    except ParseError:
        raise
    except GroupTooLarge as e:
        raise ParseError(str(e)) from None
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad group JSON: {e}") from e
    raise ParseError("group JSON needs 'table' or 'perm_gens'")


def family_to_json(F: SubgroupFamily) -> dict:
    return {
        "subgroups": [sorted(H) for H in F.members],
        "closure": "strict",
    }


def family_from_json(G: FiniteGroup, d: dict) -> SubgroupFamily:
    try:
        closure = d.get("closure", "auto") == "auto"
        members = [frozenset(H) for H in d["subgroups"]]
        if any(not _is_index(x, G.n) for H in members for x in H):
            raise ParseError(f"a subgroup names an element outside 0..{G.n - 1}")
        return SubgroupFamily(G, members, closure=closure)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad family JSON: {e}") from e


# -- modules ----------------------------------------------------------------


def module_to_json(M: CatModule) -> dict:
    values = {}
    for c in M.cat.objects:
        anns = M.anns[c]
        relations = []
        for i, a in enumerate(anns):
            if a:
                row = [0] * len(anns)
                row[i] = int(a)
                relations.append(row)
        values[c] = {"rank": len(anns), "relations": relations}
    action = {f: M.action[f].entries_json() for f in sorted(M.cat.morphisms)}
    out = dict(M.ring.to_json())
    out["variance"] = M.variance
    out["values"] = values
    out["action"] = action
    return out


def module_from_json(cat: FiniteCategory, d: dict) -> CatModule:
    try:
        ring = ring_from_tag(_field(d, "module", "ring"), d.get("p"))
        values_json = _field(d, "module", "values")
        values = {}
        for c in cat.objects:
            v = _field(values_json, "'values'", c)
            rank = _field(v, f"'values' at {c!r}", "rank")
            if type(rank) is not int or rank < 0:
                raise ParseError(f"rank at {c!r} is {rank!r}, not a non-negative integer")
            values[c] = (rank, v.get("relations", []))
            if any(len(row) > rank for row in values[c][1]):
                raise ParseError(f"a relation row at {c!r} is longer than its rank {rank}")
        action = _object(_field(d, "module", "action"), "'action'")
        variance = _field(d, "module", "variance")
        unknown = sorted(set(action) - set(cat.morphisms))
        if unknown:
            raise ParseError(f"action names unknown morphism {unknown[0]!r}")
        raw_action = {}
        for f in cat.morphisms:
            rows = _field(action, "'action'", f)
            src, tgt = action_ends(cat, variance, f)
            if rows:
                raw_action[f] = Matrix(ring, rows)
                shape = (values[tgt][0], values[src][0])
                if (raw_action[f].rows, raw_action[f].cols) != shape:
                    raise ParseError(
                        f"action of {f!r} is {raw_action[f].rows}x{raw_action[f].cols},"
                        f" not {shape[0]}x{shape[1]}")
            else:
                raw_action[f] = Matrix.zeros(
                    ring, values[tgt][0], values[src][0]
                )
        return CatModule.from_presentations(cat, variance, ring, values, raw_action)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad module JSON: {e}") from e


# -- bundles ------------------------------------------------------------------


def bundle_to_json(cat: FiniteCategory, modules: dict[str, CatModule] | None = None,
                   groups: dict[str, FiniteGroup] | None = None,
                   families: dict[str, tuple[str, SubgroupFamily]] | None = None) -> dict:
    out = {"format": BUNDLE_FORMAT, "category": category_to_json(cat)}
    if modules:
        out["modules"] = {k: module_to_json(m) for k, m in sorted(modules.items())}
    if groups:
        out["groups"] = {k: group_to_json(g) for k, g in sorted(groups.items())}
    if families:
        out["families"] = {
            k: {"group": gname, **family_to_json(f)}
            for k, (gname, f) in sorted(families.items())
        }
    return out


class Workspace:
    """Named, validated entities loaded from a bundle, with provenance."""

    def __init__(self, cat: FiniteCategory, modules: dict, groups: dict,
                 families: dict, source: str, digest: str,
                 violations: list[str] | None = None):
        self.category = cat
        self.modules = modules
        self.groups = groups
        self.families = families
        self.source = source
        self.digest = digest
        self.violations = violations or []


def _section(d: dict, name: str) -> dict:
    """The bundle's ``name`` object (empty when absent)."""
    return _object(d.get(name, {}), repr(name))


def workspace_from_json(d: dict, source: str = "<memory>",
                        strict: bool = True) -> Workspace:
    """Build a workspace.  With strict=True any violation raises
    ParseError; with strict=False violations are collected on the
    workspace so a validator can list them all."""
    if not isinstance(d, dict) or d.get("format") != BUNDLE_FORMAT:
        raise ParseError(f"not a {BUNDLE_FORMAT} document")
    digest = content_hash(d)
    violations: list[str] = []
    cat = category_from_json(_field(d, "bundle", "category"))
    report = cat.validate()
    if not report.ok:
        if strict:
            # one line: the first violation; validate lists them all
            first, *rest = report.violations
            more = f" (and {len(rest)} more; validate lists them)" if rest else ""
            raise ParseError(f"invalid category: {first}{more}")
        violations.extend(report.violations)
    groups_json = _section(d, "groups")
    families_json = _section(d, "families")
    modules_json = _section(d, "modules")
    groups = {}
    for k, g in groups_json.items():
        G = group_from_json(g)
        # a perm_gens group is closed under composition of permutations,
        # so it is a group by construction; only a table is checked
        problems = G.validate() if "table" in g else []
        if problems:
            if strict:
                raise ParseError(f"invalid group {k!r}: " + "; ".join(problems))
            violations.extend(f"group {k!r}: {p}" for p in problems)
        groups[k] = G
    families = {}
    for k, f in families_json.items():
        gname = f.get("group") if isinstance(f, dict) else None
        if not (isinstance(gname, str) and gname in groups):
            msg = (f"family {k!r} references unknown group {gname!r}"
                   if isinstance(f, dict) else f"family {k!r} must be an object")
            if strict:
                raise ParseError(msg)
            violations.append(msg)
            continue
        try:
            families[k] = (gname, family_from_json(groups[gname], f))
        except ParseError as e:
            if strict:
                raise
            violations.append(f"family {k!r}: {e}")
    modules = {}
    if report.ok:
        for k, m in modules_json.items():
            try:
                modules[k] = module_from_json(cat, _object(m, f"module {k!r}"))
            except ParseError as e:
                msg = f"module {k!r}: {e}" if isinstance(m, dict) else str(e)
                if strict:
                    raise ParseError(msg) from None
                violations.append(msg)
    return Workspace(cat, modules, groups, families, source, digest, violations)


def load_bundle(path: str, strict: bool = True) -> Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 at byte {e.start}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return workspace_from_json(d, source=path, strict=strict)
