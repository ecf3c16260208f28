"""Content-addressed disk cache with atomic writes.

Keys are hex digests; values are JSON documents.  Writes go through a
temporary file in the same directory followed by os.replace, so readers
never see partial content.  Format-versioned: the version participates
in every key.  Each resolution entry carries the sha256 of its payload;
an entry that is not UTF-8 JSON, whose digest does not match, or whose
payload does not parse as a resolution over the module's category (every
summand an object, every term index a summand of the level below, every
morphism one between the right objects), or whose maps do not form a
complex over the module (``Resolution.is_complex``: aug . d1 = 0 modulo the
module's relations and d.d = 0 at every object), is a miss and is
recomputed and overwritten.  An entry path that cannot be written, such as
a directory, is an input error.
"""

from __future__ import annotations

import json
import os
import tempfile

from .catmod import CatModule, FreeCatModule, action_ends
from .resolve import Resolution, free_resolution
from .serialize import ParseError, category_to_json, content_hash, module_to_json

CACHE_FORMAT = "cathom-cache-v2"


class DiskCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str):
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                return json.load(fh)
        # ValueError: not UTF-8, or not JSON; RecursionError: nested too deeply
        except (OSError, ValueError, RecursionError):
            return None

    def put(self, key: str, payload) -> None:
        path = self._path(key)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as e:
            raise ParseError(f"cache entry {path!r} cannot be written: {e.strerror or e}") from None


def resolution_to_json(res: Resolution) -> dict:
    gen_images = []
    for k in range(1, res.length + 1):
        level = []
        for sparse in res.gen_images[k]:
            level.append(
                [[j, psi, res.ring.entry_to_json(c)] for (j, psi), c in sorted(sparse.items())]
            )
        gen_images.append(level)
    z = res.ring.zero
    aug = [
        [res.ring.entry_to_json(v.get(i, z)) for i in range(res.M.rank(c))]
        for c, v in zip(res.levels[0].summands, res.aug_images)
    ]
    return {
        "levels": [list(lvl.summands) for lvl in res.levels],
        "aug": aug,
        "gen_images": gen_images,
    }


def resolution_from_json(M: CatModule, d: dict) -> Resolution:
    """The resolution a payload describes, checked in one pass: a ValueError
    unless it names only M's objects and morphisms, fits M's ranks and
    has one generator image, over the level below, per summand."""
    res = Resolution(M)
    cat, ring = M.cat, M.ring
    levels = d["levels"]
    for summands in levels:
        if not all(c in cat.identity for c in summands):
            raise ValueError("a summand is not an object of the category")
    res.levels = [FreeCatModule(cat, ring, M.variance, summands) for summands in levels]
    if len(d["aug"]) != len(levels[0]) or len(d["gen_images"]) != len(levels) - 1:
        raise ValueError("the payload's levels do not match its images")
    res.aug_images = []
    for c, v in zip(levels[0], d["aug"]):
        if len(v) != M.rank(c):
            raise ValueError(f"an augmentation image is not a vector of M({c})")
        res.aug_images.append({i: x for i, x in enumerate(map(ring.entry_from_json, v)) if x})
    res.gen_images = [[]]
    for k, level in enumerate(d["gen_images"], start=1):
        below = levels[k - 1]
        if len(level) != len(levels[k]):
            raise ValueError(f"level {k} has {len(level)} images for {len(levels[k])} summands")
        out = []
        for c, terms in zip(levels[k], level):
            image = {}
            for j, psi, x in terms:
                # psi is a basis element of R mor(c, below[j]) (contravariant)
                # or R mor(below[j], c) (covariant): it acts below[j] -> c
                if not (0 <= j < len(below) and psi in cat.morphisms
                        and action_ends(cat, M.variance, psi) == (below[j], c)):
                    raise ValueError(f"a term of level {k} names no morphism of the category")
                image[(j, psi)] = ring.entry_from_json(x)
            out.append(image)
        res.gen_images.append(out)
    return res


def cached_free_resolution(M: CatModule, length: int, cache: DiskCache | None) -> Resolution:
    """free_resolution with an optional content-addressed disk cache."""
    if cache is None:
        return free_resolution(M, length)
    key = content_hash({
        "format": CACHE_FORMAT,
        "kind": "resolution",
        "category": category_to_json(M.cat),
        "module": module_to_json(M),
        "length": length,
    })
    hit = cache.get(key)
    if isinstance(hit, dict) and hit.get("digest") == content_hash(hit.get("resolution")):
        try:
            res = resolution_from_json(M, hit["resolution"])
            if res.length == length and res.is_complex():
                return res
        except (KeyError, TypeError, ValueError, IndexError):
            pass  # an entry that does not parse is a miss
    res = free_resolution(M, length)
    payload = resolution_to_json(res)
    cache.put(key, {"digest": content_hash(payload), "resolution": payload})
    return res
