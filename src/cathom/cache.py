"""Content-addressed disk cache with atomic writes.

Keys are hex digests; values are JSON documents.  Writes go through a
temporary file in the same directory followed by os.replace, so readers
never see partial content.  Format-versioned: the version participates
in every key.  Each resolution entry carries the sha256 of its payload;
an entry whose digest does not match, or whose payload does not parse as
a resolution, is a miss and is recomputed and overwritten.
"""

from __future__ import annotations

import json
import os
import tempfile

from .catmod import CatModule
from .resolve import Resolution, free_resolution
from .serialize import category_to_json, content_hash, module_to_json

CACHE_FORMAT = "cathom-cache-v2"


class DiskCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str):
        try:
            with open(self._path(key)) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, payload) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


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
    from .catmod import FreeCatModule

    res = Resolution(M)
    ring = M.ring
    res.levels = [
        FreeCatModule(M.cat, ring, M.variance, summands) for summands in d["levels"]
    ]
    res.aug_images = [
        {i: x for i, x in enumerate(map(ring.entry_from_json, v)) if x} for v in d["aug"]
    ]
    res.gen_images = [[]]
    for level in d["gen_images"]:
        out = []
        for terms in level:
            out.append({(j, psi): ring.entry_from_json(c) for j, psi, c in terms})
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
            return resolution_from_json(M, hit["resolution"])
        except (KeyError, TypeError, ValueError, IndexError):
            pass  # an entry that does not parse is a miss
    res = free_resolution(M, length)
    payload = resolution_to_json(res)
    cache.put(key, {"digest": content_hash(payload), "resolution": payload})
    return res
