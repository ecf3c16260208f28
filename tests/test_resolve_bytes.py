"""Byte pins for the matrices built by collapsing a free resolution against
a coefficient module.

The Tor and Ext oracles, the assembly map and the cohomology double
complex all compare modules up to isomorphism, so a change of basis or of
block placement in these matrices would go unseen there.  These cases hash,
in a fixed order, every `tensor_complex` and `hom_complex` differential
(with the level annihilators), every `ExtFilteredComplex` vertical and
horizontal block, and every `assembly_tor` map matrix along the inclusion
of each one-object full subcategory.  A refactor of the Yoneda collapse
must leave all of them unchanged.
"""

import hashlib
import json

import pytest

from cathom.catmod import full_subcategory
from cathom.extpages import ExtFilteredComplex
from cathom.fixtures import fixture_category, fixture_modules
from cathom.resolve import assembly_tor, free_resolution, hom_complex, tensor_complex
from cathom.rings import GF, ZZ

RINGS = {"Z": ZZ, "F2": GF(2)}

CASES = [
    ("OrZ4", "Z",
     "18dc15b5db0d8ff1352cb795d4d2860de5c6d818a7bf630a53073ebb5f48c952"),
    ("OrZ4", "F2",
     "410f9ca2c81b1f73c184990395be21a40a48eb0ec8fc892a06a73328a03468fe"),
    ("OrV4", "Z",
     "73523282daef6ce3b14d5b6b0e6c9f1335bf1740d6db5e1f9f78e2b541a541bb"),
    ("OrV4", "F2",
     "278f563c8834dbaf528cbf2077a36101b4455e9965d1978a582dbf8081ca6728"),
    ("OrS3", "Z",
     "bf2be515912ee98683a49e23fb464d07d76a2cf94999081b64020dc1ad51f9d0"),
    ("OrS3", "F2",
     "b23d4f20b6798c7e89504b8368efcb7a3d45b9e72f1c11c7a853cbf4a5d2fe2b"),
]


def resolve_internals_digest(cat_name, tag, length=4):
    cat = fixture_category(cat_name)
    Ms, Ns = fixture_modules(cat, RINGS[tag])
    h = hashlib.sha256()

    def feed(label, mat):
        h.update(json.dumps([label, mat.rows, mat.cols, mat.data]).encode())

    def feed_complex(label, cx):
        h.update(json.dumps([label, "anns", cx.anns]).encode())
        for k, mat in enumerate(cx.diffs):
            feed([label, k], mat)

    for m, M in Ms.items():
        res = free_resolution(M, length)
        for n, N in Ns.items():
            feed_complex(["tensor", m, n], tensor_complex(res, N))
        for n, N in Ms.items():
            feed_complex(["hom", m, n], hom_complex(res, N))
            fcx = ExtFilteredComplex(M, N)
            for p in range(fcx.p_max + 1):
                for q in range(fcx.q_max + 1):
                    h.update(json.dumps(["anns", m, n, p, q, fcx.block_anns(p, q)]).encode())
                    if q < fcx.q_max:
                        feed(["vertical", m, n, p, q], fcx.vertical(p, q))
                    if p < fcx.p_max:
                        feed(["horizontal", m, n, p, q], fcx.horizontal(p, q))
    for obj in cat.objects:
        _, inc = full_subcategory(cat, [obj])
        for n, N in Ns.items():
            res = assembly_tor(inc, N, 2)
            for q, mat in enumerate(res.maps):
                feed(["assembly", obj, n, q], mat)
    return h.hexdigest()


@pytest.mark.parametrize("cat_name,tag,digest", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_resolve_internals_digest(cat_name, tag, digest):
    assert resolve_internals_digest(cat_name, tag) == digest
