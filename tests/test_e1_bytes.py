"""Byte pins for the E^1 chain-column internals.

`verify_e1` and the E^1 tests compare modules up to isomorphism, so a
change of basis inside a chain column would go unseen there.  These cases
hash every matrix the column code produces on left-free fixtures: each
`ChainColumn.vert` map, each `d1_face_block` and each `d1_components`
matrix, in a fixed order.  A refactor of the coequalizer or of the maps
between raw generators must leave all of them unchanged.
"""

import hashlib
import json

import pytest

from cathom.e1data import ChainColumn, TransportTables, d1_components, d1_face_block
from cathom.fixtures import fixture_category, fixture_modules
from cathom.rings import GF, ZZ
from cathom.spectral import build_filtered_complex

RINGS = {"Z": ZZ, "F2": GF(2)}

CASES = [
    ("OrZ4", "Z", "const", "const",
     "991d820ff423aed1ff7c10cda1f08c9312088c61b095bf183f3bb7259528bb9a"),
    ("OrZ4", "Z", "alt", "aug",
     "037cf94c96d18e6d63efa817f5f766dead076e8001a8db3ae467041acd284239"),
    ("OrZ4", "F2", "const", "const",
     "0c1e8405dece7a6d959f1eb4ed15915c31e9b6a8fea292e2d5efa0f4472eb5fd"),
    ("OrZ4", "F2", "alt", "aug",
     "d899753ed41ed4057f21331590284157fbc0c08f42a69a2d7bd14b34a0e14af8"),
    ("OrV4", "Z", "const", "const",
     "28ed35ce49be4b5460ca3089ec98e50156dc5242628f78a96215624338a75fef"),
    ("OrV4", "Z", "alt", "aug",
     "3e0a2fa2e0503ca675b12bb49635ab9ca65dda6a2d8616a47a4233e1832f5dfa"),
    ("OrV4", "F2", "const", "const",
     "d519bb1816ef39308daac9d9312a949ccfe095de28fab7cd78eb07ff01f5068d"),
    ("OrV4", "F2", "alt", "aug",
     "6773d73e68e19e4883f8fd15098e6f9382828de5b25df858d5f01c685ecb47f0"),
    ("OrS3", "Z", "const", "const",
     "7aa5d76862c6dffbb25989863af9a94ee24ca92c853589c0cb118fad8820f1ae"),
    ("OrS3", "Z", "alt", "aug",
     "0db4028c5d20d867763f7de5fb795efcd8e8b3cbd3b6e6b8ebc642dfe5363e01"),
    ("OrS3", "F2", "const", "const",
     "0a04bb46f61b5c077d44a14e7a5d7efd38767b391bbf914b56081af48300d698"),
    ("OrS3", "F2", "alt", "aug",
     "156ba002dc29a549f812d0e6e3265788e1914365318cc08261ba374685158be9"),
]


def e1_internals_digest(cat_name, tag, m, n, q_max=4):
    cat = fixture_category(cat_name)
    Ms, Ns = fixture_modules(cat, RINGS[tag])
    fc = build_filtered_complex(Ms[m], Ns[n], q_max=q_max)
    h = hashlib.sha256()

    def feed(label, mat):
        h.update(json.dumps([label, mat.rows, mat.cols, mat.data]).encode())

    tables = TransportTables(fc)
    columns = {}
    for p in sorted(fc.chains):
        for chain in fc.chains[p]:
            vert = ChainColumn(fc, p, chain).vert
            for q in range(1, fc.q_max + 1):
                feed(["vert", p, chain.reps, q], vert[q])
            if p == 0:
                continue
            for q in range(fc.q_max):
                for comp in d1_components(fc, p, chain, q, tables, columns):
                    i = comp["i"]
                    feed(["component", p, chain.reps, q, i], comp["matrix"])
                    feed(["face", p, chain.reps, q, i],
                         d1_face_block(fc, p, chain, i, q, columns))
    return h.hexdigest()


@pytest.mark.parametrize("cat_name,tag,m,n,digest", CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}" for c in CASES])
def test_e1_internals_digest(cat_name, tag, m, n, digest):
    assert e1_internals_digest(cat_name, tag, m, n) == digest
