"""Byte pins for Smith normal form and the canonical quotients built on it.

Most callers of `smith_normal_form` compare modules up to isomorphism, so a
change in the pivot order or in the sequence of elementary operations would
go unseen there, while it changes every projection matrix downstream.
These cases hash U, Uinv, V, Vinv and S on seeded random matrices over Z,
Q, F_2 and F_5 (square, wide, tall, zero and empty shapes), and the
projection and lift matrices of the `CanonicalQuotient` of every homology
cell of the OrV4 filtered complex over Z.  A rewrite of the kernel must
leave all of them unchanged.

The quotient matrices are read through `induced_map` to and from the free
module without relations, whose projection and lifts are the identity, so
the pin does not depend on how vectors are represented.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from cathom.fixtures import fixture_category, fixture_modules
from cathom.fpmod import CanonicalQuotient, induced_map
from cathom.intlin import smith_normal_form
from cathom.matrix import Matrix
from cathom.rings import GF, QQ, ZZ
from cathom.spectral import build_filtered_complex

RINGS = {"Z": ZZ, "Q": QQ, "F2": GF(2), "F5": GF(5)}

# (rows, cols): square, wide, tall, vectors and the empty shapes
SHAPES = [(1, 1), (3, 3), (5, 5), (7, 7), (2, 5), (3, 8), (5, 2), (8, 3),
          (1, 6), (6, 1), (0, 4), (4, 0), (0, 0)]

SNF_CASES = [
    ("Z", "019cca86ae71ebda77064aac3fb02bbd22cbc448517ecba53e02ac9732abe9c1"),
    ("Q", "712d4af653e127e36d9c71c620e8efeb6a4988067925418e88ac72cf8bd704ea"),
    ("F2", "c8f5a4eb92b61196bfcf92bd8af58de4e0731d63c9e5b7a0dce0d583fe289cf2"),
    ("F5", "74b69876be101c9b120965d36f2137767c8398d526db1d5349feeb61c3cc362d"),
]

QUOTIENT_DIGEST = "1a7b1b41378fdd02944990bf60ac32fba9e04745f71d259a71a978917e6abe45"


def _entry(rng, tag):
    if rng.random() < 0.6:
        return 0
    x = rng.choice([1, -1, 2, -2, 3, -4, 6, 9, -12])
    if tag == "Q" and rng.random() < 0.3:
        return Fraction(x, rng.choice([2, 3, 4]))
    return x


def _feed(h, label, mat):
    h.update(json.dumps([label, [[str(x) for x in row] for row in mat.data]]).encode())


def snf_digest(tag, trials=4):
    ring = RINGS[tag]
    rng = random.Random(f"snf-{tag}")
    h = hashlib.sha256()
    for rows, cols in SHAPES:
        mats = [Matrix.zeros(ring, rows, cols)]
        for _ in range(trials):
            mats.append(Matrix(ring, [[_entry(rng, tag) for _ in range(cols)]
                                      for _ in range(rows)], cols=cols))
        for k, A in enumerate(mats):
            r = smith_normal_form(A)
            for name in ("U", "Uinv", "V", "Vinv", "S"):
                _feed(h, [rows, cols, k, name], getattr(r, name))
    return h.hexdigest()


def quotient_digest():
    cat = fixture_category("OrV4")
    Ms, Ns = fixture_modules(cat, ZZ)
    h = hashlib.sha256()
    for m, n in (("const", "const"), ("alt", "aug")):
        fc = build_filtered_complex(Ms[m], Ns[n], q_max=3)
        for (p, q) in sorted(fc.cells):
            cq = fc.cells[(p, q)].quot.quot
            n_amb = cq.ambient
            free = CanonicalQuotient(ZZ, n_amb, [])
            ident = Matrix.identity(ZZ, n_amb)
            h.update(json.dumps([m, n, p, q, cq.module.anns()]).encode())
            _feed(h, [m, n, p, q, "project"], induced_map(free, cq, ident))
            _feed(h, [m, n, p, q, "lift"], induced_map(cq, free, ident))
    return h.hexdigest()


@pytest.mark.parametrize("tag,digest", SNF_CASES, ids=[c[0] for c in SNF_CASES])
def test_snf_digest(tag, digest):
    assert snf_digest(tag) == digest


def test_canonical_quotient_digest():
    assert quotient_digest() == QUOTIENT_DIGEST
