"""Byte pins for `cathom ext` and `cathom ss` documents.

Each case writes a fixture bundle, runs the command with `--nmax 3` and
compares the sha256 of the output document with a recorded digest.  The
digests fix every byte: pages, differential matrices, the convergence
report and (for `ext`) the E_1 product-form rows.  A refactor of the page
engine must leave all of them unchanged.  The `verify_e1` cases hash the
canonical JSON of the E^1 report, whose group-level side (the bar complex
and its torsion fallback) no document pin reaches.  The remaining cases
pin the `family --assembly`, table-format and cache-key paths on the
OrZ2 bundle with the group S3 and its family of all subgroups.
"""

import hashlib
import json
import os

import pytest

from cathom.cli import main
from cathom.e1data import verify_e1
from cathom.fixtures import fixture_category, fixture_modules
from cathom.groups import FiniteGroup, SubgroupFamily
from cathom.rings import GF, ZZ
from cathom.serialize import bundle_to_json, canonical_json

RINGS = {"Z": ZZ, "F2": GF(2)}

CASES = [
    ("ext", "OrZ2", "Z", "Mconst", "Malt",
     "382872eeb4ee0a4a0ae0e0df950f25e7ecceae24173538f829b04221ef409f1f"),
    ("ext", "OrZ2", "F2", "Mconst", "Malt",
     "9a6b3e467aa6a8dbfea388e7f3fae00af29b12d9973fe8e2d1734e8d94195cb3"),
    ("ext", "OrZ3", "Z", "Mconst", "Malt",
     "d753bcbee0b4175e10a57ecf468a2de9b95aa62a8dd1430f445240c8e036a09c"),
    ("ext", "OrZ3", "F2", "Mconst", "Malt",
     "37f146a937463a77c8db9f26d1306cbe6e77a3222f407517da702a66d6547620"),
    ("ext", "OrZ4", "Z", "Mconst", "Malt",
     "8f2983da6b36b40e6a6449a5f683d794ef1e83dc8367f2c7f87a894edcb71250"),
    ("ss", "OrZ2", "Z", "Mconst", "Nconst",
     "99f0b52785a2d2e70b5081879a9ce75a81e40ebbb2091077977273a9c45a46a6"),
    ("ss", "OrZ4", "F2", "Malt", "Naug",
     "d2ab91da20ccb30f02f4f3062aef597fbc2cccefca653519cf8a92368dfcce59"),
]


@pytest.mark.parametrize("command,cat_name,tag,m,n,digest", CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}-{c[4]}" for c in CASES])
def test_document_digest(tmp_path, command, cat_name, tag, m, n, digest):
    cat = fixture_category(cat_name)
    Ms, Ns = fixture_modules(cat, RINGS[tag])
    doc = bundle_to_json(cat, modules={"Mconst": Ms["const"], "Malt": Ms["alt"],
                                       "Nconst": Ns["const"], "Naug": Ns["aug"]})
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main([command, str(bundle), "-M", m, "-N", n, "--nmax", "3",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


ASSEMBLY_CASES = [
    ("Naug", "917c4845edd7dc90db7c3558cb55a8d067eebf98795aba59240fbe8dc57a911e"),
    ("Nconst", "dfd1fb4588c0a1d285f2f6d1998c4e93b3ade1031df0d514582db1656eaef083"),
]


@pytest.mark.parametrize("n,digest", ASSEMBLY_CASES, ids=[c[0] for c in ASSEMBLY_CASES])
def test_assembly_document_digest(tmp_path, n, digest):
    """`cathom assembly` on OrZ4/Z along the first object, default --nmax:
    the document that carries the assembly map matrices."""
    cat = fixture_category("OrZ4")
    _, Ns = fixture_modules(cat, ZZ)
    doc = bundle_to_json(cat, modules={"Nconst": Ns["const"], "Naug": Ns["aug"]})
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["assembly", str(bundle), "-N", n, "--objects", cat.objects[0],
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


TOR_CASES = [
    # levels with Z-torsion: the oracle reads the witnesses (Z/2, Z/2, 0, 0)
    ("point", "Z", "Malt", "Naug",
     "208e70f2c625ea8b59dbf4df1a3c4cfaffa4799dc900bf7123231e0d40348164"),
    ("OrS3", "F2", "Malt", "Naug",
     "f83af6ef85309dadfe0e6ec9660e226bfa9b2c717a7e60a899acb7b155933080"),
    # H_*(Z/2; Z) = Z, Z/2, 0, Z/2
    ("BZ2", "Z", "Mconst", "Nconst",
     "ac5507151fae4ac40a6470b6b5fb71718eb9bd33fe87a1f59376256ae7c644b2"),
]


@pytest.mark.parametrize("cat_name,tag,m,n,digest", TOR_CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}" for c in TOR_CASES])
def test_tor_document_digest(tmp_path, cat_name, tag, m, n, digest):
    """`cathom tor` with `--nmax 3`: the Tor oracle's document."""
    cat = fixture_category(cat_name)
    Ms, Ns = fixture_modules(cat, RINGS[tag])
    doc = bundle_to_json(cat, modules={"Mconst": Ms["const"], "Malt": Ms["alt"],
                                       "Nconst": Ns["const"], "Naug": Ns["aug"]})
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["tor", str(bundle), "-M", m, "-N", n, "--nmax", "3",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


E1_CASES = [
    # the two e1-bar pairs
    ("OrS3", "const", "const",
     "b7ebd49f9c1353240bd253f3930198d908c6bcf926ad367651409c399d4f0c84"),
    ("OrS3", "alt", "aug",
     "030e808700e55b6c4758e42d11dafbbcd3c6d441065bb4a3e4593b7e60cefd67"),
    # both sides carry Z-torsion: group_tor's resolution fallback
    ("point", "alt", "aug",
     "92337915a96b777d9f91d9b8578cd4c2ddd74eab63d8aba6aa74f5660d467672"),
]


@pytest.mark.parametrize("cat_name,m,n,digest", E1_CASES,
                         ids=[f"{c[0]}-Z-{c[1]}-{c[2]}" for c in E1_CASES])
def test_e1_report_digest(cat_name, m, n, digest):
    """`verify_e1(M, N, 3)` over Z: the canonical JSON of its report."""
    cat = fixture_category(cat_name)
    Ms, Ns = fixture_modules(cat, ZZ)
    text = canonical_json(verify_e1(Ms[m], Ns[n], 3).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture()
def orz2_bundle(tmp_path):
    """OrZ2 over Z with its four modules, the group S3 and the family
    "all" of its subgroups."""
    cat = fixture_category("OrZ2")
    Ms, Ns = fixture_modules(cat, ZZ)
    G = FiniteGroup.symmetric(3)
    doc = bundle_to_json(
        cat,
        modules={"Mconst": Ms["const"], "Malt": Ms["alt"],
                 "Nconst": Ns["const"], "Naug": Ns["aug"]},
        groups={"S3": G},
        families={"all": ("S3", SubgroupFamily.all_subgroups(G))},
    )
    path = tmp_path / "orz2.json"
    path.write_text(json.dumps(doc))
    return str(path)


OTHER_CASES = [
    (["family", "--family", "all", "--assembly"],
     "d0f4ebe1b5e798ab39b23698c0fdb8c148fcef861e859d0663df4b0c72958558"),
    (["family", "--family", "all", "--assembly", "--nmax", "2", "--ring", "Q"],
     "84bdb860a7783a8be28e1f37dd437ceddbefd87c75e07b06f252b270b2d1123a"),
    (["ss", "-M", "Malt", "-N", "Naug", "--format", "table"],
     "1cb3dff82d33f504a6921680b07176e88ccd3bca2bdaf4e5cde3363b69667884"),
    (["chains", "--format", "table"],
     "a515baf27ab54d7698cf66fc48da469b2a61c44cbecd150e03bef28571e4b48b"),
]


@pytest.mark.parametrize("argv,digest", OTHER_CASES,
                         ids=["family-assembly", "family-assembly-nmax2-Q", "ss-table",
                              "chains-table"])
def test_other_output_digest(orz2_bundle, tmp_path, argv, digest):
    out = tmp_path / "out.txt"
    command, *flags = argv
    assert main([command, orz2_bundle, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cache_entry_name(orz2_bundle, tmp_path):
    """The content-addressed key of the resolution that `ss` caches: a
    change to what goes into the key renames every entry."""
    cachedir = tmp_path / "cache"
    assert main(["ss", orz2_bundle, "-M", "Mconst", "-N", "Naug", "--nmax", "2",
                 "--cache-dir", str(cachedir), "--out", str(tmp_path / "out.json")]) == 0
    assert os.listdir(cachedir) == [
        "c5f708f835b34415ff544d2c6cc46017af168334aafc2df9f9aeab178dc41aa8.json"]
