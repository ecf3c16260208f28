"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 1 drives every fixture instance through the same code path the
CLI uses (cmd_ss) with --jobs 1, writing output documents; criterion 11
reruns the identical configurations with --jobs 8 and compares bytes.
"""

import json
import random
import time

import pytest

from cathom.catmod import CatModule, CO, CONTRA, full_subcategory
from cathom.cli import main
from cathom.e1data import d1_components, d1_face_block, verify_e1
from cathom.fincat import BalancedTriples, chain_biset, enumerate_chains, nd_tilde_nerve
from cathom.fixtures import FIXTURE_NAMES, fixture_category, fixture_modules, klein_four
from cathom.fpmod import FPModule, subquotient
from cathom.groups import (
    FiniteGroup,
    SubgroupFamily,
    cofinal_inclusion_check,
    orbit_category,
    reduce_family,
)
from cathom.intlin import det_int, smith_normal_form
from cathom.matrix import Matrix
from cathom.resolve import assembly_tor, tor
from cathom.rings import GF, QQ, ZZ
from cathom.serialize import bundle_to_json
from cathom.spectral import (
    NotTwoColumn,
    build_filtered_complex,
    converge_and_compare,
    spectral_pages,
    two_column_les,
)

RINGS = {"Z": ZZ, "F2": GF(2)}
_STATE: dict = {}


def _passline(k, name):
    print(f"\nACCEPTANCE {k} ({name}): PASS")


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    paths = {}
    for name in FIXTURE_NAMES:
        for ringname, ring in RINGS.items():
            cat = fixture_category(name)
            Ms, Ns = fixture_modules(cat, ring)
            doc = bundle_to_json(cat, modules={
                "Mconst": Ms["const"], "Malt": Ms["alt"],
                "Nconst": Ns["const"], "Naug": Ns["aug"],
            })
            p = root / f"{name}-{ringname}.json"
            p.write_text(json.dumps(doc, sort_keys=True))
            paths[(name, ringname)] = str(p)
    return root, paths


def _instances():
    for name in FIXTURE_NAMES:
        for ringname in RINGS:
            for mk in ("Mconst", "Malt"):
                for nk in ("Nconst", "Naug"):
                    yield name, ringname, mk, nk


def test_criterion_1_oracle_convergence(bundles):
    root, paths = bundles
    outdir = root / "jobs1"
    outdir.mkdir(exist_ok=True)
    t_total = time.time()
    for name, ringname, mk, nk in _instances():
        out = outdir / f"{name}-{ringname}-{mk}-{nk}.json"
        t0 = time.time()
        rc = main(["ss", paths[(name, ringname)], "-M", mk, "-N", nk,
                   "--nmax", "3", "--jobs", "1", "--out", str(out)])
        dt = time.time() - t0
        assert rc == 0, f"{name}/{ringname}/{mk}/{nk} exit {rc}"
        assert dt < 60, f"{name}/{ringname}/{mk}/{nk} took {dt:.1f}s"
        doc = json.loads(out.read_text())
        assert doc["convergence"]["all_match"] is True
    total = time.time() - t_total
    assert total < 900, f"suite took {total:.0f}s"
    _STATE["jobs1_dir"] = outdir
    _passline(1, "oracle convergence suite")


def test_criterion_2_e1_identification():
    for name in FIXTURE_NAMES:
        cat = fixture_category(name)
        assert cat.is_left_free()
        Ms, Ns = fixture_modules(cat, ZZ)
        for M in Ms.values():
            for N in Ns.values():
                rep = verify_e1(M, N, 3)
                assert rep.all_match, (name, rep.mismatches()[:4])
    _passline(2, "E1 identification, summand by summand")


def test_criterion_3_groupoid_collapse():
    cat = fixture_category("BZ2")
    M = CatModule.constant(cat, ZZ, CONTRA)
    N = CatModule.constant(cat, ZZ, CO)
    fc = build_filtered_complex(M, N, q_max=4)
    assert fc.p_max == 0  # one column
    pages = spectral_pages(fc)
    einf = pages[-1]
    expected = [FPModule(ZZ, 1), FPModule(ZZ, 0, (2,)), FPModule(ZZ, 0),
                FPModule(ZZ, 0, (2,))]
    for q in range(4):
        assert einf.entry(0, q) == expected[q]
    _passline(3, "groupoid collapse: E_inf column is H_*(Z/2; Z)")


def test_criterion_4_rational_degeneration():
    for name in FIXTURE_NAMES:
        cat = fixture_category(name)
        Ms, Ns = fixture_modules(cat, QQ)
        for M, N in ((Ms["const"], Ns["const"]), (Ms["alt"], Ns["aug"])):
            fc = build_filtered_complex(M, N, q_max=4)
            pages = spectral_pages(fc)
            e1 = pages[1] if len(pages) > 1 else pages[0]
            for p in range(fc.p_max + 1):
                for q in range(1, fc.q_max):
                    assert e1.entry(p, q).is_zero(), (name, p, q)
            e2 = pages[min(2, len(pages) - 1)]
            einf = pages[-1]
            for key in einf.entries:
                assert e2.entries[key].module == einf.entries[key].module
    _passline(4, "rational degeneration: E1 rows vanish, E2 = E_inf")


def test_criterion_5_final_object():
    checked = 0
    for name in FIXTURE_NAMES:
        cat = fixture_category(name)
        finals = [c for c in cat.objects
                  if all(len(cat.hom[(d, c)]) == 1 for d in cat.objects)]
        if not finals:
            continue
        c0 = finals[0]
        checked += 1
        Ms, Ns = fixture_modules(cat, ZZ)
        for N in Ns.values():
            M = Ms["const"]
            groups = tor(M, N, 3)
            assert groups[0] == N.value(c0), name
            assert all(groups[q].is_zero() for q in (1, 2, 3)), name
            rep = converge_and_compare(M, N, 3)
            assert rep.all_match
            assert rep.degrees[0]["total"] == N.value(c0).pretty()
    assert checked >= 6  # point, arrow, poset and the orbit categories
    _passline(5, "final object: Tor_0 = N(c0), higher Tor vanish, SS converges")


def test_criterion_6_cofinality():
    # reduced family of Or(S3, ALL): assembly is an iso in degrees <= 3
    G = FiniteGroup.symmetric(3)
    fam = SubgroupFamily.all_subgroups(G)
    red = reduce_family(fam)
    ok, _ = cofinal_inclusion_check(red, fam)
    assert ok
    big = orbit_category(G, fam)
    keep = [o for o in big.objects if big.subgroup_of[o] in red._set]
    sub, inc = full_subcategory(big, keep)
    N = CatModule.constant(big, ZZ, CO)
    res = assembly_tor(inc, N, 3)
    assert all(res.iso[q] for q in range(4))
    # non-cofinal: proper subgroups of Z/2 x Z/2
    V = klein_four()
    all_f = SubgroupFamily.all_subgroups(V)
    proper = SubgroupFamily(V, [H for H in V.subgroups() if len(H) < 4],
                            closure=False)
    ok2, wit = cofinal_inclusion_check(proper, all_f)
    assert not ok2
    assert wit["counterexample"] == frozenset(range(4))
    _passline(6, "cofinality: reduced S3 family iso; V4 proper family refused with witness")


def test_criterion_7_two_column_les():
    for n in (2, 3, 5):
        cat = orbit_category(FiniteGroup.cyclic(n))
        Ms, Ns = fixture_modules(cat, ZZ)
        for N in Ns.values():
            rep = two_column_les(Ms["const"], N, 3)
            assert rep.all_exact, (n, [x for x in rep.nodes if not x["exact"]])
    cat4 = fixture_category("OrZ4")
    M4 = CatModule.constant(cat4, ZZ, CONTRA)
    N4 = CatModule.constant(cat4, ZZ, CO)
    with pytest.raises(NotTwoColumn):
        two_column_les(M4, N4, 3)
    _passline(7, "two-column LES exact for Or(Z/p), refused for Or(Z/4)")


def test_criterion_8_d1_partial_assembly():
    cat = fixture_category("OrZ2")
    M = CatModule.constant(cat, ZZ, CONTRA)
    N = CatModule.constant(cat, ZZ, CO)
    fc = build_filtered_complex(M, N, q_max=4)
    (chain,) = fc.chains[1]
    cols = {}
    for q in range(4):
        comps = d1_components(fc, 1, chain, q, columns=cols)
        c0 = next(c for c in comps if c["i"] == 0)
        face = d1_face_block(fc, 1, chain, 0, q, cols)
        assert c0["matrix"].data == face.data, q
    # module shadow of the partial assembly: iso in degree 0, zero above
    comps = d1_components(fc, 1, chain, 0, columns=cols)
    c0 = next(c for c in comps if c["i"] == 0)
    assert c0["matrix"].data in ([[1]], [[-1]])
    _passline(8, "d1 i=0 component equals the partial assembly extracted from the filtered complex")


def test_criterion_9_combinatorial_bijection():
    for name in FIXTURE_NAMES:
        cat = fixture_category(name)
        chains = enumerate_chains(cat, 3)
        bisets = {}
        for p, cl in chains.items():
            for ch in cl:
                if p >= 1:
                    bisets[ch] = chain_biset(cat, ch)
        for p in range(4):
            plist = chains.get(p, [])
            for s in cat.objects:
                for t in cat.objects:
                    cell = nd_tilde_nerve(cat, p, s, t)
                    total = 0
                    hit = set()
                    for ch in plist:
                        bt = BalancedTriples(cat, ch, s, t, bisets.get(ch))
                        total += bt.size()
                        for k in range(bt.size()):
                            hit.add(cell.class_of(bt.to_diagram(k)))
                    assert total == cell.size(), (name, p, s, t)
                    assert hit == set(range(cell.size()))
    _passline(9, "chain/biset count formula matches the tilde nerve everywhere")


def test_criterion_10_linear_algebra():
    rng = random.Random(20260810)
    for trial in range(500):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        A = Matrix(ZZ, [[rng.randint(-99, 99) for _ in range(cols)]
                        for _ in range(rows)])
        r = smith_normal_form(A)
        assert r.U @ A @ r.V == r.S
        assert abs(det_int(r.U)) == 1
        assert abs(det_int(r.V)) == 1
        d = r.diagonal()
        for i in range(len(d) - 1):
            assert d[i] >= 0
            if d[i + 1]:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
    # subquotient invariance under random unimodular change of basis
    for trial in range(25):
        n = rng.randint(2, 5)
        Z = Matrix(ZZ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        factors = [rng.randint(1, 3) for _ in range(Z.cols)]
        B = Matrix.from_columns(
            ZZ, [{i: x * factors[j] for i, x in Z.vecs[j].items()}
                 for j in range(Z.cols)], nrows=n)
        base = subquotient(n, Z, B).module
        U = Matrix.identity(ZZ, n)
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            data = [list(r2) for r2 in U.data]
            c = rng.randint(-2, 2)
            for k in range(n):
                data[i][k] += c * data[j][k]
            U = Matrix(ZZ, data)
        assert abs(det_int(U)) == 1
        assert subquotient(n, U @ Z, U @ B).module == base
    _passline(10, "SNF properties on 500 random matrices; subquotient basis-change invariance")


def test_criterion_11_determinism(bundles):
    root, paths = bundles
    jobs1 = _STATE.get("jobs1_dir")
    if jobs1 is None:
        pytest.skip("criterion 1 must run first")
    outdir = root / "jobs8"
    outdir.mkdir(exist_ok=True)
    for name, ringname, mk, nk in _instances():
        out = outdir / f"{name}-{ringname}-{mk}-{nk}.json"
        rc = main(["ss", paths[(name, ringname)], "-M", mk, "-N", nk,
                   "--nmax", "3", "--jobs", "8", "--out", str(out)])
        assert rc == 0
        ref = (jobs1 / out.name).read_bytes()
        assert out.read_bytes() == ref, f"jobs=8 output differs for {out.name}"
    _passline(11, "byte-identical JSON at --jobs 1 and --jobs 8")
