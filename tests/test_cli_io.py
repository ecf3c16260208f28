import copy
import json
import os
import random
import time

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cathom.cache import DiskCache, cached_free_resolution, resolution_from_json, resolution_to_json
from cathom.catmod import CatModule, CO, VarianceMismatch
from cathom.cli import main
from cathom.fixtures import fixture_category, fixture_modules, klein_four
from cathom.groups import GROUP_ORDER_BOUND, FiniteGroup, SubgroupFamily
from cathom.resolve import ext, free_resolution, tor
from cathom.rings import GF, QQ, ZZ
from cathom.serialize import (
    ParseError,
    bundle_to_json,
    category_from_json,
    category_to_json,
    content_hash,
    group_from_json,
    group_to_json,
    load_bundle,
    module_from_json,
    module_to_json,
    workspace_from_json,
)


def orz2_doc(ring):
    """The OrZ2 bundle over ring: its four fixture modules and the family
    of all subgroups of S3."""
    cat = fixture_category("OrZ2")
    Ms, Ns = fixture_modules(cat, ring)
    G = FiniteGroup.symmetric(3)
    fam = SubgroupFamily.all_subgroups(G)
    return bundle_to_json(
        cat,
        modules={"Mconst": Ms["const"], "Malt": Ms["alt"],
                 "Nconst": Ns["const"], "Naug": Ns["aug"]},
        groups={"S3": G},
        families={"all": ("S3", fam)},
    )


@pytest.fixture()
def orz2_bundle(tmp_path):
    path = tmp_path / "orz2.json"
    path.write_text(json.dumps(orz2_doc(ZZ)))
    return str(path)


@pytest.fixture()
def ors3_bundle(tmp_path):
    cat = fixture_category("OrS3")
    doc = bundle_to_json(cat, modules={"Nconst": fixture_modules(cat, ZZ)[1]["const"]})
    path = tmp_path / "ors3.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["point", "arrow", "OrZ2", "OrZ4"])
    def test_category_round_trip(self, name):
        cat = fixture_category(name)
        doc = category_to_json(cat)
        cat2 = category_from_json(doc)
        assert content_hash(category_to_json(cat2)) == content_hash(doc)

    def test_group_round_trip(self):
        for G in (FiniteGroup.cyclic(4), FiniteGroup.symmetric(3), klein_four()):
            doc = group_to_json(G)
            G2 = group_from_json(doc)
            assert content_hash(group_to_json(G2)) == content_hash(doc)

    def test_group_from_permutations(self):
        doc = {"perm_gens": [[[0, 1, 2]], [[0, 1]]], "degree": 3}
        G = group_from_json(doc)
        assert G.n == 6

    @pytest.mark.parametrize("name", ["OrZ2", "OrZ4"])
    def test_module_round_trip(self, name):
        cat = fixture_category(name)
        Ms, Ns = fixture_modules(cat, ZZ)
        for M in (Ms["const"], Ms["alt"], Ns["aug"]):
            doc = module_to_json(M)
            M2 = module_from_json(cat, doc)
            assert content_hash(module_to_json(M2)) == content_hash(doc)

    def test_workspace_hash_stable(self, orz2_bundle):
        ws1 = load_bundle(orz2_bundle)
        ws2 = load_bundle(orz2_bundle)
        assert ws1.digest == ws2.digest

    def test_bad_json_is_parse_error(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_bundle(str(p))

    def test_wrong_format_rejected(self):
        with pytest.raises(ParseError):
            workspace_from_json({"format": "nope"})


class TestResolutionCache:
    def test_round_trip(self):
        cat = fixture_category("OrZ4")
        N = CatModule.constant(cat, ZZ, CO)
        res = free_resolution(N, 3)
        doc = resolution_to_json(res)
        res2 = resolution_from_json(N, doc)
        for k in range(res.length + 1):
            assert res2.levels[k].summands == res.levels[k].summands
            for obj in cat.objects:
                if k:
                    assert res2.eval_diff(k, obj) == res.eval_diff(k, obj)

    def test_cached_equals_cold(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        cat = fixture_category("OrZ2")
        N = CatModule.constant(cat, ZZ, CO)
        cold = cached_free_resolution(N, 3, cache)
        warm = cached_free_resolution(N, 3, cache)
        assert resolution_to_json(cold) == resolution_to_json(warm)
        assert resolution_to_json(cold) == resolution_to_json(free_resolution(N, 3))


class TestCacheEntries:
    """An altered cache entry is a miss: the run recomputes the resolution,
    overwrites the entry and writes the bytes of a cold run."""

    @staticmethod
    def _alter(entry, how):
        payload = entry["resolution"]
        if how == "coefficient":
            payload["gen_images"][0][0][0][2] += 1
        elif how == "shape":
            payload["gen_images"][0].pop()
        else:  # a payload that is no resolution, under its own digest
            entry["resolution"] = {"levels": 3}
            entry["digest"] = content_hash(entry["resolution"])

    @pytest.mark.parametrize("how", ["coefficient", "shape", "unparsable"])
    def test_altered_entry_is_a_miss(self, orz2_bundle, tmp_path, capsys, how):
        cachedir = tmp_path / "cache"
        argv = ["ss", orz2_bundle, "-M", "Mconst", "-N", "Naug", "--nmax", "2"]
        cold = tmp_path / "cold.json"
        assert main([*argv, "--out", str(cold)]) == 0
        assert main([*argv, "--cache-dir", str(cachedir), "--out", str(tmp_path / "w.json")]) == 0
        (name,) = os.listdir(cachedir)
        path = cachedir / name
        entry = json.loads(path.read_text())
        altered = json.loads(path.read_text())
        self._alter(altered, how)
        path.write_text(json.dumps(altered))
        out = tmp_path / "altered.json"
        assert main([*argv, "--cache-dir", str(cachedir), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_bytes() == cold.read_bytes()
        assert json.loads(path.read_text()) == entry

    @pytest.mark.parametrize("how", ["not-utf8", "too-deep", "unknown-object",
                                     "unknown-morphism", "term-index-past-level",
                                     "coefficient-rehashed", "zero-denominator"])
    def test_entry_that_would_fail_later_is_a_miss(self, orz2_bundle, tmp_path, capsys, how):
        if how == "zero-denominator":  # a Q entry
            orz2_bundle = tmp_path / "orz2-Q.json"
            orz2_bundle.write_text(json.dumps(orz2_doc(QQ)))
        cachedir = tmp_path / "cache"
        argv = ["ss", str(orz2_bundle), "-M", "Mconst", "-N", "Naug", "--nmax", "2"]
        cold = tmp_path / "cold.json"
        assert main([*argv, "--cache-dir", str(cachedir), "--out", str(cold)]) == 0
        (name,) = os.listdir(cachedir)
        path = cachedir / name
        entry = json.loads(path.read_text())
        if how == "not-utf8":
            path.write_bytes(b'{"digest": "\xff\xfe"}' + bytes([0xff, 0xfe]))
        elif how == "too-deep":
            path.write_text("[" * 200_000)
        else:
            altered = json.loads(path.read_text())
            payload = altered["resolution"]
            if how == "unknown-object":
                payload["levels"] = [["nope"]]
            elif how == "unknown-morphism":
                payload["gen_images"][0][0][0][1] = "nope"
            elif how == "coefficient-rehashed":
                # parses, but d1 no longer maps into the kernel of aug
                payload["gen_images"][0][0][0][2] += 1
            elif how == "zero-denominator":
                payload["gen_images"][0][0][0][2] = "1/0"
            else:
                payload["gen_images"][0][0][0][0] = len(payload["levels"][0])
            altered["digest"] = content_hash(payload)
            path.write_text(json.dumps(altered))
        out = tmp_path / "altered.json"
        assert main([*argv, "--cache-dir", str(cachedir), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_bytes() == cold.read_bytes()
        assert json.loads(path.read_text()) == entry

    def test_entry_path_that_is_a_directory_is_an_input_error(self, orz2_bundle, tmp_path,
                                                               capsys):
        cachedir = tmp_path / "cache"
        argv = ["ss", orz2_bundle, "-M", "Mconst", "-N", "Naug", "--nmax", "2",
                "--cache-dir", str(cachedir)]
        assert main([*argv, "--out", str(tmp_path / "w.json")]) == 0
        (name,) = os.listdir(cachedir)
        (cachedir / name).unlink()
        (cachedir / name).mkdir()
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: cache entry ") and err.count("\n") == 1
        assert not out.exists()
        assert os.listdir(cachedir) == [name]


class TestCLI:
    def test_validate_ok(self, orz2_bundle, capsys):
        assert main(["validate", orz2_bundle]) == 0
        assert "category ok" in capsys.readouterr().out

    def test_validate_broken_table(self, tmp_path, capsys):
        cat = fixture_category("arrow")
        doc = bundle_to_json(cat)
        doc["category"]["compose"] = [
            c if c[0] != "i1" or c[1] != "a" else ["i1", "a", "i1"]
            for c in doc["category"]["compose"]
        ]
        p = tmp_path / "broken.json"
        p.write_text(json.dumps(doc))
        rc = main(["validate", str(p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "i1" in err and "a" in err

    def test_validate_nonclosed_family_exit_1(self, tmp_path, capsys):
        G = FiniteGroup.symmetric(3)
        c2 = next(H for H in G.subgroups() if len(H) == 2)
        cat = fixture_category("arrow")
        doc = bundle_to_json(cat, groups={"S3": G})
        doc["families"] = {"bad": {"group": "S3",
                                   "subgroups": [sorted(c2)],
                                   "closure": "strict"}}
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 1
        assert "closed under conjugation" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 200_000],
                             ids=["not-utf8", "too-deep"])
    @pytest.mark.parametrize("command,flags,prefix", [
        ("validate", [], "PARSE ERROR: "),
        ("tor", ["-M", "Mconst", "-N", "Nconst"], "INPUT ERROR: "),
        ("chains", [], "INPUT ERROR: "),
    ], ids=["validate", "tor", "chains"])
    def test_unreadable_bundle_exit_4(self, command, flags, prefix, content, tmp_path,
                                      capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        assert main([command, str(p), *flags]) == 4
        err = capsys.readouterr().err
        assert prefix in err and err.count("\n") == 1 and "Traceback" not in err

    def test_chains_counts(self, tmp_path, capsys):
        cat = fixture_category("OrZ4")
        p = tmp_path / "orz4.json"
        p.write_text(json.dumps(bundle_to_json(cat)))
        assert main(["chains", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"0": 3, "1": 3, "2": 1}

    def test_chains_negative_pmax_exit_4(self, orz2_bundle, tmp_path, capsys):
        out = tmp_path / "chains.json"
        assert main(["chains", orz2_bundle, "--pmax", "-1", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.exists()

    def test_chains_unbounded_exit_3(self, tmp_path, capsys):
        from cathom.fixtures import idempotent_category

        p = tmp_path / "idem.json"
        p.write_text(json.dumps(bundle_to_json(idempotent_category())))
        assert main(["chains", str(p)]) == 3

    def test_ss_exit_codes_and_output(self, orz2_bundle, tmp_path, capsys):
        out = tmp_path / "ss.json"
        rc = main(["ss", orz2_bundle, "-M", "Mconst", "-N", "Nconst",
                   "--nmax", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["convergence"]["all_match"] is True
        assert doc["pages"][-1]["stabilized"] is True

    def test_ss_or_d8_nmax_4_matches_the_oracle(self, tmp_path):
        # Or(D8) alt/aug at --nmax 4: the oracle check at a size whose
        # entries grow to 131 bits
        from cathom.groups import orbit_category

        D8 = FiniteGroup.from_permutations([[(0, 1, 2, 3)], [(0, 2)]], 4, name="D8")
        cat = orbit_category(D8)
        Ms, Ns = fixture_modules(cat, ZZ)
        p = tmp_path / "ord8.json"
        p.write_text(json.dumps(bundle_to_json(cat, modules={"Malt": Ms["alt"],
                                                             "Naug": Ns["aug"]})))
        out = tmp_path / "ss.json"
        assert main(["ss", str(p), "-M", "Malt", "-N", "Naug", "--nmax", "4",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["convergence"]["all_match"] is True

    def test_ss_computes_pages_once(self, orz2_bundle, tmp_path, monkeypatch):
        import cathom.cli
        import cathom.spectral

        calls = []
        original = cathom.spectral.spectral_pages

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cathom.spectral, "spectral_pages", counting)
        monkeypatch.setattr(cathom.cli, "spectral_pages", counting)
        for extra in ([], ["--rmax", "1"]):
            calls.clear()
            assert main(["ss", orz2_bundle, "-M", "Malt", "-N", "Naug", "--nmax", "2",
                         "--out", str(tmp_path / "o.json"), *extra]) == 0
            assert len(calls) == 1

    def test_ss_rmax_is_a_prefix(self, orz2_bundle, tmp_path):
        docs = {}
        for tag, extra in (("full", []), ("r1", ["--rmax", "1"])):
            out = tmp_path / f"{tag}.json"
            assert main(["ss", orz2_bundle, "-M", "Malt", "-N", "Naug",
                         "--nmax", "2", "--out", str(out), *extra]) == 0
            docs[tag] = json.loads(out.read_text())
        full, r1 = docs["full"], docs["r1"]
        assert len(full["pages"]) > 2
        assert r1["pages"] == full["pages"][:2]
        assert (json.dumps(r1["convergence"], sort_keys=True, indent=2)
                == json.dumps(full["convergence"], sort_keys=True, indent=2))

    def test_ext_rmax_is_a_prefix(self, orz2_bundle, tmp_path):
        docs = {}
        for tag, extra in (("full", []), ("r0", ["--rmax", "0"]), ("r1", ["--rmax", "1"])):
            out = tmp_path / f"{tag}.json"
            assert main(["ext", orz2_bundle, "-M", "Mconst", "-N", "Malt",
                         "--nmax", "2", "--out", str(out), *extra]) == 0
            docs[tag] = json.loads(out.read_text())
        full = docs["full"]
        assert len(full["pages"]) > 2
        for r in (0, 1):
            part = docs[f"r{r}"]
            assert part["pages"] == full["pages"][: r + 1]
            assert (json.dumps(part["convergence"], sort_keys=True, indent=2)
                    == json.dumps(full["convergence"], sort_keys=True, indent=2))

    @pytest.mark.parametrize("command", ["ss", "ext", "tor"])
    @pytest.mark.parametrize("flags", [["--rmax", "-2", "--format", "table"],
                                       ["--rmax", "-2"], ["--nmax", "-1"],
                                       ["--pmax", "-1"], ["--qmax", "-1"]])
    def test_negative_bounds_exit_4(self, orz2_bundle, command, flags, tmp_path, capsys):
        n = "Mconst" if command == "ext" else "Nconst"
        out = tmp_path / "o.json"
        rc = main([command, orz2_bundle, "-M", "Malt", "-N", n, *flags, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def valid_args(command):
        """Arguments that make ``command`` run on the OrZ2 bundle."""
        if command == "family":
            return ["--family", "all", "--assembly"]
        if command == "chains":
            return []
        return ["-M", "Malt", "-N", "Mconst" if command == "ext" else "Nconst"]

    @pytest.mark.parametrize("command", ["ss", "ext", "tor", "family"])
    @pytest.mark.parametrize("ring", ["Fp:4", "W", "Fp:x"])
    def test_bad_ring_exit_4(self, orz2_bundle, command, ring, tmp_path, capsys):
        out = tmp_path / "o.json"
        rc = main([command, orz2_bundle, *self.valid_args(command),
                   "--ring", ring, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ss", "ext", "tor", "family", "chains"])
    def test_out_in_missing_directory_exit_4(self, orz2_bundle, command, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        rc = main([command, orz2_bundle, *self.valid_args(command),
                   "--nmax", "1", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_out_is_a_directory_exit_4(self, orz2_bundle, tmp_path, capsys):
        rc = main(["tor", orz2_bundle, "-M", "Malt", "-N", "Nconst", "--out", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1

    def test_ss_missing_module_exit_4(self, orz2_bundle, capsys):
        assert main(["ss", orz2_bundle, "-M", "nope", "-N", "Nconst"]) == 4

    def test_ss_corrupt_action_exit_4(self, tmp_path, capsys):
        cat = fixture_category("OrZ2")
        Ms, Ns = fixture_modules(cat, ZZ)
        doc = bundle_to_json(cat, modules={"M": Ms["const"], "N": Ns["const"]})
        # break functoriality: the order-2 automorphism squares to the identity,
        # so doubling its action cannot be a functor
        free = cat.objects[0]
        mor = next(f for f in cat.aut(free) if f != cat.id_of(free))
        doc["modules"]["M"]["action"][mor] = [[2]]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["ss", str(p), "-M", "M", "-N", "N"]) == 4

    def test_determinism_across_jobs(self, orz2_bundle, tmp_path):
        out1 = tmp_path / "j1.json"
        out8 = tmp_path / "j8.json"
        assert main(["ss", orz2_bundle, "-M", "Malt", "-N", "Naug",
                     "--nmax", "2", "--jobs", "1", "--out", str(out1)]) == 0
        assert main(["ss", orz2_bundle, "-M", "Malt", "-N", "Naug",
                     "--nmax", "2", "--jobs", "8", "--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_cache_cold_vs_warm_identical(self, orz2_bundle, tmp_path):
        cachedir = tmp_path / "cache"
        outs = []
        for tag in ("cold", "warm"):
            out = tmp_path / f"{tag}.json"
            rc = main(["ss", orz2_bundle, "-M", "Mconst", "-N", "Naug",
                       "--nmax", "2", "--cache-dir", str(cachedir),
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert any(f.endswith(".json") for f in os.listdir(cachedir))

    def test_env_cache_override(self, orz2_bundle, tmp_path, monkeypatch):
        cachedir = tmp_path / "envcache"
        monkeypatch.setenv("PCHAIN_CACHE", str(cachedir))
        out = tmp_path / "o.json"
        assert main(["ss", orz2_bundle, "-M", "Mconst", "-N", "Nconst",
                     "--nmax", "2", "--out", str(out)]) == 0
        assert cachedir.exists()

    def test_family_report(self, orz2_bundle, tmp_path):
        out = tmp_path / "fam.json"
        rc = main(["family", orz2_bundle, "--family", "all", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["cofinal"] is True
        # the unique maximal member of ALL is S3 itself, so M and NM hold
        assert doc["M"] is True and doc["NM"] is True
        assert doc["reduced"]["subgroups"] == [list(range(6))]

    @pytest.mark.parametrize("flags", [["--ring", "Q"], ["--ring", "Z"], ["--nmax", "9"],
                                       ["--nmax", "3"], ["--nmax", "9", "--ring", "Q"]],
                             ids=["ring-Q", "ring-Z", "nmax-9", "nmax-3", "nmax-9-ring-Q"])
    def test_family_ring_nmax_without_assembly_exit_4(self, orz2_bundle, flags, tmp_path,
                                                      capsys):
        # --ring and --nmax are read only with --assembly
        out = tmp_path / "fam.json"
        rc = main(["family", orz2_bundle, "--family", "all", *flags, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.exists()

    def test_family_assembly_negative_nmax_exit_4(self, orz2_bundle, tmp_path, capsys):
        out = tmp_path / "fam.json"
        rc = main(["family", orz2_bundle, "--family", "all", "--assembly",
                   "--nmax", "-1", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.exists()

    def test_assembly_negative_nmax_exit_4(self, orz2_bundle, tmp_path, capsys):
        cat = fixture_category("OrZ2")
        out = tmp_path / "asm.json"
        rc = main(["assembly", orz2_bundle, "-N", "Nconst", "--objects", cat.objects[0],
                   "--nmax", "-1", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.exists()

    def test_assembly_command(self, orz2_bundle, tmp_path):
        cat = fixture_category("OrZ2")
        out = tmp_path / "asm.json"
        rc = main(["assembly", orz2_bundle, "-N", "Nconst",
                   "--objects", cat.objects[0], "--nmax", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["maps"][0]["iso"] is True
        assert doc["maps"][1]["iso"] is False

    @pytest.mark.parametrize("objects", ["G/H0,G/H0", "G/H1,G/H3,G/H1"])
    def test_assembly_repeated_object_exit_4(self, ors3_bundle, objects, tmp_path, capsys):
        out = tmp_path / "asm.json"
        rc = main(["assembly", ors3_bundle, "-N", "Nconst", "--objects", objects,
                   "--nmax", "1", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert "given twice" in err
        assert not out.exists()

    def test_assembly_names_the_subcategory_in_category_order(self, ors3_bundle, tmp_path):
        docs = []
        for k, objects in enumerate(["G/H1,G/H3", "G/H3,G/H1"]):
            out = tmp_path / f"asm{k}.json"
            rc = main(["assembly", ors3_bundle, "-N", "Nconst", "--objects", objects,
                       "--nmax", "1", "--out", str(out)])
            assert rc == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["subcategory"] == ["G/H1", "G/H3"]

    def test_ext_command(self, orz2_bundle, tmp_path):
        out = tmp_path / "ext.json"
        rc = main(["ext", orz2_bundle, "-M", "Mconst", "-N", "Malt",
                   "--nmax", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["convergence"]["all_match"] is True

    def test_tor_table(self, orz2_bundle, capsys):
        rc = main(["tor", orz2_bundle, "-M", "Mconst", "-N", "Nconst",
                   "--format", "table"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Tor_0 = Z" in out


class TestRefusals:
    @pytest.mark.parametrize("command", ["tor", "ss", "ext"])
    def test_modules_over_different_rings_exit_4(self, command, tmp_path, capsys):
        cat = fixture_category("OrZ2")
        Mz, _ = fixture_modules(cat, ZZ)
        M2, N2 = fixture_modules(cat, GF(2))
        doc = bundle_to_json(cat, modules={"Mz": Mz["const"], "M2": M2["const"],
                                           "N2": N2["const"]})
        p = tmp_path / "mixed.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        n = "M2" if command == "ext" else "N2"
        rc = main([command, str(p), "-M", "Mz", "-N", n, "--nmax", "1", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_cache_dir_that_is_or_lies_under_a_file_exit_4(self, orz2_bundle, via, under,
                                                          tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "plain"
        blocker.write_text("x")
        cache = str(blocker / "sub" if under else blocker)
        monkeypatch.delenv("PCHAIN_CACHE", raising=False)
        flags = []
        if via == "flag":
            flags = ["--cache-dir", cache]
        else:
            monkeypatch.setenv("PCHAIN_CACHE", cache)
        out = tmp_path / "o.json"
        rc = main(["ss", orz2_bundle, "-M", "Malt", "-N", "Nconst", *flags, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert ("PCHAIN_CACHE" if via == "env" else "--cache-dir") in err
        assert not out.exists()
        assert blocker.read_text() == "x"

    def test_oracles_refuse_modules_over_different_rings(self):
        cat = fixture_category("OrZ2")
        Mz, Nz = fixture_modules(cat, ZZ)
        M2, N2 = fixture_modules(cat, GF(2))
        with pytest.raises(VarianceMismatch, match="different rings"):
            tor(Mz["const"], N2["const"], 1)
        with pytest.raises(VarianceMismatch, match="different rings"):
            ext(Mz["const"], M2["const"], 1)

    @pytest.mark.parametrize("flags", [["--nmax", "abc"], ["--bogus"], ["--format", "xml"]])
    def test_argument_parse_error_exit_4(self, orz2_bundle, flags, capsys):
        rc = main(["ss", orz2_bundle, "-M", "Malt", "-N", "Nconst", *flags])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("INPUT ERROR: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("command,flags", [
        ("ext", ["--format", "table"]),
        ("family", ["--format", "table"]),
        ("assembly", ["--format", "table"]),
        ("assembly", ["--ring", "Q"]),
        ("tor", ["--rmax", "1"]),
        ("tor", ["--cache-dir", "cache"]),
        ("chains", ["--nmax", "1"]),
        ("chains", ["--ring", "Z"]),
    ], ids=["ext-format", "family-format", "assembly-format", "assembly-ring", "tor-rmax",
            "tor-cache-dir", "chains-nmax", "chains-ring"])
    def test_flag_the_command_does_not_read_exit_4(self, orz2_bundle, command, flags,
                                                   tmp_path, capsys):
        command_args = {
            "ext": ["-M", "Mconst", "-N", "Malt"],
            "family": ["--family", "all"],
            "assembly": ["-N", "Nconst", "--objects", fixture_category("OrZ2").objects[0]],
            "tor": ["-M", "Malt", "-N", "Nconst"],
            "chains": [],
        }[command]
        out = tmp_path / "o.json"
        rc = main([command, orz2_bundle, *command_args, *flags, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and err.count("\n") == 1
        assert not out.exists()

    def test_each_command_takes_only_the_flags_it_reads(self):
        from cathom.cli import make_parser

        everything = {"--ring", "--nmax", "--pmax", "--qmax", "--rmax", "--jobs",
                      "--cache-dir", "--format", "--out"}
        expected = {
            "validate": set(),
            "chains": {"--pmax", "--format", "--out"},
            "ss": everything,
            "ext": {"--ring", "--nmax", "--pmax", "--qmax", "--rmax", "--out"},
            "tor": {"--ring", "--nmax", "--format", "--out"},
            "family": {"--ring", "--nmax", "--out"},
            "assembly": {"--nmax", "--out"},
        }
        (commands,) = (a for a in make_parser()._actions if a.dest == "command")
        for name, parser in commands.choices.items():
            taken = {s for a in parser._actions for s in a.option_strings}
            assert taken & everything == expected[name], name

    def test_chains_out_in_missing_directory_exit_4(self, orz2_bundle, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        assert main(["chains", orz2_bundle, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: --out ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ss", "--help"])
        assert exc.value.code == 0
        assert "usage: cathom ss" in capsys.readouterr().out


class TestMatrixJSON:
    def test_ring_tags(self):
        from cathom.matrix import Matrix, matrix_from_json
        from cathom.rings import GF, QQ
        from fractions import Fraction

        mz = Matrix(ZZ, [[1, -2], [3, 4]])
        assert matrix_from_json(mz.to_json()) == mz
        mq = Matrix(QQ, [[Fraction(1, 2), 3]])
        doc = mq.to_json()
        assert doc["ring"] == "Q" and doc["entries"][0][0] == "1/2"
        assert matrix_from_json(doc) == mq
        mf = Matrix(GF(3), [[2, 5]])
        doc = mf.to_json()
        assert doc == {"ring": "Fp", "p": 3, "rows": 1, "cols": 2, "entries": [[2, 2]]}
        assert matrix_from_json(doc) == mf

    def test_s3_chain_counts_via_cli(self, tmp_path, capsys):
        from cathom.fixtures import fixture_category

        cat = fixture_category("OrS3")
        p = tmp_path / "s3.json"
        p.write_text(json.dumps(bundle_to_json(cat)))
        assert main(["chains", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["0"] == "4" or doc["counts"]["0"] == 4


class TestConfigInvariants:
    def test_qmax_guard(self, orz2_bundle, capsys):
        for command, n, flags in (("ss", "Nconst", ["--nmax", "3", "--qmax", "2"]),
                                  ("ext", "Malt", ["--nmax", "3", "--qmax", "2"]),
                                  ("ext", "Malt", ["--qmax", "0"])):
            rc = main([command, orz2_bundle, "-M", "Mconst", "-N", n, *flags])
            assert rc == 4
            assert capsys.readouterr().err.startswith("INPUT ERROR: qmax")

    def test_pmax_guard(self, orz2_bundle, capsys):
        for command, n in (("ss", "Nconst"), ("ext", "Malt")):
            rc = main([command, orz2_bundle, "-M", "Mconst", "-N", n,
                       "--nmax", "2", "--pmax", "0"])
            assert rc == 4
            assert capsys.readouterr().err.startswith("INPUT ERROR: pmax")

    def test_family_mismatch_named(self):
        from cathom.groups import FamilyMismatch, FiniteGroup, SubgroupFamily, cofinal_inclusion_check

        G = FiniteGroup.cyclic(4)
        z2 = SubgroupFamily(G, [next(H for H in G.subgroups() if len(H) == 2)])
        top = SubgroupFamily(G, [frozenset(range(4))])
        with pytest.raises(FamilyMismatch):
            cofinal_inclusion_check(z2, top)


class TestBundleSections:
    @pytest.mark.parametrize("key,value,named", [
        ("modules", [], "'modules'"), ("groups", [], "'groups'"),
        ("families", [], "'families'"), ("category", None, "category"),
    ])
    @pytest.mark.parametrize("argv", [["validate"], ["ss", "-M", "Mconst", "-N", "Nconst"]])
    def test_malformed_section_exit_4(self, orz2_bundle, tmp_path, capsys, key, value,
                                      named, argv):
        doc = json.loads(open(orz2_bundle).read())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        rc = main([argv[0], str(p), *argv[1:]])
        assert rc == 4
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("triple", [["ghost", "ghost", "ghost"], ["ghost", None, None]])
    def test_compose_triple_with_unknown_morphism(self, orz2_bundle, tmp_path, capsys, triple):
        doc = json.loads(open(orz2_bundle).read())
        known = doc["category"]["morphisms"][0]["id"]
        doc["category"]["compose"].append([x if x is not None else known for x in triple])
        p = tmp_path / "ghost.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 1
        assert "names unknown morphism 'ghost'" in capsys.readouterr().err
        for argv in (["ss", "-M", "Mconst", "-N", "Nconst"], ["ext", "-M", "Mconst", "-N", "Malt"]):
            assert main([argv[0], str(p), *argv[1:]]) == 4
            err = capsys.readouterr().err
            assert "names unknown morphism 'ghost'" in err and "Traceback" not in err

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("end", ["src", "tgt"])
    def test_morphism_with_unknown_endpoint(self, orz2_bundle, tmp_path, capsys, end, index):
        doc = json.loads(open(orz2_bundle).read())
        morphism = doc["category"]["morphisms"][index]
        morphism[end] = "ghost"
        p = tmp_path / "ghost.json"
        p.write_text(json.dumps(doc))
        want = f"morphism {morphism['id']!r} has unknown endpoint"
        # validate lists the violation; each command refuses the bundle in one line
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert want in err and "Traceback" not in err
        for command in ("ss", "tor", "ext"):
            assert main([command, str(p), *TestCLI.valid_args(command)]) == 4, command
            err = capsys.readouterr().err
            assert err.startswith("INPUT ERROR: ") and want in err, command
            assert len(err.splitlines()) == 1, command

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("ends,named", [
        ({"src": "ghost"}, ": source 'ghost'"),
        ({"tgt": "ghost"}, ": target 'ghost'"),
        ({"src": "ghost", "tgt": "ghost2"}, "s: source 'ghost', target 'ghost2'"),
    ], ids=["src", "tgt", "both"])
    def test_unknown_endpoint_is_one_violation(self, orz2_bundle, tmp_path, capsys,
                                               index, ends, named):
        """The unknown endpoint is named, as source or target, in the one
        violation: no identity or composition check restates it."""
        doc = json.loads(open(orz2_bundle).read())
        morphism = doc["category"]["morphisms"][index]
        morphism.update(ends)
        p = tmp_path / "ghost.json"
        p.write_text(json.dumps(doc))
        want = f"morphism {morphism['id']!r} has unknown endpoint{named}"
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"{p}: {want}"]
        for command in ("ss", "tor", "ext"):
            assert main([command, str(p), *TestCLI.valid_args(command)]) == 4, command
            assert capsys.readouterr().err == f"INPUT ERROR: invalid category: {want}\n"

    @pytest.mark.parametrize("edit,validate_rc", [
        (lambda d: d["modules"]["Mconst"]["values"][d["category"]["objects"][0]].update(
            relations=[[0, 0, 2]]), 1),
        (lambda d: d["modules"]["Mconst"].update(ring=5), 1),
        (lambda d: d["category"]["compose"].append(["x"]), 4),
        (lambda d: d["groups"].update(bad={"table": [[0, 1], [1]]}), 4),
        (lambda d: d["groups"].update(bad={"perm_gens": [[[0, 3]]], "degree": 3}), 4),
        (lambda d: d["families"].update(bad={"group": "S3", "subgroups": [[0, 6]]}), 1),
        (lambda d: d["modules"]["Mconst"]["action"].update({"G/H0>G/H1:0": [[1, 0]]}), 1),
        (lambda d: d["modules"]["Mconst"]["action"].update({"G/H0>G/H1:0": [[1], [0]]}), 1),
        (lambda d: d["modules"]["Mconst"]["action"].update(ghost=[[1]]), 1),
    ], ids=["relation-row-past-rank", "ring-not-a-string", "compose-not-a-triple",
            "ragged-group-table", "perm-point-past-degree", "subgroup-element-past-order",
            "action-wider-than-source", "action-taller-than-target", "action-unknown-morphism"])
    def test_bad_entry_is_one_error_line(self, orz2_bundle, tmp_path, capsys, edit,
                                         validate_rc):
        doc = json.loads(open(orz2_bundle).read())
        edit(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        for argv, rc in ((["validate"], validate_rc), (["tor", "-M", "Mconst", "-N", "Nconst"], 4)):
            assert main([argv[0], str(p), *argv[1:]]) == rc
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("rank", ["1", -1, 1.0, True, None])
    def test_rank_not_a_non_negative_integer(self, orz2_bundle, tmp_path, capsys, rank):
        doc = json.loads(open(orz2_bundle).read())
        obj = doc["category"]["objects"][0]
        doc["modules"]["Mconst"]["values"][obj]["rank"] = rank
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        want = f"module 'Mconst': rank at {obj!r} is {rank!r}, not a non-negative integer"
        assert main(["validate", str(p)]) == 1
        assert want in capsys.readouterr().err
        assert main(["tor", str(p), "-M", "Mconst", "-N", "Nconst"]) == 4
        assert capsys.readouterr().err == f"INPUT ERROR: {want}\n"

    @pytest.mark.parametrize("edit,named", [
        (lambda d, obj: d["modules"].update(Mconst=[]), "module 'Mconst'"),
        (lambda d, obj: d["modules"]["Mconst"].update(values=[]), "'values'"),
        (lambda d, obj: d["modules"]["Mconst"]["values"].update({obj: [1]}),
         "'values' at {obj!r}"),
        (lambda d, obj: d["modules"]["Mconst"].update(action=[[1]]), "'action'"),
    ], ids=["module", "values", "value-at-object", "action"])
    def test_module_part_not_an_object(self, orz2_bundle, tmp_path, capsys, edit, named):
        doc = json.loads(open(orz2_bundle).read())
        obj = doc["category"]["objects"][0]
        edit(doc, obj)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        want = named.format(obj=obj) + " must be an object, not list"
        if not want.startswith("module 'Mconst'"):
            want = f"module 'Mconst': {want}"
        assert main(["validate", str(p)]) == 1
        assert want in capsys.readouterr().err
        assert main(["tor", str(p), "-M", "Mconst", "-N", "Nconst"]) == 4
        assert capsys.readouterr().err == f"INPUT ERROR: {want}\n"

    @pytest.mark.parametrize("edit,want,validate_rc", [
        (lambda d, obj, f: d["modules"]["Mconst"]["values"].pop(obj),
         "'values' has no {obj!r}", 1),
        (lambda d, obj, f: d["modules"]["Mconst"]["values"][obj].pop("rank"),
         "'values' at {obj!r} has no 'rank'", 1),
        (lambda d, obj, f: d["modules"]["Mconst"]["action"].pop(f),
         "'action' has no {f!r}", 1),
        (lambda d, obj, f: d["modules"]["Mconst"].pop("variance"), "module has no 'variance'", 1),
        (lambda d, obj, f: d["modules"]["Mconst"].pop("ring"), "module has no 'ring'", 1),
        (lambda d, obj, f: d.pop("category"), "bundle has no 'category'", 4),
        (lambda d, obj, f: d["category"].pop("compose"), "'category' has no 'compose'", 4),
        (lambda d, obj, f: d["category"]["morphisms"][0].pop("src"),
         "morphism entry 0 has no 'src'", 4),
        (lambda d, obj, f: d["category"]["morphisms"].__setitem__(0, [f, obj, obj]),
         "morphism entry 0 must be an object, not list", 4),
    ], ids=["value", "rank", "action", "variance", "ring", "category", "compose",
            "morphism-src", "morphism-list"])
    def test_error_names_the_missing_field(self, orz2_bundle, tmp_path, capsys, edit, want,
                                           validate_rc):
        doc = json.loads(open(orz2_bundle).read())
        obj = doc["category"]["objects"][0]
        f = doc["category"]["morphisms"][0]["id"]
        edit(doc, obj, f)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        want = want.format(obj=obj, f=f)
        if validate_rc == 1:  # a module's error names the module
            want = f"module 'Mconst': {want}"
        assert main(["validate", str(p)]) == validate_rc
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.rstrip("\n").endswith(want)
        assert main(["tor", str(p), "-M", "Mconst", "-N", "Nconst"]) == 4
        assert capsys.readouterr().err == f"INPUT ERROR: {want}\n"

    @pytest.mark.parametrize("group", [[], {}], ids=["array", "object"])
    def test_family_group_not_a_name(self, orz2_bundle, tmp_path, capsys, group):
        doc = json.loads(open(orz2_bundle).read())
        doc["families"]["all"]["group"] = group
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 1
        assert "family 'all' references unknown group" in capsys.readouterr().err
        assert main(["ss", str(p), "-M", "Mconst", "-N", "Nconst"]) == 4
        assert "family 'all' references unknown group" in capsys.readouterr().err

    def test_family_entry_not_an_object(self, orz2_bundle, tmp_path, capsys):
        doc = json.loads(open(orz2_bundle).read())
        doc["families"]["all"] = []
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        # validate lists it as a violation; a command refuses the bundle
        assert main(["validate", str(p)]) == 1
        assert "family 'all' must be an object" in capsys.readouterr().err
        assert main(["ss", str(p), "-M", "Mconst", "-N", "Nconst"]) == 4
        assert "family 'all' must be an object" in capsys.readouterr().err


COMMANDS = ["validate", "tor", "ss", "ext", "family", "chains"]


def run_each_command(path, commands, capsys):
    """{command: (exit code, stderr)} for each command run on the bundle
    at path with the arguments that make it run on the OrZ2 bundle."""
    out = {}
    for command in commands:
        args = [] if command == "validate" else TestCLI.valid_args(command)
        rc = main([command, str(path), *args])
        out[command] = rc, capsys.readouterr().err
    return out


class TestGroupBound:
    """A bundle group past ``GROUP_ORDER_BOUND``, by order or by degree, is
    refused before its table is built or validated, by every command.  Only
    a group given as a table is validated."""

    @staticmethod
    def bundle_with(tmp_path, group):
        doc = orz2_doc(ZZ)
        doc["groups"]["S"] = group
        p = tmp_path / "group.json"
        p.write_text(json.dumps(doc))
        return p

    @pytest.mark.parametrize("group", [
        {"perm_gens": [[[0, 1, 2, 3, 4, 5]], [[0, 1]]], "degree": 6},
        {"perm_gens": [[[0, 1]]], "degree": 2_000_000},
        {"table": FiniteGroup.cyclic(GROUP_ORDER_BOUND + 1).table},
    ], ids=["S6", "degree-2e6", "table-past-the-bound"])
    def test_past_the_bound_is_refused_before_validation(self, tmp_path, capsys, monkeypatch,
                                                         group):
        validate = FiniteGroup.validate

        def only_within_the_bound(self):
            # the bundle's own S3 is still validated
            assert self.n <= GROUP_ORDER_BOUND, "FiniteGroup.validate ran on a refused group"
            return validate(self)

        monkeypatch.setattr(FiniteGroup, "validate", only_within_the_bound)
        p = self.bundle_with(tmp_path, group)
        for command, (rc, err) in run_each_command(p, ("validate", "tor", "ss"), capsys).items():
            assert rc == 4, command
            assert f"exceeds the group order bound {GROUP_ORDER_BOUND}" in err, command
            assert len(err.splitlines()) == 1 and "Traceback" not in err, command

    def test_s5_still_validates(self, tmp_path, capsys):
        p = self.bundle_with(tmp_path, {"perm_gens": [[[0, 1, 2, 3, 4]], [[0, 1]]], "degree": 5})
        assert main(["validate", str(p)]) == 0
        assert "2 groups" in capsys.readouterr().out
        assert load_bundle(str(p)).groups["S"].n == 120

    def test_perm_gens_group_is_not_validated(self, tmp_path, capsys, monkeypatch):
        # permutations closed under composition form a group by construction,
        # so the n^3 associativity check runs on table groups alone
        validate = FiniteGroup.validate

        def tables_only(self):
            assert self.n != 120, "FiniteGroup.validate ran on the perm_gens S5"
            return validate(self)

        monkeypatch.setattr(FiniteGroup, "validate", tables_only)
        p = self.bundle_with(tmp_path, {"perm_gens": [[[0, 1, 2, 3, 4]], [[0, 1]]], "degree": 5})
        for command, (rc, err) in run_each_command(p, ("tor", "ss", "validate"), capsys).items():
            assert rc == 0, (command, err)

    def test_non_associative_table_is_refused(self, tmp_path, capsys):
        table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 0, 0]]
        p = self.bundle_with(tmp_path, {"table": table})
        for command, (rc, err) in run_each_command(p, ("tor", "ss", "validate"), capsys).items():
            assert rc == (1 if command == "validate" else 4), command
            assert "associativity fails" in err and "Traceback" not in err, command


class TestHostileEntries:
    """Entries that no ring or category accepts: each is one error line,
    with exit 1 from validate for a module and 4 otherwise."""

    @pytest.mark.parametrize("where", ["action", "relation"])
    def test_zero_denominator(self, tmp_path, capsys, where):
        doc = orz2_doc(QQ)
        obj = doc["category"]["objects"][0]
        module = doc["modules"]["Mconst"]
        if where == "action":
            module["action"][doc["category"]["identity"][obj]] = [["1/0"]]
        else:
            module["values"][obj]["relations"] = [["1/0"]]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        for command, (rc, err) in run_each_command(p, COMMANDS, capsys).items():
            assert rc == (1 if command == "validate" else 4), command
            assert "zero denominator" in err and len(err.splitlines()) == 1, command

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=["Z", "Q", "F3"])
    def test_boolean_entry(self, tmp_path, capsys, ring):
        doc = orz2_doc(ring)
        obj = doc["category"]["objects"][0]
        doc["modules"]["Mconst"]["action"][doc["category"]["identity"][obj]] = [[True]]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        for command, (rc, err) in run_each_command(p, ["validate", "tor"], capsys).items():
            assert rc == (1 if command == "validate" else 4), command
            assert "True" in err and len(err.splitlines()) == 1, command

    @pytest.mark.parametrize("value", [[], {}], ids=["array", "object"])
    @pytest.mark.parametrize("edit,named", [
        (lambda c, v: c["objects"].__setitem__(1, v), "object entry 1"),
        (lambda c, v: c["morphisms"][0].update(id=v), "morphism entry 0 'id'"),
        (lambda c, v: c["morphisms"][0].update(tgt=v), "morphism entry 0 'tgt'"),
        (lambda c, v: c["compose"][0].__setitem__(2, v), "compose entry 0"),
        (lambda c, v: c["identity"].update({c["objects"][0]: v}), "identity of"),
    ], ids=["object", "morphism", "morphism-tgt", "compose", "identity"])
    def test_name_that_is_no_string(self, orz2_bundle, tmp_path, capsys, value, edit, named):
        doc = json.loads(open(orz2_bundle).read())
        edit(doc["category"], value)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        want = f"must be a string, not {type(value).__name__}"
        for command, (rc, err) in run_each_command(p, COMMANDS, capsys).items():
            assert rc == 4, command
            assert named in err and want in err and len(err.splitlines()) == 1, command

    def test_prime_field_sizes(self):
        from cathom.rings import ring_from_tag

        start = time.perf_counter()
        assert ring_from_tag("Fp:2305843009213693951").p == 2**61 - 1
        assert time.perf_counter() - start < 1
        for p in (2**61 + 1, 2**61 - 3, 3215031751, 3825123056546413051, 2**64 + 13, 2**70):
            with pytest.raises(ValueError):
                ring_from_tag(f"Fp:{p}")
        # against sympy's primality test, up to 2**64
        rng = random.Random(0)
        for n in [2**64 - 59, *(rng.randrange(2**32, 2**64) | 1 for _ in range(300))]:
            try:
                accepted = ring_from_tag(f"Fp:{n}").p == n
            except ValueError:
                accepted = False
            assert accepted == sympy.isprime(n), n
        for p in (5.0, True):  # a bundle's "p" must be a JSON integer
            with pytest.raises(ValueError):
                ring_from_tag("Fp", p)
        primes = [n for n in range(200) if all(n % d for d in range(2, n))][2:]
        for n in range(200):
            if n in primes:
                assert ring_from_tag(f"Fp:{n}").p == n
            else:
                with pytest.raises(ValueError):
                    ring_from_tag(f"Fp:{n}")

    @pytest.mark.parametrize("command", ["ss", "tor"])
    def test_large_prime_flag_is_a_ring_mismatch(self, orz2_bundle, capsys, command):
        rc = main([command, orz2_bundle, *TestCLI.valid_args(command),
                   "--ring", f"Fp:{2**61 - 1}"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: ") and len(err.splitlines()) == 1


HOSTILE = ["1/0", True, None, [], {}, -1, 1.5, "x"]
HOSTILE_DOCS = {name: orz2_doc(ring) for name, ring in (("Z", ZZ), ("Q", QQ), ("F3", GF(3)))}


def leaf_paths(doc, path=()):
    """The path of every leaf of a JSON document: a value that is no list
    or object, or an empty one."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    if not items:
        yield path
    for key, value in items:
        yield from leaf_paths(value, (*path, key))


class TestHostileLeaves:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(HOSTILE_DOCS)), st.data())
    def test_every_command_exits_0_to_4(self, tmp_path, name, data):
        doc = copy.deepcopy(HOSTILE_DOCS[name])
        paths = list(leaf_paths(doc))
        for _ in range(data.draw(st.integers(1, 2))):
            *parents, last = data.draw(st.sampled_from(paths))
            target = doc
            for key in parents:
                target = target[key]
            target[last] = copy.deepcopy(data.draw(st.sampled_from(HOSTILE)))
        p = tmp_path / "hostile.json"
        p.write_text(json.dumps(doc))
        out = str(tmp_path / "out.json")
        assert main(["validate", str(p)]) in range(5)
        for command in ("tor", "ss", "ext"):
            args = TestCLI.valid_args(command)
            assert main([command, str(p), *args, "--nmax", "1", "--out", out]) in range(5)
