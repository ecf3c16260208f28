"""Workload inputs and jobs for the cathom benchmark.

Each workload has a fixed instance set.  ``generate`` writes its input
bundles; ``job_list`` lists the jobs of one pass and ``pass_orders`` puts
them in the order the seed gives.  A job calls ``cathom.cli.main``
in-process, or ``verify_e1`` on modules loaded from a bundle, and returns
the bytes of its output document together with the verdict the run checks.
"""

from __future__ import annotations

import json
import os
import random
import time

FIXTURE_RINGS = ("Z", "F2")
FIXTURE_PAIRS = [(m, n) for m in ("Mconst", "Malt") for n in ("Nconst", "Naug")]
E1_PAIRS = [("Mconst", "Nconst"), ("Malt", "Naug")]

WORKLOADS = ("fixture-sweep", "orbit-pages", "e1-bar", "ext-orbit")


def _ring(tag):
    from cathom.rings import GF, ZZ

    return {"Z": ZZ, "F2": GF(2)}[tag]


def _bundle(cat, ring) -> dict:
    from cathom.fixtures import fixture_modules
    from cathom.serialize import bundle_to_json

    Ms, Ns = fixture_modules(cat, ring)
    return bundle_to_json(cat, modules={
        "Mconst": Ms["const"], "Malt": Ms["alt"],
        "Nconst": Ns["const"], "Naug": Ns["aug"],
    })


def _dihedral8():
    from cathom.groups import FiniteGroup

    return FiniteGroup.from_permutations([[(0, 1, 2, 3)], [(0, 2)]], 4, name="D8")


def _z2xz4():
    from cathom.groups import FiniteGroup

    return FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))


def bundle_docs(workload: str) -> dict[str, dict]:
    """Bundle name -> bundle document for the workload's instances."""
    from cathom.groups import orbit_category

    if workload == "fixture-sweep":
        from cathom.fixtures import FIXTURE_NAMES, fixture_category

        return {
            f"{name}-{tag}": _bundle(fixture_category(name), _ring(tag))
            for name in FIXTURE_NAMES
            for tag in FIXTURE_RINGS
        }
    if workload == "orbit-pages":
        return {"OrZ2xZ4-Z": _bundle(orbit_category(_z2xz4()), _ring("Z"))}
    if workload == "e1-bar":
        from cathom.fixtures import fixture_category

        return {"OrS3-Z": _bundle(fixture_category("OrS3"), _ring("Z"))}
    if workload == "ext-orbit":
        return {"OrD8-Z": _bundle(orbit_category(_dihedral8()), _ring("Z"))}
    raise KeyError(workload)


def generate(workload: str, directory: str) -> dict[str, str]:
    """Write the workload's bundles; return bundle name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, doc in bundle_docs(workload).items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True))
        paths[name] = path
    return paths


class Job:
    """One closed-loop call.  ``key`` names the job independently of the
    pass and the seed; golden digests are stored under it."""

    def __init__(self, key: str, kind: str, bundle: str, argv: list[str],
                 pair: tuple[str, str] | None = None):
        self.key = key
        self.kind = kind
        self.bundle = bundle
        self.argv = argv
        self.pair = pair
        n = argv[argv.index("-N") + 1] if "-N" in argv else key
        self.cache_group = (bundle, n)


def job_list(workload: str, jobs: int | None = None) -> list[Job]:
    """The jobs of one pass in canonical order.  ``jobs`` overrides the
    --jobs value (the golden digests of orbit-pages are made at 1)."""
    if workload == "fixture-sweep":
        from cathom.fixtures import FIXTURE_NAMES

        return [
            Job(f"{name}-{tag}/{m}/{n}", "ss", f"{name}-{tag}",
                ["-M", m, "-N", n, "--nmax", "3", "--jobs", str(jobs or 1)])
            for name in FIXTURE_NAMES
            for tag in FIXTURE_RINGS
            for m, n in FIXTURE_PAIRS
        ]
    if workload == "orbit-pages":
        return [Job("OrZ2xZ4-Z/Malt/Naug", "ss", "OrZ2xZ4-Z",
                    ["-M", "Malt", "-N", "Naug", "--nmax", "3",
                     "--jobs", str(jobs or 2)])]
    if workload == "e1-bar":
        return [Job(f"OrS3-Z/{m}/{n}", "e1", "OrS3-Z", [], pair=(m, n))
                for m, n in E1_PAIRS]
    if workload == "ext-orbit":
        return [Job("OrD8-Z/Malt/Mconst", "ext", "OrD8-Z",
                    ["-M", "Malt", "-N", "Mconst", "--nmax", "2"])]
    raise KeyError(workload)


def pass_orders(jobs: list[Job], seed: int):
    """Yield the job order of pass 0, 1, 2, ...: a shuffle drawn from the
    seed, so the same seed gives the same sequence of orders.

    Jobs that resolve the same N over the same bundle share a cache entry.
    Of these, the one listed first in ``jobs`` keeps the earliest place the
    shuffle gave the group, so it writes the entry and the others read it
    whatever the seed; only the places of the jobs change."""
    rng = random.Random(seed)
    rank = {id(job): k for k, job in enumerate(jobs)}
    while True:
        order = list(jobs)
        rng.shuffle(order)
        slots: dict[tuple, list[int]] = {}
        for pos, job in enumerate(order):
            slots.setdefault(job.cache_group, []).append(pos)
        fixed = list(order)
        for positions in slots.values():
            members = sorted((order[p] for p in positions), key=lambda j: rank[id(j)])
            for pos, job in zip(positions, members):
                fixed[pos] = job
        yield fixed


def run_job(job: Job, paths: dict[str, str], out_path: str,
            cache_dir: str | None) -> tuple[float, bytes, bool]:
    """Run one job; return (seconds in the program, output document
    bytes, verdict ok).

    The verdict is exit code 0 and ``all_match`` true in the output
    document: the oracle comparison the program makes on every run.  The
    document of an E^1 job is ``E1Report.to_json()`` in canonical JSON."""
    import cathom.cli
    import cathom.e1data
    import cathom.serialize

    if job.kind == "e1":
        m, n = job.pair
        t0 = time.perf_counter()
        ws = cathom.serialize.load_bundle(paths[job.bundle])
        doc = cathom.e1data.verify_e1(ws.modules[m], ws.modules[n], 3).to_json()
        elapsed = time.perf_counter() - t0
        return elapsed, cathom.serialize.canonical_json(doc).encode(), doc["all_match"] is True
    argv = [job.kind, paths[job.bundle], *job.argv, "--out", out_path]
    if cache_dir is not None:
        argv += ["--cache-dir", cache_dir]
    if os.path.exists(out_path):
        os.remove(out_path)  # never read the previous job's document
    t0 = time.perf_counter()
    rc = cathom.cli.main(argv)
    elapsed = time.perf_counter() - t0
    with open(out_path, "rb") as fh:
        data = fh.read()
    ok = rc == 0 and json.loads(data)["convergence"]["all_match"] is True
    return elapsed, data, ok
