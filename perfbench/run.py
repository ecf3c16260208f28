"""The cathom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Run from the root of a source checkout; cathom is imported from ``src/``.
A run sets up the workload's inputs, then runs passes over its jobs, one
job after another in one process, until ``--seconds`` would be exceeded
(at least one pass).  Every job's output document is checked against the
oracle verdict and against the golden digest in ``golden.json``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see README.md).  A results file with the raw samples,
the machine and the instance sizes goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
SETUP_SAMPLES = 7

# Run in a fresh interpreter: import cathom and write the workload's
# bundles, timed from the first import to the last file written.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import cathom.cli, cathom.e1data, cathom.serialize
import workloads
workloads.generate(sys.argv[1], sys.argv[2])
t1 = time.perf_counter()
if not cathom.__file__.startswith(sys.argv[3]):
    sys.exit("cathom imported from " + cathom.__file__)
print(t1 - t0)
"""


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_cathom() -> None:
    if not os.path.isfile(os.path.join(SRC, "cathom", "__init__.py")):
        die(f"no cathom sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import cathom

    if not os.path.abspath(cathom.__file__).startswith(os.path.join(SRC, "")):
        die(f"cathom imported from {cathom.__file__}, not from {SRC}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)["digests"]
    except (OSError, ValueError, KeyError) as e:
        die(f"cannot read golden digests {GOLDEN}: {e}")


# -- set-up -------------------------------------------------------------------


def timed_setups(workload: str, workdir: str) -> tuple[list[float], dict[str, str]]:
    """SETUP_SAMPLES fresh-interpreter set-ups; the bundles of the last one
    are the run's inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    samples = []
    for k in range(SETUP_SAMPLES):
        target = os.path.join(workdir, f"setup{k}")
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, workload, target, os.path.join(SRC, "")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            die(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    paths = {f[:-len(".json")]: os.path.join(target, f)
             for f in sorted(os.listdir(target)) if f.endswith(".json")}
    return samples, paths


# -- passes -------------------------------------------------------------------


def run_pass(workload, order, paths, golden, workdir, index) -> dict:
    import workloads

    cache_dir = os.path.join(workdir, f"cache{index}") if workload == "fixture-sweep" else None
    out_path = os.path.join(workdir, "out.json")
    jobs = []
    gc.collect()
    t0 = time.perf_counter()
    for job in order:
        started = time.perf_counter()
        try:
            elapsed, data, ok = workloads.run_job(job, paths, out_path, cache_dir)
        except (Exception, SystemExit):  # a crashed job is a failed job
            traceback.print_exc()
            elapsed, data, ok = time.perf_counter() - started, b"", False
        digest = sha256(data)
        jobs.append({
            "key": job.key, "kind": job.kind, "s": elapsed, "ok": ok, "digest": digest,
            "golden": golden.get(job.key) == digest, "out_bytes": len(data),
        })
    wall = time.perf_counter() - t0
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"wall_s": wall, "jobs": jobs}


def measure(workload, seconds, orders, paths, golden, workdir, tracer=None) -> list[dict]:
    """Passes until the next one would end after ``seconds``; at least one.
    A pass with a failed job ends the run: its times mean nothing."""
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(workload, next(orders), paths, golden, workdir, len(passes))
        if tracer is not None:
            p["stats"], p["sizes"] = tracer.collect()
        passes.append(p)
        elapsed = time.perf_counter() - start
        if job_failures([p])[1] or elapsed + statistics.median(
                x["wall_s"] for x in passes) > seconds:
            return passes


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it.  With fewer than 21 samples no percentile
    above the median has ten beyond it; the upper median stands in."""
    xs = sorted(samples)
    beyond = min(10, (len(xs) - 1) // 2)
    k = len(xs) - 1 - beyond
    return xs[k], 100.0 * (k + 1) / len(xs), beyond


# -- records ------------------------------------------------------------------


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": model,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def instance_sizes(paths: dict[str, str]) -> dict:
    """Objects, morphisms and chains per p of every bundle's category."""
    from cathom.fincat import UnboundedChains, enumerate_chains
    from cathom.serialize import load_bundle

    out = {}
    for name in sorted(paths):
        cat = load_bundle(paths[name]).category
        try:
            chains = {str(p): len(c) for p, c in sorted(enumerate_chains(cat).items())}
        except UnboundedChains:
            chains = "unbounded"
        out[name] = {"objects": len(cat.objects), "morphisms": len(cat.morphisms),
                     "chains_per_p": chains}
    return out


def job_failures(passes: list[dict]) -> tuple[int, int]:
    jobs = [j for p in passes for j in p["jobs"]]
    return len(jobs), sum(1 for j in jobs if not (j["ok"] and j["golden"]))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run -----------------------------------------------------


def untraced_run(args, golden, workdir) -> tuple[dict, dict, bool]:
    import tracer
    import workloads

    before = tracer.identity_snapshot()
    setups, paths = timed_setups(args.workload, workdir)
    orders = workloads.pass_orders(workloads.job_list(args.workload), args.seed)
    passes = measure(args.workload, args.seconds, orders, paths, golden, workdir)
    patched = tracer.snapshot_diff(before, tracer.identity_snapshot())
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    job_s = [j["s"] for p in passes for j in p["jobs"]]
    tail_s, tail_pct, beyond = tail(job_s)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "job_p50_s": metric(statistics.median(job_s), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }
    record = {
        "setup_samples_s": setups,
        "job_tail": {"percentile": tail_pct, "samples": len(job_s), "beyond": beyond},
        "passes": passes,
        "patched_attributes": patched,
        "instance": instance_sizes(paths),
    }
    return metrics, record, not patched


def traced_run(args, golden, workdir) -> tuple[dict, dict, bool]:
    import tracer as tr
    import workloads

    before = tr.identity_snapshot()
    tracer = tr.Tracer()
    tracer.install()
    wrapped = len(tracer.wrapped)
    t0 = time.perf_counter()
    paths = workloads.generate(args.workload, os.path.join(workdir, "setup"))
    setup_wall = time.perf_counter() - t0
    setup_stats, _ = tracer.collect()
    tracer.uninstall()
    leftover = tr.snapshot_diff(before, tr.identity_snapshot())

    orders = workloads.pass_orders(workloads.job_list(args.workload), args.seed)
    reference = run_pass(args.workload, next(orders), paths, golden, workdir, 0)
    tracer.install()
    passes = measure(args.workload, args.seconds, orders, paths, golden, workdir, tracer)
    tracer.uninstall()
    leftover += tr.snapshot_diff(before, tr.identity_snapshot())

    per_pass = [tr.layer_metrics(p["stats"], p["sizes"]) for p in passes]
    for values, p in zip(per_pass, passes):
        values["cli.out_bytes"] = sum(j["out_bytes"] for j in p["jobs"] if j["kind"] != "e1")
        self_s = sum(values[f"layer.{layer}_s"] for layer in tr.LAYERS)
        values["trace.coverage"] = self_s / p["wall_s"]
        values["trace.wrapped_calls"] = sum(rec[0] for rec in p["stats"].values())
    units = {name: unit for name, (unit, _, _) in tr.PER_LAYER.items()}
    units.update({"cli.out_bytes": "count", "trace.coverage": "ratio",
                  "trace.wrapped_calls": "count"})
    metrics = {}
    for name in per_pass[0]:
        unit = units.get(name, "s")
        # counts repeat exactly from pass to pass (checked below)
        middle = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = metric(middle(v[name] for v in per_pass), unit)
    hits, misses = metrics["cache.hits"]["value"], metrics["cache.misses"]["value"]
    metrics["cache.hit_ratio"] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    groups_s = sum(rec[1] for key, rec in setup_stats.items() if key.startswith("groups:")) / 1e9
    metrics["groups.orbit_category_s"] = metric(groups_s, "s")
    traced_s = statistics.median(p["wall_s"] for p in passes)
    metrics["trace.run_s"] = metric(traced_s, "s")
    metrics["trace.untraced_run_s"] = metric(reference["wall_s"], "s")
    metrics["trace.overhead_s"] = metric(traced_s - reference["wall_s"], "s")

    first = passes[0]["sizes"]
    # lists come in job order, which the seed sets; sort them so that the
    # fingerprint depends only on what the workload computes
    instance = {
        "bundles": instance_sizes(paths),
        "chains_per_p": first.get("chains_per_p", {}),
        "total_dim_per_degree": sorted(first.get("total_dim_per_degree", [])),
        "bar_ranks": sorted(first.get("bar_ranks", [])),
        "free_ranks": sorted(first.get("free_ranks", [])),
        "snf_shapes": dict(sorted(first.get("snf_shapes", {}).items(),
                                  key=lambda kv: tuple(map(int, kv[0].split("x"))))),
    }
    for p in passes:
        p["functions"] = {k: {"calls": c, "self_s": ns / 1e9}
                          for k, (c, ns) in sorted(p.pop("stats").items(),
                                                   key=lambda kv: -kv[1][1])}
        p.pop("sizes")
    record = {
        "setup_wall_s": setup_wall,
        "wrapped_functions": wrapped,
        "reference_pass": reference,
        "passes": passes,
        "patched_attributes": leftover,
        "instance": instance,
    }
    counts_steady = all(
        per_pass[0][name] == v[name] for v in per_pass
        for name, (_, kind, _) in tr.PER_LAYER.items() if kind != "self")
    record["counts_steady"] = counts_steady
    return metrics, record, not leftover and counts_steady


# -- golden digests -------------------------------------------------------------


def record_golden() -> None:
    """Write golden.json: the digest of every job's output at this commit,
    in canonical order, without a cache, with --jobs 1."""
    import workloads

    workdir = os.path.join(WORK, f"golden-{os.getpid()}")
    digests = {}
    try:
        for workload in workloads.WORKLOADS:
            paths = workloads.generate(workload, os.path.join(workdir, workload))
            out = {}
            for job in workloads.job_list(workload, jobs=1):
                _, data, ok = workloads.run_job(job, paths, os.path.join(workdir, "out.json"), None)
                if not ok:
                    die(f"{workload} {job.key}: the oracle check fails; no golden digest")
                out[job.key] = sha256(data)
                print(f"{workload} {job.key} {out[job.key]}", file=sys.stderr)
            digests[workload] = out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN, "w") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    import_cathom()
    import workloads

    if args.record_golden:
        record_golden()
        return 0
    if args.workload not in workloads.WORKLOADS:
        die(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    golden = load_golden().get(args.workload)
    if not golden:
        die(f"no golden digests for {args.workload}")

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced_run if args.trace else untraced_run
        metrics, record, hygiene_ok = run(args, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = record["passes"] + ([record["reference_pass"]] if args.trace else [])
    attempted, failed = job_failures(passes)
    correct = failed == 0 and hygiene_ok
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "result": result,
        "fail_ratio": failed / attempted,
        "instance_digest": sha256(json.dumps(record["instance"], sort_keys=True).encode()),
    })
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
