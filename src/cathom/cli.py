"""Command-line front end.

Commands: validate, chains, ss, ext, family, tor, assembly.  Each command
takes only the flags it reads (``_COMMAND_FLAGS``); any other flag is
refused like a command line that does not parse.
Exit codes: 0 ok, 1 validation failure, 2 convergence/exactness mismatch,
3 unbounded chains, 4 input error, a command line that does not parse
included.  PCHAIN_CACHE overrides ss --cache-dir.
Output is deterministic: identical inputs and config produce byte-identical
documents.  ss --jobs is accepted but does not change the output: every
command runs serially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cache import DiskCache, cached_free_resolution
from .catmod import CO, CONTRA, full_subcategory
from .extpages import ext_pages
from .fincat import UnboundedChains, chain_biset, chain_bound, enumerate_chains
from .groups import check_M, check_NM, cofinal_inclusion_check, reduce_family
from .resolve import assembly_tor, tor
from .rings import ring_from_tag
from .serialize import ParseError, family_to_json, load_bundle
from .spectral import build_filtered_complex, converge_and_compare, spectral_pages

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_UNBOUNDED = 3
EXIT_INPUT = 4


def _emit(doc, lines, out):
    """Write the table lines, or else the JSON document, to out or stdout."""
    text = "\n".join(lines) if lines is not None else json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cache_from(args) -> DiskCache | None:
    directory = os.environ.get("PCHAIN_CACHE") or args.cache_dir
    return DiskCache(directory) if directory else None


def cmd_validate(args) -> int:
    violations = []
    for path in args.bundle:
        try:
            ws = load_bundle(path, strict=False)
        except ParseError as e:
            print(f"{path}: PARSE ERROR: {e}", file=sys.stderr)
            return EXIT_INPUT
        violations.extend(f"{path}: {v}" for v in ws.violations)
        if not ws.violations:
            print(f"{path}: category ok, {len(ws.modules)} modules, "
                  f"{len(ws.groups)} groups, {len(ws.families)} families, "
                  f"hash {ws.digest[:12]}")
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def cmd_chains(args):
    cat = load_bundle(args.bundle).category
    chains = enumerate_chains(cat, args.pmax)
    doc = {"category": cat.name, "counts": {}, "chains": {}}
    for p in sorted(chains):
        doc["counts"][str(p)] = len(chains[p])
        entries = []
        for ch in chains[p]:
            size = chain_biset(cat, ch).size() if p >= 1 else 1
            entries.append({"classes": list(ch.reps), "biset_size": size})
        doc["chains"][str(p)] = entries
    lines = None
    if args.format == "table":
        lines = [f"chains of {cat.name}:"]
        for p in sorted(chains):
            lines.append(f"  p={p}: {len(chains[p])}")
            for e in doc["chains"][str(p)]:
                lines.append(f"    {' < '.join(e['classes'])}  |S| = {e['biset_size']}")
    return doc, lines, EXIT_OK


def _check_flags(args):
    """Refuse, before any work, a negative --nmax, --pmax, --qmax or
    --rmax, a --ring that names no ring, an --out that cannot be
    written because it is a directory or its directory does not exist,
    and a cache directory (ss) that is a file or lies under one.
    A flag the command does not take is None here."""
    for flag in ("nmax", "pmax", "qmax", "rmax"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ParseError(f"--{flag} must be non-negative, got {value}")
    ring = getattr(args, "ring", None)
    if ring is not None:
        try:
            ring_from_tag(ring)
        except ValueError as e:
            raise ParseError(f"--ring {ring!r}: {e}") from None
    out = getattr(args, "out", None)
    if out is not None:
        if os.path.isdir(out):
            raise ParseError(f"--out {out!r} is a directory")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ParseError(f"--out {out!r}: no such directory")
    if hasattr(args, "cache_dir"):  # ss, where PCHAIN_CACHE overrides --cache-dir
        env = os.environ.get("PCHAIN_CACHE")
        directory = env or args.cache_dir
        # DiskCache makes the directory and its parents; a file on the way stops it
        blocker = os.path.abspath(directory or ".")
        while not os.path.lexists(blocker):
            blocker = os.path.dirname(blocker)
        if not os.path.isdir(blocker):
            name = "PCHAIN_CACHE" if env else "--cache-dir"
            raise ParseError(f"{name} {directory!r}: {blocker!r} is not a directory")


def _load_mn(args, want_n_variance):
    ws = load_bundle(args.bundle)
    if args.module_m not in ws.modules:
        raise ParseError(f"module {args.module_m!r} not in bundle")
    if args.module_n not in ws.modules:
        raise ParseError(f"module {args.module_n!r} not in bundle")
    M = ws.modules[args.module_m]
    N = ws.modules[args.module_n]
    if M.variance != CONTRA:
        raise ParseError("M must be contravariant")
    if N.variance != want_n_variance:
        raise ParseError(f"N must be {want_n_variance}variant")
    if M.ring != N.ring:
        raise ParseError(f"M is over {M.ring} but N is over {N.ring}")
    if args.ring:
        ring = ring_from_tag(args.ring)
        if M.ring != ring or N.ring != ring:
            raise ParseError(
                f"bundle modules are over {M.ring}/{N.ring}, not {args.ring}"
            )
    return ws, M, N


def _load_paged(args, want_n_variance):
    """(ws, M, N, q_max) for ss and ext, refusing the bounds under which
    the pages cannot certify the convergence band."""
    ws, M, N = _load_mn(args, want_n_variance)
    q_max = args.qmax if args.qmax is not None else args.nmax + 1
    if q_max < args.nmax + 1:
        raise ParseError(f"qmax must be at least nmax + 1 = {args.nmax + 1} "
                         "for the convergence band")
    bound = chain_bound(ws.category)
    if args.pmax is not None and args.pmax < bound:
        raise ParseError(f"pmax must cover the chain bound {bound} "
                         "when convergence is requested")
    return ws, M, N, q_max


def cmd_ss(args):
    ws, M, N, q_max = _load_paged(args, CO)
    Q = cached_free_resolution(N, q_max, _cache_from(args))
    fc = build_filtered_complex(M, N, p_max=args.pmax, q_max=q_max, Q=Q)
    pages = spectral_pages(fc)
    report = converge_and_compare(M, N, args.nmax, fc=fc, pages=pages)
    if args.rmax is not None:
        # pages stop at r_stab, so E^0..E^rmax is a prefix of them
        pages = pages[: args.rmax + 1]
    doc = {
        "bundle_hash": ws.digest,
        "M": args.module_m,
        "N": args.module_n,
        "config": {"nmax": args.nmax, "pmax": fc.p_max, "qmax": fc.q_max,
                   "rmax": args.rmax},
        "pages": [pg.to_json() for pg in pages],
        "oracle": {str(d["m"]): d["oracle"] for d in report.degrees},
        "convergence": report.to_json(),
    }
    lines = None
    if args.format == "table":
        lines = [f"E^infty of ({args.module_m}, {args.module_n}); "
                 f"certified band {report.band}"]
        einf = pages[-1]
        for (p, q) in sorted(einf.entries):
            m = einf.entry(p, q)
            if not m.is_zero():
                lines.append(f"  E({p},{q}) = {m.pretty()}")
        for d in report.degrees:
            lines.append(f"  Tor_{d['m']} = {d['oracle']} (total {d['total']}) "
                         f"{'ok' if d['match'] else 'MISMATCH'}")
        lines.append("all-match" if report.all_match else "MISMATCH")
    return doc, lines, EXIT_OK if report.all_match else EXIT_MISMATCH


def cmd_ext(args):
    ws, M, N, q_max = _load_paged(args, CONTRA)
    pages, report = ext_pages(M, N, p_max=args.pmax, q_max=q_max, n_max=args.nmax)
    if args.rmax is not None:
        pages = pages[: args.rmax + 1]
    doc = {
        "bundle_hash": ws.digest,
        "M": args.module_m,
        "N": args.module_n,
        "config": {"nmax": args.nmax, "qmax": q_max, "rmax": args.rmax},
        "pages": [pg.to_json() for pg in pages],
        "convergence": report.to_json(),
    }
    return doc, None, EXIT_OK if report.all_match else EXIT_MISMATCH


def cmd_tor(args):
    ws, M, N = _load_mn(args, CO)
    groups = tor(M, N, args.nmax)
    doc = {
        "bundle_hash": ws.digest,
        "M": args.module_m,
        "N": args.module_n,
        "tor": {str(q): groups[q].pretty() for q in range(args.nmax + 1)},
    }
    lines = None
    if args.format == "table":
        lines = [f"Tor_{q} = {groups[q].pretty()}" for q in range(args.nmax + 1)]
    return doc, lines, EXIT_OK


def cmd_family(args):
    if not args.assembly and (args.ring is not None or args.nmax is not None):
        raise ParseError("--ring and --nmax are read only with --assembly")
    ws = load_bundle(args.bundle)
    if args.family not in ws.families:
        raise ParseError(f"family {args.family!r} not in bundle")
    gname, fam = ws.families[args.family]
    G = ws.groups[gname]
    if args.subfamily:
        if args.subfamily not in ws.families:
            raise ParseError(f"family {args.subfamily!r} not in bundle")
        gname2, sub = ws.families[args.subfamily]
        if gname2 != gname:
            raise ParseError("subfamily belongs to a different group")
    else:
        sub = reduce_family(fam)
    try:
        ok, witnesses = cofinal_inclusion_check(sub, fam)
    except ValueError as e:
        raise ParseError(str(e)) from None
    doc = {
        "group": gname,
        "family_size": len(fam),
        "reduced": family_to_json(sub),
        "cofinal": ok,
        "M": check_M(G, fam),
        "NM": check_NM(G, fam),
    }
    if ok:
        doc["witnesses"] = {
            str(sorted(H)): sorted(K) for H, K in witnesses.items()
        }
    else:
        doc["counterexample"] = sorted(witnesses["counterexample"])
    if args.assembly:
        from .groups import orbit_category
        from .catmod import CatModule

        ring = ring_from_tag(args.ring or "Z")
        n_max = _FLAGS["nmax"]["default"] if args.nmax is None else args.nmax
        big = orbit_category(G, fam)
        keep = [o for o in big.objects if big.subgroup_of[o] in sub._set]
        smallcat, inc = full_subcategory(big, keep)
        N = CatModule.constant(big, ring, CO)
        res = assembly_tor(inc, N, n_max)
        doc["assembly"] = [
            {"q": q, "source": res.source[q].pretty(),
             "target": res.target[q].pretty(), "iso": res.iso[q]}
            for q in range(n_max + 1)
        ]
    return doc, None, EXIT_OK


def cmd_assembly(args):
    ws = load_bundle(args.bundle)
    if args.module_n not in ws.modules:
        raise ParseError(f"module {args.module_n!r} not in bundle")
    N = ws.modules[args.module_n]
    if N.variance != CO:
        raise ParseError("assembly needs a covariant coefficient module")
    objs = args.objects.split(",")
    for k, o in enumerate(objs):
        if o not in ws.category.obj_index:
            raise ParseError(f"object {o!r} not in the category")
        if o in objs[:k]:
            raise ParseError(f"object {o!r} given twice in --objects")
    sub, inc = full_subcategory(ws.category, objs)
    res = assembly_tor(inc, N, args.nmax)
    doc = {
        "bundle_hash": ws.digest,
        "subcategory": sub.objects,
        "N": args.module_n,
        "maps": [
            {"q": q, "source": res.source[q].pretty(),
             "target": res.target[q].pretty(),
             "matrix": res.maps[q].entries_json(),
             "iso": res.iso[q]}
            for q in range(args.nmax + 1)
        ],
    }
    return doc, None, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ParseError where argparse would
    print a usage block and exit 2; the subparsers are of this class too."""

    def error(self, message):
        raise ParseError(message)


# The shared flags, in help order, and the ones each command reads.
_FLAGS = {
    "ring": {"default": None, "help": "Z, Q or Fp:P"},
    "nmax": {"type": int, "default": 3},
    "pmax": {"type": int, "default": None},
    "qmax": {"type": int, "default": None},
    "rmax": {"type": int, "default": None},
    "jobs": {"type": int, "default": 1},
    "cache_dir": {"default": None},
    "format": {"choices": ["json", "table"], "default": "json"},
    "out": {"default": None, "help": "write output to a file"},
}
_COMMAND_FLAGS = {
    "chains": {"pmax", "format", "out"},
    "ss": set(_FLAGS),
    "ext": {"ring", "nmax", "pmax", "qmax", "rmax", "out"},
    "tor": {"ring", "nmax", "format", "out"},
    "family": {"ring", "nmax", "out"},
    "assembly": {"nmax", "out"},
}


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cathom",
        description="Exact homological algebra over finite categories",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="validate bundles")
    pv.add_argument("bundle", nargs="+")

    def command(name, summary, modules=""):
        p = sub.add_parser(name, help=summary)
        p.add_argument("bundle")
        for m in modules:
            p.add_argument(f"-{m}", dest=f"module_{m.lower()}", required=True)
        return p

    command("chains", "list chains and biset sizes")
    command("ss", "spectral sequence pages and convergence", "MN")
    command("ext", "cohomology pages and convergence", "MN")
    command("tor", "the Tor oracle", "MN")
    pf = command("family", "cofinality, reduction and (M)/(NM)")
    pf.add_argument("--family", required=True)
    pf.add_argument("--subfamily", default=None)
    pf.add_argument("--assembly", action="store_true")
    pa = command("assembly", "assembly maps along a subcategory inclusion", "N")
    pa.add_argument("--objects", required=True,
                    help="comma-separated objects of the full subcategory")
    for name, flags in _COMMAND_FLAGS.items():
        for flag, spec in _FLAGS.items():
            if flag in flags:
                sub.choices[name].add_argument("--" + flag.replace("_", "-"), **spec)
    # family reads --nmax only with --assembly, so it must see whether it was given
    pf.set_defaults(nmax=None)
    return ap


_PARSER: list[argparse.ArgumentParser] = []  # built by the first main call


def main(argv=None) -> int:
    """Parse argv and run its command.  Every command but validate returns
    (document, table lines or None, exit code); the output and the input
    and unbounded-chain errors are handled here, once."""
    if not _PARSER:
        _PARSER.append(make_parser())
    try:
        args = _PARSER[0].parse_args(argv)
        # looked up per call, so a replaced cmd_<command> is the one that runs
        run = globals()[f"cmd_{args.command}"]
        if args.command == "validate":
            return run(args)
        _check_flags(args)
        doc, lines, code = run(args)
    except ParseError as e:
        print(f"INPUT ERROR: {e}", file=sys.stderr)
        return EXIT_INPUT
    except UnboundedChains as e:
        print(f"UNBOUNDED: {e}", file=sys.stderr)
        return EXIT_UNBOUNDED
    _emit(doc, lines, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
