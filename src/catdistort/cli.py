"""Batch front end.

Subcommands: sigma, build, verify, reduce, ball, distortion, witness,
export-dot.  Exit codes: 0 all checks passed, 1 a verification failed
(with a witness in the report), 2 usage or parameter error, 3 an
enumeration cap was exceeded.  Machine output is deterministic for a
fixed invocation, human summaries go to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable

from . import presentations as P
from . import linkgeom as LG
from .distortion import (
    normalize,
    tower_geodesic_bounds,
    witness_block,
    witness_chain,
    witness_tower,
)
from .errors import CapExceededError, CatDistortError, InvalidParameterError, SpecParseError
from .navigator import ball, britton_reduce, measure_distortion
from .words import _sigma_blocks, alphabet_of, check_pair_uniqueness

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _add_group_args(p: argparse.ArgumentParser):
    p.add_argument("--block", nargs=3, type=int, metavar=("N", "M", "L"),
                   help="building block parameters n m L")
    p.add_argument("--chain", nargs=2, type=int, metavar=("LEVELS", "L"),
                   help="chain parameters l L")
    p.add_argument("--double", nargs=3, type=int, metavar=("N", "M", "L"),
                   help="double extension parameters n m L")
    p.add_argument("--spec", type=str, help="path to a spec JSON document")


def _load_spec(args):
    chosen = [x for x in ("block", "chain", "double", "spec")
              if getattr(args, x, None) is not None]
    if len(chosen) != 1:
        raise InvalidParameterError(
            "choose exactly one of --block/--chain/--double/--spec"
        )
    kind = chosen[0]
    if kind == "block":
        n, m, L = args.block
        return P.build_block(P.BlockParams(n, m, L), certify=False)
    if kind == "chain":
        l, L = args.chain
        return P.build_chain(l, L, certify=False)
    if kind == "double":
        n, m, L = args.double
        return P.build_double(n, m, L, certify=False)
    with open(args.spec) as fh:
        return P.spec_from_json(fh.read())


def _emit(text: str | Iterable[str], out: str | None):
    """Write text, or its chunks in order, to the file out or to stdout;
    stdout output always ends with a newline."""
    last = ""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        for last in [text] if isinstance(text, str) else text:
            fh.write(last)
        if not (out or last.endswith("\n")):
            fh.write("\n")


def _emit_json(doc, out: str | None):
    _emit(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", out)


# -- subcommands ---------------------------------------------------------------


def _cmd_sigma(args) -> int:
    m = args.m
    if m < 2:
        raise InvalidParameterError(f"sigma needs at least 2 letters, got {m}")
    if m * m > P.BUILD_LETTER_CAP:
        raise CapExceededError(
            f"sigma needs {m}^2 letters, above the cap {P.BUILD_LETTER_CAP}")
    al = alphabet_of(args.role, m)
    # a block at a time: the word is m^2 letters, its blocks at most 2m
    _emit((al.word_to_str(blk.tolist()) + (" " if i < m - 1 else "\n")
           for i, blk in enumerate(_sigma_blocks(m))), args.out)
    return EXIT_OK


def _cmd_build(args) -> int:
    spec = _load_spec(args)
    _emit(P.spec_to_json(spec), args.out)
    return EXIT_OK


def _verify_report(spec, full: bool) -> dict:
    checks = []

    def add(name, status, **details):
        checks.append({"name": name, "status": status, **details})

    # pair-uniqueness per level family
    for k, lv in enumerate(spec.levels):
        rep = check_pair_uniqueness(lv.images)
        add(f"pair-uniqueness-level-{k}", "ok" if rep.ok else "failed",
            duplicates=[list(map(list, d)) for d in rep.duplicates[:5]]
            if not rep.ok else [])

    # retraction
    add("retraction", "ok" if P.verify_retraction(spec) else "failed")

    # injectivity (possibly gated)
    total_edges = spec.rose_edge_count()
    if total_edges > P.CERTIFY_EDGE_LIMIT and not full:
        add("injectivity", "skipped",
            reason=f"{total_edges} rose edges; rerun with --full")
    else:
        try:
            n = len(spec.certify_all())
            add("injectivity", "ok", endomorphisms=n)
        except P.ConstructionError as e:
            add("injectivity", "failed", witness=str(e))

    # link condition; a chain's gluing check girth-checks the union link,
    # and runs first, so that its link is freed before this one is built
    glue = LG.check_chain_gluing(spec) if spec.structure == "chain" else None
    link = LG.build_link(spec)
    girth = glue.union_girth if glue else LG.check_large_link(link)
    add("large-link", "ok" if girth.ok else "failed", **girth.to_dict())

    # separation of the distinguished convex rose
    ids = []
    for g in spec.convex_ids:
        ids += [link.dir_id(g, 0), link.dir_id(g, 1)]
    sep = LG.check_separation(link, ids)
    add("separation", "ok" if sep.ok else "failed", **sep.to_dict())

    if glue:
        add("chain-gluing", "ok" if glue.ok else "failed",
            levels=[{"level": k, **r.to_dict()} for k, r in glue.levels])

    ok = all(c["status"] != "failed" for c in checks)
    return {
        "structure": spec.structure,
        "params": dict(spec.params),
        # constant keys, kept so that reports stay byte-identical
        "scheme": "ladder",
        "seed": 0,
        "full": full,
        "ok": ok,
        "checks": checks,
    }


def _cmd_verify(args) -> int:
    spec = _load_spec(args)
    report = _verify_report(spec, args.full)
    for c in report["checks"]:
        line = f"[{c['status']:>7}] {c['name']}"
        if c["status"] == "skipped":
            line += f" ({c.get('reason', '')})"
        print(line)
    print(("all checks passed" if report["ok"] else "VERIFICATION FAILED"))
    if args.out:
        _emit_json(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def _cmd_reduce(args) -> int:
    spec = _load_spec(args)
    text = args.word if args.word is not None else sys.stdin.read()
    word = spec.alphabet.word_from_str(text)
    red, trace = britton_reduce(spec, word)
    doc = {
        "input_length": len(word),
        "reduced": spec.alphabet.word_to_str(red),
        "reduced_length": len(red),
        "pinches": [
            {"position": s.position, "stable": spec.alphabet.gen(s.stable).token,
             "direction": s.direction, "pre_length": s.pre_length,
             "post_length": s.post_length, "level": s.level}
            for s in trace.steps
        ],
    }
    if args.fmt == "json":
        _emit_json(doc, args.out)
    else:
        _emit(doc["reduced"] + "\n", args.out)
        for p in doc["pinches"]:
            print(f"pinch {p['direction']} {p['stable']} at {p['position']}: "
                  f"{p['pre_length']} -> {p['post_length']}")
    return EXIT_OK


def _cmd_ball(args) -> int:
    spec = _load_spec(args)
    rec = ball(spec, args.radius, args.cap)
    _emit_json(rec.to_dict(spec.alphabet), args.out)
    return EXIT_CAP if rec.incomplete else EXIT_OK


def _cmd_distortion(args) -> int:
    spec = _load_spec(args)
    curve = measure_distortion(spec, args.radius, args.cap)
    sizes = curve.meta["ball_sizes"]
    lines = ["radius,max_subgroup_length,ball_size"]
    for rho, val in curve.points:
        size = sizes[rho] if rho < len(sizes) else sizes[-1]
        lines.append(f"{rho},{normalize(val)},{size}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_CAP if curve.meta.get("incomplete") else EXIT_OK


def _cmd_witness(args) -> int:
    spec = _load_spec(args)
    if spec.structure == "block":
        if args.n is None:
            raise InvalidParameterError("block witness needs --n")
        w = witness_block(spec, args.n)
        doc = w.to_dict()
    elif spec.structure == "chain":
        if args.n is None:
            raise InvalidParameterError("chain witness needs --n")
        w = witness_chain(spec.params["l"], spec.params["L"], args.n, spec)
        doc = w.to_dict()
        doc["stage_word_lengths"] = [len(s) for s in w.stages]
    else:
        if args.k is None:
            raise InvalidParameterError("double witness needs --k")
        w = witness_tower(args.k, spec.params["L"], spec)
        doc = w.to_dict()
        bounds = tower_geodesic_bounds(args.k)
        doc["geodesic_bound_recurrence"] = bounds
        doc["bound_le_4^k"] = all(
            b <= 4 ** (i + 1) for i, b in enumerate(bounds))
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    spec = _load_spec(args)
    if args.what == "stallings":
        lv = spec.levels[args.level]
        phi = lv.endos[args.index]
        _emit(phi.graph.to_dot(spec.alphabet) + "\n", args.out)
    else:
        link = LG.build_link(spec)
        _emit(link.to_dot(boundary_only=args.boundary_only) + "\n", args.out)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catdistort",
        description="build and verify negatively curved presentations, "
                    "solve their word problems, and compute distortion "
                    "witnesses",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sigma", help="emit the square-length word")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--role", default="a", choices=("a", "t"))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("build", help="emit a spec JSON document")
    _add_group_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("verify", help="run all verification checks")
    _add_group_args(p)
    p.add_argument("--full", action="store_true",
                   help="fold every endomorphism even at paper scale")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reduce", help="pinch-reduce a word")
    _add_group_args(p)
    p.add_argument("--word", default=None,
                   help="whitespace-separated tokens; default: stdin")
    p.add_argument("--format", dest="fmt", default="json",
                   choices=("json", "text"))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("ball", help="enumerate a Cayley ball")
    _add_group_args(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_ball)

    p = sub.add_parser("distortion", help="empirical distortion curve (CSV)")
    _add_group_args(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_distortion)

    p = sub.add_parser("witness", help="distortion witness words")
    _add_group_args(p)
    p.add_argument("--n", type=int, default=None,
                   help="conjugation depth (block/chain)")
    p.add_argument("--k", type=int, default=None,
                   help="tower stage (double)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("export-dot", help="Graphviz export")
    _add_group_args(p)
    p.add_argument("--what", choices=("stallings", "link"), required=True)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--boundary-only", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_export_dot)

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (InvalidParameterError, SpecParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except CatDistortError as e:
        print(f"verification error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
