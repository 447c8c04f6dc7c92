"""Workloads ``verify-chain`` and ``verify-paper``: the checks of
``catdistort verify --full``, through their public functions.

One pass runs the per-level pair census, the retraction check,
injectivity certificates, and the link build, girth and separation
checks on the convex stable rose; on a chain, also the gluing check.  No
navigator work runs.  Every pass certifies fresh map objects and builds
a fresh link, so no pass reuses a cached result.

- ``verify-chain`` is the chain l = 2 at L = 14 (2,758 relators, 15
  maps).  A pass certifies every map, in an order the seed shuffles, and
  takes about 0.75 s, so a run holds about fifty passes and every
  metric is a median or a rate over them.  BENCHMARK.json lists it.
- ``verify-paper`` is the paper double G(196, 2744, 14) (540,568
  relators).  A pass certifies the s-map and a seeded sample of the 196
  t-maps (all 197 would take minutes and gigabytes) and takes 30-40 s,
  so a run holds one pass.  It runs by hand; perfbench/README.md says
  why it is not listed.

The checks size the output from the spec's image arrays: a map of m
image rows has domain rank m, and a level has one relator per row of its
maps.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np

import checks
from harness import (Tracer, attempt, p50_ms, passes, peak_rss_mb, repeat_setup,
                     rng_for)


@dataclass(frozen=True)
class Instance:
    name: str
    group: str
    #: span name of the builder, and its arguments
    builder: str
    args: tuple
    #: t-maps certified per pass from the last level, besides every map of
    #: the levels below; None certifies every map
    sample: int | None
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats: int
    #: whether each set-up also runs one untimed pass
    warm_up: bool


INSTANCES = {inst.name: inst for inst in (
    # a set-up is a 0.06 s build and a 0.7-0.9 s warm-up pass; the median
    # of nine spans about 8 s of them
    Instance("verify-chain", "chain-2-14", "build_chain", (2, 14), None, 9, True),
    # with 8 t-maps the pass has 15 operations, and the median one falls
    # inside the 10 similar calls of build_link and the certificates; a
    # set-up is a 9-12 s build (perfbench/README.md, "Set-up")
    Instance("verify-paper", "double-196-2744-14", "build_double", (196, 2744, 14),
             8, 2, False),
)}


def _setup(inst, cd, seed, tracer):
    with tracer.span("setup"):
        build = getattr(cd, inst.builder)
        spec, _ = tracer.call(f"presentations.{inst.builder}", inst.group,
                              lambda: build(*inst.args, certify=False))
        if inst.warm_up:
            with tracer.span("warm-up"):
                _pass(inst, cd, spec, _maps(inst, spec, seed, "warm-up"),
                      Tracer(False), [], 0, [])
    return spec


def _maps(inst, spec, seed, *parts) -> list[tuple[str, object]]:
    """(label, map) of every map a pass certifies, in the order it does."""
    rng = rng_for(inst.name, seed, *parts)
    labelled = [[(f"level{k}.{i + 1}", phi) for i, phi in enumerate(lv.endos)]
                for k, lv in enumerate(spec.levels)]
    if inst.sample is None:
        out = sum(labelled, [])
        rng.shuffle(out)
        return out
    last = labelled.pop()
    return sum(labelled, []) + [last[i] for i in sorted(rng.sample(range(len(last)),
                                                                    inst.sample))]


def _relators(spec) -> int:
    return sum(phi.images.shape[0] for lv in spec.levels for phi in lv.endos)


def _pass(inst, cd, spec, maps, tracer, ops, p, rss):
    group, relators = inst.group, _relators(spec)
    L = spec.levels[0].endos[0].images.shape[1]
    families = [np.vstack([phi.images for phi in lv.endos]) for lv in spec.levels]

    def one(kind, name, fn, *args, check, letters=0, elements=relators, counts=None):
        return attempt(tracer, ops, kind, name, group, p, fn, *args, check=check,
                       size=lambda out: (letters, elements), counts=counts)

    with tracer.span("verify.pass", group):
        for k, fam in enumerate(families):
            rows, length = fam.shape
            one(f"census-level-{k}", "words.check_pair_uniqueness",
                cd.check_pair_uniqueness, fam,
                check=lambda rep, r=rows, ln=length: checks.check_census(rep, r, ln),
                letters=rows * length, elements=rows)
        del families, fam
        one("retraction", "presentations.verify_retraction",
            cd.verify_retraction, spec, check=lambda ok: ok is True,
            letters=relators * (L + 3))
        for label, phi in maps:
            m = phi.images.shape[0]
            # a fresh object each time: a certificate is cached on its map,
            # and letting each go keeps the benchmark's own memory flat
            one("certify", "folding.certify_injective", cd.certify_injective,
                cd.PositiveEndomorphism(phi.images),
                check=lambda c, m=m: checks.check_certificate(
                    c.graph.n_vertices, c.graph.n_edges, m, c.injective),
                letters=m * L, elements=m,
                counts=lambda c, lab=label, m=m: {"map": lab, "rose_edges": m * L})
        rss1 = peak_rss_mb()
        link = one("build_link", "linkgeom.build_link", cd.build_link, spec,
                   check=lambda lk: checks.check_link_edges(lk.n_edges, L, relators),
                   letters=relators * (L + 3),
                   counts=lambda lk: {"link_edges": lk.n_edges})
        if link is not None:
            one("check_large_link", "linkgeom.check_large_link",
                cd.check_large_link, link, check=lambda rep: rep.ok)
            marked = [link.dir_id(g, side) for g in spec.convex_ids for side in (0, 1)]
            one("check_separation", "linkgeom.check_separation",
                cd.check_separation, link, marked, check=lambda rep: rep.ok)
        del link
        if spec.structure == "chain":
            one("check_chain_gluing", "linkgeom.check_chain_gluing",
                cd.check_chain_gluing, spec, check=lambda rep: rep.ok)
        rss2 = peak_rss_mb()
    rss.append(rss2 - rss1)


def run(inst, cd, seed: int, seconds: float, tracer):
    spec, setup_times = repeat_setup(lambda: _setup(inst, cd, seed, tracer),
                                     inst.setup_repeats)
    ops = []
    rss = []
    for p in passes(seconds):
        # a sample stays the same over passes; all maps are reordered each pass
        maps = (_maps(inst, spec, seed) if inst.sample is not None
                else _maps(inst, spec, seed, "pass", p))
        _pass(inst, cd, spec, maps, tracer, ops, p, rss)
    notes = [f"group: {inst.group}, passes: {p + 1}, maps certified per pass: "
             f"{len(maps)}"]
    if inst.sample is not None:
        notes.append(f"certified maps: {', '.join(label for label, _ in maps)}")
    layers = {}
    if tracer.enabled:
        layers = _layers(inst, tracer, p + 1, rss)
        widest = max((phi for lv in spec.levels for phi in lv.endos),
                     key=lambda phi: phi.images.shape[0])
        layers["folding.rss_mb"] = _fold_peak_mb(cd, widest.images)
    return ops, setup_times, notes, layers


def _fold_peak_mb(cd, images):
    """Peak memory allocated while certifying one fresh copy of a map, as
    tracemalloc counts it (Python objects and numpy buffers), in an
    untimed call after the passes.  Max RSS cannot show it: set-up has
    already raised it above what certification reaches."""
    tracemalloc.start()
    try:
        cd.certify_injective(cd.PositiveEndomorphism(images))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _layers(inst, tracer, passes, rss):
    group = inst.group

    def per_pass(name):
        return sum(tracer.durations(name, group)) / passes

    cert = tracer.durations("folding.certify_injective", group)
    rose = sum(tracer.counts("folding.certify_injective", group, "rose_edges"))
    edges = tracer.counts("linkgeom.build_link", group, "link_edges")
    build = f"presentations.{inst.builder}"
    return {
        "words.check_pair_uniqueness.s": per_pass("words.check_pair_uniqueness"),
        f"{build}.s": sum(tracer.durations(build)) / inst.setup_repeats,
        "presentations.verify_retraction.s": per_pass("presentations.verify_retraction"),
        "folding.certify_injective.s": per_pass("folding.certify_injective"),
        "folding.certify_injective.p50_ms": p50_ms(cert),
        "folding.rose_edges": rose / passes,
        "folding.rose_edges_per_s": rose / sum(cert),
        "linkgeom.build_link.s": per_pass("linkgeom.build_link"),
        "linkgeom.link_edges": edges[0] if edges else 0,
        "linkgeom.check_large_link.s": per_pass("linkgeom.check_large_link"),
        "linkgeom.check_separation.s": per_pass("linkgeom.check_separation"),
        "linkgeom.check_chain_gluing.s": per_pass("linkgeom.check_chain_gluing"),
        "linkgeom.rss_mb": max(rss),
    }
