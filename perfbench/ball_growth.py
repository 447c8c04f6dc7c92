"""Workload ``ball-growth``: repeated passes over Cayley balls and an
empirical distortion curve.

The reducer runs tens of thousands of times on words of length <= 7,
together with element deduplication: per-call overhead and dedup keys
matter here, not the long words of ``word-problem``.  On the blocks the
canonical-form keys make buckets near-singletons; on double(9,27,3)
every bucket is compared pairwise with the reducer.

Set-up builds the groups and runs one warm-up pass.  The seed only
orders the enumerations within each pass: these inputs are fixed.

BENCHMARK.json does not list this workload: its spreads exceeded their
bounds (perfbench/README.md, "Why ball-growth is not listed").  It runs
by hand with the same command.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import checks
from harness import attempt, passes, repeat_setup, rng_for

NAME = "ball-growth"
B14, B2 = "block-1-14-14", "block-1-2-2"
TOWER = "double-9-27-3"
FREE_RANK, FREE_RADIUS = 3, 6
FREE = f"free-{FREE_RANK}"
CURVE_RADIUS = 6
#: set-ups per run (each about 2-3 s); ``setup_s`` is their median
SETUP_REPEATS = 3
#: (group, radius) of each ball.  The block(1,2,2) ball is the one
#: measure_distortion enumerates: timed on its own it shows the curve's
#: overhead, and a fifth call per pass puts the median latency inside one
#: class of calls instead of between two.
BALLS = ((B14, 3), (B2, CURVE_RADIUS), (TOWER, 2), (FREE, FREE_RADIUS))
#: radius up to which block(1,2,2) is re-enumerated by ball_exhaustive in
#: every run; radii 5 and 6 come from STORED (see regen_ball_sizes.py)
EXHAUSTIVE_RADIUS = 4
STORED = Path(__file__).resolve().parent / "ball_sizes.json"


def _build_groups(cd, tracer) -> dict:
    return {
        B14: tracer.call("presentations.build_block", B14, cd.build_block,
                         cd.BlockParams(1, 14, 14), False)[0],
        B2: tracer.call("presentations.build_block", B2, cd.build_block,
                        cd.BlockParams(1, 2, 2), False)[0],
        TOWER: tracer.call("presentations.build_double", TOWER, cd.build_double,
                           9, 27, 3, False)[0],
        FREE: tracer.call("presentations.free_group", FREE, cd.free_group,
                          FREE_RANK)[0],
    }


def _candidates(sizes, n_gens) -> int:
    """Frontier size times 2 * generators, summed over radii."""
    return sum((sizes[d] - (sizes[d - 1] if d else 0)) * 2 * n_gens
               for d in range(len(sizes) - 1))


def _ball_counts(rec, n_gens):
    return {"elements": rec.size, "candidates": _candidates(rec.sizes, n_gens)}


def _pass(cd, groups, refs, order, tracer, ops, p):
    for job in order:
        if job == "curve":
            attempt(tracer, ops, "measure_distortion", "navigator.measure_distortion",
                    B2, p, cd.measure_distortion, groups[B2], CURVE_RADIUS,
                    check=lambda c: _check_curve(c, refs[B2]),
                    size=lambda c: (0, c.meta["ball_sizes"][-1]))
            continue
        g, radius = job
        spec = groups[g]
        attempt(tracer, ops, "ball", "navigator.ball", g, p, cd.ball, spec, radius,
                check=lambda rec, g=g, n=len(spec.alphabet): _check_ball(rec, refs[g], n),
                size=lambda rec: (sum(len(e.word) for e in rec.elements), rec.size),
                counts=lambda rec, n=len(spec.alphabet): _ball_counts(rec, n))


def _check_curve(curve, want_sizes):
    values = [v.value for _, v in curve.points]
    return (not curve.meta["incomplete"]
            and checks.check_sizes(curve.meta["ball_sizes"], want_sizes)
            and checks.check_curve(values, 2))


def _check_ball(rec, want_sizes, n_gens):
    """Sizes as expected; radius 1 holds the identity and 2 * generators
    distinct elements; representatives consistent with the sizes."""
    return (not rec.incomplete and checks.check_sizes(rec.sizes, want_sizes)
            and rec.sizes[1] == 1 + 2 * n_gens
            and checks.check_ball_words([e.word for e in rec.elements],
                                        [e.length for e in rec.elements], rec.sizes))


def _references(cd, groups, warm: dict) -> dict:
    """Expected ball sizes: ball_exhaustive where it is cheap, the stored
    exhaustive sizes of block(1,2,2) at radii 5-6, and the free group's
    closed form.  double(9,27,3) has no independent enumeration
    (ball_exhaustive takes the same pairwise path there), so its passes
    are held to the warm-up pass's sizes."""
    from catdistort.navigator import ball_exhaustive

    stored = json.loads(STORED.read_text())
    b2 = ball_exhaustive(groups[B2], EXHAUSTIVE_RADIUS).sizes
    b2 = b2 + [stored["sizes"][str(r)]
               for r in range(EXHAUSTIVE_RADIUS + 1, CURVE_RADIUS + 1)]
    return {
        B2: b2,
        B14: ball_exhaustive(groups[B14], 3).sizes,
        TOWER: warm[TOWER],
        FREE: checks.free_ball_sizes(FREE_RANK, FREE_RADIUS),
    }


def _setup(cd, tracer):
    with tracer.span("setup"):
        groups = _build_groups(cd, tracer)
        with tracer.span("warm-up"):
            warm = {g: cd.ball(groups[g], r).sizes for g, r in BALLS}
            cd.measure_distortion(groups[B2], CURVE_RADIUS)
    return groups, warm


def run(cd, seed: int, seconds: float, tracer):
    (groups, warm), setup_times = repeat_setup(lambda: _setup(cd, tracer),
                                               SETUP_REPEATS)
    refs = _references(cd, groups, warm)
    rng = rng_for(NAME, seed)
    ops = []
    for p in passes(seconds):
        order = ["curve", *BALLS]
        rng.shuffle(order)
        _pass(cd, groups, refs, order, tracer, ops, p)
    notes = [f"passes: {p + 1}",
             "ball sizes: " + ", ".join(f"{g} {refs[g]}" for g in refs)]
    layers = _layers(tracer) if tracer.enabled else {}
    return ops, setup_times, notes, layers


def _layers(tracer):
    out = {}
    for g, _ in BALLS:
        secs = tracer.durations("navigator.ball", g)
        elements = tracer.counts("navigator.ball", g, "elements")
        cands = tracer.counts("navigator.ball", g, "candidates")
        out[f"navigator.ball.{g}.s"] = statistics.median(secs)
        out[f"navigator.ball.{g}.elements"] = elements[0]
        out[f"navigator.ball.{g}.candidates"] = cands[0]
        out[f"navigator.ball.{g}.elements_per_candidate"] = (elements[0] - 1) / cands[0]
    md = tracer.durations("navigator.measure_distortion", B2)
    out["navigator.measure_distortion.block-1-2-2.s"] = statistics.median(md)
    out["presentations.build_double.s"] = (
        sum(tracer.durations("presentations.build_double")) / SETUP_REPEATS)
    return out
