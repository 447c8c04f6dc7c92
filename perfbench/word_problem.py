"""Workload ``word-problem``: a fixed, seeded mix of word-problem
queries on block(1,14,14), block(1,2,2) and the paper double, with one
tower cross-check on double(9,27,3) per round.

Long words whose cost is navigator reduction and folding preimages; no
link work runs and no rose is folded in the timed part.  Set-up builds
the groups, folds every map the mix can pinch backward through, and runs
one warm-up round, so that no timed query pays a lazy fold.

Backward pinches with a nontrivial segment go through the block maps and
the paper s-map only.  Preimages through the t-maps of a double backtrack
for up to seconds, depending on the letters (see CHANGES.md), which would
make every rate depend on the words the seed drew.
"""

from __future__ import annotations

from dataclasses import dataclass

import checks
from harness import Tracer, attempt, p50_ms, passes, repeat_setup, rng_for

NAME = "word-problem"
B14, B2 = "block-1-14-14", "block-1-2-2"
PAPER, TOWER = "double-196-2744-14", "double-9-27-3"
#: paper t-maps in the working set, chosen by the seed: their forward
#: expansions and relators are queried, and relator products pinch back
#: through them on trivial segments
PAPER_T_MAPS = 2
#: set-ups per run (each about 12 s); ``setup_s`` is their median, here
#: their mean (perfbench/README.md, "Set-up", says why not three)
SETUP_REPEATS = 2


@dataclass
class Query:
    kind: str
    name: str  # span name: "<module>.<public call>" for a single call
    group: str
    fn: object
    args: tuple
    check: object
    letters: object  # result -> letters of the returned word


class _Map:
    """One stable letter's map as the benchmark sees it: image rows over
    global letter ids, domain letters 1..m (checked at set-up)."""

    def __init__(self, stable: int, endo, domain_ids):
        if tuple(domain_ids) != tuple(range(1, len(domain_ids) + 1)):
            raise SystemExit("perfbench: domain letters are not 1..m")
        self.stable = stable
        self.endo = endo
        self.images = endo.images
        self.m, self.L = self.images.shape
        self._rows = None

    def row(self, j: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.images[j])

    @property
    def rows(self) -> list[tuple[int, ...]]:
        if self._rows is None:
            self._rows = [self.row(j) for j in range(self.m)]
        return self._rows


class _Group:
    """A group and its working set of maps: the stable letters whose
    forward expansions are queried (``fwd``), whose maps are pinched
    backward through and folded at set-up (``back``), and whose relators
    make the relator products (``back`` as well)."""

    def __init__(self, name, spec, fwd: list, back: list):
        self.name = name
        self.spec = spec
        self.fwd = fwd
        self.back = back
        # random words use the stable letters of the working set only: a
        # backward pinch through any other map would fold it lazily
        stable = spec.stable_id_set()
        self.gens = [x for x in range(1, len(spec.alphabet) + 1)
                     if x not in stable or any(mp.stable == x for mp in back)]


def _maps(lv, indexes):
    return [_Map(lv.stable_ids[i], lv.endos[i], lv.domain_ids) for i in indexes]


def _setup(cd, tracer, seed):
    with tracer.span("setup"):
        b14, _ = tracer.call("presentations.build_block", B14, cd.build_block,
                             cd.BlockParams(1, 14, 14), False)
        b2, _ = tracer.call("presentations.build_block", B2, cd.build_block,
                            cd.BlockParams(1, 2, 2), False)
        paper, _ = tracer.call("presentations.build_double", PAPER,
                               cd.build_double, 196, 2744, 14, False)
        tower, _ = tracer.call("presentations.build_double", TOWER,
                               cd.build_double, 9, 27, 3, False)
        groups = {}
        for name, spec in ((B14, b14), (B2, b2)):
            mps = _maps(spec.levels[0], [0])
            groups[name] = _Group(name, spec, mps, mps)
        picks = sorted(rng_for(NAME, seed, "maps").sample(range(196), PAPER_T_MAPS))
        t_maps = _maps(paper.levels[1], picks)
        groups[PAPER] = _Group(PAPER, paper, t_maps,
                               _maps(paper.levels[0], [0]) + t_maps)
        groups[TOWER] = _Group(TOWER, tower, [], [])
        for g in groups.values():
            for mp in g.back:
                tracer.call("folding.certify_injective", g.name,
                            cd.certify_injective, mp.endo)
        with tracer.span("warm-up"):
            for g in groups.values():
                for mp in g.back:  # fills each map's image caches, both signs
                    for a in (1, -1):
                        cd.to_base(g.spec, (mp.stable, a, -mp.stable))
            for q in _round(cd, groups, rng_for(NAME, seed, "warm-up"), Tracer(False)):
                q.fn(*q.args)
    return groups


# -- inputs ----------------------------------------------------------------------


def _reduced_word(rng, letters, n):
    w: list[int] = []
    while len(w) < n:
        x = rng.choice(letters) * rng.choice((1, -1))
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


def _relator(rng, g: _Group):
    """A random defining relator t b t^-1 W^-1, conjugated by a random
    word and possibly inverted."""
    mp = rng.choice(g.back)
    j = rng.randrange(mp.m)
    r = (mp.stable, j + 1, -mp.stable) + checks.invert(mp.row(j))
    if rng.random() < 0.5:
        r = checks.invert(r)
    c = _reduced_word(rng, g.gens, 3)
    return c + r + checks.invert(c)


def _round(cd, groups, rng, tracer) -> list[Query]:
    """One round of the mix; every round has the same classes and counts."""
    qs: list[Query] = []

    def add(kind, call, g, fn, args, check, letters=lambda out: 0):
        qs.append(Query(kind, call, g.name, fn, args, check, letters))

    def forward(g, n_values):
        for n in n_values:
            mp = rng.choice(g.fwd)
            a = rng.randint(1, mp.m)
            w = (mp.stable,) * n + (a,) + (-mp.stable,) * n
            add("forward", "navigator.to_base", g, cd.to_base, (g.spec, w),
                lambda out, mp=mp, a=a, n=n: checks.check_forward(out, mp.images, a, n),
                len)
            if g.name != PAPER:
                add("britton", "navigator.britton_reduce", g, cd.britton_reduce,
                    (g.spec, w),
                    lambda out, mp=mp, a=a, n=n: out[1].pinch_count == n
                    and checks.check_forward(out[0], mp.images, a, n),
                    lambda out: len(out[0]))

    def backward(g, count, lengths, maps):
        for _ in range(count):
            mp = rng.choice(maps)
            u = _reduced_word(rng, list(range(1, mp.m + 1)), rng.choice(lengths))
            img = checks.apply_rows(mp.rows, u)
            add("pinch", "navigator.to_base", g, cd.to_base,
                (g.spec, (-mp.stable,) + img + (mp.stable,)),
                lambda out, u=u: checks.check_word(out, u), len)
        for _ in range(count):
            mp = rng.choice(maps)
            u = _reduced_word(rng, list(range(1, mp.m + 1)), rng.choice(lengths))
            add("preimage", "folding.rewrite_preimage", g, cd.rewrite_preimage,
                (mp.endo, checks.apply_rows(mp.rows, u)),
                lambda out, u=u: checks.check_word(out, u), len)

    def relations(g, count):
        for _ in range(count):
            w = sum((_relator(rng, g) for _ in range(3)), ())
            add("trivial", "navigator.is_trivial", g, cd.is_trivial, (g.spec, w),
                lambda out: out is True)
        for _ in range(count):
            u = _reduced_word(rng, g.gens, 6)
            i = rng.randint(0, len(u))
            v = u[:i] + _relator(rng, g) + u[i:]
            add("equal", "navigator.equal", g, cd.equal, (g.spec, u, v),
                lambda out: out is True)

    b14, b2, paper = groups[B14], groups[B2], groups[PAPER]
    forward(b14, range(1, 6))
    forward(b2, [rng.randint(1, 12) for _ in range(5)])
    forward(paper, [rng.randint(1, 3) for _ in range(4)])
    backward(b14, 7, range(4, 9), b14.back)
    backward(b2, 7, range(4, 13), b2.back)
    backward(paper, 2, (2,), paper.back[:1])
    for g in (b14, b2, paper):
        relations(g, 5)
    tower = groups[TOWER]
    qs.append(Query("tower", "tower-cross-check", TOWER, _tower,
                    (cd, tracer, tower.spec), _check_tower, lambda out: len(out[2])))
    rng.shuffle(qs)
    return qs


# -- the tower cross-check ---------------------------------------------------------

def _tower(cd, tr, spec):
    """witness_tower(2, 3) on double(9,27,3), its normalized subgroup
    length, and the word materialized by to_base."""
    w, _ = tr.call("distortion.witness_tower", TOWER, cd.witness_tower, 2, 3, spec)
    h, _ = tr.call("distortion.normalize", TOWER, cd.normalize, w.subgroup_length)
    base, _ = tr.call("navigator.to_base", TOWER, cd.to_base, spec, w.word)
    return w, h, base


def _check_tower(out):
    w, h, base = out
    L = 3
    want = L ** (L * L)  # h_1 = L, h_2 = L^(L * h_1)
    return (base is not None and len(base) == want and getattr(h, "value", None) == want
            and w.word_length == 2 * 3 + 5 == len(w.word)
            and checks.free_reduce(base) == tuple(base))


# -- the run -----------------------------------------------------------------------


def run(cd, seed: int, seconds: float, tracer):
    groups, setup_times = repeat_setup(lambda: _setup(cd, tracer, seed),
                                       SETUP_REPEATS)
    ops = []
    for r in passes(seconds):
        for q in _round(cd, groups, rng_for(NAME, seed, "round", r), tracer):
            attempt(tracer, ops, q.kind, q.name, q.group, r, q.fn, *q.args,
                    check=q.check, size=lambda out, q=q: (q.letters(out), 1))
    rounds = r + 1
    picks = [mp.stable - 2744 for mp in groups[PAPER].back[1:]]
    notes = [f"rounds: {rounds}, queries per round: {len(ops) // rounds}",
             f"paper t-maps in the working set: {', '.join(f't{i}' for i in picks)}"]
    layers = _layers(tracer, ops, rounds) if tracer.enabled else {}
    return ops, setup_times, notes, layers


def _layers(tracer, ops, rounds):
    out = {}
    calls = [("navigator.to_base", (B14, B2, PAPER, TOWER)),
             ("navigator.is_trivial", (B14, B2, PAPER)),
             ("navigator.equal", (B14, B2, PAPER)),
             ("navigator.britton_reduce", (B14, B2)),
             ("folding.rewrite_preimage", (B14, B2, PAPER))]
    for name, groups in calls:
        for g in groups:
            out[f"{name}.{g}.p50_ms"] = p50_ms(tracer.durations(name, g))
    # per round, so that the count depends on the workload, not on the
    # number of rounds that fit in the run
    out["navigator.letters_out"] = sum(o.letters for o in ops) / rounds
    out["folding.certify_injective.setup_s"] = (
        sum(tracer.durations("folding.certify_injective")) / SETUP_REPEATS)
    out["presentations.build_double.s"] = (
        sum(tracer.durations("presentations.build_double")) / SETUP_REPEATS)
    for name in ("distortion.witness_tower", "distortion.normalize"):
        out[f"{name}.s"] = p50_ms(tracer.durations(name, TOWER)) / 1e3
    return out
