"""Word problem and Cayley-ball enumeration for the constructed groups.

Reduction works level by level on the HNN tower.  At each level a stack
scan finds innermost matched stable-letter pairs; a pair pinches when the
enclosed segment lies in the appropriate associated subgroup, which is
decided recursively (see :class:`catdistort.presentations.LevelSpec` for
the three decision modes).  A fully reduced word with a surviving stable
letter is nontrivial, so triviality, equality and membership in the
distorted free subgroup all reduce to this normal-form computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapExceededError, InvalidInputError
from .folding import PositiveEndomorphism
from .presentations import GroupSpec, retractions
from .words import Word, free_reduce, invert

_NP_APPLY_THRESHOLD = 1024

#: cap on the letters one forward pinch may produce (t u t^-1 -> phi(u))
REDUCE_LETTER_CAP = 1 << 22


def _check_expansion(n_letters: int, endo: PositiveEndomorphism) -> None:
    """Raise :class:`CapExceededError` before expanding an n-letter
    segment to more than :data:`REDUCE_LETTER_CAP` letters."""
    if n_letters * endo.length > REDUCE_LETTER_CAP:
        raise CapExceededError(
            f"a forward pinch would expand {n_letters} letters to "
            f"{n_letters * endo.length}, above the cap {REDUCE_LETTER_CAP}")


@dataclass(frozen=True)
class TraceStep:
    """One pinch: the enclosed segment was replaced through the stable
    letter's endomorphism (forward: t u t^-1 -> phi(u); backward:
    t^-1 u t -> phi^-1(u))."""

    position: int
    stable: int
    direction: str  # "forward" | "backward"
    pre_length: int
    post_length: int
    level: int


@dataclass
class ReductionTrace:
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def pinch_count(self) -> int:
        return len(self.steps)

    def record(self, **kw):
        self.steps.append(TraceStep(**kw))


class _Level:
    """Compiled level: stable-letter lookup plus local/global letter maps."""

    def __init__(self, lv, index: int):
        self.spec = lv
        self.index = index
        self.stable: dict[int, int] = {g: i for i, g in enumerate(lv.stable_ids)}
        self.endos = lv.endos
        self.domain_ids = lv.domain_ids
        self.codomain_ids = lv.codomain_ids
        self.dom_pos = {g: p + 1 for p, g in enumerate(lv.domain_ids)}
        self.cod_set = frozenset(lv.codomain_ids)
        self.dom_set = frozenset(lv.domain_ids)
        self.dom_kind = lv.dom_kind
        self.cod_kind = lv.cod_kind


def _merge(dst: list[int], src: Sequence[int]) -> None:
    """Append a reduced word to a reduced word, cancelling at the seam."""
    i, n = 0, len(src)
    while dst and i < n and dst[-1] == -src[i]:
        dst.pop()
        i += 1
    dst.extend(src[i:])


class WordProblem:
    """Compiled reduction machinery for one :class:`GroupSpec`."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.levels = [_Level(lv, k) for k, lv in enumerate(spec.levels)]
        self.n_levels = len(self.levels)
        self.base_set = frozenset(spec.base_ids)
        self.n_gens = len(spec.alphabet)
        self._psi_kept = retractions(spec)[0][1]
        self._ab = None

    # -- core reduction ----------------------------------------------------

    def _check_letters(self, word: Sequence[int]) -> None:
        for x in word:
            if not isinstance(x, (int, np.integer)) or x == 0 or abs(x) > self.n_gens:
                raise InvalidInputError(f"letter {x!r} outside the alphabet")

    def _apply(self, endo: PositiveEndomorphism, local: list[int]) -> list[int]:
        if len(local) >= _NP_APPLY_THRESHOLD and min(local) > 0:
            arr = np.asarray(local, dtype=np.int64)
            return endo.images[arr - 1].ravel().tolist()
        return list(endo.apply(local))

    def _dom_accept(self, lvl: _Level, u: list[int]):
        """The domain-subgroup word equal to u, or None."""
        k = lvl.index
        if lvl.dom_kind == "base":
            return u  # segments at a base level are already domain words
        w = self._reduce(list(u), k + 1, None)[0]
        if all(abs(x) in lvl.dom_set for x in w):
            return w
        if lvl.dom_kind == "reduce":
            return None  # deeper stable letters survived reduction
        # retract-and-verify: F(domain) is a retract of the base group
        c = [x for x in w if abs(x) in lvl.dom_set]
        c = free_reduce(c)
        probe = list(w)
        _merge(probe, invert(c))
        if self._reduce(probe, k + 1, None)[0]:
            return None
        return list(c)

    def _cod_accept(self, lvl: _Level, u: list[int]):
        """The codomain-subgroup word equal to u, or None."""
        k = lvl.index
        if lvl.cod_kind == "base":
            return u
        w = self._reduce(list(u), k + 1, None)[0]
        if all(abs(x) in lvl.cod_set for x in w):
            return w
        if lvl.cod_kind == "reduce":
            return None
        c = [x for x in w if abs(x) in lvl.cod_set]
        c = free_reduce(c)
        probe = list(w)
        _merge(probe, invert(c))
        if self._reduce(probe, k + 1, None)[0]:
            return None
        return list(c)

    def _pinch(self, lvl: _Level, gid: int, closer_sign: int,
               u: list[int]):
        """Replacement word for opener (g, -closer_sign), u, closer, or
        None when the pair does not pinch."""
        endo = lvl.endos[lvl.stable[gid]]
        if closer_sign == -1:
            # t u t^-1 with u in F(domain): expand through the endomorphism
            c = self._dom_accept(lvl, u)
            if c is None:
                return None, "forward"
            _check_expansion(len(c), endo)
            local = [x // abs(x) * lvl.dom_pos[abs(x)] for x in c]
            return self._apply(endo, local), "forward"
        # t^-1 u t with u in the image subgroup: rewrite back
        c = self._cod_accept(lvl, u)
        if c is None:
            return None, "backward"
        local = endo.try_preimage(c)
        if local is None:
            return None, "backward"
        dom = lvl.domain_ids
        return [x // abs(x) * dom[abs(x) - 1] for x in local], "backward"

    def _reduce_block_flat(self, letters) -> tuple[list[int], bool]:
        """Allocation-light scan for the common single-level shape
        (stable letters over a free base); semantics identical to the
        generic reducer, which the test suite cross-checks.  Returns the
        reduced word and whether a stable letter survived."""
        lvl = self.levels[0]
        stable = lvl.stable
        endos = lvl.endos
        dom_pos = lvl.dom_pos
        dom = lvl.domain_ids
        stack: list[int] = []
        marks: list[int] = []
        for x in letters:
            g = x if x > 0 else -x
            if g in stable:
                if marks and stack[marks[-1]] == -x:
                    oi = marks[-1]
                    u = stack[oi + 1:]
                    endo = endos[stable[g]]
                    repl = None
                    if x < 0:
                        _check_expansion(len(u), endo)
                        local = [y // abs(y) * dom_pos[abs(y)] for y in u]
                        repl = endo.apply(local)
                    else:
                        pre = endo.try_preimage(u)
                        if pre is not None:
                            repl = [y // abs(y) * dom[abs(y) - 1] for y in pre]
                    if repl is not None:
                        del stack[oi:]
                        marks.pop()
                        i, n = 0, len(repl)
                        while stack and i < n and stack[-1] == -repl[i]:
                            stack.pop()
                            i += 1
                        stack.extend(repl[i:])
                        continue
                marks.append(len(stack))
                stack.append(x)
            elif stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        return stack, bool(marks)

    def _reduce(self, letters: list[int], k: int,
                trace: ReductionTrace | None) -> tuple[list[int], bool]:
        """Reduce from level k down; returns the reduced word and whether
        a stable letter survived (else every letter is a base letter)."""
        if k >= self.n_levels:
            return list(free_reduce(letters)), False
        if k == 0 and trace is None and self.n_levels == 1 \
                and self.levels[0].dom_kind == "base":
            return self._reduce_block_flat(letters)
        lvl = self.levels[k]
        stable = lvl.stable
        stack: list = []  # ("b", list) / ("s", gid, sign)
        for x in letters:
            g = abs(x)
            if g not in stable:
                if stack and stack[-1][0] == "b":
                    seg = stack[-1][1]
                    if seg and seg[-1] == -x:
                        seg.pop()
                    else:
                        seg.append(x)
                else:
                    stack.append(("b", [x]))
                continue
            e = 1 if x > 0 else -1
            # locate a possible opener for this closer
            if stack and stack[-1][0] == "b":
                u = stack[-1][1]
                oi = len(stack) - 2
            else:
                u = []
                oi = len(stack) - 1
            if oi >= 0 and stack[oi][0] == "s" and stack[oi][1] == g \
                    and stack[oi][2] == -e:
                repl, direction = self._pinch(lvl, g, e, u)
                if repl is not None:
                    if trace is not None:
                        pos = sum(
                            1 if it[0] == "s" else len(it[1])
                            for it in stack[:oi]
                        )
                        trace.record(position=pos, stable=g,
                                     direction=direction,
                                     pre_length=len(u) + 2,
                                     post_length=len(repl), level=k)
                    del stack[oi:]
                    if stack and stack[-1][0] == "b":
                        _merge(stack[-1][1], repl)
                    elif repl:
                        stack.append(("b", list(repl)))
                    continue
            stack.append(("s", g, e))
        # recursively normalize the surviving segments; at the last level
        # they hold base letters only and are already reduced
        last = k == self.n_levels - 1
        out: list[int] = []
        survived = False
        for item in stack:
            if item[0] == "s":
                out.append(item[1] * item[2])
                survived = True
            else:
                seg = item[1]
                if not last and any(abs(y) not in self.base_set for y in seg):
                    seg, left = self._reduce(seg, k + 1, trace)
                    survived = survived or left
                _merge(out, seg)
        return out, survived

    # -- public operations ---------------------------------------------------

    def reduce(self, word: Sequence[int]) -> tuple[Word, ReductionTrace]:
        self._check_letters(word)
        trace = ReductionTrace()
        return tuple(self._reduce(list(word), 0, trace)[0]), trace

    def is_trivial(self, word: Sequence[int]) -> bool:
        self._check_letters(word)
        return not self._reduce(list(word), 0, None)[0]

    def equal(self, u: Sequence[int], v: Sequence[int]) -> bool:
        w = list(u)
        _merge(w, invert(v))
        return self.is_trivial(w)

    def _equal_raw(self, u: Sequence[int], v: Sequence[int]) -> bool:
        """Equality without letter validation (internal, trusted words)."""
        w = list(u)
        _merge(w, invert(v))
        return not self._reduce(w, 0, None)[0]

    def to_base(self, word: Sequence[int]):
        """The element's reduced word in the bottom free group, or None
        when reduction leaves a stable letter (then the element is not in
        the distorted free subgroup, by the normal-form theorem)."""
        self._check_letters(word)
        red, survived = self._reduce(list(word), 0, None)
        return None if survived else tuple(red)

    # -- canonical forms -------------------------------------------------------

    def normal_form(self, word: Sequence[int]):
        """A canonical word for the element, when the structure admits
        one cheaply: the reduced word itself for free bottoms, and the
        coset-transversal normal form for a single HNN level over its
        free base (stable patterns are invariants; base content is pushed
        right through negative stable letters and split at positive ones
        into a canonical coset representative plus a rewritten member
        part).  Returns None for deeper towers."""
        red, survived = self._reduce(list(word), 0, None)
        if not survived:
            return tuple(red)
        if self.n_levels != 1 or self.levels[0].dom_kind != "base":
            return None
        lvl = self.levels[0]
        stable = lvl.stable
        dom = lvl.domain_ids
        out: list[int] = []
        pending: list[int] = []
        for x in red:
            g = abs(x)
            if g not in stable:
                if pending and pending[-1] == -x:
                    pending.pop()
                else:
                    pending.append(x)
                continue
            endo = lvl.endos[stable[g]]
            if x < 0:
                # pending t^-1 = t^-1 phi(pending)
                out.append(x)
                _check_expansion(len(pending), endo)
                local = [y // abs(y) * lvl.dom_pos[abs(y)] for y in pending]
                pending = list(endo.apply(local))
            else:
                # pending t = rep t phi^-1(member)
                rep = invert(endo.coset_rep(invert(pending)))
                member = list(free_reduce(invert(rep) + tuple(pending)))
                out.extend(rep)
                out.append(x)
                local = endo.preimage(member)
                pending = [y // abs(y) * dom[abs(y) - 1] for y in local]
        out.extend(pending)
        return tuple(out)

    # -- invariants used for hashing -----------------------------------------

    def psi_word(self, word: Sequence[int]) -> Word:
        """Image under the letter-killing retraction onto the outermost
        stable rose (a homomorphism, hence a group-element invariant)."""
        return free_reduce([x for x in word if abs(x) in self._psi_kept])

    def ab_residue(self, word: Sequence[int]) -> tuple:
        """Canonical residue of the exponent vector modulo the relator
        lattice: the image in the abelianization."""
        if self._ab is None:
            self._ab = _AbelianLattice(self.spec)
        vec = [0] * self.n_gens
        for x in word:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return self._ab.residue(vec)

    def stable_sequence(self, reduced: Sequence[int]) -> tuple:
        """The signed sequence of stable letters in a reduced word: by
        the normal-form theorem all reduced words for one element carry
        the same sequence, so this is a group-element invariant."""
        stable = self.spec.stable_id_set()
        return tuple(x for x in reduced if abs(x) in stable)


class _AbelianLattice:
    """Integer echelon basis of the relator exponent lattice, with
    canonical coset representatives."""

    def __init__(self, spec: GroupSpec):
        n = len(spec.alphabet)
        self.n = n
        self.basis: dict[int, list[int]] = {}
        seen = set()
        for r in spec.relators():
            v = [0] * n
            v[r.base - 1] += 1
            for y in r.image:
                v[y - 1] -= 1
            t = tuple(v)
            if t not in seen:
                seen.add(t)
                self._insert(v)

    def _insert(self, v: list[int]) -> None:
        while True:
            p = next((i for i, x in enumerate(v) if x), None)
            if p is None:
                return
            b = self.basis.get(p)
            if b is None:
                if v[p] < 0:
                    v = [-x for x in v]
                self.basis[p] = v
                return
            q = v[p] // b[p]
            v = [x - q * y for x, y in zip(v, b)]
            if v[p] != 0:
                # remainder is smaller: swap it into the basis
                self.basis[p], v = v, b
                if self.basis[p][p] < 0:
                    self.basis[p] = [-x for x in self.basis[p]]

    def residue(self, vec: list[int]) -> tuple:
        v = list(vec)
        for p in sorted(self.basis):
            b = self.basis[p]
            q = v[p] // b[p]
            if q:
                v = [x - q * y for x, y in zip(v, b)]
        return tuple(v)


# -- module-level operations ---------------------------------------------------


def britton_reduce(spec: GroupSpec, word: Sequence[int]) -> tuple[Word, ReductionTrace]:
    """Innermost-first pinch reduction; the result has no pinchable pair."""
    return spec.word_problem().reduce(word)


def is_trivial(spec: GroupSpec, word: Sequence[int]) -> bool:
    return spec.word_problem().is_trivial(word)


def equal(spec: GroupSpec, u: Sequence[int], v: Sequence[int]) -> bool:
    return spec.word_problem().equal(u, v)


def to_base(spec: GroupSpec, word: Sequence[int]):
    return spec.word_problem().to_base(word)


# -- Cayley balls ---------------------------------------------------------------


@dataclass(frozen=True)
class BallElement:
    word: Word  # reduced representative
    length: int  # geodesic length (BFS depth)
    in_target: bool


@dataclass
class BallRecord:
    radius: int
    sizes: list[int]  # cumulative ball sizes per radius 0..r
    elements: list[BallElement]
    incomplete: bool = False
    cap: int | None = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def to_dict(self, alphabet=None) -> dict:
        words = (
            [alphabet.word_to_str(e.word) for e in self.elements]
            if alphabet is not None else [list(e.word) for e in self.elements]
        )
        return {
            "radius": self.radius,
            "sizes": list(self.sizes),
            "incomplete": self.incomplete,
            "cap": self.cap,
            "elements": [
                {"word": w, "length": e.length, "in_target": e.in_target}
                for w, e in zip(words, self.elements)
            ],
        }


class _Dedup:
    """Bucketed equality oracle: hash on a normal-form-derived key,
    confirm collisions with the oracle.

    The heuristic variant keys on the canonical form when the structure
    has one (making buckets near-singletons) and otherwise on two
    homomorphic invariants.  The exhaustive variant never uses the
    canonical-form key: it buckets only on proven invariants (reduced
    base words embed; retraction and abelianization images are
    homomorphic) and compares pairwise inside every bucket."""

    def __init__(self, wp: WordProblem, heuristic_keys: bool):
        self.wp = wp
        self.heuristic = heuristic_keys
        self.buckets: dict = {}
        self.count = 0

    def key_of(self, reduced: Word):
        if all(abs(x) in self.wp.base_set for x in reduced):
            return ("F", reduced)
        if self.heuristic:
            nf = self.wp.normal_form(reduced)
            if nf is not None:
                return ("nf", nf)
        return ("hnn", self.wp.stable_sequence(reduced),
                self.wp.psi_word(reduced), self.wp.ab_residue(reduced))

    def add(self, reduced: Word) -> bool:
        """True if the element is new."""
        key = self.key_of(reduced)
        bucket = self.buckets.setdefault(key, [])
        if key[0] == "F":
            if bucket:
                return False
            bucket.append(reduced)
            self.count += 1
            return True
        for other in bucket:
            if other == reduced or self.wp._equal_raw(reduced, other):
                return False
        bucket.append(reduced)
        self.count += 1
        return True


def _ball_impl(spec: GroupSpec, radius: int, cap: int | None,
               heuristic_keys: bool) -> BallRecord:
    wp = spec.word_problem()
    dedup = _Dedup(wp, heuristic_keys)
    gens = [g for g in range(1, wp.n_gens + 1)]
    moves = [g for g in gens] + [-g for g in gens]
    identity = ()
    dedup.add(identity)
    elements = [BallElement(identity, 0, True)]
    sizes = [1]
    frontier: list[Word] = [identity]
    incomplete = False
    for depth in range(1, radius + 1):
        nxt: list[Word] = []
        for w in frontier:
            for g in moves:
                cand = list(w)
                _merge(cand, (g,))
                red, survived = wp._reduce(cand, 0, None)
                red = tuple(red)
                if dedup.add(red):
                    elements.append(BallElement(red, depth, not survived))
                    nxt.append(red)
                    if cap is not None and len(elements) > cap:
                        incomplete = True
                        break
            if incomplete:
                break
        sizes.append(len(elements))
        frontier = nxt
        if incomplete:
            break
    return BallRecord(radius, sizes, elements, incomplete, cap)


def ball(spec: GroupSpec, radius: int, cap: int | None = 1_000_000) -> BallRecord:
    """Breadth-first enumeration of group elements to the given radius,
    deduplicated by invariant-key hashing with oracle confirmation.
    Geodesic lengths are BFS depths.  A cap overflow returns a partial
    record flagged incomplete."""
    if radius < 0:
        raise InvalidInputError("radius must be nonnegative")
    return _ball_impl(spec, radius, cap, heuristic_keys=True)


def ball_exhaustive(spec: GroupSpec, radius: int,
                    cap: int | None = None) -> BallRecord:
    """Independent enumeration for cross-checks: no exact-representative
    shortcut, every candidate is oracle-compared within its proven-
    invariant class (retraction image + abelianization)."""
    if radius < 0:
        raise InvalidInputError("radius must be nonnegative")
    return _ball_impl(spec, radius, cap, heuristic_keys=False)


def measure_distortion(spec: GroupSpec, radius: int,
                       cap: int | None = 1_000_000):
    """Exact empirical distortion curve: for each rho <= radius the
    largest bottom-free-group length among ball elements lying in the
    distorted subgroup."""
    from .distortion import DistortionCurve, Exact

    rec = ball(spec, radius, cap)
    best = 0
    per_radius = {}
    for e in sorted(rec.elements, key=lambda e: e.length):
        if e.in_target:
            best = max(best, len(e.word))
        per_radius[e.length] = best
    points = []
    running = 0
    for rho in range(radius + 1):
        running = per_radius.get(rho, running)
        points.append((rho, Exact(running)))
    return DistortionCurve("empirical-exact", tuple(points),
                           meta={"ball_sizes": list(rec.sizes),
                                 "incomplete": rec.incomplete})
