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

from .distortion import DistortionCurve, Exact
from .errors import CapExceededError, InvalidInputError
from .folding import PositiveEndomorphism
from .presentations import GroupSpec, LevelSpec, retractions
from .words import Word, free_reduce, invert

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

    position: int  # letters before the opener in the word at this pinch
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
    """Compiled level: stable-letter lookup and the domain/codomain sets."""

    def __init__(self, lv, index: int):
        self.index = index
        self.stable: dict[int, int] = {g: i for i, g in enumerate(lv.stable_ids)}
        self.endos = lv.endos
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
    """Compiled reduction machinery for one :class:`GroupSpec`.  It keeps
    what it reads of the spec and not the spec, which caches it, so a
    spec is freed on its last reference without the cyclic collector."""

    def __init__(self, spec: GroupSpec):
        self._level_specs = spec.levels
        self.levels = [_Level(lv, k) for k, lv in enumerate(spec.levels)]
        self.n_levels = len(self.levels)
        self.base_set = frozenset(spec.base_ids)
        self.stable_set = spec.stable_id_set()
        self.n_gens = len(spec.alphabet)
        self._psi_kept = retractions(spec)[0][1]
        self._ab = None

    # -- core reduction ----------------------------------------------------

    def _check_letters(self, word: Sequence[int]) -> None:
        for x in word:
            if not isinstance(x, (int, np.integer)) or x == 0 or abs(x) > self.n_gens:
                raise InvalidInputError(f"letter {x!r} outside the alphabet")

    def _accept(self, lvl: _Level, ids: frozenset, kind: str, u: list[int]):
        """The word over ``ids`` (the level's domain or codomain letters,
        of the given kind) equal to u, or None."""
        if kind == "base":
            return u  # segments at a base level are already subgroup words
        w = self._reduce(u, lvl.index + 1, None)[0]
        if all(abs(x) in ids for x in w):
            return w
        if kind == "reduce":
            return None  # deeper stable letters survived reduction
        # retract-and-verify: F(ids) is a retract of the base group
        c = free_reduce([x for x in w if abs(x) in ids])
        probe = list(w)
        _merge(probe, invert(c))
        if self._reduce(probe, lvl.index + 1, None)[0]:
            return None
        return list(c)

    def _pinch(self, lvl: _Level, gid: int, closer_sign: int,
               u: list[int]):
        """Replacement word for opener (g, -closer_sign), u, closer, or
        None when the pair does not pinch, with the pinch's direction."""
        endo = lvl.endos[lvl.stable[gid]]
        if closer_sign == -1:
            # t u t^-1 with u in F(domain): expand through the endomorphism
            c = self._accept(lvl, lvl.dom_set, lvl.dom_kind, u)
            if c is None:
                return None, "forward"
            _check_expansion(len(c), endo)
            return endo.apply(c), "forward"
        # t^-1 u t with u in the image subgroup: rewrite back
        c = self._accept(lvl, lvl.cod_set, lvl.cod_kind, u)
        if c is None:
            return None, "backward"
        return endo.try_preimage(c), "backward"

    def _reduce(self, letters: Sequence[int], k: int,
                trace: ReductionTrace | None,
                offset: int = 0) -> tuple[list[int], bool]:
        """Reduce from level k down; returns the reduced word and whether
        a stable letter survived (else every letter is a base letter).
        ``offset`` letters precede ``letters`` in the word being traced.

        One flat stack holds the letters; ``marks`` holds the positions
        of the level's stable letters that did not pinch, so the segment
        a closer encloses is everything after the last mark."""
        if k >= self.n_levels:
            return list(free_reduce(letters)), False
        lvl = self.levels[k]
        stable = lvl.stable
        stack: list[int] = []
        marks: list[int] = []
        for x in letters:
            g = x if x > 0 else -x
            if g in stable:
                if marks and stack[marks[-1]] == -x:
                    oi = marks[-1]
                    u = stack[oi + 1:]
                    repl, direction = self._pinch(lvl, g, 1 if x > 0 else -1, u)
                    if repl is not None:
                        if trace is not None:
                            trace.record(position=offset + oi, stable=g,
                                         direction=direction,
                                         pre_length=len(u) + 2,
                                         post_length=len(repl), level=k)
                        del stack[oi:]
                        marks.pop()
                        _merge(stack, repl)
                        continue
                marks.append(len(stack))
                stack.append(x)
            elif stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        if k == self.n_levels - 1:
            # the segments hold base letters only and are already reduced
            return stack, bool(marks)
        # reduce the segments between surviving stable letters one level down
        out: list[int] = []
        survived = bool(marks)
        start = 0
        for end in marks + [len(stack)]:
            seg = stack[start:end]
            if any(abs(y) not in self.base_set for y in seg):
                seg, left = self._reduce(seg, k + 1, trace, offset + len(out))
                survived = survived or left
            out.extend(seg)
            out.extend(stack[end:end + 1])  # the stable letter, if any
            start = end + 1
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
                pending = list(endo.apply(pending))
            else:
                # pending t = rep t phi^-1(member)
                rep = invert(endo.coset_rep(invert(pending)))
                member = list(free_reduce(invert(rep) + tuple(pending)))
                out.extend(rep)
                out.append(x)
                pending = list(endo.preimage(member))
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
            self._ab = _AbelianLattice(self._level_specs, self.n_gens)
        vec = [0] * self.n_gens
        for x in word:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return self._ab.residue(vec)

    def stable_sequence(self, reduced: Sequence[int]) -> tuple:
        """The signed sequence of stable letters in a reduced word: by
        the normal-form theorem all reduced words for one element carry
        the same sequence, so this is a group-element invariant."""
        return tuple(x for x in reduced if abs(x) in self.stable_set)


class _AbelianLattice:
    """Integer echelon basis of the levels' relator exponent lattice in
    Z^n, with canonical coset representatives."""

    def __init__(self, levels: Sequence[LevelSpec], n: int):
        self.n = n
        self.basis: dict[int, list[int]] = {}
        seen = set()
        for lv in levels:
            for base, image in zip(lv.row_letters()[1].tolist(), lv.images):
                v = [0] * n
                v[base - 1] += 1
                for y in image.tolist():
                    v[y - 1] -= 1
                if tuple(v) not in seen:
                    seen.add(tuple(v))
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
