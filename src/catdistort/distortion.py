"""Witness words and the exact length calculus behind the distortion
bounds.

Values of the form L^(c * x) quickly leave big-integer range (the third
tower witness already has subgroup length 14^(14 * 14^196)), so lengths
are carried as expression trees: exact nonnegative integers, lazy
exponential towers, sums and integer multiples.  Normalization collapses
everything materializable below a configurable bit cutoff to exact
integers; comparison is exact on exact values and uses tower dominance
otherwise (sound for the monotone expressions arising here).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import CapExceededError, InvalidInputError, InvalidParameterError
from .presentations import GroupSpec
from .words import Alphabet, Gen, Word, free_reduce, invert

DEFAULT_BIT_CUTOFF = 1 << 20


# -- expression nodes ---------------------------------------------------------


class LengthExpr:
    """Base class; nodes are immutable and compare by value, with an int
    standing for its :class:`Exact`.  A comparison :func:`expr_cmp`
    cannot decide raises, in ``==`` and in a set or dict alike."""

    def __eq__(self, other):
        if isinstance(other, int):
            return other >= 0 and self == Exact(other)
        if isinstance(other, LengthExpr):
            return expr_cmp(self, other) == 0
        return NotImplemented

    def __hash__(self):
        # normalize leaves a value unmaterialized only above 2^cutoff, so
        # values up to there hash as their int and the rest share one hash
        v = normalize(self)
        if isinstance(v, Exact) and v.value.bit_length() <= DEFAULT_BIT_CUTOFF:
            return hash(v.value)
        return hash(DEFAULT_BIT_CUTOFF)

    def __le__(self, other):
        return expr_cmp(self, other) <= 0

    def __lt__(self, other):
        return expr_cmp(self, other) < 0

    def __ge__(self, other):
        return expr_cmp(self, other) >= 0

    def __gt__(self, other):
        return expr_cmp(self, other) > 0


#: bit lengths below this convert with ``str`` under any interpreter limit
#: on decimal digits (the lowest limit it accepts is 640 digits)
_STR_CHUNK_BITS = 2000


def _int_str(v: int, width: int = 0) -> str:
    """Full decimal digits, zero-padded to ``width``.  Large values are
    split by a power of ten and converted half by half, so the
    interpreter's digit limit never applies and is never changed."""
    if v.bit_length() <= _STR_CHUNK_BITS:
        return str(v).zfill(width)
    half = int(v.bit_length() * 0.30103) // 2  # about half the digits
    hi, lo = divmod(v, 10 ** half)
    return _int_str(hi, max(width - half, 0)) + _int_str(lo, half)


@dataclass(frozen=True, eq=False)
class Exact(LengthExpr):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise InvalidParameterError("lengths are nonnegative")

    def __str__(self):
        return _int_str(self.value)


@dataclass(frozen=True, eq=False)
class Tower(LengthExpr):
    """base ** (multiplier * exponent)."""

    base: int
    multiplier: int
    exponent: LengthExpr

    def __post_init__(self):
        if self.base < 2 or self.multiplier < 1:
            raise InvalidParameterError("tower needs base >= 2, multiplier >= 1")

    def __str__(self):
        if self.multiplier == 1:
            return f"{self.base}^({self.exponent})"
        return f"{self.base}^({self.multiplier}*{self.exponent})"


@dataclass(frozen=True, eq=False)
class Mul(LengthExpr):
    coeff: int
    expr: LengthExpr

    def __post_init__(self):
        if self.coeff < 0:
            raise InvalidParameterError("coefficients are nonnegative")

    def __str__(self):
        return f"{self.coeff}*({self.expr})"


@dataclass(frozen=True, eq=False)
class Sum(LengthExpr):
    terms: tuple[LengthExpr, ...]
    const: int = 0

    def __post_init__(self):
        if self.const < 0:
            raise InvalidParameterError("coefficients are nonnegative")

    def __str__(self):
        parts = [str(t) for t in self.terms]
        if self.const or not parts:
            parts.append(str(self.const))
        return "(" + " + ".join(parts) + ")"


def normalize(expr: LengthExpr, bit_cutoff: int = DEFAULT_BIT_CUTOFF) -> LengthExpr:
    """Collapse every materializable subtree to an exact integer.  A
    tower materializes when its bit length stays below the cutoff."""
    if isinstance(expr, Exact):
        return expr
    if isinstance(expr, Tower):
        e = normalize(expr.exponent, bit_cutoff)
        if isinstance(e, Exact):
            mv = expr.multiplier * e.value
            # log2(base) >= 1, so mv > cutoff already rules it out;
            # below that the float product is tiny and safe
            if mv <= bit_cutoff and mv * math.log2(expr.base) <= bit_cutoff:
                return Exact(expr.base ** mv)
        return Tower(expr.base, expr.multiplier, e)
    if isinstance(expr, Mul):
        e = normalize(expr.expr, bit_cutoff)
        if expr.coeff == 0:
            return Exact(0)
        if isinstance(e, Exact):
            return Exact(expr.coeff * e.value)
        if expr.coeff == 1:
            return e
        if isinstance(e, Mul):
            return Mul(expr.coeff * e.coeff, e.expr)
        return Mul(expr.coeff, e)
    if isinstance(expr, Sum):
        const = expr.const
        terms = []
        for t in expr.terms:
            tn = normalize(t, bit_cutoff)
            if isinstance(tn, Exact):
                const += tn.value
            elif isinstance(tn, Sum):
                const += tn.const
                terms.extend(tn.terms)
            else:
                terms.append(tn)
        if not terms:
            return Exact(const)
        if len(terms) == 1 and const == 0:
            return terms[0]
        return Sum(tuple(terms), const)
    raise InvalidInputError(f"not a length expression: {expr!r}")


def _floor_log(base: int, value: int) -> int:
    """Largest t with base**t <= value (value >= 1)."""
    if value < 1:
        raise InvalidInputError("log of nonpositive value")
    t = max(0, int(value.bit_length() / math.log2(base)) - 2)
    p = base ** t
    while p * base <= value:
        p *= base
        t += 1
    return t


def _cmp_int(a: int, b: int) -> int:
    return (a > b) - (a < b)


def _cmp(m1: int, e1: LengthExpr, k1: int,
         m2: int, e2: LengthExpr, k2: int) -> int:
    """Sign of (m1*val(e1) + k1) - (m2*val(e2) + k2) for normalized e1,
    e2, m >= 1 and k >= 0; a pair comparison is the case k = 0."""
    # flatten integer multiples and one-term sums into the affine frame
    if isinstance(e1, Mul):
        return _cmp(m1 * e1.coeff, e1.expr, k1, m2, e2, k2)
    if isinstance(e2, Mul):
        return -_cmp(m2 * e2.coeff, e2.expr, k2, m1, e1, k1)
    if isinstance(e1, Sum) and len(e1.terms) == 1:
        return _cmp(m1, e1.terms[0], k1 + m1 * e1.const, m2, e2, k2)
    if isinstance(e2, Sum) and len(e2.terms) == 1:
        return -_cmp(m2, e2.terms[0], k2 + m2 * e2.const, m1, e1, k1)
    if isinstance(e1, Exact) and isinstance(e2, Exact):
        return _cmp_int(m1 * e1.value + k1, m2 * e2.value + k2)
    if isinstance(e1, Exact) and isinstance(e2, Tower):
        # an unmaterialized tower exceeds the exact side unless its bit
        # length is borderline; a symbolic or 2^64-sized exponent never is
        lhs = m1 * e1.value + k1
        x = e2.exponent
        if not isinstance(x, Exact) or x.value.bit_length() > 64 or (
                e2.multiplier * x.value * math.log2(e2.base)
                > lhs.bit_length() + 2):
            return -1
        return _cmp_int(lhs, m2 * e2.base ** (e2.multiplier * x.value) + k2)
    if isinstance(e1, Tower) and isinstance(e2, Exact):
        return -_cmp(m2, e2, k2, m1, e1, k1)
    if isinstance(e1, Tower) and isinstance(e2, Tower):
        if e1.base != e2.base:
            raise InvalidInputError(
                "comparison across different tower bases is not supported"
            )
        L = e1.base
        f1 = _floor_log(L, m1)
        f2 = _floor_log(L, m2)
        # m < L^(f+1), so a strict exponent gap of one power of L
        # dominates the multiples entirely; equal exponents compare
        # m1/L^f1 against m2/L^f2, and equal towers compare k
        d = _cmp(e1.multiplier, e1.exponent, f1, e2.multiplier, e2.exponent, f2)
        if d == 0:
            d = _cmp_int(m1 * L ** f2, m2 * L ** f1)
        if d == 0:
            return _cmp_int(k1, k2)
        # unequal tower sides differ by at least the smaller tower, above
        # 2^DEFAULT_BIT_CUTOFF (unmaterialized), so a smaller k cannot count
        if max(k1, k2).bit_length() >= DEFAULT_BIT_CUTOFF:
            raise InvalidInputError("undecidable comparison: constant as large as a tower")
        return d
    if isinstance(e1, Sum):
        # terms are positive: one term reaching the other side settles it
        for t in e1.terms:
            if _cmp(m1, t, k1 + m1 * e1.const, m2, e2, k2) >= 0:
                return 1
        raise InvalidInputError("undecidable sum comparison")
    if isinstance(e2, Sum):
        return -_cmp(m2, e2, k2, m1, e1, k1)
    raise InvalidInputError(
        f"undecidable comparison between {e1!r} and {e2!r}"
    )


def expr_cmp(a: LengthExpr, b: LengthExpr) -> int:
    """Exact three-way comparison of normalized values.  Decides every
    comparison the witness families produce (exact integers and towers
    over one base); raises on genuinely unsupported shapes."""
    return _cmp(1, normalize(a), 0, 1, normalize(b), 0)


def expr_to_dict(e: LengthExpr) -> dict:
    if isinstance(e, Exact):
        return {"kind": "exact", "value": _int_str(e.value)}
    if isinstance(e, Tower):
        return {"kind": "tower", "base": e.base, "multiplier": e.multiplier,
                "exponent": expr_to_dict(e.exponent)}
    if isinstance(e, Mul):
        return {"kind": "mul", "coeff": e.coeff, "expr": expr_to_dict(e.expr)}
    if isinstance(e, Sum):
        return {"kind": "sum", "const": e.const,
                "terms": [expr_to_dict(t) for t in e.terms]}
    raise InvalidInputError(f"not a length expression: {e!r}")


def iterated_exp(L: int, depth: int, x: int) -> LengthExpr:
    """f^depth(x) for f(y) = L**y, normalized."""
    e: LengthExpr = Exact(x)
    for _ in range(depth):
        e = Tower(L, 1, e)
    return normalize(e)


def expand_length(conjugator: Sequence[int], base_len: LengthExpr,
                  L: int) -> LengthExpr:
    """Exact length of a base element after conjugation by a positive
    stable word: each conjugation layer multiplies length by exactly L
    (positive words never cancel), so the result is L^len * base_len."""
    if any(x <= 0 for x in conjugator):
        raise InvalidInputError(
            "exactness requires a positive conjugator"
        )
    p = len(conjugator)
    factor = Tower(L, 1, Exact(p))
    base_n = normalize(base_len)
    if isinstance(base_n, Exact):
        if base_n.value == 0:
            return Exact(0)
        return normalize(Mul(base_n.value, factor))
    if isinstance(base_n, Tower) and base_n.base == L:
        return normalize(Tower(L, 1, Sum((Mul(base_n.multiplier,
                                              base_n.exponent),), p)))
    raise InvalidInputError("unsupported base length shape")


# -- witnesses ----------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """An explicit element with its word (an upper bound on its geodesic
    length in the big group) and exact subgroup length."""

    kind: str
    word: Word
    alphabet: Alphabet
    word_length: int
    length_bound: int
    subgroup_length: LengthExpr
    stages: tuple = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "word": self.alphabet.word_to_str(self.word),
            "word_length": self.word_length,
            "geodesic_length_bound": self.length_bound,
            "subgroup_length": expr_to_dict(normalize(self.subgroup_length)),
            "subgroup_length_str": str(normalize(self.subgroup_length)),
        }


#: cap on the letters of an explicit witness word (block, chain or tower):
#: tower stages k <= 20
TOWER_LETTER_CAP = 1 << 22


def _check_witness_letters(kind: str, letters: int) -> None:
    """Raise :class:`CapExceededError`, before a witness builds any
    letter, when its word would exceed :data:`TOWER_LETTER_CAP`.  Callers
    clamp doubling exponents at 64, so a count of 2^62 letters or more
    is reported as such, never computed or printed in full."""
    if letters > TOWER_LETTER_CAP:
        raise CapExceededError(
            f"the {kind} witness word has "
            f"{letters if letters < 1 << 62 else 'over 2^62'} letters, "
            f"above the cap {TOWER_LETTER_CAP}")


def _block_ids(spec: GroupSpec):
    lv = spec.levels[-1]
    return lv.stable_ids[0], lv.domain_ids[0]


def witness_block(spec: GroupSpec, n: int) -> Witness:
    """t^n a t^-n: word length 2n+1, subgroup length exactly L^n."""
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    if spec.structure != "block":
        raise InvalidInputError("block witness needs a block presentation")
    _check_witness_letters("block", 2 * n + 1)
    L = spec.params["L"]
    t, a = _block_ids(spec)
    word = (t,) * n + (a,) + (-t,) * n
    return Witness("block", word, spec.alphabet, 2 * n + 1, 2 * n + 1,
                   normalize(Tower(L, 1, Exact(n))) if n else Exact(1))


def witness_chain(l: int, L: int, n: int,
                  spec: GroupSpec | None = None) -> Witness:
    """The nested commutator-style family: w_1 = t^n a^(1) t^-n and
    w_k = w_(k-1) a^(k) w_(k-1)^-1.

    Word lengths obey len(w_k) = 2 len(w_(k-1)) + 1, hence the geodesic
    bound 2^l n + 2^l - 1; the subgroup length is the l-fold iterate of
    x -> L^x at n (each stage conjugates a single letter by a positive
    word, multiplying length exactly by L per letter)."""
    if l < 1 or n < 0 or L < 2:
        raise InvalidParameterError("need l >= 1, n >= 0, L >= 2")
    _check_witness_letters("chain", 2 ** min(l, 64) * (n + 1) - 1)
    if spec is not None:
        if spec.structure != "chain" or spec.params["l"] != l \
                or spec.params["L"] != L:
            raise InvalidInputError("spec does not match the requested chain")
        alphabet = spec.alphabet
        t = spec.levels[0].stable_ids[0]
        a_first = [lv.domain_ids[0] for lv in spec.levels]
    else:
        alphabet = Alphabet([Gen("t", 1)] + [Gen("a", 1, level=k)
                                             for k in range(1, l + 1)])
        t = 1
        a_first = list(range(2, l + 2))
    word = (t,) * n + (a_first[0],) + (-t,) * n
    stages = [word]
    lengths = [Tower(L, 1, Exact(n))]
    for k in range(1, l):
        word = word + (a_first[k],) + invert(word)
        stages.append(word)
        lengths.append(Tower(L, 1, lengths[-1]))
    bound = (2 ** l) * n + 2 ** l - 1
    return Witness("chain", word, alphabet, len(word), bound,
                   normalize(lengths[-1]),
                   stages=tuple(stages))


def tower_geodesic_bounds(k_max: int) -> list[int]:
    """The bound recurrence 3, then 2x+5."""
    out = [3]
    for _ in range(1, k_max):
        out.append(2 * out[-1] + 5)
    return out


def witness_tower(k: int, L: int = 14,
                  spec: GroupSpec | None = None) -> Witness:
    """w_1 = t a t^-1 and w_k = (s w_(k-1) s^-1) a (s w_(k-1)^-1 s^-1).

    Word lengths obey len(w_k) = 2 len(w_(k-1)) + 5 (so the geodesic
    bound stays <= 4^k); subgroup lengths obey h_1 = L and
    h_k = L^(L * h_(k-1)): conjugating the single letter a by the
    positive stable word of length L * h_(k-1) multiplies length by L
    that many times."""
    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    _check_witness_letters(f"stage-{k} tower", 2 ** (min(k, 64) + 2) - 5)
    if spec is not None:
        if spec.structure != "double" or spec.params["L"] != L:
            raise InvalidInputError("spec does not match the requested double")
        alphabet = spec.alphabet
        a = spec.base_ids[0]
        t = spec.levels[1].stable_ids[0]
        s = spec.levels[0].stable_ids[0]
    else:
        alphabet = Alphabet([Gen("a", 1), Gen("t", 1), Gen("s", 1)])
        a, t, s = 1, 2, 3
    word = (t, a, -t)
    stages = [word]
    h: LengthExpr = Exact(L)
    for _ in range(1, k):
        word = (s,) + word + (-s, a, s) + invert(word) + (-s,)
        stages.append(word)
        h = Tower(L, L, h)
    bound = tower_geodesic_bounds(k)[-1]
    return Witness("tower", word, alphabet, len(word), bound,
                   normalize(h), stages=tuple(stages))


# -- curves -------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionCurve:
    """Sampled distortion data: (argument, subgroup length) pairs, with
    the kind recording how the values were obtained."""

    kind: str  # "witness-lower-bound" | "empirical-exact" | "upper-bound-audit"
    points: tuple[tuple[int, LengthExpr], ...]
    meta: dict = field(default_factory=dict)

    def is_monotone(self) -> bool:
        vals = [v for _, v in sorted(self.points)]
        return all(expr_cmp(vals[i], vals[i + 1]) <= 0
                   for i in range(len(vals) - 1))

    def to_csv(self) -> str:
        lines = ["n_or_radius,value,representation"]
        for x, v in self.points:
            vn = normalize(v)
            rep = "exact" if isinstance(vn, Exact) else "tower"
            lines.append(f"{x},{vn},{rep}")
        return "\n".join(lines) + "\n"


def lower_bound_curve(spec: GroupSpec, n_max: int) -> DistortionCurve:
    """Witness-family lower bounds: pairs (word length of the witness,
    its exact subgroup length)."""
    pts = []
    if spec.structure == "block":
        for n in range(n_max + 1):
            w = witness_block(spec, n)
            pts.append((w.word_length, w.subgroup_length))
    elif spec.structure == "chain":
        l, L = spec.params["l"], spec.params["L"]
        for n in range(n_max + 1):
            w = witness_chain(l, L, n, spec)
            pts.append((w.word_length, w.subgroup_length))
    elif spec.structure == "double":
        L = spec.params["L"]
        for k in range(1, n_max + 1):
            w = witness_tower(k, L, spec)
            pts.append((w.word_length, w.subgroup_length))
    else:
        raise InvalidInputError(f"unknown structure {spec.structure}")
    return DistortionCurve("witness-lower-bound", tuple(pts),
                           meta={"structure": spec.structure,
                                 "params": dict(spec.params)})


@dataclass(frozen=True)
class AuditSample:
    word_length: int
    base_length: int
    pinch_count: int
    bound_ok: bool
    pinches_ok: bool


def _sample_f_word(spec: GroupSpec, k: int, rng) -> Word:
    """A word of length <= k lying in the distorted free subgroup:
    a product of conjugates t^p x t^-p (p >= 0), plus occasional
    image-conjugate factors t^-p phi^p(x) t^p when the length budget
    allows their expansion."""
    lv = spec.levels[-1]
    t_ids = lv.stable_ids
    a_ids = lv.domain_ids
    L = spec.params["L"]
    out: list[int] = []
    budget = k
    while budget >= 1:
        if budget >= 3 and rng.random() < 0.85:
            p_max = (budget - 1) // 2
            p = min(rng.randint(0, p_max), rng.randint(0, p_max))
            t = rng.choice(t_ids)
            x = rng.choice(a_ids) * rng.choice((1, -1))
            if L == 2 and p >= 1 and rng.random() < 0.3 \
                    and L ** p + 2 * p <= budget:
                # reverse-pinch material: t^-p phi^p(x) t^p
                endo = lv.endos[t_ids.index(t)]
                core = [x]
                for _ in range(p):
                    core = list(endo.apply(core))
                chunk = [-t] * p + core + [t] * p
            else:
                chunk = [t] * p + [x] + [-t] * p
        else:
            chunk = [rng.choice(a_ids) * rng.choice((1, -1))]
        if len(chunk) > budget:
            break
        out.extend(chunk)
        budget -= len(chunk)
        if rng.random() < 0.25:
            break
    return free_reduce(out)


def upper_bound_audit(spec: GroupSpec, k_max: int, samples: int,
                      seed: int = 0) -> DistortionCurve:
    """Sample elements of the distorted subgroup with word length <= k
    and audit the cancellation bound: |to_base| <= L^(k/2) * k (checked
    exactly as |to_base|^2 <= L^k * k^2) and pinch count <= k/2."""
    if spec.structure != "block":
        raise InvalidInputError("the cancellation audit applies to blocks")
    L = spec.params["L"]
    wp = spec.word_problem()
    rng = random.Random(seed)
    per_k: dict[int, int] = {}
    audits: list[AuditSample] = []
    violations = []
    n_done = 0
    while n_done < samples:
        k = rng.randint(1, k_max)
        w = _sample_f_word(spec, k, rng)
        if not w:
            continue
        kk = len(w)
        red, trace = wp.reduce(w)
        if not all(abs(x) in wp.base_set for x in red):
            raise InvalidInputError("a sampled word did not reduce into the base group")
        blen = len(red)
        bound_ok = blen * blen <= (L ** kk) * kk * kk
        pinches_ok = 2 * trace.pinch_count <= kk
        audits.append(AuditSample(kk, blen, trace.pinch_count,
                                  bound_ok, pinches_ok))
        if not (bound_ok and pinches_ok):
            violations.append(audits[-1])
        per_k[kk] = max(per_k.get(kk, 0), blen)
        n_done += 1
    pts = tuple((k, Exact(v)) for k, v in sorted(per_k.items()))
    return DistortionCurve(
        "upper-bound-audit", pts,
        meta={"samples": n_done, "seed": seed,
              "violations": len(violations),
              "max_pinches": max((a.pinch_count for a in audits), default=0)},
    )
