"""The three presentation families and their serialization.

Every presentation here is a tower of HNN levels over a free bottom: each
level has stable letters conjugating a free-subgroup domain into positive
words of uniform length L over a codomain alphabet.

- a *block* has stable letters t_1..t_n acting on base letters a_1..a_m
  (m = L*n), images chopped out of the square-length word on the a's;
- a *chain* stacks blocks: level-k base letters become level-(k+1) stable
  letters, so one flat presentation on t, a^(1), ..., a^(l) realizes the
  amalgam (generator sets are identified by name);
- a *double* adds a single stable letter s sending the a-letters to
  positive words in the t-letters, feasible iff L*m*n <= m^2 and
  L*m <= n^2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConstructionError,
    InvalidParameterError,
    SpecParseError,
    check_budget,
)
from .folding import PositiveEndomorphism, check_image_family
from .words import (
    Alphabet,
    Gen,
    PositiveWord,
    Word,
    chop_ids,
    invert,
    sigma_ids,
)

FORMAT_TAG = "catdistort/1"

#: fold roses eagerly at construction while their total size stays below
#: this edge count; larger families are certified on demand (CLI --full).
CERTIFY_EDGE_LIMIT = 500_000

#: cap on the letters a block, chain or double allocates for its square
#: words and image rows; admits G(289, 4913, 17), about 48.4 M letters
BUILD_LETTER_CAP = 1 << 26


@dataclass(frozen=True)
class BlockParams:
    """Parameters of one building block: n stable letters, m = L*n base
    letters, images of length L.  Chop feasibility L*m*n <= m*m is then
    automatic."""

    n: int
    m: int
    L: int = 14

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("need at least one stable letter")
        if self.L < 2:
            raise InvalidParameterError("image length L must be at least 2")
        if self.m != self.L * self.n:
            raise InvalidParameterError(
                f"base rank must satisfy m = L*n, got m={self.m}, L*n={self.L * self.n}"
            )


@dataclass(frozen=True)
class Relator:
    """A conjugation relator: stable * base * stable^-1 = image."""

    stable: int
    base: int
    image: PositiveWord

    def word(self) -> Word:
        return (self.stable, self.base, -self.stable) + invert(self.image)


@dataclass(frozen=True, eq=False)
class LevelSpec:
    """One HNN level: stable letters, the domain/codomain letters named
    globally, and the level's one family of relator images.

    ``images`` has one int32 row per relator, in relator order: stable
    letter outer, domain letter inner (:meth:`row_letters` names each
    row's two letters), and is censused once, whole, at construction.
    ``endos[i]``, the map of ``stable_ids[i]``, is built on the row block
    ``i*r .. (i+1)*r - 1`` (r = ``len(domain_ids)``) as a view that skips
    the census, so every check reads the family in place.

    ``dom_kind`` records how membership in the domain subgroup F(domain)
    of the level's base group is decided:

    - ``"base"``: the base group *is* F(domain); a reduced stable-free
      word is in it iff its letters lie in the domain.
    - ``"retract"``: F(domain) is a retract of the base group (killing
      all deeper letters is a homomorphism); membership is retract-and-
      verify.
    - ``"reduce"``: the domain letters are the free bottom of the base
      group's own tower; membership holds iff full reduction of the word
      eliminates every deeper stable letter.
    """

    stable_ids: tuple[int, ...]
    domain_ids: tuple[int, ...]
    codomain_ids: tuple[int, ...]
    images: np.ndarray
    dom_kind: str
    cod_kind: str
    endos: tuple[PositiveEndomorphism, ...] = field(init=False, repr=False)

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.int32)
        r = len(self.domain_ids)
        if images.ndim != 2 or images.shape[0] != len(self.stable_ids) * r:
            raise InvalidParameterError(
                f"a level needs {len(self.stable_ids)} x {r} image rows")
        check_image_family(images)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "endos", tuple(
            PositiveEndomorphism._of_censused(images[i * r:(i + 1) * r],
                                              self.domain_ids)
            for i in range(len(self.stable_ids))))

    @property
    def image_length(self) -> int:
        return self.images.shape[1]

    def row_letters(self) -> tuple[np.ndarray, np.ndarray]:
        """Each image row's stable and base (domain) letter, as int64
        columns."""
        r = len(self.domain_ids)
        return (np.repeat(np.asarray(self.stable_ids, dtype=np.int64), r),
                np.tile(np.asarray(self.domain_ids, dtype=np.int64),
                        len(self.stable_ids)))


class GroupSpec:
    """A constructed presentation: alphabet, HNN levels (outermost
    first), free bottom, and the distinguished subgroups."""

    def __init__(self, structure: str, params: dict, alphabet: Alphabet,
                 levels: Sequence[LevelSpec], base_ids: Sequence[int],
                 convex_ids: Sequence[int]):
        self.structure = structure
        self.params = dict(params)
        self.alphabet = alphabet
        self.levels = tuple(levels)
        self.base_ids = tuple(base_ids)
        self.convex_ids = tuple(convex_ids)
        self._wp = None

    # -- inventory --------------------------------------------------------

    @property
    def n_generators(self) -> int:
        return len(self.alphabet)

    def relator_count(self) -> int:
        return sum(lv.images.shape[0] for lv in self.levels)

    def rose_edge_count(self) -> int:
        """Edges of all the roses that certification folds."""
        return sum(lv.images.size for lv in self.levels)

    def relators(self) -> Iterator[Relator]:
        for lv in self.levels:
            for s, b, row in zip(*lv.row_letters(), lv.images):
                yield Relator(int(s), int(b), tuple(row.tolist()))

    def stable_id_set(self) -> frozenset[int]:
        return frozenset(g for lv in self.levels for g in lv.stable_ids)

    def certify_all(self, progress=None) -> list:
        """Injectivity certificates for every endomorphism of every
        level; raises ConstructionError on any failure."""
        certs = []
        for lv in self.levels:
            for si, phi in enumerate(lv.endos):
                cert = phi.certificate
                if not cert.injective:
                    raise ConstructionError(
                        f"endomorphism of stable letter "
                        f"{self.alphabet.gen(lv.stable_ids[si]).token} folded to "
                        f"rank {cert.folded_rank} < {cert.domain_rank}"
                    )
                certs.append(cert)
                if progress is not None:
                    progress(len(certs))
        return certs

    def word_problem(self):
        """Cached solver; see :mod:`catdistort.navigator`."""
        if self._wp is None:
            from .navigator import WordProblem

            self._wp = WordProblem(self)
        return self._wp

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GroupSpec):
            return NotImplemented
        if (self.structure, self.params, self.alphabet) != (
            other.structure, other.params, other.alphabet
        ):
            return False
        if (self.base_ids, self.convex_ids) != (other.base_ids, other.convex_ids):
            return False
        if len(self.levels) != len(other.levels):
            return False
        for a, b in zip(self.levels, other.levels):
            if (a.stable_ids, a.domain_ids, a.codomain_ids, a.dom_kind,
                    a.cod_kind) != (b.stable_ids, b.domain_ids,
                                    b.codomain_ids, b.dom_kind, b.cod_kind):
                return False
            if not np.array_equal(a.images, b.images):
                return False
        return True

    def __repr__(self):
        p = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"GroupSpec({self.structure}, {p})"


def _level(stable: tuple[int, ...], domain: tuple[int, ...],
           letters: tuple[int, ...], L: int, dom_kind: str,
           cod_kind: str) -> LevelSpec:
    """The level whose images chop the square-length word over
    ``letters`` into len(stable) * len(domain) words of L letters.  The
    chopped positions are shifted in place and dropped before the
    census, so one family-sized temporary at most is alive beside it."""
    local = chop_ids(sigma_ids(len(letters)), L, len(stable) * len(domain))
    local -= 1
    fam = np.asarray(letters, dtype=np.int32)[local]
    del local
    return LevelSpec(stable, domain, letters, fam, dom_kind, cod_kind)


def _maybe_certify(spec: GroupSpec, certify: bool | None):
    if certify is None:
        certify = spec.rose_edge_count() <= CERTIFY_EDGE_LIMIT
    if certify:
        spec.certify_all()
    return spec


def build_block(p: BlockParams, certify: bool | None = None) -> GroupSpec:
    """The block presentation on a_1..a_m, t_1..t_n with mn conjugation
    relators whose images are the successive length-L subwords of the
    square-length word on the a's, assigned row-major (stable letter
    outer, base letter inner).

    Pair-uniqueness of the image family holds by construction and is
    re-verified; all n endomorphisms are certified injective (deferred
    past ``CERTIFY_EDGE_LIMIT`` unless ``certify`` forces it).
    """
    n, m, L = p.n, p.m, p.L
    check_budget(m * m + m * n * L, BUILD_LETTER_CAP, "block needs",
                 "letters of square words and images")
    gens = [Gen("a", j) for j in range(1, m + 1)]
    gens += [Gen("t", i) for i in range(1, n + 1)]
    alphabet = Alphabet(gens)
    a_ids = tuple(range(1, m + 1))
    t_ids = tuple(range(m + 1, m + n + 1))
    spec = GroupSpec(
        "block", {"n": n, "m": m, "L": L}, alphabet,
        [_level(t_ids, a_ids, a_ids, L, "base", "base")],
        base_ids=a_ids, convex_ids=t_ids,
    )
    return _maybe_certify(spec, certify)


def build_chain(l: int, L: int = 14, certify: bool | None = None) -> GroupSpec:
    """The chain presentation on t, a^(1), ..., a^(l).

    Level k (0-based) conjugates the rank-L^(k+1) letters a^(k+1) by the
    level-k stable letters (t for k = 0, a^(k) above), with images chopped
    from the square-length word on the a^(k+1); every level consumes its
    square-length word exactly.  The distortion target is F(a^(l)).
    """
    if l < 1:
        raise InvalidParameterError("chain needs at least one level")
    if L < 2:
        raise InvalidParameterError("image length L must be at least 2")
    # level 31 alone needs 2 L^62 >= 2^63 letters, so the sum stops there
    check_budget(2 * sum(L ** (2 * k) for k in range(1, min(l, 31) + 1)),
                 BUILD_LETTER_CAP, "chain needs",
                 "letters of square words and images")
    gens = [Gen("t", 1)]
    level_ids: list[tuple[int, ...]] = []
    nxt = 2
    for k in range(1, l + 1):
        rk = L ** k
        gens += [Gen("a", j, level=k) for j in range(1, rk + 1)]
        level_ids.append(tuple(range(nxt, nxt + rk)))
        nxt += rk
    alphabet = Alphabet(gens)
    t_ids = (1,)
    levels = []
    for k in range(l):
        kind = "base" if k == l - 1 else "retract"
        levels.append(_level(t_ids if k == 0 else level_ids[k - 1],
                             level_ids[k], level_ids[k], L, kind, kind))
    spec = GroupSpec(
        "chain", {"l": l, "L": L}, alphabet, levels,
        base_ids=level_ids[-1], convex_ids=t_ids,
    )
    return _maybe_certify(spec, certify)


def build_double(n: int, m: int, L: int = 14,
                 certify: bool | None = None) -> GroupSpec:
    """The double extension: a block on (a, t) plus one stable letter s
    with s a_k s^-1 a positive length-L word in the t's.

    Feasibility: L*m*n <= m^2 (a-images chop out of the square word on
    the a's) and L*m <= n^2 (t-images chop out of the square word on the
    t's); violations are rejected naming the failing inequality.
    """
    if n < 2 or m < 2:
        raise InvalidParameterError("double needs at least two a's and two t's")
    if L < 2:
        raise InvalidParameterError("image length L must be at least 2")
    violated = []
    if L * m * n > m * m:
        violated.append(f"{L}mn <= m^2 ({L * m * n} > {m * m})")
    if L * m > n * n:
        violated.append(f"{L}m <= n^2 ({L * m} > {n * n})")
    if violated:
        raise InvalidParameterError(
            "constraint " + " and ".join(violated) +
            f" violated (n={n}, m={m}, L={L})"
        )
    check_budget(m * m + m * n * L + n * n + m * L, BUILD_LETTER_CAP,
                 "double needs", "letters of square words and images")
    gens = [Gen("a", j) for j in range(1, m + 1)]
    gens += [Gen("t", i) for i in range(1, n + 1)]
    gens.append(Gen("s", 1))
    alphabet = Alphabet(gens)
    a_ids = tuple(range(1, m + 1))
    t_ids = tuple(range(m + 1, m + n + 1))
    s_id = m + n + 1
    t_level = _level(t_ids, a_ids, a_ids, L, "base", "base")
    s_level = _level((s_id,), a_ids, t_ids, L, "reduce", "retract")
    spec = GroupSpec(
        "double", {"n": n, "m": m, "L": L}, alphabet, [s_level, t_level],
        base_ids=a_ids, convex_ids=(s_id,),
    )
    return _maybe_certify(spec, certify)


def free_group(rank: int) -> GroupSpec:
    """A free group as a degenerate spec: no levels, no relators.  Used
    as the no-relator baseline for ball and link checks."""
    if rank < 1:
        raise InvalidParameterError("rank must be positive")
    alphabet = Alphabet([Gen("a", j) for j in range(1, rank + 1)])
    ids = tuple(range(1, rank + 1))
    return GroupSpec("free", {"rank": rank}, alphabet, [], ids, ())


# -- retractions -------------------------------------------------------------


def retractions(spec: GroupSpec) -> list[tuple[str, frozenset[int]]]:
    """The letter-killing retractions this structure carries, as
    (name, kept letter ids) pairs."""
    if spec.structure == "free":
        return [("identity", frozenset(range(1, len(spec.alphabet) + 1)))]
    if spec.structure == "block":
        return [("onto-stable-rose", frozenset(spec.levels[0].stable_ids))]
    if spec.structure == "chain":
        out = []
        kept: set[int] = set()  # t, then a^(1), ..., a^(k)
        for k, lv in enumerate(spec.levels):
            kept |= set(lv.stable_ids)
            out.append((f"kill-below-{k}", frozenset(kept)))
        return out
    if spec.structure == "double":
        return [("onto-s", frozenset(spec.levels[0].stable_ids))]
    raise InvalidParameterError(f"unknown structure {spec.structure}")


def _relator_rows(level: LevelSpec) -> np.ndarray:
    """The level's relator words as rows ``(s, b, s^-1, image^-1)``, in
    the order :meth:`GroupSpec.relators` yields them."""
    s, b = level.row_letters()
    rows = np.empty((s.size, level.image_length + 3), dtype=np.int64)
    rows[:, 0] = s
    rows[:, 1] = b
    rows[:, 2] = -s
    rows[:, 3:] = -level.images[:, ::-1]
    return rows


def _reduces_to_empty(rows: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Per row: does the subword of kept letters freely reduce to the
    empty word?  Runs one stack per row, a column at a time."""
    stack = np.zeros_like(rows)
    height = np.zeros(rows.shape[0], dtype=np.int64)
    at = np.arange(rows.shape[0])
    for x, keep in zip(rows.T, kept.T):
        top = stack[at, np.maximum(height - 1, 0)]
        cancel = keep & (height > 0) & (top == -x)
        push = keep & ~cancel
        height[cancel] -= 1
        stack[at[push], height[push]] = x[push]
        height[push] += 1
    return height == 0


def verify_retraction(spec: GroupSpec) -> bool:
    """True iff every letter-killing retraction of the structure sends
    each relator either to itself (all letters kept: a target relator) or
    to a freely trivial word."""
    rels = [_relator_rows(lv) for lv in spec.levels]
    for _, kept in retractions(spec):
        kept_ids = np.fromiter(kept, dtype=np.int64)
        for rows in rels:
            keep = np.isin(np.abs(rows), kept_ids)
            partial = ~keep.all(axis=1)
            if not _reduces_to_empty(rows[partial], keep[partial]).all():
                return False
    return True


# -- serialization ------------------------------------------------------------


def spec_to_dict(spec: GroupSpec) -> dict:
    al = spec.alphabet
    toks = lambda ids: [al.gen(i).token for i in ids]
    levels = []
    for lv in spec.levels:
        levels.append({
            "stable": toks(lv.stable_ids),
            "domain": toks(lv.domain_ids),
            "codomain": toks(lv.codomain_ids),
            "dom_kind": lv.dom_kind,
            "cod_kind": lv.cod_kind,
            "images": [
                [al.word_to_str(tuple(int(x) for x in row)) for row in phi.images]
                for phi in lv.endos
            ],
        })
    return {
        "format": FORMAT_TAG,
        "structure": spec.structure,
        "params": dict(spec.params),
        "generators": [g.token for g in al],
        "levels": levels,
        # the format also names the free bottom and the target subgroup,
        # which are the base in every construction
        "distinguished": {
            "base": toks(spec.base_ids),
            "base_free": toks(spec.base_ids),
            "convex_rose": toks(spec.convex_ids),
            "target": toks(spec.base_ids),
        },
    }


def spec_to_json(spec: GroupSpec) -> str:
    """Canonical serialization: sorted keys, minimal separators, one
    trailing newline; byte-identical across runs."""
    return json.dumps(spec_to_dict(spec), sort_keys=True,
                      separators=(",", ":")) + "\n"


def _expect(cond, msg, loc):
    if not cond:
        raise SpecParseError(msg, loc)


def spec_from_dict(doc: dict) -> GroupSpec:
    _expect(isinstance(doc, dict), "document is not an object", "$")
    _expect(doc.get("format") == FORMAT_TAG,
            f"unsupported format {doc.get('format')!r}", "format")
    structure = doc.get("structure")
    _expect(structure in ("block", "chain", "double"),
            f"unknown structure {structure!r}", "structure")
    params = doc.get("params")
    _expect(isinstance(params, dict), "params missing", "params")
    names = ("l", "L") if structure == "chain" else ("n", "m", "L")
    for key in names:
        _expect(key in params, f"missing parameter {key!r}", "params")
        # JSON integers only; bool is an int subclass, and int() would
        # take 1.5, "14" and fail on null or Infinity
        _expect(type(params[key]) is int,
                f"parameter {key!r} is not an integer: {params[key]!r}",
                f"params.{key}")
    args = [params[key] for key in names]
    try:
        if structure == "block":
            rebuilt = build_block(BlockParams(*args), certify=False)
        elif structure == "chain":
            rebuilt = build_chain(*args, certify=False)
        else:
            rebuilt = build_double(*args, certify=False)
    except InvalidParameterError as e:
        raise SpecParseError(f"invalid parameters: {e}", "params")
    want = spec_to_dict(rebuilt)
    for key in ("generators", "levels", "distinguished"):
        _expect(doc.get(key) == want[key],
                f"{key} do not match the canonical construction for "
                f"these parameters", key)
    return rebuilt


def spec_from_json(text: str) -> GroupSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecParseError(f"not valid JSON: {e.msg}", f"line {e.lineno}")
    return spec_from_dict(doc)
