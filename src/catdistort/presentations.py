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
    CapExceededError,
    ConstructionError,
    InvalidParameterError,
    SpecParseError,
    TooLargeError,
)
from .folding import PositiveEndomorphism
from .words import (
    Alphabet,
    Gen,
    PositiveWord,
    Word,
    check_pair_uniqueness,
    chop_ids,
    free_reduce,
    invert,
    sigma_ids,
)

FORMAT_TAG = "catdistort/1"

#: fold roses eagerly at construction while their total size stays below
#: this edge count; larger families are certified on demand (CLI --full).
CERTIFY_EDGE_LIMIT = 500_000

#: cap on the letters a block or double allocates for its square words
#: and image rows; admits G(289, 4913, 17), about 48.4 M letters
BUILD_LETTER_CAP = 1 << 26


def _check_build_letters(structure: str, n_letters: int) -> None:
    """Raise :class:`CapExceededError` before a construction allocates
    more than :data:`BUILD_LETTER_CAP` letters."""
    if n_letters > BUILD_LETTER_CAP:
        raise CapExceededError(
            f"{structure} needs {n_letters} letters of square words and "
            f"images, above the cap {BUILD_LETTER_CAP}")


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


@dataclass(frozen=True)
class LevelSpec:
    """One HNN level: stable letters and the endomorphism family they
    realize, with the domain/codomain letters named globally.

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
    endos: tuple[PositiveEndomorphism, ...]
    dom_kind: str
    cod_kind: str

    @property
    def image_length(self) -> int:
        return self.endos[0].length


class GroupSpec:
    """A constructed presentation: alphabet, HNN levels (outermost
    first), free bottom, and the distinguished subgroups."""

    def __init__(self, structure: str, params: dict, alphabet: Alphabet,
                 levels: Sequence[LevelSpec], base_ids: Sequence[int],
                 base_free_ids: Sequence[int], convex_ids: Sequence[int],
                 target_ids: Sequence[int]):
        self.structure = structure
        self.params = dict(params)
        self.alphabet = alphabet
        self.levels = tuple(levels)
        self.base_ids = tuple(base_ids)
        self.base_free_ids = tuple(base_free_ids)
        self.convex_ids = tuple(convex_ids)
        self.target_ids = tuple(target_ids)
        self._wp = None

    # -- inventory --------------------------------------------------------

    @property
    def n_generators(self) -> int:
        return len(self.alphabet)

    def relator_count(self) -> int:
        return sum(len(lv.stable_ids) * len(lv.domain_ids) for lv in self.levels)

    def relators(self) -> Iterator[Relator]:
        for lv in self.levels:
            for si, s_id in enumerate(lv.stable_ids):
                images = lv.endos[si].images
                for j, b_id in enumerate(lv.domain_ids):
                    yield Relator(s_id, b_id, tuple(int(x) for x in images[j]))

    def stable_id_set(self) -> frozenset[int]:
        out = frozenset()
        for lv in self.levels:
            out |= frozenset(lv.stable_ids)
        return out

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
        if (self.base_ids, self.base_free_ids, self.convex_ids,
                self.target_ids) != (
                other.base_ids, other.base_free_ids, other.convex_ids,
                other.target_ids):
            return False
        if len(self.levels) != len(other.levels):
            return False
        for a, b in zip(self.levels, other.levels):
            if (a.stable_ids, a.domain_ids, a.codomain_ids, a.dom_kind,
                    a.cod_kind) != (b.stable_ids, b.domain_ids,
                                    b.codomain_ids, b.dom_kind, b.cod_kind):
                return False
            for pa, pb in zip(a.endos, b.endos):
                if not np.array_equal(pa.images, pb.images):
                    return False
        return True

    def __repr__(self):
        p = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"GroupSpec({self.structure}, {p})"


def _endo_family(sub_ids: Sequence[int], length: int, count: int,
                 codomain_ids: Sequence[int]) -> list[np.ndarray]:
    """Chop the square-length word over ``sub_ids`` into ``count`` images
    of ``length`` letters, mapped to global codomain ids, grouped per
    stable letter (count must be a multiple of len-per-stable upstream)."""
    local = sigma_ids(len(sub_ids))
    chunks = chop_ids(local, length, count)
    lut = np.asarray(codomain_ids, dtype=np.int32)
    return lut[chunks - 1]


def _maybe_certify(spec: GroupSpec, certify: bool | None):
    if certify is None:
        total_edges = sum(
            len(lv.stable_ids) * len(lv.domain_ids) * lv.image_length
            for lv in spec.levels
        )
        certify = total_edges <= CERTIFY_EDGE_LIMIT
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
    _check_build_letters("block", m * m + m * n * L)
    gens = [Gen("a", j) for j in range(1, m + 1)]
    gens += [Gen("t", i) for i in range(1, n + 1)]
    alphabet = Alphabet(gens)
    a_ids = tuple(range(1, m + 1))
    t_ids = tuple(range(m + 1, m + n + 1))
    all_images = _endo_family(a_ids, L, m * n, a_ids)
    if not check_pair_uniqueness(all_images).ok:
        raise ConstructionError("image family repeats an ordered pair")
    endos = tuple(
        PositiveEndomorphism(all_images[i * m:(i + 1) * m])
        for i in range(n)
    )
    level = LevelSpec(t_ids, a_ids, a_ids, endos, dom_kind="base",
                      cod_kind="base")
    spec = GroupSpec(
        "block", {"n": n, "m": m, "L": L}, alphabet, [level],
        base_ids=a_ids, base_free_ids=a_ids, convex_ids=t_ids,
        target_ids=a_ids,
    )
    return _maybe_certify(spec, certify)


def build_chain(l: int, L: int = 14, generator_cap: int = 200_000,
                certify: bool | None = None) -> GroupSpec:
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
    total = 1 + sum(L ** k for k in range(1, l + 1))
    if total > generator_cap:
        raise TooLargeError(
            f"chain needs {total} generators, above the cap {generator_cap}"
        )
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
        stable = t_ids if k == 0 else level_ids[k - 1]
        domain = level_ids[k]
        count = len(stable) * len(domain)
        fam = _endo_family(domain, L, count, domain)
        if not check_pair_uniqueness(fam).ok:
            raise ConstructionError("image family repeats an ordered pair")
        rdom = len(domain)
        endos = tuple(
            PositiveEndomorphism(fam[i * rdom:(i + 1) * rdom])
            for i in range(len(stable))
        )
        dom_kind = "base" if k == l - 1 else "retract"
        levels.append(LevelSpec(tuple(stable), domain, domain, endos,
                                dom_kind=dom_kind, cod_kind=dom_kind))
    spec = GroupSpec(
        "chain", {"l": l, "L": L}, alphabet, levels,
        base_ids=level_ids[-1], base_free_ids=level_ids[-1],
        convex_ids=t_ids, target_ids=level_ids[-1],
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
    _check_build_letters("double", m * m + m * n * L + n * n + m * L)
    gens = [Gen("a", j) for j in range(1, m + 1)]
    gens += [Gen("t", i) for i in range(1, n + 1)]
    gens.append(Gen("s", 1))
    alphabet = Alphabet(gens)
    a_ids = tuple(range(1, m + 1))
    t_ids = tuple(range(m + 1, m + n + 1))
    s_id = m + n + 1
    a_fam = _endo_family(a_ids, L, m * n, a_ids)
    t_fam = _endo_family(t_ids, L, m, t_ids)
    if not check_pair_uniqueness(a_fam).ok or not check_pair_uniqueness(t_fam).ok:
        raise ConstructionError("image family repeats an ordered pair")
    t_endos = tuple(
        PositiveEndomorphism(a_fam[i * m:(i + 1) * m]) for i in range(n)
    )
    s_endo = (PositiveEndomorphism(t_fam),)
    s_level = LevelSpec((s_id,), a_ids, t_ids, s_endo,
                        dom_kind="reduce", cod_kind="retract")
    t_level = LevelSpec(t_ids, a_ids, a_ids, t_endos,
                        dom_kind="base", cod_kind="base")
    spec = GroupSpec(
        "double", {"n": n, "m": m, "L": L}, alphabet, [s_level, t_level],
        base_ids=a_ids, base_free_ids=a_ids, convex_ids=(s_id,),
        target_ids=a_ids,
    )
    return _maybe_certify(spec, certify)


def free_group(rank: int) -> GroupSpec:
    """A free group as a degenerate spec: no levels, no relators.  Used
    as the no-relator baseline for ball and link checks."""
    if rank < 1:
        raise InvalidParameterError("rank must be positive")
    alphabet = Alphabet([Gen("a", j) for j in range(1, rank + 1)])
    ids = tuple(range(1, rank + 1))
    return GroupSpec("free", {"rank": rank}, alphabet, [], ids, ids, (), ids)


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
        kept: set[int] = {1}  # t
        for k, lv in enumerate(spec.levels):
            out.append((f"kill-below-{k}", frozenset(kept)))
            kept |= set(lv.domain_ids) if k == len(spec.levels) - 1 else set(
                spec.levels[k + 1].stable_ids)
        return out
    if spec.structure == "double":
        return [("onto-s", frozenset(spec.levels[0].stable_ids))]
    raise InvalidParameterError(f"unknown structure {spec.structure}")


def apply_retraction(word: Sequence[int], kept: frozenset[int]) -> Word:
    return free_reduce(tuple(x for x in word if abs(x) in kept))


def _relator_rows(level: LevelSpec) -> np.ndarray:
    """The level's relator words as rows ``(s, b, s^-1, image^-1)``, stable
    letter outer and base letter inner, as :meth:`GroupSpec.relators`
    yields them."""
    blocks = []
    for s_id, phi in zip(level.stable_ids, level.endos):
        rows = np.empty((phi.domain_rank, phi.length + 3), dtype=np.int64)
        rows[:, 0] = s_id
        rows[:, 1] = level.domain_ids
        rows[:, 2] = -s_id
        rows[:, 3:] = -phi.images[:, ::-1]
        blocks.append(rows)
    return np.vstack(blocks)


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
        "distinguished": {
            "base": toks(spec.base_ids),
            "base_free": toks(spec.base_free_ids),
            "convex_rose": toks(spec.convex_ids),
            "target": toks(spec.target_ids),
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
    try:
        if structure == "block":
            rebuilt = build_block(
                BlockParams(int(params["n"]), int(params["m"]),
                            int(params["L"])), certify=False)
        elif structure == "chain":
            rebuilt = build_chain(int(params["l"]), int(params["L"]),
                                  certify=False)
        else:
            rebuilt = build_double(int(params["n"]), int(params["m"]),
                                   int(params["L"]), certify=False)
    except KeyError as e:
        raise SpecParseError(f"missing parameter {e}", "params")
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
