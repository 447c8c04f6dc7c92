"""Words over a signed alphabet, free reduction, and the square-length
positive word with no repeated two-letter subword.

Encoding
--------
A generator is identified with a positive integer id (1-based position in
its :class:`Alphabet`).  A letter is a nonzero int: ``+g`` is the generator,
``-g`` its inverse.  A word is a tuple of letters; a positive word is a word
whose letters are all positive.  The empty tuple is the empty word.

Generators carry a structured name (role ``a``/``t``/``s``, index, optional
level) so that later layers can classify letters without string parsing.
Serialized form is whitespace-separated tokens ``name`` / ``name^-1``,
e.g. ``"t1 a3^(2)^-1"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InsufficientLengthError, InvalidInputError, InvalidParameterError

Letter = int
Word = tuple[int, ...]
PositiveWord = tuple[int, ...]

_TOKEN_RE = re.compile(r"^(?:(s)|([at])(\d+)(?:\^\((\d+)\))?)$")


@dataclass(frozen=True, order=True)
class Gen:
    """A named generator: role tag plus index pair.

    ``role`` is ``'a'`` (base letters), ``'t'`` (stable letters) or ``'s'``
    (the extra stable letter of the double construction).  ``level`` is 0
    except for the chain construction's level-k base letters.
    """

    role: str
    index: int
    level: int = 0

    def __post_init__(self):
        if self.role not in ("a", "t", "s"):
            raise InvalidParameterError(f"unknown generator role {self.role!r}")
        if self.index < 1 or self.level < 0:
            raise InvalidParameterError(f"bad generator name {self!r}")

    @property
    def token(self) -> str:
        if self.role == "s" and self.index == 1 and self.level == 0:
            return "s"
        lvl = f"^({self.level})" if self.level else ""
        return f"{self.role}{self.index}{lvl}"

    @staticmethod
    def parse(token: str) -> "Gen":
        m = _TOKEN_RE.match(token)
        if not m:
            raise InvalidInputError(f"cannot parse generator token {token!r}")
        if m.group(1):
            return Gen("s", 1, 0)
        return Gen(m.group(2), int(m.group(3)), int(m.group(4) or 0))

    def __repr__(self):
        return f"Gen({self.token!r})"


class Alphabet:
    """An ordered list of distinct generators.

    The order is part of the data: it fixes the square-length word
    :func:`sigma` and hence every relator family built from it.
    """

    def __init__(self, gens: Iterable[Gen]):
        self.gens: tuple[Gen, ...] = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise InvalidParameterError("alphabet has repeated generator names")
        self._by_token = {g.token: i + 1 for i, g in enumerate(self.gens)}

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __iter__(self) -> Iterator[Gen]:
        return iter(self.gens)

    def gen(self, gen_id: int) -> Gen:
        return self.gens[gen_id - 1]

    # -- serialization ----------------------------------------------------

    def letter_token(self, letter: Letter) -> str:
        tok = self.gens[abs(letter) - 1].token
        return tok + "^-1" if letter < 0 else tok

    def word_to_str(self, word: Sequence[int]) -> str:
        return " ".join(self.letter_token(x) for x in word)

    def word_from_str(self, text: str) -> Word:
        letters = []
        for tok in text.split():
            if tok.endswith("^-1"):
                sign, tok = -1, tok[:-3]
            else:
                sign = 1
            gid = self._by_token.get(tok)
            if gid is None:
                raise InvalidInputError(f"unknown generator token {tok!r}")
            letters.append(sign * gid)
        return tuple(letters)

    def __repr__(self):
        if len(self.gens) <= 8:
            return f"Alphabet([{', '.join(g.token for g in self.gens)}])"
        return f"Alphabet(<{len(self.gens)} generators>)"


def alphabet_of(role: str, count: int, level: int = 0) -> Alphabet:
    """Alphabet of ``count`` same-role generators indexed 1..count."""
    return Alphabet(Gen(role, j, level) for j in range(1, count + 1))


# -- free reduction --------------------------------------------------------


def free_reduce(word: Sequence[int]) -> Word:
    """The unique freely reduced form of a raw word.

    Same group element, no adjacent ``x, -x`` pair, length defect is even.
    """
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    for x in word:
        if stack and stack[-1] == -x:
            pop()
        else:
            push(x)
    return tuple(stack)


def is_reduced(word: Sequence[int]) -> bool:
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def invert(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def is_positive(word: Sequence[int]) -> bool:
    return all(x > 0 for x in word)


# -- the square-length word with unique two-letter subwords ---------------


def _sigma_blocks(m: int) -> Iterator[np.ndarray]:
    """The m blocks of the length-m**2 word, as letter ids (1..m); see
    :func:`sigma`."""
    if m < 2:
        raise InvalidParameterError(f"sigma needs at least 2 letters, got {m}")
    for i in range(1, m):
        # block i: the letter i, then the pairs (i, i+1), (i, i+2), ..., (i, m)
        blk = np.empty(2 * (m - i) + 1, dtype=np.int32)
        blk[0] = i
        blk[1::2] = i
        blk[2::2] = np.arange(i + 1, m + 1, dtype=np.int32)
        yield blk
    yield np.array([m], dtype=np.int32)


def sigma_ids(m: int) -> np.ndarray:
    """Letter ids (1..m) of the length-m**2 word; see :func:`sigma`."""
    return np.concatenate(list(_sigma_blocks(m)))


def sigma(alphabet: Alphabet) -> PositiveWord:
    """The positive word of length m**2 over an ordered m-letter alphabet
    (m >= 2) in which every ordered two-letter subword occurs at most once.

    Built block by block: the i-th block is letter i followed by the pairs
    (i, i+1), (i, i+2), ..., (i, m); a final single letter m closes it.
    """
    return tuple(int(x) for x in sigma_ids(len(alphabet)))


# -- two-letter subword census ---------------------------------------------


@dataclass(frozen=True)
class PairReport:
    """Occurrence census of ordered two-letter subwords across a family of
    positive words (consecutive positions inside each word only; nothing is
    counted across word boundaries).

    ``ok`` is true iff every pair occurs at most once, ``total_positions``
    counts the pair positions and ``distinct_pairs`` the different pairs.
    ``duplicates`` lists each repeated pair with its count, in pair order;
    it is empty when ``ok``.
    """

    ok: bool
    duplicates: tuple[tuple[tuple[int, int], int], ...]
    total_positions: int
    distinct_pairs: int


def check_pair_uniqueness(words: Sequence[Sequence[int]]) -> PairReport:
    """Census every ordered length-2 subword across the family.

    The family is anything :func:`numpy.asarray` makes 2-D, one word per
    row; pairs straddling rows are not counted.  The pair keys
    ``(first - 1) * max_id + second - 1`` are built in one array, a column
    at a time, and sorted in place; the report reads off neighbouring
    keys: int32 while ``max_id ** 2 < 2 ** 31``, int64 above, for the
    same report.  A ragged family raises :class:`InvalidInputError`.
    """
    try:
        arr = np.asarray(words)
    except ValueError:
        raise InvalidInputError("word family is not rectangular") from None
    if arr.ndim != 2 or 0 in arr.shape:
        raise InvalidInputError("expected a nonempty family of nonempty words")
    if arr.min() < 1:
        raise InvalidInputError("pair census is defined for positive words")
    mod = int(arr.max())
    keys = np.empty((arr.shape[0], arr.shape[1] - 1),
                    dtype=np.int32 if mod * mod < 1 << 31 else np.int64)
    keys[:] = arr[:, :-1]
    keys -= 1
    keys *= mod
    keys += arr[:, 1:]
    keys -= 1
    keys = keys.ravel()
    keys.sort()
    new = keys[1:] != keys[:-1]
    distinct = int(np.count_nonzero(new)) + (keys.size > 0)
    duplicates = ()
    if distinct < keys.size:
        starts = np.flatnonzero(np.concatenate(([True], new, [True])))
        counts = np.diff(starts)
        bad = counts > 1
        duplicates = tuple(
            ((k // mod + 1, k % mod + 1), c) for k, c in
            zip(keys[starts[:-1][bad]].tolist(), counts[bad].tolist()))
    return PairReport(not duplicates, duplicates, int(keys.size), distinct)


# -- chopping ---------------------------------------------------------------


def chop(word: Sequence[int], length: int, count: int) -> list[PositiveWord]:
    """First ``count`` consecutive disjoint subwords of ``length`` letters,
    as tuples; see :func:`chop_ids`."""
    rows = chop_ids(np.asarray(word, dtype=np.int64), length, count)
    return [tuple(r) for r in rows.tolist()]


def chop_ids(ids: np.ndarray, length: int, count: int) -> np.ndarray:
    """First ``count`` consecutive disjoint subwords of ``length`` letters,
    as a fresh (count, length) array of the ids' dtype.

    Raises :class:`InsufficientLengthError` when the word cannot supply
    them, mirroring the m**2 >= L*m*n feasibility constraint.
    """
    if length < 1 or count < 0:
        raise InvalidParameterError("chop needs length >= 1 and count >= 0")
    if count * length > ids.size:
        raise InsufficientLengthError(
            f"cannot chop {count} x {length} = {count * length} letters "
            f"out of a word of length {ids.size}"
        )
    return ids[: count * length].reshape(count, length).copy()
