"""Independent checks of the program's outputs.

Each checker recomputes what it can from first principles (its own free
reduction, the image rows of the spec, closed forms) and returns True
when the output agrees.  None of them calls into ``catdistort``: a fault
in the package cannot make its own output look right here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def free_reduce(word: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def apply_rows(rows: Sequence[Sequence[int]], word: Sequence[int]) -> tuple[int, ...]:
    """phi(word) for the map sending domain letter j (1-based row index)
    to ``rows[j - 1]``, freely reduced."""
    out: list[int] = []
    for x in word:
        row = rows[abs(x) - 1]
        out.extend(row if x > 0 else invert(row))
    return free_reduce(out)


def expand(images: np.ndarray, letter: int, n: int) -> np.ndarray:
    """phi^n(letter) for a positive map whose domain letters are the row
    indices 1..m: positive words never cancel, so this is n gathers."""
    arr = np.array([letter], dtype=np.int64)
    for _ in range(n):
        arr = images[arr - 1].ravel().astype(np.int64)
    return arr


def check_forward(result, images: np.ndarray, letter: int, n: int) -> bool:
    """to_base(t^n a t^-n): a positive word of length L^n equal to
    phi^n(a)."""
    if result is None:
        return False
    L = images.shape[1]
    got = np.asarray(result, dtype=np.int64)
    if got.size != L ** n or (got.size and got.min() < 1):
        return False
    return bool(np.array_equal(got, expand(images, letter, n)))


def check_word(result, expected: Sequence[int]) -> bool:
    return result is not None and tuple(result) == tuple(expected)


def check_census(report, rows: int, length: int) -> bool:
    """A pair-unique family of ``rows`` words of ``length`` letters has
    rows*(length-1) pair positions, all distinct."""
    total = rows * (length - 1)
    return (report.ok and not report.duplicates
            and report.total_positions == total
            and report.distinct_pairs == total)


def check_certificate(n_vertices: int, n_edges: int, domain_rank: int,
                      injective: bool) -> bool:
    """The folded graph's rank E - V + 1 equals the domain rank."""
    return injective and n_edges - n_vertices + 1 == domain_rank


def link_edge_count(L: int, relators: int) -> int:
    """(L+1)/3 right-angled pentagons per relator cell, five corners
    each: one link edge per corner."""
    return 5 * ((L + 1) // 3) * relators


def check_link_edges(n_edges: int, L: int, relators: int) -> bool:
    return n_edges == link_edge_count(L, relators)


def free_ball_sizes(rank: int, radius: int) -> list[int]:
    """Cumulative sphere sizes of the free group: 1 + sum 2k(2k-1)^(i-1)."""
    sizes = [1]
    for i in range(1, radius + 1):
        sizes.append(sizes[-1] + 2 * rank * (2 * rank - 1) ** (i - 1))
    return sizes


def check_sizes(sizes: Sequence[int], expected: Sequence[int]) -> bool:
    return list(sizes) == list(expected)


def check_ball_words(words: Sequence[Sequence[int]], depths: Sequence[int],
                     sizes: Sequence[int]) -> bool:
    """Representatives are freely reduced and pairwise distinct, and
    their BFS depths agree with the cumulative sizes.  (A pinch can make
    a representative longer than its depth, so length is not checked.)"""
    if len(words) != sizes[-1] or len(set(map(tuple, words))) != len(words):
        return False
    if any(free_reduce(w) != tuple(w) for w in words):
        return False
    counts = [0] * len(sizes)
    for d in depths:
        if d >= len(sizes):
            return False
        counts[d] += 1
    return all(sum(counts[:r + 1]) == sizes[r] for r in range(len(sizes)))


def check_curve(values: Sequence[int], L: int) -> bool:
    """An empirical distortion curve (max subgroup length per radius) is
    monotone and dominates every block witness t^n a t^-n in range:
    radius 2n+1 reaches length L^n."""
    if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
        return False
    return all(values[2 * n + 1] >= L ** n
               for n in range(len(values)) if 2 * n + 1 < len(values))
