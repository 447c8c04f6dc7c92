"""Stallings graphs and folding.

A subgroup of a free group is represented by a based, directed, labeled
graph.  Folding repeatedly identifies equally-labeled edges that share an
endpoint until no vertex has two outgoing (or two incoming) edges with the
same label; the folded graph decides membership by path tracing and its
first Betti number is the subgroup rank.

An endomorphism given by positive images of uniform length is certified
injective by folding the rose spelling its images: the image subgroup's
rank equals the domain rank iff no loop was killed, and a surjection
between free groups of the same finite rank is an isomorphism.  For a
pair-unique family with images of length at least 3, one round of folds
at the base vertex already yields the folded graph; that round is
checked (:func:`fold_one_round`), and :func:`fold` is the general path.
On such a graph a preimage is read off the petal edges that one trace
crosses and checked by applying the map; a chunk parse is the fallback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NotInImageError,
    PairRepetitionError,
)
from .words import PositiveWord, Word, check_pair_uniqueness, free_reduce, invert


class StallingsGraph:
    """Based, directed, edge-labeled graph with per-edge provenance.

    Edges are stored as the arrays ``src``, ``dst`` and ``label``.
    Provenance sets record which (petal, position) pairs of the original
    rose an edge descends from; folds merge them.  The tuple view
    :attr:`edges`, which carries them, is built on first access.
    """

    def __init__(self, n_vertices: int, base: int,
                 edges: Sequence[tuple[int, int, int, frozenset]],
                 folded: bool = False):
        edges = tuple(edges)
        cols = np.array([e[:3] for e in edges], dtype=np.int64).reshape(-1, 3)
        self._init(n_vertices, base, cols[:, 0], cols[:, 1], cols[:, 2], folded)
        self._edges: tuple | None = edges

    @classmethod
    def from_arrays(cls, n_vertices: int, base: int, src: np.ndarray,
                    dst: np.ndarray, label: np.ndarray, owner: np.ndarray,
                    petal_length: int, folded: bool) -> "StallingsGraph":
        """Graph whose provenance is given by ``owner``: rose edge i,
        at (petal, position) = divmod(i, petal_length), descends to edge
        ``owner[i]``."""
        g = cls.__new__(cls)
        g._init(n_vertices, base, src, dst, label, folded)
        g._edges = None
        g._owner = owner
        g._petal_length = petal_length
        return g

    def _init(self, n_vertices, base, src, dst, label, folded):
        self.n_vertices = n_vertices
        self.base = base
        self.src, self.dst, self.label = src, dst, label
        self.folded = folded
        self._owner: np.ndarray | None = None
        self._out: dict[tuple[int, int], tuple[int, int]] | None = None
        self._in: dict[tuple[int, int], tuple[int, int]] | None = None

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    @property
    def edges(self) -> tuple[tuple[int, int, int, frozenset], ...]:
        if self._edges is None:
            order = np.argsort(self._owner, kind="stable")
            cuts = np.searchsorted(self._owner[order], np.arange(1, self.n_edges))
            petal, pos = np.divmod(order, self._petal_length)
            provs = [frozenset(zip(p.tolist(), q.tolist()))
                     for p, q in zip(np.split(petal, cuts), np.split(pos, cuts))]
            self._edges = tuple(zip(self.src.tolist(), self.dst.tolist(),
                                    self.label.tolist(), provs))
        return self._edges

    def _tables(self):
        if self._out is None:
            out: dict[tuple[int, int], tuple[int, int]] = {}
            inc: dict[tuple[int, int], tuple[int, int]] = {}
            for idx, (u, v, lab) in enumerate(zip(self.src.tolist(),
                                                  self.dst.tolist(),
                                                  self.label.tolist())):
                if self.folded and ((u, lab) in out or (v, lab) in inc):
                    raise InvalidInputError("graph marked folded but has a fold pair")
                out[(u, lab)] = (v, idx)
                inc[(v, lab)] = (u, idx)
            self._out, self._in = out, inc
        return self._out, self._in

    def trace(self, word: Sequence[int], start: int | None = None) -> int | None:
        """Endpoint of the path spelling ``word`` from ``start``, or None
        if some letter cannot be read.  Requires a folded graph."""
        if not self.folded:
            raise InvalidInputError("trace requires a folded graph")
        out, inc = self._tables()
        v = self.base if start is None else start
        for x in word:
            hop = out.get((v, x)) if x > 0 else inc.get((v, -x))
            if hop is None:
                return None
            v = hop[0]
        return v

    def is_connected(self) -> bool:
        """Hook every edge's larger component label onto its smaller one
        and compress labels to roots, until no edge joins two labels."""
        if self.n_vertices <= 1:
            return True
        comp = np.arange(self.n_vertices)
        while True:
            cu, cv = comp[self.src], comp[self.dst]
            lo = np.minimum(cu, cv)
            if np.array_equal(cu, cv):
                return bool((comp == comp[self.base]).all())
            np.minimum.at(comp, cu, lo)
            np.minimum.at(comp, cv, lo)
            while True:
                nxt = comp[comp]
                if np.array_equal(nxt, comp):
                    break
                comp = nxt

    def canonical_form(self) -> tuple:
        """Canonical description of the based labeled graph.

        Folded graphs are deterministic automata, so a BFS from the base
        vertex in (label, direction) order renames vertices canonically;
        two folded graphs are isomorphic as based labeled graphs iff their
        canonical forms are equal.
        """
        if not self.folded:
            raise InvalidInputError("canonical_form requires a folded graph")
        out, inc = self._tables()
        keys: dict[int, list[tuple[int, int]]] = {}
        for (v, lab), (w, _) in out.items():
            keys.setdefault(v, []).append((lab, 1))
        for (v, lab), (w, _) in inc.items():
            keys.setdefault(v, []).append((lab, -1))
        order = {self.base: 0}
        queue = [self.base]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for lab, d in sorted(keys.get(v, [])):
                w = out[(v, lab)][0] if d == 1 else inc[(v, lab)][0]
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
        canon_edges = sorted(
            (order[u], order[v], lab) for u, v, lab in
            zip(self.src.tolist(), self.dst.tolist(), self.label.tolist())
        )
        return (len(order), tuple(canon_edges))

    def to_dot(self, alphabet=None) -> str:
        """Graphviz digraph; edge labels are generator tokens, base vertex
        is shape-marked, provenance shown as tooltips."""
        name = (lambda g: alphabet.gen(g).token) if alphabet is not None else str
        lines = ["digraph stallings {"]
        lines.append(f'  v{self.base} [shape=doublecircle];')
        for u, v, lab, prov in self.edges:
            tip = ",".join(f"{p}:{q}" for p, q in sorted(prov))
            lines.append(
                f'  v{u} -> v{v} [label="{name(lab)}", tooltip="{tip}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def rose_from_words(words: Sequence[Sequence[int]]) -> StallingsGraph:
    """Wedge of subdivided circles at a base vertex, the j-th spelling
    ``words[j]``.  Each edge's provenance is its (petal, position) pair."""
    if len(words) == 0:
        raise InvalidInputError("rose needs at least one word")
    edges = []
    n = 1  # vertex 0 is the base
    for j, w in enumerate(words):
        if len(w) == 0:
            raise InvalidInputError(f"petal {j} is the empty word")
        prev = 0
        for pos, x in enumerate(w):
            nxt = 0 if pos == len(w) - 1 else n
            if pos != len(w) - 1:
                n += 1
            prov = frozenset([(j, pos)])
            if x > 0:
                edges.append((prev, nxt, x, prov))
            else:
                edges.append((nxt, prev, -x, prov))
            prev = nxt
    return StallingsGraph(n, 0, edges, folded=False)


def fold(graph: StallingsGraph, seed: int | None = None) -> StallingsGraph:
    """Fold to the immersion: identify pairs of equally-labeled edges
    sharing an endpoint until none remain.  Operates on a private copy;
    provenance sets merge on identification and the base vertex is tracked.

    The default processing order is a canonical smallest-slot-first queue;
    ``seed`` randomizes it (used by confluence tests only).
    """
    import heapq

    nv = graph.n_vertices
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # edge store: eid -> [src, dst, label, provenance, alive]
    edges: list[list] = [
        [u, v, lab, set(prov), True] for u, v, lab, prov in graph.edges
    ]
    adj: list[dict | None] = [dict() for _ in range(nv)]
    for eid, (u, v, lab, _, _) in enumerate(edges):
        adj[u].setdefault((0, lab), set()).add(eid)
        adj[v].setdefault((1, lab), set()).add(eid)

    rng = random.Random(seed) if seed is not None else None
    # worklist of (vertex, direction, label) slots that may hold a fold pair
    work: list[tuple[int, int, int]] = []
    for v in range(nv):
        for (d, lab), s in adj[v].items():
            if len(s) >= 2:
                work.append((v, d, lab))
    if rng is None:
        heapq.heapify(work)

    def pop_slot() -> tuple[int, int, int]:
        if rng is None:
            return heapq.heappop(work)
        i = rng.randrange(len(work))
        work[i], work[-1] = work[-1], work[i]
        return work.pop()

    def push_slot(slot: tuple[int, int, int]) -> None:
        if rng is None:
            heapq.heappush(work, slot)
        else:
            work.append(slot)

    while work:
        v0, d, lab = pop_slot()
        v = find(v0)
        table = adj[v]
        key = (d, lab)
        eids = table.get(key)
        if not eids:
            continue
        alive = sorted(e for e in eids if edges[e][4])
        if len(alive) != len(eids):
            table[key] = set(alive)
        if len(alive) < 2:
            continue
        e1, e2 = alive[0], alive[1]
        u1 = find(edges[e1][1 - d])
        u2 = find(edges[e2][1 - d])
        # merge e2 into e1, pooling provenance
        edges[e2][4] = False
        edges[e1][3] |= edges[e2][3]
        table[key].discard(e2)
        okey = (1 - d, lab)
        t2 = adj[u2]
        if t2 is not None and okey in t2:
            t2[okey].discard(e2)
        if u1 != u2:
            # weighted union; ties keep the smaller id
            a, b = u1, u2
            la, lb = len(adj[a]), len(adj[b])
            if (lb, a) > (la, b):
                a, b = b, a
            parent[b] = a
            ta, tb = adj[a], adj[b]
            for k2, s2 in tb.items():
                if k2 in ta:
                    ta[k2] |= s2
                else:
                    ta[k2] = s2
                if len(ta[k2]) >= 2:
                    push_slot((a,) + k2)
            adj[b] = None
        if len(table[key]) >= 2:
            push_slot((find(v), d, lab))

    # compact the quotient
    alive_edges = [e for e in edges if e[4]]
    remap: dict[int, int] = {}

    def rid(x: int) -> int:
        r = find(x)
        if r not in remap:
            remap[r] = len(remap)
        return remap[r]

    base = rid(graph.base)
    out_edges = []
    for u, v, lab, prov, _ in alive_edges:
        out_edges.append((rid(u), rid(v), lab, frozenset(prov)))
    n_alive = len(remap)
    return StallingsGraph(n_alive, base, out_edges, folded=True)


def _first_of_class(letters: np.ndarray) -> np.ndarray:
    """For each position, the first position holding the same letter."""
    _, first, inv = np.unique(letters, return_index=True, return_inverse=True)
    return first[inv]


def fold_one_round(images) -> StallingsGraph | None:
    """Fold the rose spelling the rows of a (k, L) positive image array
    in one round, or return None when one round does not fold it.

    The round merges the first edges that share a first letter and the
    last edges that share a last letter, each class into the edge of its
    smallest petal; every such merge is a fold at the base vertex.  If
    afterwards no (vertex, direction, label) slot holds two edges, the
    quotient is immersed and so is *the* folded graph, numbered as
    :func:`fold` numbers it.  For L >= 3 a pair-unique family always
    passes; L <= 2, non-positive letters and failed checks give None.
    """
    rows = np.asarray(images)
    if rows.ndim != 2 or rows.shape[1] < 3 or rows.size == 0 or rows.min() < 1:
        return None
    k, L = rows.shape
    # the rose: base 0, petal j's vertex after position p is inner[j, p]
    inner = 1 + np.arange(k * (L - 1)).reshape(k, L - 1)
    src = np.zeros((k, L), dtype=np.int64)
    dst = np.zeros((k, L), dtype=np.int64)
    src[:, 1:] = inner
    dst[:, :-1] = inner
    first = _first_of_class(rows[:, 0])
    last = _first_of_class(rows[:, -1])
    vclass = np.arange(1 + k * (L - 1))
    vclass[inner[:, 0]] = inner[first, 0]
    vclass[inner[:, -1]] = inner[last, -1]
    survivor = np.arange(k * L).reshape(k, L)
    survivor[:, 0] = first * L
    survivor[:, -1] = last * L + L - 1
    survivor = survivor.ravel()
    alive = survivor == np.arange(k * L)
    lab = rows.ravel()[alive]
    qsrc = vclass[src.ravel()[alive]]
    qdst = vclass[dst.ravel()[alive]]
    width = int(lab.max()) + 1
    for end in (qsrc, qdst):
        slots = np.sort(end * width + lab)
        if (slots[1:] == slots[:-1]).any():
            return None
    # fold numbers vertex classes by first appearance in base, u0, v0, u1, v1, ...
    seq = np.concatenate(([0], np.column_stack((qsrc, qdst)).ravel()))
    _, first_seen, inv = np.unique(seq, return_index=True, return_inverse=True)
    renumber = np.empty(first_seen.size, dtype=np.int64)
    renumber[np.argsort(first_seen)] = np.arange(first_seen.size)
    ids = renumber[inv].astype(np.int32)
    owner = (np.cumsum(alive) - 1)[survivor].astype(np.int32)
    return StallingsGraph.from_arrays(
        int(first_seen.size), 0, ids[1::2], ids[2::2], lab.astype(np.int32),
        owner, L, folded=True)


def fold_images(images) -> StallingsGraph:
    """Folded graph of the rose spelling the rows of a positive image
    array: by one checked round when that suffices, else by :func:`fold`."""
    graph = fold_one_round(images)
    if graph is None:
        graph = fold(rose_from_words(np.asarray(images).tolist()))
    return graph


def rank(graph: StallingsGraph) -> int:
    """First Betti number E - V + 1 of a connected graph."""
    if not graph.is_connected():
        raise InvalidInputError("rank is defined for connected graphs")
    return graph.n_edges - graph.n_vertices + 1


def membership(graph: StallingsGraph, word: Sequence[int]) -> bool:
    """True iff the freely reduced word traces a closed path at the base."""
    w = free_reduce(word)
    return graph.trace(w) == graph.base


# -- positive endomorphisms --------------------------------------------------


class PositiveEndomorphism:
    """A map from a rank-m free group sending the j-th generator to a
    positive word of uniform length L over the codomain alphabet.

    Domain letters are 1..m.  The image family must be free of repeated
    ordered two-letter subwords (checked at construction); this is what
    keeps folding shallow and junction cancellation short.
    """

    def __init__(self, images, domain_alphabet=None, codomain_alphabet=None):
        arr = np.asarray(images, dtype=np.int32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidParameterError(
                "images must form a nonempty rectangular family"
            )
        if arr.min() < 1:
            raise InvalidParameterError("images must be positive words")
        report = check_pair_uniqueness(arr)
        if not report.ok:
            raise PairRepetitionError(
                f"image family repeats ordered pairs: {report.duplicates[:5]}"
            )
        self.images = arr
        self.domain_rank = int(arr.shape[0])
        self.length = int(arr.shape[1])
        self.domain_alphabet = domain_alphabet
        self.codomain_alphabet = codomain_alphabet
        self._rows_cache: list[tuple[int, ...]] | None = None
        self._neg_rows_cache: list[tuple[int, ...]] | None = None
        self._index_cache: tuple[dict, dict] | None = None
        self._graph: StallingsGraph | None = None
        self._certificate: InjectivityCertificate | None = None

    @property
    def _rows(self) -> list[tuple[int, ...]]:
        if self._rows_cache is None:
            self._rows_cache = [tuple(int(x) for x in row) for row in self.images]
        return self._rows_cache

    @property
    def _neg_rows(self) -> list[tuple[int, ...]]:
        if self._neg_rows_cache is None:
            self._neg_rows_cache = [invert(r) for r in self._rows]
        return self._neg_rows_cache

    @property
    def _by_first(self) -> dict[int, tuple[int, ...]]:
        return self._indexes()[0]

    @property
    def _by_last(self) -> dict[int, tuple[int, ...]]:
        return self._indexes()[1]

    def _indexes(self) -> tuple[dict, dict]:
        if self._index_cache is None:
            by_first: dict[int, tuple[int, ...]] = {}
            by_last: dict[int, tuple[int, ...]] = {}
            for j, row in enumerate(self._rows):
                by_first[row[0]] = by_first.get(row[0], ()) + (j,)
                by_last[row[-1]] = by_last.get(row[-1], ()) + (j,)
            self._index_cache = (by_first, by_last)
        return self._index_cache

    # -- image subgroup graph ------------------------------------------

    @property
    def graph(self) -> StallingsGraph:
        """Folded graph of the subgroup generated by the images."""
        if self._graph is None:
            self._graph = fold_images(self.images)
        return self._graph

    def _tree_paths(self) -> list:
        """Reduced word from the base vertex to every vertex of the
        folded graph, along a breadth-first tree in (label, direction)
        order.  Canonical given the folded graph."""
        if getattr(self, "_tree_cache", None) is None:
            g = self.graph
            out, inc = g._tables()
            hops: dict[int, list[tuple[int, int]]] = {}
            for (v, lab), (w, _) in out.items():
                hops.setdefault(v, []).append((lab, w))
            for (v, lab), (w, _) in inc.items():
                hops.setdefault(v, []).append((-lab, w))
            paths: list = [None] * g.n_vertices
            paths[g.base] = ()
            queue = [g.base]
            qi = 0
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                for step, w in sorted(hops.get(v, [])):
                    if paths[w] is None:
                        paths[w] = paths[v] + (step,)
                        queue.append(w)
            self._tree_cache = paths
        return self._tree_cache

    def coset_rep(self, g: Sequence[int]) -> Word:
        """Canonical representative of the left coset (image subgroup)*g.

        The reduced path of g in the Schreier graph of the image subgroup
        runs through the folded core and then out into a hanging tree;
        the coset is determined by (exit vertex, untraceable suffix), and
        the representative is the tree path to the exit vertex followed
        by that suffix.  Empty iff g lies in the image subgroup."""
        w = free_reduce(g)
        graph = self.graph
        out, inc = graph._tables()
        v = graph.base
        i = 0
        while i < len(w):
            x = w[i]
            hop = out.get((v, x)) if x > 0 else inc.get((v, -x))
            if hop is None:
                break
            v = hop[0]
            i += 1
        return self._tree_paths()[v] + w[i:]

    @property
    def certificate(self) -> "InjectivityCertificate":
        if self._certificate is None:
            g = self.graph
            r = rank(g)
            self._certificate = InjectivityCertificate(
                domain_rank=self.domain_rank,
                graph=g,
                folded_rank=r,
                injective=(r == self.domain_rank),
            )
        return self._certificate

    # -- applying -------------------------------------------------------

    def apply(self, word: Sequence[int]) -> Word:
        """Freely reduced image of a word over the domain letters."""
        rows, neg = self._rows, self._neg_rows
        out: list[int] = []
        positive = True
        for x in word:
            if x > 0:
                out.extend(rows[x - 1])
            else:
                positive = False
                out.extend(neg[-x - 1])
        if positive:
            return tuple(out)
        return free_reduce(out)

    def membership(self, word: Sequence[int]) -> bool:
        return membership(self.graph, word)

    # -- inverting -------------------------------------------------------

    def _petal_letters(self) -> list[int] | None:
        """Per folded edge, j + 1 on the edge that petal j's rose edge at
        position 1 descends to, else 0; None unless the graph was folded
        in one round.  After one round (L >= 3) that edge is petal j's
        alone, so a reduced loop at the base crosses these edges in the
        order, and with the signs, of the reduced preimage's letters."""
        if getattr(self, "_petal_cache", None) is None:
            g, k = self.graph, self.domain_rank
            self._petal_cache = ()
            if g._owner is not None:
                letters = np.zeros(g.n_edges, dtype=np.int64)
                letters[g._owner[np.arange(k) * self.length + 1]] = np.arange(1, k + 1)
                self._petal_cache = letters.tolist()
        return self._petal_cache or None

    def preimage(self, word: Sequence[int]) -> Word:
        """The unique v with phi(v) = word, for injective phi.

        Raises :class:`NotInImageError` when no preimage exists; see
        :meth:`try_preimage`.
        """
        v = self.try_preimage(word)
        if v is None:
            raise NotInImageError("word does not trace a closed base path")
        return v

    def try_preimage(self, word: Sequence[int]) -> Word | None:
        """The preimage of word, or None when the reduced word does not
        trace a closed path at the base (it is not in the image).

        One trace of the folded graph decides membership and, on a graph
        folded in one round, reads the preimage off the petal edges it
        crosses; the read is kept only if phi maps it back to the word.
        Otherwise the word is parsed into image chunks.
        """
        w = free_reduce(word)
        if not w:
            return ()
        graph = self.graph
        out, inc = graph._tables()
        petal = self._petal_letters()
        read: list[int] = []
        v = graph.base
        for x in w:
            hop = out.get((v, x)) if x > 0 else inc.get((v, -x))
            if hop is None:
                return None
            v, e = hop
            if petal is not None and petal[e]:
                read.append(petal[e] if x > 0 else -petal[e])
        if v != graph.base:
            return None
        if petal is not None and self.apply(read) == w:
            return tuple(read)
        return self._parse_in_phases(w)

    def _parse_in_phases(self, w: Word) -> Word:
        """Parse a reduced word that traces a closed base path into image
        chunks: the fallback of :meth:`try_preimage`, and the tests'
        oracle for the graph read."""
        L = self.length
        # Phase 1: first-letter-seeded candidates only; complete for L >= 3
        # because junction cancellation cannot reach a chunk's first letter.
        # Later phases admit fully-vanishing chunks (possible at L <= 2)
        # with progressively wider remnant caps.
        phases = [(False, 2 * L + 2, None)]
        if L <= 2:
            phases = [(False, 2 * L + 2, 100_000),
                      (True, 4 * L + 8, 4_000_000),
                      (True, 64 * L, None)]
        for allow_fallback, rem_cap, budget in phases:
            try:
                return self._parse(w, allow_fallback, rem_cap, budget)
            except NotInImageError:
                if (allow_fallback, rem_cap, budget) == phases[-1]:
                    raise
        raise NotInImageError("unreachable")

    def _parse(self, w: Word, allow_fallback: bool, rem_cap: int,
               budget: int | None) -> Word:
        L = self.length
        m = self.domain_rank
        rows = self._rows
        wlen = len(w)

        def step(i: int, rem: tuple, j: int, e: int):
            # strip chunk (row j)^e from the front of rem + w[i:]
            stack = list(self._neg_rows[j]) if e > 0 else list(rows[j])
            p, q = 0, i
            rl = len(rem)
            while stack:
                if p < rl:
                    nxt = rem[p]
                elif q < wlen:
                    nxt = w[q]
                else:
                    break
                if nxt == -stack[-1]:
                    stack.pop()
                    if p < rl:
                        p += 1
                    else:
                        q += 1
                else:
                    break
            new_rem = tuple(stack) + rem[p:]
            return q, new_rem

        def candidates(first: int, prev: tuple | None):
            if first > 0:
                seeded, es = self._by_first.get(first, ()), 1
            else:
                seeded, es = self._by_last.get(-first, ()), -1
            for j in seeded:
                if prev is not None and j == prev[0] and es == -prev[1]:
                    continue  # would make v unreduced
                yield (j, es)
            if allow_fallback:
                seen = set(seeded)
                for j in range(m):
                    for e in (1, -1):
                        if e == es and j in seen:
                            continue
                        if prev is not None and j == prev[0] and e == -prev[1]:
                            continue
                        yield (j, e)

        failed: set = set()
        on_stack: set = set()
        visits = 0
        # iterative DFS: frames of (state, candidate iterator).  Revisiting
        # a state already on the stack cannot help (any completion from the
        # revisit completes from the first visit), so cycles are skipped.
        root = (0, (), None)
        stack_frames = [(root, candidates(w[0], None))]
        on_stack.add(root)
        path: list[int] = []
        while stack_frames:
            (i, rem, prev), it = stack_frames[-1]
            advanced = False
            for j, e in it:
                q, new_rem = step(i, rem, j, e)
                if len(new_rem) > rem_cap:
                    continue
                nxt_state = (q, new_rem, (j, e))
                if nxt_state in failed or nxt_state in on_stack:
                    continue
                visits += 1
                if budget is not None and visits > budget:
                    raise NotInImageError("parse budget exceeded")
                path.append((j + 1) * e)
                if not new_rem and q == wlen:
                    return tuple(path)
                nxt_first = new_rem[0] if new_rem else w[q]
                stack_frames.append((nxt_state, candidates(nxt_first, (j, e))))
                on_stack.add(nxt_state)
                advanced = True
                break
            if not advanced:
                state = stack_frames.pop()[0]
                failed.add(state)
                on_stack.discard(state)
                if path:
                    path.pop()
        raise NotInImageError("no chunk parse despite closed trace")


@dataclass(frozen=True)
class InjectivityCertificate:
    """Folding outcome: injective iff the folded rank equals the domain
    rank (a rank drop certifies a loop killed by some fold)."""

    domain_rank: int
    graph: StallingsGraph
    folded_rank: int
    injective: bool


def certify_injective(phi: PositiveEndomorphism) -> InjectivityCertificate:
    """Fold the rose on phi's images and compare ranks."""
    return phi.certificate


def rewrite_preimage(phi: PositiveEndomorphism, word: Sequence[int]) -> Word:
    """Rewrite an image element back through phi.  Precondition: phi is
    certified injective (so the preimage is unique when it exists)."""
    if not phi.certificate.injective:
        raise InvalidInputError("rewrite_preimage requires an injective map")
    return phi.preimage(word)
