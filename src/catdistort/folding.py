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

Every edge also carries a petal word, a reduced word in the petal
letters, and along a closed path at the base these words multiply to the
path's preimage (Kapovich--Myasnikov, *Stallings foldings and subgroups
of free groups*, 2002), so a preimage is one trace of the folded graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConstructionError,
    InvalidInputError,
    InvalidParameterError,
    NotInImageError,
    PairRepetitionError,
)
from .words import Word, check_pair_uniqueness, free_reduce, invert

_NO_HOPS: dict = {}  # the moves of a letter no edge reads; never filled


class StallingsGraph:
    """Based, directed, edge-labeled graph that remembers the rose it
    descends from.

    Edge i runs from ``src[i]`` to ``dst[i]`` and reads ``label[i]``.
    Petal j of the rose has one rose edge per position of its word,
    ``petal_start[j]`` to ``petal_start[j + 1] - 1``, and rose edge r
    descends to edge ``owner[r]``: on the rose itself ``owner`` is the
    identity, and folds move it.  The tuple view :attr:`edges`, which
    gives every edge the (petal, position) pairs that descend to it, is
    built on first access.
    """

    def __init__(self, n_vertices: int, base: int, src: np.ndarray,
                 dst: np.ndarray, label: np.ndarray, owner: np.ndarray,
                 petal_start: np.ndarray, folded: bool = False):
        self.n_vertices = n_vertices
        self.base = base
        self.src, self.dst, self.label = src, dst, label
        self.owner, self.petal_start = owner, petal_start
        self.folded = folded
        self._edges: tuple | None = None
        self._words: list[Word] | None = None
        self._hops: dict[int, dict[int, int]] | None = None
        self._paths: dict[int, Word] | None = None

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    @property
    def edges(self) -> tuple[tuple[int, int, int, frozenset], ...]:
        if self._edges is None:
            order = np.argsort(self.owner, kind="stable")
            cuts = np.searchsorted(self.owner[order], np.arange(1, self.n_edges))
            petal = np.searchsorted(self.petal_start, order, side="right") - 1
            pos = order - self.petal_start[petal]
            provs = [frozenset(zip(p.tolist(), q.tolist()))
                     for p, q in zip(np.split(petal, cuts), np.split(pos, cuts))]
            self._edges = tuple(zip(self.src.tolist(), self.dst.tolist(),
                                    self.label.tolist(), provs))
        return self._edges

    def petal_words(self) -> list[Word]:
        """Per edge, a reduced word in the petal letters 1..k; along a
        closed path at the base these words multiply to the path's
        preimage under the map sending petal j to the positive word it
        spells.

        :func:`fold` carries them through its folds.  A graph from
        :func:`fold_one_round` derives them on first call: j + 1 goes to
        the edge that petal j's carrier, its rose edge at position
        min(1, len_j - 1), descends to, which is petal j's alone, and
        every other edge reads nothing.  :func:`rose_from_words` gives the
        carrier -(j + 1) instead where petal j crosses it backwards.
        """
        if self._words is None:
            words: list[Word] = [()] * self.n_edges
            for j, e in enumerate(self.owner[self._carriers()].tolist()):
                words[e] = (j + 1,)
            self._words = words
        return self._words

    def _carriers(self) -> np.ndarray:
        """Per petal j, its rose edge at position min(1, len_j - 1)."""
        starts = self.petal_start
        return starts[:-1] + np.minimum(1, np.diff(starts) - 1)

    def _hop_table(self) -> dict[int, dict[int, int]]:
        """{signed letter x: {vertex: where reading x from it leads}}, with
        x < 0 crossing an edge labelled -x backwards; one int per vertex."""
        if self._hops is None:
            order = np.argsort(self.label, kind="stable")
            labels, cuts = np.unique(self.label[order], return_index=True)
            cuts = np.append(cuts, order.size).tolist()
            at = list(range(self.n_vertices)).__getitem__
            src, dst = (list(map(at, a[order].tolist())) for a in (self.src, self.dst))
            spans = list(zip(labels.tolist(), cuts, cuts[1:]))
            hops = {lab: dict(zip(src[a:b], dst[a:b])) for lab, a, b in spans}
            hops.update((-lab, dict(zip(dst[a:b], src[a:b]))) for lab, a, b in spans)
            if self.folded and sum(map(len, hops.values())) < 2 * len(src):
                raise InvalidInputError("graph marked folded but has a fold pair")
            self._hops = hops
        return self._hops

    def _walk(self, word: Sequence[int], v: int) -> tuple[int, int]:
        """Read ``word`` from vertex v as far as it goes: the vertex
        reached and the number of letters read."""
        hops = self._hop_table()
        for i, x in enumerate(word):
            w = hops.get(x, _NO_HOPS).get(v)
            if w is None:
                return v, i
            v = w
        return v, len(word)

    def trace(self, word: Sequence[int]) -> int | None:
        """Endpoint of the path spelling ``word`` from the base, or None
        if some letter cannot be read.  Requires a folded graph."""
        if not self.folded:
            raise InvalidInputError("trace requires a folded graph")
        v, n = self._walk(word, self.base)
        return v if n == len(word) else None

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

    def _tree(self) -> dict[int, Word]:
        """Reduced word from the base to every vertex it reaches, along a
        breadth-first tree in (label, direction) order, keyed in the
        order the search meets the vertices.  Canonical for a folded
        graph, which is a deterministic automaton."""
        if self._paths is None:
            steps: dict[int, list[tuple[int, int, int]]] = {}
            for x, moves in self._hop_table().items():
                for v, w in moves.items():
                    steps.setdefault(v, []).append((abs(x), 1 if x > 0 else -1, w))
            paths = {self.base: ()}
            queue = [self.base]
            for v in queue:
                for lab, d, w in sorted(steps.get(v, [])):
                    if w not in paths:
                        paths[w] = paths[v] + (d * lab,)
                        queue.append(w)
            self._paths = paths
        return self._paths

    def canonical_form(self) -> tuple:
        """Canonical description of the based labeled graph: vertices
        renamed in the order the breadth-first tree meets them.  Two
        folded graphs are isomorphic as based labeled graphs iff their
        canonical forms are equal.
        """
        if not self.folded:
            raise InvalidInputError("canonical_form requires a folded graph")
        order = {v: i for i, v in enumerate(self._tree())}
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
    ``words[j]``.  Rose edge i is edge i, and its petal word is signed
    (:meth:`StallingsGraph.petal_words`)."""
    if len(words) == 0:
        raise InvalidInputError("rose needs at least one word")
    lengths = [len(w) for w in words]
    if 0 in lengths:
        raise InvalidInputError(f"petal {lengths.index(0)} is the empty word")
    petal_start = np.cumsum([0] + lengths)
    letters = np.array([x for w in words for x in w], dtype=np.int64)
    n = letters.size
    # rose edge i, of petal j, enters vertex i + 1 - j, or the base when
    # it is the petal's last; each edge leaves where its predecessor ends
    after = np.arange(1, n + 1) - np.repeat(np.arange(len(words)), lengths)
    after[petal_start[1:] - 1] = 0
    before = np.roll(after, 1)
    fwd = letters > 0
    rose = StallingsGraph(n + 1 - len(words), 0, np.where(fwd, before, after),
                          np.where(fwd, after, before), np.abs(letters),
                          np.arange(n), petal_start)
    # a petal that crosses its carrier backwards reads its letter inverted;
    # a one-letter petal's carrier is a loop, so only its letter can tell
    words, at = rose.petal_words(), rose._carriers()
    for j in np.flatnonzero(letters[at] < 0).tolist():
        words[at[j]] = (-j - 1,)
    return rose


def fold(graph: StallingsGraph) -> StallingsGraph:
    """Fold to the immersion: identify pairs of equally-labeled edges
    sharing an endpoint until none remain.  Operates on a private copy;
    the base vertex is tracked, and every rose edge of ``graph.owner``
    moves with the edge it descends to.  Petal words
    (:meth:`StallingsGraph.petal_words`) are carried along: before two
    vertex classes unite, the edges at one of them are re-gauged so that
    both ends agree, and the base is never re-gauged.

    Slots are processed smallest first, (vertex, direction, label), and
    at each the two smallest live edge ids merge; the folded graph does
    not depend on this order, only its numbering does.
    """
    nv = graph.n_vertices
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # edge store: eid -> [src, dst, label, petal word]; into[eid] is the
    # edge eid merged into, eid itself while it is alive
    edges: list[list] = [
        list(rec) for rec in zip(graph.src.tolist(), graph.dst.tolist(),
                                 graph.label.tolist(), graph.petal_words())
    ]
    into = list(range(len(edges)))
    adj: list[dict | None] = [dict() for _ in range(nv)]
    for eid, (u, v, lab, _) in enumerate(edges):
        adj[u].setdefault((0, lab), set()).add(eid)
        adj[v].setdefault((1, lab), set()).add(eid)

    # heap of (vertex, direction, label) slots that may hold a fold pair
    work: list[tuple[int, int, int]] = []
    for v in range(nv):
        for (d, lab), s in adj[v].items():
            if len(s) >= 2:
                work.append((v, d, lab))
    heapq.heapify(work)

    def regauge(side: int, d: int, u2: int, e1: int, e2: int) -> None:
        # e1 and e2 share their d-end; re-gauge the class `side` of their
        # other ends by g, so that g times the old gauge at that end is
        # the gauge at the other: out-edges become g.w, in-edges w.g^-1
        w1, w2 = edges[e1][3], edges[e2][3]
        if side != u2:
            w1, w2 = w2, w1
        g = free_reduce(invert(w1) + w2 if d == 0 else w1 + invert(w2))
        if not g:
            return
        g_inv = invert(g)
        for e in {e for s in adj[side].values() for e in s if into[e] == e}:
            rec = edges[e]
            if find(rec[0]) == side:
                rec[3] = free_reduce(g + rec[3])
            if find(rec[1]) == side:
                rec[3] = free_reduce(rec[3] + g_inv)

    while work:
        v0, d, lab = heapq.heappop(work)
        v = find(v0)
        table = adj[v]
        key = (d, lab)
        eids = table.get(key)
        if not eids:
            continue
        alive = sorted(e for e in eids if into[e] == e)
        if len(alive) != len(eids):
            table[key] = set(alive)
        if len(alive) < 2:
            continue
        e1, e2 = alive[0], alive[1]
        u1 = find(edges[e1][1 - d])
        u2 = find(edges[e2][1 - d])
        into[e2] = e1  # e2 merges into e1
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
            regauge(a if b == find(graph.base) else b, d, u2, e1, e2)
            parent[b] = a
            ta, tb = adj[a], adj[b]
            for k2, s2 in tb.items():
                if k2 in ta:
                    ta[k2] |= s2
                else:
                    ta[k2] = s2
                if len(ta[k2]) >= 2:
                    heapq.heappush(work, (a,) + k2)
            adj[b] = None
        if len(table[key]) >= 2:
            heapq.heappush(work, (find(v), d, lab))

    # compact the quotient; an edge only merges into a smaller id, so one
    # pass in id order finds every edge's alive descendant
    new_id: list[int] = []
    kept = []
    for e, t in enumerate(into):
        if t == e:
            new_id.append(len(kept))
            kept.append(edges[e])
        else:
            new_id.append(new_id[t])
    remap: dict[int, int] = {}

    def rid(x: int) -> int:
        r = find(x)
        if r not in remap:
            remap[r] = len(remap)
        return remap[r]

    base = rid(graph.base)
    cols = np.array([(rid(u), rid(v), lab) for u, v, lab, _ in kept],
                    dtype=np.int64).reshape(-1, 3)
    folded = StallingsGraph(len(remap), base, cols[:, 0], cols[:, 1], cols[:, 2],
                            np.array(new_id, dtype=np.int64)[graph.owner],
                            graph.petal_start, folded=True)
    folded._words = [rec[3] for rec in kept]
    return folded


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
    return StallingsGraph(
        int(first_seen.size), 0, ids[1::2], ids[2::2], lab.astype(np.int32),
        owner, np.arange(k + 1) * L, folded=True)


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


def check_image_family(arr: np.ndarray) -> None:
    """Raise unless ``arr`` is a nonempty rectangular family of positive
    words with no ordered two-letter subword repeated anywhere in it."""
    if arr.ndim != 2 or 0 in arr.shape:
        raise InvalidParameterError("images must form a nonempty rectangular family")
    if arr.min() < 1:
        raise InvalidParameterError("images must be positive words")
    report = check_pair_uniqueness(arr)
    if not report.ok:
        raise PairRepetitionError(
            f"image family repeats ordered pairs: {report.duplicates[:5]}")


class PositiveEndomorphism:
    """A map from a rank-m free group sending the j-th generator to a
    positive word of uniform length L over the codomain alphabet.

    The j-th domain letter is the global id ``domain_ids[j]`` (1..m by
    default; distinct and positive, checked on first use): :meth:`apply`
    reads words over these ids and preimages come back in them.  The
    image family must be free of repeated ordered two-letter subwords
    (checked at construction, or once for a level's whole family when
    the map is a view of it); this is what keeps folding shallow and
    junction cancellation short.
    """

    def __init__(self, images, domain_ids: Sequence[int] | None = None):
        arr = np.asarray(images, dtype=np.int32)
        check_image_family(arr)
        self._bind(arr, domain_ids)

    @classmethod
    def _of_censused(cls, images: np.ndarray, domain_ids: Sequence[int]):
        """The map on ``images``, int32 rows of a family that passed
        :func:`check_image_family` whole: a view, not censused again."""
        phi = cls.__new__(cls)
        phi._bind(images, domain_ids)
        return phi

    def _bind(self, arr: np.ndarray, domain_ids: Sequence[int] | None):
        m = int(arr.shape[0])
        if domain_ids is None:
            domain_ids = tuple(range(1, m + 1))
        elif len(domain_ids) != m:
            raise InvalidParameterError(f"domain_ids must name {m} letters")
        self.images = arr
        self.domain_rank = m
        self.length = int(arr.shape[1])
        self.domain_ids = domain_ids  # shared with the level, not copied
        self._image_cache: dict[int, Word] | None = None
        self._graph: StallingsGraph | None = None
        self._pieces: dict[tuple[int, int], Word] | None = None
        self._certificate: InjectivityCertificate | None = None

    def _image_of(self) -> dict[int, Word]:
        """Signed domain letter -> its image (the row, or its inverse).
        Every call that reads ``domain_ids`` comes here before it returns,
        so this is where they are checked to be distinct and positive."""
        if self._image_cache is None:
            rows = [tuple(r) for r in self.images.tolist()]
            by_id = dict(zip(self.domain_ids, rows))
            by_id.update((-g, invert(r)) for g, r in zip(self.domain_ids, rows))
            if len(by_id) != 2 * self.domain_rank or min(self.domain_ids) < 1:
                raise InvalidParameterError(
                    "domain_ids must be distinct positive letter ids")
            self._image_cache = by_id
        return self._image_cache

    # -- image subgroup graph ------------------------------------------

    @property
    def graph(self) -> StallingsGraph:
        """Folded graph of the subgroup generated by the images."""
        if self._graph is None:
            self._graph = fold_images(self.images)
        return self._graph

    def coset_rep(self, g: Sequence[int]) -> Word:
        """Canonical representative of the left coset (image subgroup)*g.

        The reduced path of g in the Schreier graph of the image subgroup
        runs through the folded core and then out into a hanging tree;
        the coset is determined by (exit vertex, untraceable suffix), and
        the representative is the tree path to the exit vertex followed
        by that suffix.  Empty iff g lies in the image subgroup."""
        w = free_reduce(g)
        graph = self.graph
        v, i = graph._walk(w, graph.base)
        return graph._tree()[v] + w[i:]

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

    def append_image(self, word: Sequence[int], out: list[int]) -> list[int]:
        """Append the images of word's letters to ``out`` in one pass and
        return ``out``: each letter costs one dict lookup and one in-place
        list concatenation, which copies its row in C.  A positive word's
        images are positive rows, so this writes phi(word) already
        reduced; a signed word's concatenation may cancel (:meth:`apply`
        reduces it).  :class:`InvalidInputError` names a letter outside
        the domain, and ``out`` may then hold the images of the letters
        before it."""
        image_of = self._image_of()
        try:
            for x in word:
                out += image_of[x]
            return out
        except KeyError as e:
            raise InvalidInputError(
                f"letter {e.args[0]!r} is not in the map's domain") from None

    def apply(self, word: Sequence[int]) -> Word:
        """Freely reduced image of a word over the domain letters: the
        tuple of :meth:`append_image` for a positive word, else the free
        reduction of that concatenation.  :class:`InvalidInputError`
        names a letter outside the domain."""
        out = self.append_image(word, [])
        if out and min(word) < 0:  # every letter is a nonzero domain id now
            return free_reduce(out)
        return tuple(out)

    def membership(self, word: Sequence[int]) -> bool:
        return membership(self.graph, word)

    # -- inverting -------------------------------------------------------

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
        """The preimage of word over the domain letters, or None when the
        reduced word does not trace a closed path at the base (it is not
        in the image).

        One trace of the folded graph decides membership and multiplies
        the petal words of the edges it crosses, inverted on edges crossed
        backwards; phi must map the reduced product back to the word, and
        a product that does not is a fault (:class:`ConstructionError`).
        """
        w = free_reduce(word)
        if not w:
            return ()
        graph = self.graph
        hops = graph._hop_table()
        if self._pieces is None:  # (signed letter, vertex) -> nonempty petal word
            dom, words, pieces = self.domain_ids, graph.petal_words(), {}
            for e in (e for e, pw in enumerate(words) if pw):
                piece = tuple(dom[y - 1] if y > 0 else -dom[-y - 1] for y in words[e])
                u, v, lab = int(graph.src[e]), int(graph.dst[e]), int(graph.label[e])
                pieces[lab, u], pieces[-lab, v] = piece, invert(piece)
            self._pieces = pieces
        pieces = self._pieces
        read: list[int] = []
        v = graph.base
        for x in w:
            u, v = v, hops.get(x, _NO_HOPS).get(v)
            if v is None:
                return None
            read += pieces.get((x, u), ())
        if v != graph.base:
            return None
        read = free_reduce(read)
        if self.apply(read) != w:
            raise ConstructionError("petal words read a non-preimage")
        return read


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
