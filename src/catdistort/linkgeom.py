"""Right-angled-pentagon cell decompositions and vertex links.

Every relator cell (boundary word: stable * base * stable^-1 * image^-1,
length L+3) is subdivided into (L+1)/3 pentagons whose corners all carry
angle pi/2.  The link of the unique vertex is the graph whose vertices
are the edge-end directions g^+ / g^- plus one direction per chord end,
and whose edges are the pentagon corners.  With uniform pi/2 weights the
curvature certificate reduces to combinatorics: every embedded cycle must
have at least 4 edges (angular length 2*pi), and the stable-letter
directions must be pairwise at distance >= 4.

Chord placement matters: the ladder scheme puts a chord end at each of
the four polygon corners adjacent to a stable-letter side, which is what
pushes every stable-to-base path to length >= 2.  This needs at least
four chords, i.e. L >= 8; the degenerate small cases (L = 2, 5) still
decompose but cannot meet the separation contract, and the checkers
report that rather than assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .presentations import GroupSpec, Relator
from .words import Alphabet

RIGHT_ANGLE = 0.5  # corner weight in units of pi

# -- the ladder: symbolic pentagon layout ------------------------------------

# A direction template is one of
#   ("g", kind, tag)   boundary direction; kind in {"stable","base",("img",j)}
#                      tag 0 = outgoing end (g+), 1 = incoming end (g-)
#   ("c", k, end)      end 0/1 of chord k
# A corner template is a pair of direction templates.


def _ladder_faces(L: int):
    """Faces of the ladder decomposition of the (L+3)-gon, as cyclic
    side lists.  Sides: ("bnd", i) boundary edge i in polygon orientation,
    ("ch", k, flipped).  Returns (faces, n_chords)."""
    if L < 2 or (L + 1) % 3 != 0:
        raise InvalidParameterError(
            f"ladder scheme needs boundary length L+3 with L ≡ 2 (mod 3), got L={L}"
        )
    N = L + 3

    def iy(j: int) -> int:  # boundary index of the edge carrying y_j^-1
        return N - j

    if L == 2:
        return [[("bnd", i) for i in range(5)]], 0
    if L < 14:
        # L in {5, 8, 11}: too few chords to shield all four stable-letter
        # corners, so the separation contract is unattainable; use a crown
        # pentagon (stable, base, stable, last image letter, chord) over a
        # fan on the remaining L-1 image letters.
        faces = [[("ch", 0, True), ("bnd", 0), ("bnd", 1), ("bnd", 2),
                  ("bnd", 3)]]
        n_fan = (L - 2) // 3  # fan pentagons over L-1 ≡ 1 (mod 3) letters
        faces.append([("bnd", iy(4)), ("bnd", iy(3)), ("bnd", iy(2)),
                      ("bnd", iy(1)),
                      ("ch", 1, False) if n_fan > 1 else ("ch", 0, False)])
        for i in range(1, n_fan):
            hi = 4 + 3 * i
            last = ("ch", i + 1, False) if i + 1 < n_fan else ("ch", 0, False)
            faces.append([("bnd", iy(hi)), ("bnd", iy(hi - 1)),
                          ("bnd", iy(hi - 2)), ("ch", i, True), last])
        return faces, n_fan
    # L >= 14: split the bottom as alpha + 2 + 2 + 2 + beta with
    # alpha, beta ≡ 1 (mod 3), alpha, beta >= 4; this is the smallest L
    # whose ladder shields every stable-adjacent corner with a chord end.
    extra = (L - 14) // 3
    p = (extra + 1) // 2
    q = extra - p
    alpha = 4 + 3 * p
    # chords, in order: left fan l_0..l_p (ends at bottom 4, 7, ..., alpha),
    # then c1 (v1 -> alpha+2), c2 (v2 -> alpha+4), then right fan
    # r_0..r_q (v3 -> alpha+6, alpha+9, ..., L-4).
    n_left = p + 1
    c1 = n_left
    c2 = n_left + 1
    r0 = n_left + 2
    faces = []
    # leftmost pentagon: bottom letters 1..4 and chord l_0
    faces.append([("bnd", iy(4)), ("bnd", iy(3)), ("bnd", iy(2)),
                  ("bnd", iy(1)), ("ch", 0, False)])
    for i in range(1, p + 1):
        hi = 4 + 3 * i
        faces.append([("bnd", iy(hi)), ("bnd", iy(hi - 1)),
                      ("bnd", iy(hi - 2)), ("ch", i - 1, True),
                      ("ch", i, False)])
    # the three middle pentagons carrying the stable and base sides
    faces.append([("ch", n_left - 1, True), ("bnd", 0), ("ch", c1, False),
                  ("bnd", iy(alpha + 2)), ("bnd", iy(alpha + 1))])
    faces.append([("ch", c1, True), ("bnd", 1), ("ch", c2, False),
                  ("bnd", iy(alpha + 4)), ("bnd", iy(alpha + 3))])
    faces.append([("ch", c2, True), ("bnd", 2), ("ch", r0, False),
                  ("bnd", iy(alpha + 6)), ("bnd", iy(alpha + 5))])
    for i in range(1, q + 1):
        rho_prev = alpha + 6 + 3 * (i - 1)
        faces.append([("bnd", iy(rho_prev + 3)), ("bnd", iy(rho_prev + 2)),
                      ("bnd", iy(rho_prev + 1)), ("ch", r0 + i - 1, True),
                      ("ch", r0 + i, False)])
    # rightmost pentagon: bottom letters L-3..L and the last right chord
    faces.append([("bnd", 3), ("bnd", 4), ("bnd", 5), ("bnd", 6),
                  ("ch", r0 + q, True)])
    n_chords = n_left + 2 + (q + 1)
    return faces, n_chords


def _boundary_letter(i: int, L: int):
    """(kind, sign) of boundary edge i of the relator polygon."""
    if i == 0:
        return ("stable", 1)
    if i == 1:
        return ("base", 1)
    if i == 2:
        return ("stable", -1)
    return (("img", L + 3 - i), -1)


def _side_dirs(side, L: int):
    """(departure, arrival) direction templates of a directed side."""
    if side[0] == "bnd":
        kind, sgn = _boundary_letter(side[1], L)
        dep = ("g", kind, 0 if sgn > 0 else 1)
        arr = ("g", kind, 1 if sgn > 0 else 0)
        return dep, arr
    _, k, flipped = side
    if flipped:
        return ("c", k, 1), ("c", k, 0)
    return ("c", k, 0), ("c", k, 1)


def ladder_corner_templates(L: int):
    """Corner templates of the ladder scheme: one (dir, dir) pair per
    pentagon corner; plus (n_pentagons, n_chords)."""
    faces, n_chords = _ladder_faces(L)
    corners = []
    for face in faces:
        for idx, side in enumerate(face):
            nxt = face[(idx + 1) % len(face)]
            _, arr = _side_dirs(side, L)
            dep, _ = _side_dirs(nxt, L)
            corners.append((arr, dep))
    return corners, len(faces), n_chords


# -- per-cell decomposition ---------------------------------------------------


@dataclass(frozen=True)
class CellDecomposition:
    """One relator cell decomposed into right-angled pentagons: its link
    contribution as a list of corner edges between named directions.

    Direction names: ("d", gen_id, tag) with tag 0 for g+ / 1 for g-, and
    ("c", chord_index, end) for interior (chord end) directions private to
    the cell."""

    relator: Relator
    n_pentagons: int
    n_chords: int
    corners: tuple[tuple[tuple, tuple], ...]

    def stable_dirs(self) -> tuple:
        s = self.relator.stable
        return (("d", s, 0), ("d", s, 1))


def _instantiate(template, relator: Relator):
    if template[0] == "c":
        return template
    _, kind, tag = template
    if kind == "stable":
        return ("d", relator.stable, tag)
    if kind == "base":
        return ("d", relator.base, tag)
    return ("d", relator.image[kind[1] - 1], tag)


def decompose_cell(relator: Relator) -> CellDecomposition:
    """Decompose one conjugation cell by the ladder.  Raises unless the
    image length L satisfies L ≡ 2 (mod 3)."""
    templates, n_pent, n_chords = ladder_corner_templates(len(relator.image))
    corners = tuple(
        (_instantiate(a, relator), _instantiate(b, relator))
        for a, b in templates
    )
    return CellDecomposition(relator, n_pent, n_chords, corners)


@dataclass(frozen=True)
class CellContractReport:
    """Distances within one cell's link contribution: stable directions
    to base-letter directions, and between the two stable directions."""

    ok: bool
    min_stable_to_base: int | None  # None = unreachable
    min_stable_to_stable: int | None


def check_cell_contract(dec: CellDecomposition) -> CellContractReport:
    """Verify the per-cell separation contract: stable-to-base distance
    >= 2 and stable-to-stable >= 4 inside this single cell."""
    adj: dict = {}
    for a, b in dec.corners:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    stable = [d for d in dec.stable_dirs() if d in adj]

    def bfs(src):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    min_sb: int | None = None
    min_ss: int | None = None
    for s in stable:
        dist = bfs(s)
        for v, dv in dist.items():
            if v == s:
                continue
            if v[0] == "d" and v[1] != dec.relator.stable:
                min_sb = dv if min_sb is None else min(min_sb, dv)
            if v[0] == "d" and v[1] == dec.relator.stable:
                min_ss = dv if min_ss is None else min(min_ss, dv)
    ok = (min_sb is None or min_sb >= 2) and (min_ss is None or min_ss >= 4)
    return CellContractReport(ok, min_sb, min_ss)


# -- whole-complex link -------------------------------------------------------


class LinkGraph:
    """The link of the unique vertex: an edge array over integer
    direction ids, with uniform pi/2 weights.

    Boundary direction ids: 2*(gen-1) + tag (tag 0 = g+, 1 = g-).
    Chord direction ids follow, one block per cell.  The checks scan the
    edge array directly; the adjacency arrays (``csr``) are built on
    first use, which only a failing separation check makes.
    """

    def __init__(self, n_gens: int, edges: np.ndarray, chord_base: int,
                 marked: dict | None = None, alphabet: Alphabet | None = None,
                 n_chords_per_cell: int = 0):
        self.n_gens = n_gens
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.chord_base = chord_base
        self.marked = dict(marked or {})
        self.alphabet = alphabet
        self.n_chords_per_cell = n_chords_per_cell
        self._csr = None

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def dir_id(self, gen_id: int, tag: int) -> int:
        return 2 * (gen_id - 1) + tag

    def vertex_name(self, vid: int) -> str:
        if vid < self.chord_base:
            g, tag = vid // 2 + 1, vid % 2
            tok = self.alphabet.gen(g).token if self.alphabet else f"g{g}"
            return tok + ("+" if tag == 0 else "-")
        off = vid - self.chord_base
        if self.n_chords_per_cell:
            cell, rest = divmod(off, 2 * self.n_chords_per_cell)
            k, e = divmod(rest, 2)
            return f"chord(cell={cell},k={k},e={e})"
        return f"interior({off})"

    # -- derived structures ------------------------------------------------

    def csr(self):
        """Symmetric adjacency as (indptr, targets)."""
        if self._csr is None:
            e = self.edges
            src = np.concatenate([e[:, 0], e[:, 1]])
            dst = np.concatenate([e[:, 1], e[:, 0]])
            n = int(max(src.max(), dst.max())) + 1 if src.size else 1
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
            self._csr = (indptr, dst, n)
        return self._csr

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def from_named_edges(edges: Iterable[tuple], n_gens: int = 0) -> "LinkGraph":
        """Build a small link from edges between hashable direction names;
        names of the form ("d", gen, tag) map to boundary ids, everything
        else to interior ids.  Meant for tests and engineered examples."""
        edges = [(a, b) for a, b in edges]

        def is_dir(d):
            return isinstance(d, tuple) and len(d) == 3 and d[0] == "d"

        max_gen = max([n_gens] + [d[1] for e in edges for d in e if is_dir(d)])
        chord_base = 2 * max_gen
        interior: dict = {}  # name -> id, numbered in order of appearance
        rows = [[2 * (d[1] - 1) + d[2] if is_dir(d)
                 else interior.setdefault(d, chord_base + len(interior))
                 for d in e] for e in edges]
        return LinkGraph(max_gen, rows, chord_base)

    def to_dot(self, boundary_only: bool = False) -> str:
        lines = ["graph link {"]
        for a, b in self.edges.tolist():
            if boundary_only and (a >= self.chord_base or b >= self.chord_base):
                continue
            lines.append(f'  "{self.vertex_name(a)}" -- "{self.vertex_name(b)}";')
        lines.append("}")
        return "\n".join(lines)


def build_link(spec: GroupSpec) -> LinkGraph:
    """Union of all cells' link contributions on the shared direction
    vertex set.  Marked subsets: one per level ("stable-0", "stable-1",
    ...) collecting that level's stable-letter directions.

    Cells are the levels' image rows in order; each corner template
    fills one row range of the edge array with its two columns, read off
    the level's stable, base and image columns."""
    G = len(spec.alphabet)
    chord_base = 2 * G
    layouts = [ladder_corner_templates(lv.image_length) for lv in spec.levels]
    if len({nc for _, _, nc in layouts}) > 1:
        raise InvalidParameterError(
            "mixed image lengths across levels are not supported by the "
            "uniform chord-id layout"
        )
    nc = layouts[0][2] if layouts else 0
    edges = np.empty((sum(lv.images.shape[0] * len(t) for lv, (t, _, _)
                          in zip(spec.levels, layouts)), 2), dtype=np.int64)
    row = cell_offset = 0
    for lv, (templates, _, _) in zip(spec.levels, layouts):
        S, B = lv.row_letters()
        Y = lv.images
        ncells = Y.shape[0]
        C = np.arange(cell_offset, cell_offset + ncells, dtype=np.int64)
        cell_offset += ncells

        def col(t):
            if t[0] == "c":
                _, k, e = t
                return chord_base + (C * nc + k) * 2 + e
            _, kind, tag = t
            if kind == "stable":
                return 2 * (S - 1) + tag
            if kind == "base":
                return 2 * (B - 1) + tag
            return 2 * (Y[:, kind[1] - 1] - 1) + tag

        for a, b in templates:
            edges[row:row + ncells, 0] = col(a)
            edges[row:row + ncells, 1] = col(b)
            row += ncells
    return LinkGraph(G, edges, chord_base, _stable_marks(spec), spec.alphabet,
                     n_chords_per_cell=nc)


def _stable_marks(spec: GroupSpec) -> dict:
    """Marked subsets of a spec's link: level k's stable-letter
    directions g+ and g- as "stable-k"."""
    return {f"stable-{k}": np.asarray([2 * (g - 1) + tag for g in lv.stable_ids
                                       for tag in (0, 1)], dtype=np.int64)
            for k, lv in enumerate(spec.levels)}


# -- checks -------------------------------------------------------------------


@dataclass(frozen=True)
class GirthReport:
    """Shortest embedded cycle.  Only cycles shorter than 4 edges can
    violate the 2*pi bound, so the search is exact below 4 and reports
    ">= 4" otherwise."""

    ok: bool
    combinatorial_girth: int | None  # exact when < 4, else None (>= 4)
    witness: tuple | None  # vertex ids of a violating cycle
    witness_names: tuple | None
    n_edges: int

    @property
    def angular_girth(self) -> float:
        g = 4 if self.combinatorial_girth is None else self.combinatorial_girth
        return g * RIGHT_ANGLE * math.pi

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "combinatorial_girth": self.combinatorial_girth,
            "angular_girth_over_pi": (
                (4 if self.combinatorial_girth is None else
                 self.combinatorial_girth) * RIGHT_ANGLE),
            "girth_is_lower_bound": self.combinatorial_girth is None,
            "witness": list(self.witness_names) if self.witness_names else None,
            "n_edges": self.n_edges,
        }


def verify_cycle(link: LinkGraph, cycle: Sequence[int]) -> bool:
    """Independently re-verify a witness cycle edge by edge: a loop needs
    its edge, a 2-cycle two parallel edges, a longer cycle every edge."""
    n = len(cycle)
    if n < 1 or len(set(cycle)) != n:
        return False
    x, y = link.edges[:, 0], link.edges[:, 1]

    def count(a, b):
        return int(np.count_nonzero(((x == a) & (y == b)) | ((x == b) & (y == a))))

    if n == 2:
        return count(*cycle) >= 2
    return all(count(cycle[i], cycle[(i + 1) % n]) for i in range(n))


def _report(ok, girth, witness, link):
    names = tuple(link.vertex_name(v) for v in witness) if witness else None
    return GirthReport(ok, girth, tuple(witness) if witness else None,
                       names, link.n_edges)


def _among(keys: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Membership of each k in the sorted array keys.  Sorted queries
    keep the binary searches in cache; the keys found are then looked up
    in query order."""
    found = np.sort(k)
    if keys.size:
        found = found[keys[np.searchsorted(keys, found).clip(max=keys.size - 1)] == found]
    if not (keys.size and found.size):
        return np.zeros(k.shape, dtype=bool)
    return found[np.searchsorted(found, k).clip(max=found.size - 1)] == k


def check_large_link(link: LinkGraph) -> GirthReport:
    """Exact search for embedded cycles of combinatorial length < 4
    (self-loops, doubled edges, triangles); ok iff none exist.

    Each degree-2 chord vertex (all of them in a built link) is stored as
    the pair of its neighbours, in the order its edges appear (column 0
    rows, then column 1 rows); every other edge is a sorted key.  A
    doubled edge is a repeated key or a chord whose two neighbours agree;
    a triangle through such a chord is an edge between its neighbours.
    Direction-direction edges pairing an outgoing with an incoming
    direction cannot close an odd cycle on their own, so the remaining
    triangles pass through a chord of another degree or an anomalous
    same-parity edge.  The smallest witness of each kind is reported:
    loops first, then the smallest doubled key, then triangles by chord
    id, then by anomalous edge."""
    e = link.edges
    if e.size == 0:
        return _report(True, None, None, link)
    a, b = e[:, 0], e[:, 1]
    loops = np.flatnonzero(a == b)
    if loops.size:
        return _report(False, 1, (int(a[loops[0]]),), link)
    ef = e.ravel()
    E, cb, n = e.shape[0], link.chord_base, int(ef.max()) + 1
    # chord occurrences as flat positions f: row f // 2, column f % 2, and
    # the vertex across the edge at f ^ 1; column 0 rows come first in
    # edge order, then column 1 rows
    f = np.flatnonzero(ef >= cb)
    ch = ef[f]

    def rank(f):
        return (f & 1) * E + (f >> 1)

    deg = np.bincount(ch, minlength=n)
    big = np.flatnonzero((deg > 2)[ch])
    f_big, ch_big = f[big], ch[big]
    # one occurrence of each chord wins the first scatter, the other the second
    c2 = np.flatnonzero(deg == 2)
    slot = np.zeros(n, dtype=np.int64)
    slot[ch] = f
    f1 = slot[c2]
    lost = slot[ch] != f
    slot[ch[lost]] = f[lost]
    f2 = slot[c2]
    # these are as long as the chord occurrences (8.6 M on the paper link);
    # freeing them before the key sort and the lookups lowers the peak
    del f, ch, deg, slot, lost
    swap = rank(f2) < rank(f1)
    p, q = ef[np.where(swap, f2, f1) ^ 1], ef[np.where(swap, f1, f2) ^ 1]
    del f1, f2, swap
    P, Q = np.full(n, -1), np.full(n, -1)
    P[c2], Q[c2] = p, q
    at2 = P >= 0
    plain = ~(at2[a] | at2[b])  # edges at no degree-2 chord
    x, y = a[plain], b[plain]
    del plain
    anomalous = np.flatnonzero((np.maximum(x, y) < cb) & ((x - y) % 2 == 0))
    ax, ay = x[anomalous], y[anomalous]
    keys = np.minimum(x, y)
    keys *= n
    keys += np.maximum(x, y)
    del x, y
    keys.sort()
    dup = keys[1:][keys[1:] == keys[:-1]]
    at = p == q
    dup = np.concatenate([dup[:1], np.minimum(c2[at], p[at]) * n
                          + np.maximum(c2[at], p[at])])
    if dup.size:
        k = int(dup.min())
        return _report(False, 2, (k // n, k % n), link)

    def linked(u, v):
        return ((P[u] == v) | (Q[u] == v) | (P[v] == u) | (Q[v] == u)
                | _among(keys, np.minimum(u, v) * n + np.maximum(u, v)))

    hits = np.flatnonzero(linked(p, q))
    if hits.size:
        i = hits[0]
        return _report(False, 3, (int(c2[i]), int(p[i]), int(q[i])), link)
    # chords of any other degree, neighbours in edge order
    order = np.lexsort((rank(f_big), ch_big))
    heads, starts = np.unique(ch_big[order], return_index=True)
    for head, nb in zip(heads.tolist(), np.split(ef[f_big[order] ^ 1], starts[1:])):
        i, j = np.triu_indices(nb.size, 1)
        hits = np.flatnonzero(linked(nb[i], nb[j]))
        if hits.size:
            h = hits[0]
            return _report(False, 3, (head, int(nb[i[h]]), int(nb[j[h]])), link)
    # anomalous edges: any third vertex is a direction, joined by plain keys
    if ax.size:
        d = keys[keys % n < cb]
        both = np.sort(np.concatenate([d, d % n * n + d // n]))

        def around(v):
            lo, hi = np.searchsorted(both, [v * n, v * n + n])
            return both[lo:hi] % n

        for u, v in zip(ax.tolist(), ay.tolist()):
            common = np.intersect1d(around(u), around(v))
            if common.size:
                return _report(False, 3, (u, v, int(common[0])), link)
    return _report(True, None, None, link)


@dataclass(frozen=True)
class SeparationReport:
    """Minimum pairwise link distance over a marked direction set
    (exact below 4: distances >= 4 are reported as the bound)."""

    ok: bool
    min_distance: int | None  # exact when < 4, else None (>= 4)
    witness_pair: tuple | None
    witness_names: tuple | None
    n_marked: int

    @property
    def angular(self) -> float:
        d = 4 if self.min_distance is None else self.min_distance
        return d * RIGHT_ANGLE * math.pi

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "min_distance": self.min_distance,
            "distance_is_lower_bound": self.min_distance is None,
            "witness_pair": list(self.witness_names) if self.witness_names else None,
            "n_marked": self.n_marked,
        }


def check_separation(link: LinkGraph, marked: Sequence[int]) -> SeparationReport:
    """Smallest pairwise link distance (< 4) among the marked directions;
    ok iff every pair is at distance >= 4 = 2*pi.

    Scans of the edge array decide the distance: 1 if an edge joins two
    marked vertices, else 2 if a vertex has two distinct marked
    neighbours, else (each vertex now having at most one, its owner) 3
    iff an edge joins vertices with two different owners.  The witness
    is that of a breadth-first search from every marked direction in
    increasing id order: its source is the smallest marked vertex at
    that distance, and one search from it, gathering each level's
    frontier neighbours in frontier order as a queue would, names the
    first marked vertex it discovers.  Marked ids outside the link's
    vertex range are never reached."""
    marked = np.asarray(sorted(set(int(x) for x in marked)), dtype=np.int64)
    if marked.size == 0:
        raise InvalidInputError("marked set is empty")
    if marked[0] < 0:
        raise InvalidInputError(f"negative direction id {int(marked[0])}")
    e = link.edges
    n = int(e.max()) + 1 if e.size else 1
    is_marked = np.zeros(n, dtype=bool)
    is_marked[marked[marked < n]] = True
    a, b = e[:, 0], e[:, 1]
    ma, mb = is_marked[a], is_marked[b]
    d, ends = 1, e[ma & mb & (a != b)]
    if not ends.size:
        one = np.flatnonzero(ma != mb)
        m = np.where(ma[one], a[one], b[one])
        v = a[one] + b[one] - m
        owner = np.full(n, -1)
        owner[v] = m
        split = np.zeros(n, dtype=bool)
        split[v[owner[v] != m]] = True
        d, ends = 2, m[split[v]]
    if not ends.size:
        owned = owner >= 0
        both = np.flatnonzero(owned[a] & owned[b])
        oa, ob = owner[a[both]], owner[b[both]]
        d, ends = 3, np.concatenate([oa, ob])[np.tile(oa != ob, 2)]
    if not ends.size:
        return SeparationReport(True, None, None, None, int(marked.size))
    src = int(ends.min())
    indptr, dst, _ = link.csr()
    seen = np.zeros(n, dtype=bool)
    seen[src] = True
    frontier = np.array([src], dtype=np.int64)
    for _ in range(d):
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        offsets = np.cumsum(counts) - counts
        reached = dst[np.repeat(starts - offsets, counts)
                      + np.arange(int(counts.sum()))]
        reached = reached[~seen[reached]]
        _, first = np.unique(reached, return_index=True)
        frontier = reached[np.sort(first)]
        seen[frontier] = True
    tgt = int(reached[is_marked[reached]][0])
    return SeparationReport(
        False, d, (src, tgt),
        (link.vertex_name(src), link.vertex_name(tgt)), int(marked.size),
    )


@dataclass(frozen=True)
class GluingReport:
    """Inductive chain check: each attachment rose 2*pi-separated in the
    link of the newly glued block alone (a row block of the union link,
    the one a verify builds), plus a direct girth check of that link."""

    ok: bool
    levels: tuple[tuple[int, SeparationReport], ...]
    union_girth: GirthReport


def check_chain_gluing(chain: GroupSpec, link: LinkGraph | None = None) -> GluingReport:
    """Gluing step k reads level k's rows ``[cut[k], cut[k+1])`` of the
    union link ``link`` (``build_link(chain)``, built here when not given;
    every cell fills the same number of rows), as the block's own link
    with chord ids shifted, which no witness (a marked direction) sees.
    A link whose generators, edges per cell or stable marks are not the
    chain's raises InvalidInputError."""
    if chain.structure != "chain":
        raise InvalidInputError("gluing check applies to chain presentations")
    cells = np.cumsum([0] + [lv.images.shape[0] for lv in chain.levels])
    if link is None:
        link = build_link(chain)
    elif (link.n_gens != len(chain.alphabet) or link.n_edges % cells[-1]
          or {k: np.asarray(v).tolist() for k, v in link.marked.items()}
          != {k: v.tolist() for k, v in _stable_marks(chain).items()}):
        raise InvalidInputError("the link is not this chain's link")
    cut = link.n_edges // cells[-1] * cells
    per_level = []
    # level 0 is the base case (one block, nothing glued); gluing step k
    # attaches the level-k block along its stable letters.
    for k in range(1, len(chain.levels)):
        block = LinkGraph(link.n_gens, link.edges[cut[k]:cut[k + 1]],
                          link.chord_base, alphabet=link.alphabet,
                          n_chords_per_cell=link.n_chords_per_cell)
        per_level.append((k, check_separation(block, link.marked[f"stable-{k}"])))
    union = check_large_link(link)
    ok = union.ok and all(rep.ok for _, rep in per_level)
    return GluingReport(ok, tuple(per_level), union)
