import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catdistort.errors import InvalidInputError, InvalidParameterError
from catdistort.linkgeom import (
    GirthReport,
    LinkGraph,
    SeparationReport,
    build_link,
    check_cell_contract,
    check_chain_gluing,
    check_large_link,
    check_separation,
    decompose_cell,
    ladder_corner_templates,
    verify_cycle,
)
from catdistort.presentations import (
    BlockParams,
    GroupSpec,
    Relator,
    build_block,
    build_chain,
    build_double,
    free_group,
)


def one_cell_relator(L, stable=100, base=1):
    return Relator(stable, base, tuple(range(1, L + 1)))


def level_link(chain, k):
    """Oracle for gluing step k: the link of level k's cells alone, built
    from a one-level spec.  Its attachment rose is "stable-0"."""
    return build_link(GroupSpec(chain.structure, chain.params, chain.alphabet,
                                [chain.levels[k]], chain.base_ids,
                                chain.convex_ids))


def level_block(chain, k):
    """Level k's row block of the chain's union link, as a link of its
    own whose attachment rose is "stable-0"."""
    link = build_link(chain)
    cells = np.cumsum([0] + [lv.images.shape[0] for lv in chain.levels])
    cut = link.n_edges // cells[-1] * cells
    return LinkGraph(link.n_gens, link.edges[cut[k]:cut[k + 1]],
                     link.chord_base, {"stable-0": link.marked[f"stable-{k}"]},
                     link.alphabet)


class TestLadderScheme:
    @pytest.mark.parametrize("L,pent,chords", [
        (2, 1, 0), (5, 2, 1), (8, 3, 2), (11, 4, 3), (14, 5, 4),
        (17, 6, 5), (20, 7, 6), (29, 10, 9),
    ])
    def test_counts(self, L, pent, chords):
        templates, n_pent, n_chords = ladder_corner_templates(L)
        assert (n_pent, n_chords) == (pent, chords)
        assert len(templates) == 5 * n_pent

    def test_rejects_incompatible_length(self):
        with pytest.raises(InvalidParameterError):
            ladder_corner_templates(3)

    def test_every_chord_end_in_two_corners(self):
        templates, _, n_chords = ladder_corner_templates(14)
        seen = {}
        for a, b in templates:
            for d in (a, b):
                if d[0] == "c":
                    seen[d[1:]] = seen.get(d[1:], 0) + 1
        assert set(seen.values()) == {2}
        assert len(seen) == 2 * n_chords

    def test_image_positions_covered(self):
        templates, _, _ = ladder_corner_templates(14)
        pos = set()
        for a, b in templates:
            for d in (a, b):
                if d[0] == "g" and isinstance(d[1], tuple):
                    pos.add(d[1][1])
        assert pos == set(range(1, 15))


class TestDecomposeCell:
    def test_block_cell(self):
        dec = decompose_cell(one_cell_relator(14))
        assert dec.n_pentagons == 5 and dec.n_chords == 4
        rep = check_cell_contract(dec)
        assert rep.ok
        assert rep.min_stable_to_base == 2
        assert rep.min_stable_to_stable is None or rep.min_stable_to_stable >= 4

    @pytest.mark.parametrize("L", [14, 17, 20, 29])
    def test_contract_for_large_L(self, L):
        assert check_cell_contract(decompose_cell(one_cell_relator(L))).ok

    @pytest.mark.parametrize("L", [2, 5])
    def test_degenerate_cells_report_failure(self, L):
        # too few chords to shield the stable-letter corners: the
        # decomposition exists but the separation contract fails
        rep = check_cell_contract(decompose_cell(one_cell_relator(L)))
        assert not rep.ok
        assert rep.min_stable_to_base == 1

    def test_all_cells_of_block(self):
        spec = build_block(BlockParams(2, 28, 14))
        for r in spec.relators():
            rep = check_cell_contract(decompose_cell(r))
            assert rep.ok
            assert rep.min_stable_to_base == 2

    def test_length_3_cells_have_no_scheme(self):
        # boundary length 6 admits no pentagon subdivision: the witness
        # down-scale double(9, 27, 3) is navigator-only territory
        with pytest.raises(InvalidParameterError):
            decompose_cell(one_cell_relator(3))
        with pytest.raises(InvalidParameterError):
            build_link(build_double(9, 27, 3))


class TestBuildLink:
    def test_matches_per_cell_decomposition(self):
        # the vectorized assembly and the symbolic per-cell decomposition
        # must produce the same edge multiset
        spec = build_block(BlockParams(1, 14, 14))
        link = build_link(spec)
        expected = []
        for c, rel in enumerate(spec.relators()):
            dec = decompose_cell(rel)
            for a, b in dec.corners:
                def vid(d):
                    if d[0] == "d":
                        return 2 * (d[1] - 1) + d[2]
                    _, k, e = d
                    return link.chord_base + (c * dec.n_chords + k) * 2 + e
                expected.append((vid(a), vid(b)))
        got = sorted(map(tuple, np.sort(link.edges, axis=1).tolist()))
        want = sorted(tuple(sorted(p)) for p in expected)
        assert got == want

    def test_block_dimensions(self):
        link = build_link(build_block(BlockParams(1, 14, 14)))
        assert link.n_edges == 14 * 25
        # 2(m + n) boundary directions exist in the alphabet
        assert link.chord_base == 2 * 15

    def test_free_group_edgeless(self):
        link = build_link(free_group(2))
        assert link.n_edges == 0
        assert check_large_link(link).ok


class TestGirth:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_blocks_ok(self, n):
        link = build_link(build_block(BlockParams(n, 14 * n, 14)))
        rep = check_large_link(link)
        assert rep.ok
        assert rep.angular_girth >= 2 * math.pi - 1e-12

    def test_downscale_double_reports(self):
        # L=5 satisfies both chop inequalities at (n, m) = (L^2, L^3) and
        # its cells decompose, but the crown layout leaves stable letters
        # one step from base letters; the checker reports, nothing asserted
        d = build_double(25, 125, 5, certify=False)
        link = build_link(d)
        rep = check_large_link(link)
        sep = check_separation(link, link.marked["stable-0"])
        assert rep.combinatorial_girth is None or rep.combinatorial_girth >= 1
        assert sep.min_distance is None or sep.min_distance >= 1

    def test_engineered_triangle(self):
        tri = LinkGraph.from_named_edges([("x", "y"), ("y", "z"), ("z", "x")])
        rep = check_large_link(tri)
        assert not rep.ok
        assert rep.combinatorial_girth == 3
        assert abs(rep.angular_girth - 1.5 * math.pi) < 1e-12
        assert verify_cycle(tri, rep.witness)

    def test_engineered_doubled_edge(self):
        g = LinkGraph.from_named_edges([("x", "y"), ("x", "y")])
        rep = check_large_link(g)
        assert not rep.ok and rep.combinatorial_girth == 2
        assert verify_cycle(g, rep.witness)

    def test_engineered_self_loop(self):
        g = LinkGraph.from_named_edges([("x", "x")])
        rep = check_large_link(g)
        assert not rep.ok and rep.combinatorial_girth == 1

    def test_direction_triangle_via_parity(self):
        g = LinkGraph.from_named_edges([
            (("d", 1, 0), ("d", 2, 0)),
            (("d", 2, 0), ("d", 3, 1)),
            (("d", 3, 1), ("d", 1, 0)),
        ], n_gens=3)
        rep = check_large_link(g)
        assert not rep.ok and rep.combinatorial_girth == 3
        assert verify_cycle(g, rep.witness)

    def test_square_is_ok(self):
        g = LinkGraph.from_named_edges([
            ("w", "x"), ("x", "y"), ("y", "z"), ("z", "w"),
        ])
        assert check_large_link(g).ok

    def test_pair_repetition_would_create_short_cycle(self):
        # two cells sharing an ordered pair: the pair edge doubles
        spec = build_block(BlockParams(1, 14, 14))
        link = build_link(spec)
        e = link.edges
        dup = np.vstack([e, e[:1]])
        bad = LinkGraph(link.n_gens, dup, link.chord_base)
        rep = check_large_link(bad)
        assert not rep.ok and rep.combinatorial_girth == 2

    def test_girth_check_leaves_the_link_as_it_was(self):
        # the girth check reads the edge array and keeps nothing on the
        # link: no adjacency arrays, no cached keys, edges untouched
        link = build_link(build_block(BlockParams(2, 28, 14)))
        before, edges = dict(vars(link)), link.edges.copy()
        assert check_large_link(link).ok
        assert vars(link).keys() == before.keys() and link._csr is None
        assert np.array_equal(link.edges, edges)

    def test_monotone_adding_cells(self):
        # girth can only drop (or stay) as cells accumulate
        spec = build_block(BlockParams(2, 28, 14))
        full = build_link(spec)
        assert check_large_link(full).ok  # so any prefix is also ok
        half = LinkGraph(full.n_gens, full.edges[: full.n_edges // 2],
                         full.chord_base)
        assert check_large_link(half).ok


class TestSeparation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_stable_rose(self, n):
        spec = build_block(BlockParams(n, 14 * n, 14))
        link = build_link(spec)
        rep = check_separation(link, link.marked["stable-0"])
        assert rep.ok
        assert rep.angular >= 2 * math.pi - 1e-12

    def test_block_t_rose_exactly_four(self):
        # within one block the two stable directions connect through the
        # cell at distance exactly 4 once enough cells share letters
        spec = build_block(BlockParams(2, 28, 14))
        link = build_link(spec)
        rep = check_separation(link, link.marked["stable-0"])
        assert rep.ok and rep.min_distance is None

    def test_engineered_adjacent_pair(self):
        g = LinkGraph.from_named_edges([(("d", 1, 0), ("d", 1, 1))], n_gens=1)
        rep = check_separation(g, [0, 1])
        assert not rep.ok and rep.min_distance == 1

    def test_passing_check_builds_no_adjacency(self):
        link = build_link(build_block(BlockParams(2, 28, 14)))
        assert check_separation(link, link.marked["stable-0"]).ok
        assert link._csr is None

    def test_removing_marked_vertices_never_decreases(self):
        spec = build_block(BlockParams(2, 28, 14))
        link = build_link(spec)
        full = check_separation(link, link.marked["stable-0"])
        sub = check_separation(link, link.marked["stable-0"][:2])
        d_full = 4 if full.min_distance is None else full.min_distance
        d_sub = 4 if sub.min_distance is None else sub.min_distance
        assert d_sub >= d_full


def _separation_reference(link, marked):
    """Queue-based BFS over dict distances: the separation checker's
    reference.  Sources in increasing id order, neighbours in CSR order;
    the first marked vertex discovered at the smallest depth wins."""
    marked = np.asarray(sorted(set(int(x) for x in marked)), dtype=np.int64)
    if marked.size == 0:
        raise InvalidInputError("marked set is empty")
    indptr, dst, n = link.csr()
    marked_set = set(marked.tolist())
    best = None  # (dist, src, tgt)
    for src in marked.tolist():
        if src >= n:
            continue
        dist = {src: 0}
        frontier = [src]
        for depth in range(1, 4):
            nxt = []
            for x in frontier:
                for y in dst[indptr[x]:indptr[x + 1]].tolist():
                    if y not in dist:
                        dist[y] = depth
                        nxt.append(y)
                        if y in marked_set and (best is None or depth < best[0]):
                            best = (depth, src, y)
            frontier = nxt
            if best is not None and best[0] <= depth:
                break
    if best is None:
        return SeparationReport(True, None, None, None, int(marked.size))
    d, a, b = best
    return SeparationReport(
        False, d, (a, b),
        (link.vertex_name(a), link.vertex_name(b)), int(marked.size),
    )


@st.composite
def multigraphs(draw):
    """Edges over a few vertices, with self-loops and doubled edges, plus
    a marked set that may hold isolated ids and ids past the last vertex."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    # sparse enough that many marked pairs sit at distance 2 or 3
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=3))]
    edges = draw(st.permutations(edges))
    marked = draw(st.lists(st.integers(0, n + 4), min_size=1, max_size=10))
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return LinkGraph(0, arr, 0), marked


class TestSeparationOracle:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_random_multigraphs(self, case):
        link, marked = case
        assert check_separation(link, marked) == _separation_reference(link, marked)

    def test_seeded_random_multigraphs(self):
        # about one graph in a hundred has two marked vertices at the
        # smallest distance behind different frontier vertices, where the
        # frontier order decides the witness; a fixed sweep meets dozens
        rng = random.Random(20)
        for _ in range(3000):
            n = rng.randint(1, 40)
            edges = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 2 * n))]
            link = LinkGraph(0, np.asarray(edges, dtype=np.int64).reshape(-1, 2), 0)
            marked = [rng.randrange(n + 5) for _ in range(rng.randint(1, 10))]
            assert check_separation(link, marked) == \
                _separation_reference(link, marked), (edges, marked)

    @settings(max_examples=100, deadline=None)
    @given(multigraphs())
    def test_csr_rows_in_edge_order(self, case):
        link, _ = case
        rows = {}
        for a, b in link.edges.tolist():
            rows.setdefault(a, []).append(b)
        for a, b in link.edges.tolist():
            rows.setdefault(b, []).append(a)
        indptr, dst, n = link.csr()
        for v in range(n):
            assert dst[indptr[v]:indptr[v + 1]].tolist() == rows.get(v, [])

    def test_paper_chain_level_link(self):
        lk = level_block(build_chain(2, 14, certify=False), 1)
        marked = lk.marked["stable-0"]
        rep = check_separation(lk, marked)
        assert rep == _separation_reference(lk, marked)
        assert rep.ok and rep.n_marked == 28

    @pytest.mark.parametrize("L", [5, 8, 11])
    def test_smallest_doubles(self, L):
        # the smallest doubles at L = 5, 8, 11 fail separation, so the
        # witness pairs are compared too
        d = build_double(L * L, L ** 3, L, certify=False)
        link = build_link(d)
        convex = [link.dir_id(g, e) for g in d.convex_ids for e in (0, 1)]
        for marked in (convex, link.marked["stable-0"], link.marked["stable-1"]):
            rep = check_separation(link, marked)
            assert rep == _separation_reference(link, marked)
            assert not rep.ok


class TestSeparationEdgeCases:
    def path(self, k):
        """The path 0 - 1 - ... - k."""
        return LinkGraph(0, np.array([[i, i + 1] for i in range(k)]), 0)

    def test_empty_marked_set(self):
        with pytest.raises(InvalidInputError):
            check_separation(self.path(2), [])

    def test_negative_id(self):
        with pytest.raises(InvalidInputError):
            check_separation(self.path(2), [-1, 0])

    def test_marked_id_beyond_csr_is_skipped(self):
        rep = check_separation(self.path(2), [0, 7])
        assert rep.ok and rep.min_distance is None and rep.n_marked == 2

    def test_distance_three_reported(self):
        rep = check_separation(self.path(3), [3, 0])
        assert not rep.ok and rep.min_distance == 3
        assert rep.witness_pair == (0, 3)

    def test_witness_follows_discovery_order(self):
        # 0 reaches 5 before 3, so 10 (behind 5) is found before 9
        g = LinkGraph(0, np.array([[0, 5], [0, 3], [3, 9], [5, 10]]), 0)
        rep = check_separation(g, [0, 9, 10])
        assert rep.min_distance == 2 and rep.witness_pair == (0, 10)

    def test_distance_four_passes(self):
        rep = check_separation(self.path(4), [0, 4])
        assert rep.ok and rep.min_distance is None and rep.witness_pair is None


def _report(ok, girth, witness, link):
    names = tuple(link.vertex_name(v) for v in witness) if witness else None
    return GirthReport(ok, girth, tuple(witness) if witness else None,
                       names, link.n_edges)


def _girth_reference(link):
    """The girth checker's reference: one sort of every edge key, each
    chord vertex's neighbours from a stable argsort, pairwise lookups in
    the sorted keys, and common-neighbour sets read off the adjacency
    arrays for the anomalous (same-parity direction) edges."""
    e = link.edges
    if e.size == 0:
        return _report(True, None, None, link)
    # length 1: self-loops
    loops = e[:, 0] == e[:, 1]
    if loops.any():
        v = int(e[loops][0, 0])
        return _report(False, 1, (v,), link)
    # length 2: doubled edges
    u = np.minimum(e[:, 0], e[:, 1])
    v = np.maximum(e[:, 0], e[:, 1])
    n = int(e.max()) + 2
    keys = u.astype(np.int64) * n + v
    uniq, counts = np.unique(keys, return_counts=True)
    dup = counts > 1
    if dup.any():
        k = int(uniq[dup][0])
        return _report(False, 2, (k // n, k % n), link)

    def has_edges(pairs):
        k = np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])
        idx = np.minimum(np.searchsorted(uniq, k), uniq.size - 1)
        return uniq[idx] == k

    def neighbors(x):
        indptr, dst, size = link.csr()
        return dst[indptr[x]:indptr[x + 1]] if x < size else dst[:0]

    # length 3: triangles
    cb = link.chord_base
    both_dir = (e[:, 0] < cb) & (e[:, 1] < cb)
    anomalous = e[both_dir][(e[both_dir, 0] % 2) == (e[both_dir, 1] % 2)]
    # (a) triangles through an interior vertex
    chord_mask = (e[:, 0] >= cb) | (e[:, 1] >= cb)
    ce = e[chord_mask]
    if ce.size:
        # an edge may join two interior vertices; check it from both sides
        cv = np.concatenate([ce[:, 0], ce[:, 1]])
        other = np.concatenate([ce[:, 1], ce[:, 0]])
        keep = cv >= cb
        cv, other = cv[keep], other[keep]
        order = np.argsort(cv, kind="stable")
        cv, other = cv[order], other[order]
        uniq_cv, starts, counts_cv = np.unique(cv, return_index=True,
                                               return_counts=True)
        deg2 = np.flatnonzero(counts_cv == 2)
        if deg2.size:
            idx2 = starts[deg2]
            pairs2 = np.stack([other[idx2], other[idx2 + 1]], axis=1)
            heads2 = uniq_cv[deg2]
            hits = (has_edges(pairs2)
                    & (pairs2[:, 0] != pairs2[:, 1])
                    & (pairs2[:, 0] != heads2) & (pairs2[:, 1] != heads2))
            if hits.any():
                i = int(np.flatnonzero(hits)[0])
                return _report(
                    False, 3,
                    (int(heads2[i]), int(pairs2[i, 0]), int(pairs2[i, 1])),
                    link)
        for idx in np.flatnonzero(counts_cv > 2).tolist():
            lo = int(starts[idx])
            hi = lo + int(counts_cv[idx])
            nbrs = other[lo:hi]
            head = int(uniq_cv[idx])
            for i in range(nbrs.size):
                for j in range(i + 1, nbrs.size):
                    a, b = int(nbrs[i]), int(nbrs[j])
                    if a == b or a == head or b == head:
                        continue
                    if has_edges(np.array([[a, b]]))[0]:
                        return _report(False, 3, (head, a, b), link)
    # (b) triangles through an anomalous direction-direction edge
    for a, b in anomalous.tolist():
        na = set(neighbors(a).tolist())
        nb = set(neighbors(b).tolist())
        common = (na & nb) - {a, b}
        if common:
            c = min(common)
            return _report(False, 3, (a, b, c), link)
    return _report(True, None, None, link)


def random_chord_link(rng):
    """A multigraph over directions (ids below ``chord_base``, both
    parities) and chord vertices given 1-3 edges each, with occasional
    self-loops and doubled direction-direction, chord-direction and
    chord-chord edges; edge order and orientation are shuffled."""
    cb = rng.randint(0, 12)
    nch = rng.randint(0, 14)
    n = cb + nch
    if n == 0:
        return LinkGraph(0, np.empty((0, 2), np.int64), 0)
    edges = [(rng.randrange(cb), rng.randrange(cb))
             for _ in range(rng.randint(0, 2 * cb))] if cb else []
    edges = [(x, y) for x, y in edges if x != y]
    for c in range(cb, n):
        edges += [(c, rng.randrange(n)) for _ in range(rng.choice((1, 2, 2, 2, 3)))]
    edges = [(x, y) for x, y in edges if x != y]
    for _ in range(rng.choice((0, 0, 0, 1))):
        v = rng.randrange(n)
        edges.append((v, v))
    if edges:
        edges += [rng.choice(edges) for _ in range(rng.choice((0, 0, 0, 1, 2)))]
    rng.shuffle(edges)
    edges = [(y, x) if rng.random() < 0.5 else (x, y) for x, y in edges]
    return LinkGraph(0, np.asarray(edges, dtype=np.int64).reshape(-1, 2), cb)


def without_repeats(link):
    """The link with every repeated edge kept once, so that the girth
    check gets past doubled edges to the triangle search."""
    n = int(link.edges.max()) + 1
    keys = np.unique(link.edges.min(axis=1) * n + link.edges.max(axis=1))
    return LinkGraph(link.n_gens, np.stack([keys // n, keys % n], axis=1),
                     link.chord_base, alphabet=link.alphabet)


class TestGirthOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_random_chord_multigraphs(self, seed):
        link = random_chord_link(random.Random(seed))
        assert check_large_link(link) == _girth_reference(link)

    def test_seeded_chord_multigraphs(self):
        # every outcome and every triangle path is met by the sweep
        rng = random.Random(8)
        seen = set()
        for _ in range(3000):
            link = random_chord_link(rng)
            rep = check_large_link(link)
            assert rep == _girth_reference(link), link.edges.tolist()
            kind = rep.combinatorial_girth
            if kind == 3:
                head = rep.witness[0]
                kind = ("anomalous edge" if head < link.chord_base else
                        f"degree-{min(np.count_nonzero(link.edges == head), 3)} chord")
            seen.add(kind)
        assert seen == {None, 1, 2, "degree-2 chord", "degree-3 chord",
                        "anomalous edge"}

    @pytest.mark.parametrize("make", [
        lambda: build_link(build_block(BlockParams(2, 28, 14))),
        lambda: build_link(build_chain(2, 14, certify=False)),
        lambda: level_block(build_chain(2, 14, certify=False), 1),
    ], ids=["block_2_28_14", "chain_2_14_union", "chain_2_14_level_1"])
    def test_built_links(self, make):
        link = make()
        rep = check_large_link(link)
        assert rep.ok and rep == _girth_reference(link)

    @pytest.mark.parametrize("L", [5, 8, 11])
    def test_smallest_doubles(self, L):
        link = build_link(build_double(L * L, L ** 3, L, certify=False))
        for g in (link, without_repeats(link)):
            rep = check_large_link(g)
            assert rep == _girth_reference(g)
            assert not rep.ok

    def test_duplicated_row(self):
        link = build_link(build_block(BlockParams(1, 14, 14)))
        e = link.edges
        for row in (0, 1, e.shape[0] - 1):
            bad = LinkGraph(link.n_gens, np.vstack([e, e[row:row + 1]]),
                            link.chord_base)
            rep = check_large_link(bad)
            assert rep == _girth_reference(bad)
            assert rep.combinatorial_girth == 2


class TestEdgelessLink:
    def link(self):
        return LinkGraph(0, np.empty((0, 2), np.int64), 0)

    def test_girth(self):
        rep = check_large_link(self.link())
        assert rep.ok and rep == _girth_reference(self.link())

    def test_separation(self):
        link = self.link()
        rep = check_separation(link, [0, 1])
        assert rep.ok and rep == _separation_reference(self.link(), [0, 1])
        assert link._csr is None


class TestChainGluing:
    def test_single_block_chain(self):
        rep = check_chain_gluing(build_chain(1, 14))
        assert rep.ok and rep.levels == ()

    def test_paper_chain(self):
        rep = check_chain_gluing(build_chain(2, 14))
        assert rep.ok
        assert len(rep.levels) == 1
        k, sep = rep.levels[0]
        assert k == 1 and sep.ok and sep.n_marked == 28

    def test_downscale_chain_reports(self):
        # L=2 geometry is expected to fail; the checker reports it
        rep = check_chain_gluing(build_chain(2, 2))
        assert not rep.ok
        assert not rep.union_girth.ok or any(not s.ok for _, s in rep.levels)

    def test_level_link_marks_attachment(self):
        c = build_chain(2, 14)
        lk = level_link(c, 1)
        assert len(lk.marked["stable-0"]) == 2 * 14
        assert np.array_equal(lk.marked["stable-0"],
                              build_link(c).marked["stable-1"])


CHAINS = [(2, 5), (2, 8), (2, 14), (2, 2), (3, 5)]


class TestGluingOracle:
    """check_chain_gluing reads one union link: each gluing step runs on
    a view of its level's row block, and reports what the level's own
    link would."""

    @pytest.mark.parametrize("l,L", CHAINS)
    def test_levels_match_level_links(self, l, L):
        chain = build_chain(l, L, certify=False)
        want = []
        for k in range(1, l):
            lk = level_link(chain, k)
            want.append((k, check_separation(lk, lk.marked["stable-0"])))
        rep = check_chain_gluing(chain)
        assert rep.levels == tuple(want)
        assert rep.union_girth == check_large_link(build_link(chain))

    def test_failing_witnesses_compared(self):
        # chain(2, 5) fails its gluing step, so its witness pair is pinned
        _, sep = check_chain_gluing(build_chain(2, 5, certify=False)).levels[0]
        assert not sep.ok and sep.witness_pair is not None

    @pytest.mark.parametrize("l,L", CHAINS)
    def test_block_is_level_link_with_shifted_chords(self, l, L):
        chain = build_chain(l, L, certify=False)
        for k in range(1, l):
            block, lk = level_block(chain, k), level_link(chain, k)
            assert block.n_edges == lk.n_edges
            chords = block.edges >= block.chord_base
            shift = np.unique(block.edges[chords] - lk.edges[chords])
            assert shift.size <= 1
            assert np.array_equal(block.edges[~chords], lk.edges[~chords])

    def test_one_link_per_check(self, monkeypatch):
        import catdistort.linkgeom as LG

        calls = []

        def counting(spec):
            calls.append(spec)
            return build_link(spec)

        monkeypatch.setattr(LG, "build_link", counting)
        chain = build_chain(3, 5, certify=False)
        check_chain_gluing(chain)
        assert len(calls) == 1 and calls[0] is chain
