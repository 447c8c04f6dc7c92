import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catdistort.errors import InvalidInputError, InvalidParameterError
from catdistort.linkgeom import (
    LinkGraph,
    SeparationReport,
    build_level_link,
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
    Relator,
    build_block,
    build_chain,
    build_double,
    free_group,
)


def one_cell_relator(L, stable=100, base=1):
    return Relator(stable, base, tuple(range(1, L + 1)))


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

    def test_unknown_scheme(self):
        with pytest.raises(InvalidParameterError):
            decompose_cell(one_cell_relator(14), scheme="fan")

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

    def test_sorted_keys_left_by_girth_check(self):
        link = build_link(build_block(BlockParams(2, 28, 14)))
        assert check_large_link(link).ok
        fresh = LinkGraph(link.n_gens, link.edges, link.chord_base)
        assert np.array_equal(link._keys(), fresh._keys())
        assert link._key_mod == fresh._key_mod

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
            assert link.neighbors(v).tolist() == rows.get(v, [])

    def test_paper_chain_level_link(self):
        lk = build_level_link(build_chain(2, 14, certify=False), 1)
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
        lk = build_level_link(c, 1)
        assert len(lk.marked["stable-0"]) == 2 * 14
