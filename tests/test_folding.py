import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from catdistort.errors import (
    ConstructionError,
    InvalidInputError,
    InvalidParameterError,
    NotInImageError,
    PairRepetitionError,
)
from catdistort.folding import (
    PositiveEndomorphism,
    StallingsGraph,
    certify_injective,
    fold,
    fold_images,
    fold_one_round,
    membership,
    rank,
    rewrite_preimage,
    rose_from_words,
)
from catdistort.presentations import (
    BlockParams,
    GroupSpec,
    LevelSpec,
    build_block,
    build_chain,
    build_double,
    free_group,
    retractions,
    verify_retraction,
)
from catdistort.words import check_pair_uniqueness, chop, free_reduce, invert, sigma_ids


def sigma_family(m, L, k):
    return chop(tuple(int(x) for x in sigma_ids(m)), L, k)


def relabelled(graph, seed):
    """The same based graph with its edge list shuffled and its vertices
    renumbered by a seeded permutation, so that :func:`fold` meets its
    fold pairs in another order.  ``owner``, and with it the petal
    words, travels with each edge."""
    rng = random.Random(seed)
    perm = list(range(graph.n_vertices))
    rng.shuffle(perm)
    order = list(range(graph.n_edges))
    rng.shuffle(order)
    perm, order = np.array(perm), np.array(order)
    return StallingsGraph(graph.n_vertices, int(perm[graph.base]),
                          perm[graph.src[order]], perm[graph.dst[order]],
                          graph.label[order], np.argsort(order)[graph.owner],
                          graph.petal_start)


def graph_of(n_vertices, edges):
    """A folded graph based at vertex 0 with the given (src, dst, label)
    edges and no rose behind it."""
    cols = np.array(edges, dtype=np.int64).reshape(-1, 3)
    return StallingsGraph(n_vertices, 0, cols[:, 0], cols[:, 1], cols[:, 2],
                          np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
                          folded=True)


def random_reduced(rng, rank, max_len):
    out = []
    for _ in range(rng.randrange(0, max_len + 1)):
        x = rng.randrange(1, rank + 1) * rng.choice((1, -1))
        if out and x == -out[-1]:
            continue
        out.append(x)
    return tuple(out)


class TestRose:
    def test_single_loop(self):
        g = rose_from_words([(1,)])
        assert g.n_vertices == 1 and g.n_edges == 1

    def test_two_letter_petal(self):
        g = rose_from_words([(1, 2)])
        assert g.n_vertices == 2 and g.n_edges == 2

    def test_block_family_counts(self):
        fam = sigma_family(14, 14, 14)
        g = rose_from_words(fam)
        assert g.n_edges == 14 * 14
        assert g.n_vertices == 14 * 13 + 1

    def test_rejects_empty_petal(self):
        with pytest.raises(InvalidInputError):
            rose_from_words([(1,), ()])

    def test_inverse_letters_orient_edges(self):
        g = fold(rose_from_words([(1, -2)]))
        # path: base --1--> v, base --2--> v
        assert g.n_edges == 2
        assert membership(g, (1, -2))
        assert not membership(g, (1, 2))


class TestFold:
    def test_shared_prefix(self):
        g = fold(rose_from_words([(1, 2), (1, 3)]))
        # the two a1 edges fold together: 3 edges, 2 vertices
        assert g.n_edges == 3 and g.n_vertices == 2
        assert rank(g) == 2

    def test_duplicate_generator(self):
        g = fold(rose_from_words([(1,), (1,)]))
        assert rank(g) == 1

    def test_immersion_property(self):
        g = fold(rose_from_words(sigma_family(6, 3, 12)))
        out_seen, in_seen = set(), set()
        for u, v, lab, _ in g.edges:
            assert (u, lab) not in out_seen
            assert (v, lab) not in in_seen
            out_seen.add((u, lab))
            in_seen.add((v, lab))

    def test_rank_never_increases(self):
        rng = random.Random(5)
        for _ in range(30):
            words = [random_reduced(rng, 3, 6) or (1,) for _ in range(3)]
            words = [w for w in words if w]
            g = rose_from_words(words)
            assert rank(fold(g)) <= g.n_edges - g.n_vertices + 1

    def test_confluence_random_orders(self):
        fam = sigma_family(4, 2, 8)
        base_form = fold(rose_from_words(fam)).canonical_form()
        for seed in range(20):
            got = fold(relabelled(rose_from_words(fam), seed))
            assert got.canonical_form() == base_form

    def test_confluence_random_roses(self):
        rng = random.Random(11)
        for trial in range(10):
            words = []
            for _ in range(3):
                w = random_reduced(rng, 3, 8)
                if w:
                    words.append(w)
            if not words:
                continue
            ref = fold(rose_from_words(words)).canonical_form()
            for seed in range(5):
                got = fold(relabelled(rose_from_words(words), 100 * trial + seed))
                assert got.canonical_form() == ref

    def test_provenance_merged(self):
        g = fold(rose_from_words([(1, 2), (1, 3)]))
        provs = [prov for _, _, lab, prov in g.edges if lab == 1]
        assert provs == [frozenset({(0, 0), (1, 0)})]


class TestRank:
    def test_single_vertex(self):
        assert rank(graph_of(1, [])) == 0

    def test_rose(self):
        assert rank(rose_from_words([(1,), (2,), (3,)])) == 3

    def test_disconnected_rejected(self):
        g = graph_of(2, [(0, 0, 1)])
        with pytest.raises(InvalidInputError):
            rank(g)


class TestCertify:
    def test_swap_images_injective(self):
        phi = PositiveEndomorphism([(1, 2), (2, 1)])
        cert = certify_injective(phi)
        assert cert.injective and cert.folded_rank == 2

    def test_collapsed_images_not_injective(self):
        phi = PositiveEndomorphism([(1,), (1,)])
        cert = certify_injective(phi)
        assert not cert.injective and cert.folded_rank == 1

    def test_pair_repetition_rejected_at_construction(self):
        with pytest.raises(PairRepetitionError):
            PositiveEndomorphism([(1, 2), (1, 2)])

    @pytest.mark.parametrize("L,n_max", [(3, 10), (14, 10)])
    def test_sigma_blocks_injective(self, L, n_max):
        for n in range(1, n_max + 1):
            m = L * n
            fam = sigma_family(m, L, m * n)
            for i in range(n):
                phi = PositiveEndomorphism(fam[i * m:(i + 1) * m])
                assert certify_injective(phi).injective, (L, n, i)

    def test_sigma_blocks_L2_small(self):
        for n in (1, 2, 3):
            m = 2 * n
            fam = sigma_family(m, 2, m * n)
            for i in range(n):
                phi = PositiveEndomorphism(fam[i * m:(i + 1) * m])
                assert certify_injective(phi).injective, (n, i)

    def test_sigma_block_L2_n4_fails(self):
        # at L=2 the tail of the square word packs a "rectangle": two
        # first letters sharing two last letters, which kills a loop.
        m = 8
        fam = sigma_family(m, 2, m * 4)
        phi = PositiveEndomorphism(fam[3 * m:4 * m])
        cert = certify_injective(phi)
        assert not cert.injective and cert.folded_rank == m - 1
        # exhibit a kernel element: x_p x_i^-1 x_j x_k^-1 with images
        # (z u)(x u)^-1 (x y)(z y)^-1
        rows = [tuple(r) for r in fam[3 * m:4 * m]]
        found = None
        for p in range(m):
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        if len({p, i, j, k}) != 4:
                            continue
                        zp, up = rows[p]
                        xi, ui = rows[i]
                        xj, yj = rows[j]
                        zk, yk = rows[k]
                        if up == ui and xi == xj and yj == yk and zk == zp:
                            found = (p + 1, -(i + 1), j + 1, -(k + 1))
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        assert free_reduce(phi.apply(found)) == ()


class TestMembership:
    def test_empty_word(self):
        phi = PositiveEndomorphism(sigma_family(4, 2, 4))
        assert membership(phi.graph, ())

    def test_generators_in(self):
        fam = sigma_family(14, 14, 14)
        phi = PositiveEndomorphism(fam)
        assert membership(phi.graph, fam[0])

    def test_single_letter_out(self):
        phi = PositiveEndomorphism(sigma_family(14, 14, 14))
        assert not membership(phi.graph, (1,))

    def _subgroup_ball_oracle(self, gens, max_len, slack):
        """All subgroup elements of reduced length <= max_len, found by
        multiplying generators with an excursion allowance."""
        moves = [tuple(g) for g in gens] + [invert(g) for g in gens]
        seen = {()}
        frontier = [()]
        while frontier:
            nxt = []
            for w in frontier:
                for mv in moves:
                    r = free_reduce(w + mv)
                    if len(r) <= max_len + slack and r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return {w for w in seen if len(w) <= max_len}

    @pytest.mark.parametrize("gens", [
        [(1, 2), (2, 1)],
        [(1, 1), (2, 2)],
        [(1, 2, -1), (2, 2), (1, 1, 2, 2)],
        [(1,), (2, 1, 2)],
    ])
    def test_membership_vs_brute_force(self, gens):
        graph = fold(rose_from_words(gens))
        S = self._subgroup_ball_oracle(gens, 8, 8)
        # walk the whole radius-8 ball of the rank-2 free group
        def walk(prefix):
            if len(prefix) == 8:
                return
            for g in (1, -1, 2, -2):
                if prefix and g == -prefix[-1]:
                    continue
                w = prefix + (g,)
                assert membership(graph, w) == (w in S), w
                walk(w)

        assert membership(graph, ())
        walk(())


class TestPreimage:
    def test_defining_images(self):
        fam = sigma_family(14, 14, 14)
        phi = PositiveEndomorphism(fam)
        for j, w in enumerate(fam):
            assert rewrite_preimage(phi, w) == (j + 1,)

    def test_reduced_product(self):
        phi = PositiveEndomorphism(sigma_family(14, 14, 14))
        w = free_reduce(phi.apply((1, -2)))
        assert rewrite_preimage(phi, w) == (1, -2)

    def test_not_in_image(self):
        phi = PositiveEndomorphism(sigma_family(14, 14, 14))
        with pytest.raises(NotInImageError):
            rewrite_preimage(phi, (1,))

    def test_non_injective_rejected(self):
        phi = PositiveEndomorphism([(1,), (1,)])
        with pytest.raises(InvalidInputError):
            rewrite_preimage(phi, (1,))

    @pytest.mark.parametrize("m,L", [(14, 14), (6, 3), (4, 2), (2, 2)])
    def test_round_trip_random(self, m, L):
        fam = sigma_family(m, L, m)
        phi = PositiveEndomorphism(fam)
        if not certify_injective(phi).injective:
            pytest.skip("family not injective")
        rng = random.Random(int(f"{m}{L}"))
        for _ in range(300):
            v = random_reduced(rng, m, 30)
            w = phi.apply(v)
            assert rewrite_preimage(phi, free_reduce(w)) == v

    def test_round_trip_vanishing_chunks(self):
        # second half of the L=2 chop of the square word on 4 letters:
        # junction cancellation can swallow whole chunks
        fam = sigma_family(4, 2, 8)[4:]
        phi = PositiveEndomorphism(fam)
        assert certify_injective(phi).injective
        rng = random.Random(99)
        for _ in range(500):
            v = random_reduced(rng, 4, 14)
            w = phi.apply(v)
            assert rewrite_preimage(phi, free_reduce(w)) == v

    def test_length_bound_for_long_images(self):
        # junction cancellation loses at most one letter per side, so for
        # L >= 3 the preimage is never longer than the image word
        for m, L in ((14, 14), (6, 3)):
            fam = sigma_family(m, L, m)
            phi = PositiveEndomorphism(fam)
            rng = random.Random(m * L)
            for _ in range(100):
                v = random_reduced(rng, m, 20)
                w = free_reduce(phi.apply(v))
                assert len(v) <= len(w)


class TestDomainLetters:
    """A map reads and returns the global ids of its level's domain."""

    @pytest.fixture(scope="class")
    def chain(self):
        return build_chain(2, 5, certify=False)

    def test_builders_share_the_level_domain(self, chain):
        for lv in chain.levels:
            assert all(phi.domain_ids is lv.domain_ids for phi in lv.endos)

    def test_chain_preimage_is_over_the_level_domain(self, chain):
        rng = random.Random(12)
        for lv in chain.levels:
            dom = lv.domain_ids
            for phi in lv.endos:
                a1 = dom[0]
                assert phi.preimage(phi.apply((a1,))) == (a1,)
                for _ in range(20):
                    v = free_reduce([rng.choice(dom) * rng.choice((1, -1))
                                     for _ in range(rng.randrange(1, 7))])
                    w = phi.apply(v)
                    u = phi.preimage(w)
                    assert u == v and phi.apply(u) == w

    @pytest.mark.parametrize("letter", [0, 99, -99, 1, -1])
    def test_apply_refuses_letters_outside_the_domain(self, chain, letter):
        # 1 is the chain's t, which is not in the level-1 domain a^(2)
        phi = chain.levels[1].endos[0]
        with pytest.raises(InvalidInputError, match=f"letter {letter} "):
            phi.apply((phi.domain_ids[0], letter))

    def test_default_domain_refuses_zero(self):
        phi = PositiveEndomorphism(sigma_family(14, 14, 14))
        assert phi.domain_ids == tuple(range(1, 15))
        with pytest.raises(InvalidInputError, match="letter 0 "):
            phi.apply((0,))

    def test_domain_ids_must_name_every_row(self):
        with pytest.raises(InvalidParameterError):
            PositiveEndomorphism([(1, 2), (2, 3), (3, 1)], (5, 6))

    @pytest.mark.parametrize("ids", [(5, 6, 6), (0, 6, 7), (-5, 6, 7)])
    def test_domain_ids_checked_before_first_use(self, ids):
        phi = PositiveEndomorphism([(1, 2), (2, 3), (3, 1)], ids)
        for use in (lambda: phi.apply((6,)), lambda: phi.preimage((2, 3))):
            with pytest.raises(InvalidParameterError):
                use()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 14).flatmap(
    lambda g: st.sampled_from([g, -g])), max_size=30))
def test_round_trip_hypothesis(letters):
    fam = sigma_family(14, 14, 14)
    phi = PositiveEndomorphism(fam)
    v = free_reduce(letters)
    assert rewrite_preimage(phi, free_reduce(phi.apply(v))) == v


# -- array-native certification, against the general paths -----------------


def assert_same_as_fold(rows):
    """The one-round graph equals fold's, edge for edge and id for id."""
    fast = fold_one_round(rows)
    ref = fold(rose_from_words(np.asarray(rows).tolist()))
    assert fast is not None
    assert fast.edges == ref.edges
    assert (fast.n_vertices, fast.n_edges, fast.base) == (
        ref.n_vertices, ref.n_edges, ref.base)
    assert fast.canonical_form() == ref.canonical_form()
    assert rank(fast) == rank(ref)


@st.composite
def pair_unique_families(draw):
    """Chunks of the square word over a shuffled alphabet, in drawn order."""
    L = draw(st.integers(1, 6))
    m = draw(st.integers(3, 9))
    letters = draw(st.permutations(range(1, m + 1)))
    offset = draw(st.integers(0, 5))
    word = np.asarray(letters)[sigma_ids(m) - 1] + offset
    chunks = chop(tuple(word.tolist()), L, m * m // L)
    pick = draw(st.lists(st.integers(0, len(chunks) - 1), min_size=1,
                         unique=True))
    return np.array([chunks[i] for i in pick])


@settings(max_examples=150, deadline=None)
@given(pair_unique_families())
def test_one_round_matches_fold_hypothesis(rows):
    assert check_pair_uniqueness(rows).ok
    if rows.shape[1] < 3:
        assert fold_one_round(rows) is None
    else:
        assert_same_as_fold(rows)


@pytest.mark.parametrize("build", [
    lambda: build_chain(2, 14, certify=False),
    lambda: build_chain(3, 5, certify=False),
    lambda: build_block(BlockParams(3, 42, 14), certify=False),
    lambda: build_double(9, 27, 3, certify=False),
], ids=["chain-2-14", "chain-3-5", "block-3-42-14", "double-9-27-3"])
def test_one_round_matches_fold_on_built_groups(build):
    for lv in build().levels:
        for phi in lv.endos:
            assert_same_as_fold(phi.images)


def test_one_round_matches_fold_on_paper_maps():
    d = build_double(196, 2744, 14, certify=False)
    assert_same_as_fold(d.levels[1].endos[39].images)  # t40
    assert_same_as_fold(d.levels[0].endos[0].images)   # s


@pytest.mark.parametrize("rows", [
    [(1,), (1,)],
    [(1, 2), (2, 1)],
    [tuple(r) for r in sigma_family(8, 2, 32)[24:]],  # the L = 2 rectangle
])
def test_short_images_go_through_fold(rows):
    assert fold_one_round(np.array(rows)) is None
    phi = PositiveEndomorphism(rows)
    assert phi.graph.edges == fold(rose_from_words(rows)).edges


@pytest.mark.parametrize("rows,refused", [
    ([(1, 2, 3), (1, 2, 4)], True),        # repeated pair after a shared first letter
    ([(3, 2, 1), (4, 2, 1)], True),        # repeated pair before a shared last letter
    ([(1, 2, 3, 4), (5, 2, 3, 6)], False),  # the rose is already folded
    ([(1, 2, 3, 1, 2, 4)], False),
])
def test_one_round_refuses_repeated_pairs(rows, refused):
    # called directly, past the constructor's pair census
    rows = np.array(rows)
    assert not check_pair_uniqueness(rows).ok
    fast = fold_one_round(rows)
    ref = fold(rose_from_words(rows.tolist()))
    if refused:
        assert fast is None
    else:
        assert fast.edges == ref.edges and fast.n_vertices == ref.n_vertices
    assert fold_images(rows).edges == ref.edges


def test_certificate_holds_arrays_only():
    phi = PositiveEndomorphism(sigma_family(14, 14, 14))
    cert = certify_injective(phi)
    assert cert.injective and cert.folded_rank == 14
    assert cert.graph._edges is None  # no per-edge tuples were built
    assert len(cert.graph.edges) == cert.graph.n_edges


def test_census_array_matches_ragged_path():
    """A family given as an array, an int32 array or a list of rows gets
    one census."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        k, L, m = rng.integers(1, 8), rng.integers(1, 7), rng.integers(1, 9)
        arr = rng.integers(1, m + 1, size=(k, L))
        reps = [check_pair_uniqueness(f)
                for f in (arr, arr.astype(np.int32), arr.tolist())]
        assert len({(r.ok, r.duplicates, r.total_positions,
                     r.distinct_pairs) for r in reps}) == 1
    with pytest.raises(InvalidInputError):
        check_pair_uniqueness([[1, 2, 3], [1, 2]])
    with pytest.raises(InvalidInputError):
        check_pair_uniqueness(np.array([[1, 0, 2]]))
    with pytest.raises(InvalidInputError):
        check_pair_uniqueness(np.empty((2, 0), dtype=np.int64))


def _retraction_by_relators(spec):
    """The relator-by-relator check the vectorized one replaced."""
    for _, kept in retractions(spec):
        for r in spec.relators():
            rw = r.word()
            img = tuple(x for x in rw if abs(x) in kept)
            if len(img) != len(rw) and free_reduce(img):
                return False
    return True


def _chain_with_t_in_an_image():
    c = build_chain(2, 3, certify=False)
    top, low = c.levels
    images = low.images.copy()
    images[0, 1] = 1  # the stable letter t inside a level-1 image
    bad = LevelSpec(low.stable_ids, low.domain_ids, low.codomain_ids, images,
                    low.dom_kind, low.cod_kind)
    return GroupSpec(c.structure, c.params, c.alphabet, [top, bad], c.base_ids,
                     c.convex_ids)


@pytest.mark.parametrize("build", [
    lambda: build_block(BlockParams(1, 14, 14), certify=False),
    lambda: build_block(BlockParams(1, 2, 2), certify=False),
    lambda: build_block(BlockParams(3, 42, 14), certify=False),
    lambda: build_chain(2, 2, certify=False),
    lambda: build_chain(2, 14, certify=False),
    lambda: build_chain(3, 5, certify=False),
    lambda: build_double(9, 27, 3, certify=False),
    lambda: free_group(3),
    _chain_with_t_in_an_image,
])
def test_retraction_matches_relator_loop(build):
    spec = build()
    assert verify_retraction(spec) == _retraction_by_relators(spec)


def test_retraction_fails_with_t_in_an_image():
    assert not verify_retraction(_chain_with_t_in_an_image())


# -- preimages read off petal words, against the chunk parse ------------------

#: visits allowed to each phase of the parse oracle where it backtracks
#: exponentially (the t-maps of double(9, 27, 3), non-injective families,
#: words outside an L <= 2 image); past it, a case is checked against the
#: known preimage only
PARSE_BUDGET = 2000


def _parse(phi, w, allow_fallback, rem_cap, budget):
    """A reduced u with phi(u) = w, found by a depth-first search that
    strips one image chunk (or inverse chunk) at a time off the front of
    the reduced word w, keeping the chunk's uncancelled remnant.  None
    when the search ends without one or passes ``budget`` visits."""
    rows = [tuple(r) for r in phi.images.tolist()]
    neg_rows = [invert(r) for r in rows]
    by_first: dict[int, tuple[int, ...]] = {}
    by_last: dict[int, tuple[int, ...]] = {}
    for j, row in enumerate(rows):
        by_first[row[0]] = by_first.get(row[0], ()) + (j,)
        by_last[row[-1]] = by_last.get(row[-1], ()) + (j,)
    m, wlen = len(rows), len(w)

    def step(i, rem, j, e):
        # strip chunk (row j)^e from the front of rem + w[i:]
        stack = list(neg_rows[j]) if e > 0 else list(rows[j])
        p, q = 0, i
        rl = len(rem)
        while stack:
            if p < rl:
                nxt = rem[p]
            elif q < wlen:
                nxt = w[q]
            else:
                break
            if nxt != -stack[-1]:
                break
            stack.pop()
            if p < rl:
                p += 1
            else:
                q += 1
        return q, tuple(stack) + rem[p:]

    def candidates(first, prev):
        if first > 0:
            seeded, es = by_first.get(first, ()), 1
        else:
            seeded, es = by_last.get(-first, ()), -1
        for j in seeded:
            if prev is None or (j, es) != (prev[0], -prev[1]):
                yield (j, es)
        if allow_fallback:
            for j in range(m):
                for e in (1, -1):
                    if (e == es and j in seeded) or (
                            prev is not None and (j, e) == (prev[0], -prev[1])):
                        continue
                    yield (j, e)

    # iterative DFS over (position, remnant, last chunk) states; a state
    # already on the stack cannot help, so cycles are skipped
    failed, on_stack = set(), set()
    visits = 0
    root = (0, (), None)
    frames = [(root, candidates(w[0], None))]
    on_stack.add(root)
    path = []
    while frames:
        (i, rem, prev), it = frames[-1]
        for j, e in it:
            q, new_rem = step(i, rem, j, e)
            state = (q, new_rem, (j, e))
            if len(new_rem) > rem_cap or state in failed or state in on_stack:
                continue
            visits += 1
            if budget is not None and visits > budget:
                return None
            path.append((j + 1) * e)
            if not new_rem and q == wlen:
                return tuple(path)
            frames.append((state, candidates(new_rem[0] if new_rem else w[q],
                                             (j, e))))
            on_stack.add(state)
            break
        else:
            state = frames.pop()[0]
            failed.add(state)
            on_stack.discard(state)
            if path:
                path.pop()
    return None


def _parse_oracle(phi, w, budget=None):
    """The chunk parse of a reduced word, in phases, or None when no
    phase finds one.  For L >= 3 only chunks seeded by the next letter
    are tried, which is complete because junction cancellation cannot
    reach a chunk's first letter.  For L <= 2 whole chunks can vanish,
    so later phases try every chunk, with wider remnant caps; the last
    phase has no visit budget of its own.  ``budget`` caps every phase."""
    if not w:
        return ()
    L = phi.length
    phases = [(False, 2 * L + 2, None)]
    if L <= 2:
        phases = [(False, 2 * L + 2, 100_000),
                  (True, 4 * L + 8, 4_000_000),
                  (True, 64 * L, None)]
    for allow_fallback, rem_cap, cap in phases:
        if budget is not None:
            cap = budget if cap is None else min(cap, budget)
        got = _parse(phi, w, allow_fallback, rem_cap, cap)
        if got is not None:
            return _in_domain(phi.domain_ids, got)
    return None


def _in_domain(domain_ids, u):
    """A word over the row numbers 1..m, in the domain's letter ids."""
    return tuple(domain_ids[y - 1] if y > 0 else -domain_ids[-y - 1] for y in u)


def _junction_pairs(rows):
    """Two-letter preimages whose images cancel at the junction: a row
    then the inverse of another row with the same last letter, and the
    inverse of a row then another row with the same first letter."""
    rows = np.asarray(rows)
    out = []
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j and rows[i, -1] == rows[j, -1]:
                out.append((i + 1, -(j + 1)))
            if i != j and rows[i, 0] == rows[j, 0]:
                out.append((-(i + 1), j + 1))
    return out


def _check_read(phi, u, budget=None):
    """preimage(phi(u)) is u, and the parse oracle agrees when it
    answers.  Returns whether it answered."""
    w = phi.apply(u)
    assert phi.preimage(w) == u
    want = _parse_oracle(phi, w, budget)
    assert want is None or want == u
    return want is not None


@st.composite
def families_with_words(draw):
    rows = draw(pair_unique_families())
    k = len(rows)
    u = draw(st.lists(st.integers(1, k).flatmap(
        lambda j: st.sampled_from([j, -j])), max_size=6))
    pairs = _junction_pairs(rows)
    if pairs:
        at = draw(st.integers(0, len(u)))
        u[at:at] = draw(st.sampled_from(pairs))
    return rows, free_reduce(u)


@settings(max_examples=150, deadline=None)
@given(families_with_words())
def test_graph_read_matches_parse_hypothesis(case):
    rows, u = case
    phi = PositiveEndomorphism(rows)
    if phi.certificate.injective:
        _check_read(phi, u, PARSE_BUDGET)
        return
    # a non-injective map: the read is some preimage, as is the parse's
    w = phi.apply(u)
    assert phi.apply(phi.preimage(w)) == w
    want = _parse_oracle(phi, w, PARSE_BUDGET)
    assert want is None or phi.apply(want) == w


def _maps_of(spec):
    return [phi for lv in spec.levels for phi in lv.endos]


@pytest.mark.parametrize("build,budget", [
    (lambda: build_chain(2, 5, certify=False), None),
    (lambda: build_block(BlockParams(1, 14, 14), certify=False), None),
    (lambda: build_block(BlockParams(1, 2, 2), certify=False), None),
    (lambda: build_double(9, 27, 3, certify=False), PARSE_BUDGET),
], ids=["chain-2-5", "block-1-14-14", "block-1-2-2", "double-9-27-3"])
def test_graph_read_matches_parse_on_built_groups(build, budget):
    rng = random.Random(31)
    for lv in build().levels:
        for phi in lv.endos:
            pairs = _junction_pairs(phi.images)
            cases = [(j,) for j in range(1, phi.domain_rank + 1)]
            cases += [free_reduce(p) for p in rng.sample(pairs, min(3, len(pairs)))]
            cases += [random_reduced(rng, phi.domain_rank, 5) for _ in range(12)]
            cases = [_in_domain(lv.domain_ids, u) for u in cases]
            assert not pairs or any(
                len(phi.apply(u)) < phi.length * len(u) for u in cases)
            answered = [_check_read(phi, u, budget) for u in cases]
            assert budget is not None or all(answered)
            assert any(answered)


def test_graph_read_matches_parse_on_paper_maps():
    d = build_double(196, 2744, 14, certify=False)
    rng = random.Random(40)
    s_map, t40 = d.levels[0].endos[0], d.levels[1].endos[39]
    for phi, n_words, length in ((s_map, 12, 3), (t40, 4, 2)):
        pairs = _junction_pairs(phi.images[:200])
        cases = [free_reduce(p) for p in rng.sample(pairs, 2)]
        cases += [random_reduced(rng, phi.domain_rank, length)
                  for _ in range(n_words)]
        for u in cases:
            assert _check_read(phi, u)


@pytest.mark.parametrize("rows", [
    sigma_family(14, 14, 14),
    sigma_family(6, 3, 12),
    sigma_family(4, 2, 8)[4:],  # L = 2: the parse's last phase is unbudgeted
])
def test_words_outside_the_image_raise_on_both_paths(rows):
    phi = PositiveEndomorphism(rows)
    assert phi.certificate.injective
    rng = random.Random(5)
    outside = inside = 0
    for _ in range(60):
        w = list(phi.apply(random_reduced(rng, phi.domain_rank, 4)) or (1,))
        w[rng.randrange(len(w))] = rng.choice((1, -1)) * rng.randint(
            1, int(phi.images.max()))
        w = free_reduce(w)
        if phi.membership(w):
            # the change kept the word in the image
            u = phi.try_preimage(w)
            assert phi.apply(u) == w
            assert _parse_oracle(phi, w, PARSE_BUDGET) in (None, u)
            inside += 1
            continue
        assert phi.try_preimage(w) is None
        with pytest.raises(NotInImageError):
            phi.preimage(w)
        assert _parse_oracle(phi, w, PARSE_BUDGET) is None
        outside += 1
    assert outside >= 10 and inside >= 1


@pytest.mark.parametrize("rows", [
    sigma_family(2, 2, 2),
    [tuple(r) for r in sigma_family(4, 2, 8)[4:]],
])
def test_short_images_read_off_fold_words(rows):
    phi = PositiveEndomorphism(rows)
    assert fold_one_round(rows) is None  # folded by fold, not in one round
    rng = random.Random(2)
    for _ in range(30):
        assert _check_read(phi, random_reduced(rng, phi.domain_rank, 6))


def test_corrupted_petal_words_raise():
    # a hand-made fault: petals 1 and 2 swap words, so the read of
    # phi(1, 2) is (2, 1), which phi does not map back
    phi = PositiveEndomorphism(sigma_family(14, 14, 14))
    words = phi.graph.petal_words()
    e1, e2 = words.index((1,)), words.index((2,))
    words[e1], words[e2] = (2,), (1,)
    with pytest.raises(ConstructionError):
        phi.preimage(phi.apply((1, 2)))


def test_read_serves_a_deep_double_t_preimage():
    # through t1 of double(9, 27, 3) the chunk parse took 52 s for this
    # kind of 4-letter preimage; the read serves it in one trace
    phi = build_double(9, 27, 3, certify=False).levels[1].endos[0]
    rng = random.Random(52)
    for _ in range(20):
        u = random_reduced(rng, phi.domain_rank, 4)
        u = u or (1, -2, 3, -4)
        assert rewrite_preimage(phi, phi.apply(u)) == u
    assert rewrite_preimage(phi, phi.apply((3, -7, 12, 5))) == (3, -7, 12, 5)


# -- petal words: the same preimages from every folding, exact petal loops ---


def _with_graph(rows, graph):
    """The map on rows, reading its preimages off ``graph``."""
    phi = PositiveEndomorphism(rows)
    phi._graph = graph
    return phi


def _graphs_of(rows, seeds=(1, 2, 3)):
    rose = rose_from_words(np.asarray(rows).tolist())
    graphs = [fold(rose)] + [fold(relabelled(rose, s)) for s in seeds]
    one_round = fold_one_round(rows)
    return graphs + ([one_round] if one_round is not None else [])


@settings(max_examples=60, deadline=None)
@given(families_with_words())
def test_fold_orders_read_the_one_round_preimage(case):
    rows, u = case
    assume(rows.shape[1] >= 3)
    w = PositiveEndomorphism(rows).apply(u)
    want = _with_graph(rows, fold_one_round(rows)).preimage(w)
    assert want == u
    for graph in _graphs_of(rows):
        assert _with_graph(rows, graph).preimage(w) == want


def _assert_petal_loops(rows, graph):
    """Along petal j's path, the edges its rose edges descend to, the
    petal words, inverted on edges crossed backwards, multiply to
    (j + 1,)."""
    owner = {pp: e for e, (*_, prov) in enumerate(graph.edges) for pp in prov}
    words = graph.petal_words()
    for j, row in enumerate(rows):
        loop = [y for p, x in enumerate(row) for y in
                (words[owner[(j, p)]] if x > 0 else invert(words[owner[(j, p)]]))]
        assert free_reduce(loop) == (j + 1,)


@settings(max_examples=100, deadline=None)
@given(pair_unique_families())
def test_petal_loops_read_their_letter_hypothesis(rows):
    assume(PositiveEndomorphism(rows).certificate.injective)
    for graph in _graphs_of(rows):
        _assert_petal_loops(rows, graph)


@pytest.mark.parametrize("build", [
    lambda: build_chain(2, 5, certify=False),
    lambda: build_block(BlockParams(1, 2, 2), certify=False),
    lambda: build_double(9, 27, 3, certify=False),
], ids=["chain-2-5", "block-1-2-2", "double-9-27-3"])
def test_petal_loops_read_their_letter_on_built_groups(build):
    for phi in _maps_of(build()):
        for graph in _graphs_of(phi.images, seeds=(1,)):
            _assert_petal_loops(phi.images, graph)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=6),
                min_size=1, max_size=5), st.integers(0, 3))
# folding (1, 1, 2) with (1, 2) unites the base's class with one of more
# edge slots; re-gauging the base there would conjugate every read
@example(rows=[(1, 1, 2), (1, 2)], seed=0)
def test_petal_loops_read_their_letter_on_any_positive_rose(rows, seed):
    # repeated pairs allowed: folds then reach deep into the petals
    rose = rose_from_words(rows)
    graph = fold(relabelled(rose, seed) if seed else rose)
    assume(rank(graph) == len(rows))
    _assert_petal_loops(rows, graph)


@pytest.mark.parametrize("rows", [[(1, -2, 3), (2, 3)], [(-1,), (2, 3)]])
def test_signed_rose_petal_loops_read_their_letter(rows):
    rose = rose_from_words(rows)
    for graph in (rose, fold(rose)):
        _assert_petal_loops(rows, graph)


def test_random_signed_roses_keep_petal_loops():
    rng = np.random.default_rng(5)
    full_rank = 0
    for _ in range(400):
        k = int(rng.integers(1, 5))
        rows = [tuple(int(x) for x in rng.choice((-1, 1), n)
                      * rng.integers(1, 4, n)) for n in rng.integers(1, 6, k)]
        rose = rose_from_words(rows)
        graph = fold(rose)
        if rank(graph) != k:
            continue
        full_rank += 1
        _assert_petal_loops(rows, rose)
        _assert_petal_loops(rows, graph)
    assert full_rank >= 200
