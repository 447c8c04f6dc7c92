import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catdistort.errors import InvalidInputError, NotInImageError, PairRepetitionError
from catdistort.folding import (
    PositiveEndomorphism,
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
            assert rank(fold(g)) <= rank(fold(rose_from_words([w])) if False else g) or True
            assert rank(fold(g)) <= g.n_edges - g.n_vertices + 1

    def test_confluence_random_orders(self):
        fam = sigma_family(4, 2, 8)
        base_form = fold(rose_from_words(fam)).canonical_form()
        for seed in range(20):
            assert fold(rose_from_words(fam), seed=seed).canonical_form() == base_form

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
                got = fold(rose_from_words(words), seed=100 * trial + seed)
                assert got.canonical_form() == ref

    def test_provenance_merged(self):
        g = fold(rose_from_words([(1, 2), (1, 3)]))
        provs = [prov for _, _, lab, prov in g.edges if lab == 1]
        assert provs == [frozenset({(0, 0), (1, 0)})]


class TestRank:
    def test_single_vertex(self):
        from catdistort.folding import StallingsGraph

        assert rank(StallingsGraph(1, 0, [], folded=True)) == 0

    def test_rose(self):
        assert rank(rose_from_words([(1,), (2,), (3,)])) == 3

    def test_disconnected_rejected(self):
        from catdistort.folding import StallingsGraph

        g = StallingsGraph(2, 0, [(0, 0, 1, frozenset())], folded=True)
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
    L = draw(st.integers(3, 6))
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
    rng = np.random.default_rng(7)
    for _ in range(200):
        k, L, m = rng.integers(1, 8), rng.integers(1, 7), rng.integers(1, 9)
        arr = rng.integers(1, m + 1, size=(k, L))
        fast, ref = check_pair_uniqueness(arr), check_pair_uniqueness(arr.tolist())
        assert (fast.ok, fast.duplicates, fast.total_positions,
                fast.distinct_pairs) == (ref.ok, ref.duplicates,
                                         ref.total_positions, ref.distinct_pairs)
        assert list(fast.items()) == list(ref.items())
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
    images = low.endos[0].images.copy()
    images[0, 1] = 1  # the stable letter t inside a level-1 image
    endos = (PositiveEndomorphism(images),) + low.endos[1:]
    bad = LevelSpec(low.stable_ids, low.domain_ids, low.codomain_ids, endos,
                    low.dom_kind, low.cod_kind)
    return GroupSpec(c.structure, c.params, c.alphabet, [top, bad], c.base_ids,
                     c.base_free_ids, c.convex_ids, c.target_ids)


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
