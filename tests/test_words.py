import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catdistort.errors import (
    InsufficientLengthError,
    InvalidInputError,
    InvalidParameterError,
)
from catdistort.words import (
    Alphabet,
    Gen,
    alphabet_of,
    check_pair_uniqueness,
    chop,
    free_reduce,
    invert,
    is_positive,
    is_reduced,
    sigma,
    sigma_ids,
)


def raw_words(max_rank=5, max_len=200):
    letters = st.integers(min_value=1, max_value=max_rank).flatmap(
        lambda g: st.sampled_from([g, -g])
    )
    return st.lists(letters, max_size=max_len).map(tuple)


class TestFreeReduce:
    def test_full_cancellation(self):
        # a1 t t^-1 a1^-1 with t encoded as 9
        assert free_reduce((1, 9, -9, -1)) == ()

    def test_already_reduced(self):
        assert free_reduce((1, 2, -1)) == (1, 2, -1)

    def test_nested_cancellation(self):
        # t a a^-1 b b^-1 t^-1 t  ->  t   (hand-traced)
        assert free_reduce((9, 1, -1, 2, -2, -9, 9)) == (9,)

    @settings(max_examples=200, deadline=None)
    @given(raw_words())
    def test_idempotent(self, w):
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert is_reduced(r)

    @settings(max_examples=200, deadline=None)
    @given(raw_words())
    def test_length_parity(self, w):
        assert (len(free_reduce(w)) - len(w)) % 2 == 0

    @settings(max_examples=100, deadline=None)
    @given(raw_words(max_len=40))
    def test_inverse_cancels(self, w):
        assert free_reduce(tuple(w) + invert(w)) == ()

    @settings(max_examples=200, deadline=None)
    @given(raw_words(max_rank=3, max_len=60))
    def test_matches_deleting_pairs(self, w):
        # the definition: delete adjacent x, -x pairs until none is left
        r = list(w)
        i = 0
        while i + 1 < len(r):
            if r[i] == -r[i + 1]:
                del r[i:i + 2]
                i = max(i - 1, 0)
            else:
                i += 1
        assert free_reduce(w) == tuple(r)
        assert free_reduce(np.array(w, dtype=np.int64)) == tuple(r)


class TestSigma:
    def test_m2(self):
        assert sigma(alphabet_of("a", 2)) == (1, 1, 2, 2)

    def test_m3(self):
        assert sigma(alphabet_of("a", 3)) == (1, 1, 2, 1, 3, 2, 2, 3, 3)

    def test_rejects_small(self):
        with pytest.raises(InvalidParameterError):
            sigma_ids(1)

    @pytest.mark.parametrize("m", [2, 3, 7, 14, 50, 200])
    def test_square_length(self, m):
        assert sigma_ids(m).size == m * m

    def test_square_length_full_range(self):
        for m in range(2, 201):
            assert sigma_ids(m).size == m * m

    @pytest.mark.parametrize("m", [2, 5, 14, 60, 200])
    def test_pair_uniqueness(self, m):
        assert check_pair_uniqueness([sigma_ids(m)]).ok

    def test_positive(self):
        assert is_positive(sigma(alphabet_of("a", 6)))


def _pair_census_oracle(words):
    counts = {}
    for w in words:
        for i in range(len(w) - 1):
            p = (int(w[i]), int(w[i + 1]))
            counts[p] = counts.get(p, 0) + 1
    return counts


class TestPairCensus:
    def test_engineered_repetition(self):
        rep = check_pair_uniqueness([(1, 2, 1, 2)])
        assert not rep.ok
        assert rep.duplicates == (((1, 2), 2),)

    def test_counts_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k, L, m = rng.integers(1, 8), rng.integers(1, 7), rng.integers(1, 9)
            arr = rng.integers(1, m + 1, size=(k, L))
            oracle = _pair_census_oracle(arr.tolist())
            dups = tuple(sorted((p, c) for p, c in oracle.items() if c > 1))
            rep = check_pair_uniqueness(arr)
            assert (rep.ok, rep.duplicates, rep.total_positions,
                    rep.distinct_pairs) == (not dups, dups,
                                            k * (L - 1), len(oracle))
        with pytest.raises(InvalidInputError):
            check_pair_uniqueness([(1, 2, 3, 1, 2), (2, 2), (3, 1)])

    def test_no_counting_across_boundaries(self):
        # (1,2) would repeat only if the words were concatenated
        assert check_pair_uniqueness([(1, 2), (2, 1)]).ok

    def test_sigma_chop_inherits_uniqueness(self):
        fam = chop(tuple(int(x) for x in sigma_ids(14)), 14, 14)
        assert check_pair_uniqueness(fam).ok

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            check_pair_uniqueness([])
        with pytest.raises(InvalidInputError):
            check_pair_uniqueness([()])


class TestChop:
    def test_simple(self):
        assert chop((1, 2, 3, 4), 2, 2) == [(1, 2), (3, 4)]

    def test_block_budget(self):
        # 14 words of 14 letters consume the square word on 14 letters
        fam = chop(tuple(int(x) for x in sigma_ids(14)), 14, 14)
        assert len(fam) == 14 and all(len(w) == 14 for w in fam)

    def test_insufficient(self):
        with pytest.raises(InsufficientLengthError):
            chop((1, 2, 3), 2, 2)

    def test_distinct_chunks(self):
        fam = chop(tuple(int(x) for x in sigma_ids(4)), 2, 8)
        assert len(set(fam)) == 8


class TestPositiveWords:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 9), max_size=30).map(tuple),
        st.lists(st.integers(1, 9), max_size=30).map(tuple),
    )
    def test_concatenation_never_cancels(self, u, v):
        assert len(free_reduce(u + v)) == len(u) + len(v)


class TestAlphabet:
    def test_tokens_round_trip(self):
        al = Alphabet([Gen("a", 1), Gen("a", 2, level=3), Gen("t", 7), Gen("s", 1)])
        w = (1, -2, 3, -4)
        text = al.word_to_str(w)
        assert text == "a1 a2^(3)^-1 t7 s^-1"
        assert al.word_from_str(text) == w

    def test_parse_rejects_garbage(self):
        al = alphabet_of("a", 2)
        with pytest.raises(InvalidInputError):
            al.word_from_str("q7")
        with pytest.raises(InvalidInputError):
            al.word_from_str("a9")  # not in this alphabet

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidParameterError):
            Alphabet([Gen("a", 1), Gen("a", 1)])

    def test_order_is_data(self):
        a = Alphabet([Gen("a", 1), Gen("a", 2)])
        b = Alphabet([Gen("a", 2), Gen("a", 1)])
        assert a != b
