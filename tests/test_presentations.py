import json

import numpy as np
import pytest

from catdistort.errors import (
    CapExceededError,
    ConstructionError,
    InvalidParameterError,
    SpecParseError,
    TooLargeError,
)
from catdistort.presentations import (
    BlockParams,
    GroupSpec,
    build_block,
    build_chain,
    build_double,
    free_group,
    retractions,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    verify_retraction,
)
from catdistort.words import check_pair_uniqueness, free_reduce


class TestBlockParams:
    def test_paper_shape(self):
        BlockParams(2, 28, 14)

    def test_wrong_m(self):
        with pytest.raises(InvalidParameterError):
            BlockParams(2, 27, 14)

    def test_small_L(self):
        with pytest.raises(InvalidParameterError):
            BlockParams(1, 1, 1)


class TestBuildBlock:
    def test_single_stable(self):
        b = build_block(BlockParams(1, 14, 14))
        assert b.n_generators == 15
        assert b.relator_count() == 14

    def test_two_stables_consume_square(self):
        b = build_block(BlockParams(2, 28, 14))
        assert b.relator_count() == 56
        assert sum(len(r.image) for r in b.relators()) == 28 * 28

    def test_downscale(self):
        b = build_block(BlockParams(1, 2, 2))
        assert b.relator_count() == 2

    def test_deterministic(self):
        assert build_block(BlockParams(2, 28, 14)) == build_block(BlockParams(2, 28, 14))

    def test_row_major_assignment(self):
        b = build_block(BlockParams(2, 4, 2))
        rels = list(b.relators())
        # stable letter outer, base letter inner
        assert [r.stable for r in rels] == [5] * 4 + [6] * 4
        assert [r.base for r in rels] == [1, 2, 3, 4] * 2

    def test_images_pair_unique(self):
        b = build_block(BlockParams(3, 42, 14))
        fam = np.vstack([phi.images for phi in b.levels[0].endos])
        assert check_pair_uniqueness(fam).ok

    def test_injectivity_failure_is_fatal(self):
        # the L=2, n=4 family genuinely folds a loop away
        with pytest.raises(ConstructionError):
            build_block(BlockParams(4, 8, 2), certify=True)


class TestBuildChain:
    def test_single_level_matches_block(self):
        c = build_chain(1, 14)
        b = build_block(BlockParams(1, 14, 14))
        assert c.relator_count() == b.relator_count() == 14
        # identical up to the level tag on base letters
        c_rels = [
            (c.alphabet.gen(r.stable).token,
             c.alphabet.gen(r.base).index,
             tuple(c.alphabet.gen(abs(x)).index for x in r.image))
            for r in c.relators()
        ]
        b_rels = [
            (b.alphabet.gen(r.stable).token,
             b.alphabet.gen(r.base).index,
             tuple(b.alphabet.gen(abs(x)).index for x in r.image))
            for r in b.relators()
        ]
        assert c_rels == b_rels

    def test_two_levels_downscale(self):
        c = build_chain(2, 2)
        assert c.n_generators == 7
        assert c.relator_count() == 2 + 8

    def test_two_levels_paper(self):
        c = build_chain(2, 14)
        assert c.n_generators == 1 + 14 + 196
        assert c.relator_count() == 14 + 14 * 196

    def test_no_cross_level_leakage(self):
        c = build_chain(2, 2)
        for k, lv in enumerate(c.levels):
            dom = set(lv.domain_ids)
            for phi in lv.endos:
                assert set(int(x) for x in phi.images.ravel()) <= dom

    def test_cap(self):
        with pytest.raises(TooLargeError):
            build_chain(6, 14, generator_cap=10_000)

    def test_l0_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_chain(0, 14)


class TestBuildDouble:
    def test_paper_instance_accepted(self):
        d = build_double(196, 2744, 14, certify=False)
        assert d.relator_count() == 196 * 2744 + 2744

    def test_rejects_small_n_citing_inequality(self):
        with pytest.raises(InvalidParameterError, match=r"14m <= n\^2"):
            build_double(3, 14, 14)

    def test_rejects_impossible_downscale(self):
        # 2*2*2 = 8 > 4 = m^2: the square word is too short to chop
        with pytest.raises(InvalidParameterError, match=r"mn <= m\^2"):
            build_double(2, 2, 2)

    def test_valid_downscale(self):
        d = build_double(9, 27, 3)
        assert d.relator_count() == 9 * 27 + 27
        assert d.structure == "double"

    def test_relator_families(self):
        d = build_double(9, 27, 3)
        s_level, t_level = d.levels
        assert len(s_level.stable_ids) == 1
        assert s_level.codomain_ids == t_level.stable_ids
        assert t_level.domain_ids == d.base_ids


class TestRetraction:
    def test_block_true(self):
        assert verify_retraction(build_block(BlockParams(1, 14, 14)))

    def test_chain_true(self):
        assert verify_retraction(build_chain(2, 2))
        assert verify_retraction(build_chain(2, 14))

    def test_double_true(self):
        assert verify_retraction(build_double(9, 27, 3))

    def test_chain_retraction_family(self):
        c = build_chain(3, 2, certify=False)
        names = [name for name, _ in retractions(c)]
        assert len(names) == 3

    def test_engineered_failure(self):
        # image containing the stable letter itself: kill-base leaves
        # t * t^-1 * (t-part of the image)^-1 != empty
        b = build_block(BlockParams(1, 2, 2))
        bad_image = (3, 1)  # t1 a1: contains the stable letter
        rel_word = (3, 1, -3) + tuple(-x for x in reversed(bad_image))
        kept = frozenset([3])
        img = tuple(x for x in rel_word if abs(x) in kept)
        assert len(img) != len(rel_word)
        assert free_reduce(img) != ()


class TestSpecIO:
    def test_round_trip_block(self):
        b = build_block(BlockParams(1, 14, 14))
        text = spec_to_json(b)
        again = spec_from_json(text)
        assert again == b
        assert spec_to_json(again) == text  # byte-identical canonical form

    def test_round_trip_chain(self):
        c = build_chain(2, 2)
        assert spec_from_json(spec_to_json(c)) == c

    def test_round_trip_double(self):
        d = build_double(9, 27, 3)
        assert spec_from_json(spec_to_json(d)) == d

    def test_rejects_param_violation(self):
        doc = json.loads(spec_to_json(build_block(BlockParams(1, 2, 2))))
        doc["params"]["m"] = 3
        with pytest.raises(SpecParseError):
            spec_from_dict(doc)

    def test_rejects_tampered_images(self):
        doc = json.loads(spec_to_json(build_block(BlockParams(1, 2, 2))))
        doc["levels"][0]["images"][0][0] = "a2 a2"
        with pytest.raises(SpecParseError):
            spec_from_dict(doc)

    def test_rejects_bad_json(self):
        with pytest.raises(SpecParseError):
            spec_from_json("{not json")

    def test_rejects_wrong_format_tag(self):
        doc = json.loads(spec_to_json(build_block(BlockParams(1, 2, 2))))
        doc["format"] = "other/9"
        with pytest.raises(SpecParseError):
            spec_from_dict(doc)


class TestFreeGroup:
    def test_shape(self):
        f = free_group(2)
        assert f.relator_count() == 0
        assert f.n_generators == 2
        assert verify_retraction(f)


class TestBuildBudget:
    """Blocks and doubles compare the letters of their square words and
    image rows with BUILD_LETTER_CAP before they allocate anything."""

    @pytest.fixture
    def no_square_words(self, monkeypatch):
        import catdistort.presentations as P

        class Reached(Exception):
            pass

        def refuse(m):
            raise Reached(m)

        monkeypatch.setattr(P, "sigma_ids", refuse)
        return Reached

    def test_over_budget_block_refused_before_allocating(self, no_square_words):
        with pytest.raises(CapExceededError, match="3920000000000 letters"):
            build_block(BlockParams(100_000, 1_400_000, 14))

    def test_over_budget_double_refused_before_allocating(self, no_square_words):
        with pytest.raises(CapExceededError):
            build_double(10_000, 1_400_000, 14)

    @pytest.mark.parametrize("n,m,L", [(289, 4913, 17), (196, 2744, 14)])
    def test_ladder_doubles_within_budget(self, no_square_words, n, m, L):
        # G(289, 4913, 17): 24.1 M letters of square word on the a's
        with pytest.raises(no_square_words):
            build_double(n, m, L, certify=False)

    def test_spec_document_over_budget(self):
        doc = {"format": "catdistort/1", "structure": "block",
               "params": {"n": 100_000, "m": 1_400_000, "L": 14}}
        with pytest.raises(CapExceededError):
            spec_from_dict(doc)
