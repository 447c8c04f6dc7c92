import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catdistort import navigator
from catdistort.errors import CapExceededError, InvalidInputError
from catdistort.navigator import (
    REDUCE_LETTER_CAP,
    ReductionTrace,
    TraceStep,
    ball,
    ball_exhaustive,
    britton_reduce,
    equal,
    is_trivial,
    measure_distortion,
    to_base,
)
from catdistort.presentations import (
    BlockParams,
    build_block,
    build_chain,
    build_double,
    free_group,
    retractions,
)
from catdistort.words import free_reduce, invert
from test_folding import _apply_reference


@pytest.fixture(scope="module")
def b22():
    return build_block(BlockParams(1, 2, 2))


@pytest.fixture(scope="module")
def b14():
    return build_block(BlockParams(1, 14, 14))


def spec_letters(spec):
    n = len(spec.alphabet)
    return [g for g in range(1, n + 1)] + [-g for g in range(1, n + 1)]


def random_word(spec, rng, max_len):
    letters = spec_letters(spec)
    return tuple(rng.choice(letters) for _ in range(rng.randrange(max_len + 1)))


class TestBritton:
    def test_forward_pinch(self, b14):
        t = 15
        red, tr = britton_reduce(b14, (t, 1, -t))
        assert len(red) == 14 and all(x > 0 for x in red)
        assert tr.pinch_count == 1 and tr.steps[0].direction == "forward"

    def test_backward_pinch(self, b14):
        t = 15
        w11 = to_base(b14, (t, 1, -t))
        red, tr = britton_reduce(b14, (-t,) + w11 + (t,))
        assert red == (1,)
        assert tr.steps[0].direction == "backward"

    def test_irreducible(self, b14):
        t = 15
        red, tr = britton_reduce(b14, (-t, 1, t))
        assert red == (-t, 1, t) and tr.pinch_count == 0

    def test_letters_validated(self, b22):
        with pytest.raises(InvalidInputError):
            britton_reduce(b22, (99,))
        with pytest.raises(InvalidInputError):
            britton_reduce(b22, (0,))

    @pytest.mark.parametrize("letter", [True, False, np.True_])
    def test_bool_letters_rejected(self, b14, letter):
        for call in (britton_reduce, to_base, is_trivial):
            with pytest.raises(InvalidInputError, match="outside the alphabet"):
                call(b14, (letter, 2))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_retraction_invariance(self, data):
        spec = build_block(BlockParams(2, 4, 2))
        letters = spec_letters(spec)
        w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=14)))
        wp = spec.word_problem()
        red, _ = britton_reduce(spec, w)
        assert wp.psi_word(w) == wp.psi_word(red)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_abelianization_invariance(self, data):
        spec = build_block(BlockParams(2, 4, 2))
        letters = spec_letters(spec)
        w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=14)))
        wp = spec.word_problem()
        red, _ = britton_reduce(spec, w)
        assert wp.ab_residue(w) == wp.ab_residue(red)

    def test_pinch_count_at_most_half(self, b22):
        rng = random.Random(4)
        for _ in range(300):
            w = random_word(b22, rng, 12)
            _, tr = britton_reduce(b22, w)
            assert 2 * tr.pinch_count <= len(w)

    def test_reducer_matches_full_scan(self, b22):
        wp = b22.word_problem()
        rng = random.Random(7)
        for _ in range(2500):
            w = [rng.choice([1, -1, 2, -2, 3, -3])
                 for _ in range(rng.randrange(0, 16))]
            steps = []
            want = _full_scan_reduce(wp, list(w), 0, steps)
            for trace in (None, ReductionTrace()):
                red, survived = wp._reduce(list(w), 0, trace)
                assert red == want, w
                assert survived == any(abs(x) == 3 for x in red), w
            assert trace.steps == steps, w

    def test_forward_expansions_match_full_scan(self, b14):
        wp = b14.word_problem()
        t = 15
        for n in range(6):
            for w in ((t,) * n + (1,) + (-t,) * n,
                      (-2, -1) + (t,) * n + (14,) + (-t,) * n + (3,)):
                steps = []
                want = _full_scan_reduce(wp, list(w), 0, steps)
                assert britton_reduce(b14, w) == (tuple(want), ReductionTrace(steps))
                assert len(steps) == n


def _dehn_closure(spec, max_len):
    """All words derivable from the empty word by inserting relator
    conjugates (cyclic rotations of relators and inverses), length-capped.
    Independent naive oracle for triviality."""
    forms = set()
    for r in spec.relators():
        w = r.word()
        for rot in range(len(w)):
            c = free_reduce(w[rot:] + w[:rot])
            forms.add(c)
            forms.add(invert(c))
    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for f in forms:
                for pos in range(len(w) + 1):
                    cand = free_reduce(w[:pos] + f + w[pos:])
                    if len(cand) <= max_len and cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return seen


class TestTriviality:
    def test_relators_trivial(self, b22):
        for r in b22.relators():
            assert is_trivial(b22, r.word())

    def test_stable_letter_nontrivial(self, b22):
        assert not is_trivial(b22, (3,))

    def test_commutator_nontrivial(self, b22):
        t = 3
        comm = (t, 1, -t, -1)
        red, _ = britton_reduce(b22, comm)
        assert red == (1, 1, -1) or red == (1,)  # W11 a1^-1 = a1
        assert not is_trivial(b22, comm)

    def test_agrees_with_dehn_search(self, b22):
        trivial_set = _dehn_closure(b22, 10)
        short_trivials = {w for w in trivial_set if len(w) <= 6}
        # every freely reduced word of length <= 6
        count = checked = 0
        stack = [()]
        while stack:
            w = stack.pop()
            if len(w) == 6:
                continue
            for g in (1, -1, 2, -2, 3, -3):
                if w and g == -w[-1]:
                    continue
                cand = w + (g,)
                count += 1
                if is_trivial(b22, cand):
                    assert cand in short_trivials, cand
                    checked += 1
                else:
                    assert cand not in short_trivials, cand
                stack.append(cand)
        assert count == 23436  # 6 * 5^(d-1) summed over d = 1..6
        assert checked > 0  # the oracle saw nontrivial trivial words


class TestLetterBudget:
    """REDUCE_LETTER_CAP bounds the letters a reduction holds at one
    level, not each forward pinch alone."""

    def test_many_expansions_over_the_cap_raise(self, b14):
        t = 15
        one = (t,) * 5 + (1,) + (-t,) * 5  # 14^5 = 537,824 letters
        assert len(to_base(b14, one)) == 14 ** 5
        assert len(to_base(b14, one * 7)) == 7 * 14 ** 5  # 3,764,768
        for call in (britton_reduce, to_base, is_trivial):
            with pytest.raises(CapExceededError):
                call(b14, one * 8)  # 4,302,592 > 2^22

    def test_segments_reduced_one_level_down_count(self, monkeypatch):
        # each segment expands to 60 letters at level 1, and two of them
        # with the stable letter between hold 121 letters at level 0
        monkeypatch.setattr(navigator, "REDUCE_LETTER_CAP", 100)
        c = build_chain(2, 5)
        seg = (2, 7, -2) * 12
        assert len(to_base(c, seg)) == 60
        assert len(britton_reduce(c, seg + (1,))[0]) == 61
        with pytest.raises(CapExceededError):
            britton_reduce(c, seg + (1,) + seg)


class TestEqual:
    def test_relator_equation(self, b14):
        t = 15
        w11 = to_base(b14, (t, 1, -t))
        assert equal(b14, (t, 1, -t), w11)

    def test_distinct_generators(self, b14):
        assert not equal(b14, (1,), (2,))

    def test_double_expansion(self, b14):
        t = 15
        lhs = (t, t, 1, -t, -t)
        phi2 = to_base(b14, lhs)
        assert len(phi2) == 196
        assert equal(b14, lhs, phi2)


class TestToBase:
    def test_exponential_family(self, b14):
        t = 15
        for n in range(6):
            w = (t,) * n + (1,) + (-t,) * n
            base = to_base(b14, w)
            assert base is not None
            assert len(base) == 14 ** n
            assert all(x > 0 for x in base)

    def test_downscale_family(self, b22):
        t = 3
        for n in range(13):
            base = to_base(b22, (t,) * n + (1,) + (-t,) * n)
            assert len(base) == 2 ** n
            assert all(x > 0 for x in base)

    def test_stable_letter_not_in_subgroup(self, b14):
        assert to_base(b14, (15,)) is None

    def test_mixed_not_in_subgroup(self, b22):
        assert to_base(b22, (-3, 1, 3)) is None

    def test_chain_levels(self):
        c = build_chain(2, 2)
        # a^(1) letters are not in the target F(a^(2))
        assert to_base(c, (2,)) is None
        # but conjugating a^(2) by a^(1) lands back in it, expanded
        a1_1, a2_1 = 2, 4
        base = to_base(c, (a1_1, a2_1, -a1_1))
        assert base is not None and len(base) == 2

    def test_double_structure(self):
        d = build_double(9, 27, 3)
        s = 37
        t1 = 28
        assert d.alphabet.gen(s).token == "s"
        assert d.alphabet.gen(t1).token == "t1"
        # s a1 s^-1 = W1(t): a t-word, not in F(a)
        assert to_base(d, (s, 1, -s)) is None
        # but s^-1 W1(t) s = a1
        red, _ = britton_reduce(d, (s, 1, -s))
        assert all(abs(x) in range(28, 37) for x in red)
        back = to_base(d, (-s,) + red + (s,))
        assert back == (1,)


class TestBall:
    def test_free_group_sizes(self):
        f = free_group(2)
        rec = ball(f, 3)
        assert rec.sizes == [1, 5, 17, 53]

    def test_radius_zero(self, b22):
        rec = ball(b22, 0)
        assert rec.sizes == [1] and rec.elements[0].word == ()

    @pytest.mark.parametrize("fn", [ball, ball_exhaustive, measure_distortion])
    def test_negative_cap_refused(self, b22, fn):
        with pytest.raises(InvalidInputError, match="cap must be nonnegative"):
            fn(b22, 2, cap=-1)

    def test_cap_flags_incomplete(self, b22):
        rec = ball(b22, 4, cap=20)
        assert rec.incomplete
        assert len(rec.elements) >= 20

    def test_matches_exhaustive_oracle(self, b22):
        fast = ball(b22, 4)
        slow = ball_exhaustive(b22, 4)
        assert fast.sizes == slow.sizes
        fw = {e.word for e in fast.elements}
        sw = {e.word for e in slow.elements}
        # representatives may differ textually; compare elements via oracle
        assert len(fw) == len(sw)
        unmatched = [w for w in fw - sw]
        for w in unmatched:
            assert any(equal(b22, w, v) for v in sw - fw)

    def test_geodesic_lengths_exact(self, b22):
        # every element's recorded length is realized and minimal:
        # check against direct breadth-first layering by word products
        rec = ball(b22, 3)
        by_len = {}
        for e in rec.elements:
            by_len.setdefault(e.length, set()).add(e.word)
        assert by_len[0] == {()}
        for e in rec.elements:
            if e.length >= 1:
                # some neighbor sits one layer down
                assert any(
                    equal(b22, e.word, prev + (g,))
                    for prev in by_len[e.length - 1]
                    for g in spec_letters(b22)
                )


class TestMeasureDistortion:
    def test_block_curve_dominates_witnesses(self, b22):
        curve = measure_distortion(b22, 6)
        vals = dict(curve.points)
        for n in range(0, 3):
            wlen = 2 * n + 1
            if wlen <= 6:
                assert vals[wlen].value >= 2 ** n
        assert curve.is_monotone()

    def test_free_group_curve_linear(self):
        f = free_group(2)
        curve = measure_distortion(f, 4)
        assert [(r, v.value) for r, v in curve.points] == [
            (0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]

    def test_visibility_horizon(self, b14):
        # the length-14 expansion needs radius 3; at radius 2 the best
        # subgroup element is a single letter
        curve = measure_distortion(b14, 2, cap=100_000)
        vals = dict(curve.points)
        assert vals[2].value == 2
        curve3 = measure_distortion(b14, 3, cap=200_000)
        assert dict(curve3.points)[3].value == 14


# -- the reducer's survival report, against a full rescan --------------------


def _merge(dst, src):
    """Append a reduced word to a reduced word, cancelling at the seam;
    the oracle's own, so that it does not run the reducer's seam code."""
    i, n = 0, len(src)
    while dst and i < n and dst[-1] == -src[i]:
        dst.pop()
        i += 1
    dst.extend(src[i:])


def _oracle_accept(wp, lvl, forward, u):
    """The word over the level's domain (forward) or codomain letters
    equal to u, or None, decided with the full-scan reducer."""
    ids, kind = ((lvl.dom_set, lvl.dom_kind) if forward
                 else (lvl.cod_set, lvl.cod_kind))
    if kind == "base":
        return u
    w = _full_scan_reduce(wp, u, lvl.index + 1)
    if all(abs(x) in ids for x in w):
        return w
    if kind == "reduce":
        return None
    c = free_reduce([x for x in w if abs(x) in ids])
    probe = list(w)
    _merge(probe, invert(c))
    return None if _full_scan_reduce(wp, probe, lvl.index + 1) else list(c)


def _oracle_pinch(wp, lvl, g, e, u):
    """The replacement for (g, -e) u (g, e), or None: forward through
    the per-letter image loop, backward through the map's preimage."""
    endo = lvl.endos[lvl.stable[g]]
    c = _oracle_accept(wp, lvl, e == -1, u)
    if c is None:
        return None
    if e == 1:
        return endo.try_preimage(c)
    if len(c) * endo.length > REDUCE_LETTER_CAP:
        raise CapExceededError("a forward pinch above the cap")
    return _apply_reference(endo, c)


def _full_scan_reduce(wp, letters, k, steps=None, offset=0):
    """The generic reducer with the survivor rescan at every level: each
    surviving segment holding a non-base letter is reduced one level
    deeper, the last level included.  Pinches append their
    :class:`TraceStep` to ``steps`` when it is given."""
    if k >= wp.n_levels:
        return list(free_reduce(letters))
    lvl = wp.levels[k]
    stack = []
    for x in letters:
        g = abs(x)
        if g not in lvl.stable:
            if stack and stack[-1][0] == "b":
                _merge(stack[-1][1], (x,))
            else:
                stack.append(("b", [x]))
            continue
        e = 1 if x > 0 else -1
        u, oi = ((stack[-1][1], len(stack) - 2) if stack and stack[-1][0] == "b"
                 else ([], len(stack) - 1))
        if oi >= 0 and stack[oi] == ("s", g, -e):
            repl = _oracle_pinch(wp, lvl, g, e, u)
            if repl is not None:
                if steps is not None:
                    before = sum(1 if it[0] == "s" else len(it[1]) for it in stack[:oi])
                    steps.append(TraceStep(offset + before, g,
                                           "forward" if e == -1 else "backward",
                                           len(u) + 2, len(repl), k))
                del stack[oi:]
                if stack and stack[-1][0] == "b":
                    _merge(stack[-1][1], repl)
                elif repl:
                    stack.append(("b", list(repl)))
                continue
        stack.append(("s", g, e))
    out = []
    for item in stack:
        if item[0] == "s":
            out.append(item[1] * item[2])
        else:
            seg = item[1]
            if any(abs(y) not in wp.base_set for y in seg):
                seg = _full_scan_reduce(wp, seg, k + 1, steps, offset + len(out))
            _merge(out, seg)
    return out


def _oracle_words(spec, rng, count):
    """Random words, about 35% stable letters, plus conjugates that pinch
    forward (t u t^-1) and backward (t^-1 phi(u) t), some of them spoiled
    by one changed letter so that the stable letters survive."""
    stable = sorted(spec.stable_id_set())
    base = [g for g in range(1, len(spec.alphabet) + 1) if g not in stable]
    words = []
    for _ in range(count):
        words.append(tuple(
            (rng.choice(stable) if rng.random() < 0.35 else rng.choice(base))
            * rng.choice((1, -1)) for _ in range(rng.randrange(15))))
        lv = spec.levels[rng.randrange(len(spec.levels))]
        i = rng.randrange(len(lv.stable_ids))
        t, phi = lv.stable_ids[i], lv.endos[i]
        u = [rng.randint(1, phi.domain_rank) * rng.choice((1, -1))
             for _ in range(rng.randint(1, 3))]
        dom = [(1 if y > 0 else -1) * lv.domain_ids[abs(y) - 1] for y in u]
        img = list(phi.apply(free_reduce(dom)))
        if img and rng.random() < 0.3:
            img[rng.randrange(len(img))] = rng.choice(base + stable)
        words.append((t,) + tuple(dom) + (-t,))
        words.append((-t,) + tuple(img) + (t,))
    return words


def _seam_words(spec):
    """Forward pinches whose image cancels at the seam: x^-1 t a t^-1
    with x the first letter of phi(a); a prefix the image cancels whole;
    an image that cancels back to a surviving stable letter; a prefix
    that cancels the whole image."""
    words = []
    for lv in spec.levels:
        t, phi, a = lv.stable_ids[0], lv.endos[0], lv.domain_ids[0]
        img = phi.apply((a,))
        pinch = (t, a, -t)
        words += [(-img[0],) + pinch,
                  invert(img[:3]) + pinch,
                  (-t,) + invert(img[:2]) + pinch,
                  invert(img) + pinch,
                  (a,) + invert(img) + pinch + (a,)]
    return words


@pytest.mark.parametrize("build", [
    lambda: build_block(BlockParams(1, 2, 2)),
    lambda: build_block(BlockParams(1, 14, 14)),
    lambda: build_chain(2, 5),
    lambda: build_double(9, 27, 3),
], ids=["block-1-2-2", "block-1-14-14", "chain-2-5", "double-9-27-3"])
def test_survival_report_matches_full_scan(build):
    spec = build()
    wp = spec.word_problem()
    rng = random.Random(35)
    survived = 0
    for w in _oracle_words(spec, rng, 150) + _seam_words(spec):
        steps = []
        try:
            red = tuple(_full_scan_reduce(wp, list(w), 0, steps))
        except CapExceededError:
            for call in (britton_reduce, to_base, is_trivial):
                with pytest.raises(CapExceededError):
                    call(spec, w)
            continue
        in_base = all(abs(x) in wp.base_set for x in red)
        assert britton_reduce(spec, w) == (red, ReductionTrace(steps)), w
        assert to_base(spec, w) == (red if in_base else None), w
        assert is_trivial(spec, w) == (red == ()), w
        survived += not in_base
    assert 50 <= survived <= 400
