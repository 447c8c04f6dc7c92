import decimal
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from catdistort.distortion import (
    DEFAULT_BIT_CUTOFF,
    DistortionCurve,
    Exact,
    Mul,
    Sum,
    Tower,
    expand_length,
    expr_cmp,
    expr_to_dict,
    iterated_exp,
    lower_bound_curve,
    normalize,
    tower_geodesic_bounds,
    upper_bound_audit,
    witness_block,
    witness_chain,
    witness_tower,
)
from catdistort.errors import CapExceededError, InvalidInputError, InvalidParameterError
from catdistort.navigator import measure_distortion, to_base
from catdistort.presentations import (
    BlockParams,
    build_block,
    build_chain,
    build_double,
)


@pytest.fixture(scope="module")
def b22():
    return build_block(BlockParams(1, 2, 2))


@pytest.fixture(scope="module")
def b14():
    return build_block(BlockParams(1, 14, 14))


class TestCalculus:
    def test_materialization(self):
        assert normalize(Tower(14, 1, Exact(3))) == Exact(2744)
        assert normalize(Mul(3, Exact(5))) == Exact(15)
        assert normalize(Sum((Exact(2), Exact(3)), 4)) == Exact(9)

    def test_tower_of_tower_stays_symbolic(self):
        h2 = normalize(Tower(14, 14, Exact(14)))
        assert isinstance(h2, Exact) and h2.value == 14 ** 196
        h3 = normalize(Tower(14, 14, h2))
        assert isinstance(h3, Tower)

    def test_cutoff_is_configurable(self):
        e = Tower(2, 1, Exact(10_000))
        assert isinstance(normalize(e, bit_cutoff=100), Tower)
        assert normalize(e, bit_cutoff=20_000) == Exact(2 ** 10_000)

    def test_exact_digits_of_w2_value(self):
        v = normalize(Tower(14, 14, Exact(14)))
        s = str(v.value)
        assert len(s) == 225
        # leading digits cross-checked by high-precision logarithm
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            D = decimal.Decimal
            lead = D(10) ** (196 * D(14).log10() - 224)
        assert str(lead)[:7] == f"{s[0]}.{s[1:6]}" == "4.37617"

    def test_decimal_digits_leave_interpreter_limit(self, monkeypatch):
        before = sys.get_int_max_str_digits()
        text = str(Exact(10 ** 5000))
        assert text == "1" + "0" * 5000
        assert sys.get_int_max_str_digits() == before

        def refuse(_):
            raise AssertionError("process-global digit limit changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        v = 7 ** 20_000 + 10 ** 3000
        text = str(Exact(v))
        back = 0
        for i in range(0, len(text), 1000):  # int() of short pieces only
            chunk = text[i:i + 1000]
            back = back * 10 ** len(chunk) + int(chunk)
        assert back == v and text[0] != "0"
        assert expr_to_dict(Exact(v))["value"] == text

    def test_equal_values_hash_equal(self):
        eight = {Exact(8), Tower(2, 1, Exact(3)), Mul(2, Exact(4)), Sum((Exact(5),), 3)}
        assert len(eight) == 1 and 8 in eight
        assert Tower(2, 1, Exact(3)) == 8 and Mul(2, Exact(4)) == 8
        assert Exact(8) != 9 and Exact(0) != -1 and Exact(8) != "8"
        # past the cutoff an exact value meets the tower it equals
        n = DEFAULT_BIT_CUTOFF + 1
        big, tower = Exact(2 ** n), Tower(2, 1, Exact(n))
        assert isinstance(normalize(tower), Tower)
        assert big == tower and hash(big) == hash(tower)
        assert len({big, tower, Mul(2, Tower(2, 1, Exact(n - 1)))}) == 1

    def test_comparisons_exact(self):
        assert expr_cmp(Exact(5), Exact(7)) < 0
        assert expr_cmp(Tower(14, 1, Exact(2)), Exact(196)) == 0
        assert expr_cmp(Tower(2, 1, Tower(2, 1, Exact(2_000_000))),
                        Exact(10 ** 6)) > 0

    def test_dominance_order_on_tower_family(self):
        f = [normalize(iterated_exp(14, k, 1)) for k in range(1, 11)]
        h = [Exact(14)]
        for _ in range(9):
            h.append(normalize(Tower(14, 14, h[-1])))
        for k in range(10):
            assert expr_cmp(f[k], h[k]) <= 0
        assert expr_cmp(h[2], f[2]) > 0
        for k in range(9):
            assert expr_cmp(h[k], h[k + 1]) < 0
            assert expr_cmp(f[k], f[k + 1]) < 0

    def test_incomparable_bases_raise(self):
        big2 = Tower(2, 1, Tower(2, 1, Exact(10 ** 7)))
        big3 = Tower(3, 1, Tower(3, 1, Exact(10 ** 7)))
        with pytest.raises(InvalidInputError):
            expr_cmp(big2, big3)

    def test_to_dict_literal(self):
        e = Tower(14, 14, Tower(14, 14, Exact(196)))
        assert expr_to_dict(e) == {
            "kind": "tower", "base": 14, "multiplier": 14,
            "exponent": {"kind": "tower", "base": 14, "multiplier": 14,
                         "exponent": {"kind": "exact", "value": "196"}}}
        assert expr_to_dict(Sum((Mul(3, e),), 2)) == {
            "kind": "sum", "const": 2,
            "terms": [{"kind": "mul", "coeff": 3, "expr": expr_to_dict(e)}]}

    def test_one_term_sum_folds_its_constant(self):
        # 2^1048584 + 1 < 2^1048609: the constant joins the affine frame
        # instead of leaving the sum undecided
        lo = Sum((Tower(2, 1, Exact(1048584)),), 1)
        hi = Tower(2, 1, Exact(1048609))
        assert expr_cmp(lo, hi) == -1 and expr_cmp(hi, lo) == 1

    def test_constant_as_large_as_a_tower_is_undecided(self):
        # 2^n + 2^n > 3 * 2^n, yet the towers alone say 2^n < 3 * 2^n:
        # a constant that large may not be dropped
        t = Tower(2, 1, Exact(DEFAULT_BIT_CUTOFF + 1))
        with pytest.raises(InvalidInputError):
            expr_cmp(Sum((t,), 1 << (DEFAULT_BIT_CUTOFF + 1)), Mul(3, t))

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            Exact(-1)
        with pytest.raises(InvalidParameterError):
            Tower(1, 1, Exact(1))


def _value(e):
    """The integer value of an expression over base-2 towers."""
    if isinstance(e, Exact):
        return e.value
    if isinstance(e, Tower):
        assert e.base == 2
        return 1 << (e.multiplier * _value(e.exponent))
    if isinstance(e, Mul):
        return e.coeff * _value(e.expr)
    return sum(_value(t) for t in e.terms) + e.const


# base-2 towers of 2^(cutoff + 1) to 2^(cutoff + 160): unmaterialized,
# yet small enough to compute as integers
_towers = st.builds(lambda k, d: Tower(2, k, Exact(DEFAULT_BIT_CUTOFF // k + d)),
                    st.sampled_from([1, 2, 4]), st.integers(1, 40))
_exprs = st.recursive(
    st.one_of(_towers, st.integers(0, 1000).map(Exact)),
    lambda inner: st.one_of(
        st.builds(Mul, st.integers(0, 50), inner),
        st.builds(lambda ts, c: Sum(tuple(ts), c),
                  st.lists(inner, min_size=1, max_size=3), st.integers(0, 50))),
    max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(_exprs, _exprs)
@example(Sum((Tower(2, 1, Exact(1048584)),), 1), Tower(2, 1, Exact(1048609)))
def test_cmp_is_the_true_sign_or_undecided(a, b):
    try:
        got = expr_cmp(a, b)
    except InvalidInputError:
        return
    va, vb = _value(a), _value(b)
    assert got == (va > vb) - (va < vb)


class TestExpandLength:
    def test_identity(self):
        assert normalize(expand_length((), Exact(5), 14)) == Exact(5)

    def test_cube(self):
        assert normalize(expand_length((1, 2, 3), Exact(1), 14)) == Exact(14 ** 3)

    def test_matches_tower_witness(self):
        e = expand_length(tuple(range(1, 197)), Exact(1), 14)
        assert expr_cmp(e, Exact(14 ** 196)) == 0

    def test_tower_base_composes(self):
        e = expand_length(tuple(range(1, 197)), Tower(14, 14, Exact(14)), 14)
        assert expr_cmp(e, Exact(14 ** 392)) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            expand_length((1, -2), Exact(1), 14)


class TestBlockWitness:
    def test_base_case(self, b14):
        w = witness_block(b14, 0)
        assert w.word_length == 1
        assert normalize(w.subgroup_length) == Exact(1)

    def test_cube(self, b14):
        w = witness_block(b14, 3)
        assert w.word_length == 7
        assert normalize(w.subgroup_length) == Exact(2744)

    def test_materialized_downscale(self, b22):
        for n in range(13):
            w = witness_block(b22, n)
            base = to_base(b22, w.word)
            assert len(base) == 2 ** n
            assert all(x > 0 for x in base)
            assert expr_cmp(w.subgroup_length, Exact(len(base))) == 0

    def test_letter_budget_checked_first(self, b14):
        # 2^22 + 1 letters, one past the cap; nothing is built
        with pytest.raises(CapExceededError, match="4194305 letters"):
            witness_block(b14, 2 ** 21)


class TestChainWitness:
    def test_single_level_is_block_witness(self, b14):
        c1 = witness_chain(1, 14, 3)
        assert c1.word_length == 7
        assert expr_cmp(c1.subgroup_length, Exact(14 ** 3)) == 0

    def test_length_recurrence(self):
        for l in range(1, 11):
            w = witness_chain(l, 14, 2)
            for k in range(1, l):
                assert len(w.stages[k]) == 2 * len(w.stages[k - 1]) + 1
            assert len(w.word) <= w.length_bound
            assert w.length_bound == 2 ** l * 2 + 2 ** l - 1

    def test_symbolic_iterate(self):
        w = witness_chain(2, 14, 1)
        assert w.length_bound == 7
        assert expr_cmp(w.subgroup_length, Exact(14 ** 14)) == 0
        w3 = witness_chain(3, 14, 2)
        assert expr_cmp(w3.subgroup_length, iterated_exp(14, 3, 2)) == 0

    def test_materialized_downscale(self):
        c = build_chain(2, 2)
        for n in range(4):
            w = witness_chain(2, 2, n, c)
            base = to_base(c, w.word)
            assert base is not None
            assert len(base) == 2 ** (2 ** n)
            assert all(x > 0 for x in base)
            assert expr_cmp(w.subgroup_length, Exact(len(base))) == 0

    def test_spec_mismatch_rejected(self):
        c = build_chain(2, 2)
        with pytest.raises(InvalidInputError):
            witness_chain(3, 2, 1, c)

    def test_letter_budget_checked_first(self):
        # 2^2 * (2^20 + 1) - 1 = 2^22 + 3 letters, just past the cap
        with pytest.raises(CapExceededError, match="4194307 letters"):
            witness_chain(2, 14, 2 ** 20)
        with pytest.raises(CapExceededError, match="over 2.62 letters"):
            witness_chain(10 ** 6, 14, 1)


class TestTowerWitness:
    def test_first_stages(self):
        w1 = witness_tower(1, 14)
        assert w1.word_length == 3
        assert normalize(w1.subgroup_length) == Exact(14)
        w2 = witness_tower(2, 14)
        assert w2.word_length == 11
        assert normalize(w2.subgroup_length) == Exact(14 ** 196)

    def test_letter_budget_checked_first(self):
        # w_21 has 2^23 - 5 letters, twice the cap; nothing is built
        with pytest.raises(CapExceededError, match="8388603 letters"):
            witness_tower(21, 14)
        with pytest.raises(CapExceededError):
            witness_tower(30, 14)

    def test_third_stage_symbolic(self):
        w3 = normalize(witness_tower(3, 14).subgroup_length)
        assert isinstance(w3, Tower)
        assert expr_cmp(w3, iterated_exp(14, 2, 14)) > 0

    def test_word_length_recurrence_and_bound(self):
        prev = None
        for k in range(1, 11):
            w = witness_tower(k, 14)
            if prev is not None:
                assert w.word_length == 2 * prev + 5
            assert w.word_length <= 4 ** k
            prev = w.word_length

    def test_geodesic_bound_recurrence_60(self):
        bounds = tower_geodesic_bounds(60)
        assert bounds[0] == 3 and bounds[1] == 11
        for k, b in enumerate(bounds, start=1):
            assert b <= 4 ** k

    def test_dominates_iterated_exponential(self):
        for k in range(1, 11):
            w = witness_tower(k, 14)
            assert expr_cmp(w.subgroup_length, iterated_exp(14, k, 1)) >= 0

    def test_materialized_downscale(self):
        d = build_double(9, 27, 3)
        w2 = witness_tower(2, 3, d)
        base = to_base(d, w2.word)
        assert len(base) == 3 ** 9 == 19683
        assert all(x > 0 for x in base)
        assert expr_cmp(w2.subgroup_length, Exact(len(base))) == 0


class TestCurves:
    def test_lower_bound_monotone(self, b22):
        curve = lower_bound_curve(b22, 8)
        assert curve.kind == "witness-lower-bound"
        assert curve.is_monotone()

    def test_double_curve_beats_iterates(self):
        d = build_double(9, 27, 3)
        curve = lower_bound_curve(d, 5)
        for k, (x, v) in enumerate(curve.points, start=1):
            assert x <= 4 ** k
            assert expr_cmp(v, iterated_exp(3, k, 1)) >= 0

    def test_csv_format(self, b22):
        text = lower_bound_curve(b22, 3).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n_or_radius,value,representation"
        assert lines[1] == "1,1,exact"
        assert all(line.endswith(("exact", "tower")) for line in lines[1:])

    def test_empirical_dominates_witnesses(self, b22):
        emp = dict(measure_distortion(b22, 6).points)
        for n in range(3):
            wl = 2 * n + 1
            if wl <= 6:
                assert emp[wl].value >= 2 ** n


class TestAudit:
    def test_downscale_zero_violations(self, b22):
        curve = upper_bound_audit(b22, 12, 400, seed=1)
        assert curve.kind == "upper-bound-audit"
        assert curve.meta["violations"] == 0
        assert curve.meta["samples"] == 400
        assert curve.meta["max_pinches"] <= 6

    def test_paper_block_zero_violations(self, b14):
        curve = upper_bound_audit(b14, 8, 150, seed=2)
        assert curve.meta["violations"] == 0

    def test_blocks_only(self):
        with pytest.raises(InvalidInputError):
            upper_bound_audit(build_chain(2, 2), 4, 10)

    def test_deterministic_for_seed(self, b22):
        a = upper_bound_audit(b22, 10, 100, seed=5)
        b = upper_bound_audit(b22, 10, 100, seed=5)
        assert a.points == b.points
