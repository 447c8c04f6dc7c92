import pytest

from catdistort.errors import CapExceededError, check_budget


class TestCheckBudget:
    def test_at_the_cap_passes(self):
        check_budget(100, 100, "a word of")

    def test_one_above_the_cap_raises(self):
        with pytest.raises(CapExceededError) as e:
            check_budget(101, 100, "a word of")
        assert str(e.value) == "a word of 101 letters, above the cap 100"

    def test_noun(self):
        with pytest.raises(CapExceededError, match="^x 5 rows, above the cap 4$"):
            check_budget(5, 4, "x", "rows")

    @pytest.mark.parametrize("n", [1 << 62, 14 ** 5000], ids=["2^62", "14^5000"])
    def test_huge_count_is_not_printed(self, n):
        with pytest.raises(CapExceededError) as e:
            check_budget(n, 100, "a word of")
        assert str(e.value) == "a word of over 2^62 letters, above the cap 100"

    def test_just_below_2_62_is_printed(self):
        with pytest.raises(CapExceededError, match=f" {(1 << 62) - 1} letters"):
            check_budget((1 << 62) - 1, 100, "a word of")
