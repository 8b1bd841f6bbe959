"""Tail-percentile rule and failure accounting of the benchmark."""

import pytest

from pbench.stats import Ledger, tail, tail_value


class TestTailRule:
    def test_hundred_samples_give_p90(self):
        values = list(range(1, 101))          # 1..100
        pct, value = tail(values)
        assert pct == pytest.approx(90.0)
        assert value == 90
        # exactly ten samples lie beyond the reported value
        assert sum(v > value for v in values) == 10

    def test_ten_samples_have_no_tail(self):
        assert tail(list(range(10))) is None

    def test_eleven_samples_give_the_minimum(self):
        pct, value = tail([5.0] + [10.0] * 10)
        assert value == 5.0
        assert pct == pytest.approx(100.0 / 11)

    def test_order_does_not_matter(self):
        values = [3.0, 1.0, 2.0] * 10
        assert tail(values) == tail(sorted(values))

    def test_ties_still_leave_ten_beyond_the_index(self):
        values = [1.0] * 50 + [2.0] * 10
        assert tail(values)[1] == 1.0


def test_tail_value_falls_back_to_the_maximum():
    assert tail_value([]) == 0.0
    assert tail_value([1.0, 5.0, 3.0]) == 5.0
    assert tail_value(list(range(1, 101))) == 90
    # 15 samples: the rule's p33 lies below the median, so report the max
    assert tail_value(list(range(1, 16))) == 15
    assert tail_value(list(range(1, 22))) == 11


class TestLedger:
    def test_every_failure_kind_counts(self):
        ledger = Ledger()
        ledger.ok()
        ledger.fail("refused", "503")
        ledger.fail("timeout")
        ledger.check(False, "waveform off")
        ledger.check(True)
        assert ledger.attempted == 5
        assert ledger.failed == 3
        assert ledger.fail_frac == pytest.approx(3 / 5)
        assert ledger.failures["refused"] == 1
        assert ledger.failures["timeout"] == 1
        assert ledger.failures["check"] == 1

    def test_any_failure_makes_the_run_incorrect(self):
        for kind in Ledger.KINDS:
            ledger = Ledger()
            ledger.ok()
            assert ledger.correct
            ledger.fail(kind)
            assert not ledger.correct

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Ledger().fail("slow")

    def test_empty_ledger(self):
        assert Ledger().fail_frac == 0.0
