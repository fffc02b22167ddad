import numpy as np
import pytest

from marketreg.selftest import CheckResult, _within


class TestWithin:
    """One comparison prints the bound and decides the verdict."""

    @pytest.mark.parametrize("strict, passed", [(False, True), (True, False)])
    def test_a_value_on_the_bound(self, strict, passed):
        # 1.5 - 1.0 is exactly 0.5, so only the comparison decides.
        result = _within("edge", 1.5, "{:.2f}", 1.0, 0.5, ".2f", strict=strict)
        op = "<" if strict else "<="
        assert result == CheckResult("edge", "1.50", f"|x - 1| {op} 0.50", passed)

    def test_a_zero_target_prints_the_bare_value(self):
        result = _within("zero", -0.25, "{:+.3f} %", 0.0, 0.25, ".1e")
        assert result == CheckResult("zero", "-0.250 %", "|x| <= 2.5e-01", True)

    def test_the_relative_form_divides_by_the_target(self):
        result = _within("rel", 1.5, "{:.1f}", 1.2, 0.2, ".3f", relative=True)
        assert result == CheckResult("rel", "1.5", "|x/1.2 - 1| <= 0.200", False)
        assert _within("rel", 1.26, "{:.2f}", 1.2, 0.06, ".2f", relative=True).passed

    def test_the_verdict_is_a_plain_bool(self):
        assert type(_within("np", np.float64(2.0), "{}", 2.0, 0.1, ".1f").passed) is bool
