import math

import pytest

from sgcvapor import EquationVariant, SystemParams, ValidationError, effective_rabi


class TestEffectiveRabi:
    def test_orthogonal_dipoles_leave_coupling_unchanged(self):
        assert effective_rabi(10.0, 0.0) == 10.0

    def test_full_alignment_kills_the_coupling_exactly(self):
        assert effective_rabi(10.0, 1.0) == 0.0
        assert effective_rabi(10.0, -1.0) == 0.0

    def test_three_four_five_point(self):
        assert effective_rabi(10.0, 0.6) == pytest.approx(8.0, abs=1e-14)

    def test_out_of_range_alignment_rejected(self):
        with pytest.raises(ValidationError):
            effective_rabi(1.0, 1.5)

    def test_nan_alignment_rejected(self):
        # NaN fails every comparison, so a bound written as abs(p) > 1 lets it by
        with pytest.raises(ValidationError, match="got nan"):
            effective_rabi(1.0, math.nan)

    def test_even_in_p(self):
        assert effective_rabi(3.0, 0.4) == effective_rabi(3.0, -0.4)


class TestSystemParams:
    def test_defaults_are_valid(self):
        p = SystemParams()
        assert p.gamma_unit == 1.0e8
        assert p.omega1_bare == 10.0
        assert p.omegap_bare == 0.2
        assert p.gamma2 == p.gamma3 == p.gamma4 == 0.8
        assert p.density_n == 5.0e24
        assert p.equation_variant is EquationVariant.CORRECTED

    def test_effective_couplings_are_derived(self):
        p = SystemParams(p_align=0.6)
        assert p.omega1 == pytest.approx(8.0)
        assert p.omegap == pytest.approx(0.16)
        assert p.omegap_si == pytest.approx(0.16 * 1.0e8)

    def test_sgc_rate_carries_sign_of_p(self):
        assert SystemParams(p_align=0.5).sgc_rate == pytest.approx(0.4)
        assert SystemParams(p_align=-0.5).sgc_rate == pytest.approx(-0.4)
        assert SystemParams(p_align=0.0).sgc_rate == 0.0

    @pytest.mark.parametrize("bad", [
        dict(gamma2=0.0), dict(gamma3=-0.1), dict(density_n=0.0),
        dict(d42=-1e-29), dict(mu23=0.0), dict(p_align=1.0001),
        dict(p_align=-2.0), dict(omega1_bare=-1.0),
        dict(delta_p=math.inf), dict(gamma_unit=math.nan), dict(p_align=math.nan),
    ])
    def test_invariant_violations_rejected(self, bad):
        with pytest.raises(ValidationError):
            SystemParams(**bad)

    def test_full_alignment_is_a_valid_parameter_point(self):
        # |p| = 1 is allowed as a parameter; only the response is undefined there
        p = SystemParams(p_align=1.0)
        assert p.omegap == 0.0
