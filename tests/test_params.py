import math
import sys

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

    def test_d42_whose_square_overflows_is_rejected(self):
        # the response takes d42 ** 2, which raises OverflowError past the
        # largest d42 with a finite square
        largest = math.sqrt(sys.float_info.max)
        assert SystemParams(d42=largest).d42 == largest
        for d42 in (math.nextafter(largest, math.inf), 1e160):
            with pytest.raises(ValidationError) as info:
                SystemParams(d42=d42)
            assert str(info.value) == (
                f"d42 must have a finite square, below about 1.34e154, got {d42}")

    def test_probe_rabi_frequency_that_overflows_is_rejected(self):
        # an infinite omegap_si read as vacuum: the polarizabilities divide
        # by it, and eps_r = mu_r = n = 1
        with pytest.raises(ValidationError) as info:
            SystemParams(gamma_unit=1e308, omegap_bare=10.0)
        assert str(info.value) == "omegap_bare * gamma_unit must be finite, got 10.0 * 1e+308"
        assert math.isfinite(SystemParams(gamma_unit=1e308, omegap_bare=1.0).omegap_si)

    def test_equation_variant_must_be_an_equation_variant(self):
        # the CLI turns its string into the enum; a direct caller must too
        with pytest.raises(ValidationError) as info:
            SystemParams(equation_variant="paper")
        assert str(info.value) == "equation_variant must be an EquationVariant, got 'paper'"

    def test_full_alignment_is_a_valid_parameter_point(self):
        # |p| = 1 is allowed as a parameter; only the response is undefined there
        p = SystemParams(p_align=1.0)
        assert p.omegap == 0.0
