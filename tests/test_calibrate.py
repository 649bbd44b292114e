from dataclasses import replace

import pytest

from sgcvapor import (CalibrationError, EquationVariant, NonPhysicalState, SystemParams,
                      ValidationError, calibrate_dipoles, calibrated_params, response_at)
from sgcvapor.calibrate import (CALIBRATION_DETUNING, CALIBRATION_P_CROSS,
                                CALIBRATION_P_END)


class TestCalibration:
    def test_values_are_reproducible(self, calibrated):
        # deterministic closed-form solves; pinned as a regression anchor
        assert calibrated.d42 == pytest.approx(4.7513729269e-25, rel=1e-9)
        assert calibrated.mu23 == pytest.approx(4.2990704147e-27, rel=1e-9)

    def test_endpoint_permittivity_saturates_at_minus_two(self, calibrated_base):
        rec = response_at(replace(calibrated_base,
                                  p_align=CALIBRATION_P_END,
                                  delta_p=CALIBRATION_DETUNING))
        assert rec.eps_r.real == pytest.approx(-2.0, abs=1e-9)

    def test_permeability_crosses_zero_at_target_alignment(self, calibrated_base):
        rec = response_at(replace(calibrated_base,
                                  p_align=CALIBRATION_P_CROSS,
                                  delta_p=CALIBRATION_DETUNING))
        assert rec.mu_r.real == pytest.approx(0.0, abs=1e-12)
        # and it is a downward crossing: negative just above the target
        above = response_at(replace(calibrated_base, p_align=0.56,
                                    delta_p=CALIBRATION_DETUNING))
        below = response_at(replace(calibrated_base, p_align=0.54,
                                    delta_p=CALIBRATION_DETUNING))
        assert below.mu_r.real > 0.0 > above.mu_r.real

    def test_independent_of_seed_dipoles(self):
        a = calibrate_dipoles(SystemParams())
        b = calibrate_dipoles(SystemParams(d42=3e-28, mu23=1e-25))
        assert a.d42 == b.d42
        assert a.mu23 == b.mu23

    def test_calibrated_params_helper(self, calibrated):
        p = calibrated_params(p_align=0.2)
        assert p.d42 == calibrated.d42
        assert p.mu23 == calibrated.mu23
        assert p.p_align == 0.2

    def test_calibrated_params_without_base_overrides_is_the_default_calibration(
            self, calibrated_base):
        # calibration sets its own p and delta_p, so a p_align override
        # does not move the dipoles
        assert calibrated_params() == calibrated_base
        assert calibrated_params(p_align=0.3) == replace(calibrated_base, p_align=0.3)

    def test_overrides_are_applied_before_calibrating(self):
        p = calibrated_params(density_n=1e25)
        assert p == calibrated_params(replace(SystemParams(), density_n=1e25))
        rec = response_at(replace(p, p_align=CALIBRATION_P_CROSS, delta_p=CALIBRATION_DETUNING))
        assert rec.mu_r.real == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("override", [{"d42": 1e-29}, {"mu23": 1e-23},
                                          {"d42": 1e-29, "mu23": 1e-23}])
    def test_dipole_overrides_are_rejected(self, override):
        with pytest.raises(ValidationError, match="^calibrated_params sets d42 and mu23 itself$"):
            calibrated_params(**override)

    @pytest.mark.parametrize("base,error,message", [
        # no coupling field: the endpoint's Re(N*ge) is not positive
        (SystemParams(omega1_bare=0.0), CalibrationError,
         r"^Re\(N\*ge\) is non-positive at the sweep endpoint; Re\(eps_r\) cannot reach -2$"),
        # the steady solve's errors propagate
        (SystemParams(equation_variant=EquationVariant.PAPER_LITERAL), NonPhysicalState,
         r"^fixed-point populations outside \[0, 1\]: "),
    ])
    def test_unreachable_calibration_raises(self, base, error, message):
        with pytest.raises(error, match=message) as info:
            calibrate_dipoles(base)
        assert type(info.value) is error
