import cmath
import gc
from dataclasses import replace

import numpy as np
import pytest

from sgcvapor import (DegenerateProbe, DensityMatrix, EquationVariant,
                      Handedness, LocalFieldPole, NonPhysicalState,
                      SystemParams, classify_handedness,
                      electric_polarizability, evolve, magnetic_polarizability,
                      magnetic_polarizability_from_permeability, permeability,
                      permittivity, refractive_index, response_at)

N_DEFAULT = 5.0e24


class TestElectricPolarizability:
    def test_no_coherence_no_dipole(self):
        assert electric_polarizability(0j, SystemParams()) == 0j

    def test_linear_in_coherence(self):
        p = SystemParams()
        one = electric_polarizability(0.1 + 0.05j, p)
        two = electric_polarizability(0.2 + 0.1j, p)
        assert two == pytest.approx(2 * one, rel=1e-15)

    def test_hand_evaluated_value(self):
        # 2 * d42^2 * rho24 / (eps0 * hbar * Omega_p), written out digit by
        # digit with the probe at 0.2*gamma*sqrt(1 - 0.5^2) in rad/s
        p = SystemParams(p_align=0.5)
        omega_p = 0.2 * 1.0e8 * (1.0 - 0.25) ** 0.5
        expected = (2.0 * (1.0e-29) ** 2 * (0.1 + 0.05j)
                    / (8.8541878128e-12 * 1.054571817e-34 * omega_p))
        got = electric_polarizability(0.1 + 0.05j, p)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got.real == pytest.approx(1.2367e-21, rel=1e-4)

    def test_degenerate_probe(self):
        with pytest.raises(DegenerateProbe):
            electric_polarizability(0.1 + 0j, SystemParams(p_align=1.0))


class TestMagneticPolarizability:
    def test_no_coherence_no_dipole(self):
        assert magnetic_polarizability(0j, SystemParams()) == 0j

    def test_conjugation_symmetry(self):
        p = SystemParams(p_align=0.3)
        z = -0.02 + 0.01j
        assert magnetic_polarizability(z.conjugate(), p) == \
            magnetic_polarizability(z, p).conjugate()

    def test_hand_evaluated_chain(self):
        # E_p = hbar*Omega_p/d42, B_p = E_p/c, gm = 2*mu0*mu23*rho32/B_p
        p = SystemParams(p_align=0.5)
        omega_p = 0.2 * 1.0e8 * 0.75 ** 0.5
        e_p = 1.054571817e-34 * omega_p / 1.0e-29
        b_p = e_p / 2.99792458e8
        expected = 2.0 * 1.25663706212e-6 * 9.274e-24 * (-0.02 + 0.01j) / b_p
        assert magnetic_polarizability(-0.02 + 0.01j, p) == \
            pytest.approx(expected, rel=1e-15)

    def test_degenerate_probe(self):
        with pytest.raises(DegenerateProbe):
            magnetic_polarizability(0.1 + 0j, SystemParams(p_align=-1.0))


class TestLocalFieldRelations:
    def test_vacuum_limit(self):
        assert permittivity(0j, N_DEFAULT) == 1.0 + 0j
        assert permeability(0j, N_DEFAULT) == 1.0 + 0j

    def test_pole_at_three(self):
        with pytest.raises(LocalFieldPole):
            permittivity(3.0 / N_DEFAULT, N_DEFAULT)
        with pytest.raises(LocalFieldPole):
            permeability((3.0 + 0j) / N_DEFAULT, N_DEFAULT)

    def test_direct_arithmetic_points(self):
        # N*ge = -6: chi = -6/(1+2) = -2, eps = -1
        assert permittivity(-6.0 / N_DEFAULT, N_DEFAULT) == pytest.approx(-1.0)
        # N*gm = -3: mu = (1-2)/(1+1) = -1/2
        assert permeability(-3.0 / N_DEFAULT, N_DEFAULT) == pytest.approx(-0.5)

    def test_round_trip_through_the_inverse_relation(self):
        gm = (1.0 + 1.0j) / N_DEFAULT
        mu = permeability(gm, N_DEFAULT)
        back = magnetic_polarizability_from_permeability(mu, N_DEFAULT)
        assert abs(back - gm) / abs(gm) < 1e-10

    def test_round_trip_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            gm = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-2, 3) / N_DEFAULT
            try:
                mu = permeability(gm, N_DEFAULT)
            except LocalFieldPole:
                continue
            back = magnetic_polarizability_from_permeability(mu, N_DEFAULT)
            assert abs(back - gm) / abs(gm) < 1e-10

    def test_saturation_limit_is_minus_two(self):
        # both relations approach -2 when |N*g| -> infinity
        big = 1e9 * (1 + 0.3j) / N_DEFAULT
        assert permittivity(big, N_DEFAULT) == pytest.approx(-2.0, abs=1e-6)
        assert permeability(big, N_DEFAULT) == pytest.approx(-2.0, abs=1e-6)


class TestRefractiveIndex:
    def test_vacuum(self):
        assert refractive_index(1 + 0j, 1 + 0j) == 1 + 0j

    def test_lossless_double_negative(self):
        assert refractive_index(-1 + 0j, -1 + 0j) == pytest.approx(-1.0 + 0j)

    def test_single_negative_is_evanescent(self):
        # expected value fixed by n^2 = eps*mu and Im(n) >= 0
        eps = -1 + 0.1j
        expected = cmath.sqrt(eps * 1.0)
        if expected.imag < 0:
            expected = -expected
        got = refractive_index(eps, 1 + 0j)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.049938 + 1.0012465j, rel=1e-5)

    def test_square_recovers_product_and_passivity(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            eps = complex(rng.normal(scale=3), rng.normal())
            mu = complex(rng.normal(scale=3), rng.normal())
            n = refractive_index(eps, mu)
            assert abs(n * n - eps * mu) <= 1e-10 * abs(eps * mu)
            assert n.imag >= 0.0

    def test_negative_zero_imag_treated_as_passive_limit(self):
        assert refractive_index(complex(-1.0, -0.0), complex(-1.0, -0.0)) == \
            pytest.approx(-1.0 + 0j)


class TestClassification:
    @pytest.mark.parametrize("eps,mu,expected", [
        (-1, -1, Handedness.LEFT_HANDED),
        (-1, +1, Handedness.NEG_EPS_ONLY),
        (+1, -1, Handedness.NEG_MU_ONLY),
        (+1, +1, Handedness.RIGHT_HANDED),
        (0.0, -1, Handedness.NEG_MU_ONLY),   # Re = 0 counts as non-negative
        (0.0, 0.0, Handedness.RIGHT_HANDED),
    ])
    def test_sign_table(self, eps, mu, expected):
        assert classify_handedness(complex(eps), complex(mu)) is expected


class TestResponseAt:
    def test_record_is_self_consistent(self):
        rec = response_at(SystemParams(p_align=0.5, delta_p=3.0))
        assert abs(rec.n_index ** 2 - rec.eps_r * rec.mu_r) \
            <= 1e-10 * abs(rec.eps_r * rec.mu_r)
        assert rec.n_index.imag >= 0.0
        assert rec.handedness is classify_handedness(rec.eps_r, rec.mu_r)

    def test_degenerate_probe_rejected(self):
        with pytest.raises(DegenerateProbe):
            response_at(SystemParams(p_align=1.0))

    def test_sequence_returns_each_point_or_its_exception(self):
        points = [SystemParams(p_align=1.0),
                  SystemParams(p_align=0.5, delta_p=3.0),
                  SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL)]
        degenerate, record, unphysical = response_at(points)
        assert isinstance(degenerate, DegenerateProbe)
        assert record == response_at(points[1])
        assert isinstance(unphysical, NonPhysicalState)
        assert response_at([]) == []

    def test_zero_bare_probe_names_its_cause(self):
        with pytest.raises(DegenerateProbe,
                           match=r"^effective probe Rabi frequency is zero at omegap_bare = 0$"):
            response_at(SystemParams(omegap_bare=0.0, p_align=0.5))
        # the |p_align| = 1 check before the solve keeps its own text
        with pytest.raises(DegenerateProbe, match=r"^response is undefined at \|p_align\| = 1$"):
            response_at(SystemParams(omegap_bare=0.0, p_align=1.0))
        with pytest.raises(DegenerateProbe, match=r"at \|p_align\| = 1$"):
            electric_polarizability(0j, SystemParams(p_align=-1.0))
        with pytest.raises(DegenerateProbe, match="underflow"):
            magnetic_polarizability(0j, SystemParams(gamma_unit=5e-324))

    def test_sequence_errors_leave_no_reference_cycles(self):
        # omegap_bare = 0 solves, then fails in the mapping
        points = [SystemParams(omegap_bare=0.0, delta_p=d) for d in (-1.0, 0.0, 1.0)]
        gc.collect()
        gc.disable()
        try:
            out = response_at(points)
            assert all(isinstance(o, DegenerateProbe) for o in out)
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_single_point_errors_leave_no_reference_cycles(self):
        # raised from the solve, from the check before it, and from the mapping
        calls = [(SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL),
                  NonPhysicalState),
                 (SystemParams(p_align=1.0), DegenerateProbe),
                 (SystemParams(omegap_bare=0.0), DegenerateProbe)]
        gc.collect()
        gc.disable()
        try:
            for params, error in calls:
                with pytest.raises(error):
                    response_at(params)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_far_detuned_point_matches_integration_pipeline(self):
        # independent route: settle the state by time integration, then
        # apply the polarizability / local-field / index chain by hand
        params = SystemParams(p_align=0.0, delta_p=20.0)
        settled = evolve(params, DensityMatrix.ground(), 200.0)
        rho24 = settled.m[1, 3]
        rho32 = settled.m[2, 1]
        omega_p = params.omegap_bare * params.gamma_unit  # p = 0: no rescale
        ge = 2 * params.d42 ** 2 * rho24 / (8.8541878128e-12 * 1.054571817e-34 * omega_p)
        gm = (2 * 1.25663706212e-6 * params.mu23 * rho32 * 2.99792458e8
              * params.d42 / (1.054571817e-34 * omega_p))
        w_e, w_m = params.density_n * ge, params.density_n * gm
        eps = 1 + w_e / (1 - w_e / 3)
        mu = (1 + 2 * w_m / 3) / (1 - w_m / 3)
        n = cmath.sqrt(eps) * cmath.sqrt(mu)
        if n.imag < 0:
            n = -n

        rec = response_at(params)
        assert rec.rho24 == pytest.approx(rho24, abs=2e-6)
        assert rec.eps_r == pytest.approx(eps, rel=2e-4)
        assert rec.mu_r == pytest.approx(mu, rel=2e-4)
        assert rec.n_index == pytest.approx(n, rel=2e-4)
        # the dense local field keeps Re(eps) pinned near its saturation
        # value -2 even this far from resonance, so only mu stays positive
        assert rec.handedness is Handedness.NEG_EPS_ONLY

    def test_errors_propagate_from_solver(self):
        from sgcvapor import EquationVariant, NonPhysicalState
        with pytest.raises(NonPhysicalState):
            response_at(SystemParams(
                p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL))


class TestCalibratedSpotChecks:
    def test_strong_interference_near_resonance_is_left_handed(self, calibrated_base):
        rec = response_at(replace(calibrated_base, p_align=0.99, delta_p=5.0))
        assert rec.handedness is Handedness.LEFT_HANDED

    def test_weak_interference_keeps_mu_positive(self, calibrated_base):
        for delta in (-15.0, -5.0, 1e-16, 5.0, 15.0):
            rec = response_at(replace(calibrated_base, p_align=0.09, delta_p=delta))
            assert rec.mu_r.real > 0.0
            assert rec.eps_r.real < 0.0
