import cmath
import gc
import math
import operator
import pickle
import struct
import sys
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from sgcvapor import (DegenerateProbe, DensityMatrix, EquationVariant,
                      Handedness, LocalFieldPole, NonPhysicalState,
                      SystemParams, classify_handedness,
                      electric_polarizability, evolve, magnetic_polarizability,
                      permeability, permittivity, refractive_index,
                      response_at, steady_state, sweep_detuning)
from sgcvapor import SingularSystem, params, response, steady
from sgcvapor.model import IDX_IM23, IDX_IM24, IDX_RE23, IDX_RE24, unvectorize
from sgcvapor.params import PointsAlong

from conftest import magnetic_polarizability_from_permeability

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
        with pytest.raises(DegenerateProbe, match=r"^response is undefined at \|p_align\| = 1$"):
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
        with pytest.raises(DegenerateProbe, match=r"^response is undefined at \|p_align\| = 1$"):
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
        # a real polarizability, N*g = 1/2, gives a complex result too
        eps, mu = permittivity(1e-25, N_DEFAULT), permeability(1e-25, N_DEFAULT)
        assert type(eps) is complex and eps == 1.6
        assert type(mu) is complex and mu == 1.6000000000000003

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
        n = refractive_index(-1.0, -1.0)
        assert type(n) is complex and n == -1.0
        # Im n cancels exactly here (eps_r = conj(mu_r)), so only the
        # lossless double-negative branch takes the left-handed root
        assert refractive_index(-1 - 0.5j, -1 + 0.5j) == -1.118033988749895

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
        # |p_align| = 1 is named before omegap_bare = 0
        with pytest.raises(DegenerateProbe, match=r"^response is undefined at \|p_align\| = 1$"):
            response_at(SystemParams(omegap_bare=0.0, p_align=1.0))
        with pytest.raises(DegenerateProbe, match=r"at \|p_align\| = 1$"):
            electric_polarizability(0j, SystemParams(p_align=-1.0))
        with pytest.raises(DegenerateProbe, match="underflow"):
            magnetic_polarizability(0j, SystemParams(gamma_unit=5e-324))
        # omegap_si is not zero, but eps0 * hbar * omegap_si, which the
        # electric polarizability divides by, underflows to zero
        subnormal = SystemParams(omegap_bare=5e-324)
        assert subnormal.omegap_si != 0.0
        for polarizability in (electric_polarizability, magnetic_polarizability):
            with pytest.raises(DegenerateProbe, match=r"^eps0 \* hbar \* Omega_p underflows"):
                polarizability(1j, subnormal)

    @pytest.mark.parametrize("omegap_bare", [1e-265, 1e-280])
    def test_underflowing_numerator_fails_the_point(self, omegap_bare):
        # rho24 scales with the probe; 2 d42^2 rho24 underflows to zero
        # here, which read as the vacuum response, eps_r = 1
        params = SystemParams(omegap_bare=omegap_bare, p_align=0.5, delta_p=3.0)
        assert steady_state(params).rho24 != 0
        underflow = r"^polarizability numerator 2 d42\^2 rho24 underflows at rho24 = "
        with pytest.raises(DegenerateProbe, match=underflow):
            response_at(params)
        table = sweep_detuning(params, -20.0, 20.0, 41)
        assert {f.kind for f in table.failures} == {"DegenerateProbe"}
        assert len(table.failures) == 41

    def test_underflowing_magnetic_numerator_fails(self):
        # at omegap_bare = 1e-280 the full product 2 mu0 mu23 rho32 c d42 is zero
        params = SystemParams(omegap_bare=1e-280, p_align=0.5, delta_p=3.0)
        with pytest.raises(DegenerateProbe, match=r"2 mu0 mu23 rho32 c d42 underflows"):
            magnetic_polarizability(steady_state(params).rho32, params)
        # checked before * c as well: with d42 = 1 C m the product is lifted
        # back into the normal range after it lost its digits
        assert 2.0 * response.MU_0 * 9.274e-24 * 1e-286 < 2.0 ** -1022
        with pytest.raises(DegenerateProbe, match=r"2 mu0 mu23 rho32 underflows at rho32"):
            magnetic_polarizability(1e-286j, SystemParams(d42=1.0))

    @pytest.mark.parametrize("omegap_bare,gamma_e,gamma_m", [
        (1e-3, -4.415451609024868e-23 - 2.991229004029241e-23j,
         3.168061657652218e-27 + 1.8244994859242842e-26j),
        (1e-250, -4.41545198487862e-23 - 2.9912290974260044e-23j,
         3.1680619121878667e-27 + 1.8244995580142223e-26j),
    ])
    def test_weak_probes_keep_their_values(self, omegap_bare, gamma_e, gamma_m):
        # the numerator at 1e-250 is already subnormal, but within the
        # solve's own accuracy of its value
        record = response_at(SystemParams(omegap_bare=omegap_bare, p_align=0.5, delta_p=3.0))
        assert (record.gamma_e, record.gamma_m) == (gamma_e, gamma_m)

    def test_sequence_errors_leave_no_reference_cycles(self):
        # omegap_bare = 0 fails in the mapping, after the solve
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
        # raised from the solve, and from the mapping, over a SingularSystem
        # at |p_align| = 1 and over a solve that passed at omegap_bare = 0
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

    def test_one_point_unvectorizes_only_an_unphysical_state(self, monkeypatch):
        # a good point's coherences are read from the solution x; a
        # NonPhysicalState's state is unvectorized by the solve's gates from
        # its row alone, with the bytes steady_state gives it
        literal = SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL)
        expected = steady_state([literal])[0].state.m.tobytes()
        good = response_at(SystemParams(p_align=0.5, delta_p=3.0))
        calls = []
        monkeypatch.setattr(steady, "unvectorize",
                            lambda x: calls.append(len(x)) or unvectorize(x))
        assert response_at(SystemParams(p_align=0.5, delta_p=3.0)) == good
        assert calls == []
        with pytest.raises(NonPhysicalState) as info:
            response_at(literal)
        assert calls == [1]
        assert info.value.state.m.tobytes() == expected

    def test_largest_accepted_d42_raises_no_overflow_error(self):
        # both mappings take 2.0 * d42 ** 2 by Python's float power, which
        # raises OverflowError where the square overflows: SystemParams
        # rejects every such d42
        point = SystemParams(d42=math.sqrt(sys.float_info.max))
        outcomes = [_one(point), *response_at([point, replace(point, delta_p=1.0)])]
        assert not any(isinstance(outcome, OverflowError) for outcome in outcomes)
        # N gamma_e is not finite there: each point fails at the local field
        assert [type(outcome) for outcome in outcomes] == [LocalFieldPole] * 3

    @pytest.mark.parametrize("point, message, failing", [
        (dict(d42=1.3e124), r"N\*gamma_e = .* is not finite", 41),
        (dict(d42=1e150), r"N\*gamma_e = .* is not finite", 41),
        # a finite N gamma whose relation overflows: 2 N gamma_m / 3 in
        # mu_r, and Smith's division in eps_r
        (dict(mu23=1.5e286, delta_p=3.0), r"N\*gamma_m = .* overflows the local-field relation",
         27),
        (dict(d42=1e124, p_align=0.0, delta_p=3.0),
         r"N\*gamma_e = .* overflows the local-field relation", 38),
    ], ids=["1.3e+124", "1e+150", "mu23-1.5e+286", "d42-1e+124"])
    def test_overflowing_local_field_fails_the_point(self, point, message, failing):
        # an N gamma that is not finite, or a relation that overflows, read
        # as a NaN or infinite eps_r, mu_r and n with a handedness; the
        # point fails instead, alone, in a list and in a sweep, and every
        # record that is returned is finite
        point = SystemParams(**point)
        with pytest.raises(LocalFieldPole, match=f"^{message}$"):
            response_at(point)
        ordinary = SystemParams()
        outcomes = response_at([ordinary, point, ordinary])
        assert type(outcomes[1]) is LocalFieldPole and str(outcomes[1]) == str(_one(point))
        assert outcomes[0] == outcomes[2] == response_at(ordinary)
        table = sweep_detuning(point, -20.0, 20.0, 41)
        failed = {f.axis_value: f for f in table.failures}
        assert {f.kind for f in failed.values()} == {"LocalFieldPole"}
        assert failed[point.delta_p].message == str(outcomes[1])
        records = [r for r in table.records if r is not None]
        assert (len(failed), len(records)) == (failing, 41 - failing)
        assert all(cmath.isfinite(z) for r in records for z in (r.eps_r, r.mu_r, r.n_index))

    def test_one_point_maps_with_its_own_probe_rabi_frequency(self):
        # the probe test's omegap_si is the one the mapping divides by: the
        # record is the one the point gets in a list, to its bits, and its
        # gamma_e is the polarizability of the point itself
        point = SystemParams(p_align=0.5, delta_p=3.0)
        expected = response_at([point])[0]
        got = response_at(point)
        assert [str(getattr(got, f.name)) for f in fields(got)] == [
            str(getattr(expected, f.name)) for f in fields(expected)]
        assert got.gamma_e == electric_polarizability(got.rho24, point)

    def test_one_point_reads_its_probe_once_and_no_column(self, monkeypatch):
        # a record, a NonPhysicalState from the solve and a DegenerateProbe
        # from the mapping: each reads the point's omegap_si once, and none
        # reads a PointsAlong column
        points = [SystemParams(p_align=0.5, delta_p=3.0),
                  SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL),
                  SystemParams(omegap_bare=0.0)]
        expected = [_bits(_one(point)) for point in points]
        reads, calls = [], []
        omegap_si = SystemParams.omegap_si
        monkeypatch.setattr(SystemParams, "omegap_si",
                            property(lambda point: reads.append(point) or omegap_si.fget(point)))
        column = PointsAlong.column
        monkeypatch.setattr(PointsAlong, "column",
                            lambda *args: calls.append(args) or column(*args))
        for point, bits in zip(points, expected):
            reads.clear()
            assert _bits(_one(point)) == bits
            assert reads == [point]
        assert calls == []

    def test_one_point_raises_through_steady_state(self, monkeypatch):
        # a one-point call's outcome leaves through steady_state's own
        # one-point call, so what wraps steady_state sees its errors, a
        # vanishing probe's among them
        calls, raised = [], []
        solve = response.steady_state

        def spy(points, **kwargs):
            calls.append(points)
            try:
                return solve(points, **kwargs)
            except Exception as exc:
                raised.append(type(exc))
                raise

        monkeypatch.setattr(response, "steady_state", spy)
        literal = SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL)
        aligned = SystemParams(p_align=1.0)
        with pytest.raises(NonPhysicalState):
            response_at(literal)
        with pytest.raises(DegenerateProbe):
            response_at(aligned)
        assert calls == [literal, aligned]
        assert raised == [NonPhysicalState, DegenerateProbe]

    @pytest.mark.parametrize("form", ["point", "list", "points-along"])
    @pytest.mark.parametrize("variant", list(EquationVariant))
    @pytest.mark.parametrize("vanishing,message", [
        (dict(p_align=1.0), "response is undefined at |p_align| = 1"),
        (dict(p_align=-1.0), "response is undefined at |p_align| = 1"),
        (dict(omegap_bare=0.0), "effective probe Rabi frequency is zero at omegap_bare = 0"),
        (dict(omegap_bare=5e-324), "eps0 * hbar * Omega_p underflows to zero at the effective "
                                   "probe Rabi frequency 4.94e-316 rad/s"),
    ], ids=["p=1", "p=-1", "no-probe", "subnormal-probe"])
    def test_a_vanishing_probe_fails_in_the_mapping(self, monkeypatch, vanishing, message,
                                                    variant, form):
        # one rule for one point and many: the mapping fails the point with
        # DegenerateProbe after the solve, whatever the solve gave (the
        # system is singular at |p_align| = 1, and the paper's fixed point
        # may be unphysical), and its outcome leaves through steady_state
        point = SystemParams(delta_p=0.0, equation_variant=variant, **vanishing)
        if "p_align" in vanishing:
            assert isinstance(steady_state([point])[0], SingularSystem)
        if form == "point":
            points, k = point, None
        elif form == "list":
            points, k = [replace(point, p_align=0.5), point, replace(point, p_align=-0.3)], 1
        elif "p_align" in vanishing:
            points, k = PointsAlong(point, "p_align", [0.5, point.p_align, -0.3]), 1
        else:
            points, k = PointsAlong(point, "delta_p", [-2.0, 0.0, 3.0]), 1
        others = [] if k is None else [_bits(_one(p)) for i, p in enumerate(points) if i != k]
        left = []
        solve = response.steady_state

        def spy(params, **kwargs):
            try:
                outcomes = solve(params, **kwargs)
            except Exception as exc:
                left.append(exc)
                raise
            left.extend(outcomes)
            return outcomes

        monkeypatch.setattr(response, "steady_state", spy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = _one(points)
        assert caught == []
        if k is not None:
            assert [_bits(o) for i, o in enumerate(outcome) if i != k] == others
            outcome = outcome[k]
        assert type(outcome) is DegenerateProbe and str(outcome) == message
        assert any(o is outcome for o in left)

    def test_errors_propagate_from_solver(self):
        from sgcvapor import EquationVariant, NonPhysicalState
        with pytest.raises(NonPhysicalState):
            response_at(SystemParams(
                p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL))


# the mapping values of response._record, in the order _map_stack takes them
MAPPING = ("omegap_si", "omegap_bare", "d42", "mu23", "density_n", "delta_p", "p_align")


# the float and complex fields of a record
_FIELDS = operator.attrgetter("delta_p", "p_align", "rho24", "rho32", "gamma_e", "gamma_m",
                              "eps_r", "mu_r", "n_index")


def _alone(rho, k, failures, mapping):
    """Row k of a stack as _record maps it alone, its coherences read from
    rho, the stack's unvectorize: its record or exception."""
    if k in failures:
        return failures[k]
    try:
        return response._record(_pair(rho.item(k, 1, 3)), _pair(rho.item(k, 2, 1)),
                                *[column[k] for column in mapping])
    except (DegenerateProbe, LocalFieldPole) as exc:
        return exc


def _one(point):
    """The outcome of a one-point response_at call: its record, or the
    exception it raises."""
    try:
        return response_at(point)
    except (DegenerateProbe, LocalFieldPole, SingularSystem, NonPhysicalState) as exc:
        return exc


def _pair(z):
    return z.real, z.imag


def _unphysical(x):
    """The NonPhysicalState the solve's gates give the unit-trace row x."""
    return NonPhysicalState(None, DensityMatrix(unvectorize(x), check=False))


def _bits(outcome):
    """An exception's type and text, or a record's handedness and the bytes
    of each of its floats: a NaN's sign bit counts too."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    parts = [part for value in map(complex, _FIELDS(outcome)) for part in (value.real, value.imag)]
    return outcome.handedness, struct.pack("<18d", *parts)


def _stack(rho24, rho32):
    """A stack X (N, 16) whose only coherences are rho24 and rho32 (rho23
    = conj(rho32) is stored)."""
    rho24, rho32 = np.asarray(rho24, dtype=complex), np.asarray(rho32, dtype=complex)
    X = np.zeros((len(rho24), 16))
    X[:, IDX_RE24], X[:, IDX_IM24] = rho24.real, rho24.imag
    X[:, IDX_RE23], X[:, IDX_IM23] = rho32.real, -rho32.imag
    return X


class TestStackMapping:
    """A stack of more than one state is mapped to its records in one pass
    of array arithmetic; each row must come out as _record maps it alone,
    bit for bit (a NaN's sign bit too), its exception included."""

    @pytest.mark.parametrize("variant", list(EquationVariant))
    @pytest.mark.parametrize("dipoles", ["placeholder", "calibrated"])
    def test_real_states_match_record_bit_for_bit(self, calibrated_base, dipoles, variant):
        base = SystemParams() if dipoles == "placeholder" else calibrated_base
        base = replace(base, equation_variant=variant)
        detunings = np.linspace(-20.0, 20.0, 4001).tolist()
        alignments = np.linspace(-0.999999, 0.999999, 2501).tolist()
        sequences = [PointsAlong(replace(base, p_align=p), "delta_p", detunings)
                     for p in (0.0, 0.3, 0.7, 0.99, -0.5)]
        sequences += [PointsAlong(replace(base, delta_p=d), "p_align", alignments)
                      for d in (1e-16, 5.0)]
        stacked, alone = [], []

        def each(stack, X, failures):
            mapping = [stack.column(name) for name in MAPPING]
            records, flagged = response._stack_records(X, *mapping)
            # every row that did not fail the solve is mapped by the arrays
            assert set(flagged) <= set(failures)
            rows = [k for k in range(len(X)) if k not in failures]
            stacked.extend(records[k] for k in rows)
            rho = unvectorize(X)
            alone.extend(_alone(rho, k, failures, mapping) for k in rows)
            return records

        for points in sequences:
            steady_state(points, _map=each)
        # 25,007 points per case, 100,028 over the four; the paper's
        # equations leave about a third of theirs to map
        assert len(stacked) > (25_000 if variant is EquationVariant.CORRECTED else 5_000)
        assert all(isinstance(record, response.ResponseRecord) for record in alone)
        assert list(map(_bits, stacked)) == list(map(_bits, alone))

    def test_synthetic_coherences_match_record_bit_for_bit(self):
        # signed zeros, subnormals, values just either side of each
        # numerator's underflow bound, 1e300 (with a density that takes it
        # to inf), and densities at and near the local-field poles
        d42, mu23, omegap_si = 1e-29, 9.274e-24, SystemParams().omegap_si
        bound = response._UNDERFLOW_BOUND
        electric = bound / (2.0 * d42 ** 2)
        magnetic = bound / (2.0 * response.MU_0 * mu23)
        full = magnetic / (response.C_LIGHT * d42)
        parts = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, 1e-3, -2.5e-4, 0.37, 1e300, -1e300]
        parts24 = parts + [electric * (1 - 1e-9), electric * (1 + 1e-9), -electric]
        parts32 = parts + [magnetic * (1 - 1e-9), magnetic * (1 + 1e-9),
                           full * (1 - 1e-9), full * (1 + 1e-9), -full]
        rows = [(complex(a, b), complex(c, d), density) for density in (5e24, 1e30)
                for a in parts24 for b in parts24[::2] for c in parts32[::3] for d in parts32[1::2]]
        for r in (1e-3, -2.5e-4, 0.37):
            ge = response._electric((r, 0.0), d42, omegap_si)[0]
            gm = response._magnetic((r, 0.0), d42, mu23, omegap_si)[0]
            # at N gamma = 6 a real mu_r is negative with Im = -0.0, and
            # refractive_index folds that onto +0.0
            for k in (3.0, 3.0 * (1 + 5e-13), 3.0 * (1 - 3e-12), 3.0 * (1 - 1e-11), 6.0):
                for other in (1e-4j, 0j):
                    rows.append((complex(r, 0.0), other, k / ge))
                    rows.append((other, complex(r, 0.0), k / gm))
        # N gamma_m = 1.5e308 is finite, but 2 N gamma_m, in mu_r, is not:
        # the row fails
        gm = response._magnetic((1e300, 0.0), d42, mu23, omegap_si)[0]
        rows.append((1e-3, complex(1e300, 0.0), 1.5e308 / gm))
        overflow = f"N*gamma_m = {complex(rows[-1][2] * gm, 0.0)} overflows the local-field relation"
        X = _stack([r[0] for r in rows], [r[1] for r in rows])
        n = len(rows)
        mapping = ([omegap_si] * n, [0.2] * n, [d42] * n, [mu23] * n, [r[2] for r in rows],
                   [0.0] * n, [0.5] * n)
        with warnings.catch_warnings():
            # the scalar sqrt of a NaN or inf may warn
            warnings.simplefilter("ignore", RuntimeWarning)
            stacked = response._map_stack(X, {}, *mapping)
            rho = unvectorize(X)
            alone = [_alone(rho, k, {}, mapping) for k in range(n)]
        assert list(map(_bits, stacked)) == list(map(_bits, alone))
        assert {type(o) for o in alone} == {response.ResponseRecord, DegenerateProbe,
                                            LocalFieldPole}
        # an N gamma that is not finite, and one whose relation overflows
        assert any(str(o).endswith("is not finite") for o in alone)
        assert type(alone[-1]) is LocalFieldPole and str(alone[-1]) == overflow
        # no record holds a response that is not finite
        records = [o for o in alone if isinstance(o, response.ResponseRecord)]
        assert all(cmath.isfinite(z) for o in records for z in (o.eps_r, o.mu_r, o.n_index))
        # the rows the arrays map, signed zeros among them, and the rows
        # they leave to _record
        _, flagged = response._stack_records(X, *mapping)
        assert 0 < len(flagged) < n - 500

    def test_failing_rows_fail_as_alone_and_leave_the_others(self):
        omegap_si, d42, mu23 = SystemParams().omegap_si, 1e-29, 9.274e-24
        gm = response._magnetic((0.37, 0.0), d42, mu23, omegap_si)[0]
        rng = np.random.default_rng(3)
        rho24 = (rng.normal(size=24) + 1j * rng.normal(size=24)) * 1e-3
        rho32 = (rng.normal(size=24) + 1j * rng.normal(size=24)) * 1e-4
        density = [5e24] * 24
        rho24[5] = 1e-270j               # the electric numerator underflows
        rho32[9], density[9] = 0.37, 3.0 / gm   # the magnetic pole
        X = _stack(rho24, rho32)
        X[14, :4] = (1.5, -0.5, 0.0, 0.0)   # its populations leave [0, 1]
        failures = {2: SingularSystem("solution has non-finite entries"), 14: _unphysical(X[14])}
        mapping = ([omegap_si] * 24, [0.2] * 24, [d42] * 24, [mu23] * 24, density,
                   np.linspace(-3.0, 3.0, 24).tolist(), [0.5] * 24)
        stacked = response._map_stack(X, failures, *mapping)
        for k, outcome in enumerate(stacked):
            alone, = response._map_stack(X[k:k + 1], {0: failures[k]} if k in failures else {},
                                         *[column[k:k + 1] for column in mapping])
            assert _bits(outcome) == _bits(alone)
        # the solve's errors are the rows' outcomes, as they were given
        assert stacked[2] is failures[2] and stacked[14] is failures[14]
        assert [type(stacked[k]) for k in (2, 5, 9, 14)] == [
            SingularSystem, DegenerateProbe, LocalFieldPole, NonPhysicalState]
        rest = [k for k in range(24) if k not in (2, 5, 9, 14)]
        without = response._map_stack(X[rest], {}, *[[column[k] for k in rest]
                                                       for column in mapping])
        assert [_bits(stacked[k]) for k in rest] == [_bits(o) for o in without]
        assert all(isinstance(o, response.ResponseRecord) for o in without)

    def test_a_vanishing_probe_drops_what_the_solve_gave(self):
        # a row whose probe vanishes fails with DegenerateProbe over the
        # SingularSystem or NonPhysicalState of its solve, in a stack and
        # alone; the other rows keep theirs
        X = _stack([1e-3j] * 4, [1e-4] * 4)
        X[:, :4] = (1.5, -0.5, 0.0, 0.0)   # populations outside [0, 1]
        probe = SystemParams().omegap_si
        mapping = ([0.0, probe, 0.0, probe], [0.0, 0.2, 0.0, 0.2], [1e-29] * 4,
                   [9.274e-24] * 4, [5e24] * 4, [0.0] * 4, [0.5] * 4)
        failures = {k: SingularSystem("solution has non-finite entries") for k in (0, 1)}
        failures.update((k, _unphysical(X[k])) for k in (2, 3))
        given = dict(failures)
        stacked = response._map_stack(X, failures, *mapping)
        assert [type(o) for o in stacked] == [DegenerateProbe, SingularSystem,
                                              DegenerateProbe, NonPhysicalState]
        assert str(stacked[0]) == "effective probe Rabi frequency is zero at omegap_bare = 0"
        for k, outcome in enumerate(stacked):
            alone, = response._map_stack(X[k:k + 1], {0: failures[k]},
                                         *[column[k:k + 1] for column in mapping])
            assert _bits(outcome) == _bits(alone)
        # the mapping drops entries from a dict of its own: the solve's is
        # left as it was
        assert failures == given

    def test_mixed_points_come_out_as_alone(self):
        # failures in the solve and in the mapping, between points that map
        kinds = [dict(), dict(p_align=1.0), dict(omegap_bare=0.0), dict(omegap_bare=1e-265),
                 dict(gamma2=1e-300, gamma3=1e-300, gamma4=1e-300),
                 dict(equation_variant=EquationVariant.PAPER_LITERAL), dict(p_align=-0.3)]
        points = [SystemParams(delta_p=d, **kinds[k % len(kinds)])
                  for k, d in enumerate(np.linspace(-10.0, 10.0, 40).tolist())]
        alone = [_one(point) for point in points]
        together = response_at(points)
        assert [_bits(o) for o in together] == [_bits(o) for o in alone]
        assert {type(o) for o in together} == {
            response.ResponseRecord, DegenerateProbe, SingularSystem, NonPhysicalState}
        # each kind along delta_p, the sequence a sweep hands over
        detunings = [-2.0, 0.0, 3.0]
        for kind in kinds:
            base = SystemParams(**kind)
            along = response_at(PointsAlong(base, "delta_p", detunings))
            assert [_bits(o) for o in along] == [
                _bits(_one(replace(base, delta_p=d))) for d in detunings], kind


class TestPairArithmetic:
    """The mapping's arithmetic is written out on float pairs, so its bits
    do not depend on the interpreter's complex operators. Each case is one
    where Python 3.14's mixed real/complex rules (C99 Annex G) would give
    another result than the CPython 3.10-3.13 operators these bits are: a
    signed zero, and a NaN divisor, which the relations refuse to divide by."""

    def test_signed_zeros(self):
        # (2 d42^2) * (0.37 - 0j): the 0.0 * 0.37 term lifts Im to +0.0
        ge = response._electric((0.37, -0.0), 1e-29, SystemParams().omegap_si)
        assert [x.hex() for x in ge] == ["0x1.59b899475b15ep-68", "0x0.0p+0"]
        assert [x.hex() for x in response._scale(2.0, (0.37, -0.0))] == [
            "0x1.7ae147ae147aep-1", "0x0.0p+0"]
        assert [x.hex() for x in response._plus(1.0, (0.5, -0.0))] == [
            "0x1.8000000000000p+0", "0x0.0p+0"]

    def test_nan_divisor(self):
        # N gamma / (1 - N gamma / 3) with a NaN divisor has no value to
        # take: the relations raise before they divide
        not_finite = r"^N\*gamma_[em] = \(nan\+nanj\) is not finite$"
        for relation in (permittivity, permeability):
            with pytest.raises(LocalFieldPole, match=not_finite):
                relation(complex(-math.nan, 0.0), N_DEFAULT)


class TestSlotBuiltRecords:
    """_stack_records sets each record's slots itself instead of calling the
    dataclass __init__: its records must be the ones __init__ builds."""

    def test_records_are_constructor_records(self, calibrated_base):
        points = PointsAlong(replace(calibrated_base, p_align=0.7), "delta_p",
                             np.linspace(-20.0, 20.0, 64).tolist())
        X = np.stack([state.vector() for state in steady_state(points)])
        mapping = [points.column(name) for name in MAPPING]
        records, flagged = response._stack_records(X, *mapping)
        assert flagged == []
        assert {record.handedness for record in records} >= {Handedness.LEFT_HANDED,
                                                             Handedness.NEG_EPS_ONLY}
        for record in records:
            assert type(record) is response.ResponseRecord
            built = response.ResponseRecord(*(getattr(record, f.name) for f in fields(record)))
            assert record == built
            assert hash(record) == hash(built)
            assert _bits(record) == _bits(built)
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is response.ResponseRecord
            assert _bits(copy) == _bits(record)
            with pytest.raises(FrozenInstanceError):
                record.p_align = 0.0

    def test_record_class_has_what_the_slot_setters_assume(self):
        # a __post_init__ would not run for slot-built records, and the
        # setters are taken in field order
        cls = response.ResponseRecord
        assert not hasattr(cls, "__post_init__")
        assert cls.__slots__ == tuple(f.name for f in fields(cls))
        assert response._SET_SLOTS == [getattr(cls, name).__set__ for name in cls.__slots__]


class TestCalibratedSpotChecks:
    def test_strong_interference_near_resonance_is_left_handed(self, calibrated_base):
        rec = response_at(replace(calibrated_base, p_align=0.99, delta_p=5.0))
        assert rec.handedness is Handedness.LEFT_HANDED

    def test_weak_interference_keeps_mu_positive(self, calibrated_base):
        for delta in (-15.0, -5.0, 1e-16, 5.0, 15.0):
            rec = response_at(replace(calibrated_base, p_align=0.09, delta_p=delta))
            assert rec.mu_r.real > 0.0
            assert rec.eps_r.real < 0.0
