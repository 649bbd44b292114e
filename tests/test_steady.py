import gc
import warnings

import numpy as np
import pytest

from sgcvapor import (DensityMatrix, EquationVariant, NonPhysicalState,
                      SingularSystem, StepUnstable, SystemParams,
                      ValidationError, build_generator, eom_rhs, evolve,
                      steady_state)
from sgcvapor import steady
from sgcvapor.model import unvectorize, vectorize
from sgcvapor.steady import _solve_trace_normalized

from conftest import ORACLE_DETUNINGS, ORACLE_P_VALUES, random_hermitian

NO_FIELDS = SystemParams(omega1_bare=0.0, omegap_bare=0.0, p_align=0.0)

# (p, delta_p) points whose slowest relaxation rate is O(gamma); the
# remaining grid point (0.99, 0) hosts an interference-protected mode that
# decays at only ~0.8*(1 - p^2)*gamma and gets its own test below
FAST_GRID_POINTS = [(p, d) for p in ORACLE_P_VALUES for d in ORACLE_DETUNINGS
                    if not (p == 0.99 and d == 0.0)]


class TestSteadyState:
    def test_undriven_system_decays_to_ground(self):
        rho = steady_state(NO_FIELDS)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.max(np.abs(rho.vector() - expected)) < 1e-14

    def test_state_invariants_hold(self):
        rho = steady_state(SystemParams(p_align=0.5, delta_p=3.0))
        rho.validate()
        assert abs(rho.m.trace() - 1.0) < 1e-15  # renormalized to roundoff

    def test_fixed_point_of_the_dynamics(self):
        rho = steady_state(SystemParams(p_align=0.5))
        assert np.linalg.norm(eom_rhs(SystemParams(p_align=0.5), rho)) < 1e-9

    @pytest.mark.parametrize("p,delta", FAST_GRID_POINTS)
    def test_agrees_with_time_integration(self, p, delta, oracle_grid):
        solved, settled = oracle_grid[(p, delta)]
        assert np.max(np.abs(solved - settled)) < 1e-6

    def test_slow_interference_mode_needs_longer_horizon(self, oracle_grid):
        # at (p, delta) = (0.99, 0) the slowest mode decays at ~0.016*gamma,
        # so 200/gamma leaves an O(1e-4) transient; by 800/gamma it is gone
        solved, settled = oracle_grid[(0.99, 0.0)]
        gap = np.max(np.abs(solved - settled))
        assert 1e-5 < gap < 1e-3
        params = SystemParams(p_align=0.99, delta_p=0.0)
        long_run = evolve(params, DensityMatrix.ground(), 800.0)
        assert np.max(np.abs(solved - long_run.vector())) < 1e-6

    def test_agrees_with_time_integration_at_high_p_off_resonance(self):
        params = SystemParams(p_align=0.99, delta_p=5.0)
        settled = evolve(params, DensityMatrix.ground(), 200.0)
        assert np.max(np.abs(steady_state(params).vector() - settled.vector())) < 1e-6

    @pytest.mark.parametrize("p", [0.2, 0.7])
    def test_alignment_reflection_relates_steady_states(self, p):
        from sgcvapor.model import LEVEL3_COHERENCE_INDICES
        flip = np.ones(16)
        flip[list(LEVEL3_COHERENCE_INDICES)] = -1.0
        plus = steady_state(SystemParams(p_align=p, delta_p=2.0)).vector()
        minus = steady_state(SystemParams(p_align=-p, delta_p=2.0)).vector()
        assert np.max(np.abs(minus - flip * plus)) < 1e-10

    def test_weak_probe_response_is_linear(self):
        # halving and quartering the probe scales rho24 by the same factor
        base = steady_state(SystemParams(p_align=0.5)).rho24
        for scale in (0.5, 0.25):
            scaled = steady_state(
                SystemParams(p_align=0.5, omegap_bare=0.2 * scale)).rho24
            assert abs(scaled / scale - base) / abs(base) < 0.02

    def test_paper_literal_fixed_point_is_unphysical_at_defaults(self):
        params = SystemParams(p_align=0.5,
                              equation_variant=EquationVariant.PAPER_LITERAL)
        with pytest.raises(NonPhysicalState) as info:
            steady_state(params)
        # the offending state rides on the exception for inspection
        pops = info.value.state.m.diagonal().real
        assert pops.min() < -1e-6

    def test_nonphysical_message_formatted_from_the_state_on_demand(self):
        params = SystemParams(p_align=0.5,
                              equation_variant=EquationVariant.PAPER_LITERAL)
        error = steady_state([params])[0]
        assert error.args == (None,)
        expected = ("fixed-point populations outside [0, 1]: "
                    f"{error.state.m.diagonal().real}")
        assert repr(error) == f"NonPhysicalState({expected!r})"
        assert str(error) == expected
        assert error.args == (expected,)
        # an explicit message is kept as given
        assert str(NonPhysicalState("in range", error.state)) == "in range"

    def test_singular_system_detected(self):
        (error,) = _solve_trace_normalized(np.zeros((1, 16, 16)))
        assert isinstance(error, SingularSystem)

    def test_ill_conditioned_solve_warns(self):
        L = np.diag([0.0, -1.0, -1.0, -1.0] + [-1e-13] * 12)
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            _solve_trace_normalized(L[None])

    def test_stacked_rows_fail_and_warn_independently(self):
        regular = build_generator(SystemParams(p_align=0.5, delta_p=3.0))
        ill = np.diag([0.0, -1.0, -1.0, -1.0] + [-1e-13] * 12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = _solve_trace_normalized(np.stack([regular, np.zeros((16, 16)), ill]))
        assert len(out) == 3
        assert out[0].tobytes() == _solve_trace_normalized(regular[None])[0].tobytes()
        assert [isinstance(x, SingularSystem) for x in out] == [False, True, False]
        ill_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)
                        and "ill-conditioned" in str(w.message)]
        assert len(ill_warnings) == 1

    def test_degenerate_rows_fail_the_condition_gate_without_raising(self):
        # the gate is what keeps the batched LU from raising: a row it
        # passes has no zero pivot, so every kind of bad row must fail it
        regular = build_generator(SystemParams(p_align=0.5, delta_p=3.0))
        # a zero column: np.linalg.solve raises for this row alone
        rank_deficient = regular.copy()
        rank_deficient[:, 5] = 0.0
        stack = np.stack([np.zeros((16, 16)), np.full((16, 16), np.nan),
                          np.full((16, 16), np.inf), rank_deficient, regular])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *bad, x = _solve_trace_normalized(stack)
        for error in bad:
            assert isinstance(error, SingularSystem)
            assert str(error).startswith("trace-constrained system is rank-deficient")
        assert x.tobytes() == _solve_trace_normalized(regular[None])[0].tobytes()

    def test_raised_errors_leave_no_reference_cycles(self, monkeypatch):
        # a cycle through the traceback would keep every raised exception,
        # and the arrays its frames hold, alive until a full collection
        literal = SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL)

        def singular():
            with monkeypatch.context() as patch:
                patch.setattr(steady, "build_generator",
                              lambda points: np.zeros((len(points), 16, 16)))
                steady_state(SystemParams())

        calls = ((lambda: steady_state(literal), NonPhysicalState),
                 (singular, SingularSystem))
        gc.collect()
        gc.disable()
        try:
            for call, error in calls:
                with pytest.raises(error):
                    call()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEvolve:
    def test_zero_time_returns_initial_state(self):
        rho0 = DensityMatrix.from_populations(0.4, 0.3, 0.2, 0.1)
        out = evolve(SystemParams(p_align=0.5), rho0, 0.0)
        assert np.array_equal(out.m, rho0.m)

    def test_pure_decay_ends_in_ground_state(self):
        rho0 = DensityMatrix.from_populations(0.0, 1.0, 0.0, 0.0)
        out = evolve(NO_FIELDS, rho0, 100.0)
        assert abs(out.m[0, 0].real - 1.0) < 1e-6
        assert abs(out.m[1, 1].real) < 1e-6

    def test_preserves_trace_and_hermiticity(self, oracle_grid):
        _solved, settled = oracle_grid[(0.5, 0.0)]
        rho = DensityMatrix.from_vector(settled, check=False)
        assert abs(rho.m.trace() - 1.0) < 1e-9
        assert np.max(np.abs(rho.m - rho.m.conj().T)) == 0.0

    def test_horizon_shorter_than_dt_takes_one_partial_step(self):
        p = SystemParams(p_align=0.5)
        a = evolve(p, DensityMatrix.ground(), 0.003, dt=0.005)
        b = evolve(p, DensityMatrix.ground(), 0.003, dt=0.003)
        assert np.array_equal(a.vector(), b.vector())

    def test_invalid_steps_rejected(self):
        p = SystemParams()
        with pytest.raises(ValidationError):
            evolve(p, DensityMatrix.ground(), 1.0, dt=0.0)
        with pytest.raises(ValidationError):
            evolve(p, DensityMatrix.ground(), -1.0)
        for t_final, dt in [(float("nan"), 0.005), (float("inf"), 0.005),
                            (1.0, float("nan")), (1.0, float("inf")),
                            (1e300, 1e-10), (1e20, 1e-3), (1.0, 1e-320)]:
            with pytest.raises(ValidationError):
                evolve(p, DensityMatrix.ground(), t_final, dt=dt)

    def test_no_steps_for_a_zero_horizon(self):
        # 1/dt overflows here; no step is taken and rho0 comes back
        rho0 = DensityMatrix.from_populations(0.5, 0.25, 0.125, 0.125)
        rho = evolve(SystemParams(), rho0, 0.0, dt=1e-320)
        assert np.array_equal(rho.m, rho0.m)

    def test_paper_literal_diverges_from_populated_upper_level(self):
        params = SystemParams(p_align=0.5,
                              equation_variant=EquationVariant.PAPER_LITERAL)
        rho0 = DensityMatrix.from_populations(0.99, 0.0, 0.01, 0.0)
        with pytest.raises(StepUnstable, match=r"t = 5\.000/gamma "):
            evolve(params, rho0, 200.0)

    @pytest.mark.parametrize("step", [1e100, 1e200])
    def test_non_finite_divergence_is_detected(self, step):
        # the components overflow to inf and NaN, which compare false
        # against any bound
        with pytest.raises(StepUnstable):
            evolve(SystemParams(), DensityMatrix.ground(), step, dt=step)

    @pytest.mark.parametrize("variant", list(EquationVariant))
    @pytest.mark.parametrize("p,delta", [(0.0, 0.0), (0.5, -3.0), (0.99, 10.0)])
    def test_one_step_is_textbook_rk4_on_the_complex_equations(self, variant, p, delta):
        params = SystemParams(p_align=p, delta_p=delta, equation_variant=variant)
        x0 = vectorize(random_hermitian(np.random.default_rng(3)))

        def rhs(x):
            return vectorize(eom_rhs(params, unvectorize(x)))

        expected = _textbook_rk4_step(rhs, x0, 0.005)
        rho0 = DensityMatrix.from_vector(x0, check=False)
        got = evolve(params, rho0, 0.005, dt=0.005).vector()
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_blocks_leftover_steps_and_partial_step_match_stepwise_rk4(self):
        # 1.2345/gamma at dt = 0.005: one block of 200 steps, 46 leftover
        # steps and a final partial step of 0.0045
        params = SystemParams(p_align=0.7, delta_p=2.0)
        L = build_generator(params)
        x = DensityMatrix.ground().vector()
        for _ in range(246):
            x = _textbook_rk4_step(lambda v: L @ v, x, 0.005)
        x = _textbook_rk4_step(lambda v: L @ v, x, 1.2345 - 246 * 0.005)
        got = evolve(params, DensityMatrix.ground(), 1.2345).vector()
        assert np.max(np.abs(got - x)) < 1e-13


def _textbook_rk4_step(rhs, x, h):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
