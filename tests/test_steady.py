import copy
import gc
import hashlib
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
import weakref
from _queue import Empty, SimpleQueue
from dataclasses import astuple, replace

import numpy as np
import pytest

from sgcvapor import (DensityMatrix, EquationVariant, NonPhysicalState, ResponseRecord,
                      SingularSystem, StepUnstable, SystemParams,
                      ValidationError, build_generator, eom_rhs, evolve,
                      response_at, steady_state, sweep_detuning)
from sgcvapor import steady
from sgcvapor.model import unvectorize, vectorize
from sgcvapor.params import PointsAlong
from sgcvapor.steady import CHUNK_POINTS

from conftest import ORACLE_DETUNINGS, ORACLE_P_VALUES, from_populations, random_hermitian

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
        # a sequence's errors are items of its result, which a process pool
        # pickles: copies made before and after the text is formatted keep
        # the text and the state's bytes
        copies = [pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)]
        assert error.args == (None,)
        expected = ("fixed-point populations outside [0, 1]: "
                    f"{error.state.m.diagonal().real}")
        assert repr(error) == f"NonPhysicalState({expected!r})"
        assert str(error) == expected
        assert error.args == (expected,)
        copies += [pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)]
        for copied in copies:
            assert type(copied) is NonPhysicalState
            assert _bits(copied) == _bits(error)
        # an explicit message is kept as given
        assert str(NonPhysicalState("in range", error.state)) == "in range"

    def test_singular_system_detected(self):
        _, failures = _solve_stack(np.zeros((1, 16, 16)))
        assert list(failures) == [0]
        assert isinstance(failures[0], SingularSystem)

    def test_ill_conditioned_solve_warns(self):
        L = np.diag([0.0, -1.0, -1.0, -1.0] + [-1e-13] * 12)
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            _solve_stack(L[None])

    def test_stacked_rows_fail_and_warn_independently(self):
        regular = build_generator(SystemParams(p_align=0.5, delta_p=3.0))
        ill = np.diag([0.0, -1.0, -1.0, -1.0] + [-1e-13] * 12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rho, failures = _solve_stack(np.stack([regular, np.zeros((16, 16)), ill]))
        assert len(rho) == 3
        assert rho[0].tobytes() == _solve_stack(regular[None])[0][0].tobytes()
        assert list(failures) == [1]
        assert isinstance(failures[1], SingularSystem)
        ill_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)
                        and "ill-conditioned" in str(w.message)]
        assert len(ill_warnings) == 1

    def test_degenerate_rows_fail_the_condition_gate_without_raising(self, monkeypatch):
        # a singular row comes out of the batched inverse and solve as NaN,
        # and neither raises; each kind of bad row fails the condition gate
        # with the message, "cond ~ inf" or "cond ~ nan", that numpy's
        # public np.linalg.cond and np.linalg.solve give it alone
        regular = build_generator(SystemParams(p_align=0.5, delta_p=3.0))
        # a zero column: np.linalg.solve raises for this row alone
        rank_deficient = regular.copy()
        rank_deficient[:, 5] = 0.0
        one_nan, one_inf = regular.copy(), regular.copy()
        one_nan[7, 3] = np.nan
        one_inf[9, 2] = np.inf
        stack = np.stack([np.zeros((16, 16)), np.full((16, 16), np.nan),
                          np.full((16, 16), np.inf), one_nan, one_inf, rank_deficient,
                          regular])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved = [_solve_stack(stack)]
            expected = np.linalg.cond(np.stack([_trace_constrained(L) for L in stack]), 1)
        # and as a stack of a longer call, inverted on the worker and taken
        # back by the caller
        for force in (_on_the_worker, _taken_back):
            cond, *rest = _handed_factor(stack, monkeypatch, force)
            assert np.array(cond).tobytes() == expected.tobytes()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                solved.append(_gated(cond, *rest))
        for rho, failures in solved:
            assert sorted(failures) == [0, 1, 2, 3, 4, 5]
            got = [_outcome(rho, failures, i) for i in range(6)]
            assert got == [_reference_outcome(L) for L in stack[:6]]
            assert {message[-4:-1] for _, message in got} == {"inf", "nan"}
            assert rho[6].tobytes() == _solve_stack(regular[None])[0][0].tobytes()

    @pytest.mark.parametrize("entries, value", [(slice(None), np.nan), (5, np.inf)])
    def test_non_finite_solution_row_fails_alone(self, entries, value):
        # a row whose x is not finite past the condition gate fails the
        # non-finite gate; the other rows are solved as if it were absent
        L = build_generator([SystemParams(p_align=p, delta_p=d)
                             for p, d in ((0.0, 0.0), (0.5, 3.0), (0.99, -2.0), (0.7, 1.0))])
        pair, bound = _constrained_pair(L)
        cond, X, residual = steady._factor(pair)
        assert all(c <= steady.CONDITION_WARN for c in cond)
        bad = X.copy()
        bad[1, entries] = value
        rest = [0, 2, 3]
        good = X[rest]
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            rho, failures = _gated(cond, bad, residual, bound)
            expected, no_failures = _gated([cond[i] for i in rest], good, residual[rest],
                                           bound[rest])
        assert list(failures) == [1]
        assert isinstance(failures[1], SingularSystem)
        assert str(failures[1]) == "solution has non-finite entries"
        assert no_failures == {}
        assert rho[rest].tobytes() == expected.tobytes()

    def test_factor_matches_numpy_cond_and_solve_bitwise(self, monkeypatch):
        # _factor calls the gufuncs behind np.linalg.cond(A, 1) and
        # np.linalg.solve itself; its condition numbers, and the solutions of
        # the rows that pass the gate, are theirs to the bit
        rng = np.random.default_rng(7)
        regular = build_generator(SystemParams(p_align=0.5, delta_p=3.0))
        for n in (1, 2, 5, 17, 40):
            L = rng.normal(size=(n, 16, 16)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
            L[::3] = regular
            for k in rng.choice(n, size=n // 2, replace=False):
                kind = rng.integers(6)
                if kind == 0:
                    L[k] = 0.0
                elif kind == 1:
                    L[k, rng.integers(1, 16), rng.integers(16)] = (np.nan, np.inf)[k % 2]
                elif kind == 2:
                    L[k, :, 3] = 2.0 * L[k, :, 7]           # exactly singular
                else:
                    L[k, :, 3] = L[k, :, 7] + 10.0 ** -rng.uniform(6, 17) * L[k, :, 3]
            A = np.stack([_trace_constrained(row) for row in L])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = np.linalg.cond(A, 1)
            # inline, and as a stack of a longer call: its 1-norms taken on
            # this thread, its inverse's on the worker or, taken back, here
            with np.errstate(all="ignore"):
                inline = steady._factor(_constrained_pair(L)[0])
            for cond, X, *_ in (inline, _handed_factor(L, monkeypatch, _on_the_worker),
                                _handed_factor(L, monkeypatch, _taken_back)):
                assert np.array(cond).tobytes() == expected.tobytes()
                for k in np.flatnonzero(expected <= steady.CONDITION_FAIL):
                    x = np.linalg.solve(A[k:k + 1], np.eye(16)[:, :1])[0, :, 0]
                    assert X[k].tobytes() == x.tobytes()

    def test_batched_gates_match_a_row_by_row_reference(self):
        # rows whose x grows like 1/s have a roundoff residual near the
        # bound: the batched gate must pass, fail and word them as a
        # single solve does, next to regular and unphysical rows
        rng = np.random.default_rng(12)
        rows = [build_generator(SystemParams(p_align=p, delta_p=d, equation_variant=v))
                for p in (0.0, 0.5, 0.99) for d in (-3.0, 0.0, 3.0) for v in EquationVariant]
        trace_row = np.array([1.0] * 4 + [0.0] * 12)
        for s in np.logspace(-4, -8, 81):
            # the last row is the trace row plus the others to within s
            L = rng.normal(size=(16, 16))
            L[15] = trace_row + L[1:15].T @ rng.normal(size=14) + s * rng.normal(size=16)
            rows.append(L)
        # generators whose fixed point has a population just inside or just
        # outside the bounds of the population gate
        for pops in ([-0.9e-6, 0.3, 0.2, 0.5 + 0.9e-6], [-1.1e-6, 0.3, 0.2, 0.5 + 1.1e-6],
                     [1.0 + 0.9e-6, -0.3e-6, -0.3e-6, -0.3e-6],
                     [1.0 + 1.1e-6, -1.1e-6 / 3, -1.1e-6 / 3, -1.1e-6 / 3]):
            x = rng.normal(size=16) * 0.1
            x[:4] = pops
            M = rng.normal(size=(16, 16))
            rows.append(M - np.outer(M @ x, x) / (x @ x))
        stack = np.stack(rows)
        rho, failures = _solve_stack(stack)
        got = [_outcome(rho, failures, i) for i in range(len(stack))]
        # the single-solve reference hands back x; a good row's state is its
        # unvectorize, bit for bit
        expected = [(kind, unvectorize(np.frombuffer(value)).tobytes() if kind == "ok" else value)
                    for kind, value in map(_reference_outcome, stack)]
        assert [outcome[:2] for outcome in got] == expected
        # each row's outcome, a NonPhysicalState's state included, is its
        # outcome as a stack of one
        assert got == [_outcome(*_solve_stack(stack[i:i + 1]), 0)
                       for i in range(len(stack))]
        assert {kind for kind, *_ in got} == {"ok", "SingularSystem", "NonPhysicalState"}
        passed = [i for i, (kind, message, *_) in enumerate(got)
                  if kind != "SingularSystem" or "residual" not in message]
        assert len(passed) < len(got)
        # rows with ||x|| > 7, whose residual the roundoff of a large x
        # brings near the bound, that pass it
        assert any(np.linalg.norm(np.linalg.solve(_trace_constrained(stack[i]),
                                                  np.eye(16)[0])) > 7 for i in passed)

    def test_a_nonphysical_state_is_its_row_alone(self, monkeypatch):
        # a NonPhysicalState's state is bitwise the unvectorize of its row
        # of the stack's unit-trace X; from a sequence it is a view on one
        # array of the stack's unphysical rows, not on the whole stack, so
        # an error that is kept holds no good row's state
        gated = []

        def spy(cond, X, residual, bound, gate=steady._gate):
            failures = gate(cond, X, residual, bound)
            gated.append(X.copy())
            return failures

        monkeypatch.setattr(steady, "_gate", spy)
        literal = SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL)
        outcomes = steady_state([SystemParams(p_align=0.5), literal,
                                 SystemParams(p_align=0.5, delta_p=3.0),
                                 replace(literal, delta_p=3.0)])
        with pytest.raises(NonPhysicalState) as info:
            steady_state(literal)
        assert [type(o) for o in outcomes] == [DensityMatrix, NonPhysicalState] * 2
        rows = (gated[0][1], gated[0][3], gated[1][0])
        for error, row in zip((outcomes[1], outcomes[3], info.value), rows):
            assert error.state.m.tobytes() == unvectorize(row).tobytes()
        # each array's elements: 16 per matrix
        assert outcomes[0].m.base.size == 4 * 16
        assert outcomes[1].state.m.base is outcomes[3].state.m.base
        assert outcomes[1].state.m.base.size == 2 * 16
        assert info.value.state.m.base.size == 16

    def test_raised_errors_leave_no_reference_cycles(self, monkeypatch):
        # a cycle through the traceback would keep every raised exception,
        # and the arrays its frames hold, alive until a full collection
        literal = SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL)

        def singular():
            with monkeypatch.context() as patch:
                patch.setattr(steady, "build_generator", lambda points, out:
                              _into(out, np.zeros((len(points), 16, 16))))
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


class TestDoubleBufferedSolve:
    """Sequences longer than CHUNK_POINTS are solved a chunk at a time, the
    next chunk inverted on a worker thread while this one is mapped."""

    REGULAR = [SystemParams(p_align=0.5, delta_p=d)
               for d in np.linspace(-5.0, 5.0, CHUNK_POINTS).tolist()]
    ILL = SystemParams(gamma2=1e-13, gamma3=1e-13, gamma4=1e-13)

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        # the worker runs however few CPUs the process may use
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def test_warning_from_a_worker_chunk_names_the_caller(self, monkeypatch):
        # a singular and an ill-conditioned point in the second stack of a
        # 2 * CHUNK_POINTS + 1 call, whose inverses come from the worker: the
        # singular one fails and the other warns, on this thread, with the
        # texts they give alone
        singular = SystemParams(delta_p=-7.25)   # its generator gets a zero column
        with_singular = _with_singular(singular)
        inverts, solves = [], []

        def spy_invert(pair, invert=steady._invert):
            inverts.append(threading.current_thread())
            invert(pair)

        def spy_solve(A, solve=steady._solve):
            solves.append(threading.current_thread())
            return solve(A)

        monkeypatch.setattr(steady, "build_generator", with_singular)
        monkeypatch.setattr(steady, "_invert", spy_invert)
        monkeypatch.setattr(steady, "_solve", spy_solve)
        _on_the_worker(monkeypatch)
        points = self.REGULAR + [singular, self.ILL] + self.REGULAR[2:] + [SystemParams()]
        assert len(points) == 2 * CHUNK_POINTS + 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            states = steady_state(points)
        # all three stacks are inverted on one worker; every stack's solve
        # runs on this thread
        assert len(inverts) == 3
        assert inverts[0] is inverts[1] is inverts[2] is not threading.main_thread()
        assert solves == [threading.main_thread()] * 3
        error = states[CHUNK_POINTS]
        assert (type(error).__name__, str(error)) == _reference_outcome(with_singular([singular])[0])
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            assert states[CHUNK_POINTS + 1].m.tobytes() == steady_state(self.ILL).m.tobytes()
        assert sum(isinstance(s, DensityMatrix) for s in states) == len(points) - 1
        cond = np.linalg.cond(_trace_constrained(build_generator(self.ILL)), 1)
        assert [(str(w.message), w.filename, w.lineno) for w in caught] == [
            (f"steady-state solve is ill-conditioned (cond ~ {cond:.2e})", __file__, line)]

    def test_three_stacks_give_the_same_bits_and_warnings_on_each_path(self, monkeypatch):
        # whichever thread inverts a stack, every outcome, error text and
        # warning (with its file and line) is the same: the worker inverting
        # all three stacks, the caller taking all three back, the race
        # between them, and the stacks solved inline as calls of their own
        singular = SystemParams(delta_p=-7.25)
        literal = SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL)
        points = (self.REGULAR[:100] + [self.ILL, singular] + self.REGULAR[102:]
                  + [literal] + self.REGULAR[1:200] + [self.ILL] + self.REGULAR[201:]
                  + [SystemParams(p_align=1.0), literal])
        assert len(points) == 2 * CHUNK_POINTS + 2
        monkeypatch.setattr(steady, "build_generator", _with_singular(singular))
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        inverts = []

        def spy_invert(pair, invert=steady._invert):
            inverts.append(threading.current_thread())
            invert(pair)

        monkeypatch.setattr(steady, "_invert", spy_invert)

        def solved(calls):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = sys._getframe().f_lineno + 1
                states = [s for part in calls for s in steady_state(part)]
                records = [r for part in calls for r in response_at(part)]
            assert sorted({w.lineno - line for w in caught}) == [0, 1]
            return ([_bits(s) for s in states], [_bits(r) for r in records],
                    [(str(w.message), w.filename, w.lineno) for w in caught])

        raced = solved([points])
        assert len(started) == 2 and len(inverts) == 6
        stacks = [points[i:i + CHUNK_POINTS] for i in range(0, len(points), CHUNK_POINTS)]
        inverts.clear()
        inline = solved(stacks)
        assert inverts == [threading.main_thread()] * 6 and len(started) == 2
        for force in (_on_the_worker, _taken_back):
            with monkeypatch.context() as patch:
                force(patch)
                inverts.clear()
                started.clear()
                assert solved([points]) == raced == inline
            # one worker per call inverts its three stacks, or this thread
            threads = started if force is _on_the_worker else [threading.main_thread()] * 2
            assert inverts == [threads[0]] * 3 + [threads[1]] * 3
        # a SingularSystem from the zero column and one from p = 1, which
        # response_at fails before the solve
        kinds = [kind for kind, *_ in raced[0]]
        assert kinds.count("SingularSystem") == 2 and kinds.count("NonPhysicalState") == 2
        assert sum(kind == "DegenerateProbe" for kind, *_ in raced[1]) == 1
        assert len(raced[2]) == 4
        assert {(w[0], w[1]) for w in raced[2]} == {
            (f"steady-state solve is ill-conditioned (cond ~ "
             f"{np.linalg.cond(_trace_constrained(build_generator(self.ILL)), 1):.2e})", __file__)}

    def test_calls_of_one_chunk_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        threads = threading.active_count()
        steady_state(SystemParams())
        steady_state(self.REGULAR)
        response_at(SystemParams())
        response_at(self.REGULAR)
        sweep_detuning(SystemParams(), -20.0, 20.0, CHUNK_POINTS)
        assert started == []
        assert threading.active_count() == threads
        steady_state(self.REGULAR * 2 + [SystemParams()])
        # one worker is started for the call's three stacks, and is joined
        # before the call returns
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_an_error_in_the_gates_joins_the_worker(self, monkeypatch):
        # a stack is gated while the worker inverts the next one: a warning
        # raised as an error there leaves no worker running after the call
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))

        def slow_on_the_worker(pair, invert=steady._invert):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)
            invert(pair)

        monkeypatch.setattr(steady, "_invert", slow_on_the_worker)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="ill-conditioned"):
                steady_state([self.ILL] + self.REGULAR)
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_no_worker_outlives_its_call(self, monkeypatch):
        # the worker is stopped and joined however the loop ends: a call
        # that completes, a worker error, a gate error, and a consumer that
        # stops iterating _stacks after its first or second stack. No stack
        # outlives the call either, not even through an outcome the worker
        # queued after the caller stopped taking them: with gc off, the
        # call's slot array, where every stack is built and inverted, is
        # freed by its last reference. The caller takes no pair back, so the
        # worker inverts every stack
        _on_the_worker(monkeypatch)

        def workers():
            return [t for t in threading.enumerate() if t.name == "sgcvapor-factor"]

        points = self.REGULAR * 3 + [self.ILL] + self.REGULAR
        gone, slots = [], []

        def spy_stop(worker, stop=steady._Inverter.stop):
            stop(worker)
            gone.append(not worker.is_alive())

        def spy_constrain(A, constrain=steady._constrain):
            slots.append(weakref.ref(A.base))
            return constrain(A)

        def ended(stops):
            # no worker alive, the last one stopped, and the slot array of
            # no stack made since the last look alive
            alive = [ref for ref in slots if ref() is not None]
            made = len(slots)
            slots.clear()
            return workers() == [] and gone == [True] * stops and made > 1 and alive == []

        monkeypatch.setattr(steady._Inverter, "stop", spy_stop)
        monkeypatch.setattr(steady, "_constrain", spy_constrain)
        assert workers() == []
        gc.collect()
        gc.disable()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="ill-conditioned"):
                    steady_state(points)
            assert ended(1)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                steady_state(points)
                assert ended(2)

                with monkeypatch.context() as patch:
                    def fails_on_the_worker(pair, invert=steady._invert):
                        # each worker inverts its call's first stack, and
                        # fails on the next
                        worker = threading.current_thread()
                        if getattr(worker, "inverted", False):
                            raise MemoryError("no memory on the worker")
                        worker.inverted = True
                        invert(pair)

                    patch.setattr(steady, "_invert", fails_on_the_worker)
                    with pytest.raises(MemoryError):
                        steady_state(points)
                    assert ended(3)
                    # closed while the worker fails on the next stack: its
                    # error, whose frames hold that stack, is left queued
                    stacks = steady._stacks(points)
                    next(stacks)
                    stacks.close()
                assert ended(4)

                for taken in (1, 2):
                    stacks = steady._stacks(points)
                    for _ in range(taken):
                        next(stacks)
                    # the worker holds, or inverts, the next stack
                    assert len(workers()) == 1
                    stacks.close()
                    assert ended(4 + taken)
                # dropped unfinished, as a consumer's exception leaves it
                stacks = steady._stacks(points)
                next(stacks)
                next(stacks)
                del stacks
                assert ended(7)
        finally:
            gc.enable()

    def test_a_refused_thread_factors_inline(self, monkeypatch):
        # where no thread can be started, every chunk is inverted on the
        # caller's thread, to the same bits
        points = self.REGULAR * 2 + [self.ILL, SystemParams()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = [s.m.tobytes() for s in steady_state(points)]
            threads = []

            def spy(pair, invert=steady._invert):
                threads.append(threading.current_thread())
                invert(pair)

            monkeypatch.setattr(steady, "_invert", spy)
            _taken_back(monkeypatch)
            assert [s.m.tobytes() for s in steady_state(points)] == expected
        assert threads == [threading.main_thread()] * 3

    def test_the_caller_takes_back_a_pair_the_worker_has_not_picked_up(self, monkeypatch):
        # the worker picks up nothing until the caller has looked for its
        # first pair: the caller takes that pair back and inverts it while
        # the worker lives, and every bit is what the call gives otherwise
        looked = threading.Event()

        class Late(SimpleQueue):
            def get(self, *args, **kwargs):
                if threading.current_thread().name == "sgcvapor-factor":
                    looked.wait(10)   # a bound, should the caller never look
                return super().get(*args, **kwargs)

            def get_nowait(self):
                try:
                    return super().get_nowait()
                finally:
                    looked.set()

        points = self.REGULAR * 2 + [self.ILL, SystemParams()]
        inverts = []

        def spy(pair, invert=steady._invert):
            workers = [t for t in threading.enumerate() if t.name == "sgcvapor-factor"]
            inverts.append((threading.current_thread(), workers))
            invert(pair)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = [s.m.tobytes() for s in steady_state(points)]
            monkeypatch.setattr(steady, "SimpleQueue", Late)
            monkeypatch.setattr(steady, "_invert", spy)
            assert [s.m.tobytes() for s in steady_state(points)] == expected
        (thread, workers), *_ = inverts
        assert len(inverts) == 3
        assert thread is threading.main_thread() and len(workers) == 1
        assert workers[0].is_alive() is False

    def test_the_caller_writes_no_memory_of_the_pair_in_flight(self, monkeypatch):
        # while a stack's (A, inverse) pair is handed over, the worker reads
        # A and writes its inverse: the scratch this thread takes A's
        # 1-norms into, and the slot it builds the next stack in, share no
        # memory with that pair, on the worker path and the take-back path,
        # the last, shorter stack included
        points = self.REGULAR * 3 + [SystemParams()]
        in_flight, inverted, norms_into, built_into = [], [], [], []

        def hand(worker, pair, hand=steady._Inverter.hand):
            assert not in_flight   # one pair at a time
            assert not np.shares_memory(*pair)
            in_flight.append(pair)
            hand(worker, pair)

        def take(worker, take=steady._Inverter.take):
            try:
                return take(worker)
            finally:
                in_flight.clear()

        def apart(out):
            return not any(np.shares_memory(out, half) for half in in_flight[0])

        def invert(pair, invert=steady._invert):
            inverted.append((pair is in_flight[0],
                             threading.current_thread() is threading.main_thread()))
            invert(pair)

        def one_norms(M, out, one_norms=steady._one_norms):
            A, inverse = in_flight[0]
            if M is A:   # the caller's norms of the stack in flight
                norms_into.append(apart(out))
            else:        # the inverse's, in place, on whichever thread inverts
                assert M is inverse and out is inverse
            return one_norms(M, out)

        def build(points, out, build=steady.build_generator):
            if in_flight:
                built_into.append(apart(out))
            return build(points, out=out)

        for force in (_on_the_worker, _taken_back):
            with monkeypatch.context() as patch:
                force(patch)
                patch.setattr(steady._Inverter, "hand", hand)
                patch.setattr(steady._Inverter, "take", take)
                patch.setattr(steady, "_invert", invert)
                patch.setattr(steady, "_one_norms", one_norms)
                patch.setattr(steady, "build_generator", build)
                steady_state(points)
            # four stacks, each inverted as it was handed over, on the path
            # forced; the last three built while the stack before was in flight
            assert inverted == [(True, force is _taken_back)] * 4
            assert norms_into == [True] * 4
            assert built_into == [True] * 3
            for spied in (inverted, norms_into, built_into):
                spied.clear()

    def test_holds_at_most_two_stacks(self):
        # the stack being mapped and the one being inverted: what the call
        # allocates beyond what it returns stays below two trace-constrained
        # (2, N, 16, 16) pairs, which a third stack alive would pass
        pair_bytes = 2 * CHUNK_POINTS * 16 * 16 * 8
        points = PointsAlong(SystemParams(p_align=0.5), "delta_p",
                             np.linspace(-20.0, 20.0, 8 * CHUNK_POINTS).tolist())
        tracemalloc.start()
        try:
            records = response_at(points)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == len(points)
        assert peak - retained < 2 * pair_bytes

    def test_worker_error_reaches_the_caller_without_reference_cycles(self, monkeypatch):
        def fails_on_the_worker(pair, invert=steady._invert):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no memory on the worker")
            invert(pair)

        points = self.REGULAR * 2 + [SystemParams()]
        expected = [s.m.tobytes() for s in steady_state(points)]
        gc.collect()
        gc.disable()
        try:
            with monkeypatch.context() as patch:
                _on_the_worker(patch)
                patch.setattr(steady, "_invert", fails_on_the_worker)
                for call in (steady_state, response_at):
                    with pytest.raises(MemoryError, match="on the worker"):
                        call(points)
                with pytest.raises(MemoryError, match="on the worker"):
                    sweep_detuning(SystemParams(), -20.0, 20.0, 2 * CHUNK_POINTS + 1)
            assert gc.collect() == 0
        finally:
            gc.enable()
        # and the next call works
        assert [s.m.tobytes() for s in steady_state(points)] == expected

    def test_no_pair_outlives_a_call_whose_taken_back_inverse_raised(self, monkeypatch):
        # the caller takes back every pair, the last one's inverse raises:
        # with gc off, the call's slot array, which every stack's pair is a
        # view on, is freed with the error, and no cycle holds the error or
        # the stack its frames refer to
        slots = []

        def spy_constrain(A, constrain=steady._constrain):
            slots.append(weakref.ref(A.base))
            return constrain(A)

        def fails_on_the_last(pair, invert=steady._invert):
            if len(pair[0]) == 1:
                raise MemoryError("no memory for the last stack")
            invert(pair)

        points = self.REGULAR * 2 + [SystemParams()]
        monkeypatch.setattr(steady, "_constrain", spy_constrain)
        monkeypatch.setattr(steady, "_invert", fails_on_the_last)
        _taken_back(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            for call in (steady_state, response_at):
                with pytest.raises(MemoryError, match="last stack") as info:
                    call(points)
                assert info.traceback[-1].name == "fails_on_the_last"
                assert any(entry.name == "take" for entry in info.traceback)
                del info
                assert len(slots) == 3
                assert [ref() for ref in slots] == [None] * 3
                slots.clear()
            assert gc.collect() == 0
        finally:
            gc.enable()


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(steady.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_one_point_calls_each_lapack_gufunc_once_and_no_linalg_wrapper(monkeypatch):
    # the public np.linalg functions cost more than their LAPACK work on one
    # point; the steady solve calls the inverse and solve gufuncs directly
    calls = []
    gufuncs = steady._umath_linalg

    def spy(name):
        def call(*args, **kwargs):
            calls.append(name)
            return getattr(gufuncs, name)(*args, **kwargs)
        return call

    monkeypatch.setattr(steady, "_umath_linalg", types.SimpleNamespace(
        inv=spy("inv"), solve=spy("solve"), solve1=spy("solve1")))
    for name in ("cond", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, spy(f"np.linalg.{name}"))
    steady_state(SystemParams())
    assert calls == ["solve1", "inv"]
    calls.clear()
    response_at(SystemParams())
    assert calls == ["solve1", "inv"]


def test_private_lapack_gufuncs_are_the_public_functions_bitwise():
    # steady calls numpy.linalg._umath_linalg, which is private: a numpy
    # release that drops or changes it fails or skips here, by name
    gufuncs = pytest.importorskip("numpy.linalg._umath_linalg",
                                  reason="numpy.linalg._umath_linalg is gone")
    for name in ("inv", "solve", "solve1"):
        if not hasattr(gufuncs, name):
            pytest.skip(f"numpy.linalg._umath_linalg has no {name} gufunc")
    rng = np.random.default_rng(11)
    A = rng.normal(size=(7, 16, 16))
    b = np.zeros((1, 16, 1))
    b[0, 0, 0] = 1.0
    x = gufuncs.solve(A, b, signature="dd->d")
    inverse = gufuncs.inv(A, signature="d->d")
    assert x.tobytes() == np.linalg.solve(A, np.broadcast_to(b, (7, 16, 1))).tobytes()
    assert inverse.tobytes() == np.linalg.inv(A).tobytes()
    # the one-column solve the steady solve calls, with a 1-D right-hand
    # side broadcast over the stack
    assert gufuncs.solve1(A, b[0, :, 0], signature="dd->d").tobytes() == x[:, :, 0].tobytes()
    # a singular row comes out as NaN, no call raises, and the other rows
    # keep their bits
    A[3] = 0.0
    A[5, :, 2] = 0.0
    with np.errstate(all="ignore"):
        singular_x = gufuncs.solve(A, b, signature="dd->d")
        singular_x1 = gufuncs.solve1(A, b[0, :, 0], signature="dd->d")
        singular_inverse = gufuncs.inv(A, signature="d->d")
    rest = [0, 1, 2, 4, 6]
    for got, regular in ((singular_x, x), (singular_x1, x[:, :, 0]),
                         (singular_inverse, inverse)):
        assert np.isnan(got[[3, 5]]).all()
        assert got[rest].tobytes() == regular[rest].tobytes()


def test_private_einsum_is_the_public_one_bitwise():
    # the row norms call c_einsum, the function np.einsum calls for these
    # operands without an optimize path: a numpy release that moves or
    # changes it fails here, by name
    rng = np.random.default_rng(13)
    for n, special in ((1, np.nan), (2, np.inf), (7, -0.0), (256, np.nan)):
        M = rng.normal(size=(n, 256)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
        M[::5, ::3] = special
        for rows in (M, M[:, :16]):
            with np.errstate(all="ignore"):
                got = steady.c_einsum("ij,ij->i", rows, rows)
                expected = np.einsum("ij,ij->i", rows, rows)
            assert got.tobytes() == expected.tobytes()


def test_one_norms_are_numpy_norms_bitwise():
    # the caller's 1-norms of a stack the worker inverts go into a scratch
    # slot and leave the stack as it is; into the scratch or in place, they
    # are numpy's to the bit, with entries whose magnitudes spread over 16
    # decades, which round differently in any other order of addition
    rng = np.random.default_rng(14)
    for n in (1, 3, 256):
        M = rng.normal(size=(n, 16, 16)) * 10.0 ** rng.uniform(-8, 8, size=(n, 16, 16))
        M[::2, 3, 5] = (np.nan, -np.inf, -0.0)[n % 3]
        before = M.tobytes()
        with np.errstate(all="ignore"):
            got = steady._one_norms(M, out=np.empty_like(M))
            expected = np.linalg.norm(M, 1, axis=(-2, -1))
        assert got.tobytes() == expected.tobytes()
        assert M.tobytes() == before
        assert steady._one_norms(M, out=M).tobytes() == expected.tobytes()


# Solves CHUNK_POINTS + 1 points, two stacks handed to a worker (taken back
# where no thread starts), and prints the sha256 of their states: what `when`
# runs it from.
_SOLVE = """
import hashlib, sys, threading, atexit
from sgcvapor import SystemParams, steady, steady_state

def solve():
    points = [SystemParams(delta_p=0.01 * k) for k in range(steady.CHUNK_POINTS + 1)]
    states = steady_state(points)
    print(hashlib.sha256(b"".join(s.m.tobytes() for s in states)).hexdigest(), flush=True)
"""


@pytest.mark.parametrize("when", [
    # a thread the main thread never joins, solving once the main thread is
    # done and the interpreter has begun to shut down
    "threading.Thread(target=lambda: (threading.main_thread().join(), solve())).start()",
    "atexit.register(solve)",
])
def test_solves_while_the_interpreter_shuts_down(when):
    points = [SystemParams(delta_p=0.01 * k) for k in range(CHUNK_POINTS + 1)]
    expected = hashlib.sha256(b"".join(s.m.tobytes() for s in steady_state(points)))
    proc = _run_python(_SOLVE + when + "\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected.hexdigest()]


def test_private_simple_queue_is_the_public_one():
    # steady takes SimpleQueue from _queue, the private C module behind
    # queue.SimpleQueue: a Python release that moves it fails here, by name
    import _queue
    import queue
    assert _queue.SimpleQueue is queue.SimpleQueue


def test_import_leaves_concurrent_futures_out():
    # the worker is a plain thread on two SimpleQueues: neither the import
    # nor a call of more than one chunk brings in concurrent.futures (about
    # 6.5 ms to import) or queue (about 1 ms)
    proc = _run_python("import sys, sgcvapor.cli\n"
                       "print('concurrent.futures' in sys.modules, 'queue' in sys.modules)\n"
                       "n = sgcvapor.steady.CHUNK_POINTS + 1\n"
                       "sgcvapor.steady_state([sgcvapor.SystemParams()] * n)\n"
                       "print('concurrent.futures' in sys.modules, 'queue' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 4


class TestEvolve:
    def test_zero_time_returns_initial_state(self):
        rho0 = from_populations(0.4, 0.3, 0.2, 0.1)
        out = evolve(SystemParams(p_align=0.5), rho0, 0.0)
        assert np.array_equal(out.m, rho0.m)

    def test_pure_decay_ends_in_ground_state(self):
        rho0 = from_populations(0.0, 1.0, 0.0, 0.0)
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
        rho0 = from_populations(0.5, 0.25, 0.125, 0.125)
        rho = evolve(SystemParams(), rho0, 0.0, dt=1e-320)
        assert np.array_equal(rho.m, rho0.m)

    def test_paper_literal_diverges_from_populated_upper_level(self):
        params = SystemParams(p_align=0.5,
                              equation_variant=EquationVariant.PAPER_LITERAL)
        rho0 = from_populations(0.99, 0.0, 0.01, 0.0)
        with pytest.raises(StepUnstable, match=r"t = 5\.000/gamma "):
            evolve(params, rho0, 200.0)

    @pytest.mark.parametrize("step", [1e100, 1e200])
    def test_non_finite_divergence_is_detected(self, step):
        # the components overflow to inf and NaN, which compare false
        # against any bound
        with pytest.raises(StepUnstable):
            evolve(SystemParams(), DensityMatrix.ground(), step, dt=step)

    def test_divergence_in_the_final_partial_step_is_detected(self):
        # no full step fits, so only the final-time check sees the overflow
        with pytest.raises(StepUnstable, match=r"^integration diverged "
                                               r"\(max \|component\| > 10 at final time\)$"):
            evolve(SystemParams(), DensityMatrix.ground(), 5e99, dt=1e100)

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

    @pytest.mark.parametrize("batch", [1, 2, 5, steady.CHECK_BATCH])
    def test_batched_checks_match_a_block_by_block_reference(self, monkeypatch, batch):
        # the states of a batch of blocks are checked at once: a diverging
        # point reports the block a check after each block finds, and a
        # horizon of several batches ends on the same bits
        monkeypatch.setattr(steady, "CHECK_BATCH", batch)
        literal = SystemParams(p_align=0.5, equation_variant=EquationVariant.PAPER_LITERAL)
        rho0 = from_populations(0.99, 0.0, 0.01, 0.0)
        diverged, _ = _blockwise_evolve(literal, rho0, 200.0)
        assert diverged == "integration diverged at t = 5.000/gamma (max |component| > 10.0)"
        with pytest.raises(StepUnstable) as info:
            evolve(literal, rho0, 200.0)
        assert str(info.value) == diverged
        params = SystemParams(p_align=0.7, delta_p=2.0)
        rho0 = from_populations(0.4, 0.3, 0.2, 0.1)
        t_final = 2.5 * steady.CHECK_BATCH + 0.0123   # leftover steps and a partial step
        _, expected = _blockwise_evolve(params, rho0, t_final)
        assert evolve(params, rho0, t_final).m.tobytes() == expected.m.tobytes()


def _blockwise_evolve(params, rho0, t_final, dt=steady.DEFAULT_DT):
    """``evolve`` with a divergence check after each block of steps, as it
    once ran: ``(message, None)`` at the first block that diverged, else
    ``(None, state)``."""
    n_full, remainder = divmod(t_final, dt)
    n_full, check_every = int(n_full), round(1.0 / dt)
    L = build_generator(params)
    x = vectorize(rho0.m)
    with np.errstate(over="ignore", invalid="ignore"):
        step = steady._rk4_propagator(L, dt)
        block = np.linalg.matrix_power(step, check_every)
        for n in range(1, n_full // check_every + 1):
            x = block @ x
            if not (np.abs(x) <= steady.DIVERGENCE_BOUND).all():
                return (f"integration diverged at t = {n * check_every * dt:.3f}/gamma "
                        f"(max |component| > {steady.DIVERGENCE_BOUND})"), None
        x = np.linalg.matrix_power(step, n_full % check_every) @ x
        x = steady._rk4_propagator(L, remainder) @ x
    return None, DensityMatrix.from_vector(x, check=False)


def _textbook_rk4_step(rhs, x, h):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _trace_constrained(L):
    A = L.copy()
    A[0] = 0.0
    A[0, :4] = 1.0
    return A


def _solve_stack(L):
    """The generator stack ``L`` solved and gated as ``steady._stacks``
    solves and gates a stack inverted inline: ``(rho, failures)`` as
    ``_gated`` gives them."""
    pair, bound = _constrained_pair(L)
    with np.errstate(all="ignore"):
        return _gated(*steady._factor(pair), bound)


def _constrained_pair(L):
    """``(pair, bound)`` of the generator stack ``L``, as ``steady._stacks``
    builds its one stack: L trace-constrained in the first half of a
    (2, N, 16, 16) pair, whose second half takes the inverses, and each
    row's residual bound."""
    pair = np.empty((2,) + L.shape)
    pair[0] = L
    return pair, steady._constrain(pair[0])


def _gated(cond, X, residual, bound):
    """``(rho, failures)`` of a stack that ``steady._gate`` gates: rho is
    ``unvectorize`` of its unit-trace ``X``, as ``steady_state`` takes it
    after the gates, and ``failures`` the gates' dict by row index."""
    failures = steady._gate(cond, X, residual, bound)
    return unvectorize(X), failures


class _NoTakeBack(SimpleQueue):
    """A queue whose ``get_nowait`` finds nothing: a caller never takes a
    pair back, and the worker inverts every stack."""

    def get_nowait(self):
        raise Empty


def _on_the_worker(patch):
    """Force the worker path: the worker inverts every stack handed to it."""
    patch.setattr(steady, "SimpleQueue", _NoTakeBack)


def _taken_back(patch):
    """Force the take-back path: no worker thread starts, so the caller
    takes back every pair it hands over and inverts it."""
    def refused(thread):
        raise RuntimeError("can't create new thread at interpreter shutdown")

    patch.setattr(threading.Thread, "start", refused)


def _handed_factor(L, monkeypatch, force):
    """The generator stack ``L`` solved as ``steady._stacks`` solves the
    second stack of a longer call, on the path ``force`` forces: its inverse
    and the inverse's norms taken on the worker thread (``_on_the_worker``)
    or on this one (``_taken_back``). ``(cond, X, residual, bound)`` as
    ``_gate`` is handed them."""
    stacks = [np.zeros((CHUNK_POINTS, 16, 16)), L]
    handed, inverts = [], []

    def gate(*args, gate=steady._gate):
        handed.append([list(a) if isinstance(a, list) else a.copy() for a in args])
        return gate(*args)

    def invert(pair, invert=steady._invert):
        inverts.append(threading.current_thread())
        invert(pair)

    with monkeypatch.context() as patch:
        force(patch)
        patch.setattr(steady, "build_generator",
                      lambda points, out: _into(out, stacks.pop(0)))
        patch.setattr(steady, "_gate", gate)
        patch.setattr(steady, "_invert", invert)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in steady._stacks([SystemParams()] * (CHUNK_POINTS + len(L))):
                pass
    on_the_worker = force is _on_the_worker
    assert len(inverts) == 2
    assert (inverts[0] is inverts[1] is not threading.main_thread()) is on_the_worker
    assert (inverts == [threading.main_thread()] * 2) is not on_the_worker
    return handed[1]


def _with_singular(singular):
    """A build_generator hook that zeroes column 5 of the generator of the
    point ``singular`` (by identity), which makes it singular."""
    build = steady.build_generator

    def with_singular(points, out=None):
        L = build(points, out=out)
        for k, point in enumerate(points):
            if point is singular:
                L[k, :, 5] = 0.0
        return L

    return with_singular


def _bits(outcome):
    """An outcome of steady_state or response_at, as comparable bits: the
    state's bytes, the record's fields as bytes, or an error's type, text
    and the bytes of the state it carries."""
    if isinstance(outcome, DensityMatrix):
        return ("ok", outcome.m.tobytes())
    if isinstance(outcome, ResponseRecord):
        return ("ok", np.array([complex(v) for v in astuple(outcome)[:-1]]).tobytes(),
                outcome.handedness)
    state = getattr(outcome, "state", None)
    return (type(outcome).__name__, str(outcome), state and state.m.tobytes())


def _into(out, L):
    """What a build_generator hook returns: ``out``, where every stack is
    built, once it holds the generators ``L``."""
    out[...] = L
    return out


def _outcome(rho, failures, i):
    """Row i of a _solve_stack result: (kind, message) for a
    SingularSystem, with the state's bytes for a NonPhysicalState, and
    ("ok", bytes of the state) for a good row."""
    error = failures.get(i)
    if error is None:
        return ("ok", rho[i].tobytes())
    if isinstance(error, NonPhysicalState):
        return (type(error).__name__, str(error), error.state.m.tobytes())
    return (type(error).__name__, str(error))


def _reference_outcome(L):
    """One generator solved alone, each gate in the arithmetic of a single
    solve: the reference for the batched gates of steady._gate.
    Returns (kind, message) for a failure, ("ok", bytes of x) otherwise."""
    A = _trace_constrained(L)
    cond = np.linalg.cond(A[None], 1)[0]
    if not cond <= steady.CONDITION_FAIL:
        return ("SingularSystem", f"trace-constrained system is rank-deficient (cond ~ {cond:.2e})")
    b = np.zeros((1, 16, 1))
    b[0, 0, 0] = 1.0
    x = np.linalg.solve(A[None], b)[0, :, 0]
    if not np.isfinite(x).all():
        return ("SingularSystem", "solution has non-finite entries")
    resid = L @ x
    resid[0] = 0.0
    norm = math.sqrt(resid @ resid)
    flat = L.reshape(-1)
    if norm > steady.RESIDUAL_TOL * math.sqrt(flat @ flat):
        return ("SingularSystem", f"steady-state residual {norm:.2e} exceeds 1e-10 * ||L||")
    x = x / (x[0] + x[1] + x[2] + x[3])
    if x[:4].min() < -steady.POPULATION_BOUND_TOL or x[:4].max() > 1.0 + steady.POPULATION_BOUND_TOL:
        state = DensityMatrix(unvectorize(x), check=False)
        return ("NonPhysicalState", str(NonPhysicalState(None, state)))
    return ("ok", x.tobytes())
