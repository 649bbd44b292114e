import copy
import math
import pickle
import threading
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from sgcvapor import (DegenerateProbe, EmptyTable, EquationVariant, Handedness,
                      LocalFieldPole, NonPhysicalState, ResponseRecord,
                      SingularSystem, SweepAxis, SweepTable, SystemParams,
                      ValidationError, build_generator, classify_handedness,
                      detect_bands, find_extrema, response_at, steady_state,
                      sweep_alignment, sweep_detuning)
from sgcvapor import params, response, steady, sweep
from sgcvapor.params import PointsAlong
from sgcvapor.steady import CHUNK_POINTS
from sgcvapor.sweep import ALIGNMENT_GUARD, SweepFailure


def make_record(axis_value, eps=-1 + 0.1j, mu=-1 + 0.1j, n=-1 + 0.01j):
    return ResponseRecord(
        delta_p=axis_value, p_align=0.5, rho24=0.01j, rho32=0.001j,
        gamma_e=1e-25j, gamma_m=1e-25j, eps_r=eps, mu_r=mu, n_index=n,
        handedness=classify_handedness(eps, mu))


def make_table(pattern, grid=None):
    """pattern: string of R (right-handed), L (left-handed), F (failed)."""
    if grid is None:
        grid = tuple(float(i) for i in range(len(pattern)))
    records = []
    for g, ch in zip(grid, pattern):
        if ch == "F":
            records.append(None)
        elif ch == "L":
            records.append(make_record(g, eps=-1 + 0.1j, mu=-1 + 0.1j))
        else:
            records.append(make_record(g, eps=1 + 0.1j, mu=1 + 0.1j))
    return SweepTable(axis=SweepAxis.DETUNING, grid=grid,
                      records=tuple(records), bands=(), failures=())


class TestDetectBands:
    def test_all_right_handed(self):
        assert detect_bands(make_table("RRRR")) == []

    def test_run_length_scan(self):
        assert detect_bands(make_table("RLLRL")) == [(1.0, 2.0), (4.0, 4.0)]

    def test_band_at_edges(self):
        assert detect_bands(make_table("LLRLL")) == [(0.0, 1.0), (3.0, 4.0)]

    def test_failure_breaks_a_band(self):
        assert detect_bands(make_table("LLFLL")) == [(0.0, 1.0), (3.0, 4.0)]

    def test_single_point_run_is_zero_width(self):
        bands = detect_bands(make_table("RLR"))
        assert bands == [(1.0, 1.0)]


class TestFindExtrema:
    def test_single_record(self):
        t = make_table("L")
        e = find_extrema(t)
        r = t.records[0]
        assert e.min_re_n == r.n_index.real
        assert e.max_abs_im_n == abs(r.n_index.imag)
        assert e.min_re_eps == r.eps_r.real
        assert e.min_re_mu == r.mu_r.real

    def test_planted_minimum_is_found(self):
        records = (make_record(0.0, n=-1 + 0.5j),
                   make_record(1.0, n=-7 + 0.25j, eps=-9 + 1j, mu=-5 + 1j),
                   make_record(2.0, n=-2 + 3.5j))
        t = SweepTable(axis=SweepAxis.DETUNING, grid=(0.0, 1.0, 2.0),
                       records=records, bands=(), failures=())
        e = find_extrema(t)
        assert (e.min_re_n, e.min_re_n_at) == (-7.0, 1.0)
        assert (e.max_abs_im_n, e.max_abs_im_n_at) == (3.5, 2.0)
        assert (e.min_re_eps, e.min_re_eps_at) == (-9.0, 1.0)
        assert (e.min_re_mu, e.min_re_mu_at) == (-5.0, 1.0)

    def test_failed_points_are_skipped(self):
        e = find_extrema(make_table("LFR"))
        assert e.min_re_n == -1.0
        # failed points first and last: the extrema come from points 1 and 2
        e = find_extrema(make_table("FRLF"))
        assert (e.min_re_eps, e.min_re_eps_at) == (-1.0, 2.0)
        assert (e.min_re_mu, e.min_re_mu_at) == (-1.0, 2.0)
        assert (e.min_re_n_at, e.max_abs_im_n_at) == (1.0, 2.0)

    def test_ties_go_to_the_first_point_for_minima_and_the_last_for_the_maximum(self):
        e = find_extrema(make_table("FLLLLF"))
        assert (e.min_re_n_at, e.min_re_eps_at, e.min_re_mu_at) == (1.0, 1.0, 1.0)
        assert e.max_abs_im_n_at == 4.0

    @pytest.mark.parametrize("values", [
        [math.nan, 1.0, -1.0],
        [1.0, math.nan, -1.0, -1.0],
        [0.0, -0.0, math.nan, -0.0, 0.0],
        [math.inf, -math.inf, -math.inf, math.nan],
    ])
    def test_same_result_as_min_and_max_over_value_grid_pairs(self, values):
        # min/max over (value, axis value) pairs, NaN included: a NaN is
        # never replaced and replaces nothing
        grid = tuple(float(i) for i in range(len(values)))
        records = tuple(make_record(g, eps=complex(v, 1.0), mu=complex(v, 1.0),
                                    n=complex(v, -v))
                        for g, v in zip(grid, values))
        e = find_extrema(SweepTable(axis=SweepAxis.DETUNING, grid=grid, records=records,
                                    bands=(), failures=()))
        lowest = min(zip(values, grid))
        highest = max((abs(-v), g) for v, g in zip(values, grid))
        got = [(e.min_re_n, e.min_re_n_at), (e.max_abs_im_n, e.max_abs_im_n_at),
               (e.min_re_eps, e.min_re_eps_at), (e.min_re_mu, e.min_re_mu_at)]
        expected = [lowest, highest, lowest, lowest]
        assert [(v.hex(), g) for v, g in got] == [(v.hex(), g) for v, g in expected]

    def test_one_call_keeps_nothing_per_point(self):
        table = make_table("LRF" * 1667)
        assert len(table.records) == 5001
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            find_extrema(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 64 * 1024

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyTable):
            find_extrema(make_table("FF"))


@pytest.mark.parametrize("result", [make_record(1.5),
                                    SweepFailure(1.5, "SingularSystem", "cond ~ inf")],
                         ids=["ResponseRecord", "SweepFailure"])
class TestSlottedResults:
    # a sweep keeps one of these per point: slots make each one allocation
    def test_no_instance_dict(self, result):
        assert not hasattr(result, "__dict__")
        assert type(result).__slots__ == tuple(f.name for f in fields(result))

    def test_fields_stay_frozen(self, result):
        for field in fields(result):
            with pytest.raises(FrozenInstanceError):
                setattr(result, field.name, 0.0)

    def test_pickle_and_deepcopy_round_trips_are_equal(self, result):
        for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert copied == result
            assert copied is not result


class TestSweepDetuning:
    def test_degenerate_single_point_grid(self):
        params = SystemParams(p_align=0.5)
        t = sweep_detuning(params, -3.0, 10.0, 1)
        assert t.grid == (-3.0,)
        assert t.records[0] == response_at(replace(params, delta_p=-3.0))

    def test_grid_is_uniform_inclusive(self):
        t = sweep_detuning(SystemParams(), -1.0, 1.0, 5)
        assert t.grid == (-1.0, -0.5, 0.0, 0.5, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            sweep_detuning(SystemParams(), -1.0, 1.0, 0)
        with pytest.raises(ValidationError):
            sweep_detuning(SystemParams(), 2.0, 1.0, 10)

    def test_base_delta_does_not_leak_into_grid(self):
        t = sweep_detuning(SystemParams(delta_p=7.0), -1.0, 1.0, 3)
        assert all(r.delta_p == g for g, r in zip(t.grid, t.records))

    def test_bands_match_record_classification(self, calibrated_base):
        t = sweep_detuning(replace(calibrated_base, p_align=0.5), -20.0, 20.0, 101)
        in_band = set()
        for lo, hi in t.bands:
            in_band.update(g for g in t.grid if lo <= g <= hi)
        for g, r in zip(t.grid, t.records):
            assert (r is not None
                    and r.handedness is Handedness.LEFT_HANDED) == (g in in_band)

    def test_band_edges_stable_under_grid_refinement(self, calibrated_base):
        params = replace(calibrated_base, p_align=0.5)
        coarse = sweep_detuning(params, -20.0, 20.0, 101)
        fine = sweep_detuning(params, -20.0, 20.0, 201)
        spacing = 40.0 / 100
        assert len(coarse.bands) == len(fine.bands)
        for (a, b), (c, d) in zip(coarse.bands, fine.bands):
            assert abs(a - c) <= spacing and abs(b - d) <= spacing


class TestSweepAlignment:
    def test_single_point_interference_free(self):
        t = sweep_alignment(SystemParams(), 0.0, 0.5, 1)
        assert t.grid == (0.0,)
        rec = t.records[0]
        assert rec.p_align == 0.0
        assert rec.rho32 == 0j        # no interference, no magnetic dipole
        assert rec.mu_r == 1.0 + 0j

    def test_guard_excludes_degenerate_endpoint(self):
        with pytest.raises(ValidationError):
            sweep_alignment(SystemParams(), 0.0, 1.0, 11)
        with pytest.raises(ValidationError):
            sweep_alignment(SystemParams(), -0.1, 0.5, 11)

    def test_subnormal_probe_fails_each_point(self):
        # eps0 * hbar * omegap_si underflows to zero: each point is a
        # DegenerateProbe failure, and the sweep runs to its end
        table = sweep_alignment(SystemParams(omegap_bare=5e-324), 0.0, 0.5, 3)
        assert table.records == (None,) * 3
        assert [f.kind for f in table.failures] == ["DegenerateProbe"] * 3
        assert all("underflows to zero" in f.message for f in table.failures)

    def test_failures_collected_not_fatal(self):
        params = SystemParams(equation_variant=EquationVariant.PAPER_LITERAL)
        t = sweep_alignment(params, 0.3, 0.7, 5)
        assert len(t.failures) > 0
        assert all(f.kind == "NonPhysicalState" for f in t.failures)
        assert len(t.records) == len(t.grid)
        failed_at = {f.axis_value for f in t.failures}
        for g, r in zip(t.grid, t.records):
            assert (r is None) == (g in failed_at)

    def test_monotone_interference_ordering_of_index_minima(self, calibrated_base):
        # the strongest claim of the model: deeper interference makes the
        # index minimum over the detuning window strictly more negative
        # (401 points: the p=0.99 dip near delta ~ 0.1 is a tenth of a
        # linewidth wide and slips through coarser grids)
        minima = []
        for p in (0.2, 0.5, 0.99):
            t = sweep_detuning(replace(calibrated_base, p_align=p), -20.0, 20.0, 401)
            minima.append(find_extrema(t).min_re_n)
        assert minima[0] > minima[1] > minima[2]


# what a sweep records as a SweepFailure instead of aborting
POINT_ERRORS = (SingularSystem, NonPhysicalState, DegenerateProbe, LocalFieldPole)


def record_bits(record):
    """Every field of a record, floats as float.hex, complex as two."""
    out = []
    for f in fields(record):
        v = getattr(record, f.name)
        if isinstance(v, complex):
            out.append((v.real.hex(), v.imag.hex()))
        elif isinstance(v, float):
            out.append(v.hex())
        else:
            out.append(v)
    return out


def sweep_outcomes(base, axis, steps):
    """The sweep of ``base`` along ``axis`` as (records by float.hex,
    failure triples, warning texts in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if axis == "delta_p":
            table = sweep_detuning(base, -20.0, 20.0, steps)
        else:
            table = sweep_alignment(base, 0.0, 1.0 - ALIGNMENT_GUARD, steps)
    assert len(table.grid) == steps
    records = [None if r is None else record_bits(r) for r in table.records]
    failures = [(f.axis_value, f.kind, f.message) for f in table.failures]
    return table, records, failures, [str(w.message) for w in caught]


def pointwise_outcomes(base, axis, grid):
    """The same as sweep_outcomes, from response_at called point by point."""
    records, failures = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for g in grid:
            try:
                records.append(record_bits(response_at(replace(base, **{axis: g}))))
            except POINT_ERRORS as exc:
                records.append(None)
                failures.append((g, type(exc).__name__, str(exc)))
    return records, failures, [str(w.message) for w in caught]


class TestStackedSweepMatchesPointwise:
    """A sweep solves its grid in stacks of CHUNK_POINTS from a rate table
    built from the grid; every point must come out as response_at gives it
    alone, bit for bit, with the same failures and warnings."""

    STEPS = 2 * CHUNK_POINTS + 1   # two full chunks and a one-point chunk

    @pytest.mark.parametrize("axis,p,variant", [
        ("delta_p", 0.5, EquationVariant.CORRECTED),
        ("delta_p", 0.99, EquationVariant.CORRECTED),
        ("p_align", None, EquationVariant.CORRECTED),    # from q = 0: signed zeros
        ("delta_p", 0.5, EquationVariant.PAPER_LITERAL),  # ~2/3 NonPhysicalState
    ])
    def test_records_failures_and_generators(self, calibrated_base, axis, p, variant):
        base = replace(calibrated_base, equation_variant=variant)
        if axis == "delta_p":
            base = replace(base, p_align=p)
        else:
            base = replace(base, delta_p=1e-16)
        table, *swept = sweep_outcomes(base, axis, self.STEPS)
        assert swept == list(pointwise_outcomes(base, axis, table.grid))
        failures = swept[1]
        if variant is EquationVariant.PAPER_LITERAL:
            assert len(failures) > self.STEPS // 2
            assert {kind for _, kind, _ in failures} == {"NonPhysicalState"}

        points = [replace(base, **{axis: g}) for g in table.grid]
        stack = build_generator(points)
        # the generators a sweep solves, scattered from its grid-built table
        swept_stack = build_generator(PointsAlong(base, axis, list(table.grid)))
        for point, L, S in zip(points, stack, swept_stack):
            alone = build_generator(point)
            for candidate in (L, S):
                assert np.array_equal(candidate, alone)
                assert np.array_equal(np.signbit(candidate), np.signbit(alone))

    @pytest.mark.parametrize("axis,changes,kinds,warned", [
        ("delta_p", dict(gamma2=1e-300, gamma3=1e-300, gamma4=1e-300), {"SingularSystem"}, 0),
        ("p_align", dict(gamma2=1e-300, gamma3=1e-300, gamma4=1e-300), {"SingularSystem"}, 0),
        ("delta_p", dict(omega1_bare=1e150), {"SingularSystem"}, 0),
        ("delta_p", dict(gamma2=1e-13, gamma3=1e-13, gamma4=1e-13), set(), STEPS),
        ("delta_p", dict(omegap_bare=0.0), {"DegenerateProbe"}, 0),
        ("p_align", dict(omegap_bare=0.0), {"DegenerateProbe"}, 0),
        ("delta_p", dict(p_align=-1.0), {"DegenerateProbe"}, 0),
        ("p_align", dict(equation_variant=EquationVariant.PAPER_LITERAL),
         {"NonPhysicalState"}, 0),
    ], ids=["singular-gammas", "singular-gammas-alignment", "singular-coupling",
            "ill-conditioned", "no-probe", "no-probe-alignment", "aligned",
            "paper-alignment"])
    def test_failure_heavy_bases(self, axis, changes, kinds, warned):
        base = SystemParams(**changes)
        table, *swept = sweep_outcomes(base, axis, self.STEPS)
        assert swept == list(pointwise_outcomes(base, axis, table.grid))
        records, failures, messages = swept
        assert {kind for _, kind, _ in failures} == kinds
        if kinds != {"NonPhysicalState"}:   # every point fails, or none
            assert len(failures) == (self.STEPS if kinds else 0)
        assert len(messages) == warned
        assert all("ill-conditioned" in m for m in messages)

    def test_sweeps_build_no_per_point_params(self, calibrated_base, monkeypatch):
        # a sweep is one call of response_at and steady_state, nested as a
        # tracer of those layers sees them, each chunk one build_generator
        # stack, and no SystemParams is built
        base = replace(calibrated_base, p_align=0.5)
        calls = []
        post_init = SystemParams.__post_init__

        def counted(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(SystemParams, "__post_init__", counted)
        layers, depth, caller = [], [], threading.get_ident()
        for module, name in ((sweep, "response_at"), (response, "steady_state"),
                             (steady, "build_generator")):
            def spy(points, fn=getattr(module, name), name=name, **hooks):
                layers.append((name, len(points), len(depth),
                               threading.get_ident() == caller))
                depth.append(name)
                try:
                    return fn(points, **hooks)
                finally:
                    depth.pop()
            monkeypatch.setattr(module, name, spy)
        detuning = sweep_detuning(base, -20.0, 20.0, self.STEPS)
        alignment = sweep_alignment(base, 0.0, 1.0 - ALIGNMENT_GUARD, self.STEPS)
        assert len(detuning.records) == len(alignment.records) == self.STEPS
        assert calls == []
        # all on this thread, each call inside the one above it
        sweep_layers = [("response_at", self.STEPS, 0, True),
                        ("steady_state", self.STEPS, 1, True)] + [
            ("build_generator", n, 2, True) for n in (CHUNK_POINTS, CHUNK_POINTS, 1)]
        assert layers == sweep_layers * 2

    def test_long_lists_are_solved_a_chunk_at_a_time(self, calibrated_base, monkeypatch):
        # a plain list of points never builds more than one chunk's
        # generator stack at once, and gives what a sweep of its grid gives
        base = replace(calibrated_base, p_align=0.5)
        table = sweep_detuning(base, -20.0, 20.0, self.STEPS)
        points = [replace(base, delta_p=g) for g in table.grid]
        stacks = []

        def spy(points, build=steady.build_generator, **out):
            stacks.append(len(points))
            return build(points, **out)

        monkeypatch.setattr(steady, "build_generator", spy)
        records = response_at(points)
        states = steady_state(points)
        assert stacks == [CHUNK_POINTS, CHUNK_POINTS, 1] * 2
        assert [record_bits(r) for r in records] == [record_bits(r) for r in table.records]
        assert [s.rho24 for s in states] == [r.rho24 for r in table.records]
        assert [s.rho32 for s in states] == [r.rho32 for r in table.records]

    def test_non_finite_grid_value_is_rejected(self):
        # with the text the per-point SystemParams of the value would give
        with pytest.raises(ValidationError, match="^delta_p must be finite$"):
            sweep_detuning(SystemParams(), -np.inf, 0.0, 1)

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-np.inf, 0.0)])
    def test_overflowing_grid_span_is_rejected(self, lo, hi):
        # np.linspace overflows or makes NaN on this span: the caller gets
        # the ValidationError, not a RuntimeWarning
        with pytest.raises(ValidationError, match="^delta_p must be finite$"):
            sweep_detuning(SystemParams(), lo, hi, 5)


@pytest.mark.parametrize("bare", [0.2, 0.0, -0.0])
@pytest.mark.parametrize("field,values", [
    ("p_align", [-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0]),
    ("delta_p", [-20.0, -0.0, 0.0, 1e-300, 3.5]),
    # numpy's square root against math.sqrt's, on this platform's build
    ("p_align", np.random.default_rng(1003).uniform(-1.0, 1.0, 1000).tolist()),
])
def test_points_along_columns_are_the_attributes_of_its_items(field, values, bare):
    # a sweep reads its points a column at a time, and each stack reads a
    # slice of them; each column must be, bit for bit, what the
    # SystemParams of the points give one by one
    points = PointsAlong(SystemParams(omega1_bare=bare, omegap_bare=bare), field, values)
    items = list(points)
    assert [getattr(item, field) for item in items] == values
    names = [f.name for f in fields(SystemParams)] + ["omega1", "omegap", "omegap_si", "sgc_rate"]
    for part, part_items in ((points, items), (points[1:-1], items[1:-1])):
        for name in names:
            got, expected = part.column(name), [getattr(item, name) for item in part_items]
            if name == "equation_variant":
                assert got == expected
            else:
                assert [v.hex() for v in got] == [v.hex() for v in expected], name


def test_a_slice_of_points_along_holds_the_same_floats():
    # a stack of a sweep is a slice of its points
    values = [0.1 * k for k in range(10)]
    points = PointsAlong(SystemParams(), "delta_p", values)
    part = points[2:7]
    assert isinstance(part, PointsAlong) and (part.base, part.field) == (points.base, "delta_p")
    assert len(part) == 5 and all(a is b for a, b in zip(part.values, values[2:7]))
    assert list(part) == list(points)[2:7]
    assert len(points[8:8 + CHUNK_POINTS]) == 2 and not points[10:]


@pytest.mark.parametrize("values", [
    np.linspace(0.0, 0.99, 2 * CHUNK_POINTS + 1).tolist(),
    # |p| = 1 is solved and fails in the mapping
    np.linspace(-1.0, 1.0, 2 * CHUNK_POINTS + 1).tolist(),
])
def test_an_alignment_sweep_calls_effective_rabi_for_no_point(calibrated_base, monkeypatch,
                                                                values):
    points = PointsAlong(replace(calibrated_base, delta_p=1e-16), "p_align", values)
    expected = []
    for point in points:
        try:
            expected.append(record_bits(response_at(point)))
        except Exception as error:
            expected.append(str(error))
    calls = []
    rabi = params.effective_rabi
    monkeypatch.setattr(params, "effective_rabi",
                        lambda omega_bare, p: calls.append((omega_bare, p)) or rabi(omega_bare, p))
    got = [record_bits(r) if isinstance(r, ResponseRecord) else str(r)
           for r in response_at(points)]
    assert got == expected
    # omega1, omegap and omegap_si are array expressions over the p_align
    # column, and no stack reads the base point's Rabi frequencies
    assert calls == []


@pytest.mark.parametrize("bad", [1.5, math.nan])
def test_an_alignment_column_rejects_p_align_outside_the_unit_interval(bad):
    # as effective_rabi does, naming the first such value
    points = PointsAlong(SystemParams(), "p_align", [0.5, bad, -2.0])
    with pytest.raises(ValidationError, match=f"^\\|p_align\\| must be <= 1, got {bad}$"):
        response_at(points)


def test_points_along_rejects_a_field_it_does_not_sweep():
    with pytest.raises(ValidationError,
                       match="^PointsAlong sweeps 'delta_p' or 'p_align', not 'gamma2'$"):
        PointsAlong(SystemParams(), "gamma2", [0.5])

@pytest.mark.parametrize("sweep_along,field,lo,hi", [(sweep_detuning, "delta_p", -20.0, 20.0),
                                                     (sweep_alignment, "p_align", 0.0, 0.9)])
def test_records_and_failures_hold_the_grid_floats_of_the_table(sweep_along, field, lo, hi):
    # one float object per grid value, not a second copy in each record;
    # the paper's equations make some points fail and some not
    table = sweep_along(SystemParams(equation_variant=EquationVariant.PAPER_LITERAL),
                        lo, hi, CHUNK_POINTS + 3)
    assert table.failures and any(r is not None for r in table.records)
    failures = iter(table.failures)
    for g, r in zip(table.grid, table.records):
        assert (next(failures).axis_value if r is None else getattr(r, field)) is g


# an ill-conditioned but solvable point: every solve warns
ILL_CONDITIONED = SystemParams(gamma2=1e-13, gamma3=1e-13, gamma4=1e-13)


@pytest.mark.parametrize("call", [
    lambda: steady_state(ILL_CONDITIONED),
    lambda: response_at(ILL_CONDITIONED),
    lambda: sweep_detuning(ILL_CONDITIONED, -1.0, 1.0, 3),
    lambda: sweep_alignment(ILL_CONDITIONED, 0.0, 0.5, 3),
], ids=["steady_state", "response_at", "sweep_detuning", "sweep_alignment"])
def test_ill_conditioning_warning_names_the_caller(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert caught
    for w in caught:
        assert "ill-conditioned" in str(w.message)
        assert w.filename == __file__
