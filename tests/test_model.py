import itertools
from dataclasses import replace

import numpy as np
import pytest

import sgcvapor.model as model
from sgcvapor import (DensityMatrix, EquationVariant, SystemParams,
                      ValidationError, build_generator, eom_rhs, unvectorize,
                      vectorize)
from sgcvapor.model import LEVEL3_COHERENCE_INDICES
from sgcvapor.params import PointsAlong

from conftest import random_hermitian

NO_FIELDS = SystemParams(omega1_bare=0.0, omegap_bare=0.0, p_align=0.0)
DEFAULTS_P05 = SystemParams(p_align=0.5)


def _unvectorize_reference(x):
    """Element-by-element inverse of vectorize, the reference for unvectorize."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.diag_indices(4)] = x[:4]
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for k, (i, j) in enumerate(pairs):
        rho[i, j] = x[4 + 2 * k] + 1j * x[5 + 2 * k]
        rho[j, i] = x[4 + 2 * k] - 1j * x[5 + 2 * k]
    return rho


def _vectorize_reference(rho):
    """Element-by-element vectorize, the reference for vectorize."""
    x = np.empty(16)
    x[:4] = rho.diagonal().real
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for k, (i, j) in enumerate(pairs):
        x[4 + 2 * k] = rho[i, j].real
        x[5 + 2 * k] = rho[i, j].imag
    return x


class TestDensityMatrix:
    def test_ground_state_is_valid(self):
        rho = DensityMatrix.ground()
        assert rho.m[0, 0] == 1.0
        rho.validate()

    def test_vector_round_trip(self):
        rng = np.random.default_rng(7)
        rho = random_hermitian(rng)
        x = vectorize(rho)
        assert np.allclose(unvectorize(x), rho, atol=0)
        assert x.shape == (16,)

    def test_vector_layout_order(self):
        # populations first, then Re/Im pairs in (1,2),(1,3),(1,4),(2,3),(2,4),(3,4) order
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 3] = 0.25 + 0.125j  # rho24
        rho[3, 1] = 0.25 - 0.125j
        x = vectorize(rho)
        assert x[model.IDX_RE24] == 0.25
        assert x[model.IDX_IM24] == 0.125

    def test_unvectorize_matches_elementwise_reference_bitwise(self):
        # signed zeros included: rho_ji = Re - 1j*Im turns Im = 0.0 into
        # +0.0, not -0.0, and the CSV output keeps such signs
        rng = np.random.default_rng(9)
        X = rng.choice([0.0, -0.0, 0.5, -0.5, 1e-300, -3.0], size=(200, 16))
        stacked = unvectorize(X)
        assert stacked.shape == (200, 4, 4)
        for x, m in zip(X, stacked):
            ref = _unvectorize_reference(x)
            assert unvectorize(x).tobytes() == ref.tobytes()
            assert m.tobytes() == ref.tobytes()

    def test_coherences_read_from_x_match_unvectorize_bitwise(self):
        # the mapping reads rho24 and rho32 straight from the solution x,
        # one row as floats or a stack's columns as arrays; each part in
        # every combination of signs and magnitudes
        parts = [0.0, 5e-324, 1e-300, 0.37, 1e300]
        parts += [-v for v in parts]
        X = np.zeros((len(parts) ** 4, 16))
        X[:, [model.IDX_RE24, model.IDX_IM24, model.IDX_RE23, model.IDX_IM23]] = list(
            itertools.product(parts, repeat=4))
        rho = unvectorize(X)
        expected = [rho[:, 1, 3].tobytes(), rho[:, 2, 1].tobytes()]
        stacked = model._rho24_rho32(X.T)
        assert [np.array(complex_parts).T.copy().view(complex).tobytes()
                for complex_parts in stacked] == expected
        rows = [model._rho24_rho32(x) for x in X.tolist()]
        for k, part in enumerate(expected):
            assert np.array([row[k] for row in rows]).view(complex).tobytes() == part

    def test_vectorize_matches_elementwise_reference_bitwise(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            rho = random_hermitian(rng)
            assert vectorize(rho).tobytes() == _vectorize_reference(rho).tobytes()
        # signed zeros survive the gather
        X = rng.choice([0.0, -0.0, 0.5, -0.5, 1e-300, -3.0], size=(200, 16))
        for rho in unvectorize(X):
            assert vectorize(rho).tobytes() == _vectorize_reference(rho).tobytes()

    def test_unvectorize_is_hermitian_by_construction(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=16)
        m = unvectorize(x)
        assert np.array_equal(m, m.conj().T)

    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 0.1
        with pytest.raises(ValidationError):
            DensityMatrix(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_negative_population_rejected(self):
        m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match=r"^density matrix must be 4x4, got \(3, 3\)$"):
            DensityMatrix(np.eye(3, dtype=complex) / 3.0)

    def test_non_finite_entry_rejected(self):
        m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        m[1, 2] = complex(float("nan"), 0.0)
        with pytest.raises(ValidationError, match="^density matrix has non-finite entries$"):
            DensityMatrix(m)

    def test_repr_shows_the_populations(self):
        assert repr(DensityMatrix.ground()) == (
            "DensityMatrix(populations=[1.000000, 0.000000, 0.000000, 0.000000])")

    def test_coherence_accessors(self):
        m = np.zeros((4, 4), dtype=complex)
        m[np.diag_indices(4)] = 0.25
        m[1, 3], m[3, 1] = 0.1 + 0.2j, 0.1 - 0.2j
        m[1, 2], m[2, 1] = 0.05 - 0.03j, 0.05 + 0.03j
        rho = DensityMatrix(m)
        assert rho.rho24 == 0.1 + 0.2j
        assert rho.rho32 == 0.05 + 0.03j  # conj(rho23)


class TestEquationsOfMotion:
    def test_undriven_ground_state_is_stationary(self):
        d = eom_rhs(NO_FIELDS, DensityMatrix.ground())
        assert np.max(np.abs(d)) == 0.0

    def test_derivative_is_traceless_corrected(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = eom_rhs(DEFAULTS_P05, random_hermitian(rng))
            assert abs(d.trace()) < 1e-12

    def test_derivative_is_traceless_paper_literal_too(self):
        # the rho22 completion follows each variant's own rho33 equation
        params = SystemParams(p_align=0.5,
                              equation_variant=EquationVariant.PAPER_LITERAL)
        rng = np.random.default_rng(12)
        d = eom_rhs(params, random_hermitian(rng))
        assert abs(d.trace()) < 1e-12

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = eom_rhs(DEFAULTS_P05, random_hermitian(rng))
            assert np.max(np.abs(d - d.conj().T)) < 1e-12

    def test_real_linearity(self):
        rng = np.random.default_rng(14)
        r1 = random_hermitian(rng, unit_trace=False)
        r2 = random_hermitian(rng, unit_trace=False)
        a, b = 0.7, -1.3
        lhs = eom_rhs(DEFAULTS_P05, a * r1 + b * r2)
        rhs = a * eom_rhs(DEFAULTS_P05, r1) + b * eom_rhs(DEFAULTS_P05, r2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_variants_differ_only_in_rho33_and_rho22(self):
        corrected = SystemParams(p_align=0.5)
        literal = SystemParams(p_align=0.5,
                               equation_variant=EquationVariant.PAPER_LITERAL)
        rng = np.random.default_rng(15)
        rho = random_hermitian(rng)
        diff = eom_rhs(literal, rho) - eom_rhs(corrected, rho)
        g3 = corrected.gamma3
        expected_33 = 4.0 * g3 * rho[2, 2]
        assert diff[2, 2] == pytest.approx(expected_33, abs=1e-12)
        assert diff[1, 1] == pytest.approx(-expected_33, abs=1e-12)
        mask = np.ones((4, 4), dtype=bool)
        mask[2, 2] = mask[1, 1] = False
        assert np.max(np.abs(diff[mask])) < 1e-12


# generator entries that carry the interference rate q = p*sqrt(g3*g4)
_Q_ENTRIES = (
    (model.IDX_N3, model.IDX_RE34), (model.IDX_N4, model.IDX_RE34),
    (model.IDX_N2, model.IDX_RE34),
    (model.IDX_RE13, model.IDX_RE14), (model.IDX_IM13, model.IDX_IM14),
    (model.IDX_RE14, model.IDX_RE13), (model.IDX_IM14, model.IDX_IM13),
    (model.IDX_RE23, model.IDX_RE24), (model.IDX_IM23, model.IDX_IM24),
    (model.IDX_RE24, model.IDX_RE23), (model.IDX_IM24, model.IDX_IM23),
    (model.IDX_RE34, model.IDX_N3), (model.IDX_RE34, model.IDX_N4),
)


def _generator_reference(point):
    """build_generator's L at ``point`` entry by entry, in Python floats:
    each term of model._TERMS, then the rho22 row as -(L[0] + L[2] + L[3])."""
    g2, g3, g4 = point.gamma2, point.gamma3, point.gamma4
    literal = point.equation_variant is EquationVariant.PAPER_LITERAL
    rates = {"g2": g2, "g3": g3, "g4": g4, "g2+g3": g2 + g3, "g2+g4": g2 + g4,
             "g3+g4": g3 + g4, "s3": g3 if literal else -g3, "w1": point.omega1,
             "wp": point.omegap, "q": point.sgc_rate, "d": point.delta_p}
    L = [[0.0] * 16 for _ in range(16)]
    for row, col, name, coef in model._TERMS:
        L[row][col] = coef * rates[name]
    L[model.IDX_N2] = [-(a + b + c) for a, b, c in
                       zip(L[model.IDX_N1], L[model.IDX_N3], L[model.IDX_N4])]
    return np.array(L)


def _generator_points(rng, n):
    """``n`` operating points: every edge of the alignment, the probe and the
    detuning in both equation variants, then random points."""
    edges = [SystemParams(p_align=p, omegap_bare=wp, delta_p=d, equation_variant=v)
             for p in (0.0, -0.0, 0.5, 1.0, -1.0) for wp in (0.0, 0.2)
             for d in (0.0, -0.0, 3.0) for v in EquationVariant]
    edges += [SystemParams(omega1_bare=bare, omegap_bare=bare, p_align=p)
              for bare in (0.0, -0.0) for p in (-0.0, 0.5, -1.0)]
    rest = [SystemParams(gamma2=rng.uniform(0.01, 5.0), gamma3=rng.uniform(0.01, 5.0),
                         gamma4=rng.uniform(0.01, 5.0), omega1_bare=rng.uniform(0.0, 20.0),
                         omegap_bare=rng.uniform(0.0, 2.0), p_align=rng.uniform(-1.0, 1.0),
                         delta_p=rng.uniform(-50.0, 50.0),
                         equation_variant=list(EquationVariant)[rng.integers(2)])
            for _ in range(n - len(edges))]
    return edges + rest


class TestGenerator:
    def test_matches_an_entrywise_reference_bitwise(self):
        # signed zeros included: an empty rho22 column, and one whose rate
        # is zero (wp = 0 or q = 0), holds -0.0, which a completion folded
        # into the term table would give as +0.0
        points = _generator_points(np.random.default_rng(19), 256)
        expected = np.stack([_generator_reference(point) for point in points])
        assert (np.signbit(expected[:, model.IDX_N2]) & (expected[:, model.IDX_N2] == 0.0)).any()
        assert build_generator(points).tobytes() == expected.tobytes()
        for point, L in zip(points, expected):
            assert build_generator(point).tobytes() == L.tobytes()
            assert build_generator([point]).tobytes() == L.tobytes()
        # and a sweep's points, whose rates come a column at a time
        for point in points[::37]:
            for field, values in (("delta_p", [0.0, -0.0, -7.5, 2.0]),
                                  ("p_align", [0.0, -0.0, 1.0, -1.0, -0.3, 0.999])):
                swept = [replace(point, **{field: v}) for v in values]
                along = build_generator(PointsAlong(point, field, values))
                assert along.tobytes() == np.stack(
                    [_generator_reference(p) for p in swept]).tobytes()

    def test_builds_in_place_with_the_same_bits(self):
        # into an array of any prior contents, as the steady solve builds
        # its first stack into the first half of its trace-constrained pair
        points = _generator_points(np.random.default_rng(20), 256)
        for chosen in (points, points[:1], points[100:101]):
            expected = build_generator(chosen)
            pair = np.full((2,) + expected.shape, np.nan)
            out = pair[0]
            assert build_generator(chosen, out=out) is out
            assert out.tobytes() == expected.tobytes()
            assert np.isnan(pair[1]).all()

    def test_interference_entries_vanish_at_p_zero(self):
        L = build_generator(SystemParams(p_align=0.0))
        for row, col in _Q_ENTRIES:
            assert L[row, col] == 0.0

    def test_interference_entries_present_otherwise(self):
        L = build_generator(SystemParams(p_align=0.5))
        assert all(L[row, col] != 0.0 for row, col in _Q_ENTRIES)

    def test_undriven_ground_state_in_kernel(self):
        L = build_generator(NO_FIELDS)
        assert np.max(np.abs(L @ vectorize(DensityMatrix.ground().m))) == 0.0

    def test_entries_finite(self):
        L = build_generator(DEFAULTS_P05)
        assert np.all(np.isfinite(L))

    def test_population_rows_sum_to_zero_corrected(self):
        L = build_generator(DEFAULTS_P05)
        assert np.max(np.abs(L[:4, :].sum(axis=0))) < 1e-12

    def test_matches_scalar_equations_on_random_states(self):
        # the matrix is assembled independently of eom_rhs; the two must agree
        L = build_generator(DEFAULTS_P05)
        rng = np.random.default_rng(16)
        for _ in range(100):
            rho = random_hermitian(rng)
            via_matrix = unvectorize(L @ vectorize(rho))
            via_scalar = eom_rhs(DEFAULTS_P05, rho)
            assert np.max(np.abs(via_matrix - via_scalar)) < 1e-12

    def test_matches_scalar_equations_paper_literal(self):
        params = SystemParams(p_align=0.3, delta_p=2.0,
                              equation_variant=EquationVariant.PAPER_LITERAL)
        L = build_generator(params)
        rng = np.random.default_rng(17)
        rho = random_hermitian(rng)
        assert np.max(np.abs(unvectorize(L @ vectorize(rho))
                             - eom_rhs(params, rho))) < 1e-12

    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_alignment_reflection_symmetry(self, p):
        # negating the level-3 coherence components commutes with p -> -p
        plus = build_generator(SystemParams(p_align=p, delta_p=3.0))
        minus = build_generator(SystemParams(p_align=-p, delta_p=3.0))
        flip = np.ones(16)
        flip[list(LEVEL3_COHERENCE_INDICES)] = -1.0
        rng = np.random.default_rng(18)
        for _ in range(20):
            x = rng.normal(size=16)
            assert np.max(np.abs(minus @ (flip * x) - flip * (plus @ x))) < 1e-12
