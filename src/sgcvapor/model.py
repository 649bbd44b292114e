"""Density matrix, equations of motion, and their vectorized generator.

The equations of motion (rotating-wave approximation, interaction picture)
for the Y-type system read, with q = p*sqrt(gamma3*gamma4) the interference
rate and Omega_1, Omega_p the effective Rabi frequencies:

    rho11' =  2*g2*rho22 + i*W1*(rho21 - rho12)
    rho33' = -2*g3*rho33 - q*(rho34 + rho43)                 [corrected sign]
    rho44' = -2*g4*rho44 - q*(rho34 + rho43) + i*Wp*(rho24 - rho42)
    rho12' = -g2*rho12 + i*W1*(rho22 - rho11) - i*Wp*rho14
    rho13' = -g3*rho13 + i*W1*rho23 - q*rho14
    rho14' = -(g4 - i*D)*rho14 - q*rho13 + i*W1*rho24 - i*Wp*rho12
    rho23' = -(g2 + g3)*rho23 + i*W1*rho13 + i*Wp*rho43 - q*rho24
    rho24' = -(g2 + g4 - i*D)*rho24 + i*Wp*(rho44 - rho22) + i*W1*rho14 - q*rho23
    rho34' = -(g3 + g4 - i*D)*rho34 - i*Wp*rho32 - q*(rho33 + rho44)

with D = delta_p.  The rho22 equation is the unique completion that makes
the total population derivative vanish,

    rho22' = -(rho11' + rho33' + rho44'),

which expands to -2*g2*rho22 + 2*g3*rho33 + 2*g4*rho44 + 2*q*(rho34 + rho43)
plus the field terms.  In the PAPER_LITERAL variant the rho33 equation keeps
the self-amplifying +2*g3*rho33 term and the rho22 completion follows it, so
the two variants differ by -+4*g3*rho33 in exactly the rho33 and rho22
components.

Everything is linear in rho, so the flow is dx/dt = L x on the real
16-vector x = (rho11, rho22, rho33, rho44, Re rho12, Im rho12, ...,
Re rho34, Im rho34) with pairs ordered (1,2), (1,3), (1,4), (2,3), (2,4),
(3,4).  ``build_generator`` scatters L from a table of the terms of the
expanded real equations, independently of the complex-arithmetic
``eom_rhs``, so the two routes cross-check each other; for a sequence of
operating points it builds the (N, 16, 16) stack in one scatter. The
scatter works from an (N, 11) table of per-point rates: the decay rates
of ``_decay_rates`` and the rates that vary with the point, W1, Wp, q and
D, which ``_POINT_RATES`` alone declares, each as the SystemParams
property that ``eom_rhs`` reads. A list of points reads them point by
point through those properties; for a sweep's ``PointsAlong`` only the
columns that vary along the sweep are computed, and no SystemParams is
built per point.
"""

from __future__ import annotations

import operator

import numpy as np

from .params import PointsAlong, SystemParams, EquationVariant, ValidationError

# Vectorization layout: 4 populations then Re/Im of the 6 upper coherences.
IDX_N1, IDX_N2, IDX_N3, IDX_N4 = 0, 1, 2, 3
IDX_RE12, IDX_IM12 = 4, 5
IDX_RE13, IDX_IM13 = 6, 7
IDX_RE14, IDX_IM14 = 8, 9
IDX_RE23, IDX_IM23 = 10, 11
IDX_RE24, IDX_IM24 = 12, 13
IDX_RE34, IDX_IM34 = 14, 15

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# flat (row-major 4x4) positions of the diagonal, of rho_ij for each pair
# in _PAIRS, and of rho_ji
_FLAT_DIAG = np.arange(4) * 5
_FLAT_UPPER = np.array([4 * i + j for i, j in _PAIRS])
_FLAT_LOWER = np.array([4 * j + i for i, j in _PAIRS])
# for each flat position, its place among the diagonal, the rho_ij and the
# rho_ji, in that order (not by np.argsort: its first call takes about
# 0.5 MB of resident memory)
_PARTS = [*_FLAT_DIAG, *_FLAT_UPPER, *_FLAT_LOWER]
_FROM_PARTS = np.array([_PARTS.index(k) for k in range(16)])

#: real components that flip sign under p -> -p (coherences involving |3>)
LEVEL3_COHERENCE_INDICES = (IDX_RE13, IDX_IM13, IDX_RE23, IDX_IM23,
                            IDX_RE34, IDX_IM34)

# Tolerances for state validation.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POPULATION_TOL = 1e-8

GeneratorMatrix = np.ndarray  # real (16, 16); dx/dt = L @ x


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Map a Hermitian 4x4 matrix to the real 16-vector layout."""
    flat = np.asarray(rho).reshape(16)
    upper = flat[_FLAT_UPPER]
    x = np.empty(16)
    x[:4] = flat[_FLAT_DIAG].real
    x[4::2] = upper.real
    x[5::2] = upper.imag
    return x


def unvectorize(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; output is Hermitian by construction.

    A stack of vectors (..., 16) gives the stack of matrices (..., 4, 4).
    """
    x = np.asarray(x, dtype=float)
    re = x[..., 4::2]
    i_im = 1j * x[..., 5::2]
    rho = np.concatenate((x[..., :4], re + i_im, re - i_im), axis=-1)
    return rho.take(_FROM_PARTS, axis=-1).reshape(x.shape[:-1] + (4, 4))


def _rho24_rho32(x):
    """rho24 and rho32 of the 16-vector ``x`` (floats, or a stack's transpose
    for arrays) as (re, im) pairs, bitwise :func:`unvectorize`'s [1, 3] and
    [2, 1]: numpy takes 1j * im as (0.0 * im - 0.0, 0.0 + im)."""
    re24, im24, re23, im23 = x[IDX_RE24], x[IDX_IM24], x[IDX_RE23], x[IDX_IM23]
    return ((re24 + (0.0 * im24 - 0.0), 0.0 + (0.0 + im24)),
            (re23 - (0.0 * im23 - 0.0), 0.0 - (0.0 + im23)))


class DensityMatrix:
    """4x4 complex Hermitian unit-trace state of the atom.

    Wraps a numpy array; ``m[i, j]`` is rho_{i+1, j+1} in level labels.
    """

    __slots__ = ("m",)

    def __init__(self, matrix: np.ndarray, check: bool = True):
        self.m = np.array(matrix, dtype=complex)
        if self.m.shape != (4, 4):
            raise ValidationError(f"density matrix must be 4x4, got {self.m.shape}")
        if check:
            self.validate()

    @classmethod
    def ground(cls) -> "DensityMatrix":
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        return cls(m)

    @classmethod
    def from_vector(cls, x: np.ndarray, check: bool = True) -> "DensityMatrix":
        return cls(unvectorize(x), check=check)

    @classmethod
    def _view(cls, m: np.ndarray) -> "DensityMatrix":
        """An unchecked state on the complex 4x4 array ``m`` itself, not on
        a copy (``steady_state`` hands out rows of one stack this way)."""
        state = cls.__new__(cls)
        state.m = m
        return state

    def vector(self) -> np.ndarray:
        return vectorize(self.m)

    def validate(self) -> None:
        if not np.all(np.isfinite(self.m.view(float))):
            raise ValidationError("density matrix has non-finite entries")
        herm = np.max(np.abs(self.m - self.m.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValidationError(f"not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tr = self.m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace differs from 1 by {abs(tr - 1.0):.3e}")
        pops = self.m.diagonal().real
        if pops.min() < -POPULATION_TOL or pops.max() > 1.0 + POPULATION_TOL:
            raise ValidationError(f"populations outside [0, 1]: {pops}")

    @property
    def rho24(self) -> complex:
        """Coherence driving the electric dipole response."""
        return self.m.item(1, 3)

    @property
    def rho32(self) -> complex:
        """Coherence driving the magnetic dipole response (= conj(rho23))."""
        return self.m.item(2, 1)

    def __repr__(self) -> str:
        pops = ", ".join(f"{v:.6f}" for v in self.m.diagonal().real)
        return f"DensityMatrix(populations=[{pops}])"


def eom_rhs(params: SystemParams, rho) -> np.ndarray:
    """Time derivative drho/dt (gamma units) of a Hermitian state.

    Accepts a DensityMatrix or a raw 4x4 complex array; returns a 4x4
    complex array. The derivative is Hermitian whenever the input is, and
    traceless by construction of the rho22 completion (in both variants).
    """
    m = rho.m if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    g2, g3, g4 = params.gamma2, params.gamma3, params.gamma4
    w1, wp = params.omega1, params.omegap
    q = params.sgc_rate
    d = params.delta_p
    literal = params.equation_variant is EquationVariant.PAPER_LITERAL

    r11, r22, r33, r44 = m[0, 0], m[1, 1], m[2, 2], m[3, 3]
    r12, r13, r14 = m[0, 1], m[0, 2], m[0, 3]
    r23, r24, r34 = m[1, 2], m[1, 3], m[2, 3]
    r21, r42, r43, r32 = m[1, 0], m[3, 1], m[3, 2], m[2, 1]

    d11 = 2 * g2 * r22 + 1j * w1 * (r21 - r12)
    if literal:
        d33 = 2 * g3 * r33 - q * (r34 + r43)
    else:
        d33 = -2 * g3 * r33 - q * (r34 + r43)
    d44 = -2 * g4 * r44 - q * (r34 + r43) + 1j * wp * (r24 - r42)
    d22 = -(d11 + d33 + d44)

    d12 = -g2 * r12 + 1j * w1 * (r22 - r11) - 1j * wp * r14
    d13 = -g3 * r13 + 1j * w1 * r23 - q * r14
    d14 = -(g4 - 1j * d) * r14 - q * r13 + 1j * w1 * r24 - 1j * wp * r12
    d23 = -(g2 + g3) * r23 + 1j * w1 * r13 + 1j * wp * r43 - q * r24
    d24 = -(g2 + g4 - 1j * d) * r24 + 1j * wp * (r44 - r22) + 1j * w1 * r14 - q * r23
    d34 = -(g3 + g4 - 1j * d) * r34 - 1j * wp * r32 - q * (r33 + r44)

    out = np.empty((4, 4), dtype=complex)
    out[0, 0], out[1, 1], out[2, 2], out[3, 3] = d11, d22, d33, d44
    out[0, 1], out[0, 2], out[0, 3] = d12, d13, d14
    out[1, 2], out[1, 3], out[2, 3] = d23, d24, d34
    out[1, 0], out[2, 0], out[3, 0] = np.conj(d12), np.conj(d13), np.conj(d14)
    out[2, 1], out[3, 1], out[3, 2] = np.conj(d23), np.conj(d24), np.conj(d34)
    return out


# The rates that vary from point to point (with p or along a sweep), each
# with the SystemParams attribute it is, which eom_rhs reads too
_POINT_RATES = (("w1", "omega1"), ("wp", "omegap"), ("q", "sgc_rate"), ("d", "delta_p"))
# Per-point values that every entry of L is a fixed multiple of: the decay
# rates of _decay_rates, then the _POINT_RATES. "s3" is the sign-carrying
# rate of the rho33 self term: -g3 (corrected) or +g3 (PAPER_LITERAL), so
# the term is 2*s3.
_RATE_NAMES = ("g2", "g3", "g4", "g2+g3", "g2+g4", "g3+g4", "s3",
               *(name for name, _ in _POINT_RATES))
_point_rates = operator.attrgetter(*(attr for _, attr in _POINT_RATES))

# L[row, column] = coefficient * rate, one entry per term of the real and
# imaginary expansion of the equations of motion (the rho22 row is derived
# from the others in build_generator). Multiplying by +-1 or +-2 is exact,
# so every entry, signed zeros included, equals the plain expression it
# stands for (-q, 2*g2, ...).
_TERMS = (
    # populations
    (IDX_N1, IDX_N2, "g2", 2.0),
    (IDX_N1, IDX_IM12, "w1", 2.0),
    (IDX_N3, IDX_N3, "s3", 2.0),
    (IDX_N3, IDX_RE34, "q", -2.0),
    (IDX_N4, IDX_N4, "g4", -2.0),
    (IDX_N4, IDX_RE34, "q", -2.0),
    (IDX_N4, IDX_IM24, "wp", -2.0),

    # rho12: -g2*r12 + i*w1*(n2 - n1) - i*wp*r14
    (IDX_RE12, IDX_RE12, "g2", -1.0),
    (IDX_RE12, IDX_IM14, "wp", 1.0),
    (IDX_IM12, IDX_IM12, "g2", -1.0),
    (IDX_IM12, IDX_N2, "w1", 1.0),
    (IDX_IM12, IDX_N1, "w1", -1.0),
    (IDX_IM12, IDX_RE14, "wp", -1.0),

    # rho13: -g3*r13 + i*w1*r23 - q*r14
    (IDX_RE13, IDX_RE13, "g3", -1.0),
    (IDX_RE13, IDX_IM23, "w1", -1.0),
    (IDX_RE13, IDX_RE14, "q", -1.0),
    (IDX_IM13, IDX_IM13, "g3", -1.0),
    (IDX_IM13, IDX_RE23, "w1", 1.0),
    (IDX_IM13, IDX_IM14, "q", -1.0),

    # rho14: -(g4 - i*d)*r14 - q*r13 + i*w1*r24 - i*wp*r12
    (IDX_RE14, IDX_RE14, "g4", -1.0),
    (IDX_RE14, IDX_IM14, "d", -1.0),
    (IDX_RE14, IDX_RE13, "q", -1.0),
    (IDX_RE14, IDX_IM24, "w1", -1.0),
    (IDX_RE14, IDX_IM12, "wp", 1.0),
    (IDX_IM14, IDX_RE14, "d", 1.0),
    (IDX_IM14, IDX_IM14, "g4", -1.0),
    (IDX_IM14, IDX_IM13, "q", -1.0),
    (IDX_IM14, IDX_RE24, "w1", 1.0),
    (IDX_IM14, IDX_RE12, "wp", -1.0),

    # rho23: -(g2 + g3)*r23 + i*w1*r13 + i*wp*conj(r34) - q*r24
    (IDX_RE23, IDX_RE23, "g2+g3", -1.0),
    (IDX_RE23, IDX_IM13, "w1", -1.0),
    (IDX_RE23, IDX_IM34, "wp", 1.0),
    (IDX_RE23, IDX_RE24, "q", -1.0),
    (IDX_IM23, IDX_IM23, "g2+g3", -1.0),
    (IDX_IM23, IDX_RE13, "w1", 1.0),
    (IDX_IM23, IDX_RE34, "wp", 1.0),
    (IDX_IM23, IDX_IM24, "q", -1.0),

    # rho24: -(g2 + g4 - i*d)*r24 + i*wp*(n4 - n2) + i*w1*r14 - q*r23
    (IDX_RE24, IDX_RE24, "g2+g4", -1.0),
    (IDX_RE24, IDX_IM24, "d", -1.0),
    (IDX_RE24, IDX_IM14, "w1", -1.0),
    (IDX_RE24, IDX_RE23, "q", -1.0),
    (IDX_IM24, IDX_RE24, "d", 1.0),
    (IDX_IM24, IDX_IM24, "g2+g4", -1.0),
    (IDX_IM24, IDX_N4, "wp", 1.0),
    (IDX_IM24, IDX_N2, "wp", -1.0),
    (IDX_IM24, IDX_RE14, "w1", 1.0),
    (IDX_IM24, IDX_IM23, "q", -1.0),

    # rho34: -(g3 + g4 - i*d)*r34 - i*wp*conj(r23) - q*(n3 + n4)
    (IDX_RE34, IDX_RE34, "g3+g4", -1.0),
    (IDX_RE34, IDX_IM34, "d", -1.0),
    (IDX_RE34, IDX_IM23, "wp", -1.0),
    (IDX_RE34, IDX_N3, "q", -1.0),
    (IDX_RE34, IDX_N4, "q", -1.0),
    (IDX_IM34, IDX_RE34, "d", 1.0),
    (IDX_IM34, IDX_IM34, "g3+g4", -1.0),
    (IDX_IM34, IDX_RE23, "wp", -1.0),
)
# where each term goes in L, and which rate it multiplies by which coefficient
_TERM_ROWS = np.array([row for row, _, _, _ in _TERMS])
_TERM_COLS = np.array([col for _, col, _, _ in _TERMS])
_TERM_RATES = np.array([_RATE_NAMES.index(name) for _, _, name, _ in _TERMS])
_TERM_COEFS = np.array([coef for _, _, _, coef in _TERMS])


def _decay_rates(params: SystemParams) -> tuple:
    """The decay rates of _RATE_NAMES, g2 ... s3, at one operating point."""
    g2, g3, g4 = params.gamma2, params.gamma3, params.gamma4
    literal = params.equation_variant is EquationVariant.PAPER_LITERAL
    return g2, g3, g4, g2 + g3, g2 + g4, g3 + g4, g3 if literal else -g3


def _rate_table(points) -> np.ndarray:
    """The (N, 11) table of the _RATE_NAMES values of N SystemParams."""
    if isinstance(points, PointsAlong):
        rates = np.empty((len(points), len(_RATE_NAMES)))
        rates[:, :-len(_POINT_RATES)] = _decay_rates(points.base)
        # the last columns, one per _POINT_RATES row
        for col, (_, attr) in enumerate(_POINT_RATES, -len(_POINT_RATES)):
            rates[:, col] = points.column(attr)
        return rates
    rates = np.array([_decay_rates(p) + _point_rates(p) for p in points], dtype=float)
    return rates.reshape(len(points), len(_RATE_NAMES))   # also for no points


def build_generator(params, out=None) -> GeneratorMatrix:
    """Real 16x16 generator L with dx/dt = L x.

    ``params`` is one SystemParams, or a sequence of N of them for the
    (N, 16, 16) stack of their generators; each matrix of the stack is
    bitwise the one its point gives alone. The entries are scattered from
    the term table above, the real/imaginary expansion of the equations of
    motion (not a probe of :func:`eom_rhs`), so the two implementations
    stay independent cross-checks of each other. For a sequence, ``out``
    may be an (N, 16, 16) float array to build the stack in, every entry
    overwritten; the stack returned is then ``out`` itself.
    """
    single = isinstance(params, SystemParams)
    rates = _rate_table((params,) if single else params)
    if out is None:
        L = np.zeros((len(rates), 16, 16))
    else:
        L = out
        L.fill(0.0)
    # scaled in place: a sequence may build its next stack while the one
    # before is still held, so the build keeps one temporary, not two
    terms = rates.take(_TERM_RATES, axis=1)
    terms *= _TERM_COEFS
    L[:, _TERM_ROWS, _TERM_COLS] = terms
    # trace-conserving completion of the rho22 row
    L[:, IDX_N2, :] = -(L[:, IDX_N1, :] + L[:, IDX_N3, :] + L[:, IDX_N4, :])
    return L[0] if single else L
