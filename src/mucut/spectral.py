"""Spectral experiments: projected spectra, Weyl counting, residue fits.

Everything in this module deliberately leaves exact arithmetic for floats;
exactness claims live in the normal-form layer. A compression is evaluated
once, as its band of diagonals. Weyl counts come from inertia on that band
(Sylvester's law: the eigenvalues below ``t`` are the negative pivots of
LDL* of ``A - t*I``), not from a spectrum. The dense matrix is built for
:func:`projected_compression` and the spectra of :func:`projected_spectrum`,
which come from LAPACK (``numpy.linalg.eigvalsh``); a diagonal
compression's spectrum is its sorted diagonal. Counting reads the spectrum
only for a threshold whose banded LDL* count it cannot certify. Windows
are capped before any mode is evaluated, and a value beyond the float
range, an eigenvalue included, raises :class:`FloatOverflow`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (SCHEMA, FitRangeTooSmall, FloatOverflow, NotElliptic,
                     WrongDegree)
from .exact import GaussianRational, _float_values
from .operators import (CanonicalOperator, Parity, matrix_terms,
                        require_self_adjoint, retained_modes, szego_commutes)
from .symbols import LaurentSymbol, leading_symbol


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of a projected compression."""

    values: np.ndarray

    @property
    def reliable(self) -> np.ndarray:
        """Flags the lower half: truncation corrupts the top of the window,
        so quantitative claims are only made for flagged entries."""
        return np.arange(len(self.values)) < (len(self.values) + 1) // 2

    def count_below(self, threshold: float) -> int:
        return int(np.searchsorted(self.values, threshold, side="left"))

    def to_csv(self) -> str:
        lines = ["index,eigenvalue"]
        lines += [f"{i},{float(v)!r}" for i, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"


def _band(a: CanonicalOperator, window: int, parity: Parity):
    """The compression's nonzero diagonals, each evaluated in one pass.

    Returns ``(n, band)``: ``n`` retained modes, and ``band[d]`` the
    diagonal ``numpy.diagonal(matrix, -d)`` of the ``n x n`` compression
    for every offset ``d = k / Parity.step`` of a term with entries there.
    """
    modes = retained_modes(window, parity)
    band = {}
    for k, q, cols in matrix_terms(a, modes):
        re, im = _float_values(q, cols)
        values = np.empty(len(cols), dtype=complex)
        values.real = re
        values.imag = im
        band[k // modes.step] = values
    return len(modes), band


def projected_compression(a: CanonicalOperator, window: int,
                          parity: Parity = Parity.FULL) -> np.ndarray:
    """Dense matrix of the operator compressed to the projector's modes.

    Retained modes are ``0..window`` (full) or ``0, 2, ..., 2*window``
    (even); entry ``[i, j]`` maps the j-th retained mode to the i-th.
    """
    return _dense(*_band(a, window, parity))


def _dense(n: int, band: dict) -> np.ndarray:
    matrix = np.zeros((n, n), dtype=complex)
    for d, values in band.items():
        index = np.arange(len(values))
        matrix[index + max(d, 0), index + max(-d, 0)] = values
    return matrix


def projected_spectrum(a: CanonicalOperator, window: int,
                       parity: Parity = Parity.FULL) -> Spectrum:
    """Spectrum of the compression of ``a`` to the projector's modes.

    The operator must be exactly self-adjoint in normal form. A diagonal
    compression's spectrum is its sorted diagonal, without a dense matrix.
    """
    require_self_adjoint(a)
    return Spectrum(_eigenvalues(*_band(a, window, parity)))


def _eigenvalues(n: int, band: dict) -> np.ndarray:
    if set(band) <= {0}:
        values = np.sort(band.get(0, np.zeros(n)).real)
    else:
        values = np.linalg.eigvalsh(_dense(n, band))
    if not np.all(np.isfinite(values)):
        raise FloatOverflow("a spectrum value exceeds the float range")
    return values


def count_below(a: CanonicalOperator, window: int, parity: Parity,
                thresholds) -> np.ndarray:
    """How many eigenvalues of the compression lie below each threshold,
    counted by inertia on its band (see :func:`_count_below`).

    The operator must be exactly self-adjoint in normal form. As for
    :func:`projected_spectrum`, an eigenvalue beyond the float range
    raises :class:`FloatOverflow`; the counts at the ends of that range
    say whether there is one.
    """
    require_self_adjoint(a)
    n, band = _band(a, window, parity)
    top = sys.float_info.max
    counts = _count_below(n, band, [-top, *thresholds, top])
    if counts[0] or counts[-1] != n:
        raise FloatOverflow("a spectrum value exceeds the float range")
    return counts[1:-1]


def _count_below(n: int, band: dict, thresholds) -> np.ndarray:
    """How many eigenvalues of a Hermitian band lie below each threshold.

    By Sylvester's law of inertia this is the number of negative pivots of
    LDL* of ``A - t*I``, with the thresholds side by side in numpy. A
    diagonal band compares exactly (``diag < t``). Otherwise the band and
    the thresholds are first scaled by the power of two that brings the
    largest entry into ``[1/2, 1)``, which changes no count short of
    underflow in entries far below the largest. Every eigenvalue of the
    scaled band lies in ``[-r, r]`` with ``r = 2 * width + 1``, so a
    threshold ``t <= -r`` counts 0 and ``t > r`` counts ``n`` at once.
    Bandwidth 1 takes the Sturm recurrence (:func:`_sturm_counts`), wider
    bands the banded LDL* (:func:`_ldl_counts`); a count that LDL* cannot
    certify is read from the spectrum instead.
    """
    t = np.asarray(thresholds, dtype=float)
    diag = band.get(0, np.zeros(n)).real
    width = max(band, default=0)
    if width == 0:
        return np.searchsorted(np.sort(diag), t, side="left")
    _, exponent = math.frexp(max(float(np.max(np.abs(v.view(float))))
                                 for v in band.values()))
    with np.errstate(over="ignore"):
        scaled_t = np.ldexp(t, -exponent)
    lower = [np.ldexp(band[d].view(float), -exponent).view(complex)
             if d in band else np.zeros(n - d, dtype=complex)
             for d in range(1, width + 1)]
    diag = np.ldexp(diag, -exponent)
    # no row of the scaled band sums past this (Gershgorin)
    radius = 2 * width + 1
    counts = np.where(scaled_t > radius, n, 0)
    inside = np.flatnonzero((-radius < scaled_t) & (scaled_t <= radius))
    if width == 1:
        counts[inside] = _sturm_counts(diag, lower[0], scaled_t[inside])
    elif len(inside):
        counts[inside], certified = _ldl_counts(diag, lower,
                                                scaled_t[inside])
        recount = inside[~certified]
        if len(recount):
            counts[recount] = np.searchsorted(_eigenvalues(n, band),
                                              t[recount], side="left")
    return counts


def _sturm_counts(diag, off, t) -> np.ndarray:
    """Negative pivots of a Hermitian tridiagonal ``A - t*I``.

    The recurrence of Barth, Martin & Wilkinson (1967) on ``|off|**2``,
    ``q[i] = diag[i] - t - |off[i-1]|**2 / q[i-1]``, with the safeguard of
    LAPACK ``dstebz`` (Kahan 1966): a pivot of magnitude below
    ``pivmin = tiny * max(1, max |off|**2)`` moves to ``-pivmin``. The
    count is then exact for a tridiagonal whose entries lie within a few
    ulps of those of ``A``, diagonal entries also within ``2 * pivmin``.
    """
    off2 = (np.abs(off) ** 2).tolist()
    pivmin = np.finfo(float).tiny * max(1.0, max(off2, default=0.0))
    counts = np.zeros(len(t), dtype=int)
    q = np.full(len(t), np.inf)
    for a, e2 in zip(diag.tolist(), [0.0] + off2):
        q = (a - t) - e2 / q
        q[np.abs(q) < pivmin] = -pivmin
        counts += q < 0
    return counts


# pivots of magnitude below this move to minus it in banded LDL*; the
# moved pivot perturbs one diagonal entry by at most twice as much
_LDL_PIVMIN = 2.0 ** -40
# a banded LDL* count is certified when its backward error bound, on the
# scaled band, is at most this: below 1e-9 of the spectral radius
_LDL_CERTIFIED = 2.0 ** -32


# moved pivots and the growth they bring may overflow; such a count is
# left uncertified
@np.errstate(over="ignore", invalid="ignore")
def _ldl_counts(diag, lower: list, t):
    """Negative pivots of LDL* of a Hermitian band ``A - t*I`` of width
    ``b = len(lower) >= 2``, without pivoting, and which of the counts are
    certified.

    ``lower[d - 1]`` is the d-th subdiagonal. The Schur complement lives in
    a ``(b+1) x (b+1)`` block per threshold that slides down the band;
    rows past the end enter as decoupled pivots ``+1``. A pivot of
    magnitude below ``_LDL_PIVMIN`` moves to minus that.

    Without pivoting the factorization can grow, so each count carries a
    bound. The computed pivots are the exact LDL* of ``A + E - t*I``, ``E``
    Hermitian, with ``|E| <= 8(b+1)u (|A - t*I| + |L||D||L*|)`` entrywise
    for unit roundoff ``u`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, Thm. 9.3, on the band's ``b + 1`` updates per
    entry), plus ``2 * _LDL_PIVMIN`` on the diagonal for moved pivots.
    ``G = max_i sum_j |L[i, j]|**2 |D[j]|`` bounds every entry of
    ``|L||D||L*|``, so by Weyl's inequality the count is exact for every
    eigenvalue of ``A`` farther from ``t`` than
    ``(2b+1) * 8(b+1)u * (1 + |t| + G) + 2 * _LDL_PIVMIN`` on a band
    whose entries are below 1 in magnitude.
    A count is certified when that is at most ``_LDL_CERTIFIED``.
    """
    n, b = len(diag), len(lower)
    dtype = complex if any(np.any(v.imag) for v in lower) else float
    rows = np.zeros((n + b + 1, b), dtype=dtype)
    for d, values in enumerate(lower, start=1):
        rows[d:n, b - d] = values if dtype is complex else values.real
    schur = np.zeros((len(t), b + 1, b + 1), dtype=dtype)
    schur[:, range(b + 1), range(b + 1)] = 1.0
    # sum_j |L[i, j]|**2 |D[j]| so far for each row of the block
    weight = np.zeros((len(t), b + 1))
    growth = np.zeros(len(t))
    counts = np.zeros(len(t), dtype=int)
    for row, entry in zip(rows, diag.tolist() + [None] * (b + 1)):
        d = schur[:, 0, 0].real.copy()
        small = np.abs(d) < _LDL_PIVMIN
        d[small] = -_LDL_PIVMIN
        counts += d < 0
        v = schur[:, 1:, 0]
        growth = np.maximum(growth, np.abs(d) + weight[:, 0])
        weight[:, :b] = weight[:, 1:] + np.abs(v) ** 2 / np.abs(d)[:, None]
        weight[:, b] = 0.0
        schur[:, 1:, 1:] -= v[:, :, None] * (v.conj() / d[:, None])[:, None, :]
        schur[:, :b, :b] = schur[:, 1:, 1:]
        schur[:, b, :b] = row
        schur[:, :b, b] = row.conj()
        schur[:, b, b] = 1.0 if entry is None else entry - t
    bound = ((2 * b + 1) * 8 * (b + 1) * np.finfo(float).eps / 2
             * (1.0 + np.abs(t) + growth) + 2 * _LDL_PIVMIN)
    return counts, bound <= _LDL_CERTIFIED


def _elliptic_leading_data(a: CanonicalOperator):
    """Leading coefficient and degree for counting, or raise NotElliptic."""
    sigma = leading_symbol(a)
    modes = sigma.modes
    if set(modes) != {0}:
        raise NotElliptic(
            "leading symbol has angular dependence; counting by sublevel "
            "measure needs a shift-free top order")
    c = sigma.homogeneous_coefficient(0)
    m = sigma.degree
    if not c.is_real() or c.re <= 0 or m < 1:
        raise NotElliptic(
            f"leading symbol {c}*s^{m} is not positive and increasing")
    value = complex(c).real
    if not value:
        raise FloatOverflow("the leading coefficient underflows to 0.0")
    return value, m


@dataclass(frozen=True)
class ExperimentReport:
    """Observed-versus-predicted record for a numerical experiment.

    ``max_residual`` is always recomputed from the stored arrays on
    deserialization and must match, so a report cannot silently drift from
    the data it claims to summarize.
    """

    params: dict
    observed: tuple
    predicted: tuple
    fitted: dict = field(default_factory=dict)
    max_residual: float = 0.0

    @staticmethod
    def build(params: dict, observed, predicted, fitted=None
              ) -> "ExperimentReport":
        observed = tuple(float(v) for v in observed)
        predicted = tuple(float(v) for v in predicted)
        fitted = dict(fitted or {})
        if len(observed) != len(predicted):
            raise ValueError("observed and predicted lengths differ")
        residual = max((abs(o - p) for o, p in zip(observed, predicted)),
                       default=0.0)
        numbers = observed + predicted + (residual,) + tuple(
            v for v in fitted.values() if isinstance(v, float))
        if not all(map(math.isfinite, numbers)):
            raise FloatOverflow("a report value exceeds the float range")
        return ExperimentReport(params=dict(params), observed=observed,
                                predicted=predicted, fitted=fitted,
                                max_residual=residual)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "params": self.params,
            "observed": list(self.observed),
            "predicted": list(self.predicted),
            "fitted": self.fitted,
            "max_residual": self.max_residual,
        }

    @classmethod
    def from_json(cls, data) -> "ExperimentReport":
        if not isinstance(data, dict):
            raise ValueError("not a report object")
        if data.get("schema", SCHEMA) != SCHEMA:
            raise ValueError(f"unknown schema {data.get('schema')!r}")
        report = cls.build(params=data.get("params", {}),
                           observed=data.get("observed", ()),
                           predicted=data.get("predicted", ()),
                           fitted=data.get("fitted", {}))
        stored = data.get("max_residual")
        if stored is not None and stored != report.max_residual:
            raise ValueError(
                f"stored max_residual {stored!r} does not match recomputed "
                f"{report.max_residual!r}")
        return report

    def to_csv(self) -> str:
        lines = ["sample,observed,predicted"]
        samples = self.params.get("grid") or self.params.get("samples")
        if samples is None or len(samples) != len(self.observed):
            samples = list(range(len(self.observed)))
        for x, o, p in zip(samples, self.observed, self.predicted):
            lines.append(f"{x!r},{o!r},{p!r}")
        for key in sorted(self.fitted):
            lines.append(f"fitted:{key},{self.fitted[key]!r},")
        lines.append(f"max_residual,{self.max_residual!r},")
        return "\n".join(lines) + "\n"


def weyl_compare(a: CanonicalOperator, window: int,
                 grid_max: float | None = None,
                 parity: Parity = Parity.FULL,
                 grid_points: int = 64) -> ExperimentReport:
    """Eigenvalue counting against the sublevel measure of the top symbol.

    Observed: how many compressed eigenvalues lie below each grid value,
    counted by inertia on the compression's band.
    Predicted: the Lebesgue measure of ``{s >= 0 : c * s**m < lam}``, which
    for a monomial symbol is ``(lam / c)**(1/m)``. The grid runs in
    ``grid_points`` steps up to ``grid_max``, by default the reliability
    threshold (the symbol value at half the window) up to which it is claimed.
    """
    parity = Parity(parity)
    if not szego_commutes(a, parity):
        raise NotElliptic(
            f"operator does not commute with the {parity.value} projector")
    c, m = _elliptic_leading_data(a)
    if grid_max is None:
        try:
            grid_max = c * (window / 2.0) ** m
        except OverflowError:
            grid_max = math.inf
    grid = ([float(lam) for lam in
             np.linspace(grid_max / grid_points, grid_max, grid_points)]
            if math.isfinite(grid_max) else [])
    # counted before the grid is checked, so that the operator's own
    # errors come first
    observed = count_below(a, window, parity, grid).tolist()
    if not math.isfinite(grid_max):
        raise FloatOverflow("the grid top exceeds the float range")
    predicted = [0.0 if lam <= 0 else (lam / c) ** (1.0 / m) for lam in grid]
    params = {
        "experiment": "weyl",
        "window": window,
        "parity": parity.value,
        "grid": grid,
        "operator": a.to_json(),
    }
    fitted = {"symbol_coefficient": c, "symbol_degree": m}
    return ExperimentReport.build(params, observed, predicted, fitted)


def residue_contour(sigma: LaurentSymbol):
    """Angular contour integral of a degree ``-1`` symbol.

    Only the shift-free mode survives the integral:
    ``integral of c * s**-1 * exp(i*k*t) dt = 2*pi*c`` if ``k == 0`` else 0.
    Returns a float for real coefficients, complex otherwise.
    """
    if sigma.degree != -1 and not sigma.is_zero():
        raise WrongDegree(
            f"contour residue needs homogeneity degree -1, got "
            f"{sigma.degree!r}")
    c = (GaussianRational(0) if sigma.is_zero()
         else sigma.homogeneous_coefficient(0))
    value = complex(c) * 2.0 * math.pi
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise FloatOverflow("the contour residue exceeds the float range")
    if value.imag == 0.0:
        return value.real
    return value


def _log_spaced_integers(lo: int, hi: int, max_points: int) -> list:
    if hi - lo + 1 <= max_points:
        return list(range(lo, hi + 1))
    points = np.unique(np.rint(np.exp(
        np.linspace(math.log(lo), math.log(hi), max_points))).astype(int))
    return [int(p) for p in points if lo <= p <= hi]


# an overflow shows as a non-finite value, which ExperimentReport.build rejects
@np.errstate(over="ignore", invalid="ignore")
def residue_log_fit(diagonal, fit_range=(1000, 100000)) -> ExperimentReport:
    """Least-squares fit of partial sums against ``c*log(N) + b``.

    ``diagonal[i]`` is the term at index ``i + 1``; partial sums are taken
    at up to 512 log-spaced sample points inside ``fit_range``. The fitted
    slope ``c`` estimates the logarithmic divergence rate; the residue
    convention reported alongside is ``2*pi*c``.
    """
    diag = np.asarray(diagonal, dtype=float)
    lo, hi = int(fit_range[0]), int(fit_range[1])
    lo = max(lo, 1)
    hi = min(hi, len(diag))
    if hi - lo + 1 < 8:
        raise FitRangeTooSmall(
            f"fit range [{lo}, {hi}] has fewer than 8 sample points")
    sums = np.cumsum(diag)
    samples = _log_spaced_integers(lo, hi, 512)
    observed = [float(sums[n - 1]) for n in samples]
    logs = np.array([math.log(n) for n in samples])
    design = np.column_stack([logs, np.ones(len(samples))])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.array(observed),
                                             rcond=None)
    predicted = [float(slope * x + intercept) for x in logs]
    params = {
        "experiment": "residue-log-fit",
        "fit_range": [lo, hi],
        "n_terms": int(len(diag)),
        "samples": samples,
    }
    fitted = {
        "c": float(slope),
        "intercept": float(intercept),
        "residue": float(2.0 * math.pi * slope),
    }
    return ExperimentReport.build(params, observed, predicted, fitted)
