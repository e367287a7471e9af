"""Spectral experiments: projected spectra, Weyl counting, residue fits.

Everything in this module deliberately leaves exact arithmetic for floats;
exactness claims live in the normal-form layer. Spectra come from LAPACK
(``numpy.linalg.eigvalsh``) on the dense projected compression;
bandwidth-0 compressions are diagonal, so their spectrum is the sorted
diagonal. Windows are capped before any mode is evaluated, and a value
beyond the float range raises :class:`FloatOverflow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitRangeTooSmall, FloatOverflow, NotElliptic, WrongDegree
from .exact import GaussianRational, Polynomial
from .operators import (CanonicalOperator, Parity, matrix_terms,
                        require_self_adjoint, retained_modes, szego_commutes)
from .symbols import LaurentSymbol, leading_symbol

SCHEMA = "mucut/1"


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


def projected_compression(a: CanonicalOperator, window: int,
                          parity: Parity = Parity.FULL) -> np.ndarray:
    """Dense matrix of the operator compressed to the projector's modes.

    Retained modes are ``0..window`` (full) or ``0, 2, ..., 2*window``
    (even); entry ``[i, j]`` maps the j-th retained mode to the i-th.
    """
    modes = retained_modes(window, parity)
    matrix = np.zeros((len(modes), len(modes)), dtype=complex)
    for row, col, poly in matrix_terms(a, modes):
        matrix[modes.index(row), modes.index(col)] = complex(poly(col))
    return matrix


def projected_spectrum(a: CanonicalOperator, window: int,
                       parity: Parity = Parity.FULL) -> Spectrum:
    """Spectrum of the compression of ``a`` to the projector's modes.

    The operator must be exactly self-adjoint in normal form. Bandwidth-0
    compressions are diagonal and never build the dense matrix.
    """
    require_self_adjoint(a)
    if a.bandwidth == 0:
        poly0 = a.terms.get(0, Polynomial.zero())
        values = np.sort([complex(poly0(n)).real
                          for n in retained_modes(window, parity)])
    else:
        values = np.linalg.eigvalsh(projected_compression(a, window, parity))
    if not np.all(np.isfinite(values)):
        raise FloatOverflow("a spectrum value exceeds the float range")
    return Spectrum(values)


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

    Observed: how many compressed eigenvalues lie below each grid value.
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
    spectrum = projected_spectrum(a, window, parity)
    if grid_max is None:
        try:
            grid_max = c * (window / 2.0) ** m
        except OverflowError:
            grid_max = math.inf
    if not math.isfinite(grid_max):
        raise FloatOverflow("the grid top exceeds the float range")
    grid = [float(lam) for lam in
            np.linspace(grid_max / grid_points, grid_max, grid_points)]
    observed = [spectrum.count_below(lam) for lam in grid]
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
