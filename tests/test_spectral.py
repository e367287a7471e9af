"""Float layer: projected spectra, Weyl counts, residue fits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mucut import (CanonicalOperator, ExperimentReport, FitRangeTooSmall,
                   FloatOverflow, GaussianRational, LaurentSymbol, NotElliptic,
                   NotSelfAdjoint, Polynomial, Spectrum, WindowTooLarge,
                   make_generator, projected_compression, projected_spectrum,
                   residue_contour, residue_log_fit, weyl_compare, Parity)

D = make_generator("D")
Raise = make_generator("Raise")
Lower = make_generator("Lower")


class TestProjectedSpectrum:
    def test_diagonal_full(self):
        spec = projected_spectrum(D, 10)
        assert spec.values.tolist() == list(range(11))

    def test_diagonal_even(self):
        spec = projected_spectrum(D, 10, Parity.EVEN)
        assert spec.values.tolist() == list(range(0, 21, 2))

    def test_self_adjoint_gate(self):
        with pytest.raises(NotSelfAdjoint):
            projected_spectrum(Raise, 8)

    def test_banded_matches_dense_oracle(self):
        a = Raise + Lower
        spec = projected_spectrum(a, 64)
        reference = np.linalg.eigvalsh(projected_compression(a, 64))
        assert np.max(np.abs(spec.values - reference)) <= 1e-8

    def test_compression_entries(self):
        m = projected_compression(CanonicalOperator({1: Polynomial([1])}), 4)
        assert m[1, 0] == 1 and m[0, 1] == 0

    def test_reliability_flags_lower_half(self):
        spec = projected_spectrum(D, 9)
        assert spec.reliable.sum() == 5
        assert spec.reliable[:5].all() and not spec.reliable[5:].any()

    def test_csv_shape(self):
        text = projected_spectrum(D, 3).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5
        assert lines[1].startswith("0,")

    def test_count_below(self):
        spec = projected_spectrum(D, 10)
        assert spec.count_below(3.5) == 4
        assert spec.count_below(0.0) == 0

    def test_window_bounded_before_allocation(self):
        for parity in (Parity.FULL, Parity.EVEN):
            with pytest.raises(WindowTooLarge):
                projected_compression(Raise + Lower, 10**6, parity)
            for a in (Raise + Lower, D):
                with pytest.raises(WindowTooLarge):
                    projected_spectrum(a, 10**6, parity)
            with pytest.raises(WindowTooLarge):
                weyl_compare(D, 10**6, parity=parity)

    def test_spectrum_beyond_float_range(self):
        big = Polynomial([10**308])
        with pytest.raises(FloatOverflow):
            projected_spectrum(CanonicalOperator({-1: big, 0: big, 1: big}), 4)


class TestWeylCounting:
    def test_identity_operator_is_sharp(self):
        report = weyl_compare(D, 512)
        assert report.max_residual <= 1.0
        assert report.params["window"] == 512

    def test_scaled(self):
        report = weyl_compare(2 * D, 512)
        assert report.max_residual <= 1.0

    def test_quadratic(self):
        from mucut import compose
        report = weyl_compare(compose(Raise, Lower), 512)
        assert report.max_residual <= 1.0

    def test_banded_quadratic(self):
        report = weyl_compare(D * D + Raise + Lower, 256)
        assert report.max_residual <= 1.0

    def test_rejects_angular_top_symbol(self):
        with pytest.raises(NotElliptic):
            weyl_compare(Raise, 32)

    def test_grid_max(self):
        report = weyl_compare(D, 64, grid_max=100.0, grid_points=4)
        assert report.params["grid"] == [25.0, 50.0, 75.0, 100.0]

    def test_threshold_beyond_float_range(self):
        tiny = CanonicalOperator({0: Polynomial([0, Fraction(1, 10**400)])})
        with pytest.raises(FloatOverflow):
            weyl_compare(tiny, 8, grid_max=1.0)
        steep = CanonicalOperator(
            {0: Polynomial.monomial(120, Fraction(1, 10**300))})
        with pytest.raises(FloatOverflow):
            weyl_compare(steep, 1024)

    def test_rejects_noncommuting(self):
        with pytest.raises(NotElliptic):
            weyl_compare(CanonicalOperator({1: Polynomial([1])}), 32)


def inverse_mode_symbol(coeffs):
    return LaurentSymbol.homogeneous(-1, {
        k: GaussianRational(c) if not isinstance(c, GaussianRational) else c
        for k, c in coeffs.items()})


class TestResidue:
    def test_contour_calibration(self):
        assert residue_contour(inverse_mode_symbol({0: 1})) == 2.0 * math.pi

    def test_mean_zero_modes_drop(self):
        assert residue_contour(inverse_mode_symbol({1: 1})) == 0.0
        mixed = inverse_mode_symbol({0: 3, -2: 1})
        assert residue_contour(mixed) == 6.0 * math.pi

    def test_degree_gate(self):
        with pytest.raises(Exception) as err:
            residue_contour(LaurentSymbol.homogeneous(
                0, {0: GaussianRational(1)}))
        assert "degree" in str(err.value)

    def test_harmonic_fit(self):
        diag = [1.0 / n for n in range(1, 20001)]
        report = residue_log_fit(diag, fit_range=(1000, 20000))
        assert abs(report.fitted["c"] - 1.0) <= 0.02
        assert abs(report.fitted["residue"] - 2.0 * math.pi) <= 0.15

    def test_zero_diagonal(self):
        report = residue_log_fit([0.0] * 5000, fit_range=(10, 5000))
        assert report.fitted["c"] == 0.0

    def test_convergent_part_absorbed(self):
        diag = [1.0 / n + 1.0 / n ** 2 for n in range(1, 20001)]
        report = residue_log_fit(diag, fit_range=(1000, 20000))
        assert abs(report.fitted["c"] - 1.0) <= 0.02

    def test_fit_range_gate(self):
        with pytest.raises(FitRangeTooSmall):
            residue_log_fit([1.0] * 100, fit_range=(50, 55))


class TestExperimentReport:
    def test_residual_recomputed(self):
        report = ExperimentReport.build({}, [1.0, 2.0], [1.0, 2.5])
        assert report.max_residual == 0.5

    def test_round_trip(self):
        report = ExperimentReport.build({"window": 4}, [1.0], [2.0],
                                        {"c": 3.0})
        assert ExperimentReport.from_json(report.to_json()) == report

    def test_nonfinite_values_rejected(self):
        for observed, fitted in (([math.inf], {}), ([math.nan], {}),
                                 ([1.0], {"c": math.nan})):
            with pytest.raises(FloatOverflow):
                ExperimentReport.build({}, observed, [1.0], fitted)

    def test_tampered_residual_rejected(self):
        blob = ExperimentReport.build({}, [1.0], [2.0]).to_json()
        blob["max_residual"] = 0.0
        with pytest.raises(ValueError):
            ExperimentReport.from_json(blob)

    def test_csv_carries_fit(self):
        report = ExperimentReport.build({"grid": [0.5]}, [1.0], [1.0],
                                        {"c": 2.0})
        text = report.to_csv()
        assert "sample,observed,predicted" in text
        assert "fitted:c,2.0," in text


def test_parametrix_smoke():
    shifted = CanonicalOperator({0: Polynomial([3, 1])})
    a = projected_compression(shifted, 128)
    b = np.linalg.inv(a)
    assert np.max(np.abs(a @ b - np.eye(129))) <= 1e-10
    expected = np.array([1.0 / (n + 3) for n in range(129)])
    assert np.max(np.abs(np.diagonal(b).real - expected)) <= 1e-12
