"""Float layer: projected spectra, Weyl counts, residue fits."""

import math
import sys
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mucut import (CanonicalOperator, ExperimentReport, FitRangeTooSmall,
                   FloatOverflow, GaussianRational, LaurentSymbol, NotElliptic,
                   NotSelfAdjoint, Polynomial, Spectrum, WindowTooLarge,
                   make_generator, projected_compression, projected_spectrum,
                   residue_contour, residue_log_fit, shift_divisor,
                   weyl_compare, Parity)
from mucut.operators import matrix_terms, retained_modes
from mucut.oracle import random_commuting_operator
from mucut.spectral import count_below

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

    @pytest.mark.parametrize("window", [16, 128])
    def test_spectrum_beyond_float_range_at_any_window(self, window):
        # the largest entry, c * window**3, just below the float range and
        # the top eigenvalue past it: counts and spectrum both fail; at half
        # that scale both succeed
        base = D * D * D + Raise * Raise + Lower * Lower
        c = (Fraction(int(sys.float_info.max)) * (1 - Fraction(1, 2 ** 12))
             / window ** 3)
        a = base * GaussianRational(c)
        with pytest.raises(FloatOverflow):
            projected_spectrum(a, window)
        with pytest.raises(FloatOverflow):
            weyl_compare(a, window)
        half = base * GaussianRational(c / 2)
        assert np.all(np.isfinite(projected_spectrum(half, window).values))
        assert weyl_compare(half, window).observed[-1] > 0


def entrywise_compression(a, window, parity):
    """The compression filled one exact entry at a time: the reference the
    band evaluation must reproduce bit for bit."""
    modes = retained_modes(window, parity)
    step = modes.step
    matrix = np.zeros((len(modes), len(modes)), dtype=complex)
    for k, q, cols in matrix_terms(a, modes):
        for col in cols:
            matrix[(col + k) // step, col // step] = complex(q(col))
    return matrix


def tolerated_counts(values, thresholds):
    """The counts an eigenvalue within 1e-9 of the spectral radius of a
    threshold may fall either side of: ``(lo, hi)`` per threshold."""
    eps = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    t = np.asarray(thresholds)
    return (np.searchsorted(values, t - eps, side="left"),
            np.searchsorted(values, t + eps, side="left"))


@st.composite
def self_adjoint_members(draw):
    """``X + X*`` for a commutant member X of index bandwidth 0-2 (the sum
    may cancel down to less), with small Gaussian-integer cofactors over
    the canonical divisors."""
    parity = draw(st.sampled_from(list(Parity)))
    width = draw(st.integers(0, 2))
    terms = {}
    for d in range(-width, width + 1):
        k = d * parity.step
        cofactor = Polynomial(draw(st.lists(
            st.builds(GaussianRational, st.integers(-3, 3),
                      st.integers(-3, 3)), min_size=1, max_size=3)))
        if abs(d) == width and cofactor.is_zero():
            cofactor = Polynomial([1])
        terms[k] = cofactor * shift_divisor(k, parity)
    x = CanonicalOperator(terms)
    return x + x.adjoint(), parity


def exact_negative_pivots(a, window, parity, threshold: Fraction) -> int:
    """Negative pivots of LDL* of ``A - threshold*I`` over the Gaussian
    rationals, where ``A`` is the exact compression."""
    modes = retained_modes(window, parity)
    n, step = len(modes), modes.step
    m = [[GaussianRational(0)] * n for _ in range(n)]
    for k, q, cols in matrix_terms(a, modes):
        for col in cols:
            m[(col + k) // step][col // step] = q(col)
    for i in range(n):
        m[i][i] = m[i][i] - GaussianRational(threshold)
    width = max((abs(k) // step for k in a.terms), default=0)
    negative = 0
    for j in range(n):
        pivot = m[j][j]
        assert pivot.is_real() and pivot, "threshold meets a zero pivot"
        negative += pivot.re < 0
        block = range(j + 1, min(n, j + width + 1))
        for r in block:
            factor = m[r][j] / pivot
            for c in block:
                m[r][c] = m[r][c] - factor * m[j][c]
    return negative


class TestInertiaCounts:
    def test_compression_is_entrywise_exact(self):
        rng = Random(7)
        for parity in Parity:
            for _ in range(6):
                x = random_commuting_operator(rng, parity)
                for a in (x, x + x.adjoint(), x * GaussianRational(1, 3)):
                    assert np.array_equal(
                        projected_compression(a, 40, parity),
                        entrywise_compression(a, 40, parity))

    @given(self_adjoint_members(), st.integers(0, 40),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           st.lists(st.integers(0, 40), max_size=3))
    def test_matches_lapack_counts(self, member, window, fractions, picks):
        # thresholds anywhere across the spectrum, plus diagonal entries
        # themselves, where the first pivots of A - t*I vanish exactly
        a, parity = member
        matrix = projected_compression(a, window, parity)
        values = np.linalg.eigvalsh(matrix)
        lo_t, hi_t = values[0] - 1.0, values[-1] + 1.0
        diag = np.diagonal(matrix).real
        thresholds = ([lo_t + u * (hi_t - lo_t) for u in fractions]
                      + [float(diag[i % len(diag)]) for i in picks])
        counts = count_below(a, window, parity, thresholds)
        lo, hi = tolerated_counts(values, thresholds)
        assert np.all((lo <= counts) & (counts <= hi)), (counts, lo, hi)

    def test_exact_oracle(self):
        # rational thresholds between consecutive eigenvalues and outside
        # the spectrum are not eigenvalues; the float count must be exact
        rng = Random(11)
        for window in (8, 20, 32):
            for parity in Parity:
                x = random_commuting_operator(rng, parity)
                a = x + x.adjoint()
                values = np.linalg.eigvalsh(
                    projected_compression(a, window, parity))
                scale = max(1.0, float(np.max(np.abs(values))))
                gaps = np.flatnonzero(np.diff(values) > 1e-6 * scale)
                thresholds = ([values[0] - 1.0, values[-1] + 1.0]
                              + [(values[i] + values[i + 1]) / 2
                                 for i in gaps])
                counts = count_below(a, window, parity, thresholds)
                exact = [exact_negative_pivots(a, window, parity, Fraction(t))
                         for t in thresholds]
                assert counts.tolist() == exact

    def test_uncertified_count_comes_from_the_spectrum(self, monkeypatch):
        # at t = 0 the first pivot of D*D*D + Raise*Raise + Lower*Lower is
        # exactly 0 and couples to row 2, so banded LDL* cannot bound that
        # count and reads it from the spectrum; at t = 100 it can
        a = D * D * D + Raise * Raise + Lower * Lower
        values = np.linalg.eigvalsh(projected_compression(a, 16, Parity.FULL))
        eigvalsh = np.linalg.eigvalsh
        solves = []

        def counted(matrix):
            solves.append(len(matrix))
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert count_below(a, 16, Parity.FULL, [100.0]).tolist() == [
            np.searchsorted(values, 100.0)]
        assert solves == []
        assert count_below(a, 16, Parity.FULL, [0.0, 100.0]).tolist() == [
            np.searchsorted(values, 0.0), np.searchsorted(values, 100.0)]
        assert solves == [17]

    def test_weyl_compare_never_builds_the_dense_matrix(self):
        # the dense 4097 x 4097 complex compression alone is 268 MB
        a = D * D + Raise + Lower
        tracemalloc.start()
        try:
            report = weyl_compare(a, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_residual <= 1.0
        assert peak < 32 * 2 ** 20


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
