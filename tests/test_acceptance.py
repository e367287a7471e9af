"""Acceptance gate: the contract-level checks, one per criterion.

Each test runs a criterion at its stated size and tolerance, measures wall
time against the stated budget, and reports a single PASS/FAIL line through
the terminal-summary hook in conftest.py.
"""

import math
import time
from random import Random

import numpy as np

import conftest
from mucut import (CanonicalOperator, GaussianRational, LaurentSymbol,
                   Parity, Polynomial, Unimodular2, apply_unimodular,
                   build_commuting_from_symbol, commutant_factorize,
                   commutator, compose, cut_cone, cut_plan, FULL_PLANE,
                   leading_symbol, lens_cone, make_generator, normal_form,
                   poisson_bracket, projected_compression, pullback_jet,
                   pushforward_symbol, recompose_factors, residue_contour,
                   residue_log_fit, run_selftest, sphere_cone,
                   szego_commutator_entries, szego_commutes, SymbolVariant,
                   variant_for_parity, verify_pk_identity, weyl_compare)
from mucut.oracle import (matrix_commutes, projector_commutator_entries,
                          random_admissible_symbol, random_cone, random_jet,
                          random_operator)

D = make_generator("D")
Raise = make_generator("Raise")
Lower = make_generator("Lower")


def run_criterion(number, label, budget, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    over = elapsed > budget
    ok = failure is None and not over
    line = (f"{'PASS' if ok else 'FAIL'}  criterion {number:>2}/12  "
            f"{elapsed:7.2f}s of {budget:g}s  {label}")
    if failure is not None:
        line += f"  [{type(failure).__name__}: {failure}]"
    elif over:
        line += "  [over time budget]"
    conftest.ACCEPTANCE_LINES.append(line[:240])
    if failure is not None:
        raise failure
    assert not over, f"time budget exceeded: {elapsed:.2f}s > {budget}s"


def test_criterion_01_raising_powers():
    def body():
        assert all(verify_pk_identity(k) for k in range(1, 11))

    run_criterion(1, "raising powers match the exact product form", 1.0, body)


def test_criterion_02_generator_commutation():
    def body():
        for name in ("D", "Raise", "Lower"):
            assert szego_commutes(make_generator(name), Parity.FULL)
        for name in ("D", "RaiseEven", "LowerEven"):
            assert szego_commutes(make_generator(name), Parity.EVEN)
        reversed_even = CanonicalOperator({-2: Polynomial([-2, 1])})
        assert not szego_commutes(reversed_even, Parity.EVEN)
        entries = {(r, c): v for r, c, v in szego_commutator_entries(
            reversed_even, Parity.EVEN, window=8)}
        assert entries[(-2, 0)] == GaussianRational(2)

    run_criterion(2, "generator set commutes; reversed even lowering "
                     "witnessed at mode 0", 1.0, body)


def test_criterion_03_commutation_criterion_brute_force():
    def body():
        rng = Random(20260822)
        agreements = 0
        for _ in range(200):
            a = random_operator(rng)
            for parity in (Parity.FULL, Parity.EVEN):
                assert szego_commutes(a, parity) == matrix_commutes(
                    a, 32, parity)
            agreements += 1
        assert agreements == 200

    run_criterion(3, "criterion vs window-32 matrix commutator, 200 "
                     "operators, both parities", 10.0, body)


def test_criterion_04_commutator_entry_exactness():
    def body():
        rng = Random(4402)
        window = 24
        checked = 0
        while checked < 100:
            a = random_operator(rng)
            if szego_commutes(a, Parity.FULL):
                continue
            got = {(r, c): v for r, c, v in szego_commutator_entries(
                a, Parity.FULL, window=window)}
            assert got == projector_commutator_entries(a, window, Parity.FULL)
            assert got
            checked += 1

    run_criterion(4, "sparse commutator entries exact on 100 non-commuting "
                     "operators", 10.0, body)


def test_criterion_05_factorization_round_trip():
    def body():
        rng = Random(515)
        for trial in range(100):
            parity = Parity.FULL if trial % 2 == 0 else Parity.EVEN
            variant = variant_for_parity(parity)
            member = CanonicalOperator()
            for _ in range(rng.randint(1, 3)):
                sigma = random_admissible_symbol(rng, variant)
                member = member + build_commuting_from_symbol(sigma, parity)
            if member.is_zero():
                member = build_commuting_from_symbol(
                    random_admissible_symbol(rng, variant), parity)
            factors = commutant_factorize(member, parity)
            assert recompose_factors(factors, parity) == member

    run_criterion(5, "factorize and recompose 100 symbol-built commutant "
                     "members exactly", 10.0, body)


def test_criterion_06_symbol_homomorphism():
    def body():
        rng = Random(660)
        minus_i = GaussianRational(0, -1)
        for trial in range(100):
            parity = Parity.FULL if trial % 2 == 0 else Parity.EVEN
            variant = variant_for_parity(parity)
            sa = random_admissible_symbol(rng, variant)
            sb = random_admissible_symbol(rng, variant)
            a = build_commuting_from_symbol(sa, parity)
            b = build_commuting_from_symbol(sb, parity)
            assert leading_symbol(compose(a, b)) == sa * sb
            pb = poisson_bracket(sa, sb)
            lie = commutator(a, b)
            if pb.is_zero():
                assert lie.is_zero() or lie.order < sa.degree + sb.degree - 1
            else:
                assert leading_symbol(lie) == minus_i * pb
        witness = leading_symbol(commutator(Raise, Lower))
        assert witness == LaurentSymbol.homogeneous(
            1, {0: GaussianRational(-2)})
        assert minus_i * poisson_bracket(
            leading_symbol(Raise), leading_symbol(Lower)) == witness

    run_criterion(6, "product and bracket symbols on 100 commuting pairs; "
                     "witness bracket -2s", 10.0, body)


def test_criterion_07_weyl_counting():
    def body():
        window = 4096
        for a in (D, 2 * D, compose(Raise, Lower), D * D + Raise + Lower):
            report = weyl_compare(a, window)
            assert report.max_residual <= 1.0

    run_criterion(7, "eigenvalue counts within 1 of sublevel measure at "
                     "window 4096, banded D*D + Raise + Lower included",
                  60.0, body)


def test_criterion_08_residue_calibration():
    def body():
        n_terms = 100000
        diagonal = [1.0 / n for n in range(1, n_terms + 1)]
        slopes = {}
        for fit_range in ((1000, 10000), (10000, 100000), (1000, 100000)):
            report = residue_log_fit(diagonal, fit_range=fit_range)
            slopes[fit_range] = report.fitted["c"]
            assert abs(report.fitted["c"] - 1.0) <= 0.02
            assert report.fitted["residue"] == 2.0 * math.pi * report.fitted["c"]
        spread = max(slopes.values()) - min(slopes.values())
        assert spread <= 0.02 * min(slopes.values())
        contour = residue_contour(LaurentSymbol.homogeneous(
            -1, {0: GaussianRational(1)}))
        assert contour == 2.0 * math.pi

    run_criterion(8, "log-divergence slope 1.00 +- 0.02, stable fits, "
                     "contour exactly 2*pi", 30.0, body)


def test_criterion_09_parametrix():
    def body():
        window = 1024
        shifted = CanonicalOperator({0: Polynomial([3, 1])})
        a = projected_compression(shifted, window)
        b = np.linalg.inv(a)
        assert np.max(np.abs(a @ b - np.eye(window + 1))) <= 1e-10
        diag = np.diagonal(b).real
        expected = np.array([1.0 / (n + 3) for n in range(window + 1)])
        assert np.max(np.abs(diag - expected)) <= 1e-12

    run_criterion(9, "truncated inverse of the shifted mode operator at "
                     "window 1024", 10.0, body)


def test_criterion_10_cut_space():
    def body():
        rng = Random(1010)
        even_seen = odd_seen = 0
        from mucut import extends_smoothly
        for _ in range(500):
            jet = random_jet(rng, max_total=8)
            is_even = all((k + l) % 2 == 0 for k, l in jet.coeffs)
            assert extends_smoothly(jet) == is_even
            even_seen += is_even
            odd_seen += not is_even
        assert even_seen and odd_seen

        one = GaussianRational(1)
        from mucut import Jet
        z2 = Jet(2, {(2, 0): one})
        abs2 = Jet(2, {(1, 1): one})
        zbar2 = Jet(2, {(0, 2): one})
        even, half = SymbolVariant.M_PLUS_EVEN, SymbolVariant.M_PLUS_PLUS
        hom = LaurentSymbol.homogeneous
        assert pullback_jet(z2, even) == hom(1, {-2: one})
        assert pullback_jet(z2, half) == hom(1, {-1: one})
        assert pullback_jet(abs2, even) == hom(1, {0: one})
        assert pullback_jet(zbar2, even) == hom(1, {2: one})

        for trial in range(200):
            variant = even if trial % 2 == 0 else half
            sigma = random_admissible_symbol(rng, variant)
            assert pullback_jet(
                pushforward_symbol(sigma, variant), variant) == sigma

    run_criterion(10, "parity gate on 500 jets; pullback table; 200 symbol "
                      "round trips", 5.0, body)


def test_criterion_11_lens_identity():
    def body():
        shear = Unimodular2(((1, 1), (1, 2)))
        pairs = [(p, q) for p in range(1, 13) for q in range(1, p + 1)
                 if math.gcd(p, q) == 1]
        assert len(pairs) == 46
        for p, q in pairs:
            lhs = apply_unimodular(shear, lens_cone(p, q))
            rhs = cut_cone(sphere_cone(), (p + 2 * q, -p - q))
            assert lhs == rhs
        nf = normal_form(sphere_cone())
        assert (nf.p, nf.q) == (2, 1)
        rng = Random(1111)
        for _ in range(500):
            cone = random_cone(rng)
            first, second = cut_plan(cone)
            assert cut_cone(cut_cone(FULL_PLANE, first), second) == cone

    run_criterion(11, "lens cut identity on 46 coprime pairs; sphere normal "
                      "form (2,1); 500 cut plans", 10.0, body)


def test_criterion_12_selftest_deterministic():
    def body():
        start = time.perf_counter()
        first = run_selftest()
        elapsed = time.perf_counter() - start
        assert first["passed"], [row["id"] for row in first["rows"]
                                 if not row["passed"]]
        assert elapsed < 180.0
        assert run_selftest() == first

    run_criterion(12, "full selftest green, deterministic, under the "
                      "3-minute ceiling", 185.0, body)
