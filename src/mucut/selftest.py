"""Deterministic invariant suite shared by the command line and the tests.

Each row exercises one verified property end to end. Rows are seeded
reproducibly from ``(seed, row id)`` and carry no timing or environment
data, so a report is a pure function of the seed and flags and identical
runs produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from . import symbols
from .cones import (FULL_PLANE, ConeNormalForm, apply_unimodular, cut_cone,
                    cut_plan, equivalence_witness, gl_equivalent, lens_cone,
                    normal_form, sphere_cone)
from .cutspace import Jet, extends_smoothly, pullback_jet, pushforward_symbol
from .errors import SCHEMA, DegenerateCut, EmptyCut, NotInCommutant, OddJet
from .exact import GaussianRational, Polynomial, Unimodular2
from .operators import (CanonicalOperator, Parity, commutant_factorize,
                        commutator, compose, make_generator, matrix_terms,
                        recompose_factors, retained_modes,
                        szego_commutator_entries, szego_commutes,
                        verify_pk_identity)
from .oracle import (matrix_commutes, projector_commutator_entries,
                     random_admissible_symbol, random_commuting_operator,
                     random_cone, random_jet, random_odd_jet, random_operator,
                     random_unimodular)
from .spectral import (count_below, projected_compression, projected_spectrum,
                       residue_contour, residue_log_fit, weyl_compare)
from .symbols import (LaurentSymbol, SymbolVariant, build_commuting_from_symbol,
                      exactness_witness, leading_symbol, symbol_tower,
                      variant_for_parity)

DEFAULT_SEED = 1729

_PARITIES = (Parity.FULL, Parity.EVEN)


@dataclass(frozen=True)
class SelftestRow:
    row_id: str
    description: str
    run: object


def _row_raise_power(rng: Random):
    bad = [k for k in range(1, 11) if not verify_pk_identity(k)]
    if bad:
        return False, f"raising-power identity fails at k = {bad}"
    return True, "raising powers match the exact product form for k = 1..10"


def _row_generator_commutation(rng: Random):
    window = 16
    cases = [
        ("D", Parity.FULL, True), ("Raise", Parity.FULL, True),
        ("Lower", Parity.FULL, True),
        ("D", Parity.EVEN, True), ("RaiseEven", Parity.EVEN, True),
        ("LowerEven", Parity.EVEN, True),
        ("Raise", Parity.EVEN, False), ("Lower", Parity.EVEN, False),
    ]
    for name, parity, expected in cases:
        op = make_generator(name)
        got = szego_commutes(op, parity)
        check = matrix_commutes(op, window, parity)
        if got != expected or check != expected:
            return False, (f"{name} vs {parity.value} projector: criterion "
                           f"{got}, matrix {check}, expected {expected}")
    return True, "generator commutation matches the matrix route in all cases"


def _row_reversed_even_lowering(rng: Random):
    # differentiate-after-multiply order: e(n) -> (n - 2) e(n - 2)
    reversed_form = CanonicalOperator({-2: Polynomial([-2, 1])})
    if szego_commutes(reversed_form, Parity.EVEN):
        return False, "reversed even lowering wrongly accepted"
    if matrix_commutes(reversed_form, 16, Parity.EVEN):
        return False, "matrix route wrongly accepts the reversed form"
    predicted = {(r, c): v for r, c, v
                 in szego_commutator_entries(reversed_form, Parity.EVEN)}
    realized = projector_commutator_entries(reversed_form, 16, Parity.EVEN)
    if predicted != realized:
        return False, f"entry mismatch: {predicted} vs {realized}"
    witness = predicted.get((-2, 0))
    if witness != GaussianRational(2):
        return False, f"expected mode-0 witness entry 2, got {witness!r}"
    return True, "reversed-order even lowering rejected with mode-0 witness"


def _mirrored_commutes(a: CanonicalOperator, parity: Parity) -> bool:
    """The deliberately wrong diagnostic rule: :func:`szego_commutes` with
    each negative shift judged by the positive shift of the same size."""
    return all(szego_commutes(CanonicalOperator({abs(k): q}), parity)
               for k, q in a.terms.items())


def _run_agreement(rng: Random, samples: int, criterion):
    window = 32
    mismatches = []
    for i in range(samples):
        parity = _PARITIES[i % 2]
        if i % 3 == 0:
            op = random_commuting_operator(rng, parity)
        else:
            op = random_operator(rng)
        if criterion(op, parity) != matrix_commutes(op, window, parity):
            mismatches.append(f"sample {i} ({parity.value})")
    return mismatches


def _row_commutation_criterion(rng: Random):
    mismatches = _run_agreement(rng, 60, szego_commutes)
    if mismatches:
        return False, ("criterion disagrees with the window-32 matrix "
                       "route: " + ", ".join(mismatches[:4]))
    return True, "60 seeded operators agree with the window-32 matrix route"


def _row_uniform_range(rng: Random):
    lower = make_generator("Lower")
    mismatches = []
    if (_mirrored_commutes(lower, Parity.FULL)
            != matrix_commutes(lower, 32, Parity.FULL)):
        mismatches.append("Lower generator")
    mismatches += _run_agreement(rng, 30, _mirrored_commutes)
    if mismatches:
        return False, ("mirrored negative-shift ranges diverge from the "
                       "matrix route: " + ", ".join(mismatches[:4]))
    return True, "mirrored negative-shift ranges agree (unexpected)"


def _noncommuting_sample(rng: Random, parity: Parity, window: int):
    while True:
        op = random_operator(rng)
        if not matrix_commutes(op, window, parity):
            return op


def _entries_match(op: CanonicalOperator, parity: Parity, window: int):
    predicted = {(r, c): v for r, c, v
                 in szego_commutator_entries(op, parity, window=window)}
    realized = projector_commutator_entries(op, window, parity)
    return predicted == realized


def _row_commutator_sparsity(rng: Random):
    window = 24
    for i in range(40):
        parity = _PARITIES[i % 2]
        op = _noncommuting_sample(rng, parity, window)
        if not _entries_match(op, parity, window):
            return False, f"entry sets differ on sample {i} ({parity.value})"
    return True, "40 noncommuting samples match the brute-force entry sets"


def _row_even_odd_shift(rng: Random):
    window = 24
    for i in range(20):
        op = random_operator(rng)
        if not any(k % 2 for k in op.terms):
            op = compose(op, make_generator("Raise"))
        if szego_commutes(op, Parity.EVEN):
            return False, f"odd-shift operator accepted on sample {i}"
        entries = szego_commutator_entries(op, Parity.EVEN, window=window)
        if not entries:
            return False, f"no witness entries reported on sample {i}"
        realized = projector_commutator_entries(op, window, Parity.EVEN)
        if {(r, c): v for r, c, v in entries} != realized:
            return False, f"witness entries differ on sample {i}"
    return True, "odd shifts against the even projector always rejected"


def _row_factorization(rng: Random):
    for i in range(30):
        parity = _PARITIES[i % 2]
        if i % 2:
            op = random_commuting_operator(rng, parity)
        else:
            sigma = random_admissible_symbol(rng, variant_for_parity(parity))
            op = build_commuting_from_symbol(sigma, parity)
        factors = commutant_factorize(op, parity)
        if recompose_factors(factors, parity) != op:
            return False, f"recomposition differs on sample {i}"
    try:
        commutant_factorize(make_generator("Raise"), Parity.EVEN)
        return False, "factorization accepted a noncommuting operator"
    except NotInCommutant:
        pass
    return True, "30 commutant members factor and recompose exactly"


def _row_exact_sequence(rng: Random):
    for i in range(30):
        parity = _PARITIES[i % 2]
        variant = variant_for_parity(parity)
        sigma = random_admissible_symbol(rng, variant)
        op = build_commuting_from_symbol(sigma, parity)
        if not szego_commutes(op, parity):
            return False, f"built operator fails commutation on sample {i}"
        order, top, remainder = exactness_witness(op, parity)
        if top != sigma or order != sigma.degree or not remainder.is_zero():
            return False, f"symbol round trip broken on sample {i}"
        low = random_admissible_symbol(
            rng, variant, max_degree=max(1, sigma.degree - 1))
        if low.degree == sigma.degree:
            continue
        stacked = op + build_commuting_from_symbol(low, parity)
        tower = symbol_tower(stacked, parity)
        rebuilt = CanonicalOperator.zero()
        for level_order, level_sigma in tower:
            rebuilt = rebuilt + build_commuting_from_symbol(level_sigma,
                                                            parity)
        if rebuilt != stacked:
            return False, f"tower does not rebuild the operator on sample {i}"
    return True, "leading-symbol sequence splits exactly on 30 samples"


def _row_symbol_homomorphism(rng: Random):
    minus_i = GaussianRational(0, -1)
    raise_op = make_generator("Raise")
    lower_op = make_generator("Lower")
    target = LaurentSymbol.homogeneous(1, {0: GaussianRational(-2)})
    if leading_symbol(commutator(raise_op, lower_op)) != target:
        return False, "raise/lower bracket symbol is not -2s"
    bracket = symbols.poisson_bracket(leading_symbol(raise_op),
                                      leading_symbol(lower_op))
    if minus_i * bracket != target:
        return False, f"poisson route gives {(minus_i * bracket)!r}"
    for i in range(30):
        parity = _PARITIES[i % 2]
        variant = variant_for_parity(parity)
        sig_a = random_admissible_symbol(rng, variant)
        sig_b = random_admissible_symbol(rng, variant)
        op_a = build_commuting_from_symbol(sig_a, parity)
        op_b = build_commuting_from_symbol(sig_b, parity)
        if leading_symbol(compose(op_a, op_b)) != sig_a * sig_b:
            return False, f"product symbol differs on sample {i}"
        lie = commutator(op_a, op_b)
        pb = symbols.poisson_bracket(sig_a, sig_b)
        if pb.is_zero():
            drop = sig_a.degree + sig_b.degree - 1
            if not lie.is_zero() and lie.order >= drop:
                return False, f"bracket fails to drop order on sample {i}"
        elif leading_symbol(lie) != minus_i * pb:
            return False, f"bracket symbol differs on sample {i}"
    return True, "operator products and brackets project onto symbol calculus"


def _row_spectrum_invariants(rng: Random):
    window = 40
    for i in range(6):
        parity = _PARITIES[i % 2]
        x = random_commuting_operator(rng, parity)
        a = x + x.adjoint()
        trace = frobenius_sq = 0
        for k, poly, cols in matrix_terms(a, retained_modes(window, parity)):
            for col in cols:
                value = poly(col)
                frobenius_sq += value.re ** 2 + value.im ** 2
                if k == 0:
                    trace += value.re
        values = projected_spectrum(a, window, parity).values
        if np.any(np.diff(values) < 0):
            return False, f"sample {i}: eigenvalues are not ascending"
        norm = math.sqrt(frobenius_sq)
        trace_err = abs(math.fsum(values) - trace)
        if trace_err > 1e-9 * norm:
            return False, f"sample {i}: eigenvalue sum off by {trace_err:.3e}"
        square_err = abs(math.fsum(values * values) - frobenius_sq)
        if square_err > 1e-9 * norm * norm:
            return False, (f"sample {i}: eigenvalue square sum off by "
                           f"{square_err:.3e}")
        # inertia counts on the band agree with LAPACK up to eigenvalues
        # within 1e-9 of the spectral radius from a threshold
        grid = np.linspace(values[0], values[-1], 64)
        counts = count_below(a, window, parity, grid)
        eps = 1e-9 * max(1.0, float(np.max(np.abs(values))))
        lo = np.searchsorted(values, grid - eps, side="left")
        hi = np.searchsorted(values, grid + eps, side="left")
        if np.any((counts < lo) | (counts > hi)):
            return False, f"sample {i}: inertia counts differ from LAPACK"
    return True, ("6 spectra at window 40 keep trace and norm; inertia "
                  "counts match them")


def _row_parametrix(rng: Random):
    size = 256
    shifted = CanonicalOperator({0: Polynomial([3, 1])})
    compression = projected_compression(shifted, size - 1, Parity.FULL)
    inverse = np.linalg.inv(compression)
    identity = np.eye(size)
    err = float(np.max(np.abs(compression @ inverse - identity)))
    if err > 1e-10:
        return False, f"inverse residual {err:.3e} exceeds 1e-10"
    expected = 1.0 / (np.arange(size) + 3.0)
    diag_err = float(np.max(np.abs(np.diag(inverse).real - expected)))
    if diag_err > 1e-12:
        return False, f"diagonal deviates from 1/(n+3) by {diag_err:.3e}"
    return True, "truncated inverse matches the symbolic parametrix"


def _row_weyl(rng: Random):
    window = 512
    ops = {
        "mode-number": make_generator("D"),
        "doubled": make_generator("D") * 2,
        "raise-lower": compose(make_generator("Raise"),
                               make_generator("Lower")),
    }
    worst = 0.0
    for name, op in ops.items():
        report = weyl_compare(op, window)
        worst = max(worst, report.max_residual)
        if report.max_residual > 1.0:
            return False, (f"{name}: counting residual "
                           f"{report.max_residual:.3f} exceeds 1")
    return True, f"eigenvalue counts track sublevel measure (worst {worst:.3f})"


def _row_residue(rng: Random):
    n_terms = 20000
    diagonal = 1.0 / np.arange(1, n_terms + 1)
    fits = [residue_log_fit(diagonal, fit_range=(1000, n_terms)),
            residue_log_fit(diagonal, fit_range=(2000, n_terms)),
            residue_log_fit(diagonal, fit_range=(1000, n_terms // 2))]
    slopes = [fit.fitted["c"] for fit in fits]
    if any(abs(c - 1.0) > 0.02 for c in slopes):
        return False, f"fitted divergence rates {slopes} stray from 1"
    spread = max(slopes) - min(slopes)
    if spread > 0.02 * max(slopes):
        return False, f"fit-range instability {spread:.4f}"
    contour = residue_contour(
        LaurentSymbol.homogeneous(-1, {0: GaussianRational(1)}))
    if contour != 2.0 * math.pi:
        return False, f"contour value {contour!r} is not 2*pi"
    return True, "log-divergence rate 1 recovered; contour residue 2*pi exact"


_PULLBACK_TABLE = [
    ({(2, 0): 1}, SymbolVariant.M_PLUS_EVEN, {-2: 1}),
    ({(2, 0): 1}, SymbolVariant.M_PLUS_PLUS, {-1: 1}),
    ({(1, 1): 1}, SymbolVariant.M_PLUS_EVEN, {0: 1}),
    ({(1, 1): 1}, SymbolVariant.M_PLUS_PLUS, {0: 1}),
    ({(0, 2): 1}, SymbolVariant.M_PLUS_EVEN, {2: 1}),
]


def _row_pullback(rng: Random):
    for coeffs, variant, expected in _PULLBACK_TABLE:
        jet = Jet(2, coeffs)
        sigma = pullback_jet(jet, variant)
        if sigma != LaurentSymbol.homogeneous(1, expected):
            return False, (f"table entry {coeffs} on {variant.value}: "
                           f"got {sigma!r}")
    for i in range(15):
        even = random_jet(rng, even_only=True)
        if not extends_smoothly(even):
            return False, f"even jet rejected on sample {i}"
        odd = random_odd_jet(rng)
        if extends_smoothly(odd):
            return False, f"odd jet accepted on sample {i}"
        try:
            pullback_jet(odd, SymbolVariant.M_PLUS_EVEN)
            return False, f"odd jet pulled back on sample {i}"
        except OddJet:
            pass
    for i in range(15):
        for variant in SymbolVariant:
            sigma = random_admissible_symbol(rng, variant)
            back = pullback_jet(pushforward_symbol(sigma, variant), variant)
            if back != sigma:
                return False, f"symbol round trip differs on sample {i}"
            even = random_jet(rng, even_only=True)
            again = pushforward_symbol(pullback_jet(even, variant), variant)
            if again != even:
                return False, f"jet round trip differs on sample {i}"
    return True, "pullback table, parity gate, and round trips all exact"


def _row_lens_identity(rng: Random):
    shear = Unimodular2(((1, 1), (1, 2)))
    checked = 0
    for p in range(1, 13):
        for q in range(1, p + 1):
            if math.gcd(p, q) != 1:
                continue
            lhs = apply_unimodular(shear, lens_cone(p, q))
            rhs = cut_cone(sphere_cone(), (p + 2 * q, -p - q))
            if lhs != rhs:
                return False, f"lens identity fails at (p, q) = ({p}, {q})"
            checked += 1
    return True, f"corrected lens cut identity holds for {checked} pairs"


def _row_cone_invariants(rng: Random):
    if normal_form(sphere_cone()) != ConeNormalForm(2, 1):
        return False, f"sphere cone reduces to {normal_form(sphere_cone())}"
    if not normal_form(lens_cone(2, 1)).is_smooth:
        return False, "index-1 lens cone failed to reduce to the quadrant"
    if not gl_equivalent(lens_cone(1, 2), sphere_cone()):
        return False, "index-2 lens cone not matched with the sphere cone"
    witness = equivalence_witness(lens_cone(1, 2), sphere_cone())
    if apply_unimodular(witness, lens_cone(1, 2)) != sphere_cone():
        return False, "equivalence witness does not map the cones"
    for i in range(40):
        cone = random_cone(rng)
        moved = apply_unimodular(random_unimodular(rng), cone)
        if normal_form(moved) != normal_form(cone):
            return False, f"normal form not invariant on sample {i}"
        n_u, n_v = cut_plan(cone)
        rebuilt = cut_cone(cut_cone(FULL_PLANE, n_u), n_v)
        if rebuilt != cone:
            return False, f"cut plan round trip differs on sample {i}"
    quadrant = lens_cone(1, 1)
    try:
        cut_cone(quadrant, (-1, -1))
        return False, "opposite cut did not empty the quadrant"
    except EmptyCut:
        pass
    try:
        cut_cone(quadrant, (0, -1))
        return False, "boundary cut did not degenerate"
    except DegenerateCut:
        pass
    return True, "normal form invariant; cut plans reproduce 40 seeded cones"


def selftest_rows(include_uniform_range_diagnostic: bool = False):
    rows = [
        SelftestRow("raise-power-identity",
                    "raising power equals its exact factorial product",
                    _row_raise_power),
        SelftestRow("generator-commutation",
                    "distinguished generators commute with their projector",
                    _row_generator_commutation),
        SelftestRow("reversed-even-lowering",
                    "reversed-order even lowering fails with a mode-0 witness",
                    _row_reversed_even_lowering),
        SelftestRow("commutation-criterion",
                    "index-range criterion matches matrix commutators",
                    _row_commutation_criterion),
        SelftestRow("commutator-sparsity",
                    "predicted sparse commutator entries match realization",
                    _row_commutator_sparsity),
        SelftestRow("even-odd-shift-exclusion",
                    "odd shifts never commute with the even projector",
                    _row_even_odd_shift),
        SelftestRow("commutant-factorization",
                    "commutant members factor through canonical divisors",
                    _row_factorization),
        SelftestRow("symbol-exact-sequence",
                    "leading symbols split the order filtration",
                    _row_exact_sequence),
        SelftestRow("symbol-homomorphism",
                    "products and brackets descend to symbol calculus",
                    _row_symbol_homomorphism),
        SelftestRow("hermitian-eigensolver",
                    "LAPACK spectra match exact trace invariants and "
                    "inertia counts",
                    _row_spectrum_invariants),
        SelftestRow("parametrix-inverse",
                    "truncated inverse matches the symbolic parametrix",
                    _row_parametrix),
        SelftestRow("weyl-counting",
                    "eigenvalue counting tracks sublevel measure within 1",
                    _row_weyl),
        SelftestRow("residue-trace-calibration",
                    "log-divergence fit and contour residue calibrate",
                    _row_residue),
        SelftestRow("cut-pullback-table",
                    "cut-space pullbacks and round trips are exact",
                    _row_pullback),
        SelftestRow("lens-cut-identity",
                    "corrected lens cut identity for coprime pairs up to 12",
                    _row_lens_identity),
        SelftestRow("cone-normal-form-invariance",
                    "cone normal form is a complete invariant; plans rebuild",
                    _row_cone_invariants),
    ]
    if include_uniform_range_diagnostic:
        rows.insert(4, SelftestRow(
            "commutation-criterion-uniform-range",
            "diagnostic: mirrored negative-shift ranges (expected to fail)",
            _row_uniform_range))
    return rows


def run_selftest(seed: int = DEFAULT_SEED,
                 include_uniform_range_diagnostic: bool = False) -> dict:
    """Run every row with per-row seeding; report is bytewise deterministic."""
    results = []
    all_passed = True
    for row in selftest_rows(include_uniform_range_diagnostic):
        rng = Random(f"{seed}:{row.row_id}")
        passed, detail = row.run(rng)
        all_passed = all_passed and passed
        results.append({
            "id": row.row_id,
            "description": row.description,
            "passed": passed,
            "detail": detail,
        })
    return {
        "schema": SCHEMA,
        "seed": seed,
        "passed": all_passed,
        "rows": results,
    }
