"""Brute-force matrix checks and seeded input generators for verification.

The checks here deliberately avoid the index-range criteria under test: the
commutator with the projector is realized entry by entry on an explicit mode
window, each entry the exact value ``poly(col)`` of its shift's polynomial.
Agreement between that route and the closed-form criteria is what the
test-suite certifies.

All generators take a caller-owned :class:`random.Random`, so any run is
reproducible from one integer seed.
"""

from __future__ import annotations

from random import Random

from .cones import Cone2
from .cutspace import Jet
from .exact import GaussianRational, Polynomial, Unimodular2
from .operators import CanonicalOperator, Parity, matrix_terms
from .symbols import _PARITY, LaurentSymbol, SymbolVariant


def _leak_divisor(k: int, parity: Parity) -> Polynomial:
    """Monic polynomial whose roots are the modes the k-shift carries across
    the projector, found by testing every mode that could cross."""
    retains = Parity(parity).retains
    return Polynomial.from_roots(
        n for n in range(-abs(k), abs(k)) if retains(n) != retains(n + k))


def exact_entries(a: CanonicalOperator, window: int) -> dict:
    """All nonzero matrix entries of ``a`` on modes ``-window..window``.

    Keys are ``(row, col)`` mode pairs, values exact scalars.
    """
    out = {}
    for k, poly, cols in matrix_terms(a, range(-window, window + 1)):
        for col in cols:
            value = poly(col)
            if value:
                out[col + k, col] = value
    return out


def projector_commutator_entries(a: CanonicalOperator, window: int,
                                 parity: Parity = Parity.FULL) -> dict:
    """Nonzero entries of ``[projector, a]`` on the window, by brute force.

    With a diagonal projector the commutator entry is
    ``(chi(row) - chi(col)) * a[row, col]``, which involves no truncated
    sums: every reported value is the entry of the infinite matrix. Only the
    entries whose modes the projector separates are evaluated.
    """
    parity = Parity(parity)
    out = {}
    for k, poly, cols in matrix_terms(a, range(-window, window + 1)):
        for col in cols:
            jump = int(parity.retains(col + k)) - int(parity.retains(col))
            if jump:
                value = poly(col)
                if value:
                    out[col + k, col] = value if jump > 0 else -value
    return out


def matrix_commutes(a: CanonicalOperator, window: int,
                    parity: Parity = Parity.FULL) -> bool:
    """Whether ``[projector, a]`` vanishes on the interior of the window.

    Interior means both mode indices at distance at least the bandwidth
    from the window edge; nothing there is affected by truncation.
    """
    return not projector_commutator_entries(a, window - a.bandwidth, parity)


def _nonzero_gaussian(rng: Random) -> GaussianRational:
    while True:
        re = rng.randint(-9, 9)
        im = rng.randint(-9, 9)
        if re or im:
            return GaussianRational(re, im)


def random_polynomial(rng: Random, max_degree: int = 6) -> Polynomial:
    """Nonzero polynomial with Gaussian-integer coefficients in ``[-9, 9]``."""
    while True:
        degree = rng.randint(0, max_degree)
        coeffs = [GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
                  for _ in range(degree + 1)]
        p = Polynomial(coeffs)
        if not p.is_zero():
            return p


def random_operator(rng: Random) -> CanonicalOperator:
    """Random operator from the batch-criterion ensemble: one to four
    shifts in ``-4..4``."""
    pool = list(range(-4, 5))
    shifts = rng.sample(pool, rng.randint(1, 4))
    return CanonicalOperator({k: random_polynomial(rng) for k in shifts})


def random_commuting_operator(rng: Random, parity: Parity
                              ) -> CanonicalOperator:
    """Random member of the commutant with one to three shifts, planted via
    the divisor route.

    The divisor comes from :func:`_leak_divisor`, not from the criterion's
    table, so the members stay independent of what they are checked
    against."""
    parity = Parity(parity)
    pool = list(range(-4, 5, parity.step))
    shifts = rng.sample(pool, rng.randint(1, 3))
    terms = {}
    for k in shifts:
        divisor = _leak_divisor(k, parity)
        room = max(0, 6 - (divisor.degree or 0))
        terms[k] = random_polynomial(rng, room) * divisor
    return CanonicalOperator(terms)


def random_admissible_symbol(rng: Random, variant: SymbolVariant,
                             max_degree: int = 5) -> LaurentSymbol:
    """Random homogeneous symbol admissible for the given cut cone, with
    one to three modes."""
    step = _PARITY[SymbolVariant(variant)].step
    degree = rng.randint(1, max_degree)
    pool = list(range(-step * degree, step * degree + 1, step))
    ks = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    return LaurentSymbol.homogeneous(
        degree, {k: _nonzero_gaussian(rng) for k in ks})


def random_jet(rng: Random, max_total: int = 8, *,
               even_only: bool = False) -> Jet:
    """Random jet, each allowed monomial present with probability 0.4;
    with ``even_only`` every monomial has even total degree."""
    dmax = rng.randint(0, max_total)
    coeffs = {}
    for k in range(dmax + 1):
        for l in range(dmax + 1 - k):
            if even_only and (k + l) % 2:
                continue
            if rng.random() < 0.4:
                coeffs[k, l] = GaussianRational(rng.randint(-9, 9),
                                                rng.randint(-9, 9))
    return Jet(dmax, coeffs)


def random_odd_jet(rng: Random) -> Jet:
    """Random jet guaranteed to carry at least one odd-degree monomial."""
    dmax = rng.randint(1, 8)
    coeffs = dict(random_jet(rng, dmax).coeffs)
    odd_pool = [(k, l) for k in range(dmax + 1) for l in range(dmax + 1 - k)
                if (k + l) % 2]
    k, l = rng.choice(odd_pool)
    coeffs[k, l] = _nonzero_gaussian(rng)
    return Jet(dmax, coeffs)


def random_cone(rng: Random) -> Cone2:
    """Random strictly convex planar cone with small generators."""
    while True:
        u = (rng.randint(-9, 9), rng.randint(-9, 9))
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if u == (0, 0) or v == (0, 0):
            continue
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        return Cone2(u, v)


def random_unimodular(rng: Random) -> Unimodular2:
    """Random word of six shears and swaps; determinant is always +-1."""
    result = Unimodular2.identity()
    for _ in range(6):
        kind = rng.randrange(3)
        if kind == 0:
            factor = Unimodular2(((1, rng.randint(-3, 3)), (0, 1)))
        elif kind == 1:
            factor = Unimodular2(((1, 0), (rng.randint(-3, 3), 1)))
        else:
            factor = Unimodular2(((0, 1), (1, 0)))
        result = factor @ result
    return result
