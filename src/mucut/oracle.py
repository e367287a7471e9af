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
from .operators import CanonicalOperator, Parity
from .symbols import LaurentSymbol, SymbolVariant


def projected_mode(n: int, parity: Parity) -> bool:
    """Whether mode ``n`` survives the projector of the given parity."""
    if n < 0:
        return False
    return Parity(parity) is Parity.FULL or n % 2 == 0


def _leak_divisor(k: int, parity: Parity) -> Polynomial:
    """Monic polynomial whose roots are the modes the k-shift carries across
    the projector, found by testing every mode that could cross."""
    return Polynomial.from_roots(
        n for n in range(-abs(k), abs(k))
        if projected_mode(n, parity) != projected_mode(n + k, parity))


def exact_entries(a: CanonicalOperator, window: int) -> dict:
    """All nonzero matrix entries of ``a`` on modes ``-window..window``.

    Keys are ``(row, col)`` mode pairs, values exact scalars.
    """
    out = {}
    for k, poly in a.terms.items():
        for col in range(-window, window + 1):
            row = col + k
            if not -window <= row <= window:
                continue
            value = poly(col)
            if value:
                out[row, col] = value
    return out


def projector_commutator_entries(a: CanonicalOperator, window: int,
                                 parity: Parity = Parity.FULL) -> dict:
    """Nonzero entries of ``[projector, a]`` on the window, by brute force.

    With a diagonal projector the commutator entry is
    ``(chi(row) - chi(col)) * a[row, col]``, which involves no truncated
    sums: every reported value is the entry of the infinite matrix.
    """
    parity = Parity(parity)
    out = {}
    for (row, col), value in exact_entries(a, window).items():
        step = (int(projected_mode(row, parity))
                - int(projected_mode(col, parity)))
        if step:
            out[row, col] = value if step > 0 else -value
    return out


def matrix_commutes(a: CanonicalOperator, window: int,
                    parity: Parity = Parity.FULL) -> bool:
    """Whether ``[projector, a]`` vanishes on the interior of the window.

    Interior means both mode indices at distance at least the bandwidth
    from the window edge; nothing there is affected by truncation.
    """
    parity = Parity(parity)
    interior = window - a.bandwidth
    for k, poly in a.terms.items():
        for col in range(-interior, interior + 1):
            row = col + k
            if not -interior <= row <= interior:
                continue
            if projected_mode(row, parity) == projected_mode(col, parity):
                continue
            if poly(col):
                return False
    return True


def _nonzero_gaussian(rng: Random, bound: int, real: bool) -> GaussianRational:
    while True:
        re = rng.randint(-bound, bound)
        im = 0 if real else rng.randint(-bound, bound)
        if re or im:
            return GaussianRational(re, im)


def random_polynomial(rng: Random, max_degree: int = 6, bound: int = 9, *,
                      real: bool = False) -> Polynomial:
    """Nonzero polynomial with integer coefficients in ``[-bound, bound]``."""
    while True:
        degree = rng.randint(0, max_degree)
        coeffs = [GaussianRational(rng.randint(-bound, bound),
                                   0 if real else rng.randint(-bound, bound))
                  for _ in range(degree + 1)]
        p = Polynomial(coeffs)
        if not p.is_zero():
            return p


def random_operator(rng: Random, max_shift: int = 4, max_degree: int = 6,
                    bound: int = 9, max_terms: int = 4) -> CanonicalOperator:
    """Random operator from the batch-criterion ensemble."""
    pool = list(range(-max_shift, max_shift + 1))
    shifts = rng.sample(pool, rng.randint(1, max_terms))
    return CanonicalOperator(
        {k: random_polynomial(rng, max_degree, bound) for k in shifts})


def random_commuting_operator(rng: Random, parity: Parity,
                              max_shift: int = 4, max_degree: int = 6,
                              bound: int = 9,
                              max_terms: int = 3) -> CanonicalOperator:
    """Random member of the commutant, planted via the divisor route.

    The divisor comes from :func:`_leak_divisor`, not from the criterion's
    table, so the members stay independent of what they are checked
    against."""
    parity = Parity(parity)
    step = 1 if parity is Parity.FULL else 2
    pool = list(range(-max_shift, max_shift + 1, step))
    shifts = rng.sample(pool, rng.randint(1, max_terms))
    terms = {}
    for k in shifts:
        divisor = _leak_divisor(k, parity)
        room = max(0, max_degree - (divisor.degree or 0))
        terms[k] = random_polynomial(rng, room, bound) * divisor
    return CanonicalOperator(terms)


def random_admissible_symbol(rng: Random, variant: SymbolVariant,
                             max_degree: int = 5, max_modes: int = 3,
                             bound: int = 9) -> LaurentSymbol:
    """Random homogeneous symbol admissible for the given cut cone."""
    variant = SymbolVariant(variant)
    degree = rng.randint(1, max_degree)
    if variant is SymbolVariant.M_PLUS_PLUS:
        pool = list(range(-degree, degree + 1))
    else:
        pool = list(range(-2 * degree, 2 * degree + 1, 2))
    ks = rng.sample(pool, rng.randint(1, min(max_modes, len(pool))))
    return LaurentSymbol.homogeneous(
        degree, {k: _nonzero_gaussian(rng, bound, real=False) for k in ks})


def random_jet(rng: Random, max_total: int = 8, bound: int = 9, *,
               even_only: bool = False, density: float = 0.4) -> Jet:
    """Random jet; with ``even_only`` every monomial has even total degree."""
    dmax = rng.randint(0, max_total)
    coeffs = {}
    for k in range(dmax + 1):
        for l in range(dmax + 1 - k):
            if even_only and (k + l) % 2:
                continue
            if rng.random() < density:
                coeffs[k, l] = GaussianRational(rng.randint(-bound, bound),
                                                rng.randint(-bound, bound))
    return Jet(dmax, coeffs)


def random_odd_jet(rng: Random, max_total: int = 8, bound: int = 9) -> Jet:
    """Random jet guaranteed to carry at least one odd-degree monomial."""
    dmax = rng.randint(1, max_total)
    coeffs = dict(random_jet(rng, dmax, bound).coeffs)
    odd_pool = [(k, l) for k in range(dmax + 1) for l in range(dmax + 1 - k)
                if (k + l) % 2]
    k, l = rng.choice(odd_pool)
    coeffs[k, l] = _nonzero_gaussian(rng, bound, real=False)
    return Jet(dmax, coeffs)


def random_cone(rng: Random, bound: int = 9) -> Cone2:
    """Random strictly convex planar cone with small generators."""
    while True:
        u = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if u == (0, 0) or v == (0, 0):
            continue
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        return Cone2(u, v)


def random_unimodular(rng: Random, steps: int = 6) -> Unimodular2:
    """Random word in shears and the swap; determinant is always +-1."""
    result = Unimodular2.identity()
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            factor = Unimodular2(((1, rng.randint(-3, 3)), (0, 1)))
        elif kind == 1:
            factor = Unimodular2(((1, 0), (rng.randint(-3, 3), 1)))
        else:
            factor = Unimodular2(((0, 1), (1, 0)))
        result = factor @ result
    return result
