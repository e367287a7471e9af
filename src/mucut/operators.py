"""Circle-mode operators in shift/polynomial normal form.

An operator is a finite sum of terms ``(k, q)`` acting on Fourier modes by
``e(n) -> q(n) * e(n + k)`` where ``e(n)`` is the n-th exponential mode. The
module provides the generator set, composition and adjoint in this normal
form, its matrix on a set of modes, the exact commutation criteria against
the Szego projector (full and even-mode variants), the sparse commutator
kernel and the commutant factorization.
"""

from __future__ import annotations

import enum
from types import MappingProxyType

from .errors import NotInCommutant, NotSelfAdjoint, WindowTooLarge
from .exact import (Polynomial, _as_polynomial, _merge_terms, _nonzero_terms,
                    _scale_terms, _SCALARS, _term_sum, _TermMap,
                    _terms_from_json, _terms_to_json, poly_divide_exact)

#: Most modes an enumerated window holds; the default window 4096 keeps 4097.
MAX_WINDOW_MODES = 4097


def check_window(window: int) -> None:
    """Reject a negative window, or one holding more than
    :data:`MAX_WINDOW_MODES` modes, before any mode is enumerated."""
    if window < 0:
        raise ValueError("window must be nonnegative")
    if window + 1 > MAX_WINDOW_MODES:
        raise WindowTooLarge(
            f"window {window} holds more than {MAX_WINDOW_MODES} modes")


class Parity(enum.Enum):
    """Which projector the commutation questions are asked against.

    FULL:  projection onto modes n >= 0.
    EVEN:  projection onto even modes n >= 0.
    """

    FULL = "full"
    EVEN = "even"

    @property
    def step(self) -> int:
        """Spacing of the retained modes: 1 (full) or 2 (even)."""
        return 1 if self is Parity.FULL else 2

    def retains(self, n: int) -> bool:
        """Whether the projector keeps mode ``n``."""
        return n >= 0 and n % self.step == 0


def retained_modes(window: int, parity: Parity) -> range:
    """The first ``window + 1`` modes the projector keeps: ``0..window``
    (full) or ``0, 2, ..., 2*window`` (even)."""
    check_window(window)
    step = Parity(parity).step
    return range(0, step * window + 1, step)


class GeneratorName(enum.Enum):
    D = "D"
    RAISE = "Raise"
    LOWER = "Lower"
    RAISE_EVEN = "RaiseEven"
    LOWER_EVEN = "LowerEven"


class CanonicalOperator(_TermMap):
    """Finite sum of shift-by-k terms with polynomial mode coefficients.

    Immutable. Terms with zero polynomial are dropped on construction, so two
    operators are equal iff their term maps are equal.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        object.__setattr__(self, "_terms",
                           _nonzero_terms(terms, int, _as_polynomial))

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls) -> "CanonicalOperator":
        return cls({})

    @classmethod
    def identity(cls) -> "CanonicalOperator":
        return cls({0: Polynomial.one()})

    @property
    def bandwidth(self) -> int:
        """Largest |k| over the nonzero terms (0 for the zero operator)."""
        if not self._terms:
            return 0
        return max(abs(k) for k in self._terms)

    @property
    def order(self):
        """Max polynomial degree across terms, or ``None`` for zero."""
        if not self._terms:
            return None
        return max(p.degree for p in self._terms.values())

    def __add__(self, other):
        if not isinstance(other, CanonicalOperator):
            return NotImplemented
        return CanonicalOperator(_merge_terms(self._terms, other._terms))

    def __neg__(self):
        return CanonicalOperator(_scale_terms(self._terms, -1))

    def __mul__(self, other):
        if isinstance(other, CanonicalOperator):
            return compose(self, other)
        if isinstance(other, _SCALARS):
            return CanonicalOperator(_scale_terms(self._terms, other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative operator power")
        result = CanonicalOperator.identity()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = compose(result, base)
            base = compose(base, base)
            n >>= 1
        return result

    def adjoint(self) -> "CanonicalOperator":
        return adjoint(self)

    def __eq__(self, other):
        if not isinstance(other, CanonicalOperator):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}: {p}" for k, p in sorted(self._terms.items()))
        return f"CanonicalOperator({{{inner}}})"

    def to_json(self) -> dict:
        return {"terms": _terms_to_json(self._terms, ("k",), "poly")}

    @classmethod
    def from_json(cls, data) -> "CanonicalOperator":
        if not isinstance(data, dict) or "terms" not in data:
            raise ValueError(f"not an operator object: {data!r}")
        return cls(_terms_from_json(data["terms"], ("k",), "poly",
                                    Polynomial.from_json, "shift"))


def compose(a: CanonicalOperator, b: CanonicalOperator) -> CanonicalOperator:
    """Operator composition ``a after b`` in normal form.

    Single terms combine by ``(k, p) . (l, q) = (k + l, p(x + l) * q(x))``.
    """
    return CanonicalOperator(_term_sum(
        (k + l, p.shift(l) * q)
        for k, p in a._terms.items() for l, q in b._terms.items()))


def commutator(a: CanonicalOperator, b: CanonicalOperator) -> CanonicalOperator:
    return compose(a, b) - compose(b, a)


def adjoint(a: CanonicalOperator) -> CanonicalOperator:
    """Formal adjoint on the mode basis: ``(k, q) -> (-k, conj(q)(x - k))``."""
    return CanonicalOperator(
        {-k: q.conjugate().shift(-k) for k, q in a._terms.items()})


def matrix_terms(a: CanonicalOperator, modes: range):
    """The matrix of ``a`` on a range of modes, term by term.

    Yields ``(k, q, cols)`` for each term ``(k, q)`` with entries there:
    ``cols`` is the range of columns ``col`` in ``modes`` with
    ``col + k`` also in ``modes``, and the entry at row ``col + k`` is
    ``q(col)``, left to the caller to evaluate.
    """
    start, stop, step = modes.start, modes.stop, modes.step
    for k, q in a._terms.items():
        if k % step == 0:
            cols = range(max(start, start - k), min(stop, stop - k), step)
            if cols:
                yield k, q, cols


def make_generator(name: GeneratorName | str) -> CanonicalOperator:
    """The distinguished generators of the two commutant algebras.

    D raises nothing (mode multiplication by n); Raise/Lower shift by +-1;
    RaiseEven/LowerEven shift by +-2. Raising generators multiply before
    differentiating, lowering generators differentiate first, which is what
    makes them commute with their projector.
    """
    name = GeneratorName(name)
    x = Polynomial.x()
    if name is GeneratorName.D:
        return CanonicalOperator({0: x})
    if name is GeneratorName.RAISE:
        return CanonicalOperator({1: x + 1})
    if name is GeneratorName.LOWER:
        return CanonicalOperator({-1: x})
    if name is GeneratorName.RAISE_EVEN:
        return CanonicalOperator({2: x + 2})
    if name is GeneratorName.LOWER_EVEN:
        return CanonicalOperator({-2: x})
    raise ValueError(f"unknown generator {name!r}")


def raising_product(k: int) -> Polynomial:
    """The exact polynomial carried by the k-th raising power: (x+1)...(x+k)."""
    if k < 0:
        raise ValueError("raising power must be nonnegative")
    return shift_divisor(k, Parity.FULL)


def verify_pk_identity(k: int) -> bool:
    """Check ``Raise**k == shift_k (x+1)...(x+k)`` exactly."""
    if k < 1:
        raise ValueError("identity is stated for k >= 1")
    power = make_generator(GeneratorName.RAISE) ** k
    return power == CanonicalOperator({k: raising_product(k)})


def required_vanishing(k: int, parity: Parity):
    """Mode indices where the k-shift polynomial of a commuting operator
    must vanish. ``None`` means the whole polynomial must be zero (odd
    shifts against the even projector).

    These are the retained-parity modes that the shift carries across
    zero. This is the one table of the commutation criterion: the
    divisors, the commutator entries and symbol admissibility all read it,
    so its shift cap bounds every enumeration by shift.
    """
    if abs(k) >= MAX_WINDOW_MODES:
        raise WindowTooLarge(
            f"shift {k} is beyond the cap |k| <= {MAX_WINDOW_MODES - 1}")
    step = Parity(parity).step
    if k % step:
        return None
    if k > 0:
        return list(range(-k, 0, step))
    return list(range(0, -k, step))


def shift_divisor(k: int, parity: Parity) -> Polynomial:
    """Canonical divisor of the k-shift coefficient inside the commutant.

    Its roots are exactly :func:`required_vanishing`, so membership in the
    commutant is equivalent to exact divisibility by this polynomial.
    """
    roots = required_vanishing(k, parity)
    if roots is None:
        raise ValueError("odd shifts do not occur in the even commutant")
    return Polynomial.from_roots(roots)


def szego_commutes(a: CanonicalOperator,
                   parity: Parity = Parity.FULL) -> bool:
    """Exact commutation test against the projector, term by term."""
    for k, q in a._terms.items():
        where = required_vanishing(k, parity)
        if where is None or any(q(n) for n in where):
            return False
    return True


def szego_commutator_entries(a: CanonicalOperator,
                             parity: Parity = Parity.FULL,
                             window: int | None = None):
    """Nonzero entries ``(row, col, value)`` of ``[projector, a]``.

    The k-shift has an entry at column ``n`` where the projector keeps
    exactly one of ``n`` and ``n + k``. With ``window``, entries are
    reported for row and column modes within ``-window..window``. Without
    it the full set is returned; an odd shift against the even projector
    has infinite support (a nonzero polynomial survives at all large even
    modes), so its columns then run only far enough to witness the term.
    The list is empty iff the operator commutes with the projector.
    """
    if window is not None:
        check_window(window)
    parity = Parity(parity)
    entries = []
    for k, q in a._terms.items():
        columns = required_vanishing(k, parity)
        if columns is None:
            top = window
            if top is None:
                top = abs(k) + 2 * ((q.degree or 0) + 1)
            columns = [n for n in range(-abs(k), top + 1)
                       if parity.retains(n) != parity.retains(n + k)]
        for n in columns:
            if window is not None and max(abs(n), abs(n + k)) > window:
                continue
            value = q(n)
            if value:
                entries.append((n + k, n,
                                -value if parity.retains(n) else value))
    entries.sort(key=lambda e: (e[1], e[0]))
    return entries


def commutant_factorize(a: CanonicalOperator,
                        parity: Parity = Parity.FULL) -> dict:
    """Factor each term of a commuting operator through its canonical divisor.

    Returns ``{k: cofactor}`` with ``cofactor * shift_divisor(k, parity)``
    reproducing the stored polynomial exactly. Raises
    :class:`NotInCommutant` when the operator does not commute.
    """
    parity = Parity(parity)
    if not szego_commutes(a, parity):
        raise NotInCommutant(
            f"operator does not commute with the {parity.value} projector")
    return {k: poly_divide_exact(q, shift_divisor(k, parity))
            for k, q in a.terms.items()}


def recompose_factors(factors: dict, parity: Parity) -> CanonicalOperator:
    """Inverse of :func:`commutant_factorize`."""
    return CanonicalOperator(
        {k: r * shift_divisor(k, parity) for k, r in factors.items()})


def require_self_adjoint(a: CanonicalOperator) -> None:
    """Raise :class:`NotSelfAdjoint` unless ``adjoint(a) == a`` exactly."""
    if adjoint(a) != a:
        raise NotSelfAdjoint("operator is not self-adjoint in normal form")
