"""Symbols on the cut cones: finite Laurent series in the angle, polynomial
in the radial action.

A symbol is a finite map ``k -> p_k(s)``; mode k carries the angular factor
``exp(i*k*t)``. Homogeneous symbols tag their common radial degree. Degree
``m < 0`` is allowed only in the homogeneous single-power form ``c * s**m``
(stored as the bare coefficient), which is what the residue functional
consumes.
"""

from __future__ import annotations

import enum

from .errors import (NotAdmissible, NotHomogeneous, NotInCommutant,
                     ZeroOperator)
from .exact import (GaussianRational, Polynomial, _as_polynomial,
                    _merge_terms, _nonzero_terms, _scale_terms, _SCALARS,
                    _strict_int, _term_sum, _TermMap, _terms_from_json,
                    _terms_to_json)
from .operators import (CanonicalOperator, Parity, required_vanishing,
                        shift_divisor, szego_commutes)


class SymbolVariant(enum.Enum):
    """Which cut cone the symbol lives on.

    M_PLUS_PLUS: the full-projector cut space (every shift allowed, radial
    degree at least |k|).
    M_PLUS_EVEN: the even-projector cut space (even shifts only, radial
    degree at least |k|/2).
    """

    M_PLUS_PLUS = "m++"
    M_PLUS_EVEN = "m+even"


_PARITY = {SymbolVariant.M_PLUS_PLUS: Parity.FULL,
           SymbolVariant.M_PLUS_EVEN: Parity.EVEN}
_VARIANT = {parity: variant for variant, parity in _PARITY.items()}


def variant_for_parity(parity: Parity) -> SymbolVariant:
    return _VARIANT[Parity(parity)]


class LaurentSymbol(_TermMap):
    """Finite angular-mode expansion with polynomial radial parts."""

    __slots__ = ("_degree",)

    def __init__(self, modes=None, *, degree: int | None = None):
        cleaned = _nonzero_terms(modes, int, _as_polynomial)
        if not cleaned:
            degree = None
        elif degree is None:
            degree = _detect_degree(cleaned)
        elif degree < 0:
            for k, poly in cleaned.items():
                if poly.degree != 0:
                    raise ValueError(
                        "negative-degree symbols store bare coefficients; "
                        f"mode {k} has radial degree {poly.degree}")
        else:
            for k, poly in cleaned.items():
                if poly.degree != degree or _monomial_degree(poly) != degree:
                    raise ValueError(
                        f"mode {k} is not a degree-{degree} monomial")
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_degree", degree)

    @classmethod
    def zero(cls) -> "LaurentSymbol":
        return cls({})

    @classmethod
    def homogeneous(cls, degree: int, coefficients: dict) -> "LaurentSymbol":
        """Build ``sum_k c_k * s**degree * exp(i*k*t)`` from bare
        coefficients; the only way to make a negative-degree symbol."""
        modes = {}
        for k, c in coefficients.items():
            c = GaussianRational(c)
            if not c:
                continue
            if degree >= 0:
                modes[k] = Polynomial.monomial(degree, c)
            else:
                modes[k] = Polynomial((c,))
        return cls(modes, degree=degree if modes else None)

    @property
    def modes(self) -> dict:
        return dict(self._terms)

    @property
    def degree(self) -> int | None:
        """Homogeneity degree, or ``None`` when mixed or zero."""
        return self._degree

    def homogeneous_coefficient(self, k: int) -> GaussianRational:
        """Bare coefficient of mode k for a degree-tagged symbol."""
        if self._degree is None:
            raise NotHomogeneous("symbol carries no homogeneity degree")
        poly = self._terms.get(k)
        if poly is None:
            return GaussianRational(0)
        return poly.leading_coefficient()

    def __add__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        _require_polynomial(self, other)
        return LaurentSymbol(_merge_terms(self._terms, other._terms))

    def __neg__(self):
        return LaurentSymbol(_scale_terms(self._terms, -1),
                             degree=self._degree)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return LaurentSymbol(_scale_terms(self._terms, other),
                                 degree=self._degree)
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        _require_polynomial(self, other)
        return LaurentSymbol(_term_sum(
            (k + l, p * q)
            for k, p in self._terms.items() for l, q in other._terms.items()))

    def __eq__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        return self._terms == other._terms and self._degree == other._degree

    def __hash__(self):
        return hash((tuple(sorted(self._terms.items())), self._degree))

    def __repr__(self):
        inner = ", ".join(f"{k}: {p}" for k, p in sorted(self._terms.items()))
        return f"LaurentSymbol({{{inner}}}, degree={self._degree})"

    def to_json(self) -> dict:
        return {"degree": self._degree,
                "modes": _terms_to_json(self._terms, ("k",), "poly")}

    @classmethod
    def from_json(cls, data) -> "LaurentSymbol":
        if not isinstance(data, dict) or "modes" not in data:
            raise ValueError(f"not a symbol object: {data!r}")
        degree = data.get("degree")
        if degree is not None:
            _strict_int(degree, "degree")
        return cls(_terms_from_json(data["modes"], ("k",), "poly",
                                    Polynomial.from_json, "mode"),
                   degree=degree)


def _monomial_degree(poly: Polynomial):
    """Degree if the polynomial is a single monomial, else ``None``."""
    support = poly.support()
    return support[0] if len(support) == 1 else None


def _detect_degree(modes: dict) -> int | None:
    degrees = {_monomial_degree(p) for p in modes.values()}
    if len(degrees) == 1:
        (d,) = degrees
        return d
    return None


def _require_polynomial(*symbols: LaurentSymbol) -> None:
    for s in symbols:
        if s._degree is not None and s._degree < 0:
            raise ValueError(
                "negative-degree symbols only support the residue functional")


def leading_symbol(a: CanonicalOperator) -> LaurentSymbol:
    """Top-order part of an operator, as a homogeneous symbol.

    Shift k contributes ``lc * s**m * exp(i*k*t)`` whenever its polynomial
    attains the operator order m.
    """
    if a.is_zero():
        raise ZeroOperator("the zero operator has no leading symbol")
    m = a.order
    coeffs = {k: p.leading_coefficient()
              for k, p in a.terms.items() if p.degree == m}
    return LaurentSymbol.homogeneous(m, coeffs)


def is_admissible(sigma: LaurentSymbol, variant: SymbolVariant) -> bool:
    """Whether a homogeneous symbol extends to its cut cone.

    Raises :class:`NotHomogeneous` when the symbol has no degree tag.
    """
    variant = SymbolVariant(variant)
    if sigma.is_zero():
        return True
    m = sigma.degree
    if m is None:
        raise NotHomogeneous("admissibility is defined for homogeneous symbols")
    if m < 0:
        return False
    for k in sigma.modes:
        where = required_vanishing(k, _PARITY[variant])
        if where is None or m < len(where):
            return False
    return True


def build_commuting_from_symbol(sigma: LaurentSymbol,
                                parity: Parity = Parity.FULL
                                ) -> CanonicalOperator:
    """Canonical commuting operator with the given leading symbol.

    Each mode k becomes ``c * x**(m - w(k)) * shift_divisor(k, parity)`` with
    ``w(k)`` the divisor degree, so the result commutes with the projector
    and its leading symbol reproduces the input exactly.
    """
    parity = Parity(parity)
    variant = variant_for_parity(parity)
    if not is_admissible(sigma, variant):
        raise NotAdmissible(
            f"symbol is not admissible on the {variant.value} cone")
    if sigma.is_zero():
        return CanonicalOperator.zero()
    m = sigma.degree
    terms = {}
    for k in sigma.modes:
        c = sigma.homogeneous_coefficient(k)
        divisor = shift_divisor(k, parity)
        terms[k] = Polynomial.monomial(m - divisor.degree, c) * divisor
    return CanonicalOperator(terms)


def poisson_bracket(f: LaurentSymbol, g: LaurentSymbol) -> LaurentSymbol:
    """Bracket induced by ``ds ^ dt``: ``{f, g} = f_s g_t - f_t g_s``,
    with the angular derivative acting as ``i*k`` on mode k."""
    _require_polynomial(f, g)
    df = {k: p.derivative() for k, p in f._terms.items()}
    dg = {l: q.derivative() for l, q in g._terms.items()}
    return LaurentSymbol(_term_sum(
        (k + l, df[k] * q * GaussianRational(0, l)
         - p * dg[l] * GaussianRational(0, k))
        for k, p in f._terms.items() for l, q in g._terms.items()))


def exactness_witness(a: CanonicalOperator, parity: Parity = Parity.FULL):
    """Split a commuting operator as ``lift(leading symbol) + remainder``.

    Returns ``(order, symbol, remainder)``; the remainder commutes and has
    strictly smaller order, so iterating yields the full symbol tower.
    """
    parity = Parity(parity)
    if not szego_commutes(a, parity):
        raise NotInCommutant(
            f"operator does not commute with the {parity.value} projector")
    if a.is_zero():
        raise ZeroOperator("the zero operator has no exactness witness")
    sigma = leading_symbol(a)
    remainder = a - build_commuting_from_symbol(sigma, parity)
    return a.order, sigma, remainder


def symbol_tower(a: CanonicalOperator, parity: Parity = Parity.FULL):
    """Full expansion of a commuting operator into homogeneous symbols.

    Returns ``[(order, symbol), ...]`` in strictly decreasing order; summing
    the lifts reconstructs the operator exactly. Terminates in at most
    ``order + 1`` steps.
    """
    tower = []
    current = a
    while not current.is_zero():
        order, sigma, current = exactness_witness(current, parity)
        tower.append((order, sigma))
    return tower
