"""Truncated Taylor data at the cone point and its exact transfer to symbols.

A jet stores the coefficients of ``z**k * conj(z)**l`` up to a total degree
bound. Only even jets (no odd-total-degree monomials) descend smoothly to the
cut cones; for those the pullback/pushforward pair below is an exact bijection
onto the admissible polynomial symbols.
"""

from __future__ import annotations

from .errors import NotAdmissible, OddJet
from .exact import (GaussianRational, Polynomial, _as_gaussian,
                    _merge_terms, _nonzero_terms, _scale_terms, _SCALARS,
                    _strict_int, _term_sum, _TermMap, _terms_from_json,
                    _terms_to_json)
from .symbols import _PARITY, LaurentSymbol, SymbolVariant


class Jet(_TermMap):
    """Finite jet ``sum a_{k,l} z**k conj(z)**l`` with ``k + l <= dmax``.

    ``dmax`` is truncation capacity, not mathematical content: equality
    compares coefficient maps only.
    """

    __slots__ = ("_dmax",)

    def __init__(self, dmax: int, coeffs=None):
        dmax = int(dmax)
        if dmax < 0:
            raise ValueError("jet order bound must be nonnegative")

        def monomial(key):
            k, l = (int(e) for e in key)
            if k < 0 or l < 0:
                raise ValueError(f"monomial exponents must be nonnegative: "
                                 f"({k}, {l})")
            if k + l > dmax:
                raise ValueError(f"monomial ({k}, {l}) exceeds order bound "
                                 f"{dmax}")
            return k, l

        object.__setattr__(self, "_dmax", dmax)
        object.__setattr__(self, "_terms",
                           _nonzero_terms(coeffs, monomial, _as_gaussian))

    @property
    def coeffs(self) -> dict:
        return dict(self._terms)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return Jet(max(self._dmax, other._dmax),
                   _merge_terms(self._terms, other._terms))

    def __neg__(self):
        return Jet(self._dmax, _scale_terms(self._terms, -1))

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Jet(self._dmax, _scale_terms(self._terms, other))
        if not isinstance(other, Jet):
            return NotImplemented
        return Jet(self._dmax + other._dmax, _term_sum(
            ((k1 + k2, l1 + l2), v1 * v2)
            for (k1, l1), v1 in self._terms.items()
            for (k2, l2), v2 in other._terms.items()))

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items(),
                                 key=lambda item: item[0])))

    def __repr__(self):
        inner = ", ".join(f"({k},{l}): {v}" for (k, l), v
                          in sorted(self._terms.items()))
        return f"Jet(dmax={self._dmax}, {{{inner}}})"

    def to_json(self) -> dict:
        return {"dmax": self._dmax,
                "coeffs": _terms_to_json(self._terms, ("k", "l"), "value")}

    @classmethod
    def from_json(cls, data) -> "Jet":
        if not isinstance(data, dict) or "dmax" not in data:
            raise ValueError(f"not a jet object: {data!r}")
        return cls(_strict_int(data["dmax"], "jet order bound"),
                   _terms_from_json(data.get("coeffs", ()), ("k", "l"),
                                    "value", GaussianRational.from_json,
                                    "monomial exponent"))


def odd_monomials(jet: Jet) -> list:
    """Monomials of odd total degree with nonzero coefficient."""
    return sorted((k, l) for (k, l) in jet._terms if (k + l) % 2)


def extends_smoothly(jet: Jet) -> bool:
    """Whether the jet descends to the cut cones: no odd-degree monomials."""
    return not odd_monomials(jet)


def pullback_jet(jet: Jet, variant: SymbolVariant) -> LaurentSymbol:
    """Exact symbol of an even jet on the chosen cut cone.

    ``z**k conj(z)**l`` becomes radial power ``(k+l)/2`` at angular mode
    ``l - k`` (even cone) or ``(l - k)/2`` (full cone, where the angle
    covers the circle once instead of twice).
    """
    variant = SymbolVariant(variant)
    odd = odd_monomials(jet)
    if odd:
        raise OddJet("jet has odd-degree monomials and does not descend",
                     monomials=odd)
    step = _PARITY[variant].step
    return LaurentSymbol(_term_sum(
        ((l - k) * step // 2, Polynomial.monomial((k + l) // 2, value))
        for (k, l), value in jet._terms.items()))


def pushforward_symbol(sigma: LaurentSymbol, variant: SymbolVariant) -> Jet:
    """Inverse of :func:`pullback_jet` on polynomial symbols.

    Mode k at radial power d goes to ``z**a conj(z)**b`` with ``b - a = k``
    (even cone) or ``b - a = 2k`` (full cone) and ``a + b = 2d``. Raises
    :class:`NotAdmissible` when some term has no nonnegative solution.
    """
    variant = SymbolVariant(variant)
    if sigma.degree is not None and sigma.degree < 0:
        raise NotAdmissible("negative-degree symbols do not extend to jets")
    step = _PARITY[variant].step
    coeffs: dict[tuple, GaussianRational] = {}
    top = 0
    for k, poly in sigma.modes.items():
        if k % step:
            raise NotAdmissible(
                f"odd mode {k} has no monomial preimage on the even cone")
        for d, value in enumerate(poly.coefficients):
            if not value:
                continue
            a, b = d - k // step, d + k // step
            if a < 0 or b < 0:
                raise NotAdmissible(
                    f"mode {k} at radial power {d} has no monomial preimage")
            coeffs[(a, b)] = value
            top = max(top, a + b)
    return Jet(top, coeffs)
