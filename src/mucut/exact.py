"""Exact arithmetic substrate: Gaussian rationals, polynomials, lattice maps.

Rationals are stdlib :class:`fractions.Fraction` (always reduced, positive
denominator, arbitrary precision); this module layers the complex-rational
field, dense univariate polynomials over it, and the small amount of integer
lattice algebra the cone calculus needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import FloatOverflow, NonzeroRemainder, ZeroVector

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rational_to_str(value: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` (canonical, reduced, den > 0)."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` or a bare integer string. Denominator 0 is rejected."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


_Scalarish = (int, Fraction)


class GaussianRational:
    """Complex number with rational real and imaginary parts.

    >>> z = GaussianRational(1, 2)
    >>> z * z
    GaussianRational(-3, 4)
    >>> z.conjugate() * z == GaussianRational(5)
    True
    >>> GaussianRational(1) / z
    GaussianRational(Fraction(1, 5), Fraction(-2, 5))
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("imaginary part given twice")
            re, im = re.re, re.im
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _Scalarish):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        """The exact-to-float conversion (:func:`_float_values` is the same
        rounding over a range of a polynomial's values); raises
        :class:`FloatOverflow`."""
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise FloatOverflow("exact value beyond the float range") from None

    def __repr__(self):
        parts = []
        for part in (self.re, self.im):
            if part.denominator == 1:
                parts.append(repr(part.numerator))
            else:
                parts.append(f"Fraction({part.numerator}, {part.denominator})")
        if self.im == 0:
            return f"GaussianRational({parts[0]})"
        return f"GaussianRational({parts[0]}, {parts[1]})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self) -> dict:
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    @classmethod
    def from_json(cls, data) -> "GaussianRational":
        if not isinstance(data, dict) or set(data) - {"re", "im"}:
            raise ValueError(f"not a gaussian-rational object: {data!r}")
        return cls(rational_from_str(data.get("re", "0")),
                   rational_from_str(data.get("im", "0")))


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class Polynomial:
    """Dense univariate polynomial over the Gaussian rationals.

    Coefficients are stored lowest-degree first with trailing zeros stripped.
    The zero polynomial has an empty coefficient tuple and ``degree`` ``None``
    (a deliberate sentinel: callers must branch on it explicitly instead of
    relying on a numeric convention).

    >>> p = Polynomial([1, 1])        # 1 + x
    >>> (p * p).coefficients
    (GaussianRational(1), GaussianRational(2), GaussianRational(1))
    >>> p(3)
    GaussianRational(4)
    >>> Polynomial([]).degree is None
    True
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = [c if isinstance(c, GaussianRational) else GaussianRational(c)
                  for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coefficient,))

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        result = cls.one()
        for r in roots:
            result = result * cls((GaussianRational(-1) * GaussianRational(r), 1))
        return result

    @property
    def degree(self):
        """Degree, or ``None`` for the zero polynomial."""
        if not self.coefficients:
            return None
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def leading_coefficient(self) -> GaussianRational:
        if not self.coefficients:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __call__(self, x) -> GaussianRational:
        """Exact value at ``x`` by Horner's rule on Python integers.

        The coefficients go over one common denominator ``den`` and ``x`` is
        written as ``(xr + i*xi) / dx``; the loop accumulates
        ``den * dx**degree * p(x)`` and the one division comes at the end.
        """
        x = _as_gaussian(x)
        if not self.coefficients:
            return _ZERO
        den, scaled = _integer_coefficients(self.coefficients)
        dx = lcm(x.re.denominator, x.im.denominator)
        xr = x.re.numerator * (dx // x.re.denominator)
        xi = x.im.numerator * (dx // x.im.denominator)
        re = im = 0
        power = 1
        for cr, ci in scaled:
            re, im = (re * xr - im * xi + cr * power,
                      re * xi + im * xr + ci * power)
            power *= dx
        scale = den * power // dx
        return GaussianRational(Fraction(re, scale), Fraction(im, scale))

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] = summed[i] + c
        return Polynomial(summed)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Polynomial([-c for c in self.coefficients])

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return Polynomial.zero()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, divisor: "Polynomial"):
        divisor = _coerce_poly(divisor)
        if divisor is None:
            return NotImplemented
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coefficients)
        dcoeffs = divisor.coefficients
        dlead = dcoeffs[-1]
        dn = len(dcoeffs)
        if len(remainder) < dn:
            return Polynomial.zero(), self
        quotient = [_ZERO] * (len(remainder) - dn + 1)
        for top in range(len(remainder) - 1, dn - 2, -1):
            c = remainder[top]
            if not c:
                continue
            q = c / dlead
            pos = top - dn + 1
            quotient[pos] = q
            for j in range(dn):
                remainder[pos + j] = remainder[pos + j] - q * dcoeffs[j]
        return Polynomial(quotient), Polynomial(remainder)

    def shift(self, offset) -> "Polynomial":
        """Precompose with a translation: returns ``p(x + offset)``."""
        if not self.coefficients:
            return self
        translate = Polynomial((GaussianRational(offset), _ONE))
        acc = Polynomial.zero()
        for c in reversed(self.coefficients):
            acc = acc * translate + Polynomial((c,))
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([c * n for n, c in enumerate(self.coefficients)][1:])

    def conjugate(self) -> "Polynomial":
        """Conjugate the coefficients (not the variable)."""
        return Polynomial([c.conjugate() for c in self.coefficients])

    def __bool__(self):
        return bool(self.coefficients)

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"Polynomial({list(self.coefficients)!r})"

    def __str__(self):
        if not self.coefficients:
            return "0"
        terms = []
        for n, c in enumerate(self.coefficients):
            if not c:
                continue
            if n == 0:
                terms.append(str(c))
            else:
                xpow = "x" if n == 1 else f"x^{n}"
                if c == _ONE:
                    terms.append(xpow)
                else:
                    coeff = str(c)
                    if c.im != 0 and c.re != 0:
                        coeff = f"({coeff})"
                    terms.append(f"{coeff}*{xpow}")
        return " + ".join(terms)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coefficients]

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        if not isinstance(data, list):
            raise ValueError(f"not a polynomial coefficient array: {data!r}")
        return cls([GaussianRational.from_json(c) for c in data])


def _coerce_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (GaussianRational,) + _Scalarish):
        return Polynomial((value,))
    return None


def poly_divide_exact(p: Polynomial, divisor: Polynomial) -> Polynomial:
    """Divide ``p`` by ``divisor`` requiring a zero remainder.

    Raises :class:`NonzeroRemainder` (carrying the offending remainder) when
    the division does not come out exact.
    """
    quotient, remainder = divmod(p, divisor)
    if not remainder.is_zero():
        raise NonzeroRemainder(
            f"division left remainder {remainder}", remainder=remainder)
    return quotient


def _integer_coefficients(coeffs) -> tuple[int, list]:
    """``(den, scaled)``: the coefficients over one common denominator
    ``den``, with ``scaled`` the integer numerators ``(re, im)`` of each,
    highest degree first as Horner's rule takes them."""
    den = lcm(*(part.denominator for c in coeffs for part in (c.re, c.im)))
    return den, [(c.re.numerator * (den // c.re.denominator),
                  c.im.numerator * (den // c.im.denominator))
                 for c in reversed(coeffs)]


def _float_values(p: Polynomial, points: range) -> tuple[list, list]:
    """Real and imaginary parts of ``complex(p(n))`` for every ``n`` in
    ``points``, a range of integers, evaluated in one pass.

    This is the integer Horner of :meth:`Polynomial.__call__` at ``dx = 1``
    on the same :func:`_integer_coefficients`, found once for the whole
    range. Each part is then one correctly rounded ``int / int`` division,
    so the floats are bit-identical to converting each exact value. A part
    beyond the float range raises :class:`FloatOverflow`.
    """
    den, scaled = _integer_coefficients(p.coefficients)
    parts = []
    for ints in ([cr for cr, _ in scaled], [ci for _, ci in scaled]):
        if not any(ints):
            parts.append([0.0] * len(points))
            continue
        values = []
        for n in points:
            value = 0
            for c in ints:
                value = value * n + c
            values.append(value)
        try:
            parts.append([value / den for value in values])
        except OverflowError:
            raise FloatOverflow("exact value beyond the float range") from None
    return parts[0], parts[1]


# --- sparse term maps ------------------------------------------------------
#
# Operators (shift -> Polynomial), symbols (mode -> Polynomial) and jets
# (monomial exponents -> GaussianRational) are finite maps with the zero
# values dropped. The base class and helpers below are their one shared
# algebra and JSON form; the classes only add what they carry on top of the
# terms.


_SCALARS = (int, GaussianRational)


class _TermMap:
    """Immutable term map kept in ``_terms``. Subclasses define ``__add__``,
    ``__neg__`` and ``__mul__``; subtraction and scalars from the left
    follow from those."""

    __slots__ = ("_terms",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self._terms

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented


def _strict_int(value, noun: str) -> int:
    """``value`` when it is a JSON integer; bools, floats and strings fail."""
    if type(value) is not int:
        raise ValueError(f"{noun} must be an integer, got {value!r}")
    return value


def _nonzero_terms(terms, key, value) -> dict:
    """Normalize every key and value of a term map and drop zero values."""
    out = {}
    for k, v in (terms or {}).items():
        k, v = key(k), value(v)
        if v:
            out[k] = v
    return out


def _term_sum(pairs) -> dict:
    """Collect ``(key, value)`` pairs into a term map, adding equal keys."""
    out = {}
    for key, value in pairs:
        out[key] = out[key] + value if key in out else value
    return out


def _merge_terms(a: dict, b: dict) -> dict:
    return _term_sum(chain(a.items(), b.items()))


def _scale_terms(terms: dict, scalar) -> dict:
    return {k: v * scalar for k, v in terms.items()}


def _terms_to_json(terms: dict, fields, value_field: str) -> list:
    """``[{field: key, ..., value_field: value}, ...]`` in key order."""
    return [{**dict(zip(fields, key if isinstance(key, tuple) else (key,))),
             value_field: terms[key].to_json()}
            for key in sorted(terms)]


def _terms_from_json(items, fields, value_field: str, parse_value,
                     noun: str) -> dict:
    """Inverse of :func:`_terms_to_json`; repeated keys are summed.

    Every key field must be a JSON integer; ``noun`` names it in errors.
    """
    pairs = []
    for item in items:
        key = tuple(_strict_int(item[f], noun) for f in fields)
        pairs.append((key if len(key) > 1 else key[0],
                      parse_value(item[value_field])))
    return _term_sum(pairs)


def _as_polynomial(value) -> Polynomial:
    return value if isinstance(value, Polynomial) else Polynomial(value)


def _as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


# --- integer lattice -------------------------------------------------------

Vec2 = tuple[int, int]


def primitive(v) -> Vec2:
    """Divide a nonzero integer vector by the gcd of its entries.

    The direction is preserved: ``primitive((4, -6)) == (2, -3)``.
    """
    vec = tuple(int(c) for c in v)
    if all(c == 0 for c in vec):
        raise ZeroVector("cannot primitivize the zero vector")
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    return tuple(c // g for c in vec)


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns ``(g, u, v)`` with ``u*a + v*b == g == gcd(a, b)``.

    >>> bezout(3, 2)
    (1, 1, -1)
    """
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


@dataclass(frozen=True)
class Unimodular2:
    """Integer 2x2 matrix with determinant +-1, acting on column vectors."""

    rows: tuple[Vec2, Vec2]

    def __post_init__(self):
        rows = tuple(tuple(int(c) for c in row) for row in self.rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected two rows of two integers")
        object.__setattr__(self, "rows", rows)
        if self.det not in (1, -1):
            raise ValueError(f"determinant {self.det} is not a unit")

    @classmethod
    def identity(cls) -> "Unimodular2":
        return cls(((1, 0), (0, 1)))

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def apply(self, v) -> Vec2:
        (a, b), (c, d) = self.rows
        x, y = v
        return (a * x + b * y, c * x + d * y)

    def __matmul__(self, other):
        if isinstance(other, Unimodular2):
            (a, b), (c, d) = self.rows
            (e, f), (g, h) = other.rows
            return Unimodular2(((a * e + b * g, a * f + b * h),
                                (c * e + d * g, c * f + d * h)))
        return NotImplemented

    def inverse(self) -> "Unimodular2":
        (a, b), (c, d) = self.rows
        s = self.det  # +-1, so the adjugate divided by det stays integral
        return Unimodular2(((d * s, -b * s), (-c * s, a * s)))

    def to_json(self) -> list:
        return [list(self.rows[0]), list(self.rows[1])]
