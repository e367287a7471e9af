"""Exact arithmetic substrate: Gaussian rationals, polynomials, lattice maps.

Rationals are stdlib :class:`fractions.Fraction` (always reduced, positive
denominator, arbitrary precision); this module layers the complex-rational
field, dense univariate polynomials over it (integer numerators over one
denominator, see :class:`Polynomial`), and the small amount of integer
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
        object.__setattr__(self, "re",
                           re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im",
                           im if type(im) is Fraction else Fraction(im))

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


def _gaussian_parts(value) -> tuple[int, int, int]:
    """Integers ``(re, im, den)``, ``den > 0``, with ``value`` equal to
    ``(re + i*im) / den``; an int passes through without a Fraction."""
    if type(value) is int:
        return value, 0, 1
    z = _as_gaussian(value)
    den = lcm(z.re.denominator, z.im.denominator)
    return (z.re.numerator * (den // z.re.denominator),
            z.im.numerator * (den // z.im.denominator), den)


# The numerator parts below are integer polynomials: sequences of ints,
# lowest degree first.

def _axpy(a: list, b, factor: int = 1) -> list:
    """``a + factor*b``, in place on the list ``a``."""
    a.extend([0] * (len(b) - len(a)))
    for i, c in enumerate(b):
        a[i] += factor * c
    return a


def _convolve(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _taylor_shift(a, t: int) -> list:
    """``a(x + t)``, by Horner's rule on ``x + t``."""
    acc = []
    for c in reversed(a):
        acc = [x + t * y for x, y in zip([c] + acc, acc + [0])]
    return acc


def _horner(a, x: int) -> int:
    value = 0
    for c in reversed(a):
        value = value * x + c
    return value


def _padded(re, im) -> tuple[list, list]:
    n = max(len(re), len(im))
    return list(re) + [0] * (n - len(re)), list(im) + [0] * (n - len(im))


def _poly(den: int, re: list, im: list) -> "Polynomial":
    """``(re + i*im) / den`` in canonical form: both lists lose their
    trailing zeros, then ``den`` and the numerators their common factor."""
    while re and not re[-1]:
        re.pop()
    while im and not im[-1]:
        im.pop()
    g = gcd(den, *re, *im)
    if g != 1:
        den, re, im = den // g, [c // g for c in re], [c // g for c in im]
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_den", den)
    object.__setattr__(p, "_re", tuple(re))
    object.__setattr__(p, "_im", tuple(im))
    return p


class Polynomial:
    """Dense univariate polynomial over the Gaussian rationals.

    Stored as ``(re + i*im) / den``: integer numerator tuples, lowest
    degree first and each without trailing zeros, over ``den > 0`` with
    ``gcd(den, numerators) == 1`` (FLINT's ``fmpq_poly`` layout), so every
    operation runs on ints; ``coefficients`` are built when read. The zero
    polynomial has no coefficients and ``degree`` ``None`` (a
    deliberate sentinel: callers must branch on it explicitly instead of
    relying on a numeric convention).

    >>> p = Polynomial([1, 1])        # 1 + x
    >>> (p * p).coefficients
    (GaussianRational(1), GaussianRational(2), GaussianRational(1))
    >>> p(3)
    GaussianRational(4)
    >>> Polynomial([]).degree is None
    True
    """

    __slots__ = ("_den", "_re", "_im")

    def __new__(cls, coefficients=()):
        parts = [_gaussian_parts(c) for c in coefficients]
        den = lcm(*(d for _, _, d in parts))
        return _poly(den, [r * (den // d) for r, _, d in parts],
                     [i * (den // d) for _, i, d in parts])

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def coefficients(self) -> tuple:
        den = self._den
        return tuple(GaussianRational(Fraction(r, den), Fraction(i, den))
                     for r, i in zip(*_padded(self._re, self._im)))

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
        """``(x - r_1)...(x - r_n)``: each ``r = (rr + i*ri) / d``
        multiplies the numerators by ``d*x - rr - i*ri``."""
        re, im, den = [1], [0], 1
        for root in roots:
            rr, ri, d = _gaussian_parts(root)
            low_re, low_im = re + [0], im + [0]
            re, im = ([d * a - rr * b + ri * c
                       for a, b, c in zip([0] + re, low_re, low_im)],
                      [d * a - rr * c - ri * b
                       for a, b, c in zip([0] + im, low_re, low_im)])
            den *= d
        return _poly(den, re, im)

    @property
    def degree(self):
        """Degree, or ``None`` for the zero polynomial."""
        return max(len(self._re), len(self._im)) - 1 if self else None

    def is_zero(self) -> bool:
        return not self

    def leading_coefficient(self) -> GaussianRational:
        if not self:
            raise ValueError("zero polynomial has no leading coefficient")
        re, im = _padded(self._re, self._im)
        return GaussianRational(Fraction(re[-1], self._den),
                                Fraction(im[-1], self._den))

    def support(self) -> list:
        """The degrees with a nonzero coefficient, lowest first."""
        re, im = _padded(self._re, self._im)
        return [n for n, (r, i) in enumerate(zip(re, im)) if r or i]

    def __call__(self, x) -> GaussianRational:
        """Exact value at ``x = (xr + i*xi) / dx`` by Horner's rule on ints:
        the loop accumulates ``den * dx**degree * p(x)``, then one division."""
        xr, xi, dx = _gaussian_parts(x)
        re = im = 0
        power = 1
        for cr, ci in zip(*map(reversed, _padded(self._re, self._im))):
            re, im = (re * xr - im * xi + cr * power,
                      re * xi + im * xr + ci * power)
            power *= dx
        scale = self._den * power // dx if self else 1
        return GaussianRational(Fraction(re, scale), Fraction(im, scale))

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """``self + sign*other`` over the least common denominator."""
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        return _poly(den, _axpy([fa * c for c in self._re], other._re, fb),
                     _axpy([fa * c for c in self._im], other._im, fb))

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        return _poly(self._den * other._den,
                     _axpy(_convolve(ar, br), _convolve(ai, bi), -1),
                     _axpy(_convolve(ar, bi), _convolve(ai, br)))

    __rmul__ = __mul__

    def __divmod__(self, divisor: "Polynomial"):
        """Pseudo-division of the numerators ``A`` by ``conj(b)*B``, ``b``
        the lead of ``B``: ``N**e * A = Q * conj(b)*B + R`` with
        ``N = |b|**2`` and ``e`` the number of quotient terms."""
        divisor = _coerce_poly(divisor)
        if divisor is None:
            return NotImplemented
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        n = divisor.degree
        if not self or self.degree < n:
            return Polynomial.zero(), self
        br, bi = _padded(divisor._re, divisor._im)
        fr, fi = br[n], -bi[n]
        lead = fr * fr + fi * fi
        br, bi = ([fr * r - fi * i for r, i in zip(br, bi)],
                  [fr * i + fi * r for r, i in zip(br, bi)])
        rr, ri = _padded(self._re, self._im)
        qr, qi = [0] * (len(rr) - n), [0] * (len(rr) - n)
        for pos in range(len(qr) - 1, -1, -1):
            cr, ci = rr[pos + n], ri[pos + n]
            if lead != 1:
                rr, ri, qr, qi = ([lead * c for c in part]
                                  for part in (rr, ri, qr, qi))
            qr[pos], qi[pos] = cr, ci
            for j in range(n + 1):
                rr[pos + j] -= cr * br[j] - ci * bi[j]
                ri[pos + j] -= cr * bi[j] + ci * br[j]
        den, db = self._den * lead ** len(qr), divisor._den
        return (_poly(den, [db * (r * fr - i * fi) for r, i in zip(qr, qi)],
                      [db * (r * fi + i * fr) for r, i in zip(qr, qi)]),
                _poly(den, rr[:n], ri[:n]))

    def shift(self, offset) -> "Polynomial":
        """``p(x + offset)``: an integer Taylor shift of both numerator
        parts for an int offset, else Horner's rule on ``x + offset``."""
        if type(offset) is int:
            return _poly(self._den, _taylor_shift(self._re, offset),
                         _taylor_shift(self._im, offset))
        translate, acc = Polynomial((offset, 1)), Polynomial()
        for cr, ci in zip(*map(reversed, _padded(self._re, self._im))):
            acc = acc * translate + _poly(self._den, [cr], [ci])
        return acc

    def derivative(self) -> "Polynomial":
        return _poly(self._den, [n * c for n, c in enumerate(self._re)][1:],
                     [n * c for n, c in enumerate(self._im)][1:])

    def conjugate(self) -> "Polynomial":
        """Conjugate the coefficients (not the variable)."""
        return _poly(self._den, list(self._re), [-c for c in self._im])

    def __bool__(self):
        return bool(self._re or self._im)

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return (self._den, self._re, self._im) == (other._den, other._re,
                                                    other._im)

    def __hash__(self):
        # a constant hashes as the scalar it equals
        if not self.degree:
            return hash(self(0))
        return hash((self._den, self._re, self._im))

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
                if c == 1:
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


def _float_values(p: Polynomial, points: range) -> tuple[list, list]:
    """Real and imaginary parts of ``complex(p(n))`` for each ``n`` in the
    integer range ``points``: a correctly rounded ``int / int`` per part,
    so bit-identical to converting each exact value; a part beyond the
    float range raises :class:`FloatOverflow`."""
    parts = []
    for ints in (p._re, p._im):
        try:
            parts.append([_horner(ints, n) / p._den for n in points]
                         if ints else [0.0] * len(points))
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
