"""Exact scalar and polynomial layer: field axioms, normalization, division."""

import doctest
import fractions
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mucut.exact
from mucut import (CanonicalOperator, FloatOverflow, GaussianRational,
                   NonzeroRemainder, Polynomial, Unimodular2, ZeroVector,
                   bezout, compose, make_generator, poly_divide_exact,
                   primitive, raising_product, rational_from_str,
                   rational_to_str, szego_commutes)
from mucut.exact import _float_values

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)
small_ints = st.integers(min_value=-9, max_value=9)
polys = st.lists(gaussians, max_size=5).map(Polynomial)
off_lattice = st.builds(Fraction, st.integers(-50, 50),
                        st.integers(2, 20)).filter(lambda r: r.denominator > 1)
off_lattice_gaussians = st.builds(GaussianRational, off_lattice, off_lattice)


def test_rational_string_round_trip():
    assert rational_to_str(Fraction(-3, 7)) == "-3/7"
    assert rational_to_str(Fraction(5)) == "5/1"
    assert rational_from_str("22/7") == Fraction(22, 7)
    assert rational_from_str("-4") == Fraction(-4)


def test_rational_as_str_rejects_garbage():
    with pytest.raises(ZeroDivisionError):
        rational_from_str("1/0")
    with pytest.raises(ValueError):
        rational_from_str("one half")
    with pytest.raises(ValueError):
        rational_from_str(1)


@given(rationals)
def test_rational_reduced_positive_denominator(r):
    s = rational_from_str(rational_to_str(r))
    assert s == r
    assert s.denominator > 0


class TestGaussianRational:
    def test_construction_coerces(self):
        z = GaussianRational(Fraction(1, 2), 3)
        assert z.re == Fraction(1, 2) and z.im == Fraction(3)
        assert GaussianRational(2) == 2

    @given(gaussians, gaussians)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(gaussians, gaussians, gaussians)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(gaussians)
    def test_division_inverts(self, z):
        if z:
            assert (z / z) == 1
            assert (1 / z) * z == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational()

    @given(gaussians)
    def test_conjugation_involution(self, z):
        assert z.conjugate().conjugate() == z

    @given(gaussians, gaussians)
    def test_conjugation_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_i_squared(self):
        i = GaussianRational(0, 1)
        assert i * i == -1

    def test_float_conversion(self):
        assert complex(GaussianRational(Fraction(1, 4), -3)) == 0.25 - 3j
        for z in (GaussianRational(10**400), GaussianRational(0, -10**400),
                  GaussianRational(Fraction(10**400, 3))):
            with pytest.raises(FloatOverflow):
                complex(z)

    def test_json_round_trip(self):
        z = GaussianRational(Fraction(-1, 3), Fraction(7, 2))
        blob = z.to_json()
        assert blob == {"re": "-1/3", "im": "7/2"}
        assert GaussianRational.from_json(blob) == z


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p == Polynomial([1, 2])
        assert p.degree == 1

    def test_zero_degree_sentinel(self):
        assert Polynomial().degree is None
        assert Polynomial([0, 0]).is_zero()

    def test_evaluation(self):
        p = Polynomial([1, 0, 1])  # 1 + x^2
        assert p(2) == 5
        assert p(GaussianRational(0, 1)) == 0

    @given(polys, off_lattice_gaussians)
    def test_evaluation_matches_power_sum(self, p, x):
        total, power = GaussianRational(0), GaussianRational(1)
        for c in p.coefficients:
            total, power = total + c * power, power * x
        assert p(x) == total

    def test_from_roots(self):
        p = Polynomial.from_roots([0, 2])
        assert p == Polynomial([0, -2, 1])
        assert p(0) == 0 and p(2) == 0

    @given(polys, polys)
    def test_product_degree(self, p, q):
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree == p.degree + q.degree

    @given(polys, polys, small_ints)
    def test_ring_homomorphism_at_points(self, p, q, n):
        assert (p + q)(n) == p(n) + q(n)
        assert (p * q)(n) == p(n) * q(n)

    @given(polys, small_ints, small_ints)
    def test_shift_composes(self, p, a, b):
        assert p.shift(a).shift(b) == p.shift(a + b)

    @given(polys, small_ints, small_ints)
    def test_shift_evaluates(self, p, a, n):
        assert p.shift(a)(n) == p(n + a)

    @given(polys, polys)
    def test_exact_division_round_trip(self, p, q):
        if q.is_zero():
            return
        assert poly_divide_exact(p * q, q) == p

    def test_division_remainder_raises(self):
        with pytest.raises(NonzeroRemainder):
            poly_divide_exact(Polynomial([1, 1]), Polynomial([0, 1]))

    def test_conjugate_coefficients_only(self):
        p = Polynomial([GaussianRational(1, 2), GaussianRational(0, -1)])
        assert p.conjugate() == Polynomial(
            [GaussianRational(1, -2), GaussianRational(0, 1)])

    def test_json_round_trip(self):
        p = Polynomial([GaussianRational(1, 1), 0, 3])
        assert Polynomial.from_json(p.to_json()) == p

    def test_constant_hashes_as_its_scalar(self):
        assert len({Polynomial([1]), 1}) == 1
        assert len({Polynomial([]), 0}) == 1
        half = Fraction(1, 2)
        assert len({Polynomial([GaussianRational(half)]), half}) == 1
        i = GaussianRational(0, 1)
        assert len({Polynomial([i]), i}) == 1


# --- the integer-numerator storage against a Fraction reference ------------
#
# The reference polynomial is a list of (re, im) Fraction pairs, lowest
# degree first, with trailing zero pairs stripped.

ref_parts = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-30, 30),
                                st.integers(1, 12)))
ref_scalars = st.builds(GaussianRational, ref_parts, ref_parts)
ref_polys = st.one_of(st.just(Polynomial()),
                      st.lists(ref_scalars, max_size=6).map(Polynomial))
_Z = (Fraction(0), Fraction(0))


def _ref(p):
    return [(c.re, c.im) for c in p.coefficients]


def _ref_strip(a):
    while a and a[-1] == _Z:
        a.pop()
    return a


def _ref_times(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [_Z] * (n - len(a)), b + [_Z] * (n - len(b))
    return _ref_strip([(x[0] + sign * y[0], x[1] + sign * y[1])
                       for x, y in zip(a, b)])


def _ref_mul(a, b):
    out = [_Z] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            z = _ref_times(x, y)
            out[i + j] = (out[i + j][0] + z[0], out[i + j][1] + z[1])
    return _ref_strip(out)


def _ref_eval(a, z):
    acc = _Z
    for c in reversed(a):
        acc = _ref_times(acc, z)
        acc = (acc[0] + c[0], acc[1] + c[1])
    return acc


def _ref_shift(a, t):
    acc = []
    for c in reversed(a):
        acc = _ref_add(_ref_mul(acc, [t, (Fraction(1), Fraction(0))]), [c])
    return acc


def _pair(z):
    z = GaussianRational(z)
    return (z.re, z.im)


def _canonical(p):
    """``p`` itself, once its storage is checked to be canonical."""
    assert p._den > 0
    assert gcd(p._den, *p._re, *p._im) == 1
    assert all(part[-1] for part in (p._re, p._im) if part)
    return p


class TestIntegerNumerators:
    @given(ref_polys, ref_polys, st.one_of(ref_scalars, small_ints))
    def test_ring_operations(self, p, q, s):
        a, b = _ref(p), _ref(q)
        _canonical(p)
        assert _ref(_canonical(p + q)) == _ref_add(a, b)
        assert _ref(_canonical(p - q)) == _ref_add(a, b, -1)
        assert _ref(_canonical(-p)) == _ref_add([], a, -1)
        assert _ref(_canonical(p * q)) == _ref_mul(a, b)
        scaled = _ref_mul(a, _ref_strip([_pair(s)]))
        assert _ref(_canonical(p * s)) == scaled
        assert _ref(_canonical(s * p)) == scaled

    @given(ref_polys, ref_polys)
    def test_divmod(self, p, q):
        if q.is_zero():
            return
        quotient, remainder = divmod(p, q)
        _canonical(quotient)
        _canonical(remainder)
        assert _ref_add(_ref_mul(_ref(quotient), _ref(q)),
                        _ref(remainder)) == _ref(p)
        assert remainder.is_zero() or remainder.degree < q.degree

    @given(ref_polys, small_ints, ref_scalars)
    def test_shift(self, p, n, z):
        for offset in (n, z):
            shifted = _canonical(p.shift(offset))
            assert _ref(shifted) == _ref_shift(_ref(p), _pair(offset))

    @given(ref_polys, st.one_of(ref_scalars, small_ints))
    def test_derivative_conjugate_value_and_json(self, p, z):
        a = _ref(p)
        assert _ref(_canonical(p.derivative())) == _ref_strip(
            [(n * re, n * im) for n, (re, im) in enumerate(a)][1:])
        assert _ref(_canonical(p.conjugate())) == [(re, -im)
                                                   for re, im in a]
        assert p(z) == GaussianRational(*_ref_eval(a, _pair(z)))
        blob = p.to_json()
        assert blob == [{"re": f"{re.numerator}/{re.denominator}",
                         "im": f"{im.numerator}/{im.denominator}"}
                        for re, im in a]
        assert _canonical(Polynomial.from_json(blob)) == p

    @given(st.lists(st.one_of(ref_scalars, small_ints), max_size=4))
    def test_from_roots(self, roots):
        expected = [(Fraction(1), Fraction(0))]
        for r in roots:
            expected = _ref_mul(expected, [_ref_times(_pair(r), _pair(-1)),
                                           (Fraction(1), Fraction(0))])
        assert _ref(_canonical(Polynomial.from_roots(roots))) == expected

    @given(ref_polys, small_ints, st.integers(1, 3))
    def test_float_values_bit_equal(self, p, start, step):
        points = range(start, start + 12 * step, step)
        re, im = _float_values(p, points)
        for n, x, y in zip(points, re, im, strict=True):
            value = complex(p(n))
            assert (x.hex(), y.hex()) == (value.real.hex(),
                                          value.imag.hex())


def test_integer_path_constructs_no_fraction(monkeypatch):
    """Raising powers, raising products and the composition of integer
    commutant members stay on Python ints: no Fraction and no
    GaussianRational is built."""
    x = Polynomial.x()
    raise_, lower = make_generator("Raise"), make_generator("Lower")
    d = make_generator("D")
    a = raise_ * raise_ * d + lower * 3 + CanonicalOperator({0: x * x - 5})
    b = d * lower * lower + raise_ * CanonicalOperator({0: x + 2})
    assert szego_commutes(a) and szego_commutes(b)

    built = []
    new, init = fractions.Fraction.__new__, GaussianRational.__init__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    def counting_init(self, *args):
        built.append(type(self))
        init(self, *args)

    monkeypatch.setattr(fractions.Fraction, "__new__",
                        staticmethod(counting_new))
    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    make_generator("Raise") ** 40
    raising_product(40)
    product = compose(a, b)
    monkeypatch.undo()
    assert built == []
    assert product == a * b and szego_commutes(product)


def test_module_doctests():
    result = doctest.testmod(mucut.exact)
    assert result.attempted > 0 and result.failed == 0


def test_bezout():
    for a, b in [(12, 18), (0, 5), (7, 0), (-4, 6), (1, 1)]:
        g, x, y = bezout(a, b)
        assert g == a * x + b * y
        assert g >= 0


def test_primitive():
    assert primitive((4, 6)) == (2, 3)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((-3, 0)) == (-1, 0)
    with pytest.raises(ZeroVector):
        primitive((0, 0))


class TestUnimodular2:
    def test_determinant_gate(self):
        with pytest.raises(ValueError):
            Unimodular2(((2, 0), (0, 1)))

    def test_inverse(self):
        m = Unimodular2(((1, 1), (1, 2)))
        assert m @ m.inverse() == Unimodular2.identity()
        assert m.inverse() @ m == Unimodular2.identity()

    def test_apply(self):
        m = Unimodular2(((1, 1), (1, 2)))
        assert m.apply((1, 0)) == (1, 1)
        assert m.apply((1, 1)) == (2, 3)

    def test_det_values(self):
        assert Unimodular2(((0, 1), (1, 0))).det == -1
        assert Unimodular2(((1, 5), (0, 1))).det == 1
