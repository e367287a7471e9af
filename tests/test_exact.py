"""Exact scalar and polynomial layer: field axioms, normalization, division."""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mucut.exact
from mucut import (FloatOverflow, GaussianRational, NonzeroRemainder,
                   Polynomial, Unimodular2, ZeroVector, bezout,
                   poly_divide_exact, primitive, rational_from_str,
                   rational_to_str)

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
