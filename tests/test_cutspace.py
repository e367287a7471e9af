"""Cut-space jets: smooth extension, pullbacks, pushforwards, round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mucut import (GaussianRational, Jet, LaurentSymbol, NotAdmissible,
                   OddJet, Polynomial, SymbolVariant, extends_smoothly,
                   leading_symbol, make_generator, odd_monomials,
                   pullback_jet, pushforward_symbol)

EVEN = SymbolVariant.M_PLUS_EVEN
HALF = SymbolVariant.M_PLUS_PLUS

one = GaussianRational(1)


def jet(dmax, coeffs):
    return Jet(dmax, coeffs)


def hom(degree, coeffs):
    return LaurentSymbol.homogeneous(degree, coeffs)


gaussian_ints = st.builds(GaussianRational,
                          st.integers(min_value=-5, max_value=5),
                          st.integers(min_value=-5, max_value=5))
nonzero = gaussian_ints.filter(bool)
keys = st.tuples(st.integers(min_value=0, max_value=6),
                 st.integers(min_value=0, max_value=6)).filter(
                     lambda kl: kl[0] + kl[1] <= 6)
jets = st.dictionaries(keys, nonzero, max_size=4).map(lambda c: Jet(6, c))
even_jets = st.dictionaries(
    keys.filter(lambda kl: (kl[0] + kl[1]) % 2 == 0),
    nonzero, max_size=4).map(lambda c: Jet(6, c))


class TestSmoothExtension:
    def test_table(self):
        assert extends_smoothly(jet(2, {(2, 0): one}))
        assert not extends_smoothly(jet(1, {(1, 0): one}))
        assert extends_smoothly(jet(2, {(1, 1): one, (0, 2): one}))

    def test_odd_monomials_listing(self):
        j = jet(3, {(1, 0): one, (1, 1): one, (0, 3): one})
        assert odd_monomials(j) == [(0, 3), (1, 0)]

    @given(jets)
    def test_definition(self, j):
        assert extends_smoothly(j) == all(
            (k + l) % 2 == 0 for k, l in j.coeffs)


class TestPullback:
    def test_table(self):
        z2 = jet(2, {(2, 0): one})
        zbar2 = jet(2, {(0, 2): one})
        abs2 = jet(2, {(1, 1): one})
        assert pullback_jet(z2, EVEN) == hom(1, {-2: one})
        assert pullback_jet(z2, HALF) == hom(1, {-1: one})
        assert pullback_jet(abs2, EVEN) == hom(1, {0: one})
        assert pullback_jet(abs2, HALF) == hom(1, {0: one})
        assert pullback_jet(zbar2, EVEN) == hom(1, {2: one})
        assert pullback_jet(zbar2, HALF) == hom(1, {1: one})

    def test_mixed_degrees(self):
        j = jet(4, {(1, 1): one, (2, 2): GaussianRational(3)})
        sym = pullback_jet(j, EVEN)
        assert sym.modes[0] == Polynomial([0, 1, 3])

    @given(jets)
    def test_parity_gate(self, j):
        for variant in (EVEN, HALF):
            if extends_smoothly(j):
                pullback_jet(j, variant)
            else:
                with pytest.raises(OddJet):
                    pullback_jet(j, variant)

    @given(even_jets, even_jets)
    def test_multiplicative(self, a, b):
        product = a * b
        for variant in (EVEN, HALF):
            assert pullback_jet(product, variant) == (
                pullback_jet(a, variant) * pullback_jet(b, variant))


class TestPushforward:
    def test_examples(self):
        assert pushforward_symbol(hom(1, {1: one}), HALF) == jet(
            2, {(0, 2): one})
        for variant in (EVEN, HALF):
            assert pushforward_symbol(hom(1, {0: one}), variant) == jet(
                2, {(1, 1): one})
        assert pushforward_symbol(hom(1, {-2: one}), EVEN) == jet(
            2, {(2, 0): one})

    def test_rejects_inadmissible(self):
        with pytest.raises(NotAdmissible):
            pushforward_symbol(hom(1, {2: one}), HALF)

    def test_generator_correspondence(self):
        half_images = {
            name: pushforward_symbol(
                leading_symbol(make_generator(name)), HALF)
            for name in ("D", "Raise", "Lower")}
        assert half_images["D"] == jet(2, {(1, 1): one})
        assert half_images["Raise"] == jet(2, {(0, 2): one})
        assert half_images["Lower"] == jet(2, {(2, 0): one})
        even_images = {
            name: pushforward_symbol(
                leading_symbol(make_generator(name)), EVEN)
            for name in ("D", "RaiseEven", "LowerEven")}
        assert even_images["D"] == jet(2, {(1, 1): one})
        assert even_images["RaiseEven"] == jet(2, {(0, 2): one})
        assert even_images["LowerEven"] == jet(2, {(2, 0): one})

    @given(even_jets)
    def test_round_trip_from_jets(self, j):
        for variant in (EVEN, HALF):
            sym = pullback_jet(j, variant)
            if sym.is_zero():
                continue
            assert pushforward_symbol(sym, variant) == j


@st.composite
def admissible(draw, variant):
    if variant is HALF:
        degree = draw(st.integers(min_value=0, max_value=4))
        allowed = range(-degree, degree + 1)
    else:
        degree = draw(st.integers(min_value=0, max_value=3))
        allowed = range(-2 * degree, 2 * degree + 1, 2)
    ks = draw(st.lists(st.sampled_from(list(allowed)),
                       min_size=1, max_size=3, unique=True))
    return hom(degree, {k: draw(nonzero) for k in ks})


@given(st.sampled_from([EVEN, HALF]), st.data())
def test_round_trip_from_symbols(variant, data):
    sym = data.draw(admissible(variant))
    assert pullback_jet(pushforward_symbol(sym, variant), variant) == sym


class TestJetType:
    def test_total_degree_gate(self):
        with pytest.raises(ValueError):
            Jet(2, {(2, 1): one})

    def test_zero_coefficients_dropped(self):
        j = Jet(4, {(1, 1): GaussianRational(), (2, 0): one})
        assert list(j.coeffs) == [(2, 0)]

    def test_algebra(self):
        a = jet(2, {(1, 0): one})
        b = jet(2, {(0, 1): one})
        assert (a * b).coeffs[1, 1] == one
        assert (a + b - a) == b

    def test_json_round_trip(self):
        j = jet(3, {(2, 1): GaussianRational(1, -2), (0, 0): one})
        blob = j.to_json()
        assert blob["dmax"] == 3
        assert Jet.from_json(blob) == j
