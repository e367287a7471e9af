"""Leading-symbol calculus: admissibility, lifts, Poisson bracket, towers."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mucut import (CanonicalOperator, GaussianRational, LaurentSymbol,
                   NotAdmissible, NotHomogeneous, Parity, Polynomial,
                   SymbolVariant, ZeroOperator, adjoint,
                   build_commuting_from_symbol, commutator, compose,
                   exactness_witness, is_admissible, leading_symbol,
                   make_generator, poisson_bracket, symbol_tower,
                   szego_commutes, variant_for_parity)

D = make_generator("D")
Raise = make_generator("Raise")
Lower = make_generator("Lower")

i = GaussianRational(0, 1)
minus_i = GaussianRational(0, -1)


def hom(degree, coeffs):
    return LaurentSymbol.homogeneous(degree, coeffs)


gaussian_ints = st.builds(GaussianRational,
                          st.integers(min_value=-5, max_value=5),
                          st.integers(min_value=-5, max_value=5))
nonzero_gaussians = gaussian_ints.filter(bool)
polys = st.lists(st.integers(min_value=-5, max_value=5),
                 min_size=1, max_size=4).map(Polynomial)
symbols = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    polys.filter(lambda p: not p.is_zero()),
    max_size=3,
).map(LaurentSymbol)


@st.composite
def admissible_symbols(draw, variant):
    if variant is SymbolVariant.M_PLUS_PLUS:
        degree = draw(st.integers(min_value=0, max_value=5))
        allowed = list(range(-degree, degree + 1))
    else:
        degree = draw(st.integers(min_value=0, max_value=3))
        allowed = list(range(-2 * degree, 2 * degree + 1, 2))
    ks = draw(st.lists(st.sampled_from(allowed), min_size=1,
                       max_size=3, unique=True))
    coeffs = {k: draw(nonzero_gaussians) for k in ks}
    return hom(degree, coeffs)


def test_variant_pairing():
    assert variant_for_parity(Parity.FULL) is SymbolVariant.M_PLUS_PLUS
    assert variant_for_parity(Parity.EVEN) is SymbolVariant.M_PLUS_EVEN


class TestLeadingSymbol:
    def test_generators(self):
        assert leading_symbol(Raise) == hom(1, {1: GaussianRational(1)})
        assert leading_symbol(D) == hom(1, {0: GaussianRational(1)})

    def test_top_degree_collects_ties(self):
        sym = leading_symbol(Raise + D)
        assert sym == hom(1, {0: GaussianRational(1), 1: GaussianRational(1)})

    def test_square(self):
        assert leading_symbol(compose(Raise, Lower)) == hom(
            2, {0: GaussianRational(1)})

    def test_zero_rejected(self):
        with pytest.raises(ZeroOperator):
            leading_symbol(CanonicalOperator())

    def test_lower_order_mode_dropped(self):
        a = CanonicalOperator({0: Polynomial([0, 0, 1]),
                               1: Polynomial([1])})
        assert leading_symbol(a) == hom(2, {0: GaussianRational(1)})


class TestAdmissibility:
    def test_generator_symbols(self):
        assert is_admissible(hom(1, {1: GaussianRational(1)}),
                             SymbolVariant.M_PLUS_PLUS)
        assert is_admissible(hom(1, {2: GaussianRational(1)}),
                             SymbolVariant.M_PLUS_EVEN)
        assert not is_admissible(hom(1, {2: GaussianRational(1)}),
                                 SymbolVariant.M_PLUS_PLUS)

    def test_odd_mode_rejected_on_even_cut(self):
        assert not is_admissible(hom(1, {1: GaussianRational(1)}),
                                 SymbolVariant.M_PLUS_EVEN)

    def test_inhomogeneous_rejected(self):
        mixed = LaurentSymbol({0: Polynomial([1, 1])})
        with pytest.raises(NotHomogeneous):
            is_admissible(mixed, SymbolVariant.M_PLUS_PLUS)


class TestLift:
    def test_raise_roundtrip(self):
        assert build_commuting_from_symbol(
            hom(1, {1: GaussianRational(1)})) == Raise

    def test_diagonal_square(self):
        built = build_commuting_from_symbol(hom(2, {0: GaussianRational(1)}))
        assert built.terms == {0: Polynomial([0, 0, 1])}

    def test_double_lowering(self):
        built = build_commuting_from_symbol(hom(2, {-2: GaussianRational(1)}))
        assert built == compose(Lower, Lower)

    def test_inadmissible_rejected(self):
        with pytest.raises(NotAdmissible):
            build_commuting_from_symbol(hom(1, {2: GaussianRational(1)}))

    @given(st.sampled_from(list(Parity)), st.data())
    def test_round_trip(self, parity, data):
        sigma = data.draw(admissible_symbols(variant_for_parity(parity)))
        lifted = build_commuting_from_symbol(sigma, parity)
        assert szego_commutes(lifted, parity)
        assert leading_symbol(lifted) == sigma


class TestPoissonBracket:
    s = hom(1, {0: GaussianRational(1)})
    s_up = hom(1, {1: GaussianRational(1)})
    s_down = hom(1, {-1: GaussianRational(1)})

    def test_examples(self):
        assert poisson_bracket(self.s, self.s_up) == i * self.s_up
        assert poisson_bracket(self.s_up, self.s_down) == hom(
            1, {0: GaussianRational(0, -2)})

    @given(symbols)
    def test_self_bracket(self, f):
        assert poisson_bracket(f, f).is_zero()

    @given(symbols, symbols)
    def test_antisymmetric(self, f, g):
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)

    @given(symbols, symbols, symbols)
    def test_leibniz(self, f, g, h):
        assert poisson_bracket(f, g * h) == (
            poisson_bracket(f, g) * h + g * poisson_bracket(f, h))

    @given(symbols, symbols, symbols)
    def test_jacobi(self, f, g, h):
        cyclic = (poisson_bracket(f, poisson_bracket(g, h))
                  + poisson_bracket(g, poisson_bracket(h, f))
                  + poisson_bracket(h, poisson_bracket(f, g)))
        assert cyclic.is_zero()


class TestHomomorphism:
    @given(st.sampled_from(list(Parity)), st.data())
    def test_products_and_brackets(self, parity, data):
        variant = variant_for_parity(parity)
        sa = data.draw(admissible_symbols(variant))
        sb = data.draw(admissible_symbols(variant))
        a = build_commuting_from_symbol(sa, parity)
        b = build_commuting_from_symbol(sb, parity)
        assert leading_symbol(compose(a, b)) == sa * sb
        pb = poisson_bracket(sa, sb)
        lie = commutator(a, b)
        if pb.is_zero():
            # order drops when the bracket degenerates
            assert lie.is_zero() or lie.order < sa.degree + sb.degree - 1
        else:
            assert leading_symbol(lie) == minus_i * pb

    def test_witness_pair(self):
        lie = commutator(Raise, Lower)
        assert leading_symbol(lie) == hom(1, {0: GaussianRational(-2)})
        assert minus_i * poisson_bracket(
            leading_symbol(Raise), leading_symbol(Lower)) == leading_symbol(lie)

    @given(st.sampled_from(list(Parity)), st.data())
    def test_adjoint_symbol(self, parity, data):
        sigma = data.draw(admissible_symbols(variant_for_parity(parity)))
        a = build_commuting_from_symbol(sigma, parity)
        reflected = LaurentSymbol(
            {-k: p.conjugate() for k, p in sigma.modes.items()},
            degree=sigma.degree)
        assert leading_symbol(adjoint(a)) == reflected


class TestExactSequence:
    def test_generator_is_its_own_lift(self):
        m, sigma, rest = exactness_witness(Raise)
        assert m == 1
        assert sigma == leading_symbol(Raise)
        assert rest.is_zero()

    def test_sum_of_generators(self):
        m, sigma, rest = exactness_witness(Raise + D)
        assert m == 1 and rest.is_zero()
        assert sigma == hom(1, {0: GaussianRational(1),
                                1: GaussianRational(1)})

    def test_order_drop(self):
        a = compose(Raise, Lower) + D
        m, sigma, rest = exactness_witness(a)
        assert m == 2
        assert sigma == hom(2, {0: GaussianRational(1)})
        assert not rest.is_zero() and rest.order == 1
        assert szego_commutes(rest)

    @given(st.sampled_from(list(Parity)), st.data())
    def test_tower_reconstructs(self, parity, data):
        sigma = data.draw(admissible_symbols(variant_for_parity(parity)))
        extra = data.draw(admissible_symbols(variant_for_parity(parity)))
        assume(extra.degree != sigma.degree)
        a = (build_commuting_from_symbol(sigma, parity)
             + build_commuting_from_symbol(extra, parity))
        tower = symbol_tower(a, parity)
        assert len(tower) <= a.order + 1
        orders = [order for order, _ in tower]
        assert orders == sorted(orders, reverse=True)
        rebuilt = CanonicalOperator()
        for _, step_sigma in tower:
            rebuilt = rebuilt + build_commuting_from_symbol(step_sigma, parity)
        assert rebuilt == a


def test_symbol_json_round_trip():
    sym = LaurentSymbol({2: Polynomial([0, 1]), -1: Polynomial([3])})
    assert LaurentSymbol.from_json(sym.to_json()) == sym
    tagged = hom(2, {0: GaussianRational(1, 1)})
    back = LaurentSymbol.from_json(tagged.to_json())
    assert back == tagged and back.degree == 2


def test_homogeneous_gate():
    with pytest.raises(ValueError):
        LaurentSymbol({0: Polynomial([1, 1])}, degree=1)
