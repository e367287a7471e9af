"""Mode-operator calculus: generators, commutation criteria, factorization."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mucut import (CanonicalOperator, GaussianRational, NotInCommutant,
                   Parity, Polynomial, WindowTooLarge, adjoint,
                   commutant_factorize, commutator, compose, make_generator,
                   raising_product, recompose_factors, required_vanishing,
                   shift_divisor, szego_commutator_entries, szego_commutes,
                   verify_pk_identity)
from mucut.oracle import (_leak_divisor, exact_entries, matrix_commutes,
                          projector_commutator_entries)
from mucut.selftest import _mirrored_commutes

D = make_generator("D")
Raise = make_generator("Raise")
Lower = make_generator("Lower")
RaiseEven = make_generator("RaiseEven")
LowerEven = make_generator("LowerEven")

coeffs = st.integers(min_value=-9, max_value=9)
polys = st.lists(coeffs, min_size=1, max_size=4).map(Polynomial)
operators = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    polys.filter(lambda p: not p.is_zero()),
    min_size=1, max_size=3,
).map(CanonicalOperator)


def test_generator_terms():
    assert D.terms == {0: Polynomial([0, 1])}
    assert Raise.terms == {1: Polynomial([1, 1])}
    assert Lower.terms == {-1: Polynomial([0, 1])}
    assert RaiseEven.terms == {2: Polynomial([2, 1])}
    assert LowerEven.terms == {-2: Polynomial([0, 1])}


def test_generator_mode_action():
    def image(a, n):
        return {row: v for (row, col), v in exact_entries(a, 4).items()
                if col == n}
    assert image(Raise, 0) == {1: GaussianRational(1)}
    assert image(Lower, 0) == {}
    assert image(D, -3) == {-3: GaussianRational(-3)}


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        make_generator("Shift")


def test_pk_identity_small_k():
    for k in range(1, 11):
        assert verify_pk_identity(k)
    assert raising_product(2) == Polynomial([2, 3, 1])  # (x+1)(x+2)


def test_compose_examples():
    e_itheta = CanonicalOperator({1: Polynomial([1])})
    assert commutator(D, e_itheta) == e_itheta
    assert compose(Raise, Raise).terms == {2: Polynomial([2, 3, 1])}
    assert compose(Raise, Lower).terms == {0: Polynomial([0, 0, 1])}
    assert compose(Lower, Raise).terms == {0: Polynomial([1, 2, 1])}


@given(operators, operators, operators)
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(operators, operators, operators)
def test_compose_bilinear(a, b, c):
    assert compose(a, b + c) == compose(a, b) + compose(a, c)
    assert compose(a + b, c) == compose(a, c) + compose(b, c)


def test_adjoint_examples():
    assert adjoint(Raise) == Lower
    assert adjoint(D) == D
    i = GaussianRational(0, 1)
    assert adjoint(i * D) == -i * D


@given(operators)
def test_adjoint_involution(a):
    assert adjoint(adjoint(a)) == a


@given(operators, operators)
def test_adjoint_reverses_products(a, b):
    assert adjoint(compose(a, b)) == compose(adjoint(b), adjoint(a))


class TestCommutationCriterion:
    def test_generators_commute(self):
        for g in (D, Raise, Lower):
            assert szego_commutes(g, Parity.FULL)
        for g in (D, RaiseEven, LowerEven):
            assert szego_commutes(g, Parity.EVEN)

    def test_pure_phase_fails(self):
        a = CanonicalOperator({1: Polynomial([1])})
        assert not szego_commutes(a, Parity.FULL)

    def test_even_negative_shift(self):
        a = CanonicalOperator({-2: Polynomial.from_roots([0, 2])})
        assert szego_commutes(a, Parity.EVEN)
        assert matrix_commutes(a, 16, Parity.EVEN)

    def test_reversed_even_lowering_fails(self):
        a = CanonicalOperator({-2: Polynomial([-2, 1])})
        assert not szego_commutes(a, Parity.EVEN)
        entries = dict_entries(a, Parity.EVEN, window=8)
        assert entries[(-2, 0)] == GaussianRational(2)

    def test_odd_shift_never_commutes_even(self):
        a = CanonicalOperator({3: Polynomial([5, 1])})
        assert not szego_commutes(a, Parity.EVEN)

    def test_uniform_range_flag_differs_on_lower(self):
        # the selftest's mirrored diagnostic rule rejects a true generator
        assert szego_commutes(Lower, Parity.FULL)
        assert not _mirrored_commutes(Lower, Parity.FULL)

    def test_required_vanishing_sets(self):
        assert required_vanishing(0, Parity.FULL) == []
        assert required_vanishing(2, Parity.FULL) == [-2, -1]
        assert required_vanishing(-2, Parity.FULL) == [0, 1]
        assert required_vanishing(4, Parity.EVEN) == [-4, -2]
        assert required_vanishing(-4, Parity.EVEN) == [0, 2]
        assert required_vanishing(3, Parity.EVEN) is None

    @given(operators)
    def test_matches_matrix_route(self, a):
        for parity in Parity:
            assert szego_commutes(a, parity) == matrix_commutes(a, 24, parity)


def dict_entries(a, parity, window):
    return {(r, c): v
            for r, c, v in szego_commutator_entries(a, parity, window=window)}


class TestCommutatorEntries:
    def test_raise_is_clean(self):
        assert szego_commutator_entries(Raise, Parity.FULL) == []

    def test_single_entry_families(self):
        up = CanonicalOperator({1: Polynomial([1])})
        assert szego_commutator_entries(up, Parity.FULL) == [
            (0, -1, GaussianRational(1))]
        down = CanonicalOperator({-1: Polynomial([1])})
        assert szego_commutator_entries(down, Parity.FULL) == [
            (-1, 0, GaussianRational(-1))]

    @given(operators)
    def test_empty_iff_commutes(self, a):
        empty = szego_commutator_entries(a, Parity.FULL) == []
        assert empty == szego_commutes(a, Parity.FULL)

    # odd shifts against the even projector whose leaks each have a row or
    # a column outside a small window
    @given(operators, st.sampled_from(list(Parity)), st.integers(0, 24))
    @example(CanonicalOperator({3: Polynomial([1])}), Parity.EVEN, 1)
    @example(CanonicalOperator({-5: Polynomial([1])}), Parity.EVEN, 2)
    @example(CanonicalOperator({5: Polynomial([1])}), Parity.EVEN, 2)
    def test_matches_projector_oracle(self, a, parity, window):
        assert dict_entries(a, parity, window) == projector_commutator_entries(
            a, window, parity)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            szego_commutator_entries(Raise, Parity.EVEN, window=-5)

    def test_window_bounded_before_enumeration(self):
        for parity in Parity:
            with pytest.raises(WindowTooLarge):
                szego_commutator_entries(Raise, parity, window=10**6)


class TestRealization:
    """Matrix entries on a mode window, exactly, from the oracle."""

    def test_diagonal(self):
        entries = exact_entries(D, 2)
        assert [entries.get((n, n), 0) for n in range(-2, 3)] == [
            -2, -1, 0, 1, 2]

    def test_subdiagonal_shift(self):
        entries = exact_entries(CanonicalOperator({1: Polynomial([1])}), 2)
        assert entries[0, -1] == 1
        assert (3, 2) not in entries  # mode 3 lies outside the window

    @given(operators, operators)
    def test_interior_window_closure(self, a, b):
        # entries(a b)[row, col] == sum_l a[row, l] b[l, col] on the modes
        # no truncated sum reaches, checked exactly
        window = 32
        a_by_col = {}
        for (row, l), value in exact_entries(a, window).items():
            a_by_col.setdefault(l, []).append((row, value))
        raw = {}
        for (l, col), vb in exact_entries(b, window).items():
            for row, va in a_by_col.get(l, ()):
                raw[row, col] = raw.get((row, col), 0) + va * vb
        pad = a.bandwidth + b.bandwidth
        inner = range(-window + pad, window - pad + 1)

        def interior(entries):
            return {key: v for key, v in entries.items()
                    if v and key[0] in inner and key[1] in inner}

        assert interior(raw) == interior(exact_entries(compose(a, b), window))


class TestFactorization:
    def test_spec_examples(self):
        assert commutant_factorize(compose(Raise, Raise))[2] == Polynomial([1])
        built = CanonicalOperator(
            {1: Polynomial([1, 1]) * Polynomial([-5, 1])})
        assert commutant_factorize(built)[1] == Polynomial([-5, 1])
        assert commutant_factorize(D)[0] == Polynomial([0, 1])

    def test_rejects_noncommuting(self):
        bad = CanonicalOperator({1: Polynomial([1])})
        with pytest.raises(NotInCommutant):
            commutant_factorize(bad)

    def test_divisors(self):
        assert shift_divisor(2, Parity.FULL) == Polynomial([2, 3, 1])
        assert shift_divisor(-1, Parity.FULL) == Polynomial([0, 1])
        assert shift_divisor(-2, Parity.FULL) == Polynomial.from_roots([0, 1])
        assert shift_divisor(2, Parity.EVEN) == Polynomial([2, 1])
        assert shift_divisor(-4, Parity.EVEN) == Polynomial.from_roots([0, 2])

    def test_divisors_match_leaking_modes(self):
        # the table against the modes each shift carries across the cutoff
        for parity in Parity:
            for k in range(-8, 9):
                if parity is Parity.EVEN and k % 2:
                    with pytest.raises(ValueError):
                        shift_divisor(k, parity)
                    continue
                assert shift_divisor(k, parity) == _leak_divisor(k, parity)

    @given(operators, st.sampled_from(list(Parity)))
    def test_round_trip(self, a, parity):
        lifted = {}
        for k, r in a.terms.items():
            if parity is Parity.EVEN and k % 2:
                continue
            lifted[k] = r * shift_divisor(k, parity)
        member = CanonicalOperator(lifted)
        if member.is_zero():
            return
        assert szego_commutes(member, parity)
        factors = commutant_factorize(member, parity)
        assert recompose_factors(factors, parity) == member


@given(operators)
def test_projected_compression_never_smoothing(a):
    # a nonzero polynomial term cannot vanish on every retained mode, so the
    # compression to modes >= 0 keeps at least one nonzero entry per term
    window = 24
    entries = exact_entries(a, window)
    for k, q in a.terms.items():
        cols = range(max(0, -k), window - max(0, k) + 1)
        witnessed = any((n + k, n) in entries for n in cols)
        assert witnessed == any(bool(q(n)) for n in cols)
        assert witnessed


def test_zero_polynomials_not_stored():
    a = CanonicalOperator({0: Polynomial([0]), 1: Polynomial([1])})
    assert list(a.terms) == [1]
    assert (Raise - Raise).is_zero()
