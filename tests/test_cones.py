"""Lattice cones: cutting, unimodular maps, normal forms, cut plans."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mucut import (FULL_PLANE, Cone2, ConeNormalForm, DegenerateCut,
                   EmptyCut, HalfPlane, NotCoprime, Unimodular2,
                   apply_unimodular, contains, cut_cone, cut_plan,
                   equivalence_witness, gl_equivalent, lattice_index,
                   lens_cone, normal_form, sphere_cone)

SHEAR = Unimodular2(((1, 1), (1, 2)))

vec_coords = st.integers(min_value=-9, max_value=9)
vectors = st.tuples(vec_coords, vec_coords).filter(lambda v: v != (0, 0))
cones = st.tuples(vectors, vectors).filter(
    lambda uv: uv[0][0] * uv[1][1] - uv[0][1] * uv[1][0] != 0
).map(lambda uv: Cone2(*uv))


@st.composite
def unimodulars(draw):
    m = Unimodular2.identity()
    moves = draw(st.lists(st.tuples(st.sampled_from("lrs"),
                                    st.integers(min_value=-3, max_value=3)),
                          max_size=6))
    for kind, amount in moves:
        if kind == "l":
            m = m @ Unimodular2(((1, amount), (0, 1)))
        elif kind == "r":
            m = m @ Unimodular2(((1, 0), (amount, 1)))
        else:
            m = m @ Unimodular2(((0, 1), (1, 0)))
    return m


class TestConstruction:
    def test_lens(self):
        c = lens_cone(2, 1)
        assert c == Cone2((1, 0), (2, 1))
        with pytest.raises(NotCoprime):
            lens_cone(2, 2)

    def test_sphere(self):
        assert sphere_cone() == Cone2((-1, 1), (1, 1))

    def test_generators_primitivized(self):
        assert Cone2((2, 0), (0, 3)) == Cone2((1, 0), (0, 1))

    def test_unordered_equality(self):
        assert Cone2((1, 0), (0, 1)) == Cone2((0, 1), (1, 0))
        assert hash(Cone2((1, 0), (0, 1))) == hash(Cone2((0, 1), (1, 0)))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Cone2((1, 0), (2, 0))
        with pytest.raises(ValueError):
            Cone2((1, 1), (-2, -2))

    def test_json(self):
        assert lens_cone(1, 1).to_json() == {
            "generators": [[1, 0], [1, 1]]}

    def test_json_payload_forms(self):
        assert Cone2.from_json({"lens": [7, 3]}) == lens_cone(7, 3)
        assert Cone2.from_json({"sphere": True}) == sphere_cone()
        assert Cone2.from_json(lens_cone(2, 1).to_json()) == lens_cone(2, 1)
        for bad in ({"lens": [1]}, {"lens": [0, 1]}, {"lens": ["a", 1]},
                    {"lens": [True, 1]}, {"lens": 3}):
            with pytest.raises(ValueError):
                Cone2.from_json(bad)
        with pytest.raises(NotCoprime):
            Cone2.from_json({"lens": [4, 2]})


class TestContains:
    def test_sphere_examples(self):
        s = sphere_cone()
        assert contains(s, (0, 5))
        assert contains(s, (2, 3))
        assert not contains(s, (3, 2))

    def test_origin_always_inside(self):
        assert contains(lens_cone(3, 2), (0, 0))

    def test_boundary_rays(self):
        assert contains(lens_cone(1, 1), (4, 0))
        assert not contains(lens_cone(1, 1), (-1, 0))

    @given(cones, st.integers(0, 8), st.integers(0, 8))
    def test_generator_combinations_inside(self, c, t1, t2):
        w = (t1 * c.u[0] + t2 * c.v[0], t1 * c.u[1] + t2 * c.v[1])
        assert contains(c, w)


class TestCutCone:
    def test_sphere_cut(self):
        assert cut_cone(sphere_cone(), (3, -2)) == Cone2((2, 3), (1, 1))

    def test_no_op_cut(self):
        c = lens_cone(1, 1)
        assert cut_cone(c, (0, 1)) == c

    def test_degenerate(self):
        with pytest.raises(DegenerateCut):
            cut_cone(lens_cone(1, 1), (0, -1))

    def test_empty(self):
        quadrant = Cone2((1, 0), (0, 1))
        with pytest.raises(EmptyCut):
            cut_cone(quadrant, (-1, -1))

    def test_full_plane_chain(self):
        half = cut_cone(FULL_PLANE, (0, 1))
        assert isinstance(half, HalfPlane)
        c = cut_cone(half, (1, 0))
        assert c == Cone2((1, 0), (0, 1))

    @given(cones, vectors)
    def test_result_contained(self, c, normal):
        try:
            result = cut_cone(c, normal)
        except (EmptyCut, DegenerateCut):
            return
        for gen in (result.u, result.v):
            assert contains(c, gen)
            assert gen[0] * normal[0] + gen[1] * normal[1] >= 0

    @given(cones, vectors)
    def test_keeps_orientation(self, c, normal):
        try:
            result = cut_cone(c, normal)
        except (EmptyCut, DegenerateCut):
            return

        def det(u, v):
            return u[0] * v[1] - u[1] * v[0]

        assert (det(result.u, result.v) > 0) == (det(c.u, c.v) > 0)


class TestUnimodularAction:
    def test_shear_on_lens(self):
        assert apply_unimodular(SHEAR, lens_cone(1, 1)) == Cone2(
            (1, 1), (2, 3))

    def test_identity(self):
        c = lens_cone(3, 2)
        assert apply_unimodular(Unimodular2.identity(), c) == c

    def test_mirror_involution(self):
        mirror = Unimodular2(((1, 0), (0, -1)))
        c = sphere_cone()
        assert apply_unimodular(mirror, apply_unimodular(mirror, c)) == c


class TestLensIdentity:
    def test_all_coprime_pairs(self):
        import math
        pairs = [(p, q) for p in range(1, 13) for q in range(1, p + 1)
                 if math.gcd(p, q) == 1]
        assert len(pairs) == 46
        for p, q in pairs:
            lhs = apply_unimodular(SHEAR, lens_cone(p, q))
            rhs = cut_cone(sphere_cone(), (p + 2 * q, -p - q))
            assert lhs == rhs

    def test_halfspace_sides(self):
        for p, q in [(1, 1), (5, 3), (12, 7)]:
            normal = (p + 2 * q, -p - q)
            assert 1 * normal[0] + 1 * normal[1] == q
            assert -1 * normal[0] + 1 * normal[1] == -2 * p - 3 * q < 0


class TestNormalForm:
    def test_sphere_is_projective_line_cone(self):
        assert normal_form(sphere_cone()) == ConeNormalForm(2, 1)

    def test_quadrant_smooth(self):
        nf = normal_form(Cone2((1, 0), (0, 1)))
        assert nf == ConeNormalForm(1, 0)
        assert nf.is_smooth

    def test_index_matches_p(self):
        for c in (sphere_cone(), lens_cone(3, 2), lens_cone(7, 4)):
            assert normal_form(c).p == lattice_index(c)

    def test_form_gates(self):
        with pytest.raises(ValueError):
            ConeNormalForm(2, 2)
        with pytest.raises(ValueError):
            ConeNormalForm(4, 2)
        with pytest.raises(ValueError):
            ConeNormalForm(3, 0)

    @given(cones, unimodulars())
    def test_invariant(self, c, m):
        assert normal_form(apply_unimodular(m, c)) == normal_form(c)


class TestEquivalence:
    def test_lens_versus_sphere(self):
        assert gl_equivalent(lens_cone(1, 2), sphere_cone())
        assert not gl_equivalent(lens_cone(2, 1), sphere_cone())

    def test_index_obstruction(self):
        assert not gl_equivalent(lens_cone(3, 1), lens_cone(3, 2))

    def test_witness_maps(self):
        w = equivalence_witness(lens_cone(1, 2), sphere_cone())
        assert apply_unimodular(w, lens_cone(1, 2)) == sphere_cone()

    def test_no_witness_when_inequivalent(self):
        assert equivalence_witness(lens_cone(2, 1), sphere_cone()) is None

    @given(cones, unimodulars())
    def test_moved_cone_has_witness(self, c, m):
        moved = apply_unimodular(m, c)
        w = equivalence_witness(c, moved)
        assert w is not None
        assert apply_unimodular(w, c) == moved


class TestCutPlan:
    def test_lens_example(self):
        assert set(cut_plan(lens_cone(1, 1))) == {(0, 1), (1, -1)}

    @given(cones)
    def test_round_trip(self, c):
        first, second = cut_plan(c)
        assert cut_cone(cut_cone(FULL_PLANE, first), second) == c


@given(cones, unimodulars())
def test_lattice_index_invariant(c, m):
    assert lattice_index(apply_unimodular(m, c)) == lattice_index(c)


def test_lattice_index_examples():
    assert lattice_index(sphere_cone()) == 2
    assert lattice_index(lens_cone(7, 3)) == 3
    assert lattice_index(Cone2((1, 0), (0, 1))) == 1
