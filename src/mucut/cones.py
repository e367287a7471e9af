"""Strictly convex rational cones in the plane and their cut calculus.

Generators are primitive integer vectors; every equality is as unordered
generator pairs. Cuts intersect with integer half-planes; the normal form is
the complete unimodular invariant (lattice index together with the canonical
shear residue), computed constructively so equivalences come with an explicit
witness matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DegenerateCut, EmptyCut, NotCoprime
from .exact import Unimodular2, Vec2, _strict_int, bezout, primitive


def _det(u: Vec2, v: Vec2) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _dot(u: Vec2, v: Vec2) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _rot90(n: Vec2) -> Vec2:
    """Counterclockwise quarter turn; spans the boundary of ``<.,n> >= 0``."""
    return (-n[1], n[0])


class FullPlane:
    """The ambient start value of a cut plan: all of the plane minus 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FULL_PLANE"


FULL_PLANE = FullPlane()


@dataclass(frozen=True)
class HalfPlane:
    """Half-plane ``{x : <x, normal> >= 0}``; the result of one ambient cut.

    Its boundary generators are the antipodal pair spanning the edge line,
    which the second cut of a plan then resolves into a strict cone.
    """

    normal: Vec2

    def __post_init__(self):
        object.__setattr__(self, "normal", primitive(self.normal))

    @property
    def generators(self) -> tuple:
        d = _rot90(self.normal)
        return d, (-d[0], -d[1])


@dataclass(frozen=True)
class Cone2:
    """Strictly convex full-dimensional rational cone, by generator pair."""

    u: Vec2
    v: Vec2

    def __post_init__(self):
        object.__setattr__(self, "u", primitive(self.u))
        object.__setattr__(self, "v", primitive(self.v))
        if _det(self.u, self.v) == 0:
            raise ValueError(
                f"generators {self.u} and {self.v} span no 2d cone")

    @property
    def generators(self) -> tuple:
        return self.u, self.v

    def __eq__(self, other):
        if not isinstance(other, Cone2):
            return NotImplemented
        return {self.u, self.v} == {other.u, other.v}

    def __hash__(self):
        return hash(frozenset((self.u, self.v)))

    def to_json(self) -> dict:
        return {"generators": [list(self.u), list(self.v)]}

    @classmethod
    def from_json(cls, data) -> "Cone2":
        """Read ``{"generators": [u, v]}``, ``{"lens": [p, q]}`` or
        ``{"sphere": true}``."""
        if isinstance(data, dict) and data.get("sphere"):
            return sphere_cone()
        if isinstance(data, dict) and "lens" in data:
            lens = data["lens"]
            if not isinstance(lens, list) or len(lens) != 2:
                raise ValueError(f"lens needs two parameters, got {lens!r}")
            p, q = (_strict_int(c, "lens parameter") for c in lens)
            return lens_cone(p, q)
        gens = data.get("generators") if isinstance(data, dict) else None
        if (not isinstance(gens, list) or len(gens) != 2
                or any(not isinstance(g, list) or len(g) != 2 for g in gens)):
            raise ValueError(f"not a two-generator cone object: {data!r}")
        u, v = (tuple(_strict_int(c, "generator coordinate") for c in g)
                for g in gens)
        return cls(u, v)


def lens_cone(p: int, q: int) -> Cone2:
    """The standard lens cone ``cone((1,0), (p,q))`` for coprime p, q >= 1."""
    p, q = int(p), int(q)
    if p < 1 or q < 1:
        raise ValueError("lens parameters must be positive")
    if gcd(p, q) != 1:
        raise NotCoprime(f"lens parameters ({p}, {q}) share a factor")
    return Cone2((1, 0), (p, q))


def sphere_cone() -> Cone2:
    """Moment cone of the punctured cotangent space of the 2-sphere."""
    return Cone2((-1, 1), (1, 1))


def contains(cone: Cone2, w) -> bool:
    """Exact membership: ``w = t1*u + t2*v`` with ``t1, t2 >= 0``, where by
    Cramer's rule each ``t`` has the sign of an integer determinant times
    ``det(u, v)``."""
    w = tuple(int(c) for c in w)
    d = _det(cone.u, cone.v)
    return _det(w, cone.v) * d >= 0 and _det(cone.u, w) * d >= 0


def cut_cone(cone, normal):
    """Intersect with the half-plane ``{<x, normal> >= 0}``.

    Accepts the ambient :data:`FULL_PLANE` (result: a half-plane), a
    :class:`HalfPlane` (result: a strict cone, or the unchanged half-plane
    for a repeated cut), or a :class:`Cone2`. Raises :class:`EmptyCut` when
    both generators strictly fail and :class:`DegenerateCut` when less than
    a full cone survives.
    """
    normal = primitive(normal)
    if isinstance(cone, FullPlane):
        return HalfPlane(normal)
    if isinstance(cone, HalfPlane):
        return _cut_half_plane(cone, normal)
    if not isinstance(cone, Cone2):
        raise TypeError(f"cannot cut {cone!r}")
    pu = _dot(cone.u, normal)
    pv = _dot(cone.v, normal)
    if pu >= 0 and pv >= 0:
        return cone
    if pu < 0 and pv < 0:
        raise EmptyCut(f"cone lies strictly below the cut {normal}")
    if pu == 0 or pv == 0:
        survivor = cone.u if pu == 0 else cone.v
        raise DegenerateCut(
            f"cut {normal} leaves only the ray through {survivor}")
    boundary = _rot90(normal)
    if not contains(cone, boundary):
        boundary = (-boundary[0], -boundary[1])
    if pu < 0:
        new_u, new_v = boundary, cone.v
    else:
        new_u, new_v = cone.u, boundary
    return Cone2(new_u, new_v)


def _cut_half_plane(half: HalfPlane, normal: Vec2):
    if normal == half.normal:
        return half
    if normal == (-half.normal[0], -half.normal[1]):
        raise DegenerateCut(
            f"cut {normal} collapses the half-plane to its boundary line")
    d, anti = half.generators
    kept = d if _dot(d, normal) > 0 else anti
    edge = _rot90(normal)
    if _dot(edge, half.normal) < 0:
        edge = (-edge[0], -edge[1])
    return Cone2(kept, edge)


def apply_unimodular(matrix: Unimodular2, cone: Cone2) -> Cone2:
    """Image cone under a determinant +-1 integer map."""
    new_u = matrix.apply(cone.u)
    new_v = matrix.apply(cone.v)
    # unit-determinant maps preserve primitivity; keep that as an assertion
    assert primitive(new_u) == new_u and primitive(new_v) == new_v
    return Cone2(new_u, new_v)


@dataclass(frozen=True)
class ConeNormalForm:
    """Complete unimodular invariant: lattice index p, shear residue q.

    ``p == 1`` (with ``q == 0``) tags the smooth cones, the orbit of the
    first quadrant.
    """

    p: int
    q: int

    def __post_init__(self):
        if not (self.p >= 1 and 0 <= self.q < self.p):
            raise ValueError(f"({self.p}, {self.q}) out of range")
        if self.q > 0 and gcd(self.p, self.q) != 1:
            raise ValueError(f"({self.p}, {self.q}) not coprime")
        if self.q == 0 and self.p != 1:
            raise ValueError(f"residue 0 only tags the smooth form, got "
                             f"p={self.p}")

    @property
    def is_smooth(self) -> bool:
        return self.p == 1

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q}


_FLIP = Unimodular2(((1, 0), (0, -1)))


def _ordered_candidate(g1: Vec2, g2: Vec2):
    """Canonical data for one generator ordering: map g1 to (1,0), reduce.

    Returns ``((p, q), transform)``.
    """
    g, alpha, beta = bezout(g1[0], g1[1])
    assert g == 1
    transform = Unimodular2(((alpha, beta), (-g1[1], g1[0])))
    a, b = transform.apply(g2)
    if b < 0:
        transform = _FLIP @ transform
        b = -b
    q = a % b
    shear = Unimodular2(((1, (q - a) // b), (0, 1)))
    return (b, q), shear @ transform


def canonical_transform(cone: Cone2):
    """Normal form together with a witness matrix sending the cone to
    ``cone((1, 0), (q, p))``."""
    (p, q), transform = min(_ordered_candidate(cone.u, cone.v),
                            _ordered_candidate(cone.v, cone.u),
                            key=lambda candidate: candidate[0])
    return ConeNormalForm(p, q), transform


def normal_form(cone: Cone2) -> ConeNormalForm:
    """The complete invariant of the cone under integer linear maps.

    ``p`` is the index ``|det(u, v)|`` of the generator pair; ``q`` is the
    canonical residue after mapping one generator to ``(1, 0)`` and shearing,
    minimized lexicographically over the two orderings.
    """
    form, _ = canonical_transform(cone)
    return form


def gl_equivalent(a: Cone2, b: Cone2) -> bool:
    """Whether an integer unit-determinant map carries one cone to the other."""
    return normal_form(a) == normal_form(b)


def equivalence_witness(a: Cone2, b: Cone2) -> Unimodular2 | None:
    """An explicit unimodular matrix mapping ``a`` onto ``b``, if one exists."""
    form_a, t_a = canonical_transform(a)
    form_b, t_b = canonical_transform(b)
    if form_a != form_b:
        return None
    return t_b.inverse() @ t_a


def cut_plan(cone: Cone2) -> tuple:
    """Inward primitive facet normals, one per generator, in generator order.

    Cutting the ambient plane by the two normals in order reproduces the
    cone exactly.
    """
    d = _det(cone.u, cone.v)
    n_u = _rot90(cone.u)
    if d < 0:
        n_u = (-n_u[0], -n_u[1])
    n_v = _rot90(cone.v)
    if d > 0:
        n_v = (-n_v[0], -n_v[1])
    return n_u, n_v


def lattice_index(cone: Cone2) -> int:
    """|det| of the primitive generator pair; 1 exactly for smooth cones."""
    return abs(_det(cone.u, cone.v))
