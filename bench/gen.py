"""Seeded input generation as plain JSON data, independent of mucut.

Inputs are built with stdlib ``Fraction`` arithmetic and written in
mucut's JSON payload form, so the same spec feeds the library (through
``from_json``) and the command line (as an argv payload), and its digest
does not depend on the code under test. A complex rational is a pair
``(re, im)`` of Fractions; a polynomial is a list of them, lowest degree
first.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd
from random import Random

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def strip(p):
    p = list(p)
    while p and p[-1] == ZERO:
        p.pop()
    return p


def pmul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = cadd(out[i + j], cmul(a, b))
    return strip(out)


def padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = cadd(out[i], c)
    return strip(out)


def peval(p, x):
    acc = ZERO
    for c in reversed(p):
        acc = cadd(cmul(acc, x), c)
    return acc


def from_roots(roots):
    p = [ONE]
    for r in roots:
        p = pmul(p, [(Fraction(-r), Fraction(0)), ONE])
    return p


def vanishing_modes(k: int, parity: str):
    """Modes where the k-shift polynomial of a commutant member vanishes
    (the paper's index ranges, restated here as the generator's oracle)."""
    if k == 0:
        return []
    if parity == "full":
        return list(range(-k, 0)) if k > 0 else list(range(0, -k))
    assert k % 2 == 0, "even parity admits only even shifts"
    j = abs(k) // 2
    return list(range(-2 * j, 0, 2)) if k > 0 else list(range(0, 2 * j, 2))


def rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def coeff_json(c) -> dict:
    return {"re": rat_str(c[0]), "im": rat_str(c[1])}


def coeff_from_json(d):
    return (Fraction(d["re"]), Fraction(d["im"]))


def poly_json(p) -> list:
    return [coeff_json(c) for c in strip(p)]


def poly_from_json(data):
    return [coeff_from_json(c) for c in data]


def op_json(terms: dict) -> dict:
    """Operator payload ``{"terms": [{"k", "poly"}]}`` in canonical order."""
    return {"terms": [{"k": k, "poly": poly_json(terms[k])}
                      for k in sorted(terms) if strip(terms[k])]}


def rand_coeff(rng: Random, bound: int, nonintegral: bool):
    dens = (2, 3, 5, 7) if nonintegral else (1,)
    while True:
        c = (Fraction(rng.randint(-bound, bound), rng.choice(dens)),
             Fraction(rng.randint(-bound, bound), rng.choice(dens)))
        if c != ZERO:
            return c


def rand_poly(rng: Random, degree: int, bound: int = 9,
              nonintegral: bool = False):
    """Polynomial of exactly the given degree."""
    coeffs = [rand_coeff(rng, bound, nonintegral) if rng.random() < 0.8
              else ZERO for _ in range(degree)]
    return coeffs + [rand_coeff(rng, bound, nonintegral)]


def member(rng: Random, parity: str, order: int, shifts,
           nonintegral: bool = False, bound: int = 9) -> dict:
    """Commutant member of exact order ``order``: each shift k carries
    ``cofactor * prod(x - n for n in vanishing_modes(k))`` with the
    cofactor degree chosen so every term has degree at most ``order``
    and the first shift attains it."""
    terms = {}
    for i, k in enumerate(shifts):
        roots = vanishing_modes(k, parity)
        room = order - len(roots)
        if room < 0:
            continue
        degree = room if i == 0 else rng.randint(0, room)
        terms[k] = pmul(rand_poly(rng, degree, bound, nonintegral),
                        from_roots(roots))
    return terms


def digest(specs) -> str:
    blob = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def coeff_bits(c) -> int:
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
               for x in c)


def is_integral(c) -> bool:
    return c[0].denominator == 1 and c[1].denominator == 1


def spread_order(rng: Random, kinds):
    """Order a multiset of kinds so each kind is spread evenly over the
    cycle; any prefix of the cycle then costs about its share of the whole.
    Ties between kinds are broken by the seed."""
    counts = {}
    for kind in kinds:
        counts[kind] = counts.get(kind, 0) + 1
    slots = []
    for kind, n in counts.items():
        offset = rng.random()
        slots += [((j + offset) / n, kind) for j in range(n)]
    slots.sort()
    return [kind for _, kind in slots]


def rand_unimodular(rng: Random, steps: int = 5):
    m = ((1, 0), (0, 1))
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            f = ((1, rng.randint(-3, 3)), (0, 1))
        elif kind == 1:
            f = ((1, 0), (rng.randint(-3, 3), 1))
        else:
            f = ((0, 1), (1, 0))
        m = ((f[0][0] * m[0][0] + f[0][1] * m[1][0],
              f[0][0] * m[0][1] + f[0][1] * m[1][1]),
             (f[1][0] * m[0][0] + f[1][1] * m[1][0],
              f[1][0] * m[0][1] + f[1][1] * m[1][1]))
    return [list(m[0]), list(m[1])]


def apply2(m, v):
    return [m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]]


def primitive2(v):
    g = gcd(abs(v[0]), abs(v[1]))
    return [v[0] // g, v[1] // g]


def rand_cone(rng: Random, bound: int = 9):
    while True:
        u = [rng.randint(-bound, bound), rng.randint(-bound, bound)]
        v = [rng.randint(-bound, bound), rng.randint(-bound, bound)]
        if u == [0, 0] or v == [0, 0] or u[0] * v[1] - u[1] * v[0] == 0:
            continue
        return [primitive2(u), primitive2(v)]


def rand_even_jet(rng: Random, dmax: int, bound: int = 9):
    """Even jet as ``{"dmax", "coeffs"}`` with at least one monomial."""
    coeffs = []
    for k in range(dmax + 1):
        for l in range(dmax + 1 - k):
            if (k + l) % 2 == 0 and rng.random() < 0.5:
                coeffs.append({"k": k, "l": l,
                               "value": coeff_json(rand_coeff(rng, bound,
                                                              False))})
    if not coeffs:
        coeffs.append({"k": 0, "l": dmax - dmax % 2,
                       "value": coeff_json(ONE)})
    return {"dmax": dmax, "coeffs": coeffs}
