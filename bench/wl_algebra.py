"""``algebra`` workload: exact commutant algebra on seeded member pairs.

Each request takes a pair of commutant members (parity alternating between
full and even, a third of them with non-integral Gaussian-rational
coefficients) and runs the exact layers end to end: operators, symbols,
polynomial arithmetic, JSON, raising powers, the jet dictionary and a cone
replay. Fraction arithmetic in ``mucut.exact`` does nearly all the work and
numpy none, so integer-content polynomials and a numpy-free core show here
while inertia counting cannot.
"""

from __future__ import annotations

import json
from random import Random

import gen
from spans import NULL

CYCLE = 100
KNOWN_DEFECTS = {}


def defect_probes(seed: int) -> list:
    return []

# (order of a, order of b): fixed per cycle so only coefficients and
# shifts depend on the seed, and every seed gets the same size mix
_ORDERS = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2),
           (4, 4), (5, 3)]
_POOL = {"full": [-3, -2, -1, 0, 1, 2, 3], "even": [-4, -2, 0, 2, 4]}


def _shifts(rng: Random, parity: str, order: int):
    pool = [k for k in _POOL[parity]
            if len(gen.vanishing_modes(k, parity)) <= order]
    return rng.sample(pool, rng.randint(1, min(3, len(pool))))


def generate(seed: int, n: int = CYCLE) -> list:
    rng = Random(f"{seed}:algebra")
    # every k in 1..40 two or three times, in seeded order
    ks = [1 + (j * 40) // n for j in range(n)]
    rng.shuffle(ks)
    specs = []
    for i in range(n):
        parity = ("full", "even")[i % 2]
        oa, ob = _ORDERS[(i // 2) % len(_ORDERS)]
        nonint = i % 3 == 2
        a = gen.member(rng, parity, oa, _shifts(rng, parity, oa), nonint)
        b = gen.member(rng, parity, ob, _shifts(rng, parity, ob), False)
        m = gen.rand_unimodular(rng)
        cone = gen.rand_cone(rng)
        variant = "m++" if parity == "full" else "m+even"
        specs.append({
            "parity": parity,
            "a": gen.op_json(a),
            "b": gen.op_json(b),
            "k": ks[i],
            "offset": gen.coeff_json(gen.rand_coeff(rng, 5, True)),
            "points": [gen.coeff_json(gen.rand_coeff(rng, 7, j % 2 == 1))
                       for j in range(8)],
            "jet": gen.rand_even_jet(rng, rng.randint(2, 6)),
            "variant": variant,
            "cone": cone,
            "unimodular": m,
            "moved": [gen.apply2(m, cone[0]), gen.apply2(m, cone[1])],
        })
    return specs


def census(specs) -> list:
    """Requests a traced run of another workload makes to time this one's
    layers: one pair of each parity and one with non-integral entries."""
    return [0, 1, 2]


def counters(specs) -> dict:
    """Input properties the exact layer's cost depends on."""
    bits = degree = 0
    members = nonintegral = 0
    for spec in specs:
        for key in ("a", "b"):
            members += 1
            coeffs = [gen.coeff_from_json(c) for term in spec[key]["terms"]
                      for c in term["poly"]]
            bits = max([bits] + [gen.coeff_bits(c) for c in coeffs])
            degree = max([degree] + [len(term["poly"]) - 1
                                     for term in spec[key]["terms"]])
            nonintegral += not all(gen.is_integral(c) for c in coeffs)
    return {"exact.max_coeff_bits": bits, "exact.max_degree": degree,
            "exact.nonintegral_share": nonintegral / members}


class Runner:
    def __init__(self, specs, ctx):
        import mucut as m
        self.m = m
        self.specs = specs
        self.raise_op = m.make_generator("Raise")
        self.inputs = []
        for spec in specs:
            op = m.CanonicalOperator.from_json
            gr = m.GaussianRational.from_json
            self.inputs.append({
                "parity": m.Parity(spec["parity"]),
                "variant": m.SymbolVariant(spec["variant"]),
                "a": op(spec["a"]), "b": op(spec["b"]),
                "a_json": spec["a"],
                "k": spec["k"],
                "offset": gr(spec["offset"]),
                "points": [gr(p) for p in spec["points"]],
                "jet": m.Jet.from_json(spec["jet"]),
                "cone": m.Cone2(*spec["cone"]),
                "moved": m.Cone2(*spec["moved"]),
            })

    def kind(self, i: int) -> str:
        return f"pair.{self.specs[i % len(self.specs)]['parity']}"

    def warmup(self) -> None:
        # a fixed request with k = 1: the seed orders the cycle's k, and
        # Raise**k alone ranges from nothing to 76 ms, so running the first
        # request would make set-up time depend on the seed
        Runner(generate(0, n=1), None).run(0, NULL)

    def run(self, i: int, tr):
        m = self.m
        x = self.inputs[i % len(self.inputs)]
        a, b, parity = x["a"], x["b"], x["parity"]
        out = {}
        with tr.span("exact.json_roundtrip"):
            text = json.dumps(a.to_json(), sort_keys=True)
            out["a_back"] = m.CanonicalOperator.from_json(json.loads(text))
            out["a_json"] = json.loads(text)
        with tr.span("operators.compose"):
            c = m.compose(a, b)
        with tr.span("operators.commutator"):
            out["comm"] = m.commutator(a, b)
        with tr.span("operators.adjoint"):
            out["adj"] = m.adjoint(a)
        with tr.span("operators.szego_commutes"):
            out["commutes"] = (m.szego_commutes(c, parity)
                               and m.szego_commutes(out["comm"], parity))
        with tr.span("operators.commutant_factorize"):
            factors = m.commutant_factorize(c, parity)
        with tr.span("operators.recompose"):
            out["recomposed"] = m.recompose_factors(factors, parity)
        with tr.span("symbols.symbol_tower"):
            out["tower"] = m.symbol_tower(c, parity)
        with tr.span("symbols.leading_symbol"):
            la = m.leading_symbol(a)
            lb = m.leading_symbol(b)
            out["lc"] = m.leading_symbol(c)
        with tr.span("symbols.poisson_bracket"):
            out["pb"] = m.poisson_bracket(la, lb)
        with tr.span("symbols.build_commuting"):
            out["lift"] = m.build_commuting_from_symbol(la, parity)
        pa = next(iter(a.terms.values()))
        pb = next(iter(b.terms.values()))
        with tr.span("exact.poly_mul"):
            prod = pa * pb
        with tr.span("exact.poly_shift"):
            shifted = pa.shift(x["offset"])
        dividend = prod + pa
        with tr.span("exact.poly_divmod"):
            quot, rem = divmod(dividend, pb)
        with tr.span("exact.poly_eval"):
            values = [prod(p) for p in x["points"]]
        with tr.span("operators.raise_power"):
            power = self.raise_op ** x["k"]
        with tr.span("operators.raising_product"):
            product = m.raising_product(x["k"])
        with tr.span("cutspace.pullback"):
            sigma = m.pullback_jet(x["jet"], x["variant"])
        with tr.span("cutspace.pushforward"):
            jet_back = m.pushforward_symbol(sigma, x["variant"])
            la_jet = m.pushforward_symbol(la, x["variant"])
        with tr.span("cutspace.pullback"):
            la_back = m.pullback_jet(la_jet, x["variant"])
        with tr.span("cones.normal_form"):
            nf = (m.normal_form(x["cone"]), m.normal_form(x["moved"]))
        with tr.span("cones.cut_plan_replay"):
            n_u, n_v = m.cut_plan(x["cone"])
            rebuilt = m.cut_cone(m.cut_cone(m.FULL_PLANE, n_u), n_v)
        with tr.span("cones.equivalence_witness"):
            witness = m.equivalence_witness(x["cone"], x["moved"])
        out.update(c=c, la=la, lb=lb, prod=prod, shifted=shifted,
                   dividend=dividend, quot=quot, rem=rem, values=values,
                   power=power, product=product, jet_back=jet_back,
                   la_back=la_back, nf=nf, rebuilt=rebuilt, witness=witness,
                   pa=pa, pb_poly=pb)
        return out

    def check(self, i: int, out, tr):
        """``None`` when every output holds, else the first failed check."""
        m = self.m
        x = self.inputs[i % len(self.inputs)]
        a, b, parity = x["a"], x["b"], x["parity"]
        c = out["c"]
        if out["a_back"] != a or out["a_json"] != x["a_json"]:
            return "JSON round trip differs"
        if not out["commutes"]:
            return "product or commutator left the commutant"
        if out["recomposed"] != c:
            return "recomposed factors differ from the product"
        with tr.span("symbols.build_commuting"):
            lifts = [m.build_commuting_from_symbol(s, parity)
                     for _, s in out["tower"]]
        rebuilt = m.CanonicalOperator.zero()
        for lift in lifts:
            rebuilt = rebuilt + lift
        if rebuilt != c:
            return "summed tower lifts do not rebuild the product"
        if out["lc"] != out["la"] * out["lb"]:
            return "product symbol is not the product of symbols"
        drop = a.order + b.order - 1
        comm, pb = out["comm"], out["pb"]
        if pb.is_zero():
            if not comm.is_zero() and comm.order >= drop:
                return "commutator order fails to drop"
        elif (comm.is_zero() or comm.order != drop
              or m.leading_symbol(comm) != m.GaussianRational(0, -1) * pb):
            return "commutator symbol is not -i times the Poisson bracket"
        if m.leading_symbol(out["lift"]) != out["la"]:
            return "lifted symbol does not reproduce its leading symbol"
        adj = out["adj"]
        if m.adjoint(adj) != a or not m.szego_commutes(adj, parity):
            return "adjoint is not an involution on the commutant"
        pa, pb_ = out["pa"], out["pb_poly"]
        if out["quot"] * pb_ + out["rem"] != out["dividend"] or (
                not out["rem"].is_zero()
                and out["rem"].degree >= pb_.degree):
            return "divmod does not reconstruct the dividend"
        for p, v in zip(x["points"], out["values"]):
            if v != pa(p) * pb_(p):
                return "evaluation is not multiplicative"
            if out["shifted"](p) != pa(p + x["offset"]):
                return "shift does not translate the argument"
        if out["power"] != m.CanonicalOperator({x["k"]: out["product"]}):
            return f"Raise**{x['k']} differs from its product form"
        if out["jet_back"] != x["jet"]:
            return "jet round trip differs"
        if out["la_back"] != out["la"]:
            return "symbol round trip differs"
        if out["nf"][0] != out["nf"][1]:
            return "normal form changed under a unimodular map"
        if out["rebuilt"] != x["cone"]:
            return "cut plan replay differs from the cone"
        w = out["witness"]
        if w is None or m.apply_unimodular(w, x["cone"]) != x["moved"]:
            return "equivalence witness does not map the cones"
        return None

    def extras(self, tr, seed: int, census: bool):
        return {}, []
