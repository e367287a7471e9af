"""``cli`` workload: one ``python -m mucut.cli`` child at a time over all
14 subcommands with seeded payloads.

Interpreter start and imports take most of a typical cold start (numpy
alone about half of it), so a numpy-free core with lazy imports shows here
and nowhere else apart from ``setup_s``. The mix includes the default
``weyl`` on ``D`` at window 4096 (diagonal path, exact evaluation at every
mode) and ``selftest --format json``, and uses ``mucut.exact`` through
JSON parse and serialize. ``weyl --parity even`` fails its residual check
(ROADMAP item 5), so ``defect_probes`` runs it once per run outside the
timed mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
from fractions import Fraction
from random import Random
from time import perf_counter_ns

import gen
from wl_spectral import RESIDUAL_RTOL

KNOWN_DEFECTS = {
    "weyl.even": "Weyl residual exceeds 1",
}
CHILD_TIMEOUT_S = 60
PHASE_REPEATS = 3

# one cycle of 20 distinct requests: 16 light ones, then the three weyl
# runs (ranks 17-19; the p90 rank, 18.1, falls on the middle one) and the
# selftest. A short cycle gives each request about four repeats in a run
_MIX = (["commutant-check"] * 2 + ["factorize", "identity-pk"]
        + ["spectrum"] * 2 + ["residue"] * 2
        + ["jet-extend", "pullback", "pushforward", "cone-lens", "cone-cut"]
        + ["cone-equiv"] * 2 + ["cone-plan"]
        + ["weyl.full"] * 3 + ["selftest"])

_FIELDS = {
    "commutant-check": {"schema", "parity", "commutes", "violations"},
    "factorize": {"schema", "parity", "factors"},
    "identity-pk": {"schema", "max_k", "all_hold", "failures"},
    "spectrum": {"schema", "window", "parity", "values", "reliable"},
    "weyl": {"schema", "params", "observed", "predicted", "fitted",
             "max_residual"},
    "residue": {"schema"},
    "jet-extend": {"schema", "extends", "odd_monomials"},
    "pullback": {"schema", "variant", "symbol"},
    "pushforward": {"schema", "variant", "jet"},
    "cone-lens": {"schema", "cone", "normal_form"},
    "cone-cut": {"schema", "normal", "cone"},
    "cone-equiv": {"schema", "equivalent", "normal_form",
                   "second_normal_form", "witness"},
    "cone-plan": {"schema", "normals", "round_trip"},
    "selftest": {"schema", "seed", "passed", "rows"},
}


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _cone_payload(rng: Random, cone):
    """Cone in one of the three accepted payload forms."""
    form = rng.randrange(4)
    if form == 0:
        p, q = rng.randint(1, 12), rng.randint(1, 12)
        while math.gcd(p, q) != 1:
            q += 1
        return {"lens": [p, q]}, [[1, 0], [p, q]]
    if form == 1:
        return {"sphere": True}, [[-1, 1], [1, 1]]
    return {"generators": cone}, cone


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _request(rng: Random, kind: str, seed: int, nth: int) -> dict:
    """The ``nth`` request of its kind in the cycle; variants alternate
    with ``nth``, so every cycle holds the same variants."""
    parity = ("full", "even")[nth % 2]
    if kind in ("commutant-check", "factorize"):
        member = gen.member(rng, parity, rng.randint(2, 4),
                            rng.sample([-2, 0, 2], 2) if parity == "even"
                            else rng.sample([-2, -1, 0, 1, 2], 2))
        commutes = True
        if kind == "commutant-check" and nth % 2 == 0:
            # a shift-1 constant breaks either projector
            member[1] = gen.padd(member.get(1, []), [gen.ONE])
            commutes = False
        argv = [kind, _dump(gen.op_json(member)), "--parity", parity]
        if kind == "commutant-check":
            argv += ["--window", str(rng.choice((8, 16, 32, 64)))]
        return {"kind": kind, "argv": argv,
                "expect": {"commutes": commutes, "terms": gen.op_json(member)}}
    if kind == "identity-pk":
        k = rng.choice((6, 8, 10, 12))
        return {"kind": kind, "argv": [kind, "--max-k", str(k)],
                "expect": {"max_k": k}}
    if kind == "spectrum":
        window = rng.choice((24, 32, 40, 48))
        shift = Fraction(rng.choice((-1, 1)), rng.choice((8, 12, 16)))
        diag = [gen.ZERO, (shift, Fraction(0)), gen.ONE]
        op = {0: diag, 1: [gen.ONE, gen.ONE], -1: [gen.ZERO, gen.ONE]}
        trace = sum(gen.peval(diag, (Fraction(n), Fraction(0)))[0]
                    for n in range(window + 1))
        return {"kind": kind,
                "argv": [kind, _dump(gen.op_json(op)), "--window", str(window)],
                "expect": {"length": window + 1, "trace": str(trace)}}
    if kind.startswith("weyl"):
        scale = 1 if kind == "weyl.even" or nth == 0 else rng.choice((2, 3))
        op = gen.op_json({0: [gen.ZERO, (Fraction(scale), Fraction(0))]})
        argv = ["weyl", _dump(op)]
        if kind == "weyl.even":
            argv += ["--parity", "even"]
        return {"kind": kind, "argv": argv, "expect": {}}
    if kind == "residue":
        if nth % 2:
            n = rng.choice((20_000, 50_000, 100_000))
            return {"kind": kind, "argv": [kind, "--harmonic", str(n)],
                    "expect": {"c": 1.0}}
        c = gen.rand_coeff(rng, 5, True)
        sym = {"degree": -1, "modes": [{"k": 0, "poly": [gen.coeff_json(c)]}]}
        return {"kind": kind, "argv": [kind, _dump(sym)],
                "expect": {"contour": [float(c[0]), float(c[1])]}}
    if kind == "jet-extend":
        jet = gen.rand_even_jet(rng, rng.randint(2, 6))
        odd = nth % 2 == 0
        if odd:
            jet["coeffs"].append({"k": 1, "l": 0,
                                  "value": gen.coeff_json(gen.ONE)})
        return {"kind": kind, "argv": [kind, _dump(jet)],
                "expect": {"extends": not odd}}
    if kind in ("pullback", "pushforward"):
        variant = ("m++", "m+even")[nth % 2]
        if kind == "pullback":
            payload = gen.rand_even_jet(rng, rng.randint(2, 6))
        else:
            degree = rng.randint(1, 4)
            ks = (range(-degree, degree + 1) if variant == "m++"
                  else range(-2 * degree, 2 * degree + 1, 2))
            payload = {"degree": degree, "modes": [
                {"k": k, "poly": gen.poly_json(
                    [gen.ZERO] * degree + [gen.rand_coeff(rng, 9, False)])}
                for k in sorted(rng.sample(list(ks), 2))]}
        return {"kind": kind,
                "argv": [kind, _dump(payload), "--variant", variant],
                "expect": {}}
    if kind == "cone-lens":
        p, q = rng.randint(1, 30), rng.randint(1, 30)
        while math.gcd(p, q) != 1:
            q += 1
        return {"kind": kind, "argv": [kind, "--p", str(p), "--q", str(q)],
                "expect": {"index": q}}
    if kind == "cone-cut":
        payload, (u, v) = _cone_payload(rng, gen.rand_cone(rng))
        while True:
            n = [rng.randint(-5, 5), rng.randint(-5, 5)]
            pu, pv = u[0] * n[0] + u[1] * n[1], v[0] * n[0] + v[1] * n[1]
            if pu and pv and (pu > 0 or pv > 0):
                break
        return {"kind": kind, "argv": [kind, _dump(payload), "--normal",
                                       str(n[0]), str(n[1])],
                "expect": {}}
    if kind == "cone-equiv":
        first_payload, first = _cone_payload(rng, gen.rand_cone(rng))
        if nth % 2:
            m = gen.rand_unimodular(rng)
            second = [gen.apply2(m, first[0]), gen.apply2(m, first[1])]
        else:
            second = gen.rand_cone(rng)
            while abs(_det(*second)) == abs(_det(*first)):
                second = gen.rand_cone(rng)
        payload = {"first": first_payload, "second": {"generators": second}}
        return {"kind": kind, "argv": [kind, _dump(payload)],
                "expect": {"equivalent": bool(nth % 2), "first": first,
                           "second": second}}
    if kind == "cone-plan":
        payload, _ = _cone_payload(rng, gen.rand_cone(rng))
        return {"kind": kind, "argv": [kind, _dump(payload)], "expect": {}}
    if kind == "selftest":
        return {"kind": kind,
                "argv": [kind, "--format", "json", "--seed", str(seed)],
                "expect": {"seed": seed}}
    raise ValueError(kind)


def generate(seed: int) -> list:
    rng = Random(f"{seed}:cli")
    specs, seen = [], {}
    for kind in gen.spread_order(rng, _MIX):
        seen[kind] = seen.get(kind, -1) + 1
        specs.append(_request(rng, kind, seed, seen[kind]))
    return specs


def defect_probes(seed: int) -> list:
    """Requests that fail on a known defect: run once per run, untimed,
    so the defect stays visible while no timed request fails."""
    return [_request(Random(f"{seed}:cli-defects"), "weyl.even", seed, 0)]


def census(specs) -> list:
    """None: ``Runner.extras`` times every subcommand cold and warm."""
    return []


def counters(specs) -> dict:
    return {}


def _same_cone(generators, expected) -> bool:
    got = {tuple(gen.primitive2(g)) for g in generators}
    return got == {tuple(gen.primitive2(g)) for g in expected}


def check_output(spec, code: int, stdout: bytes):
    """``None`` when the child's output holds, else the failed check."""
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not valid JSON"
    sub = spec["argv"][0]
    missing = _FIELDS[sub] - set(data)
    if missing:
        return f"missing fields {sorted(missing)}"
    exp = spec["expect"]
    if sub == "commutant-check":
        if data["commutes"] != exp["commutes"]:
            return "commutation verdict differs from the generated input"
        if (not data["violations"]) != data["commutes"]:
            return "violations disagree with the commutation verdict"
    elif sub == "factorize":
        terms = {t["k"]: gen.poly_from_json(t["poly"])
                 for t in exp["terms"]["terms"]}
        got = {f["k"]: gen.pmul(gen.poly_from_json(f["cofactor"]),
                                gen.poly_from_json(f["divisor"]))
               for f in data["factors"]}
        if got != terms:
            return "cofactor times divisor does not give the input"
    elif sub == "identity-pk":
        if not data["all_hold"] or data["max_k"] != exp["max_k"]:
            return "raising-power identity reported failing"
    elif sub == "spectrum":
        values = data["values"]
        if len(values) != exp["length"] or values != sorted(values):
            return "spectrum has the wrong length or order"
        trace = float(Fraction(exp["trace"]))
        if abs(sum(values) - trace) > 1e-9 * max(1.0, abs(trace)):
            return "eigenvalues do not sum to the trace"
    elif sub == "weyl":
        if data["max_residual"] > 1.0 + RESIDUAL_RTOL:
            return f"Weyl residual exceeds 1: {data['max_residual']}"
    elif sub == "residue":
        if "c" in exp:
            if abs(data["fitted"]["c"] - exp["c"]) > 0.02:
                return "harmonic divergence rate is not 1"
        else:
            got = data["contour_residue"]
            got = (got["re"], got["im"]) if isinstance(got, dict) else (got, 0)
            want = [2 * math.pi * x for x in exp["contour"]]
            if any(abs(g - w) > 1e-12 * max(1.0, abs(w))
                   for g, w in zip(got, want)):
                return "contour residue is not 2*pi*c"
    elif sub == "jet-extend":
        if data["extends"] != exp["extends"]:
            return "extension verdict differs from the generated jet"
    elif sub == "cone-lens":
        if data["normal_form"]["p"] != exp["index"]:
            return "lens normal form has the wrong lattice index"
    elif sub == "cone-equiv":
        if data["equivalent"] != exp["equivalent"]:
            return "equivalence verdict differs from the generated pair"
        w = data["witness"]
        if exp["equivalent"] and (w is None or not _same_cone(
                [gen.apply2(w, g) for g in exp["first"]], exp["second"])):
            return "witness does not map the first cone onto the second"
    elif sub == "cone-plan":
        if data["round_trip"] is not True:
            return "cut plan does not replay the cone"
    elif sub == "selftest":
        if not data["passed"] or data["seed"] != exp["seed"]:
            return "selftest failed"
    return None


class Runner:
    def __init__(self, specs, ctx):
        self.specs = specs
        self.ctx = ctx
        self.stdout_by_argv = {}

    def kind(self, i: int) -> str:
        return self.specs[i % len(self.specs)]["kind"]

    def child(self, args):
        return subprocess.run([sys.executable, *args], cwd=self.ctx.root,
                              env=self.ctx.child_env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=False)

    def warmup(self) -> None:
        self.child(["-m", "mucut.cli", "identity-pk", "--max-k", "1"])

    def run(self, i: int, tr):
        spec = self.specs[i % len(self.specs)]
        with tr.span(f"cli.cold.{spec['argv'][0]}"):
            done = self.child(["-m", "mucut.cli", *spec["argv"]])
        return done.returncode, done.stdout

    def check(self, i: int, out, tr):
        spec = self.specs[i % len(self.specs)]
        code, stdout = out
        key = "\0".join(spec["argv"])
        first = self.stdout_by_argv.setdefault(key, stdout)
        if first != stdout:
            return "identical argv gave different stdout"
        return check_output(spec, code, stdout)

    def extras(self, tr, seed: int, census: bool):
        """Cold-start split, warm in-process runs, selftest rows timed from
        outside, and the exact and cone work the payloads imply."""
        found, problems = {}, []
        phases = {}
        for label, code in (("bare", "pass"), ("numpy", "import numpy"),
                            ("mucut", "import mucut")):
            times = []
            for _ in range(PHASE_REPEATS):
                t0 = perf_counter_ns()
                with tr.root(f"cli.phase.{label}", f"phase.{label}"):
                    done = self.child(["-c", code])
                times.append((perf_counter_ns() - t0) / 1e6)
                if done.returncode != 0:
                    problems.append(f"phase child {label!r} failed")
            phases[label] = statistics.median(times)
        found["cli.interpreter_ms"] = phases["bare"]
        found["cli.import_numpy_ms"] = phases["numpy"] - phases["bare"]
        found["cli.import_mucut_ms"] = phases["mucut"] - phases["bare"]

        from mucut.cli import main
        firsts = {}
        for i, spec in enumerate(self.specs):
            firsts.setdefault(spec["argv"][0], (i, spec))
        have_cold = {span[3] for span in tr.spans}
        total = 0
        for sub, (i, spec) in sorted(firsts.items()):
            if f"cli.cold.{sub}" not in have_cold:
                with tr.root("bench.request", f"cold.{sub}"):
                    out = self.run(i, tr)
                problem = self.check(i, out, tr)
                if problem:
                    problems.append(f"cold {sub}: {problem}")
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), \
                    contextlib.redirect_stderr(io.StringIO()):
                with tr.root(f"cli.warm.{sub}", f"warm.{sub}"):
                    code = main(list(spec["argv"]))
            warm = buffer.getvalue().encode()
            total += len(warm)
            cold = self.stdout_by_argv.get("\0".join(spec["argv"]))
            if code != 0 or (cold is not None and cold != warm):
                problems.append(f"warm {sub} differs from its cold run")
        found["cli.stdout_bytes"] = total

        problems += _selftest_rows(tr, seed)
        _payload_work(self.specs, tr)
        return found, problems


def _selftest_rows(tr, seed: int) -> list:
    """Each row timed from outside with ``run_selftest``'s own seeding,
    then the whole suite in process; both must agree and pass."""
    from mucut.selftest import run_selftest, selftest_rows
    outside = []
    for row in selftest_rows():
        rng = Random(f"{seed}:{row.row_id}")
        with tr.root(f"selftest.row.{row.row_id}", "selftest"):
            passed, detail = row.run(rng)
        outside.append((row.row_id, passed, detail))
    with tr.root("selftest.run", "selftest"):
        report = run_selftest(seed)
    inside = [(r["id"], r["passed"], r["detail"]) for r in report["rows"]]
    problems = [f"selftest row {rid} failed"
                for rid, passed, _ in outside if not passed]
    if inside != outside:
        problems.append("rows timed from outside differ from run_selftest")
    return problems


def _payload_work(specs, tr) -> None:
    """The exact and cone calls the payloads of one cycle imply, made
    in process so those layers are timed on the command line's inputs."""
    import mucut as m
    for spec in specs:
        sub, argv = spec["argv"][0], spec["argv"]
        with tr.root("bench.payload", f"payload.{sub}"):
            if sub in ("commutant-check", "factorize", "spectrum"):
                with tr.span("exact.json_roundtrip"):
                    op = m.CanonicalOperator.from_json(json.loads(argv[1]))
                    json.dumps(op.to_json(), sort_keys=True)
                top = int(argv[argv.index("--window") + 1]) \
                    if "--window" in argv else 64
                with tr.span("exact.poly_eval"):
                    for poly in op.terms.values():
                        for n in range(top + 1):
                            poly(n)
            elif sub in ("cone-cut", "cone-plan", "cone-equiv"):
                data = json.loads(argv[1])
                if sub == "cone-equiv":
                    first = _cone(m, data["first"])
                    second = _cone(m, data["second"])
                    with tr.span("cones.normal_form"):
                        m.normal_form(first)
                        m.normal_form(second)
                    with tr.span("cones.equivalence_witness"):
                        m.equivalence_witness(first, second)
                elif sub == "cone-plan":
                    cone = _cone(m, data)
                    with tr.span("cones.cut_plan_replay"):
                        n_u, n_v = m.cut_plan(cone)
                        m.cut_cone(m.cut_cone(m.FULL_PLANE, n_u), n_v)
            elif sub == "cone-lens":
                cone = m.lens_cone(int(argv[2]), int(argv[4]))
                with tr.span("cones.normal_form"):
                    m.normal_form(cone)


def _cone(m, data):
    if data.get("sphere"):
        return m.sphere_cone()
    if "lens" in data:
        return m.lens_cone(*data["lens"])
    return m.Cone2.from_json(data)
