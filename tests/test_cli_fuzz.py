"""Fuzzing every subcommand: whatever the argv, the command line ends in a
documented exit code with at most one line on stderr, never a traceback,
and prints only finite JSON numbers.

Payloads are random or near-valid (huge and zero denominators, bools,
floats, strings, deep nesting) and options sit in range, just past a bound
or far past it. Every command that takes ``--window`` gets one from
``WINDOWS``, so no example asks for the 4096-mode default on a banded
operator (a 268 MB dense solve).
"""

import contextlib
import csv
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mucut.cli import build_parser, main

WINDOWS = ("8", "64", "0", "1", "-1", "4097", str(10**6))
HUGE = 10**400

small = st.integers(min_value=-6, max_value=6)
numerators = st.one_of(small, st.sampled_from([HUGE, -HUGE, 10**300]))
denominators = st.sampled_from([1, 1, 2, 3, 0, HUGE, 10**300])
rationals = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", numerators, denominators),
    st.sampled_from(["1", "x", "", "1/-2", "1.5"]),
    st.sampled_from([True, 1, 1.5, None]))
coefficients = st.one_of(
    st.fixed_dictionaries({"re": rationals, "im": rationals}),
    st.fixed_dictionaries({"re": rationals}),
    st.sampled_from([{}, {"re": "1/1", "bad": 1}, 3, "1/1"]))
polys = st.lists(coefficients, max_size=4)
keys = st.one_of(small, st.sampled_from([True, 1.0, "1", None]))
junk = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=8)


def real(value: str) -> dict:
    return {"re": value, "im": "0/1"}


@st.composite
def elliptic(draw):
    """Self-adjoint diagonal or banded operators with a drawn real scale,
    the inputs on which ``spectrum`` and ``weyl`` reach the float layer."""
    scale = draw(st.sampled_from(["1/1", "3/2", f"{HUGE}/1", f"1/{HUGE}",
                                  f"{10**300}/1", f"1/{10**300}", "-1/1"]))
    degree = draw(st.integers(min_value=1, max_value=3))
    terms = [{"k": 0, "poly": [real("0/1")] * degree + [real(scale)]}]
    if draw(st.booleans()):
        terms += [{"k": 1, "poly": [real(scale), real(scale)]},
                  {"k": -1, "poly": [real("0/1"), real(scale)]}]
    return {"terms": terms}


operators = st.one_of(
    elliptic(),
    st.fixed_dictionaries({"terms": st.lists(
        st.fixed_dictionaries({"k": keys, "poly": polys}), max_size=3)}),
    junk)
symbols = st.one_of(
    st.fixed_dictionaries({
        "degree": st.one_of(st.integers(-2, 3), st.sampled_from([None, True])),
        "modes": st.lists(st.fixed_dictionaries({"k": keys, "poly": polys}),
                          max_size=3)}),
    junk)
jets = st.one_of(
    st.fixed_dictionaries({
        "dmax": st.one_of(st.integers(-1, 8),
                          st.sampled_from([10**9, True, 2.0])),
        "coeffs": st.lists(st.fixed_dictionaries(
            {"k": keys, "l": keys, "value": coefficients}), max_size=4)}),
    junk)
vectors = st.one_of(
    st.lists(small, min_size=2, max_size=2),
    st.lists(st.one_of(small, st.sampled_from([HUGE, 1.5, True])),
             min_size=1, max_size=3))
cones = st.one_of(
    st.fixed_dictionaries({"generators": st.lists(vectors, min_size=2,
                                                  max_size=2)}),
    st.fixed_dictionaries({"generators": st.lists(vectors, max_size=3)}),
    st.fixed_dictionaries({"lens": st.lists(st.one_of(
        small, st.sampled_from([HUGE, True])), max_size=3)}),
    st.just({"sphere": True}),
    junk)


def payload(strategy):
    deep = st.integers(2000, 5000).map(lambda n: "[" * n + "]" * n)
    return st.one_of(strategy.map(json.dumps), st.one_of(
        deep, st.sampled_from(["no/such/file.json", "{broken"])))


def option(flag, valid, invalid=()):
    """The option left out or given a valid value, or, one time in four,
    given an invalid one."""
    given_valid = st.sampled_from(valid).map(lambda v: [flag, v])
    values = [st.just([]), given_valid, given_valid]
    if invalid:
        values.append(st.sampled_from(invalid).map(lambda v: [flag, v]))
    return st.one_of(*values)


def argv(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


def fixed(*words):
    return st.just(list(words))


parity = option("--parity", ["full", "even"], ["odd"])
window = st.sampled_from(WINDOWS).map(lambda w: ["--window", w])
fmt = option("--format", ["json", "csv"])
variant = option("--variant", ["m++", "m+even"], ["x"])
ints = ["-5", "0", "1", "2", "3", "1.5", str(10**30)]
fit = argv(option("--fit-lo", ["1", "10", "1000"], ["-5", str(10**12)]),
           option("--fit-hi", ["9", "50", "1000"], ["-5", str(10**12)]))
diagonals = st.one_of(
    st.lists(st.one_of(st.floats(), st.integers(-2, 2),
                       st.sampled_from([HUGE, 1e308, True, "1"])),
             max_size=40).map(json.dumps),
    st.sampled_from(["[1, 2", "no/such/file.txt"]))

COMMANDS = {
    "commutant-check": argv(fixed("commutant-check"), payload(operators).map(
        lambda p: [p]), parity, window, fmt),
    "factorize": argv(fixed("factorize"), payload(operators).map(
        lambda p: [p]), parity, fmt),
    "identity-pk": argv(fixed("identity-pk"), option(
        "--max-k", ["1", "3"], ["-1", "0", "41", str(10**9), "x"]), fmt),
    "spectrum": argv(fixed("spectrum"), payload(st.one_of(
        elliptic(), operators)).map(lambda p: [p]), window, parity, fmt),
    "weyl": argv(fixed("weyl"), payload(st.one_of(elliptic(), operators))
                 .map(lambda p: [p]), window, parity, fmt,
                 option("--grid-max", ["1e-300", "100", "1e308"],
                        ["nan", "inf", "-1", "0", "x"]),
                 option("--grid-points", ["1", "7", "4097"],
                        ["-3", "0", "4098", str(10**9)])),
    "residue": argv(fixed("residue"), st.one_of(
        payload(symbols).map(lambda p: [p]),
        diagonals.map(lambda d: ["--diagonal", d]),
        st.sampled_from(["-1", "7", "8", "1000", str(10**6 + 1)]).map(
            lambda n: ["--harmonic", n]),
        st.just([])), fit, fmt),
    "jet-extend": argv(fixed("jet-extend"), payload(jets).map(lambda p: [p]),
                       fmt),
    "pullback": argv(fixed("pullback"), payload(jets).map(lambda p: [p]),
                     variant, fmt),
    "pushforward": argv(fixed("pushforward"), payload(symbols).map(
        lambda p: [p]), variant, fmt),
    "cone-lens": argv(fixed("cone-lens"), option("--p", ints[2:5], ints),
                      option("--q", ints[2:5], ints), fmt),
    "cone-cut": argv(fixed("cone-cut"), payload(cones).map(lambda p: [p]),
                     st.tuples(st.sampled_from(ints), st.sampled_from(ints))
                     .map(lambda n: ["--normal", *n]), fmt),
    "cone-equiv": argv(fixed("cone-equiv"), st.one_of(
        st.fixed_dictionaries({"first": cones, "second": cones}), junk)
        .map(lambda d: [json.dumps(d)]), fmt),
    "cone-plan": argv(fixed("cone-plan"), payload(cones).map(lambda p: [p]),
                      fmt),
    # a full selftest takes about a second, so only the argv that is
    # rejected before any row runs is fuzzed here
    "selftest": argv(fixed("selftest"), st.sampled_from(
        [["--seed", "x"], ["--seed", "1.5"], ["--format", "xml"],
         ["--bogus"]])),
}


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=1000,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.one_of(*COMMANDS.values()))
def test_every_subcommand_ends_cleanly(args):
    code, out, err = run(args)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert err.count("\n") <= 1
    if code == 1:
        assert out == ""
        return
    if "csv" in args:
        cells = {c.lower() for row in csv.reader(io.StringIO(out))
                 for c in row}
        assert not cells & {"nan", "inf", "-inf"}
    else:
        json.loads(out, parse_constant=_no_constant)


def test_every_subcommand_is_fuzzed():
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if action.dest == "subcommand"]
    assert set(COMMANDS) == set(subcommands)
