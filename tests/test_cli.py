"""Command surface: exit codes, report schemas, determinism, format parity."""

import csv
import io
import json

import pytest

from mucut.cli import main

RAISE = '{"terms": [{"k": 1, "poly": [{"re": "1/1", "im": "0/1"}, {"re": "1/1", "im": "0/1"}]}]}'
PHASE = '{"terms": [{"k": 1, "poly": [{"re": "1/1", "im": "0/1"}]}]}'
DIAG = '{"terms": [{"k": 0, "poly": [{"re": "0/1", "im": "0/1"}, {"re": "1/1", "im": "0/1"}]}]}'
RAISE_LOWER = '{"terms": [{"k": -1, "poly": [{"re": "0/1", "im": "0/1"}, {"re": "1/1", "im": "0/1"}]}, {"k": 1, "poly": [{"re": "1/1", "im": "0/1"}, {"re": "1/1", "im": "0/1"}]}]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def assert_one_line_error(code, out, err, needle):
    assert code == 1
    assert out == ""
    assert err.startswith("mucut") and err.count("\n") == 1
    assert needle in err


ONE = '{"re": "1/1", "im": "0/1"}'
X = f'[{{"re": "0/1", "im": "0/1"}}, {ONE}]'


def shift_payload(k):
    return f'{{"terms": [{{"k": {k}, "poly": [{ONE}]}}]}}'


def jet_payload(k, dmax="3"):
    return (f'{{"dmax": {dmax}, "coeffs": [{{"k": {k}, "l": 0, '
            f'"value": {ONE}}}]}}')


def symbol_payload(k, degree="1"):
    return f'{{"degree": {degree}, "modes": [{{"k": {k}, "poly": {X}}}]}}'


MALFORMED_PAYLOADS = [
    pytest.param("factorize", '{"terms": [{"k": 1, "poly": [{"re": 1}]}]}',
                 "operator", id="operator-number-coefficient"),
    pytest.param("factorize", '{"terms": [{"k": 1, "poly": [{"re": "1/0"}]}]}',
                 "operator", id="operator-zero-denominator"),
    pytest.param("jet-extend", jet_payload("1.7"), "jet", id="jet-float-k"),
    pytest.param("jet-extend", jet_payload("true"), "jet", id="jet-bool-k"),
    pytest.param("jet-extend", jet_payload('"1"'), "jet", id="jet-str-k"),
    pytest.param("pullback", jet_payload("2", dmax="true"), "jet",
                 id="jet-bool-dmax"),
    pytest.param("pullback", jet_payload("2", dmax="3.0"), "jet",
                 id="jet-float-dmax"),
    pytest.param("pushforward", symbol_payload("true"), "symbol",
                 id="symbol-bool-mode"),
    pytest.param("pushforward", symbol_payload("1.0"), "symbol",
                 id="symbol-float-mode"),
    pytest.param("pushforward", symbol_payload("0", degree="true"), "symbol",
                 id="symbol-bool-degree"),
    pytest.param("pushforward", symbol_payload("0", degree='"1"'), "symbol",
                 id="symbol-str-degree"),
    pytest.param("cone-plan", '{"lens": [1]}', "cone", id="lens-one-param"),
    pytest.param("cone-plan", '{"lens": [0, 1]}', "cone", id="lens-zero"),
    pytest.param("cone-plan", '{"lens": ["a", 1]}', "cone", id="lens-str"),
    pytest.param("cone-equiv",
                 '{"first": {"lens": [true, 1]}, "second": {"sphere": true}}',
                 "cone", id="lens-bool"),
    pytest.param("cone-plan", '{"generators": [[1.5, 0], [0, 1]]}', "cone",
                 id="generator-float"),
    pytest.param("cone-plan", '{"generators": [[true, 0], [0, 1]]}', "cone",
                 id="generator-bool"),
]

LOW, HIGH, FINITE = "must be at least", "must be at most", "finite"

OUT_OF_RANGE_ARGS = [
    pytest.param(("spectrum", DIAG, "--window", "-1"), LOW,
                 id="spectrum-window"),
    pytest.param(("weyl", DIAG, "--window", "-1"), LOW, id="weyl-window"),
    pytest.param(("weyl", DIAG, "--window", "8", "--grid-points", "0"), LOW,
                 id="weyl-grid-points"),
    pytest.param(("weyl", DIAG, "--window", "8", "--grid-points", "4098"),
                 HIGH, id="weyl-grid-points-high"),
    pytest.param(("weyl", DIAG, "--window", "8", "--grid-max", "nan"),
                 FINITE, id="weyl-grid-max-nan"),
    pytest.param(("weyl", DIAG, "--window", "8", "--grid-max", "inf"),
                 FINITE, id="weyl-grid-max-inf"),
    pytest.param(("weyl", DIAG, "--window", "8", "--grid-max", "0"),
                 FINITE, id="weyl-grid-max-zero"),
    pytest.param(("commutant-check", RAISE, "--parity", "even",
                  "--window", "-5"), LOW, id="commutant-check-window"),
    pytest.param(("cone-lens", "--p", "0", "--q", "1"), LOW, id="cone-lens-p"),
    pytest.param(("identity-pk", "--max-k", "41"), HIGH,
                 id="identity-pk-max-k"),
    pytest.param(("residue", "--harmonic", "7"), LOW, id="residue-harmonic"),
    pytest.param(("residue", "--harmonic", str(10**6 + 1)), HIGH,
                 id="residue-harmonic-high"),
]

# Each of these enumerates one mode per window index, or per mode a shift
# carries across zero, so all of them are capped like the dense compression.
WIDE = ("--window", str(10**6))
WINDOW_CAPPED_ARGS = [
    pytest.param(("weyl", DIAG, *WIDE), id="weyl-diagonal"),
    pytest.param(("spectrum", DIAG, *WIDE), id="spectrum-diagonal"),
    pytest.param(("commutant-check", RAISE, "--parity", "even", *WIDE),
                 id="commutant-check-odd-shift"),
    pytest.param(("commutant-check", shift_payload(10**5)),
                 id="commutant-check-shift-high"),
    pytest.param(("commutant-check", shift_payload(-10**5)),
                 id="commutant-check-shift-low"),
]

HUGE = "1" + "0" * 400
HUGE_DIAG = DIAG.replace('"re": "1/1"', f'"re": "{HUGE}/1"')
HUGE_SYMBOL = ('{"degree": -1, "modes": [{"k": 0, "poly": '
               f'[{{"re": "{HUGE}/1", "im": "0/1"}}]}}]}}')


class TestExitCodes:
    def test_success(self, capsys):
        code, _, _ = run(capsys, "identity-pk", "--max-k", "3")
        assert code == 0

    def test_malformed_json(self, capsys):
        code, out, err = run(capsys, "commutant-check", '{"terms": [BROKEN')
        assert code == 1
        assert out == ""
        assert err != ""

    def test_malformed_operator_shape(self, capsys):
        code, _, err = run(capsys, "commutant-check", '{"nope": 1}')
        assert code == 1
        assert "terms" in err or "operator" in err
        for shift in ("true", "1.0", '"1"'):
            code, out, err = run(capsys, "commutant-check",
                                 shift_payload(shift))
            assert_one_line_error(code, out, err, "shift must be an integer")

    @pytest.mark.parametrize("subcommand,payload,noun", MALFORMED_PAYLOADS)
    def test_malformed_payload(self, capsys, subcommand, payload, noun):
        assert_one_line_error(*run(capsys, subcommand, payload),
                              f"invalid {noun} object")

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        for argv in (("commutant-check", str(path)),
                     ("residue", "--diagonal", str(path))):
            assert_one_line_error(*run(capsys, *argv), "invalid JSON input")

    @pytest.mark.parametrize("argv,needle", OUT_OF_RANGE_ARGS)
    def test_out_of_range_argument(self, capsys, argv, needle):
        assert_one_line_error(*run(capsys, *argv), needle)

    @pytest.mark.parametrize("argv", WINDOW_CAPPED_ARGS)
    def test_every_window_capped(self, capsys, argv):
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert payload["error"] == "window-too-large"

    def test_shift_cap_names_the_shift(self, capsys):
        code, payload = run_json(capsys, "factorize", shift_payload(5000))
        assert code == 2
        assert payload["error"] == "window-too-large"
        assert payload["message"] == "shift 5000 is beyond the cap |k| <= 4096"

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "identity-pk", "--bogus")
        assert code == 1

    def test_domain_error_object(self, capsys):
        code, payload = run_json(capsys, "factorize", PHASE)
        assert code == 2
        assert payload["schema"] == "mucut/1"
        assert payload["error"] == "not-in-commutant"
        assert payload["message"]

    def test_selftest_failure_code(self, capsys):
        code, out, _ = run(capsys, "selftest", "--uniform-negative-range")
        assert code == 3
        assert "FAIL" in out


class TestFloatBoundary:
    @pytest.mark.parametrize("argv", [
        ("spectrum", HUGE_DIAG, "--window", "8"),
        ("weyl", HUGE_DIAG, "--window", "8"),
        ("residue", HUGE_SYMBOL)], ids=["spectrum", "weyl", "contour"])
    def test_exact_value_beyond_float_range(self, capsys, argv):
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert payload["error"] == "float-overflow"

    @pytest.mark.parametrize("text", [
        "1\nnan\n2\n", "1\n1e999\n", "[1, NaN]", "[1, -Infinity]",
        f"[1, {HUGE}]", "[" + ", ".join(["true"] * 10) + "]"],
        ids=["nan-line", "overflow-line", "json-nan", "json-infinity",
             "json-huge-int", "json-bool"])
    def test_nonfinite_diagonal_is_malformed(self, capsys, tmp_path, text):
        path = tmp_path / "diag.txt"
        path.write_text(text)
        assert_one_line_error(*run(capsys, "residue", "--diagonal", str(path)),
                              "finite")

    def test_overflowing_partial_sums(self, capsys, tmp_path):
        path = tmp_path / "diag.txt"
        path.write_text("1e308\n" * 10)
        code, payload = run_json(capsys, "residue", "--diagonal", str(path),
                                 "--fit-lo", "1", "--fit-hi", "10")
        assert code == 2
        assert payload["error"] == "float-overflow"


class TestCommutantCheck:
    def test_commuting(self, capsys):
        code, payload = run_json(capsys, "commutant-check", RAISE)
        assert code == 0
        assert payload == {"schema": "mucut/1", "parity": "full",
                           "commutes": True, "violations": []}

    def test_violations_are_entries(self, capsys):
        code, payload = run_json(capsys, "commutant-check", PHASE)
        assert code == 0
        assert payload["commutes"] is False
        assert payload["violations"] == [
            {"row": 0, "col": -1, "value": {"re": "1/1", "im": "0/1"}}]

    def test_even_parity_flag(self, capsys):
        code, payload = run_json(capsys, "commutant-check", RAISE,
                                 "--parity", "even")
        assert code == 0
        assert payload["commutes"] is False

    def test_window_bounds_odd_shift_witnesses(self, capsys):
        # the leaks of a 5-shift against the even projector all have a
        # row or column outside modes -2..2
        shift5 = '{"terms": [{"k": 5, "poly": [{"re": "1/1", "im": "0/1"}]}]}'
        code, payload = run_json(capsys, "commutant-check", shift5,
                                 "--parity", "even", "--window", "2")
        assert code == 0
        assert payload["commutes"] is False
        assert payload["violations"] == []

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(RAISE))
        code, payload = run_json(capsys, "commutant-check", "-")
        assert code == 0 and payload["commutes"] is True

    def test_reads_file(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(RAISE)
        code, payload = run_json(capsys, "commutant-check", str(path))
        assert code == 0 and payload["commutes"] is True


def test_factorize_round_trip_fields(capsys):
    code, payload = run_json(capsys, "factorize", RAISE)
    assert code == 0
    (factor,) = payload["factors"]
    assert factor["k"] == 1
    assert factor["cofactor"] == [{"re": "1/1", "im": "0/1"}]
    assert factor["divisor"] == [{"re": "1/1", "im": "0/1"},
                                 {"re": "1/1", "im": "0/1"}]


def test_identity_pk_rows(capsys):
    code, payload = run_json(capsys, "identity-pk", "--max-k", "4")
    assert code == 0
    assert payload["max_k"] == 4
    assert payload["all_hold"] is True
    assert payload["failures"] == []


class TestSpectrum:
    def test_json_values(self, capsys):
        code, payload = run_json(capsys, "spectrum", DIAG, "--window", "6")
        assert code == 0
        assert payload["values"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_csv_parity_with_json(self, capsys):
        _, payload = run_json(capsys, "spectrum", DIAG, "--window", "6")
        code, out, _ = run(capsys, "spectrum", DIAG, "--window", "6",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["eigenvalue"]) for r in rows] == payload["values"]

    def test_self_adjoint_gate(self, capsys):
        code, payload = run_json(capsys, "spectrum", PHASE, "--window", "6")
        assert code == 2
        assert payload["error"] == "not-self-adjoint"

    def test_window_too_large(self, capsys):
        code, payload = run_json(capsys, "spectrum", RAISE_LOWER,
                                 "--window", str(10**6))
        assert code == 2
        assert payload["error"] == "window-too-large"
        assert payload["message"]


def test_weyl_small_window(capsys):
    code, payload = run_json(capsys, "weyl", DIAG, "--window", "64")
    assert code == 0
    assert payload["max_residual"] <= 1.0
    assert payload["params"]["window"] == 64


class TestResidue:
    def test_harmonic_diagonal(self, capsys):
        code, payload = run_json(capsys, "residue", "--harmonic", "20000",
                                 "--fit-lo", "1000", "--fit-hi", "20000")
        assert code == 0
        assert abs(payload["fitted"]["c"] - 1.0) <= 0.02

    def test_symbol_contour(self, capsys):
        sym = '{"degree": -1, "modes": [{"k": 0, "poly": [{"re": "1/1", "im": "0/1"}]}]}'
        code, payload = run_json(capsys, "residue", sym)
        assert code == 0
        assert payload["contour_residue"] == pytest.approx(6.283185307179586)

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "residue")
        assert code == 1 and err != ""
        sym = '{"degree": -1, "modes": []}'
        code, _, err = run(capsys, "residue", sym, "--harmonic", "100")
        assert code == 1 and err != ""


class TestJets:
    Z2 = '{"dmax": 2, "coeffs": [{"k": 2, "l": 0, "value": {"re": "1/1", "im": "0/1"}}]}'
    Z = '{"dmax": 1, "coeffs": [{"k": 1, "l": 0, "value": {"re": "1/1", "im": "0/1"}}]}'

    def test_jet_extend(self, capsys):
        code, payload = run_json(capsys, "jet-extend", self.Z2)
        assert code == 0
        assert payload == {"schema": "mucut/1", "extends": True,
                           "odd_monomials": []}
        code, payload = run_json(capsys, "jet-extend", self.Z)
        assert payload["extends"] is False
        assert payload["odd_monomials"] == [[1, 0]]

    def test_pullback_table_row(self, capsys):
        code, payload = run_json(capsys, "pullback", self.Z2)
        assert code == 0
        assert payload["symbol"]["modes"] == [
            {"k": -2, "poly": [{"re": "0/1", "im": "0/1"},
                               {"re": "1/1", "im": "0/1"}]}]
        code, half = run_json(capsys, "pullback", self.Z2,
                              "--variant", "m++")
        assert half["symbol"]["modes"][0]["k"] == -1

    def test_pullback_odd_jet_domain_error(self, capsys):
        code, payload = run_json(capsys, "pullback", self.Z)
        assert code == 2
        assert payload["error"] == "odd-jet"

    def test_pushforward_inverts(self, capsys):
        _, pulled = run_json(capsys, "pullback", self.Z2)
        code, payload = run_json(capsys, "pushforward",
                                 json.dumps(pulled["symbol"]))
        assert code == 0
        assert payload["jet"]["coeffs"] == [
            {"k": 2, "l": 0, "value": {"re": "1/1", "im": "0/1"}}]


class TestCones:
    def test_cone_lens(self, capsys):
        code, payload = run_json(capsys, "cone-lens", "--p", "2", "--q", "1")
        assert code == 0
        assert payload["cone"] == {"generators": [[1, 0], [2, 1]]}
        assert payload["normal_form"] == {"p": 1, "q": 0}

    def test_cone_lens_coprime_gate(self, capsys):
        code, payload = run_json(capsys, "cone-lens", "--p", "4", "--q", "2")
        assert code == 2
        assert payload["error"] == "not-coprime"
        code, payload = run_json(capsys, "cone-plan", '{"lens": [4, 2]}')
        assert code == 2
        assert payload["error"] == "not-coprime"

    def test_cone_cut(self, capsys):
        sphere = '{"sphere": true}'
        code, payload = run_json(capsys, "cone-cut", sphere,
                                 "--normal", "3", "-2")
        assert code == 0
        assert sorted(payload["cone"]["generators"]) == [[1, 1], [2, 3]]

    def test_cone_cut_empty(self, capsys):
        quadrant = '{"generators": [[1, 0], [0, 1]]}'
        code, payload = run_json(capsys, "cone-cut", quadrant,
                                 "--normal", "-1", "-1")
        assert code == 2
        assert payload["error"] == "empty-cut"

    def test_cone_equiv(self, capsys):
        code, payload = run_json(
            capsys, "cone-equiv",
            '{"first": {"lens": [1, 2]}, "second": {"sphere": true}}')
        assert code == 0
        assert payload["equivalent"] is True
        assert payload["normal_form"] == {"p": 2, "q": 1}
        assert payload["second_normal_form"] == {"p": 2, "q": 1}
        assert payload["witness"] is not None

    def test_cone_plan(self, capsys):
        code, payload = run_json(capsys, "cone-plan",
                                 '{"generators": [[1, 0], [1, 1]]}')
        assert code == 0
        assert sorted(payload["normals"]) == [[0, 1], [1, -1]]
        assert payload["round_trip"] is True


class TestSelftestCommand:
    def test_green_table(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "all 16 rows passed" in out

    def test_json_format(self, capsys):
        code, payload = run_json(capsys, "selftest", "--format", "json")
        assert code == 0
        assert payload["passed"] is True

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MUCUT_SEED", "31")
        _, payload = run_json(capsys, "selftest", "--format", "json")
        assert payload["seed"] == 31

    def test_flag_seed_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MUCUT_SEED", "31")
        _, payload = run_json(capsys, "selftest", "--seed", "7",
                              "--format", "json")
        assert payload["seed"] == 7


class TestDeterminism:
    def test_selftest_bytes(self, capsys):
        _, first, _ = run(capsys, "selftest", "--format", "json")
        _, second, _ = run(capsys, "selftest", "--format", "json")
        assert first == second

    def test_weyl_bytes(self, capsys):
        _, first, _ = run(capsys, "weyl", DIAG, "--window", "64")
        _, second, _ = run(capsys, "weyl", DIAG, "--window", "64")
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run(capsys, "identity-pk")
        path = tmp_path / "report.json"
        code, silent, _ = run(capsys, "identity-pk", "--output", str(path))
        assert code == 0 and silent == ""
        assert path.read_text() == out


def test_selftest_csv_numeric_parity(capsys):
    _, payload = run_json(capsys, "selftest", "--format", "json")
    code, out, _ = run(capsys, "selftest", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    flat = {row[0]: row[1] for row in rows[1:]}
    assert flat["seed"] == str(payload["seed"])
    assert flat["passed"] == "true"
    for i, row in enumerate(payload["rows"]):
        assert flat[f"rows[{i}].id"] == row["id"]
        assert flat[f"rows[{i}].passed"] == ("true" if row["passed"]
                                             else "false")
