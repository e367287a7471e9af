"""Command-line entry point: verification commands and experiment runners.

Exit codes: 0 success, 1 malformed input (bad argv, unreadable or invalid
JSON), 2 domain errors (reported as a machine-readable object), 3 selftest
failure. Reports are deterministic: identical argv and seed produce
byte-identical output.

Only the handlers of ``spectrum``, ``weyl``, ``residue`` and ``selftest``
import the float layer, and numpy with it; the exact subcommands start
without them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys

from .cones import (FULL_PLANE, Cone2, cut_cone, cut_plan,
                    equivalence_witness, lens_cone, normal_form)
from .cutspace import Jet, extends_smoothly, odd_monomials, pullback_jet, \
    pushforward_symbol
from .errors import SCHEMA, DomainError
from .operators import (MAX_WINDOW_MODES, CanonicalOperator, Parity,
                        commutant_factorize, shift_divisor,
                        szego_commutator_entries, szego_commutes,
                        verify_pk_identity)
from .symbols import LaurentSymbol, SymbolVariant


class MalformedInput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_input(text: str) -> str:
    """Inline JSON (starts with a brace or bracket), '-' for stdin, or a
    file path."""
    if text == "-":
        return sys.stdin.read()
    if text.lstrip().startswith(("{", "[")):
        return text
    try:
        with open(text, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read input file {text}: {exc}")


def _decode(raw: str):
    """``json.loads``; nesting too deep for the decoder is invalid input."""
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON input: {exc}")


def _load_payload(text: str):
    return _decode(_read_input(text))


def _parse(cls, data, noun: str):
    """``cls.from_json(data)``, with every shape or type error reported as
    malformed input; domain errors pass through."""
    try:
        return cls.from_json(data)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise MalformedInput(f"invalid {noun} object: {exc}")


def _bounded_int(lowest: int, highest: int | None = None):
    """Argparse type for integers in ``lowest..highest``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"must be at least {lowest}, got {value}")
        if highest is not None and value > highest:
            raise argparse.ArgumentTypeError(
                f"must be at most {highest}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """Argparse type for finite floats above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text}")
    return value


def _scalar_str(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten(path, value[key], rows)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, _scalar_str(value)))


def _generic_csv(payload: dict) -> str:
    rows = []
    _flatten("", payload, rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(args, payload: dict, csv_text: str | None = None) -> int:
    """Write the report under the schema tag, in the requested format."""
    payload = {"schema": SCHEMA, **payload}
    if args.format == "csv":
        text = csv_text if csv_text is not None else _generic_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_output(args, text)
    return 0


def _write_output(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(value):
    from .selftest import DEFAULT_SEED
    if value is not None:
        return value
    env = os.environ.get("MUCUT_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise MalformedInput(f"MUCUT_SEED is not an integer: {env!r}")
    return DEFAULT_SEED


def _cmd_commutant_check(args) -> int:
    op = _parse(CanonicalOperator, _load_payload(args.input), "operator")
    parity = Parity(args.parity)
    entries = szego_commutator_entries(op, parity, window=args.window)
    payload = {
        "parity": parity.value,
        "commutes": szego_commutes(op, parity),
        "violations": [{"row": r, "col": c, "value": v.to_json()}
                       for r, c, v in entries],
    }
    return _emit(args, payload)


def _cmd_factorize(args) -> int:
    op = _parse(CanonicalOperator, _load_payload(args.input), "operator")
    parity = Parity(args.parity)
    factors = commutant_factorize(op, parity)
    payload = {
        "parity": parity.value,
        "factors": [{"k": k,
                     "cofactor": factors[k].to_json(),
                     "divisor": shift_divisor(k, parity).to_json()}
                    for k in sorted(factors)],
    }
    return _emit(args, payload)


def _cmd_identity_pk(args) -> int:
    failures = [k for k in range(1, args.max_k + 1)
                if not verify_pk_identity(k)]
    payload = {
        "max_k": args.max_k,
        "all_hold": not failures,
        "failures": failures,
    }
    return _emit(args, payload)


def _cmd_spectrum(args) -> int:
    from .spectral import projected_spectrum
    op = _parse(CanonicalOperator, _load_payload(args.input), "operator")
    parity = Parity(args.parity)
    spectrum = projected_spectrum(op, args.window, parity)
    payload = {
        "window": args.window,
        "parity": parity.value,
        "values": [float(v) for v in spectrum.values],
        "reliable": [bool(b) for b in spectrum.reliable],
    }
    return _emit(args, payload, csv_text=spectrum.to_csv())


def _cmd_weyl(args) -> int:
    from .spectral import weyl_compare
    op = _parse(CanonicalOperator, _load_payload(args.input), "operator")
    report = weyl_compare(op, args.window, grid_max=args.grid_max,
                          parity=Parity(args.parity),
                          grid_points=args.grid_points)
    return _emit(args, report.to_json(), csv_text=report.to_csv())


def _load_diagonal(text: str):
    raw = _read_input(text).strip()
    if raw.startswith("["):
        data = _decode(raw)
    else:
        try:
            data = [float(line) for line in raw.splitlines() if line.strip()]
        except ValueError as exc:
            raise MalformedInput(f"invalid diagonal data: {exc}")
    if not isinstance(data, list) or not all(
            type(x) in (int, float) and abs(x) <= sys.float_info.max
            for x in data):
        raise MalformedInput("diagonal must be a list of finite numbers")
    return [float(x) for x in data]


def _cmd_residue(args) -> int:
    from .spectral import residue_contour, residue_log_fit
    sources = [s for s in (args.input, args.diagonal,
                           args.harmonic is not None) if s]
    if len(sources) != 1:
        raise MalformedInput(
            "give exactly one of: a symbol payload, --diagonal, --harmonic")
    if args.input:
        sigma = _parse(LaurentSymbol, _load_payload(args.input), "symbol")
        value = residue_contour(sigma)
        if isinstance(value, complex):
            reported = {"re": value.real, "im": value.imag}
        else:
            reported = value
        payload = {"contour_residue": reported}
        return _emit(args, payload)
    if args.harmonic is not None:
        diagonal = [1.0 / n for n in range(1, args.harmonic + 1)]
    else:
        diagonal = _load_diagonal(args.diagonal)
    report = residue_log_fit(diagonal, fit_range=(args.fit_lo, args.fit_hi))
    return _emit(args, report.to_json(), csv_text=report.to_csv())


def _cmd_jet_extend(args) -> int:
    jet = _parse(Jet, _load_payload(args.input), "jet")
    payload = {
        "extends": extends_smoothly(jet),
        "odd_monomials": [[k, l] for k, l in odd_monomials(jet)],
    }
    return _emit(args, payload)


def _cmd_pullback(args) -> int:
    jet = _parse(Jet, _load_payload(args.input), "jet")
    sigma = pullback_jet(jet, SymbolVariant(args.variant))
    payload = {
        "variant": args.variant,
        "symbol": sigma.to_json(),
    }
    return _emit(args, payload)


def _cmd_pushforward(args) -> int:
    sigma = _parse(LaurentSymbol, _load_payload(args.input), "symbol")
    jet = pushforward_symbol(sigma, SymbolVariant(args.variant))
    payload = {
        "variant": args.variant,
        "jet": jet.to_json(),
    }
    return _emit(args, payload)


def _cmd_cone_lens(args) -> int:
    cone = lens_cone(args.p, args.q)
    payload = {
        "cone": cone.to_json(),
        "normal_form": normal_form(cone).to_json(),
    }
    return _emit(args, payload)


def _cmd_cone_cut(args) -> int:
    cone = _parse(Cone2, _load_payload(args.input), "cone")
    result = cut_cone(cone, tuple(args.normal))
    payload = {
        "normal": list(args.normal),
        "cone": result.to_json(),
    }
    return _emit(args, payload)


def _cmd_cone_equiv(args) -> int:
    data = _load_payload(args.input)
    if not isinstance(data, dict) or "first" not in data or "second" not in data:
        raise MalformedInput(
            'cone-equiv expects {"first": <cone>, "second": <cone>}')
    first = _parse(Cone2, data["first"], "cone")
    second = _parse(Cone2, data["second"], "cone")
    form_first = normal_form(first)
    form_second = normal_form(second)
    witness = equivalence_witness(first, second)
    payload = {
        "equivalent": form_first == form_second,
        "normal_form": form_first.to_json(),
        "second_normal_form": form_second.to_json(),
        "witness": witness.to_json() if witness is not None else None,
    }
    return _emit(args, payload)


def _cmd_cone_plan(args) -> int:
    cone = _parse(Cone2, _load_payload(args.input), "cone")
    n_u, n_v = cut_plan(cone)
    rebuilt = cut_cone(cut_cone(FULL_PLANE, n_u), n_v)
    payload = {
        "normals": [list(n_u), list(n_v)],
        "round_trip": rebuilt == cone,
    }
    return _emit(args, payload)


def _selftest_table(report: dict) -> str:
    lines = [f"selftest  seed={report['seed']}  schema={report['schema']}"]
    width = max(len(r["id"]) for r in report["rows"])
    for row in report["rows"]:
        status = "PASS" if row["passed"] else "FAIL"
        lines.append(f"{status}  {row['id']:<{width}}  {row['detail']}")
    failed = sum(1 for r in report["rows"] if not r["passed"])
    total = len(report["rows"])
    if failed:
        lines.append(f"{failed} of {total} rows failed")
    else:
        lines.append(f"all {total} rows passed")
    return "\n".join(lines) + "\n"


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    seed = _resolve_seed(args.seed)
    report = run_selftest(
        seed, include_uniform_range_diagnostic=args.uniform_negative_range)
    if args.format == "table":
        _write_output(args, _selftest_table(report))
    else:
        _emit(args, report)
    return 0 if report["passed"] else 3


def _add_parity_option(parser) -> None:
    parser.add_argument("--parity", choices=("full", "even"), default="full",
                        help="projector variant (default %(default)s)")


def _add_variant_option(parser) -> None:
    parser.add_argument("--variant", choices=[v.value for v in SymbolVariant],
                        default=SymbolVariant.M_PLUS_EVEN.value,
                        help="cut cone variant (default %(default)s)")


@contextlib.contextmanager
def _command(sub, name: str, handler, help_text: str, noun=None,
             formats=("json", "csv")):
    """Register a subcommand: its ``<noun> JSON`` payload positional when a
    noun is given, then what the ``with`` body adds, then ``--format`` and
    ``--output``."""
    p = sub.add_parser(name, help=help_text)
    if noun:
        p.add_argument("input", help=f"{noun} JSON (inline, path, or -)")
    yield p
    p.add_argument("--format", choices=formats, default=formats[0],
                   help="report format (default %(default)s)")
    p.add_argument("--output", metavar="PATH",
                   help="write the report to a file instead of stdout")
    p.set_defaults(handler=handler)


def build_parser() -> _Parser:
    parser = _Parser(prog="mucut",
                     description="Verification commands for the mode-cut "
                                 "operator calculus.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    with _command(sub, "commutant-check", _cmd_commutant_check,
                  "test commutation with the projector", "operator") as p:
        _add_parity_option(p)
        p.add_argument("--window", type=_bounded_int(0), default=None,
                       help="truncate witness entries to this mode window")
    with _command(sub, "factorize", _cmd_factorize,
                  "factor a commutant member through its divisors",
                  "operator") as p:
        _add_parity_option(p)
    with _command(sub, "identity-pk", _cmd_identity_pk,
                  "check the raising-power product identity") as p:
        p.add_argument("--max-k", type=_bounded_int(1, 40), default=10,
                       help="largest power to check (default %(default)s)")
    with _command(sub, "spectrum", _cmd_spectrum,
                  "eigenvalues of the projected compression", "operator") as p:
        p.add_argument("--window", type=_bounded_int(0), required=True,
                       help="mode window for the compression")
        _add_parity_option(p)
    with _command(sub, "weyl", _cmd_weyl,
                  "eigenvalue counting against sublevel measure",
                  "operator") as p:
        p.add_argument("--window", type=_bounded_int(0), default=4096,
                       help="mode window (default %(default)s)")
        p.add_argument("--grid-max", type=_positive_float, default=None,
                       help="top of the threshold grid (default: symbol "
                            "value at half the window)")
        p.add_argument("--grid-points", type=_bounded_int(1, MAX_WINDOW_MODES),
                       default=64,
                       help="number of grid thresholds (default %(default)s)")
        _add_parity_option(p)
    with _command(sub, "residue", _cmd_residue,
                  "residue trace: contour value or log-divergence fit") as p:
        p.add_argument("input", nargs="?", default=None,
                       help="degree -1 symbol JSON for the contour route")
        p.add_argument("--diagonal", metavar="PATH",
                       help="diagonal values for the log fit (JSON array or "
                            "one number per line)")
        p.add_argument("--harmonic", type=_bounded_int(8, 10**6),
                       default=None, metavar="N",
                       help="fit the harmonic diagonal 1/n with N terms")
        p.add_argument("--fit-lo", type=int, default=1000,
                       help="lower end of the fit range (default %(default)s)")
        p.add_argument("--fit-hi", type=int, default=100000,
                       help="upper end of the fit range (default %(default)s)")
    with _command(sub, "jet-extend", _cmd_jet_extend,
                  "decide smooth extension to the cut cones", "jet"):
        pass
    with _command(sub, "pullback", _cmd_pullback, "jet to cut-cone symbol",
                  "jet") as p:
        _add_variant_option(p)
    with _command(sub, "pushforward", _cmd_pushforward,
                  "cut-cone symbol to jet", "symbol") as p:
        _add_variant_option(p)
    with _command(sub, "cone-lens", _cmd_cone_lens,
                  "standard lens cone and its invariant") as p:
        p.add_argument("--p", type=_bounded_int(1), required=True)
        p.add_argument("--q", type=_bounded_int(1), required=True)
    with _command(sub, "cone-cut", _cmd_cone_cut,
                  "intersect a cone with a half-plane", "cone") as p:
        p.add_argument("--normal", type=int, nargs=2, required=True,
                       metavar=("A", "B"), help="inward normal of the cut")
    with _command(sub, "cone-equiv", _cmd_cone_equiv,
                  "decide unimodular equivalence of two cones") as p:
        p.add_argument("input",
                       help='JSON {"first": <cone>, "second": <cone>}')
    with _command(sub, "cone-plan", _cmd_cone_plan,
                  "facet normals whose cuts rebuild the cone", "cone"):
        pass
    with _command(sub, "selftest", _cmd_selftest,
                  "run the full invariant suite",
                  formats=("table", "json", "csv")) as p:
        p.add_argument("--seed", type=int, default=None,
                       help="override the fixed seed (or set MUCUT_SEED)")
        p.add_argument("--uniform-negative-range", action="store_true",
                       help="include the diagnostic row running the mirrored "
                            "negative-shift ranges (expected to fail)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse help/usage paths; keep main() an ordinary function
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except MalformedInput as exc:
        sys.stderr.write(f"mucut: {exc}\n")
        return 1
    except DomainError as exc:
        payload = {"schema": SCHEMA, **exc.payload()}
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
