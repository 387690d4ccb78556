"""Command-line surface: evaluators, symmetry checks and property suites.

Exit codes: 0 success (verdicts live in report content, never in the exit
status); 1 unreadable input (missing file, malformed diagram or polynomial);
2 invalid usage of a valid input (semantic precondition, composite prime).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .cabling import phi_plane, phi_punctured
from .diagrams import (
    DiagramParseError,
    GraphDiagram,
    InvalidDiagramError,
    parse_diagram,
)
from .polyio import PolyFormatError, parse_poly_document, poly_document, serialize_poly_document
from .polyxyz import PolyXYZ, mono_str
from .rings import LocalizedElement, RingError
from .surfaces import PHI_T_PRINTED, derive_t_squared_relation
from .symmetry import Mode, full_report
from .tl import bracket
from .verify import SUITE_NAMES, run_suites
from .yamada import yamada

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2


class _CliInputError(Exception):
    """An unreadable input file; exits with EXIT_INPUT."""


def _read_text(spec: str) -> str:
    if spec.startswith("fixture:"):
        try:
            return fixtures.fixture_path(spec[len("fixture:"):]).read_text()
        except FileNotFoundError as exc:
            raise _CliInputError(str(exc)) from exc
    path = Path(spec)
    if not path.is_file():
        raise _CliInputError(f"no such file: {spec}")
    return path.read_text()


def _load_diagram(spec: str) -> GraphDiagram:
    try:
        return parse_diagram(_read_text(spec))
    except DiagramParseError as exc:
        raise _CliInputError(f"{spec}: {exc}") from exc


def _load_poly(spec: str) -> LocalizedElement:
    try:
        return parse_poly_document(_read_text(spec))
    except PolyFormatError as exc:
        raise _CliInputError(f"{spec}: {exc}") from exc


def _print_localized(value: LocalizedElement, machine: bool, label: str) -> None:
    if machine:
        print(serialize_poly_document(value))
        return
    d_form = value.d_form()
    if d_form is not None:
        print(f"{label} = {d_form}")
        print(f"  A-form: {value}")
    else:
        print(f"{label} = {value}")


def _poly_xyz_dict(p: PolyXYZ) -> dict:
    return {mono_str(m): poly_document(coeff) for m, coeff in p.items()}


# ---------------------------------------------------------------------------


def cmd_yamada(args: argparse.Namespace) -> int:
    value = yamada(_load_diagram(args.file))
    _print_localized(value, args.output == "machine", "Y")
    return EXIT_OK


def cmd_bracket(args: argparse.Namespace) -> int:
    value = bracket(_load_diagram(args.file))
    _print_localized(LocalizedElement(value), args.output == "machine", "bracket")
    return EXIT_OK


def cmd_phi(args: argparse.Namespace) -> int:
    g = _load_diagram(args.file)
    if args.surface == "plane":
        _print_localized(phi_plane(g), args.output == "machine", "phi")
        return EXIT_OK
    if args.surface == "annulus" and any(
        tok[0] == "2" for word in g.ray_words.values() for tok in word
    ):
        raise InvalidDiagramError("the annulus has one hole; ray tokens 2+/2- name a second")
    poly = phi_punctured(g)
    is_t_like = not poly.coeff((1, 1, 1, 0)).is_zero()
    delta = poly - PHI_T_PRINTED if is_t_like else None
    if args.output == "machine":
        doc = {"surface": args.surface, "value": _poly_xyz_dict(poly)}
        if delta is not None:
            doc["delta_vs_printed_t_image"] = _poly_xyz_dict(delta)
        print(json.dumps(doc))
        return EXIT_OK
    shown = str(poly)
    if args.surface == "annulus":
        shown = shown.replace("x", "b")
    print(f"phi = {shown}")
    if delta is not None:
        if delta.is_zero():
            print("  matches the printed t-image")
        else:
            print(f"  delta vs printed t-image: {delta}")
    return EXIT_OK


def cmd_symmetry(args: argparse.Namespace) -> int:
    if args.poly:
        yg = _load_poly(args.poly)
    else:
        yg = yamada(_load_diagram(args.diagram))
    yquot = None
    if args.quotient_poly:
        yquot = _load_poly(args.quotient_poly)
    elif args.quotient_diagram:
        yquot = yamada(_load_diagram(args.quotient_diagram))
    report = full_report(yg, yquot, args.p, Mode(args.mode))
    if args.output == "machine":
        print(json.dumps(report.to_dict()))
        return EXIT_OK
    print(f"order-p symmetry obstructions for p = {report.prime} (mode: {report.mode})")
    for t in report.tests:
        line = f"  [{t.verdict.value:<12}] {t.test_id}: {t.name}"
        line += f"  modulo (p, {t.modulus_printed})"
        if t.modulus_printed != t.modulus_localized:
            line += f" = (p, {t.modulus_localized})"
        if t.mode_used != report.mode:
            line += f"  [mode {t.mode_used}]"
        print(line)
        if t.verdict.value == "Obstructed" and t.witness is not None:
            print(f"      witness: {t.witness}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = run_suites(names)
    all_ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"[{status}] suite {res.name} ({res.seconds:.2f}s)")
        if args.verbose or not res.passed:
            for line in res.details:
                print(line)
        all_ok = all_ok and res.passed
    if "thm11" in names:
        report = derive_t_squared_relation()
        print("thm11 relation diff vs printed coefficients:")
        for name, dv, pv in report.mismatches:
            print(f"  {name}: derived [{dv}]  printed [{pv}]")
        print("thm11 machine-readable report:")
        print(json.dumps(report.to_dict()))
    return EXIT_OK if all_ok else EXIT_INPUT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skein",
        description="Exact Yamada / Kauffman bracket evaluation, cabling "
        "cross-checks, and order-p symmetry obstruction tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "machine"), default="text")

    p = sub.add_parser("yamada", help="Yamada value of a diagram file")
    p.add_argument("file", help="diagram file (or fixture:NAME)")
    add_output(p)
    p.set_defaults(func=cmd_yamada)

    p = sub.add_parser("bracket", help="Kauffman bracket of a link diagram file")
    p.add_argument("file")
    add_output(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("phi", help="cabled evaluation of a diagram")
    p.add_argument("file")
    p.add_argument("--surface", choices=("plane", "annulus", "pants"), default="plane")
    add_output(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("symmetry", help="order-p symmetry obstruction report")
    p.add_argument("--p", type=int, required=True, metavar="P")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial document for the spatial graph")
    src.add_argument("--diagram", help="diagram file; its Yamada value is used")
    quot = p.add_mutually_exclusive_group()
    quot.add_argument("--quotient-poly", help="polynomial document for the quotient graph")
    quot.add_argument("--quotient-diagram", help="diagram file for the quotient graph")
    p.add_argument("--mode", choices=("folded", "saturated"), default="saturated")
    add_output(p)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliInputError, DiagramParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InvalidDiagramError, RingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
