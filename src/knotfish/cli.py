"""Command-line interface.

Exit codes: 0 success, 1 input error (bad arguments, unparsable codes,
bad table rows), 2 computation error (crossing cap, exactness failures,
out-of-domain formulas).  ``invariants`` prints the Jones polynomial,
whose state sum stops at ``--cap`` crossings (default
DEFAULT_CROSSING_CAP).  Every subcommand, ``invariants`` included, takes
(v2, v3) from the Gauss-diagram formulas of ``v2_v3``, which have no cap.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import table as table_mod
from .diagram import Diagram, parse_gauss, parse_pd, to_pd_text, writhe
from .errors import ComputationError, InputError
from .generators import TorusParams, torus_pd, whitehead_pd
from .jones import DEFAULT_CROSSING_CAP, InvariantPair, arf, jones, v2_v3
from .plots import emit_csv, emit_fish_svg, emit_torus_overlay_svg
from .torus import pseudo_invariants, torus_report, torus_v2v3

__all__ = ["cli_main", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _parse_any_code(text: str) -> Diagram:
    """A PD or Gauss code, or a path to a file whose text is one; a file's
    text is read as a code only, never as another path."""
    stripped = text.strip()
    # A Gauss code opens with O or U and a crossing id; a file name such
    # as Output.pd does not.  The text is tried as a code first because
    # Path.is_file() raises on names too long for the file system.
    if not (stripped.startswith("PD[") or re.match(r"[OU]\s*\d", stripped)
            or stripped == ""):
        path = Path(stripped)
        if not path.is_file():
            raise InputError(f"cannot interpret {text!r}: not a PD code, "
                             "Gauss code, or readable file")
        stripped = table_mod.read_utf8(path).strip()
    if stripped.startswith("PD["):
        return parse_pd(stripped)
    return parse_gauss(stripped)


def _num(x) -> str:
    if isinstance(x, Fraction):
        return str(x) if x.denominator > 1 else str(x.numerator)
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _load_table_arg(source: str):
    if source == "bundled":
        return table_mod.load_bundled()
    return table_mod.load_table(source)


# -- subcommands -------------------------------------------------------------

def _cmd_invariants(args) -> int:
    d = _parse_any_code(args.code)
    j = jones(d, args.cap)
    pair = v2_v3(d)
    print(f"crossings: {d.crossing_count}")
    print(f"writhe: {writhe(d)}")
    print(f"jones: {j}")
    print(f"v2: {pair.v2}")
    print(f"v3: {pair.v3}")
    print(f"arf: {arf(pair)}")
    return 0


def _cmd_table(args) -> int:
    records = table_mod.compute_all(_load_table_arg(args.file))
    did_something = False
    if args.maxima or args.audit:
        print(f"records: {len(records)} computed")
    if args.maxima:
        did_something = True
        print("c  max|v2|  max|v3|  bound|v2|  bound|v3|")
        for c, m2, m3, b2, b3 in table_mod.crossing_maxima(records):
            print(f"{c:<3d}{m2:<9d}{m3:<9d}{_num(b2):<11s}{_num(b3)}")
        for c, which, formula, printed in table_mod.printed_bound_check():
            print(f"note: printed bound table gives {which} bound {_num(printed)} "
                  f"at c={c}; formula value is {_num(formula)}")
    if args.audit:
        did_something = True
        violations = table_mod.bound_audit(records)
        if violations:
            for name, rule in violations:
                print(f"VIOLATION {name}: {rule}")
            return 2
        print("bound audit: no violations")
        amphi = table_mod.amphicheiral_candidates(records)
        print("v3 = 0 (amphicheiral candidates): "
              + (", ".join(f"{n} ({p})" for n, p in amphi) or "none"))
    if args.csv:
        did_something = True
        emit_csv(records, args.csv)
        print(f"wrote {args.csv}")
    if not did_something:
        for rec in records:
            print(f"{rec.name}\t{rec.crossing_number}\t"
                  f"{rec.invariants.v2}\t{rec.invariants.v3}")
    return 0


def _cmd_plot(args) -> int:
    records = table_mod.compute_all(_load_table_arg(args.file))
    emit_fish_svg(records, args.crossing, args.svg,
                  include_mirrors=not args.no_mirrors)
    print(f"wrote {args.svg}")
    return 0


def _cmd_torus(args) -> int:
    t = TorusParams(args.p, args.q)
    pair = torus_v2v3(t)
    if t.is_unknot:
        print(f"T({t.p},{t.q}) is the unknot: (v2,v3) = (0, 0), u = 0")
        return 0
    if not args.report:
        print(f"(v2,v3) = ({pair.v2}, {pair.v3})")
        return 0
    rep = torus_report(t)
    print(f"T({t.p},{t.q}): (v2,v3) = ({pair.v2}, {pair.v3})")
    print(f"unknotting u = {rep.unknotting}   crossing c = {rep.crossing}   "
          f"rho = {_num(rep.rho)}")
    print(f"recovered from invariants: u = {rep.recovered_unknotting}, "
          f"c = {_num(rep.recovered_crossing)}")
    print(f"pseudo-invariants: u~ = {_num(rep.pseudo[0])}, c~ = {_num(rep.pseudo[1])}")
    checks = [
        ("cubic bounds", rep.cubic.all_hold),
        ("unknotting bounds + corollary", rep.unknotting_bounds.all_hold),
        ("crossing bounds + corollary (derived constants)", rep.crossing_bounds.all_hold),
        ("crossing quartic", rep.quartic_holds),
        ("pseudo-invariants coincide", rep.pseudo == (rep.unknotting, rep.crossing)),
    ]
    for label, ok in checks:
        print(f"  [{'pass' if ok else 'FAIL'}] {label}")
    return 0 if rep.consistent else 2


def _cmd_pseudo(args) -> int:
    u_t, c_t = pseudo_invariants(InvariantPair(args.v2, args.v3))
    print(f"u~ = {_num(u_t)}")
    print(f"c~ = {_num(c_t)}")
    return 0


def _cmd_generate(args) -> int:
    if args.family == "torus":
        if args.b is None:
            raise InputError("generate torus needs p and q")
        d = torus_pd(TorusParams(args.a, args.b))
    else:
        if args.b is not None:
            raise InputError("whitehead takes a single index")
        d = whitehead_pd(args.a)
    print(to_pd_text(d))
    return 0


def _parse_int_list(text: str) -> list[int]:
    """Comma list of integers and inclusive a..b ranges, e.g. '3,5..17'."""
    values: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        lo_s, dots, hi_s = item.partition("..")
        try:
            lo = int(lo_s)
            hi = int(hi_s) if dots else lo
        except ValueError as exc:
            raise InputError(f"{item!r} is not an integer or an a..b range") from exc
        if hi < lo:
            raise InputError(f"empty range {item!r}")
        values.extend(range(lo, hi + 1))
    return values


def _cmd_curves(args) -> int:
    u_values = _parse_int_list(args.unknotting) if args.unknotting else []
    c_values = _parse_int_list(args.crossing) if args.crossing else []
    emit_torus_overlay_svg(u_values, c_values, args.svg, samples=args.samples)
    print(f"wrote {args.svg}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="knotfish",
                     description="Vassiliev invariants v2, v3 from knot diagrams; "
                                 "torus-knot formulas; fish plots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="compute invariants of one diagram")
    p.add_argument("code", help="PD code, signed Gauss code, or path to a file holding one")
    p.add_argument("--cap", type=int, default=DEFAULT_CROSSING_CAP,
                   help="state-sum crossing cap")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("table", help="bulk-compute a knot table")
    p.add_argument("file", help="table file (name<TAB>PD[...] per line) or 'bundled'")
    p.add_argument("--maxima", action="store_true", help="per-crossing-number maxima vs bounds")
    p.add_argument("--audit", action="store_true", help="check the crossing-number bounds")
    p.add_argument("--csv", metavar="OUT", help="write name,crossings,v2,v3 CSV")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("plot", help="fish scatter for one crossing number")
    p.add_argument("file", help="table file or 'bundled'")
    p.add_argument("--crossing", type=int, required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--no-mirrors", action="store_true",
                   help="plot stored chirality only")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("torus", help="closed-form torus-knot analysis")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--report", action="store_true", help="run all relation checks")
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("pseudo", help="pseudo-unknotting and pseudo-crossing numbers")
    p.add_argument("v2", type=int)
    p.add_argument("v3", type=int)
    p.set_defaults(func=_cmd_pseudo)

    p = sub.add_parser("generate", help="emit PD text for a knot family")
    p.add_argument("family", choices=("torus", "whitehead"))
    p.add_argument("a", type=int, help="p (torus) or twist index (whitehead)")
    p.add_argument("b", type=int, nargs="?", help="q (torus only)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("curves", help="torus u/c curve overlay SVG")
    p.add_argument("--unknotting", metavar="LIST", help="e.g. 1..9")
    p.add_argument("--crossing", metavar="LIST", help="e.g. 3,5..17")
    p.add_argument("--svg", required=True)
    p.add_argument("--samples", type=int, default=120)
    p.set_defaults(func=_cmd_curves)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
