#!/usr/bin/env python3
"""Regenerate the bundled knot-table asset.

Every bundled diagram is produced by the package's own torus-braid and
twist-ladder constructors, so each row's identity is a mathematical fact
of the construction (torus knots T(2,q)/T(3,q) and the twist-knot family)
rather than transcribed table data.  Each row's (v2, v3) is checked twice,
by the Gauss-diagram formulas of ``v2_v3`` and by the derivatives of the
state-sum Jones polynomial (the tests' oracle in ``tests/jones_oracle.py``),
so the two methods cross-check each other.  Knots outside these families
have no offline source; see the README data note.

Run from the repository root:  python scripts/make_knot_table.py
The tests call ``table_text`` and compare it with the bundled file.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from jones_oracle import pair_from_jones  # noqa: E402
from knotfish import to_pd_text, torus_pd, v2_v3, whitehead_pd  # noqa: E402
from knotfish.generators import _hook_diagram  # noqa: E402
from knotfish.jones import jones  # noqa: E402

OUT = ROOT / "src" / "knotfish" / "data" / "knots_upto10.txt"

# name -> (constructor, expected (v2, v3) of the constructed chirality)
ROWS = [
    ("3_1", lambda: torus_pd((2, 3)), (1, 1)),
    ("4_1", lambda: whitehead_pd(-1), (-1, 0)),
    ("5_1", lambda: torus_pd((2, 5)), (3, 5)),
    ("5_2", lambda: _hook_diagram(3, 1, 1), (2, 3)),
    ("6_1", lambda: whitehead_pd(-2), (-2, 1)),
    ("7_1", lambda: torus_pd((2, 7)), (6, 14)),
    ("7_2", lambda: _hook_diagram(5, 1, 1), (3, 6)),
    ("8_1", lambda: whitehead_pd(-3), (-3, 3)),
    ("8_19", lambda: torus_pd((3, 4)), (5, 10)),
    ("9_1", lambda: torus_pd((2, 9)), (10, 30)),
    ("9_2", lambda: _hook_diagram(7, 1, 1), (4, 10)),
    ("10_1", lambda: whitehead_pd(-4), (-4, 6)),
    ("10_124", lambda: torus_pd((3, 5)), (8, 20)),
]


def table_text() -> str:
    """The bundled table's text, after checking every row by both routes."""
    lines = [
        "# Prime-knot PD table (partial): every diagram below is generated",
        "# by the package's torus-braid and twist-ladder constructors, so",
        "# identities are certain by construction.  The remaining prime",
        "# knots with <= 10 crossings have no offline source here; supply",
        "# a fuller table in this format to extend coverage.",
        "# format: name<TAB>PD[...]",
    ]
    for name, build, expected in ROWS:
        d = build()
        c = int(name.split("_")[0])
        if d.crossing_count != c:
            raise SystemExit(f"{name}: diagram has {d.crossing_count} crossings, want {c}")
        got = tuple(v2_v3(d))
        if got != expected:
            raise SystemExit(f"{name}: v2,v3 = {got}, want {expected}")
        via_jones = tuple(pair_from_jones(jones(d)))
        if via_jones != expected:
            raise SystemExit(f"{name}: v2,v3 from Jones = {via_jones}, want {expected}")
        lines.append(f"{name}\t{to_pd_text(d)}")
    return "\n".join(lines) + "\n"


def main() -> int:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(table_text(), encoding="utf-8")
    print(f"wrote {OUT} ({len(ROWS)} records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
