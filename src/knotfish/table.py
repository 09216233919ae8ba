"""Prime-knot table ingestion and the maxima-vs-bounds audits.

Table files are UTF-8 text, one record per line, ``name<TAB>PD[...]``,
with ``#`` comments and blank lines ignored.  The tabulated minimal
crossing number is read from the name prefix (``10_124`` -> 10).

A partial table generated from the package's own torus and twist-knot
constructors is bundled; see data/knots_upto10.txt for its provenance
and scope.  Audits accept any table in the same format, so a fuller
table (11-15 crossings included) can be supplied by the user.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .diagram import Diagram, parse_pd
from .errors import InputError, KnotfishError
from .jones import InvariantPair, v2_v3

__all__ = ["KnotRecord", "load_table", "load_bundled", "compute_all",
           "crossing_maxima", "bound_audit", "amphicheiral_candidates",
           "BUNDLED_TABLE", "PRINTED_BOUND_ROWS", "printed_bound_check"]

BUNDLED_TABLE = "knots_upto10.txt"


class KnotRecord(NamedTuple):
    """One table row: a named knot, its minimal crossing number, a diagram,
    and the computed invariants once filled in.

    ``error`` is always None, since ``v2_v3`` cannot fail on a validated
    diagram; the field stays because ``perfbench`` reads it under
    ``--trace 1``.
    """

    name: str
    crossing_number: int
    diagram: Diagram
    invariants: InvariantPair | None = None
    error: str | None = None


def _crossing_number_from_name(name: str) -> int:
    head = name.split("_", 1)[0]
    if head.isdecimal():
        try:
            return int(head)
        except ValueError:      # more digits than int() converts
            pass
    raise InputError(f"record name {name!r} does not start with a crossing number")


def _parse_table_text(text: str, origin: str) -> list[KnotRecord]:
    records: list[KnotRecord] = []
    names: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise InputError(f"{origin}:{lineno}: expected 'name<TAB>PD[...]'")
        name, pd_text = parts[0].strip(), parts[1].strip()
        if name in names:
            raise InputError(
                f"{origin}:{lineno}: duplicate name {name!r} (first at line {names[name]})")
        names[name] = lineno
        try:
            diagram = parse_pd(pd_text, name=name)
        except KnotfishError as exc:
            raise InputError(f"{origin}:{lineno}: {exc}") from exc
        records.append(KnotRecord(name, _crossing_number_from_name(name), diagram))
    return records


def load_table(source: str | Path) -> list[KnotRecord]:
    """Parse and validate a knot-table file; errors carry line numbers."""
    path = Path(source)
    return _parse_table_text(read_utf8(path), str(path))


def read_utf8(path: Path) -> str:
    """Text of the file at ``path``; bytes that are not UTF-8 raise InputError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def bundled_table_path() -> Path:
    # importlib.resources is imported here, not at the top: it pulls in
    # tempfile, shutil and zipfile, which no other command needs.
    from importlib import resources
    with resources.as_file(resources.files("knotfish.data") / BUNDLED_TABLE) as p:
        return Path(p)


def load_bundled() -> list[KnotRecord]:
    from importlib import resources
    text = (resources.files("knotfish.data") / BUNDLED_TABLE).read_text("utf-8")
    return _parse_table_text(text, BUNDLED_TABLE)


def compute_all(records: list[KnotRecord]) -> list[KnotRecord]:
    """Fill invariants for every record, in input order."""
    out = []
    for rec in records:
        out.append(KnotRecord(rec.name, rec.crossing_number, rec.diagram,
                              v2_v3(rec.diagram)))
    return out


def _bounds(c: int) -> tuple[Fraction, Fraction]:
    """The bounds c(c-1)/4 on |v2| and c(c-1)(c-2)/4 on |v3| at c crossings."""
    return Fraction(c * (c - 1), 4), Fraction(c * (c - 1) * (c - 2), 4)


def crossing_maxima(records: list[KnotRecord]) -> list[tuple[int, int, int, Fraction, Fraction]]:
    """Rows (c, max|v2|, max|v3|, bound_v2, bound_v3), one per crossing
    number present, bounds being c(c-1)/4 and c(c-1)(c-2)/4."""
    by_c: dict[int, list[InvariantPair]] = {}
    for rec in records:
        by_c.setdefault(rec.crossing_number, []).append(rec.invariants)
    rows = []
    for c in sorted(by_c):
        pairs = by_c[c]
        rows.append((
            c,
            max(abs(p.v2) for p in pairs),
            max(abs(p.v3) for p in pairs),
            *_bounds(c),
        ))
    return rows


def bound_audit(records: list[KnotRecord]) -> list[tuple[str, str]]:
    """Violations of |v2| <= c(c-1)/4, |v3| <= c(c-1)(c-2)/4, v2 <= c^2/8.

    Expected empty; each violation reports the knot name and the rule.
    """
    violations = []
    for rec in records:
        c = rec.crossing_number
        v2, v3 = rec.invariants.v2, rec.invariants.v3
        # The three bounds in integers; _bounds(c) only formats a message.
        if 4 * abs(v2) > c * (c - 1):
            violations.append(
                (rec.name, f"|v2| = {abs(v2)} > c(c-1)/4 = {_bounds(c)[0]}"))
        if 4 * abs(v3) > c * (c - 1) * (c - 2):
            violations.append(
                (rec.name, f"|v3| = {abs(v3)} > c(c-1)(c-2)/4 = {_bounds(c)[1]}"))
        if 8 * v2 > c * c:
            violations.append((rec.name, f"v2 = {v2} > c^2/8 = {Fraction(c*c,8)}"))
    return violations


def amphicheiral_candidates(records: list[KnotRecord]) -> list[tuple[str, str]]:
    """Names with v3 = 0 (necessary for amphicheirality), with the parity
    of the crossing number annotated."""
    out = []
    for rec in records:
        if rec.invariants.v3 == 0:
            parity = "even" if rec.crossing_number % 2 == 0 else "odd"
            out.append((rec.name, parity))
    return out


# The source table prints these bound rows for c = 3..12; the printed
# values disagree with the c(c-1)/4 and c(c-1)(c-2)/4 formulas at c = 4
# (2 vs 3) and c = 7 (11.5 vs 10.5 and 57.5 vs 52.5).  The audit reports
# both so the discrepancy is visible instead of silently adopted.
PRINTED_BOUND_ROWS = {
    3: (Fraction(3, 2), Fraction(3, 2)),
    4: (Fraction(2), Fraction(6)),
    5: (Fraction(5), Fraction(15)),
    6: (Fraction(15, 2), Fraction(30)),
    7: (Fraction(23, 2), Fraction(115, 2)),
    8: (Fraction(14), Fraction(84)),
    9: (Fraction(18), Fraction(126)),
    10: (Fraction(45, 2), Fraction(180)),
    11: (Fraction(55, 2), Fraction(495, 2)),
    12: (Fraction(33), Fraction(330)),
}


def printed_bound_check() -> list[tuple[int, str, Fraction, Fraction]]:
    """Compare formula bounds against the printed table rows.

    Returns (c, which, formula value, printed value) for every mismatch;
    the printed values are the suspected typos, the formula is trusted.
    """
    mismatches = []
    for c, (p2, p3) in sorted(PRINTED_BOUND_ROWS.items()):
        f2, f3 = _bounds(c)
        if f2 != p2:
            mismatches.append((c, "v2", f2, p2))
        if f3 != p3:
            mismatches.append((c, "v3", f3, p3))
    return mismatches
