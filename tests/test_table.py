from fractions import Fraction
from itertools import product

import pytest

from conftest import TREFOIL_PD
from knotfish.diagram import parse_pd
from knotfish.errors import InputError, ValidationError
from knotfish.generators import braid_closure
from knotfish.jones import InvariantPair, v2_v3
from knotfish.table import (KnotRecord, amphicheiral_candidates, bound_audit,
                            compute_all, crossing_maxima, load_table,
                            printed_bound_check)


def write_table(tmp_path, text):
    path = tmp_path / "table.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_single_record(tmp_path):
    path = write_table(tmp_path, f"3_1\t{TREFOIL_PD}\n")
    records = load_table(path)
    assert len(records) == 1
    assert records[0].name == "3_1"
    assert records[0].crossing_number == 3
    assert records[0].diagram.crossing_count == 3


def test_load_empty_file(tmp_path):
    assert load_table(write_table(tmp_path, "")) == []
    assert load_table(write_table(tmp_path, "# only comments\n\n")) == []


def test_load_reports_line_numbers(tmp_path):
    path = write_table(tmp_path, f"3_1\t{TREFOIL_PD}\n4_1\tPD[broken\n")
    with pytest.raises(InputError, match=":2:"):
        load_table(path)


def test_load_rejects_duplicates(tmp_path):
    path = write_table(tmp_path, f"3_1\t{TREFOIL_PD}\n3_1\t{TREFOIL_PD}\n")
    with pytest.raises(InputError, match="duplicate"):
        load_table(path)


def test_load_rejects_bad_name(tmp_path):
    path = write_table(tmp_path, f"zzz\t{TREFOIL_PD}\n")
    with pytest.raises(InputError, match="crossing number"):
        load_table(path)


def test_bundled_diagrams_are_minimal(bundled_records):
    for rec in bundled_records:
        assert rec.diagram.crossing_count == rec.crossing_number, rec.name
        assert rec.crossing_number >= 3


def test_bundled_names(bundled_records):
    names = [r.name for r in bundled_records]
    assert names == ["3_1", "4_1", "5_1", "5_2", "6_1", "7_1", "7_2", "8_1",
                     "8_19", "9_1", "9_2", "10_1", "10_124"]


def test_compute_all_fills_invariants(bundled_computed, by_name):
    assert tuple(by_name["3_1"].invariants) in [(1, 1), (1, -1)]
    assert abs(by_name["3_1"].invariants.v2) == 1
    assert tuple(by_name["4_1"].invariants) == (-1, 0)
    assert compute_all([]) == []


def test_crossing_maxima_bounds_columns(bundled_computed):
    rows = {c: (m2, m3, b2, b3)
            for c, m2, m3, b2, b3 in crossing_maxima(bundled_computed)}
    assert rows[3][2:] == (Fraction(3, 2), Fraction(3, 2))
    assert rows[5][2:] == (Fraction(5), Fraction(15))
    assert rows[7][2:] == (Fraction(21, 2), Fraction(105, 2))


def test_crossing_maxima_on_bundled_subset(bundled_computed):
    """Rows the bundled (partial) table is known to maximize correctly."""
    rows = {c: (m2, m3) for c, m2, m3, _, _ in crossing_maxima(bundled_computed)}
    assert rows[3] == (1, 1)
    assert rows[4] == (1, 0)
    assert rows[5] == (3, 5)
    assert rows[6] == (2, 1)
    assert rows[7] == (6, 14)
    assert rows[8] == (5, 10)
    assert rows[9] == (10, 30)


def test_odd_crossing_maxima_attained_by_two_strand_torus(bundled_computed):
    from knotfish.torus import torus_v2v3
    by_c = {}
    for rec in bundled_computed:
        by_c.setdefault(rec.crossing_number, []).append(rec)
    for c in (3, 5, 7, 9):
        top = torus_v2v3((2, c))
        best = max(by_c[c], key=lambda r: abs(r.invariants.v2))
        assert (abs(best.invariants.v2), abs(best.invariants.v3)) == tuple(top)


def test_bound_audit_bundled_clean(bundled_computed):
    assert bound_audit(bundled_computed) == []


def test_bound_audit_flags_synthetic_violation():
    trefoil = parse_pd(TREFOIL_PD)
    bad = KnotRecord("3_99", 3, trefoil, invariants=InvariantPair(2, 1))
    violations = bound_audit([bad])
    assert any("c^2/8" in rule for _, rule in violations)
    assert any("c(c-1)/4" in rule for _, rule in violations)
    ok = KnotRecord("4_99", 4, trefoil, invariants=InvariantPair(1, 0))
    assert bound_audit([ok]) == []


def test_audits_raise_on_a_record_without_invariants():
    """The audits take ``compute_all`` output; an uncomputed record is an
    error, never silently skipped."""
    ok = KnotRecord("3_1", 3, parse_pd(TREFOIL_PD), invariants=InvariantPair(1, 1))
    uncomputed = KnotRecord("9_99", 9, parse_pd(TREFOIL_PD))
    for audit in (crossing_maxima, bound_audit, amphicheiral_candidates):
        with pytest.raises(AttributeError):
            audit([ok, uncomputed])


def test_bound_audit_integer_tests_match_fractions():
    """The audit's integer comparisons agree with |v2| > c(c-1)/4,
    |v3| > c(c-1)(c-2)/4 and v2 > c^2/8 taken in Fractions, on a grid
    that straddles each bound at every c from 0 to 15."""
    trefoil = parse_pd(TREFOIL_PD)
    records, expected = [], []
    for c in range(16):
        b2, b3 = Fraction(c * (c - 1), 4), Fraction(c * (c - 1) * (c - 2), 4)
        near_b3 = {0} | {s * (int(b3) + k) for s in (1, -1) for k in (-1, 0, 1, 2)}
        for v2, v3 in product(range(-60, 61), sorted(near_b3)):
            name = f"{c}_{len(records)}"
            records.append(KnotRecord(name, c, trefoil,
                                      invariants=InvariantPair(v2, v3)))
            rules = []
            if abs(v2) > b2:
                rules.append(f"|v2| = {abs(v2)} > c(c-1)/4 = {b2}")
            if abs(v3) > b3:
                rules.append(f"|v3| = {abs(v3)} > c(c-1)(c-2)/4 = {b3}")
            if v2 > Fraction(c * c, 8):
                rules.append(f"v2 = {v2} > c^2/8 = {Fraction(c * c, 8)}")
            expected += [(name, rule) for rule in rules]
    assert bound_audit(records) == expected


def test_bounds_hold_on_every_short_three_strand_braid():
    """|v2| <= c(c-1)/4, |v3| <= c(c-1)(c-2)/4 and v2 <= c^2/8 on the
    closure of every 3-strand braid word of length <= 6 that is a knot,
    with c the diagram's crossing count."""
    records = []
    for length in range(1, 7):
        for word in product((1, -1, 2, -2), repeat=length):
            try:
                d = braid_closure(list(word), 3)
            except ValidationError:     # closes to a link
                continue
            records.append(KnotRecord(f"{length}_{len(records)}", length, d))
    assert len(records) == 2856      # words whose permutation is a 3-cycle
    computed = compute_all(records)
    assert bound_audit(computed) == []
    # the c = 10 reference row (9, 25) is attained, also within the bounds
    d = braid_closure([1, 1, 1, 1, 2, 1, 1, 1, 2, 2], 3)
    assert tuple(v2_v3(d)) == (9, 25)
    assert bound_audit(compute_all([KnotRecord("10_s", 10, d)])) == []


def test_amphicheiral_candidates(bundled_computed, by_name):
    candidates = amphicheiral_candidates(bundled_computed)
    assert ("4_1", "even") in candidates
    assert all(parity == "even" for _, parity in candidates)
    assert amphicheiral_candidates([by_name["3_1"]]) == []


def test_user_supplied_eleven_crossing_records(tmp_path):
    """The format and pipeline accept tables beyond the bundled range."""
    from knotfish.diagram import to_pd_text
    from knotfish.generators import torus_pd
    pd_11 = to_pd_text(torus_pd((2, 11)))
    path = write_table(tmp_path, f"11_99\t{pd_11}\n")
    records = compute_all(load_table(path))
    assert records[0].crossing_number == 11
    assert tuple(records[0].invariants) == (15, 55)
    rows = crossing_maxima(records)
    assert rows[0][:3] == (11, 15, 55)
    assert bound_audit(records) == []


def test_printed_bound_mismatches():
    mism = printed_bound_check()
    assert (4, "v2", Fraction(3), Fraction(2)) in mism
    assert (7, "v2", Fraction(21, 2), Fraction(23, 2)) in mism
    assert (7, "v3", Fraction(105, 2), Fraction(115, 2)) in mism
    assert len(mism) == 3
