import csv
import io
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotfish.diagram import parse_pd
from knotfish.jones import InvariantPair
from knotfish.plots import (_ranges, _render_svg, emit_csv, emit_fish_svg,
                            emit_torus_overlay_svg)
from knotfish.table import KnotRecord

from conftest import TREFOIL_PD


def test_csv_content_and_round_trip(bundled_computed, tmp_path):
    out = emit_csv(bundled_computed, tmp_path / "t.csv")
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "name,crossings,v2,v3"
    assert len(lines) == len(bundled_computed) + 1
    assert "\r" not in text
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    for rec, row in zip(bundled_computed, rows):
        assert row["name"] == rec.name
        assert int(row["crossings"]) == rec.crossing_number
        assert int(row["v2"]) == rec.invariants.v2
        assert int(row["v3"]) == rec.invariants.v3


def test_csv_of_an_uncomputed_record_raises_and_writes_nothing(tmp_path):
    recs = [KnotRecord("3_1", 3, parse_pd(TREFOIL_PD), InvariantPair(1, 1)),
            KnotRecord("9_9", 9, parse_pd("PD[]"))]
    with pytest.raises(AttributeError):
        emit_csv(recs, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def test_csv_empty_records(tmp_path):
    out = emit_csv([], tmp_path / "t.csv")
    assert out.read_text() == "name,crossings,v2,v3\n"


def test_fish_svg_deterministic(bundled_computed, tmp_path):
    a = emit_fish_svg(bundled_computed, 7, tmp_path / "a.svg")
    b = emit_fish_svg(bundled_computed, 7, tmp_path / "b.svg")
    assert a.read_bytes() == b.read_bytes()


def test_fish_svg_mirror_synthesis(bundled_computed, tmp_path):
    out = emit_fish_svg(bundled_computed, 7, tmp_path / "m.svg")
    text = out.read_text()
    # 7_1 and 7_2 each contribute both chiralities
    assert text.count("<circle") == 4
    assert "mirror(7_1)" in text
    out = emit_fish_svg(bundled_computed, 7, tmp_path / "n.svg",
                        include_mirrors=False)
    assert out.read_text().count("<circle") == 2


def test_fish_svg_empty_is_axes_only(tmp_path):
    out = emit_fish_svg([], 6, tmp_path / "e.svg")
    text = out.read_text()
    assert text.startswith("<svg")
    assert "<rect" in text
    assert "<circle" not in text
    assert text.rstrip().endswith("</svg>")


def test_fish_svg_vertical_range_symmetric(bundled_computed, tmp_path):
    out = emit_fish_svg(bundled_computed, 3, tmp_path / "s.svg")
    spec_points = [(1.0, 1.0, "3_1"), (1.0, -1.0, "mirror(3_1)")]
    _, (y0, y1) = _ranges(spec_points, [])
    assert y0 == -y1
    assert out.read_text().count("<circle") == 2


def test_torus_overlay_svg(tmp_path):
    out = emit_torus_overlay_svg(list(range(1, 10)), [3, 5, 7], tmp_path / "o.svg")
    text = out.read_text()
    assert text.count("<path") == 2 * (9 + 3)
    assert "T(2,3)" in text
    a = emit_torus_overlay_svg([1], [], tmp_path / "p.svg")
    b = emit_torus_overlay_svg([1], [], tmp_path / "q.svg")
    assert a.read_bytes() == b.read_bytes()


def test_torus_overlay_empty(tmp_path):
    out = emit_torus_overlay_svg([], [], tmp_path / "e.svg")
    text = out.read_text()
    assert "<path" not in text and "<circle" not in text
    assert text.startswith("<svg")


# Printable names (str.isprintable's categories) without tab or newline,
# with the characters CSV and XML treat specially drawn often.
_names = st.text(st.one_of(
    st.sampled_from('&<>,"\' '),
    st.characters(exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"))),
    min_size=1)


@given(st.lists(_names, min_size=1, max_size=3, unique=True))
def test_emitters_escape_arbitrary_names(names):
    trefoil = parse_pd(TREFOIL_PD)
    recs = [KnotRecord(n, 3, trefoil, InvariantPair(1, 1)) for n in names]
    with tempfile.TemporaryDirectory() as tmp:
        text = emit_csv(recs, Path(tmp) / "t.csv").read_text(encoding="utf-8")
        svg = emit_fish_svg(recs, 3, Path(tmp) / "t.svg").read_bytes()
    assert list(csv.reader(io.StringIO(text))) == (
        [["name", "crossings", "v2", "v3"]] + [[n, "3", "1", "1"] for n in names])
    titles = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}title")]
    assert sorted(titles) == sorted(names + [f"mirror({n})" for n in names])
    heading = ET.fromstring(_render_svg([], [], names[0])).find(
        "{http://www.w3.org/2000/svg}text")
    assert heading.text == names[0]
