import csv
import hashlib
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# SHA-256 of the emitters' bytes for the bundled table and the benchmark's
# torus overlay (u = 1..9, c = 3, 5, ..., 17).  Any change to an emitted
# byte must show here and be made on purpose.
FISH_SVG_SHA256 = {
    (3, False): "cf625666d02eb94934663721fc9f3c2a5ac87efd95ea7dbd46ca6f0eecae1e9f",
    (3, True): "6e33c000b6dda158570e84bc6f7cf5ba489d31912028f129479da3ffc8d05d33",
    (4, False): "c1704a2747181926f57d97b216f3820bb1d71a23a1416eb7f275df9bdf78c53f",
    (4, True): "c1704a2747181926f57d97b216f3820bb1d71a23a1416eb7f275df9bdf78c53f",
    (5, False): "28249821dc551f2a3b5fd7dbc1ac2f493980e54081cf10b57354d9c8f6b9cbaa",
    (5, True): "d0c5db5ecaecf37238cd88a00478acbfbef66eb593b1a96332b9ad8c86f2ed40",
    (6, False): "362088f081e243e0f7cbd5f8eff5dee522c9b6a56bd9e8df63253c835032e9c0",
    (6, True): "5004d183ac16c2064c5ee50fd9d6995c16cbd838f69b2dea33897150abe2dcb7",
    (7, False): "f1ebf05642d8360b6b8be33966a43cd23615045166b9da533600b87cd1d6fdd2",
    (7, True): "b6833c60b4eee52dd3b7159c2d38e3dd838105e7db5d807bd8961cd28162b828",
    (8, False): "8a05a9b8b2ea3517eb83fab04f314a1ca780f8c1da30efdba49af0b7bb6812b2",
    (8, True): "241e758ce17b51b7374f4e8a46a37e197fd0f039237b2156bef670c742b9e438",
    (9, False): "5cc7c02bbeb8838bc1f718fa0b3d1f79f6d37ad07ebb9dfcca93e60a273fabe1",
    (9, True): "d296d71e79a3ffbd57bce5583507ff81a86202db4bd9f6dbc4c482db103de827",
    (10, False): "0600f916054d3c1beaa1a0b4e969496bd9872cbe48deec716a19288ea8ae1379",
    (10, True): "8312fddb9ff26bbc1f7f7ae800dbd813037cdd509e07f04ad77f9e110819067b",
}
CSV_SHA256 = (
    "97528950405e1f7db92b18be85334ca5f8a0c6ae958c0e64a8fd0e370a3e64fc")
OVERLAY_SHA256 = (
    "b1c46323461d0098a1919ed3d29e26627171a2aa349bdc1d9d2ae1e8c500f4d3")


@pytest.mark.parametrize("c, mirrors", sorted(FISH_SVG_SHA256))
def test_fish_svg_bytes_are_pinned(bundled_computed, tmp_path, c, mirrors):
    out = emit_fish_svg(bundled_computed, c, tmp_path / "f.svg",
                        include_mirrors=mirrors)
    assert _sha256(out) == FISH_SVG_SHA256[c, mirrors]


def test_csv_and_overlay_bytes_are_pinned(bundled_computed, tmp_path):
    assert _sha256(emit_csv(bundled_computed, tmp_path / "t.csv")) == CSV_SHA256
    out = emit_torus_overlay_svg(list(range(1, 10)), list(range(3, 18, 2)),
                                 tmp_path / "o.svg")
    assert _sha256(out) == OVERLAY_SHA256
