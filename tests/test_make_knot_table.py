import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_knot_table.py"


def test_script_rebuilds_the_bundled_table():
    """Building the text checks every row by v2_v3 and by the Jones
    derivatives; the result is the bundled file, byte for byte."""
    spec = importlib.util.spec_from_file_location("make_knot_table", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.table_text().encode("utf-8") == script.OUT.read_bytes()
