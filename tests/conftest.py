import importlib

import pytest

from knotfish.table import compute_all, load_bundled

# Anchor trefoil: positive chirality, writhe +3.
TREFOIL_PD = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
TREFOIL_GAUSS = "O1+U2+O3+U1+O2+U3+"

# the package re-exports the function jones, so fetch the module itself
jones_module = importlib.import_module("knotfish.jones")


def count_bracket_calls(monkeypatch):
    """Wrap kauffman_bracket; the returned list gets each call's crossing count."""
    bracket = jones_module.kauffman_bracket
    calls = []

    def counting_bracket(d, *args):
        calls.append(d.crossing_count)
        return bracket(d, *args)

    monkeypatch.setattr(jones_module, "kauffman_bracket", counting_bracket)
    return calls


@pytest.fixture(scope="session")
def bundled_records():
    return load_bundled()


@pytest.fixture(scope="session")
def bundled_computed(bundled_records):
    records = compute_all(bundled_records)
    assert all(r.invariants is not None for r in records)
    return records


@pytest.fixture(scope="session")
def by_name(bundled_computed):
    return {r.name: r for r in bundled_computed}
