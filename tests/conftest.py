import importlib

import pytest
from hypothesis import strategies as st

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


@st.composite
def knot_braids(draw, max_letters=12, min_letters=1, min_strands=2):
    """(word, strands): a braid on ``min_strands``-4 strands whose closure
    is a knot.

    Letters are drawn freely, then each component of the closure is joined
    to its neighbour by one more letter, so the word has between
    ``min_letters`` and ``max_letters`` letters."""
    strands = draw(st.integers(min_strands, 4))
    letter = st.integers(1, strands - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    word = draw(st.lists(letter, min_size=min_letters,
                         max_size=max_letters + 1 - strands))
    while True:
        perm = list(range(strands))
        for g in word:
            j = abs(g) - 1
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
        component, i = {0}, perm[0]
        while i != 0:
            component.add(i)
            i = perm[i]
        if len(component) == strands:
            return word, strands
        j = next(j for j in range(strands - 1)
                 if (j in component) != (j + 1 in component))
        word.append(draw(st.sampled_from([j + 1, -j - 1])))
