import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_edits_one_place_in_the_current_source(mutant):
    """The mutants themselves run under ``scripts/mutants.py``; this only
    keeps their edits in step with the source."""
    assert mutants.occurrences(mutant) == 1
