#!/usr/bin/env python3
"""Check that the tests catch a table of hand-made faults (mutants).

    python3 scripts/mutants.py WORKDIR

Each mutant in ``MUTANTS`` names a file under ``src/`` or ``tests/``, one
exact ``old`` -> ``new`` text edit, and the pytest node ids that must
catch it.  First the named tests must pass on an unmodified copy.  Then,
for each mutant, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a fresh directory under WORKDIR, applies the
edit there, runs the named tests with ``-x -q`` and reports the mutant
killed (a test failed) or survived (all passed); a run that neither
passes nor fails, say a collection error, is an error.  A root
``conftest.py`` in each copy runs Hypothesis with a fixed seed and
without shrinking.  Each copy is removed afterwards; the repository
itself is never edited.  The exit status is 1 if any mutant survived or
gave an error, or if its ``old`` text does not occur exactly once.
Standard library only; the tests themselves need pytest and hypothesis.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# Loaded from the copy's root conftest.py: a fixed seed, so a result
# repeats, and no shrinking, which can take minutes on a killed mutant and
# changes no verdict.
_HYPOTHESIS_PROFILE = """\
from hypothesis import Phase, settings
settings.register_profile("mutants", derandomize=True,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")
"""


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    old: str            # must occur exactly once in ``path``
    new: str
    tests: tuple[str, ...]


_ABOVE_CAP = "tests/test_jones.py::test_gauss_formulas_above_the_bracket_cap"
_MOVES = "tests/test_reidemeister.py::test_invariants_unchanged_by_reidemeister_moves"
_RANDOM_TUPLES = "tests/test_diagram.py::test_validator_matches_reference_on_random_tuples"
_ROUNDED = "tests/test_torus.py::test_recoveries_are_correctly_rounded"
_WALKS = "tests/test_diagram.py::test_walk_builder_matches_the_validator"
_MIRROR = "tests/test_diagram.py::test_mirror_matches_the_validator"

MUTANTS = (
    # v2_v3: one per branch condition or inner-loop break.
    Mutant("v2_v3-uob-last-bound", "src/knotfish/jones.py",
           "if uc and lc > lb:", "if uc and lc > la:", (_ABOVE_CAP, _MOVES)),
    Mutant("v2_v3-uob-break", "src/knotfish/jones.py",
           "if fc > la:\n                            break\n"
           "                        if uc and lc > lb:",
           "if fc > lb:\n                            break\n"
           "                        if uc and lc > lb:", (_ABOVE_CAP, _MOVES)),
    Mutant("v2_v3-uu-middle-bound", "src/knotfish/jones.py",
           "if not uc and la < lc < lb:", "if not uc and la < lc:",
           (_ABOVE_CAP, _MOVES)),
    Mutant("v2_v3-uob-crossed-bound", "src/knotfish/jones.py",
           "if not uc and lc > la:", "if not uc and lc > lb:", (_ABOVE_CAP, _MOVES)),
    Mutant("v2_v3-ou-branch", "src/knotfish/jones.py",
           "elif ub and la < lb:", "elif ub:", (_ABOVE_CAP, _MOVES)),
    # diagram validation and the walk
    Mutant("skip-check-planar", "src/knotfish/diagram.py",
           "orientation inconsistent\")\n\n    _check_planar(labels, ne)\n",
           "orientation inconsistent\")\n\n",
           ("tests/test_diagram.py::test_nonplanar_pd_code_rejected", _RANDOM_TUPLES,
            _MOVES)),
    Mutant("eager-under-in-edge-error", "src/knotfish/diagram.py",
           "        if entered[a] and not twice:        # the under in-edge\n"
           "            twice = a\n",
           "        if entered[a]:\n"
           "            raise ValidationError(\n"
           "                f\"edge {a} enters two crossings; orientation inconsistent\")\n",
           (_RANDOM_TUPLES,)),
    Mutant("eager-over-in-edge-error", "src/knotfish/diagram.py",
           "        if entered[o] and not twice:\n"
           "            twice = o\n",
           "        if entered[o]:\n"
           "            raise ValidationError(\n"
           "                f\"edge {o} enters two crossings; orientation inconsistent\")\n",
           (_RANDOM_TUPLES,)),
    # the direct walk and mirror builders
    Mutant("walk-skips-check-planar", "src/knotfish/diagram.py",
           "signs.append(sign)\n    _check_planar(labels, ne)\n", "signs.append(sign)\n",
           ("tests/test_diagram.py::test_nonplanar_code_rejected", _WALKS)),
    Mutant("walk-sign-unnormalized", "src/knotfish/diagram.py",
           "sign = 1 if sign1 > 0 else -1", "sign = sign1", (_WALKS,)),
    Mutant("mirror-keeps-signs", "src/knotfish/diagram.py",
           "tuple(-s for s in d.signs)", "d.signs", (_MIRROR,)),
    Mutant("walk-swaps-over-in-edge", "src/knotfish/diagram.py",
           "walk[(b if sign > 0 else dd) - 1] = (i, True)",
           "walk[(dd if sign > 0 else b) - 1] = (i, True)", (_RANDOM_TUPLES,)),
    Mutant("arf-reads-v3", "src/knotfish/jones.py",
           "return pair.v2 % 2", "return pair.v3 % 2",
           ("tests/test_jones.py::test_arf", _MOVES)),
    Mutant("svg-cy-five-digits", "src/knotfish/plots.py",
           'cy="{bottom - (y - y0) / dy * ih:.6g}"', 'cy="{bottom - (y - y0) / dy * ih:.5g}"',
           ("tests/test_plots.py::test_fish_svg_bytes_are_pinned",)),
    # the one table reader, the one writer and the CLI's one loader
    Mutant("reader-keeps-bom", "src/knotfish/table.py",
           'path.read_text(encoding="utf-8-sig")', 'path.read_text(encoding="utf-8")',
           ("tests/test_table.py::test_load_drops_a_leading_bom",
            "tests/test_table.py::test_bundled_table_is_read_by_load_table")),
    Mutant("writer-encoding", "src/knotfish/plots.py",
           'out.write_bytes(text.encode("utf-8"))', 'out.write_bytes(text.encode("utf-16"))',
           ("tests/test_plots.py::test_csv_and_overlay_bytes_are_pinned",)),
    Mutant("listing-guard-drops-csv", "src/knotfish/cli.py",
           "if not (args.maxima or args.audit or args.csv):",
           "if not (args.maxima or args.audit):",
           ("tests/test_cli.py::test_table_csv",)),
    Mutant("loader-skips-compute-all", "src/knotfish/cli.py",
           "return table_mod.compute_all(records)", "return records",
           ("tests/test_cli.py::test_table_default_listing",
            "tests/test_cli.py::test_plot_subcommand")),
    # the once-rounded torus recoveries and the lattice-point search
    Mutant("recovery-bits-not-doubled", "src/knotfish/torus.py",
           "bits = 64 + 2 * (r.numerator", "bits = 64 + (r.numerator",
           (_ROUNDED,)),
    Mutant("rounding-ignores-exact", "src/knotfish/torus.py",
           "if exact and x.denominator == 1 else", "if x.denominator == 1 else",
           (_ROUNDED,)),
    Mutant("torus-pairs-stop-short", "src/knotfish/torus.py",
           "range(1, math.isqrt(n) + 1)", "range(1, math.isqrt(n) - 1 + 1)",
           ("tests/test_torus.py::test_torus_pairs_match_the_linear_search",)),
    Mutant("lattice-limit-dropped", "src/knotfish/torus.py",
           "if n > _TORUS_PAIRS_LIMIT:", "if False:",
           ("tests/test_torus.py::test_torus_pairs_refuse_values_above_the_limit",)),
    Mutant("recovered-crossing-from-u", "src/knotfish/torus.py",
           "recovered_crossing=pseudo[1]", "recovered_crossing=pseudo[0]",
           ("tests/test_torus.py::test_proposition_sweep_exact",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often ``mutant.old`` occurs in its file under ``root``."""
    return (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def run_tests(workdir: Path, tests, mutant: Mutant | None = None) -> int:
    """The pytest exit status of ``tests`` on a copy in ``workdir``, with
    ``mutant``'s edit applied if one is given."""
    copy = Path(tempfile.mkdtemp(prefix=(mutant.name if mutant else "unmutated") + "-",
                                 dir=workdir))
    try:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, copy / sub, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        (copy / "conftest.py").write_text(_HYPOTHESIS_PROFILE, encoding="utf-8")
        if mutant:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests],
            cwd=copy, env=env, capture_output=True, text=True).returncode
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path, help="directory for the mutated copies")
    args = ap.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    # A test that fails without any edit would "kill" every mutant.
    tests = sorted({t for m in MUTANTS for t in m.tests})
    if run_tests(args.workdir, tests) != 0:
        print("error: the named tests do not pass on the unmutated source")
        return 1

    counts = {"killed": 0, "survived": 0, "error": 0}
    for mutant in MUTANTS:
        found = occurrences(mutant)
        outcome, start = "error", time.perf_counter()
        if found == 1:
            status = run_tests(args.workdir, mutant.tests, mutant)
            outcome = {0: "survived", 1: "killed"}.get(status, "error")
        counts[outcome] += 1
        note = "" if found == 1 else f"  (old text occurs {found} times)"
        print(f"{outcome:8s} {mutant.name}  {time.perf_counter() - start:.1f} s{note}",
              flush=True)
    print(f"mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['error']} errors of {len(MUTANTS)}")
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
