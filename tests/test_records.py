"""The record types: their contract, and what importing the package costs.

The immutable records are ``typing.NamedTuple`` classes.  Their reprs,
fields, defaults and error messages are pinned here; being tuples, they
also index and compare equal to a plain tuple of the same values.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import TREFOIL_PD
from knotfish.diagram import parse_pd, to_gauss
from knotfish.errors import InputError
from knotfish.generators import TorusParams, WhiteheadIndex
from knotfish.jones import InvariantPair
from knotfish.plots import PlotSpec
from knotfish.table import KnotRecord
from knotfish.torus import CrossingBoundsReport, torus_report

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_skips_dataclasses_inspect_and_resources():
    # -S keeps site (and the modules its .pth files import) out of the way.
    probe = ("import sys, knotfish.cli; print(' '.join(m for m in "
             "('dataclasses', 'inspect', 'importlib.resources') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []


_TREFOIL = parse_pd(TREFOIL_PD, "3_1")
_REPORT = torus_report((2, 3))
_CUBIC = ("lower1_holds=True, upper_holds=True, lower2_holds=True, "
          "lower1_equality=True, upper_equality=True, lower2_equality=True")
_UNKNOTTING = ("left_holds=True, right_holds=True, left_equality=True, "
               "right_equality=True, corollary_left_holds=True, "
               "corollary_right_holds=True, corollary_left_equality=True")
_CROSSING = ("left_holds=True, right_holds=True, left_equality=True, "
             "right_equality=True, corollary_left_holds=True, "
             "corollary_right_holds=True, corollary_right_equality=True, "
             "corollary_adjusted=True")

# (record, its repr, the plain tuple it equals); the reprs were recorded
# when the records were frozen dataclasses.
RECORDS = {
    "Crossing": (_TREFOIL.crossings[0], "Crossing(edges=(1, 4, 2, 5), sign=1)",
                 ((1, 4, 2, 5), 1)),
    "GaussCode": (
        to_gauss(_TREFOIL),
        "GaussCode(entries=((1, False, 1), (2, True, 1), (3, False, 1), "
        "(1, True, 1), (2, False, 1), (3, True, 1)))",
        (((1, False, 1), (2, True, 1), (3, False, 1),
          (1, True, 1), (2, False, 1), (3, True, 1)),)),
    "InvariantPair": (InvariantPair(1, -1), "InvariantPair(v2=1, v3=-1)", (1, -1)),
    "WhiteheadIndex": (WhiteheadIndex(-2), "WhiteheadIndex(i=-2)", (-2,)),
    "TorusParams": (TorusParams(2, -3), "TorusParams(p=2, q=-3)", (2, -3)),
    "KnotRecord": (
        KnotRecord("3_1", 3, _TREFOIL),
        "KnotRecord(name='3_1', crossing_number=3, diagram=<Diagram '3_1' "
        "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]>, invariants=None, error=None)",
        ("3_1", 3, _TREFOIL, None, None)),
    "CubicBoundsReport": (_REPORT.cubic, f"CubicBoundsReport({_CUBIC})",
                          (True,) * 6),
    "UnknottingBoundsReport": (_REPORT.unknotting_bounds,
                               f"UnknottingBoundsReport({_UNKNOTTING})", (True,) * 7),
    "CrossingBoundsReport": (_REPORT.crossing_bounds,
                             f"CrossingBoundsReport({_CROSSING})", (True,) * 8),
    "TorusReport": (
        _REPORT,
        "TorusReport(params=TorusParams(p=2, q=3), invariants=InvariantPair("
        "v2=1, v3=1), unknotting=1, crossing=3, rho=Fraction(6, 1), "
        f"cubic=CubicBoundsReport({_CUBIC}), "
        f"unknotting_bounds=UnknottingBoundsReport({_UNKNOTTING}), "
        f"crossing_bounds=CrossingBoundsReport({_CROSSING}), quartic_holds=True, "
        "recovered_unknotting=1, recovered_crossing=3, pseudo=(1, 3))",
        ((2, 3), (1, 1), 1, 3, Fraction(6), (True,) * 6, (True,) * 7,
         (True,) * 8, True, 1, 3, (1, 3))),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_record_contract(kind):
    record, text, values = RECORDS[kind]
    assert type(record).__name__ == kind
    assert repr(record) == text
    # A record is a tuple: it indexes and equals the tuple of its values.
    assert isinstance(record, tuple)
    assert record == values and hash(record) == hash(values)
    assert record[0] == values[0] == getattr(record, record._fields[0])
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_defaults_and_methods():
    assert KnotRecord._field_defaults == {"invariants": None, "error": None}
    assert CrossingBoundsReport._field_defaults == {"corollary_adjusted": True}
    assert CrossingBoundsReport(*(True,) * 7) == _REPORT.crossing_bounds
    assert _REPORT.consistent and _REPORT.cubic.all_hold
    assert str(to_gauss(_TREFOIL)) == "U1+O2+U3+O1+U2+O3+"


def test_torus_params_checks():
    with pytest.raises(InputError) as err:
        TorusParams(0, 5)
    assert str(err.value) == ("torus parameters must be nonzero, "
                              "got TorusParams(p=0, q=5)")
    with pytest.raises(InputError) as err:
        TorusParams(4, 6)
    assert str(err.value) == ("torus parameters must be coprime, "
                              "got TorusParams(p=4, q=6)")
    t = TorusParams(q=5, p=-2)
    assert t == (-2, 5) and not t.is_unknot and TorusParams(1, 4).is_unknot
    # _replace builds through _make, which keeps the checks.
    assert t._replace(q=7) == (-2, 7)
    with pytest.raises(InputError, match="coprime"):
        t._replace(q=6)


def test_invariant_pair_unpacks_and_hashes():
    pair = InvariantPair(3, -5)
    v2, v3 = pair
    assert (v2, v3) == (3, -5) == pair
    assert list(pair) == [3, -5] and len(pair) == 2
    assert hash(pair) == hash((3, -5))
    assert {pair: "x"}[InvariantPair(3, -5)] == "x"
    assert pair != InvariantPair(3, 5)


def test_plot_spec_keywords_and_defaults():
    spec = PlotSpec()
    assert repr(spec) == ("PlotSpec(points=[], curves=[], x_range=None, "
                          "y_range=None, title='')")
    assert spec.points is not PlotSpec().points      # a new list each time
    spec.points.append((1.0, 2.0, "a"))
    assert spec == PlotSpec(points=[(1.0, 2.0, "a")])
    assert spec != PlotSpec(points=[(1.0, 2.0, "a")], title="t")
    assert repr(PlotSpec(x_range=(0.0, 1.0), title="t")) == (
        "PlotSpec(points=[], curves=[], x_range=(0.0, 1.0), y_range=None, "
        "title='t')")
