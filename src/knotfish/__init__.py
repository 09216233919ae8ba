"""Exact knot-invariant toolkit: v2 and v3 from the Gauss-diagram formulas,
torus-knot closed forms, and fish-plot emitters."""

from .diagram import (Diagram, GaussCode, connect_sum, mirror, parse_gauss,
                      parse_pd, to_gauss, to_pd_text, writhe)
from .generators import (TorusParams, braid_closure, torus_pd,
                         whitehead_closed_form, whitehead_pd)
from .jones import (DEFAULT_CROSSING_CAP, InvariantPair, arf, jones,
                    kauffman_bracket, v2_v3)
from .laurent import LaurentPoly
from .table import (KnotRecord, bound_audit, compute_all, crossing_maxima,
                    load_bundled, load_table)
from .torus import (check_crossing_bounds, check_crossing_quartic,
                    check_cubic_bounds, check_unknotting_bounds,
                    crossing_recovery, pseudo_invariants, rho, torus_crossing,
                    torus_curve_samples, torus_report, torus_unknotting,
                    torus_v2v3, unknotting_from_invariants)

__all__ = [
    "Diagram", "GaussCode", "connect_sum", "mirror",
    "parse_gauss", "parse_pd", "to_gauss", "to_pd_text", "writhe",
    "TorusParams", "braid_closure", "torus_pd",
    "whitehead_closed_form", "whitehead_pd",
    "DEFAULT_CROSSING_CAP", "InvariantPair", "arf", "jones",
    "kauffman_bracket", "v2_v3",
    "LaurentPoly",
    "KnotRecord", "bound_audit", "compute_all", "crossing_maxima",
    "load_bundled", "load_table",
    "check_crossing_bounds", "check_crossing_quartic", "check_cubic_bounds",
    "check_unknotting_bounds", "crossing_recovery", "pseudo_invariants",
    "rho", "torus_crossing", "torus_curve_samples", "torus_report",
    "torus_unknotting", "torus_v2v3", "unknotting_from_invariants",
]

__version__ = "0.1.0"
