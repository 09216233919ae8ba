from math import gcd

import pytest

from knotfish.diagram import (connect_sum, mirror, parse_gauss, to_gauss,
                              to_pd_text, writhe)
from knotfish.errors import InputError, ValidationError
from knotfish.generators import (TorusParams, braid_closure, torus_pd,
                                 whitehead_closed_form, whitehead_pd)
from knotfish.jones import v2_v3
from knotfish.torus import torus_v2v3


def all_small_torus_params(max_braid_crossings=14):
    """Coprime (p, q), both >= 2, with |q|(|p|-1) braid crossings in range."""
    out = []
    for p in range(2, 9):
        for q in range(2, 15):
            if gcd(p, q) == 1 and q * (p - 1) <= max_braid_crossings:
                out.append((p, q))
    return out


def test_torus_params_validation():
    with pytest.raises(InputError):
        TorusParams(0, 5)
    with pytest.raises(InputError):
        TorusParams(4, 6)
    assert TorusParams(2, 3).is_unknot is False
    assert TorusParams(1, 7).is_unknot is True


def test_unknot_parameters_give_empty_diagram():
    assert torus_pd((2, 1)).crossing_count == 0
    assert torus_pd((1, 9)).crossing_count == 0
    assert torus_pd((-1, 2)).crossing_count == 0


def test_torus_braid_shape():
    d = torus_pd((3, 4))
    assert d.crossing_count == 8          # |q| (|p|-1)
    assert writhe(d) == 8
    assert tuple(v2_v3(d)) == (5, 10)


def test_trefoil_anchor():
    assert tuple(v2_v3(torus_pd((2, 3)))) == (1, 1)


@pytest.mark.parametrize("pq", all_small_torus_params())
def test_torus_diagrams_match_closed_forms(pq):
    assert v2_v3(torus_pd(pq)) == torus_v2v3(pq)


def test_torus_parameter_symmetry():
    for pq in [(2, 3), (3, 4), (2, 5), (3, 5)]:
        swapped = (pq[1], pq[0])
        assert v2_v3(torus_pd(pq)) == v2_v3(torus_pd(swapped))
        both_neg = (-pq[0], -pq[1])
        assert v2_v3(torus_pd(pq)) == v2_v3(torus_pd(both_neg))


def test_torus_mirror_parameters():
    for pq in [(2, 3), (3, 4), (2, 7)]:
        v = v2_v3(torus_pd(pq))
        m = v2_v3(torus_pd((pq[0], -pq[1])))
        assert (m.v2, m.v3) == (v.v2, -v.v3)


def test_torus_negative_parameter_is_the_mirror_diagram():
    for p in range(2, 6):
        for q in range(2, 8):
            if gcd(p, q) == 1:
                assert (to_pd_text(torus_pd((p, -q)))
                        == to_pd_text(mirror(torus_pd((p, q)))))
                assert (to_pd_text(torus_pd((-p, q)))
                        == to_pd_text(mirror(torus_pd((p, q)))))


@pytest.mark.parametrize("build, pd_text, gauss_text", [
    (lambda: braid_closure([1, -2, 1, -2], 3),
     "PD[X(4,1,5,2),X(2,8,3,7),X(6,4,7,3),X(8,5,1,6)]",
     "O1+U2-O3-U1+O4+U3-O2-U4+"),
    (lambda: torus_pd((3, -4)),
     "PD[X(1,13,2,12),X(2,8,3,7),X(14,4,15,3),X(9,5,10,4),X(5,1,6,16),"
     "X(6,12,7,11),X(13,9,14,8),X(10,16,11,15)]",
     "U1-U2-O3-O4-U5-U6-O2-O7-U4-U8-O6-O1-U7-U3-O8-O5-"),
    (lambda: whitehead_pd(-2),
     "PD[X(1,11,2,10),X(9,3,10,2),X(3,9,4,8),X(7,5,8,4),X(5,12,6,1),"
     "X(11,6,12,7)]",
     "U1-O2-U3-O4-U5+O6+U4-O3-U2-O1-U6+O5+"),
    (lambda: connect_sum(torus_pd((2, 3)), whitehead_pd(-1)),
     "PD[X(4,1,5,2),X(2,5,3,6),X(6,3,7,4),X(7,13,8,12),X(11,9,12,8),"
     "X(9,14,10,1),X(13,10,14,11)]",
     "O1+U2+O3+U1+O2+U3+U4-O5-U6+O7+U5-O4-U7+O6+"),
    (lambda: parse_gauss("O1+U2+O3+U1+O2+U3+"),
     "PD[X(4,1,5,2),X(2,5,3,6),X(6,3,1,4)]",
     "O1+U2+O3+U1+O2+U3+"),
])
def test_walk_built_pd_text_is_pinned(build, pd_text, gauss_text):
    """Edge labels, crossing order and derived Gauss code of the
    walk-built diagrams."""
    d = build()
    assert to_pd_text(d) == pd_text
    assert to_gauss(d).text() == gauss_text


def test_whitehead_crossing_counts():
    for i in range(-4, 5):
        assert whitehead_pd(i).crossing_count == 2 * abs(i) + 2


def test_whitehead_zero_is_unknot_as_drawn():
    d = whitehead_pd(0)
    assert d.crossing_count == 2
    assert tuple(v2_v3(d)) == (0, 0)


@pytest.mark.parametrize("i", range(-5, 7))
def test_whitehead_matches_closed_form(i):
    assert v2_v3(whitehead_pd(i)) == whitehead_closed_form(i)


def test_whitehead_closed_form_values():
    assert tuple(whitehead_closed_form(0)) == (0, 0)
    assert tuple(whitehead_closed_form(-3)) == (-3, 3)
    assert tuple(whitehead_closed_form(2)) == (2, 3)
    assert tuple(whitehead_closed_form(4)) == (4, 10)


def test_braid_closure_figure_eight():
    # (s1 s2^-1)^2 closes to the figure-eight knot
    d = braid_closure([1, -2, 1, -2], 3)
    assert d.crossing_count == 4
    assert tuple(v2_v3(d)) == (-1, 0)


def test_braid_closure_rejects_links():
    for word, strands in [
        ([1, 1], 2),            # Hopf link
        ([1], 3),               # untouched strand splits off
        ([], 2),
        ([1, 1, 1], 3),         # trefoil plus a split strand, though every
    ]:                          # crossing is still visited twice
        with pytest.raises(ValidationError, match="not a single component"):
            braid_closure(word, strands)


def test_braid_closure_rejects_bad_letters():
    with pytest.raises(InputError):
        braid_closure([3], 3)
    with pytest.raises(InputError):
        braid_closure([0], 2)
    with pytest.raises(InputError) as error:
        braid_closure([], 0)
    assert str(error.value) == "braid needs at least one strand"


def test_braid_closure_single_strand_unknot():
    assert braid_closure([], 1).crossing_count == 0


@pytest.mark.parametrize("build, message", [
    (lambda: whitehead_pd(2.9), "Whitehead index 2.9 is not an integer"),
    (lambda: whitehead_pd("3"), "Whitehead index '3' is not an integer"),
    (lambda: whitehead_pd(True), "Whitehead index True is not an integer"),
    (lambda: whitehead_closed_form(2.5), "Whitehead index 2.5 is not an integer"),
    (lambda: braid_closure([1, 2.0, 1, 2.0], 3),
     "braid letter 2.0 is not an integer"),
    (lambda: braid_closure([True] * 3, 2), "braid letter True is not an integer"),
    (lambda: braid_closure([1, 1, 1], 2.0), "strand count 2.0 is not an integer"),
    (lambda: TorusParams(2.0, 3), "torus parameter 2.0 is not an integer"),
    (lambda: TorusParams(2, True), "torus parameter True is not an integer"),
    (lambda: torus_pd((3, "4")), "torus parameter '4' is not an integer"),
], ids=["wh-float", "wh-str", "wh-bool", "wh-closed-form-float",
        "braid-float-letter", "braid-bool-letters", "braid-float-strands",
        "torus-float", "torus-bool", "torus-str"])
def test_family_parameters_must_be_integers(build, message):
    with pytest.raises(InputError) as error:
        build()
    assert str(error.value) == message
