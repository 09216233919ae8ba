"""Invariance under random Reidemeister I and II moves (``reidemeister``)
on torus knots, Whitehead doubles and random braid closures: v2, v3, the
Arf invariant and the Jones polynomial do not change, and the writhe
moves by the sum of the R1 signs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import knot_braids
from jones_oracle import pair_from_jones
from reidemeister import apply_moves
from knotfish.diagram import writhe
from knotfish.generators import braid_closure, torus_pd, whitehead_pd
from knotfish.jones import arf, jones, v2_v3

# The moved diagram's Jones polynomial is checked up to this many
# crossings; its state sum costs 2^c.
JONES_CROSSINGS = 10


def at_i(j) -> complex:
    """The Laurent polynomial ``j`` at q = i, in exact integer parts."""
    re = sum(c * (1, 0, -1, 0)[e % 4] for e, c in j.terms.items())
    im = sum(c * (0, 1, 0, -1)[e % 4] for e, c in j.terms.items())
    return complex(re, im)


@st.composite
def base_diagrams(draw):
    family = draw(st.sampled_from(["torus", "whitehead", "braid"]))
    if family == "torus":
        return torus_pd(draw(st.sampled_from([(2, 3), (2, -5), (3, 4), (3, -5)])))
    if family == "whitehead":
        return whitehead_pd(draw(st.integers(-3, 3)))
    return braid_closure(*draw(knot_braids(max_letters=8)))


position = st.integers(0, 1000)
sign = st.sampled_from([1, -1])
r1 = st.tuples(st.just("R1"), position, st.booleans(), sign)
r2 = st.tuples(st.just("R2"), position, position, st.booleans(), sign)


@settings(max_examples=150, deadline=None)
@given(base_diagrams(), st.lists(r1 | r2, min_size=1, max_size=6))
def test_invariants_unchanged_by_reidemeister_moves(d, moves):
    """Both diagrams' (v2, v3) are compared with the Jones derivatives of
    the unmoved one, so a Gauss-diagram sum that is wrong but still
    invariant under R1 and R2 fails too.  The moved diagram's ``arf`` is
    compared with its Jones polynomial at q = i, which is (-1)^Arf."""
    moved, dw, _ = apply_moves(d, moves)
    j = jones(d)
    pair = pair_from_jones(j)
    assert v2_v3(d) == pair
    assert v2_v3(moved) == pair
    assert writhe(moved) == writhe(d) + dw
    if moved.crossing_count <= JONES_CROSSINGS:
        jm = jones(moved)
        assert jm == j
        assert at_i(jm) == (-1) ** arf(v2_v3(moved))


def test_bigon_proposals_are_sometimes_accepted():
    """Of all R2 proposals on the trefoil, some are planar and some not,
    so the move test draws real bigons and the validator does reject."""
    d = torus_pd((2, 3))
    proposals = [("R2", i, j, over, s) for i in range(7) for j in range(i, 7)
                 for over in (False, True) for s in (1, -1)]
    accepted = sum(apply_moves(d, [move])[2] for move in proposals)
    assert 0 < accepted < len(proposals)
