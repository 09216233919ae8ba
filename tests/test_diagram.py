import hashlib
import random
from math import gcd
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pd_oracle
from conftest import TREFOIL_GAUSS, TREFOIL_PD, knot_braids
from knotfish.diagram import (Diagram, _quads, _walk, connect_sum,
                              diagram_from_walk, mirror, parse_gauss, parse_pd,
                              to_gauss, to_pd_text, writhe)
from knotfish.errors import (GaussSyntaxError, PDSyntaxError, ValidationError)
from knotfish.generators import braid_closure, torus_pd, whitehead_pd


def test_parse_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert d.crossing_count == 3
    assert d.edge_count == 6
    assert list(d.signs) == [1, 1, 1]


def test_parse_empty_pd_is_unknot():
    d = parse_pd("PD[]")
    assert d.crossing_count == 0
    assert d.edge_count == 0


def test_parse_pd_whitespace_insensitive():
    spaced = "PD[ X(1, 4, 2, 5) , X(3,6,4,1), X(5,2,6,3) ]"
    assert parse_pd(spaced) == parse_pd(TREFOIL_PD)


def test_missing_edge_labels_rejected():
    with pytest.raises(ValidationError, match="exactly twice"):
        parse_pd("PD[X(1,4,2,5),X(3,6,4,1)]")


def test_syntax_error_reports_position():
    with pytest.raises(PDSyntaxError) as err:
        parse_pd("PD[X(1,4,2,5),Y(3,6,4,1)]")
    assert err.value.position is not None


def test_not_pd_at_all():
    with pytest.raises(PDSyntaxError):
        parse_pd("hello")


def test_link_rejected():
    # Hopf-link style tuples cannot carry a single consistent 1..2n walk
    with pytest.raises(ValidationError):
        parse_pd("PD[X(1,3,2,4),X(3,1,4,2)]")


def test_nonplanar_code_rejected():
    # interlaced double visit: realizable only with a virtual crossing
    with pytest.raises(ValidationError, match="realizable"):
        parse_gauss("O1+O2+U1+U2+")


def test_nonplanar_pd_code_rejected():
    # the PD code of O1+O2+U1+U2+, read by the PD validator
    with pytest.raises(ValidationError, match="realizable"):
        parse_pd("PD[X(3,1,4,2),X(4,2,1,3)]")


def test_parse_gauss_trefoil_matches_pd():
    g = parse_gauss(TREFOIL_GAUSS)
    assert g.crossing_count == 3
    assert list(g.signs) == [1, 1, 1]
    assert writhe(g) == 3


def test_parse_gauss_empty_is_unknot():
    assert parse_gauss("").crossing_count == 0


def test_parse_gauss_sign_mismatch():
    with pytest.raises(GaussSyntaxError, match="sign mismatch for crossing 1"):
        parse_gauss("O1+U1-")


def test_parse_gauss_requires_over_and_under():
    with pytest.raises(GaussSyntaxError, match="once over and once under"):
        parse_gauss("O1+O1+")


def test_gauss_round_trip_text():
    assert to_gauss(parse_gauss(TREFOIL_GAUSS)).text() == TREFOIL_GAUSS


def test_pd_round_trip_exact():
    for text in (TREFOIL_PD, "PD[]",
                 "PD[X(1,7,2,6),X(5,3,6,2),X(3,8,4,1),X(7,4,8,5)]"):
        d = parse_pd(text)
        assert parse_pd(to_pd_text(d)) == d


def test_positive_kink_valid():
    d = parse_pd("PD[X(1,2,2,1)]")
    assert writhe(d) == 1
    assert parse_pd("PD[X(1,1,2,2)]").signs[0] == -1


def test_writhe_examples():
    assert writhe(parse_pd(TREFOIL_PD)) == 3
    assert writhe(Diagram.unknot()) == 0
    assert writhe(mirror(parse_pd(TREFOIL_PD))) == -3


def test_mirror_is_involution():
    for text in (TREFOIL_PD, "PD[X(1,7,2,6),X(5,3,6,2),X(3,8,4,1),X(7,4,8,5)]"):
        d = parse_pd(text)
        assert mirror(mirror(d)) == d


def test_mirror_unknot():
    assert mirror(Diagram.unknot()) == Diagram.unknot()


def test_connect_sum_counts_add():
    t = parse_pd(TREFOIL_PD)
    f = parse_pd("PD[X(1,7,2,6),X(5,3,6,2),X(3,8,4,1),X(7,4,8,5)]")
    s = connect_sum(t, f)
    assert s.crossing_count == 7
    assert s.edge_count == 14
    assert writhe(s) == writhe(t) + writhe(f)


def test_connect_sum_unknot_is_identity():
    t = parse_pd(TREFOIL_PD)
    assert connect_sum(t, Diagram.unknot()) == t
    assert connect_sum(Diagram.unknot(), t) == t


def test_diagram_is_immutable():
    d = parse_pd(TREFOIL_PD)
    with pytest.raises(AttributeError):
        d.labels = ()


def test_diagram_holds_only_its_crossings():
    # A diagram is its PD code: the walk is derived from the edge labels,
    # never stored, and a knot's name lives in its table record.
    assert Diagram.__slots__ == ("labels", "signs")


def _representation_corpus() -> list[Diagram]:
    """Diagrams from every constructor: PD and Gauss codes with both kinks,
    torus knots of both chiralities, Whitehead doubles and seeded braid
    closures; then the mirror of each, and the connected sum of each with
    the next."""
    base = [Diagram.unknot(), parse_pd(TREFOIL_PD), parse_gauss(TREFOIL_GAUSS),
            parse_pd("PD[X(1,2,2,1)]"), parse_pd("PD[X(1,1,2,2)]"),
            parse_pd("PD[X(1,7,2,6),X(5,3,6,2),X(3,8,4,1),X(7,4,8,5)]")]
    base += [torus_pd((p, s * q)) for p in range(2, 5) for q in range(p + 1, 10)
             if gcd(p, q) == 1 for s in (1, -1)]
    base += [whitehead_pd(i) for i in range(-4, 5)]
    rng = random.Random(14)
    closures = 0
    while closures < 40:
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 14))]
        try:
            base.append(braid_closure(word, strands))
        except ValidationError:     # the closure is a link
            continue
        closures += 1
    return (base + [mirror(d) for d in base]
            + [connect_sum(a, b) for a, b in zip(base, base[1:])])


class Crossing(NamedTuple):
    """The record whose repr the pinned digest below was computed from."""

    edges: tuple[int, int, int, int]
    sign: int


def crossings(d: Diagram) -> tuple[Crossing, ...]:
    return tuple(map(Crossing, _quads(d.labels), d.signs))


# SHA-256 of every corpus diagram's crossings, PD text, Gauss text and
# writhe, one line each, as the crossing-tuple representation gave them.
REPRESENTATION_SHA256 = (
    "58b027d972fbae39138971aeee1121d633d92a91eabbb1ca7159bc22c4f0e6d2")


def test_representation_is_pinned():
    lines = "".join(f"{crossings(d)!r}\t{to_pd_text(d)}\t{to_gauss(d).text()}"
                    f"\t{writhe(d)}\n" for d in _representation_corpus())
    assert hashlib.sha256(lines.encode()).hexdigest() == REPRESENTATION_SHA256


def test_labels_are_flat_plain_ints_and_round_trip():
    for d in _representation_corpus():
        assert type(d.labels) is tuple and type(d.signs) is tuple
        assert len(d.labels) == 4 * d.crossing_count == 2 * d.edge_count
        assert all(type(e) is int for e in d.labels)
        assert all(s in (1, -1) for s in d.signs)
        assert Diagram.from_tuples(_quads(d.labels)) == d


def test_equality_and_hash_ignore_crossing_order():
    rng = random.Random(14)
    for d in _representation_corpus():
        tuples = list(_quads(d.labels))
        rng.shuffle(tuples)
        shuffled = Diagram.from_tuples(tuples)
        assert shuffled == d and hash(shuffled) == hash(d)
        assert d.crossing_count == 0 or mirror(d) != d


# Every PD syntax error the parser can raise, with its offset in the text
# after whitespace is removed.  A label is "too long" when it has more
# digits than int() converts; the error names the token that holds it.
LONG = "9" * 5000
TRIPLE = "X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)"
PD_SYNTAX_ERRORS = [
    ("PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3),]", "trailing comma", 36),
    ("PD[X(1,4,2,5),]", "trailing comma", 14),
    ("PD[X(1,4,2,5)X(3,6,4,1)]", "expected ','", 13),
    ("PD[X(1,4,2,5),X(3,6,4,1);X(5,2,6,3)]", "expected ','", 24),
    (f"PD[{TRIPLE}]]", "expected ','", 35),
    (f"PD[{TRIPLE}X]", "expected ','", 35),
    (" PD[ X(1, 4, 2, 5) , X(3,6,4,1) X(5,2,6,3) ] ", "expected ','", 24),
    ("PD[X(1,4,2,5),Y(3,6,4,1)]", "expected 'X(i,j,k,l)'", 14),
    ("PD[Y]", "expected 'X(i,j,k,l)'", 3),
    ("PD[,]", "expected 'X(i,j,k,l)'", 3),
    ("PD[]]", "expected 'X(i,j,k,l)'", 3),
    ("PD[X(1,4,2)]", "expected 'X(i,j,k,l)'", 3),
    ("PD[X(1,4,2,5,6)]", "expected 'X(i,j,k,l)'", 3),
    ("PD[X(-1,4,2,5)]", "expected 'X(i,j,k,l)'", 3),
    ("PD[X(1,4,2,5),,X(3,6,4,1)]", "expected 'X(i,j,k,l)'", 14),
    (f"PD[{TRIPLE},,]", "expected 'X(i,j,k,l)'", 36),
    (f"PD[{TRIPLE},X(]", "expected 'X(i,j,k,l)'", 36),
    ("X(1,4,2,5)", "expected 'PD[...]'", 0),
    ("PD[X(1,4,2,5)", "expected 'PD[...]'", 0),
    (f"pd[{TRIPLE}]", "expected 'PD[...]'", 0),
    (f"PD[X(1,4,2,5),X({LONG},6,4,1)]", "edge label too long", 14),
    (f"PD[X({LONG},4,2,5)X(3,6,4,1)]", "edge label too long", 3),
    (f"PD[X(1,4,2,5)X({LONG},6,4,1)]", "expected ','", 13),
    (f"PD[X(1,4,2,5),X({LONG},6,4,1),]", "edge label too long", 14),
    (f"PD[X(1,4,2,5),X(3,6,4,{LONG}),Y]", "edge label too long", 14),
    (f"PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,{LONG})]", "edge label too long", 25),
]


@pytest.mark.parametrize("text, message, position", PD_SYNTAX_ERRORS,
                         ids=range(len(PD_SYNTAX_ERRORS)))
def test_pd_syntax_errors_are_pinned(text, message, position):
    with pytest.raises(PDSyntaxError) as err:
        parse_pd(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


GAUSS_ERRORS = [
    ("O1+X", "unexpected token at position 3: 'X'"),
    ("O1*", "unexpected token at position 0: 'O1*'"),
    ("O1+U2+O3+U1+O2+U3+ U", "unexpected token at position 18: 'U'"),
    (f"O{LONG}+U1+", "crossing id too long at position 0"),
    ("O1+U2", "unexpected token at position 3: 'U2'"),
    ("O1+U1-", "sign mismatch for crossing 1"),
    ("O1+O1+", "crossing 1 must appear once over and once under"),
    ("O1+U1+O2+", "crossing 2 appears 1 times (expected 2)"),
    ("O1+U1+O1+", "crossing 1 appears 3 times (expected 2)"),
]


@pytest.mark.parametrize("text, message", GAUSS_ERRORS,
                         ids=range(len(GAUSS_ERRORS)))
def test_gauss_syntax_errors_are_pinned(text, message):
    with pytest.raises(GaussSyntaxError) as err:
        parse_gauss(text)
    assert str(err.value) == message


@pytest.mark.parametrize("label", ["a", True, False, 1.5, 2.0, None])
def test_labels_must_be_integers(label):
    tuples = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
    tuples[1] = (3, 6, 4, label)
    with pytest.raises(ValidationError, match="is not an integer"):
        Diagram.from_tuples(tuples)


# -- the flat-pass reader against the reference reader in pd_oracle ---------

def outcome(read, code):
    """What ``read`` makes of ``code``: the type and message of the error
    it raises, or the edge count, crossings, signs and walk it builds.

    The reference reader returns these itself, with the walk it traced;
    the library's walk is the one it derives from the edge labels.
    """
    try:
        result = read(code)
    except Exception as exc:
        return type(exc), str(exc)
    if not isinstance(result, Diagram):
        return result
    return (result.edge_count, list(zip(_quads(result.labels), result.signs)),
            tuple(_walk(result)))


@st.composite
def valid_codes(draw):
    """PD tuples of a braid closure, a torus knot or a Whitehead double."""
    family = draw(st.sampled_from(["braid", "torus", "whitehead"]))
    if family == "braid":
        d = braid_closure(*draw(knot_braids(max_letters=10)))
    elif family == "torus":
        p = draw(st.integers(2, 4))
        q = draw(st.integers(p + 1, 9).filter(lambda q: gcd(p, q) == 1))
        d = torus_pd((p, draw(st.sampled_from([q, -q]))))
    else:
        d = whitehead_pd(draw(st.integers(-4, 4)))
    return list(_quads(d.labels))


@st.composite
def mutated_codes(draw):
    """A valid code as it is, with two labels swapped, with one tuple
    rotated, with one tuple's over-strand slots swapped, or with one tuple
    dropped."""
    tuples = draw(valid_codes())
    mutation = draw(st.sampled_from(["none", "swap", "rotate", "reflect", "drop"]))
    index = st.integers(0, len(tuples) - 1)
    if mutation == "swap":
        flat = [e for t in tuples for e in t]
        i, j = draw(st.lists(st.integers(0, len(flat) - 1),
                             min_size=2, max_size=2, unique=True))
        flat[i], flat[j] = flat[j], flat[i]
        tuples = [tuple(flat[k:k + 4]) for k in range(0, len(flat), 4)]
    elif mutation == "rotate":
        i, k = draw(index), draw(st.integers(1, 3))
        tuples[i] = tuples[i][k:] + tuples[i][:k]
    elif mutation == "reflect":
        i = draw(index)
        a, b, c, d = tuples[i]
        tuples[i] = (a, d, c, b)
    elif mutation == "drop":
        del tuples[draw(index)]
    return tuples


# Each label of 1..2n twice, in random order: these pass the label count
# and so reach the sign, orientation and planarity checks.
shuffled_codes = st.integers(1, 5).flatmap(
    lambda n: st.permutations(list(range(1, 2 * n + 1)) * 2)).map(
    lambda flat: [tuple(flat[k:k + 4]) for k in range(0, len(flat), 4)])


@st.composite
def gauss_word_codes(draw):
    """The PD tuples of a random signed Gauss word: labels and signs are
    consistent by construction, but most such words are not planar."""
    n = draw(st.integers(1, 6))
    walk = draw(st.permutations([(i, over) for i in range(n) for over in (0, 1)]))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    ports = {}
    for pos, visit in enumerate(walk, start=1):
        ports[visit] = (pos, pos % (2 * n) + 1)
    tuples = []
    for i in range(n):
        (u_in, u_out), (o_in, o_out) = ports[i, 0], ports[i, 1]
        tuples.append((u_in, o_in, u_out, o_out) if signs[i] > 0
                      else (u_in, o_out, u_out, o_in))
    return tuples


label = st.integers(-1, 13)
random_codes = st.lists(st.tuples(label, label, label, label)
                        | st.lists(label, max_size=6).map(tuple),
                        min_size=1, max_size=6)


@settings(max_examples=300)
@given(random_codes | shuffled_codes | gauss_word_codes())
@example([(1, 2, 3)])
@example([(1, 4, 2, 5), (0, 6, 4, 1), (5, 2, 6, 3)])
@example([(1, 4, 2, 5), (3, 6, 4, 1)])
@example([(1, 2, 1, 2)])
@example([(3, 2, 4, 2), (1, 1, 3, 4)])
@example([(3, 3, 4, 4), (1, 2, 2, 1)])
@example([(1, 3, 2, 4), (1, 3, 2, 4)])
@example([(3, 1, 4, 2), (4, 2, 1, 3)])
@example([(1, 3, 2, 4), (3, 1, 4, 2)])
@example([(2, 3, 3, 2), (1, 1, 4, 4)])
@example([(1, 3, 2, 4), (1, 5, 2, 6), (3, 5, 6, 4)])
def test_validator_matches_reference_on_random_tuples(tuples):
    assert (outcome(Diagram.from_tuples, tuples)
            == outcome(pd_oracle.from_tuples, tuples))


@settings(max_examples=300, deadline=None)
@given(mutated_codes())
def test_validator_matches_reference_on_mutated_codes(tuples):
    assert (outcome(Diagram.from_tuples, tuples)
            == outcome(pd_oracle.from_tuples, tuples))


@st.composite
def mutated_pd_texts(draw):
    """PD text of a valid code after up to three edits: a character
    inserted, deleted or replaced, the text cut short and closed by "]",
    or a 5000-digit run inserted."""
    inner = ",".join("X({},{},{},{})".format(*t) for t in draw(valid_codes()))
    text = f"PD[{inner}]"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "cut", "long"]))
        char = draw(st.sampled_from("PD[]X(),0123456789 -"))
        if edit == "insert":
            text = text[:i] + char + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "replace":
            text = text[:i] + char + text[i + 1:]
        elif edit == "cut":
            text = text[:i] + "]"
        else:
            text = text[:i] + LONG + text[i:]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_pd_texts())
@example(f"PD[{TRIPLE},]")
@example(f"PD[X(1,4,2,5),X({LONG},6,4,1)X]")
def test_parse_pd_matches_reference_on_mutated_text(text):
    assert outcome(parse_pd, text) == outcome(pd_oracle.parse_pd, text)


# -- the direct walk and mirror builders against the validator -------------

def reference_from_walk(walk):
    """``diagram_from_walk`` composed as it was before it built diagrams
    itself: the same Gauss checks and label layout, then the full PD
    validator, ``Diagram.from_tuples``, which derives the signs."""
    ne = len(walk)
    occurrences = {}
    for pos, (key, over, sign) in enumerate(walk, start=1):
        occurrences.setdefault(key, []).append((pos, over, sign))
    tuples = []
    for key, occ in occurrences.items():
        if len(occ) != 2:
            raise GaussSyntaxError(
                f"crossing {key} appears {len(occ)} times (expected 2)")
        (pos1, over1, sign1), (pos2, over2, sign2) = occ
        if over1 == over2:
            raise GaussSyntaxError(
                f"crossing {key} must appear once over and once under")
        if sign1 != sign2:
            raise GaussSyntaxError(f"sign mismatch for crossing {key}")
        u_in, o_in = (pos2, pos1) if over1 else (pos1, pos2)
        u_out, o_out = u_in % ne + 1, o_in % ne + 1
        tuples.append((u_in, o_in, u_out, o_out) if sign1 > 0
                      else (u_in, o_out, u_out, o_in))
    return Diagram.from_tuples(tuples)


WALK_SIGNS = [1, -1, 2, 0]      # 2 and 0 lay out as +1 and -1


@st.composite
def signed_walks(draw):
    """A signed walk: a random order of (key, over) visits, most of them
    not planar; a one-crossing kink; or the walk of a valid code, with its
    signs written as 1, -1 or as 2, 0.  Then, in about half, one fault: a
    visit dropped or repeated, or its over flag or its sign changed."""
    source = draw(st.sampled_from(["random", "kink", "valid"]))
    if source == "valid":
        d = Diagram.from_tuples(draw(valid_codes()))
        shift = draw(st.sampled_from([0, 1]))
        walk = [(i, over, d.signs[i] + shift) for i, over in _walk(d)]
    else:
        n = 1 if source == "kink" else draw(st.integers(0, 6))
        visits = draw(st.permutations([(i, over) for i in range(n)
                                       for over in (False, True)]))
        signs = draw(st.lists(st.sampled_from(WALK_SIGNS), min_size=n, max_size=n))
        walk = [(i, over, signs[i]) for i, over in visits]
    fault = draw(st.sampled_from(["none"] * 4 + ["drop", "repeat", "over", "sign"]))
    if walk and fault != "none":
        i = draw(st.integers(0, len(walk) - 1))
        key, over, sign = walk[i]
        if fault == "drop":
            del walk[i]
        elif fault == "repeat":
            walk.insert(draw(st.integers(0, len(walk))), walk[i])
        elif fault == "over":
            walk[i] = (key, not over, sign)
        else:
            walk[i] = (key, over, draw(st.sampled_from(WALK_SIGNS).filter(
                lambda s: s != sign)))
    return walk


@settings(max_examples=300, deadline=None)
@given(signed_walks())
@example([])
@example([(1, False, 2), (1, True, 2)])
@example([(1, True, 0), (1, False, 0)])
@example([(k, over, 2) for k, over in                   # O1+U2+O3+U1+O2+U3+
          [(1, True), (2, False), (3, True), (1, False), (2, True), (3, False)]])
@example([(1, True, 1), (2, True, 1), (1, False, 1), (2, False, 1)])
@example([(1, True, 1), (1, False, 1), (2, True, 1)])
@example([(1, True, 1), (1, False, -1), (1, True, 1)])
def test_walk_builder_matches_the_validator(walk):
    """The same labels and signs as the validator derives, or the same
    error type and message."""
    assert outcome(diagram_from_walk, walk) == outcome(reference_from_walk, walk)


def reference_mirror(d: Diagram) -> Diagram:
    """Each tuple rotated to start at its over in-edge, then validated."""
    return Diagram.from_tuples(
        (b, c, dd, a) if sign > 0 else (dd, a, b, c)
        for (a, b, c, dd), sign in zip(_quads(d.labels), d.signs))


def _built(build, arg):
    """``build(arg)``, or None where the code or walk is not a knot."""
    try:
        return build(arg)
    except (GaussSyntaxError, ValidationError):
        return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(valid_codes(), mutated_codes(), shuffled_codes,
                 gauss_word_codes()).map(lambda t: _built(Diagram.from_tuples, t))
       | signed_walks().map(lambda w: _built(diagram_from_walk, w)))
@example(Diagram.unknot())
@example(parse_pd("PD[X(1,2,2,1)]"))
@example(parse_pd("PD[X(1,1,2,2)]"))
def test_mirror_matches_the_validator(d):
    if d is not None:
        m, ref = mirror(d), reference_mirror(d)
        assert (m.labels, m.signs) == (ref.labels, ref.signs)


def test_mirror_matches_the_validator_on_the_corpus():
    for d in _representation_corpus():
        m, ref = mirror(d), reference_mirror(d)
        assert (m.labels, m.signs) == (ref.labels, ref.signs)
