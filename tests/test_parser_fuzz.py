"""Parsers must reject arbitrary garbage with the package's own error
types, never leak IndexError/KeyError/ValueError from the internals."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotfish.diagram import parse_gauss, parse_pd
from knotfish.errors import InputError


@settings(max_examples=200)
@given(st.text(max_size=40))
def test_parse_pd_total_on_text(text):
    try:
        parse_pd(text)
    except InputError:
        pass


@settings(max_examples=200)
@given(st.text(alphabet="OU0123456789+-X(), \t", max_size=40))
def test_parse_gauss_total_on_text(text):
    try:
        parse_gauss(text)
    except InputError:
        pass


# Labels of any type: the validator must refuse what is not an int with
# its own error, not leak a TypeError or accept True or 2.0 as labels.
any_label = st.one_of(st.integers(-2, 12), st.booleans(), st.floats(),
                      st.fractions(), st.text(max_size=2), st.none())


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12),
                          st.integers(1, 12), st.integers(1, 12))
                | st.tuples(any_label, any_label, any_label, any_label)
                | st.lists(any_label, max_size=5).map(tuple),
                min_size=1, max_size=6))
@example([("a", 1, 2, 3)])
@example([(True, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
def test_from_tuples_total_on_tuples(tuples):
    from knotfish.diagram import Diagram
    try:
        d = Diagram.from_tuples(tuples)
    except InputError:
        return
    assert all(type(e) is int for e in d.labels)
