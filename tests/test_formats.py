"""Input grammars: monomial lists, exponent-vector JSON, graph JSON, and
the line-based edge-list format."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freiman import parse_graph, parse_ideal
from freiman.errors import ParseError, ResourceCapError
from freiman.formats import dump_json, graph_to_dict, monomial_to_string


def test_parse_monomial_list():
    ideal = parse_ideal("x1*x2, x2*x3")
    assert ideal.ambient_dim == 3
    assert ideal.generators.points == {(1, 1, 0), (0, 1, 1)}


def test_parse_monomial_powers_and_whitespace():
    ideal = parse_ideal("  x1^2 * x3 ,\n x2^4  ")
    assert ideal.ambient_dim == 3
    assert ideal.generators.points == {(2, 0, 1), (0, 4, 0)}


def test_parse_monomial_repeated_variable_accumulates():
    ideal = parse_ideal("x1*x1*x2")
    assert ideal.generators.points == {(2, 1)}


def test_parse_json_vectors():
    ideal = parse_ideal("[[1, 1, 0], [0, 1, 1]]")
    assert ideal.ambient_dim == 3
    assert ideal.mu == 2


def test_parse_ideal_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_ideal("x1*x2,\nx2**x3")
    assert exc.value.line == 2
    assert exc.value.col is not None

    with pytest.raises(ParseError):
        parse_ideal("y1*y2")
    with pytest.raises(ParseError):
        parse_ideal("x1^0")
    with pytest.raises(ParseError):
        parse_ideal("x1,,x2")
    with pytest.raises(ParseError):
        parse_ideal("")


def test_parse_ideal_rejects_non_minimal():
    with pytest.raises(ParseError) as exc:
        parse_ideal("x1, x1*x2")
    assert "antichain" in str(exc.value)


def test_parse_ideal_rejects_duplicates_and_mixed_json():
    with pytest.raises(ParseError):
        parse_ideal("x1*x2, x2*x1")
    with pytest.raises(ParseError):
        parse_ideal("[[1, 0], [1]]")
    with pytest.raises(ParseError):
        parse_ideal("[[1, 0], [1, 0]]")
    with pytest.raises(ParseError):
        parse_ideal("[]")


def test_parse_graph_json():
    g = parse_graph('{"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}')
    assert g.n == 4
    assert g.sorted_edges() == [(1, 2), (1, 4), (2, 3), (3, 4)]


def test_parse_graph_lines():
    g = parse_graph("p 3 3\n1 2\n2 3\n1 3\n")
    assert g.n == 3 and g.num_edges == 3


def test_parse_graph_line_errors():
    with pytest.raises(ParseError) as exc:
        parse_graph("p 3 2\n1 2\n2 2\n")
    assert "loop" in str(exc.value)
    assert exc.value.line == 3

    with pytest.raises(ParseError):
        parse_graph("p 3 2\n1 2\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_graph("p 2 1\n1 3\n")  # out of range
    with pytest.raises(ParseError):
        parse_graph("p 2 2\n1 2\n2 1\n")  # duplicate edge
    with pytest.raises(ParseError):
        parse_graph("q 3 3\n")


def test_parse_graph_json_errors():
    with pytest.raises(ParseError):
        parse_graph('{"n": 3}')
    with pytest.raises(ParseError):
        parse_graph('{"n": -1, "edges": []}')
    with pytest.raises(ParseError):
        parse_graph('{"n": 3, "edges": [[1, 2, 3]]}')
    with pytest.raises(ParseError):
        parse_graph('{"n": 3, "edges": [[1, 1]]}')


def test_monomial_to_string():
    assert monomial_to_string((2, 0, 1)) == "x1^2*x3"
    assert monomial_to_string((1, 1)) == "x1*x2"
    assert monomial_to_string((0, 0)) == "1"


def test_graph_round_trip():
    g = parse_graph('{"n": 5, "edges": [[4, 5], [1, 2]]}')
    text = dump_json(graph_to_dict(g))
    again = parse_graph(text)
    assert again == g


def test_dump_json_is_stable():
    payload = {"b": 1, "a": [1, 2]}
    assert dump_json(payload) == dump_json(payload)
    assert dump_json(payload).endswith("\n")


def test_json_booleans_are_not_integers():
    for text in ("[[true, false], [false, true]]", "[[1, 0], [0, true]]"):
        with pytest.raises(ParseError):
            parse_ideal(text)
    for text in (
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 3, "edges": [[1, 2], [2, false]]}',
    ):
        with pytest.raises(ParseError):
            parse_graph(text)


def test_only_ascii_digits_are_numbers():
    # str.isdigit accepts these, but int() refuses "²" and reads "١" as 1
    for text in ("x²", "x1^²", "x١", "x1*x٢"):
        with pytest.raises(ParseError, match="expected"):
            parse_ideal(text)


def test_overlong_numbers_are_parse_errors():
    # int() refuses strings of more than 4300 digits
    for text in ("x" + "1" * 5000, "x1^" + "9" * 5000):
        with pytest.raises(ParseError, match="too long"):
            parse_ideal(text)


def test_deeply_nested_json_is_a_parse_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_ideal(deep)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_graph('{"n": 3, "edges": ' + deep + "}")


def test_dense_exponent_entries_are_capped():
    # generators x largest index: 2 * 16 = 32 = 8 * 4 entries pass at cap 4
    assert parse_ideal("x1, x16", cap=4).ambient_dim == 16
    with pytest.raises(ResourceCapError) as exc:
        parse_ideal("x1, x17", cap=4)
    assert exc.value.what == "34 exponent entries in 17 variables"
    assert exc.value.cap == 4
    # under the default cap a huge index is refused before any vector exists
    with pytest.raises(ResourceCapError, match="999999999999 variables"):
        parse_ideal("x999999999999")
    # the JSON form is already as long as its input, so it is not capped
    assert parse_ideal("[[1, 0, 0], [0, 0, 1]]", cap=0).ambient_dim == 3


SMALL_INTS = st.integers(-1, 6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=30,
)
INT_ROWS = st.lists(st.lists(SMALL_INTS, max_size=4), max_size=6)
GRAPH_OBJECTS = st.fixed_dictionaries(
    {"n": JSON_VALUES, "edges": JSON_VALUES | INT_ROWS}
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(max_size=40),
        st.builds(json.dumps, JSON_VALUES | INT_ROWS | GRAPH_OBJECTS),
        # small indices, or ones whose two dense vectors exceed 8 * cap
        st.builds("x1, x{}".format, st.integers(1, 99) | st.integers(4 * 10**6 + 1, 10**15)),
    )
)
def test_parsers_return_or_raise_parse_error(text):
    # a text ideal may also hit the cap on its dense exponent entries
    for parse, refusals in (
        (parse_ideal, (ParseError, ResourceCapError)),
        (parse_graph, ParseError),
    ):
        try:
            parse(text)
        except refusals:
            pass
