"""Query language: parsing, evaluation vs an independent oracle, rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.errors import InvalidArgument, MixedVariantSet, QuerySyntaxError
from forge.query import MATCH_ALL, Predicate, TagQuery, matches, parse, render

from oracles import brute_force_scan


def q(*preds):
    return TagQuery(tuple(preds))


class TestParse:
    def test_empty_is_match_all(self):
        assert parse("") == MATCH_ALL
        assert parse("   ") == MATCH_ALL
        assert parse("").is_match_all

    def test_two_predicate_conjunction(self):
        got = parse('split = "train" AND step >= 10')
        assert got == q(Predicate("split", "=", "train"), Predicate("step", ">=", 10))

    def test_in_set_of_ints(self):
        got = parse("epoch IN {1, 2, 3}")
        assert got == q(Predicate("epoch", "IN", values=(1, 2, 3)))

    def test_in_set_canonical_order_and_dedup(self):
        assert parse("e IN {3, 1, 3, 2}") == q(Predicate("e", "IN", values=(1, 2, 3)))

    @pytest.mark.parametrize("src,value", [
        ('x = "a\\"b"', 'a"b'),
        ('x = "line\\nbreak"', "line\nbreak"),
        ('x = "\\u0041"', "A"),
        ("x = -5", -5),
        ("x = 3.5", 3.5),
        ("x = 1.5e3", 1500.0),
        ("x = true", True),
        ("x = false", False),
    ])
    def test_literals(self, src, value):
        assert parse(src) == q(Predicate("x", "=", value))

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_operators(self, op):
        assert parse(f"n {op} 4") == q(Predicate("n", op, 4))

    @pytest.mark.parametrize("src", [
        "split =",            # missing literal
        "= 3",                # missing ident
        "a = 3 AND",          # dangling AND
        'a = "unterminated',  # bad string
        "a IN {}",            # empty set
        "a in {1}",           # lowercase keyword is an ident, then junk
        "a = 1 b = 2",        # missing AND
        "a ! 3",              # bad operator
        "a = 1e5",            # float must contain '.'
        "a = 1.",             # digits required after dot
    ])
    def test_syntax_errors(self, src):
        with pytest.raises(QuerySyntaxError):
            parse(src)

    def test_error_carries_byte_offset_and_expected(self):
        with pytest.raises(QuerySyntaxError) as info:
            parse('split = ')
        assert info.value.offset == 8
        assert info.value.expected

    def test_offset_is_bytes_not_chars(self):
        # two-byte UTF-8 char before the error position
        with pytest.raises(QuerySyntaxError) as info:
            parse('x = "é" AND !')
        assert info.value.offset == len('x = "é" AND '.encode("utf-8"))

    def test_mixed_variant_in_set(self):
        with pytest.raises(MixedVariantSet):
            parse("a IN {1, 2.0}")

    def test_int_float_are_distinct_variants(self):
        assert parse("a = 1") != parse("a = 1.0")

    def test_integer_out_of_i64_range(self):
        with pytest.raises(QuerySyntaxError):
            parse(f"a = {2**63}")


class TestEvaluate:
    def test_match_all_accepts_anything(self):
        assert matches(MATCH_ALL, {}) is True
        assert matches(MATCH_ALL, {"x": 1}) is True

    def test_simple_mismatch(self):
        assert matches(parse('split = "train"'), {"split": "test"}) is False

    def test_absent_tag_is_false_not_error(self):
        assert matches(parse("missing = 1"), {"other": 1}) is False

    def test_cross_variant_does_not_match(self):
        assert matches(parse("x = 1"), {"x": "one"}) is False
        assert matches(parse('x != "one"'), {"x": 1}) is False

    def test_int_vs_float_does_not_match(self):
        assert matches(parse("x = 1"), {"x": 1.0}) is False
        assert matches(parse("x != 1.0"), {"x": 1}) is False

    def test_bool_vs_int_does_not_match(self):
        assert matches(parse("x = true"), {"x": 1}) is False
        assert matches(parse("x = 1"), {"x": True}) is False

    def test_in_membership(self):
        query = parse("e IN {1, 2, 3}")
        assert matches(query, {"e": 2}) is True
        assert matches(query, {"e": 4}) is False

    def test_string_ordering(self):
        assert matches(parse('s < "b"'), {"s": "a"}) is True
        assert matches(parse('s < "a"'), {"s": "b"}) is False


# --- randomized agreement with the independent oracle -------------------------

_tag_names = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
_scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=8),
)


def _values_single_variant(draw):
    kind = draw(st.sampled_from(["int", "float", "bool", "str"]))
    strat = {
        "int": st.integers(min_value=-100, max_value=100),
        "float": st.floats(allow_nan=False, allow_infinity=False, width=32),
        "bool": st.booleans(),
        "str": st.text(max_size=5),
    }[kind]
    return draw(st.lists(strat, min_size=1, max_size=4, unique_by=repr))


@st.composite
def _predicates(draw):
    tag = draw(_tag_names)
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "IN"]))
    if op == "IN":
        return Predicate(tag, "IN", values=tuple(_values_single_variant(draw)))
    return Predicate(tag, op, draw(_scalars))


@st.composite
def _queries(draw):
    return TagQuery(tuple(draw(st.lists(_predicates(), max_size=4))))


@st.composite
def _tag_maps(draw):
    return draw(st.dictionaries(_tag_names, _scalars, max_size=5))


@given(_queries(), _tag_maps())
@settings(max_examples=400, deadline=None)
def test_evaluate_agrees_with_oracle(query, tags):
    """``matches`` is the scan rule: a tag of another variant is no match."""
    preds = [(p.tag, p.op, p.values if p.op == "IN" else p.value)
             for p in query.predicates]
    assert matches(query, tags) == (brute_force_scan({"doc": tags}, preds) == ["doc"])


@given(_queries())
@settings(max_examples=1000, deadline=None)
def test_parse_render_round_trip(query):
    assert parse(render(query)) == query


@given(st.text(max_size=12))
@settings(max_examples=500, deadline=None)
def test_string_predicate_escaping_round_trips(value):
    query = q(Predicate("s", "=", value))
    assert parse(render(query)) == query


@given(_queries(), _predicates(), _tag_maps())
@settings(max_examples=300, deadline=None)
def test_adding_predicate_never_grows_match(query, extra, tags):
    bigger = TagQuery(query.predicates + (extra,))
    if matches(bigger, tags):
        assert matches(query, tags)


def test_render_match_all_is_empty():
    assert render(MATCH_ALL) == ""


def test_render_float_always_has_dot():
    for v in [1.0, 1e-7, 2.5e20, -0.0, 3.25]:
        text = render(q(Predicate("f", "=", v)))
        literal = text.split(" = ")[1]
        assert "." in literal
        assert parse(text) == q(Predicate("f", "=", v))


# --- error golden table and robustness ------------------------------------------

_LITERALS = ("string", "int", "float", "bool")
_CHAR = ("identifier", "literal", "operator")

# (source, exception class, byte offset, expected, message). The rows not
# marked "fixed" were recorded from the earlier hand-written parser, so the
# messages stay as they were; the fixed rows are where it raised ValueError,
# accepted Unicode digits, named a string token by empty text or refused '=='
# without an offset.
ERROR_TABLE = [
    ('a = "abc', QuerySyntaxError, 4, ('"',), "unterminated string literal"),
    ('a = "ab\\', QuerySyntaxError, 7, (), "dangling escape"),
    ('a = "\\u12g4"', QuerySyntaxError, 5, ("4 hex digits",), "invalid \\u escape"),
    ('a = "\\u12"', QuerySyntaxError, 5, ("4 hex digits",), "invalid \\u escape"),
    ('a = "\\q"', QuerySyntaxError, 5, ('\\"', "\\\\", "\\n", "\\r", "\\t", "\\u"),
     "unknown escape \\q"),
    ('a = "x\\q', QuerySyntaxError, 6, ('\\"', "\\\\", "\\n", "\\r", "\\t", "\\u"),
     "unknown escape \\q"),
    ("a ! 3", QuerySyntaxError, 2, ("!=",), "expected '=' after '!'"),
    ("a = -x", QuerySyntaxError, 4, ("integer", "float"), "expected digits"),
    ("a = -", QuerySyntaxError, 4, ("integer", "float"), "expected digits"),
    ("a = 1.", QuerySyntaxError, 4, ("digit",), "expected digits after '.'"),
    ("a = 1.5e", QuerySyntaxError, 4, ("digit",), "expected digits in exponent"),
    ("a = 1.5e+", QuerySyntaxError, 4, ("digit",), "expected digits in exponent"),
    ("a = 1.5else", QuerySyntaxError, 4, ("digit",), "expected digits in exponent"),
    ("a = 9223372036854775808", QuerySyntaxError, 4, (),
     "integer literal out of 64-bit range"),
    ("a = -9223372036854775809", QuerySyntaxError, 4, (),
     "integer literal out of 64-bit range"),
    ("a = @", QuerySyntaxError, 4, _CHAR, "unexpected character '@'"),
    ('x = "é"\xa0', QuerySyntaxError, 8, _CHAR, "unexpected character '\\xa0'"),
    ("= 3", QuerySyntaxError, 0, ("ident",), "expected ident, found '='"),
    ("split =", QuerySyntaxError, 7, _LITERALS, "expected a literal, found 'end of input'"),
    ("a IN {}", QuerySyntaxError, 6, _LITERALS, "expected a literal, found '}'"),
    ("a IN 1", QuerySyntaxError, 5, ("{",), "expected {, found '1'"),
    ("a IN {1, 2", QuerySyntaxError, 10, ("}",), "expected }, found 'end of input'"),
    ("a = 1 AND", QuerySyntaxError, 9, ("ident",), "expected ident, found 'end of input'"),
    ("a 3", QuerySyntaxError, 2, ("=", "!=", "<", "<=", ">", ">=", "IN"),
     "expected operator after 'a'"),
    ("a = 1 b = 2", QuerySyntaxError, 6, ("AND", "end of input"), "unexpected 'b'"),
    ("a = 1e5", QuerySyntaxError, 5, ("AND", "end of input"), "unexpected 'e5'"),
    ("a IN {1, 2.0}", MixedVariantSet, 2, (), "IN set mixes value variants"),
    ("= 3 @", QuerySyntaxError, 4, _CHAR, "unexpected character '@'"),  # lexical wins
    # fixed: string tokens are named by their source text
    ('"s" = 1', QuerySyntaxError, 0, ("ident",), "expected ident, found '\"s\"'"),
    ('a = 1 "s"', QuerySyntaxError, 6, ("AND", "end of input"), "unexpected '\"s\"'"),
    # fixed: digits are ASCII
    ("x = ²", QuerySyntaxError, 4, _CHAR, "unexpected character '²'"),
    ("x = ١٢", QuerySyntaxError, 4, _CHAR, "unexpected character '١'"),
    # fixed: a literal past Python's int-string limit is out of range, not ValueError
    ("a = " + "1" * 5000, QuerySyntaxError, 4, (), "integer literal out of 64-bit range"),
    # fixed: '==' is no operator of the grammar, a syntax error, not InvalidArgument
    ("a == 1", QuerySyntaxError, 2, ("=", "!=", "<", "<=", ">", ">="),
     "unknown operator '=='"),
]


@pytest.mark.parametrize("src,cls,offset,expected,message", ERROR_TABLE,
                         ids=[repr(row[0][:24]) for row in ERROR_TABLE])
def test_error_table(src, cls, offset, expected, message):
    with pytest.raises(QuerySyntaxError) as info:
        parse(src)
    assert type(info.value) is cls
    assert (info.value.offset, info.value.expected, str(info.value)) == \
        (offset, expected, message)


@pytest.mark.parametrize("src,value", [
    ("a = -9223372036854775808", -(2**63)),
    ("a = 00000000000000000000001", 1),
    ("a = -0", 0),
    ("a = 1.5E+3", 1500.0),
    ('a = "tab\\there\\u00e9\\\\"', "tab\thereé\\"),
    ("a-b.c/d:e_1 = 1", 1),
])
def test_literal_edges(src, value):
    query = parse(src)
    assert query.predicates[0].value == value
    assert parse(render(query)) == query


@pytest.mark.parametrize("src,message", [
    ("a = 1.0e999", "float tag values must be finite"),
    ('a = "\\ud800"', "string tag values must be UTF-8 encodable"),
])
def test_invalid_values_are_invalid_argument(src, message):
    with pytest.raises(InvalidArgument, match=message):
        parse(src)


_FRAGMENTS = st.sampled_from([
    "a", "x_1", " ", "\t", "=", "!", "<", ">", '"', "\\", "\\u", "{", "}", ",", "-", ".",
    "e", "E", "+", "0", "9", "AND", "IN", "true", "false", "²", "١", "é", "\xa0"])


@given(st.text() | st.lists(_FRAGMENTS | st.text(max_size=2), max_size=12).map("".join))
@settings(max_examples=1000, deadline=None)
def test_parse_never_crashes(src):
    """Query text comes from outside the program: any text parses or is
    refused with a domain error."""
    try:
        parse(src)
    except (QuerySyntaxError, InvalidArgument):
        pass
