r"""Declarative tag-query language: parse, match, render.

A query is a conjunction of predicates over document tags:

    query   := epsilon | pred (AND pred)*
    pred    := ident op literal | ident IN '{' literal (',' literal)* '}'
    op      := '=' | '!=' | '<' | '<=' | '>' | '>='
    ident   := [A-Za-z_][A-Za-z0-9_./:-]*
    literal := string | integer | float | true | false

The tokens, with optional whitespace (space, tab, CR and LF only) between
them; digits are ASCII:

    integer := -?[0-9]+                       (within the signed 64-bit range)
    float   := -?[0-9]+ '.' [0-9]+ ([eE][+-]?[0-9]+)?
    string  := '"' (any character but '"' and '\' | escape)* '"'
    escape  := '\"' | '\\' | '\n' | '\r' | '\t' | '\u' 4 hex digits

``AND``, ``IN``, ``true`` and ``false`` are keywords in exactly that case.
Malformed text raises QuerySyntaxError; its ``offset`` is a UTF-8 byte
offset into the source.

The empty query matches every document. Tag values come in four scalar
variants (string, int, float, bool); values never compare across variants,
and int vs float is deliberately no match rather than a silent coercion.

There is one rule for a document's tags: a predicate over a tag absent
from the tag map, or holding another variant than the predicate's literal,
is false for that document. :func:`compile_predicates` builds it once per
scan as one test of a tag map, and :func:`matches` is defined through it,
so a scan returns the same keys with or without a tag index (an index only
ever holds candidates of the literal's variant). A scan whose candidates
come from an index bucket, or the buckets of an IN set or a range, does not
test the predicate that chose them, because those buckets hold exactly the
keys whose tag has such a value; it tests only the others.

``parse(render(q)) == q`` holds for every valid query.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial, reduce

from forge.errors import InvalidArgument, MixedVariantSet, QuerySyntaxError

# Variant codes. They partition index keys and IN-sets; they are never used
# to order values of different variants against each other.
V_STRING, V_INT, V_FLOAT, V_BOOL = 0, 1, 2, 3

TagScalar = str | int | float | bool

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

_IDENT = r"[A-Za-z_][A-Za-z0-9_./:-]*"
_IDENT_RE = re.compile(_IDENT)

_VARIANT_TYPES = (str, int, float, bool)  # by variant code
_TYPE_VARIANTS = {cls: code for code, cls in enumerate(_VARIANT_TYPES)}


def variant_of(value: TagScalar) -> int:
    """Variant code of a tag value. bool is checked before int on purpose."""
    if isinstance(value, bool):
        return V_BOOL
    if isinstance(value, int):
        return V_INT
    if isinstance(value, float):
        return V_FLOAT
    if isinstance(value, str):
        return V_STRING
    raise InvalidArgument(f"unsupported tag value type: {type(value).__name__}")


def check_tag_value(value: TagScalar) -> None:
    code = variant_of(value)
    if code == V_INT and not (_I64_MIN <= value <= _I64_MAX):
        raise InvalidArgument(f"int tag value out of 64-bit range: {value}")
    if code == V_FLOAT and not math.isfinite(value):
        raise InvalidArgument("float tag values must be finite")
    if code == V_STRING and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidArgument("string tag values must be UTF-8 encodable") from None


def sort_key(value: TagScalar) -> tuple[int, TagScalar]:
    """Total order over tag values: variant partition first, value within."""
    return (variant_of(value), value)


def is_ident(name: str) -> bool:
    return _IDENT_RE.fullmatch(name) is not None


@dataclass(frozen=True, eq=False)
class Predicate:
    """One condition on one tag. ``values`` is set for IN, ``value`` otherwise.

    Equality is variant-aware: ``= 1``, ``= 1.0`` and ``= true`` are three
    different predicates even though Python says ``1 == 1.0 == True``.
    """

    tag: str
    op: str
    value: TagScalar | None = None
    values: tuple[TagScalar, ...] | None = None
    variant: int = field(init=False, repr=False)

    def _identity(self):
        if self.op == "IN":
            return (self.tag, self.op, tuple(sort_key(v) for v in self.values))
        return (self.tag, self.op, sort_key(self.value))

    def __eq__(self, other):
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def __post_init__(self):
        if not is_ident(self.tag):
            raise InvalidArgument(f"tag name not queryable: {self.tag!r}")
        if self.op == "IN":
            if not self.values:
                raise InvalidArgument("IN set must be non-empty")
            codes = {variant_of(v) for v in self.values}
            if len(codes) > 1:
                raise MixedVariantSet("IN set mixes value variants")
            for v in self.values:
                check_tag_value(v)
            # canonical order makes render/parse round-trips structural
            object.__setattr__(self, "values", tuple(sorted(set(self.values), key=sort_key)))
        elif self.op in OPERATORS:
            check_tag_value(self.value)
        else:
            raise InvalidArgument(f"unknown operator: {self.op!r}")
        object.__setattr__(self, "variant",
                           variant_of(self.values[0] if self.op == "IN" else self.value))


@dataclass(frozen=True)
class TagQuery:
    predicates: tuple[Predicate, ...] = ()

    @property
    def is_match_all(self) -> bool:
        return not self.predicates


MATCH_ALL = TagQuery()


# ``value op literal`` as ``_COMPARE[op](literal, value)``: the literal is
# bound first, so each operator maps to its mirror
_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.gt, "<=": operator.ge,
            ">": operator.lt, ">=": operator.le}


def _variant(value: TagScalar) -> int:
    """variant_of by exact type first; subclasses take the slow path."""
    code = _TYPE_VARIANTS.get(type(value))
    return variant_of(value) if code is None else code


def _compile(pred: Predicate) -> Callable[[dict[str, TagScalar]], bool]:
    """The test of one predicate: the tag is present, of the literal's
    variant, and holds. A value of the variant's exact class passes the
    variant check at once; ``None`` (absent) and any other class, a
    subclass such as ``np.float64`` included, go through ``_variant``."""
    tag, variant, cls = pred.tag, pred.variant, _VARIANT_TYPES[pred.variant]
    if pred.op == "IN":
        holds = frozenset(pred.values).__contains__
    else:
        holds = partial(_COMPARE[pred.op], pred.value)

    def test(tags):
        value = tags.get(tag)
        return ((value.__class__ is cls or value is not None and _variant(value) == variant)
                and holds(value))

    return test


def _both(first, second):
    return lambda tags: first(tags) and second(tags)


def compile_predicates(
        predicates: tuple[Predicate, ...]) -> Callable[[dict[str, TagScalar]], bool] | None:
    """One test of a tag map against every predicate, built once per scan:
    the AND of one closure per predicate, each specialised to its operator.
    None when there is no predicate, so every tag map matches."""
    return reduce(_both, map(_compile, predicates)) if predicates else None


def matches(query: TagQuery, tags: dict[str, TagScalar]) -> bool:
    """The scan rule: every predicate's tag is present, holds a value of the
    literal's variant, and satisfies the predicate. Never raises."""
    test = compile_predicates(query.predicates)
    return test is None or bool(test(tags))


# ---------------------------------------------------------------------------
# rendering

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NEEDS_ESCAPE = re.compile(r'[\\"\x00-\x1f\ud800-\udfff]')


def _render_string(s: str) -> str:
    return '"' + _NEEDS_ESCAPE.sub(lambda m: _ESCAPES.get(m[0]) or f"\\u{ord(m[0]):04x}", s) + '"'


def _render_float(v: float) -> str:
    s = repr(v)
    if "." in s:
        return s
    # a finite float without a dot has an exponent, like '1e-07'; the grammar wants a dot
    mant, _, exp = s.partition("e")
    return f"{mant}.0e{exp}"


def render_value(v: TagScalar) -> str:
    code = variant_of(v)
    if code == V_STRING:
        return _render_string(v)
    if code == V_BOOL:
        return "true" if v else "false"
    if code == V_FLOAT:
        return _render_float(v)
    return str(v)


def render(query: TagQuery) -> str:
    """Canonical text form; ``parse(render(q)) == q``. Match-all renders empty."""
    parts = []
    for p in query.predicates:
        if p.op == "IN":
            inner = ", ".join(render_value(v) for v in p.values)
            parts.append(f"{p.tag} IN {{{inner}}}")
        else:
            parts.append(f"{p.tag} {p.op} {render_value(p.value)}")
    return " AND ".join(parts)


# ---------------------------------------------------------------------------
# parsing

# One token per match, after optional whitespace. A string or a number is
# matched broadly and checked after, so that each malformed form gets its
# own message; any other character is ``bad``.
_TOKEN = re.compile(r"""[ \t\r\n]*(?:
    (?P<end>\Z)
  | (?P<string>"(?P<body>[^"\\]*(?:\\.[^"\\]*)*)(?P<close>"?))
  | (?P<number>(?=[-0-9])-?(?P<int>[0-9]*)(?:\.(?P<frac>[0-9]*)(?:[eE][+-]?(?P<exp>[0-9]*))?)?)
  | (?P<op>[=<>!]=?)
  | (?P<punct>[{},])
  | (?P<word>""" + _IDENT + r""")
  | (?P<bad>.))""", re.VERBOSE | re.DOTALL)

_KEYWORDS = {"AND": ("AND", None), "IN": ("IN", None),
             "true": ("literal", True), "false": ("literal", False)}

_ESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|.)", re.DOTALL)
_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}

_LITERAL_KINDS = ("string", "int", "float", "bool")


def _error(src: str, at: int, message: str, expected: tuple[str, ...] = (),
           cls: type[QuerySyntaxError] = QuerySyntaxError) -> QuerySyntaxError:
    """The error at character ``at``, located by its UTF-8 byte offset."""
    return cls(message, offset=len(src[:at].encode("utf-8", "surrogatepass")),
               expected=expected)


def _string(src: str, m: re.Match) -> str:
    body_at = m.start("body")

    def unescape(e: re.Match) -> str:
        esc = e[1]
        if len(esc) == 5:
            return chr(int(esc[1:], 16))
        if esc in _UNESCAPE:
            return _UNESCAPE[esc]
        if esc == "u":
            raise _error(src, body_at + e.start(), "invalid \\u escape", ("4 hex digits",))
        raise _error(src, body_at + e.start(), f"unknown escape \\{esc}",
                     ('\\"', "\\\\", "\\n", "\\r", "\\t", "\\u"))

    value = _ESCAPE.sub(unescape, m["body"])
    if not m["close"]:
        if m.end() < len(src):  # the body stopped at a backslash with nothing after it
            raise _error(src, m.end(), "dangling escape")
        raise _error(src, m.start("string"), "unterminated string literal", ('"',))
    return value


def _number(src: str, m: re.Match) -> int | float:
    at = m.start("number")
    if not m["int"]:
        raise _error(src, at, "expected digits", ("integer", "float"))
    if m["frac"] is None:
        # past 19 digits it is out of range, and int() may refuse the text
        value = int(m["number"]) if len(m["int"].lstrip("0")) <= 19 else _I64_MAX + 1
        if not _I64_MIN <= value <= _I64_MAX:
            raise _error(src, at, "integer literal out of 64-bit range")
        return value
    if not m["frac"]:
        raise _error(src, at, "expected digits after '.'", ("digit",))
    if m["exp"] == "":
        raise _error(src, at, "expected digits in exponent", ("digit",))
    return float(m["number"])


def _tokens(src: str) -> list[tuple[str, TagScalar | None, int, int]]:
    """The whole source as (kind, value, start, end) tuples ending with an
    ``end`` token, so a lexical error anywhere comes before any grammar
    error. Kinds: literal, ident, op, AND, IN, ``{``, ``}``, ``,`` and end."""
    tokens = []
    pos = 0
    while True:
        m = _TOKEN.match(src, pos)
        kind = m.lastgroup
        start, pos = m.start(kind), m.end()
        value = m[kind]
        if kind == "string":
            kind, value = "literal", _string(src, m)
        elif kind == "number":
            kind, value = "literal", _number(src, m)
        elif kind == "word":
            kind, value = _KEYWORDS.get(value, ("ident", value))
        elif kind == "punct":
            kind = value
        elif kind == "op" and value == "!":
            raise _error(src, start, "expected '=' after '!'", ("!=",))
        elif kind == "op" and value == "==":
            raise _error(src, start, "unknown operator '=='", OPERATORS)
        elif kind == "bad":
            raise _error(src, start, f"unexpected character {value!r}",
                         ("identifier", "literal", "operator"))
        tokens.append((kind, value, start, pos))
        if kind == "end":
            return tokens


def parse(src: str) -> TagQuery:
    """The query ``src`` states. Malformed text raises QuerySyntaxError (or
    its MixedVariantSet) at a UTF-8 byte offset; a literal no tag can hold
    raises InvalidArgument."""
    tokens = _tokens(src)
    i = 0

    def take(kind: str, what: str = "", expected: tuple[str, ...] = ()):
        nonlocal i
        tok_kind, value, start, end = tokens[i]
        if tok_kind != kind:
            found = src[start:end] or "end of input"
            raise _error(src, start, f"expected {what or kind}, found {found!r}",
                         expected or (kind,))
        i += 1
        return value

    def literal() -> TagScalar:
        return take("literal", "a literal", _LITERAL_KINDS)

    if tokens[0][0] == "end":
        return MATCH_ALL
    preds = []
    while True:
        name = take("ident")
        kind, op, start, _ = tokens[i]
        i += 1
        if kind == "IN":
            take("{")
            values = [literal()]
            while tokens[i][0] == ",":
                i += 1
                values.append(literal())
            take("}")
            if len({variant_of(v) for v in values}) > 1:
                raise _error(src, start, "IN set mixes value variants", cls=MixedVariantSet)
            preds.append(Predicate(name, "IN", values=tuple(values)))
        elif kind == "op":
            preds.append(Predicate(name, op, value=literal()))
        else:
            raise _error(src, start, f"expected operator after {name!r}",
                         OPERATORS + ("IN",))
        if tokens[i][0] != "AND":
            break
        i += 1
    kind, _, start, end = tokens[i]
    if kind != "end":
        raise _error(src, start, f"unexpected {src[start:end]!r}", ("AND", "end of input"))
    return TagQuery(tuple(preds))
