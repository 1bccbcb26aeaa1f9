"""Declarative tag-query language: parse, match, render.

A query is a conjunction of predicates over document tags:

    query   := epsilon | pred (AND pred)*
    pred    := ident op literal | ident IN '{' literal (',' literal)* '}'
    op      := '=' | '!=' | '<' | '<=' | '>' | '>='
    ident   := [A-Za-z_][A-Za-z0-9_./:-]*
    literal := quoted string | integer | float (must contain '.') | true | false

The empty query matches every document. Tag values come in four scalar
variants (string, int, float, bool); values never compare across variants,
and int vs float is deliberately no match rather than a silent coercion.

:func:`matches` is the one rule for a document's tags: a predicate over a
tag absent from the tag map, or holding another variant than the
predicate's literal, is false for that document. Scans use it, so a scan
returns the same keys with or without a tag index (an index only ever
holds candidates of the literal's variant).

``parse(render(q)) == q`` holds for every valid query.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from forge.errors import InvalidArgument, MixedVariantSet, QuerySyntaxError

# Variant codes. They partition index keys and IN-sets; they are never used
# to order values of different variants against each other.
V_STRING, V_INT, V_FLOAT, V_BOOL = 0, 1, 2, 3

TagScalar = str | int | float | bool

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789_./:-")


_TYPE_VARIANTS = {str: V_STRING, int: V_INT, float: V_FLOAT, bool: V_BOOL}


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
    if code == V_STRING:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidArgument("string tag values must be UTF-8 encodable") from None


def sort_key(value: TagScalar) -> tuple[int, TagScalar]:
    """Total order over tag values: variant partition first, value within."""
    return (variant_of(value), value)


def is_ident(name: str) -> bool:
    return bool(name) and name[0] in _IDENT_START and all(c in _IDENT_CONT for c in name[1:])


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


_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


def _holds(pred: Predicate, value: TagScalar) -> bool:
    """The predicate over a value of its own variant."""
    if pred.op == "IN":
        return value in pred.values
    return _COMPARE[pred.op](value, pred.value)


def _variant(value: TagScalar) -> int:
    """variant_of by exact type first; subclasses take the slow path."""
    code = _TYPE_VARIANTS.get(type(value))
    return variant_of(value) if code is None else code


def matches(query: TagQuery, tags: dict[str, TagScalar]) -> bool:
    """The scan rule: every predicate's tag is present, holds a value of the
    literal's variant, and satisfies the predicate. Never raises."""
    for pred in query.predicates:
        value = tags.get(pred.tag)  # tag values are never None
        if value is None or _variant(value) != pred.variant or not _holds(pred, value):
            return False
    return True


# ---------------------------------------------------------------------------
# rendering

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _render_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20 or 0xD800 <= ord(ch) <= 0xDFFF:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _render_float(v: float) -> str:
    s = repr(v)
    if "." in s:
        return s
    # repr may give exponent-only forms like '1e-07'; the grammar wants a dot
    if "e" in s or "E" in s:
        mant, _, exp = s.partition("e" if "e" in s else "E")
        if "." not in mant:
            mant += ".0"
        return f"{mant}e{exp}"
    return s + ".0"


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

@dataclass
class _Token:
    kind: str  # ident / string / int / float / bool / op / IN / AND / { / } / , / eof
    text: str
    value: TagScalar | None
    offset: int  # byte offset into the UTF-8 source


class _Lexer:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0  # char position
        self.byte = 0  # byte offset of self.pos

    def _advance(self, n: int) -> None:
        self.byte += len(self.src[self.pos:self.pos + n].encode("utf-8", "surrogatepass"))
        self.pos += n

    def error(self, msg: str, expected: tuple[str, ...] = (), offset: int | None = None):
        raise QuerySyntaxError(msg, offset=self.byte if offset is None else offset,
                               expected=expected)

    def tokens(self) -> list[_Token]:
        out = []
        src, n = self.src, len(self.src)
        while True:
            while self.pos < n and src[self.pos] in " \t\r\n":
                self._advance(1)
            if self.pos >= n:
                out.append(_Token("eof", "", None, self.byte))
                return out
            start_byte = self.byte
            ch = src[self.pos]
            if ch == '"':
                out.append(self._string(start_byte))
            elif ch in "{},":
                self._advance(1)
                out.append(_Token(ch, ch, None, start_byte))
            elif ch in "=<>!":
                op = ch
                if self.pos + 1 < n and src[self.pos + 1] == "=":
                    op += "="
                if op == "!":
                    self.error("expected '=' after '!'", ("!=",))
                self._advance(len(op))
                out.append(_Token("op", op, None, start_byte))
            elif ch.isdigit() or ch == "-":
                out.append(self._number(start_byte))
            elif ch in _IDENT_START:
                out.append(self._ident(start_byte))
            else:
                self.error(f"unexpected character {ch!r}",
                           ("identifier", "literal", "operator"))

    def _string(self, start: int) -> _Token:
        self._advance(1)
        src, n = self.src, len(self.src)
        buf = []
        while True:
            if self.pos >= n:
                self.error("unterminated string literal", ('"',), offset=start)
            ch = src[self.pos]
            if ch == '"':
                self._advance(1)
                return _Token("string", "", "".join(buf), start)
            if ch == "\\":
                if self.pos + 1 >= n:
                    self.error("dangling escape", (), offset=self.byte)
                esc = src[self.pos + 1]
                if esc == "u":
                    hexs = src[self.pos + 2:self.pos + 6]
                    if len(hexs) < 4 or any(c not in "0123456789abcdefABCDEF" for c in hexs):
                        self.error("invalid \\u escape", ("4 hex digits",))
                    buf.append(chr(int(hexs, 16)))
                    self._advance(6)
                elif esc in '"\\nrt':
                    buf.append({'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}[esc])
                    self._advance(2)
                else:
                    self.error(f"unknown escape \\{esc}", ('\\"', "\\\\", "\\n", "\\r", "\\t", "\\u"))
            else:
                buf.append(ch)
                self._advance(1)

    def _number(self, start: int) -> _Token:
        src, n = self.src, len(self.src)
        p = self.pos
        if src[p] == "-":
            p += 1
        digits0 = p
        while p < n and src[p].isdigit():
            p += 1
        if p == digits0:
            self.error("expected digits", ("integer", "float"), offset=start)
        is_float = False
        if p < n and src[p] == ".":
            is_float = True
            p += 1
            frac0 = p
            while p < n and src[p].isdigit():
                p += 1
            if p == frac0:
                self.error("expected digits after '.'", ("digit",))
        if is_float and p < n and src[p] in "eE":
            q = p + 1
            if q < n and src[q] in "+-":
                q += 1
            exp0 = q
            while q < n and src[q].isdigit():
                q += 1
            if q == exp0:
                self.error("expected digits in exponent", ("digit",))
            p = q
        text = src[self.pos:p]
        self._advance(p - self.pos)
        if is_float:
            return _Token("float", text, float(text), start)
        value = int(text)
        if not (_I64_MIN <= value <= _I64_MAX):
            self.error("integer literal out of 64-bit range", (), offset=start)
        return _Token("int", text, value, start)

    def _ident(self, start: int) -> _Token:
        src, n = self.src, len(self.src)
        p = self.pos
        while p < n and src[p] in _IDENT_CONT:
            p += 1
        text = src[self.pos:p]
        self._advance(p - self.pos)
        if text == "AND":
            return _Token("AND", text, None, start)
        if text == "IN":
            return _Token("IN", text, None, start)
        if text == "true":
            return _Token("bool", text, True, start)
        if text == "false":
            return _Token("bool", text, False, start)
        return _Token("ident", text, None, start)


_LITERAL_KINDS = ("string", "int", "float", "bool")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise QuerySyntaxError(f"expected {kind}, found {tok.text or 'end of input'!r}",
                                   offset=tok.offset, expected=(kind,))
        return self.take()

    def literal(self) -> TagScalar:
        tok = self.peek()
        if tok.kind not in _LITERAL_KINDS:
            raise QuerySyntaxError(
                f"expected a literal, found {tok.text or 'end of input'!r}",
                offset=tok.offset, expected=_LITERAL_KINDS)
        return self.take().value

    def query(self) -> TagQuery:
        if self.peek().kind == "eof":
            return MATCH_ALL
        preds = [self.predicate()]
        while self.peek().kind == "AND":
            self.take()
            preds.append(self.predicate())
        tok = self.peek()
        if tok.kind != "eof":
            raise QuerySyntaxError(f"unexpected {tok.text!r}", offset=tok.offset,
                                   expected=("AND", "end of input"))
        return TagQuery(tuple(preds))

    def predicate(self) -> Predicate:
        name = self.expect("ident")
        tok = self.peek()
        if tok.kind == "IN":
            self.take()
            self.expect("{")
            values = [self.literal()]
            while self.peek().kind == ",":
                self.take()
                values.append(self.literal())
            self.expect("}")
            codes = {variant_of(v) for v in values}
            if len(codes) > 1:
                raise MixedVariantSet("IN set mixes value variants", offset=tok.offset)
            return Predicate(name.text, "IN", values=tuple(values))
        if tok.kind == "op":
            op = self.take().text
            return Predicate(name.text, op, value=self.literal())
        raise QuerySyntaxError(f"expected operator after {name.text!r}",
                               offset=tok.offset, expected=OPERATORS + ("IN",))


def parse(src: str) -> TagQuery:
    return _Parser(_Lexer(src).tokens()).query()
