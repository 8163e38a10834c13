"""One lexer for the Turtle and SPARQL subsets, plus the parser plumbing they share.

The lexical grammar is defined once, here.  A single master regular
expression of named groups scans the token classes both languages share
(W3C Turtle 1.1 and SPARQL 1.1 Query spell them the same way):

    whitespace and ``#`` comments       skipped
    IRIREF ``<...>``                    ``\\u``/``\\U`` escapes decoded; controls, space,
                                        ``{}|^`` and the backtick only as escapes
    quoted string ``"..."``/``'...'``   single line; ``\\t \\b \\n \\r \\f \\" \\' \\\\``
                                        and ``\\u``/``\\U`` escapes decoded
    prefixed name ``pfx:local``         a trailing ``.`` ends the statement instead
    blank node label ``_:label``        the shape :class:`~plantkb.terms.BlankNode` accepts
    integer, decimal                    exponents are an unsupported construct
    language tag ``@tag``, ``^^``, and the words ``a``, ``true``, ``false``

A ``\\u``/``\\U`` escape of a surrogate code point (U+D800-U+DFFF) is
malformed, as is one past U+10FFFF.

Each grammar adds a small table: its punctuation, its case-insensitive
keywords, the constructs it rejects by name, its ``@`` directives, and
whether ``?var``/``$var`` variables exist.

:meth:`Lexer.scan` is a stream: it yields one ``(kind, value, start)`` tuple
per match as the parser asks for the next token, and no token list is built.
A token carries its start offset and no source text; line, column and the
text are recovered from the offset only when an error is raised.

:class:`TokenParser` is the cursor, one token of lookahead over that stream,
and the term constructors (IRIs, prefixed names, ``PREFIX`` declarations,
literals) that both recursive-descent parsers stand on.  A parse that fails
scans the rest of the text before it raises, so a lexical error anywhere in
the text is reported over an earlier grammar or term error, as if the whole
text had been scanned first.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Callable, Iterator
from typing import TypeVar

from ._record import Record
from .errors import ParseError, PlantKbError, RelativeIriError, UnknownPrefixError, UnsupportedConstructError
from .graph import PrefixMap
from .terms import RDF_LANG_STRING, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER, XSD_STRING, Iri, Literal

# a \u or \U escape of a code point up to U+10FFFF that is not a surrogate
# (U+D800-U+DFFF), which no UTF-8 text can hold
_UCHAR = r"\\u(?![Dd][89A-Fa-f])[0-9A-Fa-f]{4}|\\U00(?!00[Dd][89A-Fa-f])(?:0[0-9A-Fa-f]|10)[0-9A-Fa-f]{4}"
# The valid body of a quoted token, keyed by its opening character.  A body
# match stops at the first character that makes the token malformed.
_BODY = {
    "<": re.compile(rf'(?:[^\x00-\x20<>"{{}}|^`\\]|{_UCHAR})*'),
    '"': re.compile(rf'(?:[^"\\\n]|\\[tbnrf"\'\\]|{_UCHAR})*'),
    "'": re.compile(rf"(?:[^'\\\n]|\\[tbnrf\"'\\]|{_UCHAR})*"),
}
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")
_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_LANGTAG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")
_ABSOLUTE_IRI = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# RFC 3986 Appendix B: scheme, authority, path, query and fragment are groups
# 2, 4, 5, 7 and 9; an absent component's group is None
_REFERENCE = re.compile(r"(([^:/?#]+):)?(//([^/?#]*))?([^?#]*)(\?([^#]*))?(#(.*))?", re.S)

_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"
# Token classes in the order the master regex tries them.  The order matters:
# IRIs before SPARQL's '<' operator, numbers before punctuation ('.5'),
# punctuation before words (a '.' never starts one), error classes last.  A
# prefixed name, the most frequent token, starts with a letter or ':' as no
# other class before words does, so it is tried first.
_HEAD = (
    ("pname", r"(?:[A-Za-z][A-Za-z0-9_.\-]*)?:(?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"),
    ("long_string", r'"""|\'\'\''),
    ("string", r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\''),
    ("iriref", r'<[^\x00-\x20<>"{}|^`]*>'),
    # '<...>' but for '{', '}', '|', '^' or the backtick: a malformed IRI, not SPARQL's '<'
    ("bad_iriref", r'<[^\x00-\x20<>"]*>'),
    ("langtag", r"@(?:[^\W_]|-)*"),
    ("dt", r"\^\^"),
    ("blank", r"_:(?P<label>[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?"),
    ("number", r"(?=[0-9]|[+-][0-9.]|\.[0-9])[+-]?[0-9]*(?P<fraction>\.[0-9]+)?"),
)
_VARIABLE = ("var", r"[?$](?P<name>[A-Za-z_][A-Za-z0-9_]*)?")
_TAIL = (
    ("bad_prefix", r"[0-9_.\-][A-Za-z0-9_.\-]*(?=:)"),
    ("word", r"[A-Za-z0-9_.\-]*[A-Za-z0-9_\-]"),
    ("malformed", r'[<"\']'),
    ("other", r"[\s\S]"),
    ("eof", r"\Z"),
)


# A token: its kind, its value (its text: decoded for IRIs and strings, with
# no sigil for tags, blank labels and variables, upper-cased for keywords;
# None at the end) and its start offset into the source text.
Token = tuple[str, object, int]


def position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(message: str, text: str, offset: int, snippet: str) -> ParseError:
    return ParseError(message, *position(text, offset), snippet)


def _malformed(text: str, start: int) -> ParseError:
    """Name the first defect of the IRI or string token opening at ``start``."""
    opener = text[start]
    p = _BODY[opener].match(text, start + 1).end()
    ch = text[p:p + 1]
    what = "IRI reference" if opener == "<" else "string literal"
    if not ch:
        return _error(f"unterminated {what}", text, start, text[start:start + 20])
    if ch == "\\":
        kind = text[p + 1:p + 2]
        if kind in ("u", "U"):
            width = 4 if kind == "u" else 8
            return _error(f"invalid \\{kind} escape", text, start, text[p + 2:p + 2 + width])
        if opener == "<":
            return _error(f"invalid escape \\{kind} in IRI reference", text, p + 1, f"\\{kind}")
        return _error(f"invalid string escape \\{kind}", text, p, f"\\{kind}")
    if opener != "<":
        return _error("newline inside single-line string literal", text, p, "\\n")
    return _error(f"invalid character {ch!r} in IRI reference", text, p, ch)


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m[3]] if m[3] is not None else chr(int(m[1] or m[2], 16))


def _unquote(text: str, start: int, end: int) -> str:
    body = text[start + 1:end - 1]
    if "\\" not in body:
        return body
    if not _BODY[text[start]].fullmatch(body):
        raise _malformed(text, start)
    return _ESCAPE.sub(_unescape, body)


class Lexer(Record):
    """A scanner for one grammar: the shared token classes plus its own table."""

    __match_args__ = ("punctuation", "keywords", "unsupported", "directives", "variables", "errors")
    __slots__ = (*__match_args__, "_match")

    def __init__(self,
                 punctuation: dict[str, str],  # token text -> kind
                 keywords: dict[str, str] | None = None,  # upper-cased word -> kind
                 unsupported: dict[str, str] | None = None,  # mark or upper-cased word -> construct
                 directives: dict[str, str] | None = None,  # word after '@' -> kind
                 variables: bool = False,
                 errors: dict[str, str] | None = None):  # lone character -> message
        super().__init__(punctuation, keywords or {}, unsupported or {}, directives or {}, variables, errors or {})
        self._match: Callable[[str, int], re.Match] | None = None

    def _compile(self) -> Callable[[str, int], re.Match]:
        """The master regex's ``match``, compiled at the first scan; a race only builds it twice."""
        marks = [*self.punctuation, *(k for k in self.unsupported if not k.isalpha())]
        classes = [*_HEAD, *([_VARIABLE] if self.variables else []),
                   ("punct", "|".join(re.escape(m) for m in sorted(marks, key=len, reverse=True))),
                   *_TAIL]
        self._match = re.compile(_SKIP + "(?:" + "|".join(f"(?P<{n}>{rx})" for n, rx in classes) + ")").match
        return self._match

    def scan(self, text: str) -> Iterator[Token]:
        """The tokens of ``text``, one per match, scanned as the parser asks
        for them and ending with an ``eof`` token; raises ParseError at the
        first malformed token."""
        match, punctuation = self._match or self._compile(), self.punctuation
        pos = 0
        while True:
            m = match(text, pos)
            group = m.lastgroup
            start, pos = m.span(group)  # the token ends the match
            source = m[group]
            if group == "pname":
                yield "pname", source, start
            elif group == "punct":
                kind = punctuation.get(source)
                if kind is None:
                    raise UnsupportedConstructError(self.unsupported[source], *position(text, start), source)
                yield kind, source, start
            elif group == "iriref" or group == "string":
                yield group, _unquote(text, start, pos), start
            elif group == "langtag":
                word = source[1:]
                if word in self.directives:
                    yield self.directives[word], source, start
                elif _LANGTAG.fullmatch(word):
                    yield "langtag", word, start
                else:
                    what = "language tag or directive" if self.directives else "language tag"
                    raise _error(f"malformed {what} {source}", text, start, source)
            elif group == "number":
                if text.startswith(("e", "E"), pos):
                    raise UnsupportedConstructError("numeric literal with exponent",
                                                    *position(text, start), text[start:pos + 2])
                if source in ("+", "-"):
                    raise _error("digits expected in numeric literal", text, start, source)
                yield "decimal" if m["fraction"] else "integer", source, start
            elif group == "blank":
                if m["label"] is None:
                    raise _error("blank node label expected after '_:'", text, start, "_:")
                yield "blank", m["label"], start
            elif group == "var":
                if m["name"] is None:
                    raise _error("variable name expected after '?'", text, start, source)
                yield "var", m["name"], start
            elif group == "word":
                yield self._word(text, start, source)
            elif group == "dt":
                yield "dt", source, start
            elif group == "bad_prefix":
                raise _error(f"malformed prefix label {source!r}", text, start, source)
            elif group == "eof":
                yield "eof", None, start
                return
            elif group == "long_string":
                raise UnsupportedConstructError("triple-quoted string literal", *position(text, start), source)
            elif group == "malformed" or group == "bad_iriref":
                raise _malformed(text, start)
            else:
                message = self.errors.get(source, f"unexpected character {source!r}")
                raise _error(message, text, start, source)

    def _word(self, text: str, start: int, word: str) -> Token:
        if word == "a":
            return "a", word, start
        if word in ("true", "false"):
            return "boolean", word, start
        upper = word.upper()
        if upper in self.unsupported:
            raise UnsupportedConstructError(self.unsupported[upper], *position(text, start), word)
        if upper in self.keywords:
            return self.keywords[upper], upper, start
        raise _error(f"unexpected token {word!r}", text, start, word)

    def source(self, text: str, tok: Token) -> str:
        """The text of a token of ``text``, scanned again from its start."""
        kind, value, start = tok
        if kind == "var":
            return f"?{value}"  # written with '?' even when spelled '$name'
        return text[start:(self._match or self._compile())(text, start).end()]


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4, read through an index so a long path stays linear."""
    out: list[str] = []
    i, n = 0, len(path)
    while i < n:
        if path.startswith(("../", "./"), i):  # A
            i = path.index("/", i) + 1
        elif path.startswith("/./", i):  # B: "/./" becomes "/"
            i += 2
        elif path.startswith("/../", i):  # C: "/../" becomes "/", dropping a segment
            i += 3
            if out:
                out.pop()
        elif n - i <= 3 and path[i:] in ("/.", "/.."):  # B and C at the end
            if path[i:] == "/.." and out:
                out.pop()
            out.append("/")
            break
        elif n - i <= 2 and path[i:] in (".", ".."):  # D
            break
        else:  # E: move the first segment, with its leading "/", to the output
            j = path.find("/", i + 1)
            j = n if j < 0 else j
            out.append(path[i:j])
            i = j
    return "".join(out)


def _resolve_reference(base: str, ref: str) -> str:
    """The target of the reference ``ref``, which has no scheme, against
    ``base`` (RFC 3986 §5.2.2-5.2.3, then §5.3), for a base of any scheme."""
    parts = _REFERENCE.fullmatch  # every string matches
    scheme, b_authority, b_path, b_query = parts(base).group(2, 4, 5, 7)  # type: ignore[union-attr]
    authority, path, query, fragment = parts(ref).group(4, 5, 7, 9)  # type: ignore[union-attr]
    if authority is not None or path.startswith("/"):
        path = _remove_dot_segments(path)
    elif path:  # merge with the base path (§5.2.3)
        merged = "/" if b_authority is not None and not b_path else b_path[:b_path.rfind("/") + 1]
        path = _remove_dot_segments(merged + path)
    else:
        path = b_path
        query = b_query if query is None else query
    authority = b_authority if authority is None else authority
    return "".join((
        "" if scheme is None else scheme + ":",
        "" if authority is None else "//" + authority,
        path,
        "" if query is None else "?" + query,
        "" if fragment is None else "#" + fragment,
    ))


T = TypeVar("T")
_DATATYPES = {"integer": XSD_INTEGER, "decimal": XSD_DECIMAL, "boolean": XSD_BOOLEAN}


class TokenParser:
    """Token cursor and term constructors shared by the Turtle and SPARQL parsers.

    The cursor is one token of lookahead, ``tok``, over the lexer's stream;
    ``_next`` pulls the token after it.
    """

    def __init__(self, lexer: Lexer, text: str, prefixes: PrefixMap, base: Iri | None = None):
        self.lexer = lexer
        self.text = text
        self._stream = lexer.scan(text)
        self._next: Callable[[], Token] = self._stream.__next__
        self.tok = self._next()
        self.prefixes = prefixes
        self.base = base

    def _whole_text(self, parse: Callable[[], T]) -> T:
        """``parse()``, with the rest of the text scanned before its error is
        raised: a lexical error anywhere wins over an earlier grammar or term
        error, as it would if the whole text were scanned first."""
        try:
            return parse()
        except PlantKbError as exc:
            error = exc
        deque(self._stream, maxlen=0)
        raise error

    def _at(self, kind: str, value: object = None) -> bool:
        """Whether the lookahead is a ``kind`` token (with ``value``, if given)."""
        tok_kind, tok_value, _ = self.tok
        return tok_kind == kind and (value is None or tok_value == value)

    def _accept(self, kind: str, value: object = None) -> bool:
        """Take the lookahead if it is a ``kind`` token (with ``value``, if given)."""
        if self._at(kind, value):
            self._take()
            return True
        return False

    def _take(self) -> Token:
        tok = self.tok
        if tok[0] != "eof":
            self.tok = self._next()
        return tok

    def _expect(self, kind: str, what: str, value: object = None) -> Token:
        if not self._at(kind, value):
            raise self._error(f"expected {what}", self.tok)
        return self._take()

    def _position(self, tok: Token) -> tuple[int, int]:
        return position(self.text, tok[2])

    def _source(self, tok: Token) -> str:
        return self.lexer.source(self.text, tok)

    def _error(self, message: str, tok: Token, snippet: str | None = None) -> ParseError:
        return ParseError(message, *self._position(tok), self._source(tok) if snippet is None else snippet)

    def _resolve(self, tok: Token) -> Iri:
        """The IRI of an IRIREF token, resolved against the base when relative
        (RFC 3986 §5.2, for a base of any scheme)."""
        raw: str = tok[1]  # type: ignore[assignment]
        if not _ABSOLUTE_IRI.match(raw):
            if self.base is None:
                raise RelativeIriError(raw, *self._position(tok))
            raw = _resolve_reference(self.base.value, raw)
        try:
            return Iri(raw)
        except ValueError as exc:
            raise self._error(str(exc), tok) from exc

    def _iri(self, tok: Token) -> Iri:
        """The IRI an IRIREF or prefixed-name token spells."""
        kind, value, _ = tok
        if kind == "iriref":
            return self._resolve(tok)
        if kind == "pname":
            prefix, _, local = value.partition(":")  # type: ignore[union-attr]
            ns = self.prefixes.namespace(prefix)
            if ns is None:
                raise UnknownPrefixError(prefix, *self._position(tok))
            return Iri(ns.value + local)
        raise self._error("IRI expected", tok)

    def _prefix_declaration(self) -> None:
        self._take()
        tok = self._expect("pname", "prefix label ending in ':'")
        prefix, _, local = tok[1].partition(":")  # type: ignore[union-attr]
        if local:
            raise self._error("prefix declaration label must end with ':'", tok)
        self.prefixes.bind(prefix, self._resolve(self._expect("iriref", "namespace IRI")))

    def _make_literal(self, tok: Token, after: Token | None = None, datatype: Iri | None = None) -> Literal:
        """The literal of a number, boolean or string token.  ``after`` is a
        string's language tag or ``^^`` token, and ``datatype`` the IRI that
        followed the ``^^``."""
        kind, value, _ = tok
        fixed = _DATATYPES.get(kind)
        if fixed is not None:
            return Literal(value, fixed)  # type: ignore[arg-type]
        if after is None:
            return Literal(value, XSD_STRING)  # type: ignore[arg-type]
        if after[0] == "langtag":
            try:
                return Literal(value, RDF_LANG_STRING, after[1])  # type: ignore[arg-type]
            except ValueError as exc:
                raise self._error(str(exc), after) from exc
        try:
            return Literal(value, datatype)  # type: ignore[arg-type]
        except ValueError as exc:
            raise self._error(str(exc), tok) from exc
