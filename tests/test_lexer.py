"""The shared Turtle/SPARQL lexer: golden error table and a no-crash property.

TURTLE and SPARQL map malformed inputs to the exception class and exact
``str(exc)`` the two earlier hand-written tokenizers produced for them
(``(None, None)``: the input parsed).  The shared lexer reproduces every row
except those in CHANGED, each of which settles a point where the two old
tokenizers disagreed or leaked an exception that is not a PlantKbError.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantkb.errors import PlantKbError
from plantkb.lexer import Lexer
from plantkb.sparql import parse_query
from plantkb.turtle import parse_turtle

TURTLE = [
    ('<http://e/s', ('ParseError', "line 1, column 1: unterminated IRI reference (near '<http://e/s')")),
    ('<http://e/s <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 12: invalid character ' ' in IRI reference (near ' ')")),
    ('<http://e/"s> <http://e/p> <http://e/o> .', ('ParseError', 'line 1, column 11: invalid character \'"\' in IRI reference (near \'"\')')),
    ('<http://e/<s> <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 11: invalid character '<' in IRI reference (near '<')")),
    ('<http://e/\ts> <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 11: invalid character '\\t' in IRI reference (near '\\t')")),
    ('<http://e/\ns> <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 11: invalid character '\\n' in IRI reference (near '\\n')")),
    ('<http://e/\\x41> <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 12: invalid escape \\x in IRI reference (near '\\\\x')")),
    ('<http://e/\\u00G1> <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 1: invalid \\u escape (near '00G1')")),
    ('<http://e/\\U0001F60> <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 1: invalid \\U escape (near '0001F60>')")),
    ('<http://e/\\u00', ('ParseError', "line 1, column 1: invalid \\u escape (near '00')")),
    ('<http://e/\\u0020> <http://e/p> <http://e/o> .', ('ValueError', "IRI contains whitespace, quote, or angle bracket: 'http://e/ '")),
    ('<http://e/\\UFFFFFFFF> <http://e/p> <http://e/o> .', ('OverflowError', 'Python int too large to convert to C int')),
    ('<http://e/s> <http://e/p> "abc', ('ParseError', 'line 1, column 27: unterminated string literal (near \'"abc\')')),
    ("<http://e/s> <http://e/p> 'abc .", ('ParseError', 'line 1, column 27: unterminated string literal (near "\'abc .")')),
    ('<http://e/s> <http://e/p> "ab\ncd" .', ('ParseError', "line 1, column 30: newline inside single-line string literal (near '\\\\n')")),
    ('<http://e/s> <http://e/p> "a\\qb" .', ('ParseError', "line 1, column 29: invalid string escape \\q (near '\\\\q')")),
    ('<http://e/s> <http://e/p> "a\\u12" .', ('ParseError', 'line 1, column 27: invalid \\u escape (near \'12" \')')),
    ('<http://e/s> <http://e/p> "a\\U0001F60" .', ('ParseError', 'line 1, column 27: invalid \\U escape (near \'0001F60"\')')),
    ('<http://e/s> <http://e/p> """long""" .', ('UnsupportedConstructError', 'line 1, column 27: unsupported construct: triple-quoted string literal (near \'"""\')')),
    ("<http://e/s> <http://e/p> '''long''' .", ('UnsupportedConstructError', 'line 1, column 27: unsupported construct: triple-quoted string literal (near "\'\'\'")')),
    ('@prefix ex <http://e/> .', ('ParseError', "line 1, column 9: unexpected token 'ex' (near 'ex')")),
    ('@1x ex: <http://e/> .', ('ParseError', "line 1, column 1: malformed language tag or directive @1x (near '@1x')")),
    ('@ <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 1: malformed language tag or directive @ (near '@')")),
    ('<http://e/s> <http://e/p> "x"@en- .', ('ParseError', "line 1, column 30: malformed language tag or directive @en- (near '@en-')")),
    ('<http://e/s> <http://e/p> "x"@ .', ('ParseError', "line 1, column 30: malformed language tag or directive @ (near '@')")),
    ('_: <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 1: blank node label expected after '_:' (near '_:')")),
    ('_:-x <http://e/p> <http://e/o> .', ('ValueError', "invalid blank node label: '-x'")),
    ('_:.x <http://e/p> <http://e/o> .', ('ValueError', "invalid blank node label: '.x'")),
    ('<http://e/s> <http://e/p> +. .', ('ParseError', "line 1, column 27: digits expected in numeric literal (near '+')")),
    ('<http://e/s> <http://e/p> 1e5 .', ('UnsupportedConstructError', "line 1, column 27: unsupported construct: numeric literal with exponent (near '1e5')")),
    ('<http://e/s> <http://e/p> 1.5E3 .', ('UnsupportedConstructError', "line 1, column 27: unsupported construct: numeric literal with exponent (near '1.5E3')")),
    ('<http://e/s> <http://e/p> (1 2) .', ('UnsupportedConstructError', "line 1, column 27: unsupported construct: RDF collection (near '(')")),
    ('<http://e/s> <http://e/p> ) .', ('UnsupportedConstructError', "line 1, column 27: unsupported construct: RDF collection (near ')')")),
    ('_x:a <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 1: malformed prefix label '_x' (near '_x')")),
    ('-x:a <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 1: malformed prefix label '-x' (near '-x')")),
    ('<http://e/s> <http://e/p> { .', ('ParseError', "line 1, column 27: unexpected character '{' (near '{')")),
    ('<http://e/s> <http://e/p> ?x .', ('ParseError', "line 1, column 27: unexpected character '?' (near '?')")),
    ('<http://e/s> <http://e/p> ^x .', ('ParseError', "line 1, column 27: unexpected character '^' (near '^')")),
    ('<http://e/s> <http://e/p> foo .', ('ParseError', "line 1, column 27: unexpected token 'foo' (near 'foo')")),
    ('zz:s <http://e/p> <http://e/o> .', ('UnknownPrefixError', "unknown prefix 'zz' at line 1, column 1")),
    ('<rel> <http://e/p> <http://e/o> .', ('RelativeIriError', "line 1, column 1: relative IRI 'rel' without a base (near 'rel')")),
    ('<http://e/s> <http://e/p> "x"^^"y" .', ('ParseError', 'line 1, column 32: IRI expected (near \'"y"\')')),
    ('@prefix ex: <http://e/>\nex:s ex:p ex:o .', ('ParseError', "line 2, column 1: expected '.' after @prefix directive (near 'ex:s')")),
    ('PREFIX ex:a <http://e/>', ('ParseError', "line 1, column 8: prefix declaration label must end with ':' (near 'ex:a')")),
    ('<http://e/s> <http://e/p> .', ('ParseError', "line 1, column 27: object expected (near '.')")),
    ('[ <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 1: ']' expected to close blank node property list (near '.')")),
    ('<http://e/s> <http://e/p> "x"^^<http://www.w3.org/2001/XMLSchema#integer> .', ('ParseError', 'line 1, column 27: not a valid xsd:integer lexical form: \'x\' (near \'"x"\')')),
    ('a <http://e/p> <http://e/o> .', ('ParseError', "line 1, column 1: subject expected (IRI or blank node) (near 'a')")),
    ('# lead\n\n   <http://e/s> <http://e/p>\n  "x\n" .', ('ParseError', "line 4, column 5: newline inside single-line string literal (near '\\\\n')")),
    ('<http://e/s> <http://e/p> <http://e/o>', ('ParseError', "line 1, column 39: expected '.' at end of statement")),
    ('<http://e/a{b> <http://e/p> <http://e/o> .', (None, None)),
    ('<http://e/s> <http://e/p> <http://e/a}b> .', (None, None)),
    ('<http://e/s> <http://e/a|b> <http://e/o> .', (None, None)),
    ('<http://e/a^b> <http://e/p> <http://e/o> .', (None, None)),
    ('<http://e/s> <http://e/p> <http://e/a`b> .', (None, None)),
    ('<http://e/s> <http://e/p> <http://e/a\x01b> .', (None, None)),
    ('@prefix ex: <http://e/{x}/> .', (None, None)),
    ('<http://e/s> "p" <http://e/o> .', ('ParseError', 'line 1, column 14: predicate expected (IRI or \'a\') (near \'"p"\')')),
    ('<http://e/s> [ <http://e/p> <http://e/o> ] .', ('ParseError', "line 1, column 14: predicate expected (IRI or 'a') (near '[')")),
    ('<http://e/s> .', ('ParseError', "line 1, column 14: predicate expected (IRI or 'a') (near '.')")),
    ('<http://e/s> <http://e/p> [ <http://e/q> <http://e/o> .', ('ParseError', "line 1, column 27: ']' expected to close blank node property list (near '.')")),
    ('<http://e/s> <http://e/p> <http://e/o> ] .', ('ParseError', "line 1, column 40: expected '.' at end of statement (near ']')")),
    ('[ <http://e/p> <http://e/o> ]', ('ParseError', "line 1, column 30: predicate expected (IRI or 'a')")),
    ('[ <http://e/p> <http://e/o> ] <http://e/q> .', ('ParseError', "line 1, column 44: object expected (near '.')")),
    ('"x" <http://e/p> <http://e/o> .', ('ParseError', 'line 1, column 1: subject expected (IRI or blank node) (near \'"x"\')')),
    ('[] .', (None, None)),
    ('[] <http://e/p> <http://e/o> .', (None, None)),
    ('<http://e/s> <http://e/p> [] .', (None, None)),
]

SPARQL = [
    ('SELECT ?x WHERE { ?x <http://e/p ?o }', ('ParseError', "line 1, column 28: unexpected character '/' (near '/')")),
    ('SELECT ?x WHERE { ?x ?p "abc }', ('ParseError', 'line 1, column 25: unterminated string literal (near \'"abc }\')')),
    ('SELECT ?x WHERE { ?x ?p "a\nb" }', ('ParseError', "line 1, column 27: newline inside string literal (near '\\\\n')")),
    ('SELECT ?x WHERE { ?x ?p "a\\qb" }', ('ParseError', "line 1, column 27: invalid string escape \\q (near '\\\\q')")),
    ('SELECT ?x WHERE { ?x ?p "a\\u12" }', ('ParseError', 'line 1, column 27: invalid \\u escape (near \'12" \')')),
    ('SELECT ?x WHERE { ?x ?p "a\\U0001F60" }', ('ParseError', 'line 1, column 27: invalid \\U escape (near \'0001F60"\')')),
    ('SELECT ?x WHERE { ?x ?p """x""" }', ('UnsupportedConstructError', 'line 1, column 25: unsupported construct: triple-quoted string literal (near \'"""\')')),
    ('SELECT ?x WHERE { ?x ?p "x"@1 }', ('ParseError', "line 1, column 28: malformed language tag @1 (near '@1')")),
    ('SELECT ?x WHERE { ?x ?p "x"@ }', ('ParseError', "line 1, column 28: malformed language tag @ (near '@')")),
    ('SELECT ?x WHERE { ?x ?p "x"@en_US }', ('ParseError', "line 1, column 31: unexpected token '_US' (near '_US')")),
    ('SELECT ?x WHERE { _: ?p ?x }', ('ParseError', "line 1, column 19: blank node label expected after '_:' (near '_:')")),
    ('SELECT ?x WHERE { _:b. ?p ?x }', ('ValueError', "invalid blank node label: 'b.'")),
    ('SELECT ?x WHERE { ?x ?p +. }', ('ValueError', "not a valid xsd:integer lexical form: '+'")),
    ('SELECT ?x WHERE { ?x ?p ?o } LIMIT +.', ('ValueError', "invalid literal for int() with base 10: '+'")),
    ('SELECT ?x WHERE { _:-x ?p ?x }', ('ValueError', "invalid blank node label: '-x'")),
    ('SELECT ?1 WHERE { ?1 ?p ?o }', ('ValueError', "invalid variable name: '1'")),
    ('SELECT ?é WHERE { ?é ?p ?o }', ('ValueError', "invalid variable name: 'é'")),
    ('SELECT ?x WHERE { ?x ?p 1e5 }', ('UnsupportedConstructError', "line 1, column 25: unsupported construct: numeric literal with exponent (near '1e5')")),
    ('SELECT ?x WHERE { ? ?p ?o }', ('ParseError', "line 1, column 19: variable name expected after '?' (near '?')")),
    ('SELECT $ WHERE { ?x ?p ?o }', ('ParseError', "line 1, column 8: variable name expected after '?' (near '$')")),
    ('SELECT ?x WHERE { ?x ?p ?o . FILTER(?o ! 3) }', ('ParseError', "line 1, column 40: '!' must be part of '!=' (near '!')")),
    ('PREFIX _x: <http://e/> SELECT ?x WHERE { ?x _x:p ?o }', (None, None)),
    ('PREFIX -x: <http://e/> SELECT ?x WHERE { ?x -x:p ?o }', (None, None)),
    ('SELECT ?x WHERE { ?x ?p <http://e/\\u00zz> }', (None, None)),
    ('SELECT ?x WHERE { ?x ?p <http://e/\\x41> }', (None, None)),
    ('SELECT ?x WHERE { ?x ?p <http://e/\\u0020> }', (None, None)),
    ('SELECT ?x WHERE { ?x FOO ?o }', ('ParseError', "line 1, column 22: unexpected token 'FOO' (near 'FOO')")),
    ('SELECT ?x WHERE { ?x ?p ?o . OPTIONAL { ?x ?q ?r } }', ('UnsupportedConstructError', "line 1, column 30: unsupported construct: OPTIONAL (near 'OPTIONAL')")),
    ('ASK { ?x ?p ?o }', ('UnsupportedConstructError', "line 1, column 1: unsupported construct: ASK (near 'ASK')")),
    ('SELECT ?x WHERE { ?x ?p ?o } ORDER BY ?x ORDER BY ?x', ('ParseError', "line 1, column 42: ORDER BY given twice (near 'ORDER')")),
    ('SELECT ?x WHERE { ?x zz:p ?o }', ('UnknownPrefixError', "unknown prefix 'zz' at line 1, column 22")),
    ('PREFIX ex: <rel> SELECT ?x WHERE { ?x ex:p ?o }', ('RelativeIriError', "line 1, column 12: relative IRI 'rel' without a base (near 'rel')")),
    ('SELECT ?x WHERE { ?x ?p "x"^^?t }', ('ParseError', "line 1, column 28: datatype must be an IRI (near '^^')")),
    ('SELECT ?x WHERE { ?x ?p "x"^^"y" }', ('ParseError', 'line 1, column 30: triple pattern term expected (near \'"y"\')')),
    ('SELECT ?x WHERE { ?x ?p ?o . FILTER(?o ~ 3) }', ('ParseError', "line 1, column 40: unexpected character '~' (near '~')")),
    ('SELECT ?x WHERE { ?x ?p ?o . FILTER(?o > ?y) }', ('ParseError', "line 1, column 42: FILTER right-hand side must be a constant (near '?y')")),
    ('SELECT ?x WHERE { ?x ?p ?o . FILTER regex(?o, "[") }', ('ParseError', 'line 1, column 47: invalid regex: unterminated character set at position 0 (near \'"["\')')),
    ('SELECT ?x WHERE { ?x ?p ?o } LIMIT -1', ('ParseError', "line 1, column 36: LIMIT must be non-negative (near '-1')")),
    ('SELECT ?x WHERE { ?x ?p ?o } LIMIT 1.5', ('ParseError', "line 1, column 36: expected LIMIT count (near '1.5')")),
    ('SELECT ?x WHERE { ?x ?p ?o } LIMIT $x', ('ParseError', "line 1, column 36: expected LIMIT count (near '?x')")),
    ('SELECT WHERE { ?x ?p ?o }', ('ParseError', "line 1, column 8: expected projection variables or '*' (near 'WHERE')")),
    ('SELECT ?x WHERE { ?x ?p ?o ', ('ParseError', "line 1, column 28: unclosed WHERE block: expected '}'")),
    ('SELECT ?x WHERE { ?x ?p ?o } extra', ('ParseError', "line 1, column 30: unexpected token 'extra' (near 'extra')")),
    ('SELECT ?ghost WHERE { ?s ?p ?o }', ('ParseError', "line 1, column 1: selected variable ?ghost does not appear in any pattern (near '?ghost')")),
    ('SELECT ?x\nWHERE {\n  ?x ?p "a\n" }', ('ParseError', "line 3, column 11: newline inside string literal (near '\\\\n')")),
    ('SELECT ?x WHERE { ?x ?p "x"^^<http://www.w3.org/2001/XMLSchema#integer> }', ('ParseError', 'line 1, column 25: not a valid xsd:integer lexical form: \'x\' (near \'"x"\')')),
    ('PREFIX ex <http://e/> SELECT ?x WHERE { ?x ex:p ?o }', ('ParseError', "line 1, column 8: unexpected token 'ex' (near 'ex')")),
    ('SELECT ?x WHERE { ?x ?p @en }', ('ParseError', "line 1, column 25: triple pattern term expected (near '@en')")),
    ('SELECT ?x WHERE { ?x ?p ?o . FILTER(?o = 1.0e3) }', ('UnsupportedConstructError', "line 1, column 42: unsupported construct: numeric literal with exponent (near '1.0e3')")),
    ('SELECT $x WHERE { $x ?p }', ('ParseError', "line 1, column 25: triple pattern term expected (near '}')")),
    ('SELECT ?x WHERE { ?x ?p ?o } # note\n LIMIT', ('ParseError', 'line 2, column 7: expected LIMIT count')),
    ('SELECT ?x WHERE { ?x ?p ?o } LIMIT 5 OFFSET', ('ParseError', 'line 1, column 44: expected OFFSET count')),
    ('SELECT ?x WHERE { ?x ?p <http://e/a{b> }', (None, None)),
    ('SELECT ?x\nWHERE { ?x ?p ?o }\nORDER BY DESC(?y)', ('ParseError', "line 1, column 1: ORDER BY variable ?y does not appear in any pattern (near '?y')")),
    ('SELECT ?x WHERE { ?x ?p ?o } LIMIT 5 LIMIT 3', (None, None)),
    ('SELECT ?x WHERE { ?x ?p ?o } OFFSET 1 OFFSET 2', (None, None)),
    ('SELECT ?s WHERE { ?s ?p ?o FILTER(?o<5) }', (None, None)),
    ('PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ?p ?o FILTER(?o<ex:b) }', (None, None)),
    ('SELECT ?s WHERE { ?s ?p ?o } WHERE', ('ParseError', "line 1, column 30: unexpected keyword WHERE (near 'WHERE')")),
    ('SELECT ?s WHERE { ?s ?p ?o FILTER ?s }', ('ParseError', "line 1, column 35: expected '(' after FILTER (near '?s')")),
]

CHANGED = {
    # A decoded IRI that Iri rejects, and a \U escape past U+10FFFF, were a raw
    # ValueError / OverflowError.
    '<http://e/\\u0020> <http://e/p> <http://e/o> .': ('ParseError', "line 1, column 1: IRI contains whitespace, quote, or angle bracket: 'http://e/ ' (near '<http://e/\\\\u0020>')"),
    '<http://e/\\UFFFFFFFF> <http://e/p> <http://e/o> .': ('ParseError', "line 1, column 1: invalid \\U escape (near 'FFFFFFFF')"),
    # Blank node labels, numbers and variables take the shapes terms.py
    # accepts; each of these was a raw ValueError.
    '_:-x <http://e/p> <http://e/o> .': ('ParseError', "line 1, column 1: blank node label expected after '_:' (near '_:')"),
    '_:.x <http://e/p> <http://e/o> .': ('ParseError', "line 1, column 1: blank node label expected after '_:' (near '_:')"),
    'SELECT ?x WHERE { _:b. ?p ?x }': ('ParseError', "line 1, column 22: triple pattern term expected (near '.')"),
    'SELECT ?x WHERE { ?x ?p +. }': ('ParseError', "line 1, column 25: digits expected in numeric literal (near '+')"),
    'SELECT ?x WHERE { ?x ?p ?o } LIMIT +.': ('ParseError', "line 1, column 36: digits expected in numeric literal (near '+')"),
    'SELECT ?x WHERE { _:-x ?p ?x }': ('ParseError', "line 1, column 19: blank node label expected after '_:' (near '_:')"),
    'SELECT ?1 WHERE { ?1 ?p ?o }': ('ParseError', "line 1, column 8: variable name expected after '?' (near '?')"),
    'SELECT ?é WHERE { ?é ?p ?o }': ('ParseError', "line 1, column 8: variable name expected after '?' (near '?')"),
    # One wording for a newline inside a string (SPARQL used to omit "single-line").
    'SELECT ?x WHERE { ?x ?p "a\nb" }': ('ParseError', "line 1, column 27: newline inside single-line string literal (near '\\\\n')"),
    'SELECT ?x\nWHERE {\n  ?x ?p "a\n" }': ('ParseError', "line 3, column 11: newline inside single-line string literal (near '\\\\n')"),
    # A bad \u escape in a string is reported at the token start, as Turtle
    # did and as both grammars do for IRIs (SPARQL used to point at the backslash).
    'SELECT ?x WHERE { ?x ?p "a\\u12" }': ('ParseError', 'line 1, column 25: invalid \\u escape (near \'12" \')'),
    'SELECT ?x WHERE { ?x ?p "a\\U0001F60" }': ('ParseError', 'line 1, column 25: invalid \\U escape (near \'0001F60"\')'),
    # SPARQL decodes \u inside <...> as Turtle does (SPARQL 1.1 Query 19.2),
    # so bad escapes there are errors instead of raw IRI text.
    'SELECT ?x WHERE { ?x ?p <http://e/\\u00zz> }': ('ParseError', "line 1, column 25: invalid \\u escape (near '00zz')"),
    'SELECT ?x WHERE { ?x ?p <http://e/\\x41> }': ('ParseError', "line 1, column 36: invalid escape \\x in IRI reference (near '\\\\x')"),
    'SELECT ?x WHERE { ?x ?p <http://e/\\u0020> }': ('ParseError', "line 1, column 25: IRI contains whitespace, quote, or angle bracket: 'http://e/ ' (near '<http://e/\\\\u0020>')"),
    # Prefix labels must start with a letter in SPARQL too, as Turtle required.
    'PREFIX _x: <http://e/> SELECT ?x WHERE { ?x _x:p ?o }': ('ParseError', "line 1, column 8: malformed prefix label '_x' (near '_x')"),
    'PREFIX -x: <http://e/> SELECT ?x WHERE { ?x -x:p ?o }': ('ParseError', "line 1, column 8: malformed prefix label '-x' (near '-x')"),
    # IRIREF excludes #x00-#x20, '{', '}', '|', '^' and the backtick (W3C RDF 1.1
    # Turtle, production [18] IRIREF; SPARQL 1.1 Query, production [139] IRIREF).
    '<http://e/a{b> <http://e/p> <http://e/o> .': ('ParseError', "line 1, column 12: invalid character '{' in IRI reference (near '{')"),
    '<http://e/s> <http://e/p> <http://e/a}b> .': ('ParseError', "line 1, column 38: invalid character '}' in IRI reference (near '}')"),
    '<http://e/s> <http://e/a|b> <http://e/o> .': ('ParseError', "line 1, column 25: invalid character '|' in IRI reference (near '|')"),
    '<http://e/a^b> <http://e/p> <http://e/o> .': ('ParseError', "line 1, column 12: invalid character '^' in IRI reference (near '^')"),
    '<http://e/s> <http://e/p> <http://e/a`b> .': ('ParseError', "line 1, column 38: invalid character '`' in IRI reference (near '`')"),
    '<http://e/s> <http://e/p> <http://e/a\x01b> .': ('ParseError', "line 1, column 38: invalid character '\\x01' in IRI reference (near '\\x01')"),
    '@prefix ex: <http://e/{x}/> .': ('ParseError', "line 1, column 23: invalid character '{' in IRI reference (near '{')"),
    # SPARQL names the excluded character too: a '<' that '<...>' without
    # spaces follows opens an IRI reference, not the less-than operator (it
    # was reported as a stray '/').  A '<' with no such '>' after it is still
    # the operator, so '?o<5' parses and an unterminated IRI keeps its message.
    'SELECT ?x WHERE { ?x ?p <http://e/a{b> }': ('ParseError', "line 1, column 36: invalid character '{' in IRI reference (near '{')"),
    # A selected or ORDER BY variable that no pattern binds is reported at its
    # own token; it used to be reported at line 1, column 1.
    'SELECT ?ghost WHERE { ?s ?p ?o }': ('ParseError', "line 1, column 8: selected variable ?ghost does not appear in any pattern (near '?ghost')"),
    'SELECT ?x\nWHERE { ?x ?p ?o }\nORDER BY DESC(?y)': ('ParseError', "line 3, column 15: ORDER BY variable ?y does not appear in any pattern (near '?y')"),
    # A second LIMIT or OFFSET is an error, as a second ORDER BY is; the last
    # value used to win silently.
    'SELECT ?x WHERE { ?x ?p ?o } LIMIT 5 LIMIT 3': ('ParseError', "line 1, column 38: LIMIT given twice (near 'LIMIT')"),
    'SELECT ?x WHERE { ?x ?p ?o } OFFSET 1 OFFSET 2': ('ParseError', "line 1, column 39: OFFSET given twice (near 'OFFSET')"),
    # '[]' is ANON, a subject, so a predicate-object list must follow it; only
    # a '[ ... ]' list may stand alone (W3C RDF 1.1 Turtle, productions [6],
    # [14] and [162s]).  '[] .' used to parse to an empty graph.
    '[] .': ('ParseError', "line 1, column 4: predicate expected (IRI or 'a') (near '.')"),
    # A '[ ... ]' subject followed by no predicate-object list ends its
    # statement, so the missing '.' is reported as it is after '<s> <p> <o>';
    # the closer used to read any token but '.' as the start of a verb.
    '[ <http://e/p> <http://e/o> ]': ('ParseError', "line 1, column 30: expected '.' at end of statement"),
}


def _outcome(parse, text):
    try:
        parse(text)
    except Exception as exc:  # noqa: BLE001 - the table records any exception
        return type(exc).__name__, str(exc)
    return None, None


@pytest.mark.parametrize("text, before", TURTLE, ids=[f"turtle-{i}" for i in range(len(TURTLE))])
def test_turtle_golden_errors(text, before):
    assert _outcome(parse_turtle, text) == CHANGED.get(text, before)


@pytest.mark.parametrize("text, before", SPARQL, ids=[f"sparql-{i}" for i in range(len(SPARQL))])
def test_sparql_golden_errors(text, before):
    assert _outcome(parse_query, text) == CHANGED.get(text, before)


def test_a_lexer_compiles_its_regex_at_the_first_scan():
    lexer = Lexer({".": "dot"})
    assert lexer._match is None
    assert [kind for kind, _, _ in lexer.scan(". .")] == ["dot", "dot", "eof"]
    assert lexer._match is not None


def test_every_changed_row_is_in_a_table():
    inputs = {text for text, _ in TURTLE + SPARQL}
    assert set(CHANGED) <= inputs


# -- property: any input parses or raises a PlantKbError ------------------------

# Fragments weighted toward each grammar's punctuation and token starts; a
# drawn body is placed where the parser reads a term, so that malformed
# tokens reach the term constructors instead of stopping at the first error.
_SHARED_PIECES = [
    " ", "\n", "#", ".", ":", ";", ",", "<", ">", '"', "'", "\\", "@", "^^", "_:", "-", "+", "?",
    "0", "7", "e", "x", "ex:", "<http://e/", "\\u00", "\\U", "20", "FF", "é", "true",
]
_TURTLE_PIECES = _SHARED_PIECES + ["[", "]", "[]", ";;", "(", "a", "@prefix", "@base", "PREFIX", "BASE", "<http://e/o>"]
_SPARQL_PIECES = _SHARED_PIECES + ["$", "{", "}", "(", ")", "*", "!", "=", "FILTER", "LIMIT", "regex"]


def _documents(pieces, heads, tails):
    fragment = st.sampled_from(pieces)
    piece = st.one_of(fragment, fragment, fragment, st.characters())  # 3:1 fragments to any character
    body = st.lists(piece, max_size=6).map("".join)
    return st.tuples(st.sampled_from(heads), body, st.sampled_from(tails)).map("".join)


_TURTLE_DOCUMENTS = _documents(
    _TURTLE_PIECES,
    ["", "@prefix ex: <http://e/> .\n", "@prefix ex: <http://e/> .\nex:s ex:p ", "<http://e/s> <http://e/p> "],
    ["", " .", " ] .", " ; ex:p ex:o ."],
)
_SPARQL_DOCUMENTS = _documents(
    _SPARQL_PIECES,
    ["", "PREFIX ex: <http://e/> SELECT * WHERE { ", "SELECT * WHERE { ?s ", "SELECT * WHERE { ?s ?p ",
     "SELECT * WHERE { ?s ?p ?o } LIMIT ", "SELECT * WHERE { ?s ?p ?o FILTER("],
    ["", " }", ") }", " . ?s ?p ?o }"],
)


def _parses_or_raises_plantkb_error(parse, text):
    try:
        parse(text)
    except PlantKbError:
        pass


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_TURTLE_DOCUMENTS)
def test_turtle_parses_or_raises_plantkb_error(text):
    _parses_or_raises_plantkb_error(parse_turtle, text)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_SPARQL_DOCUMENTS)
def test_sparql_parses_or_raises_plantkb_error(text):
    _parses_or_raises_plantkb_error(parse_query, text)
