"""Exception hierarchy shared by every plantkb module."""

from __future__ import annotations


class PlantKbError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTripleError(PlantKbError):
    """A triple places a term where RDF forbids it (e.g. literal subject)."""


class FrozenGraphError(PlantKbError):
    """Mutation attempted on a read-only graph snapshot."""


class ParseError(PlantKbError):
    """Syntax error in Turtle or query text, with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int, snippet: str = ""):
        self.message = message
        self.line = line
        self.column = column
        self.snippet = snippet
        super().__init__(str(self))

    def __str__(self) -> str:
        text = f"line {self.line}, column {self.column}: {self.message}"
        if self.snippet:
            text += f" (near {self.snippet!r})"
        return text


class UnsupportedConstructError(ParseError):
    """Input uses a construct outside the supported subset, named explicitly."""

    def __init__(self, construct: str, line: int, column: int, snippet: str = ""):
        self.construct = construct
        super().__init__(f"unsupported construct: {construct}", line, column, snippet)


class RelativeIriError(ParseError):
    """A relative IRI was found but no base IRI is in effect."""

    def __init__(self, iri: str, line: int, column: int):
        self.iri = iri
        super().__init__(f"relative IRI {iri!r} without a base", line, column, iri)


class UnknownPrefixError(ParseError):
    """A prefixed name uses a prefix label with no declared namespace."""

    def __init__(self, prefix: str, line: int, column: int):
        self.prefix = prefix
        super().__init__(f"unknown prefix {prefix!r}", line, column)

    def __str__(self) -> str:
        return f"{self.message} at line {self.line}, column {self.column}"


class SubclassCycleError(PlantKbError):
    """The asserted subclass relation contains a cycle, so no tree exists."""

    def __init__(self, members):
        self.members = list(members)
        names = ", ".join(m.value for m in self.members)
        super().__init__(f"subclass cycle through: {names}")


class UnknownFixtureError(PlantKbError):
    """Requested bundled fixture name is not in the manifest."""
