"""Bundled Arabidopsis Thaliana ontology fixtures.

One clean reference ontology plus nine seeded-defect variants, each defect a
minimal edit expected to trigger exactly one lint code.  The manifest maps
fixture names to files and expected error codes.
"""

from __future__ import annotations

import json

from .._record import FrozenRecord
from ..errors import UnknownFixtureError
from ..graph import Graph
from ..turtle import parse_turtle

__all__ = ["FixtureManifest", "manifest", "fixture_text", "fixture_graph"]


class FixtureManifest(FrozenRecord):
    __slots__ = __match_args__ = ("name", "path", "expected_error_codes")

    def __init__(self, name: str, path: str, expected_error_codes: frozenset[str]):
        super().__init__(name, path, expected_error_codes)


def manifest() -> list[FixtureManifest]:
    """All bundled fixtures, clean first, in manifest order."""
    from importlib import resources  # loaded here: it imports pathlib, zipfile, tempfile and shutil

    raw = resources.files(__package__).joinpath("manifest.json").read_text(encoding="utf-8")
    return [
        FixtureManifest(
            name=entry["name"],
            path=entry["path"],
            expected_error_codes=frozenset(entry["expected_error_codes"]),
        )
        for entry in json.loads(raw)
    ]


def _entry(name: str) -> FixtureManifest:
    for m in manifest():
        if m.name == name:
            return m
    raise UnknownFixtureError(f"unknown fixture: {name!r}")


def fixture_text(name: str) -> str:
    """Raw Turtle text of a bundled fixture."""
    from importlib import resources

    entry = _entry(name)
    return resources.files(__package__).joinpath(entry.path).read_text(encoding="utf-8")


def fixture_graph(name: str) -> Graph:
    """Parsed graph of a bundled fixture."""
    return parse_turtle(fixture_text(name)).graph
