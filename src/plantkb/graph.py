"""Indexed in-memory triple store.

Terms are dictionary-encoded to integer identifiers; the store keeps one
authoritative set of id-triples plus three sorted views (SPO, POS, OSP) that
are rebuilt lazily after mutations.  Pattern lookup binary-searches the view
chosen by the pattern's bound-slot signature:

    signature (S,P,O)  index     prefix
    ---------------------------------------
    (S, P, O)          set       membership
    (S, P, -)          SPO       (s, p)
    (S, -, -)          SPO       (s,)
    (S, -, O)          OSP       (o, s)
    (-, P, O)          POS       (p, o)
    (-, P, -)          POS       (p,)
    (-, -, O)          OSP       (o,)
    (-, -, -)          SPO       full scan

The table is fixed, not adaptive.  A graph supports many concurrent readers
or one exclusive writer; handlers that must never observe mutation should
work on a :meth:`Graph.snapshot`, which is an independent frozen copy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import FrozenGraphError, MalformedTripleError, UnknownPrefixError
from .terms import BlankNode, Iri, Literal, Term, Triple, TriplePattern, Var

_SPO, _POS, _OSP = "spo", "pos", "osp"
# where each view keeps the subject, predicate and object of its id-tuples
_DECODE = {_SPO: (0, 1, 2), _POS: (2, 0, 1), _OSP: (1, 2, 0)}

# Local-part shape that survives a prefixed-name round trip in our Turtle
# subset; anything else is written as a full <...> IRI.
import re

_SAFE_LOCAL = re.compile(r"^(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?$")


class PrefixMap:
    """Prefix label to namespace IRI associations; the empty label is allowed."""

    def __init__(self, entries: dict[str, Iri] | None = None):
        self._entries: dict[str, Iri] = dict(entries or {})

    def bind(self, prefix: str, namespace: Iri) -> None:
        self._entries[prefix] = namespace

    def namespace(self, prefix: str) -> Iri | None:
        return self._entries.get(prefix)

    def expand(self, qname: str) -> Iri:
        """Expand ``prefix:local`` to a full IRI.

        Raises UnknownPrefixError when the prefix has no binding.
        """
        prefix, sep, local = qname.partition(":")
        if not sep:
            raise UnknownPrefixError(qname)
        ns = self._entries.get(prefix)
        if ns is None:
            raise UnknownPrefixError(prefix)
        return Iri(ns.value + local)

    def compact(self, iri: Iri) -> str | None:
        """Prefixed form of ``iri`` under the longest matching namespace, or None."""
        best: tuple[int, str, str] | None = None
        for prefix, ns in self._entries.items():
            if iri.value.startswith(ns.value):
                local = iri.value[len(ns.value):]
                if _SAFE_LOCAL.match(local):
                    key = (len(ns.value), prefix)
                    if best is None or key > (best[0], best[1]):
                        best = (len(ns.value), prefix, local)
        if best is None:
            return None
        return f"{best[1]}:{best[2]}"

    def items(self) -> list[tuple[str, Iri]]:
        return sorted(self._entries.items())

    def copy(self) -> "PrefixMap":
        return PrefixMap(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._entries


def expand_qname(pm: PrefixMap, qname: str) -> Iri:
    """Module-level alias for :meth:`PrefixMap.expand`."""
    return pm.expand(qname)


@dataclass(slots=True)
class MatchStats:
    """Instrumentation for one match call: which view, how many entries touched."""

    index_used: str
    entries_visited: int = 0


class Graph:
    """Deduplicated triple set with SPO/POS/OSP lookup views and a prefix map."""

    def __init__(self, prefix_map: PrefixMap | None = None):
        self.prefix_map = prefix_map or PrefixMap()
        self._term_to_id: dict[Term, int] = {}
        self._id_to_term: list[Term] = []
        self._triples: set[tuple[int, int, int]] = set()
        self._views: dict[str, list[tuple[int, int, int]]] = {_SPO: [], _POS: [], _OSP: []}
        self._views_fresh = True
        self._frozen = False
        self._write_lock = threading.Lock()

    # -- dictionary encoding -------------------------------------------------

    def _intern(self, term: Term) -> int:
        tid = self._term_to_id.get(term)
        if tid is None:
            tid = len(self._id_to_term)
            self._term_to_id[term] = tid
            self._id_to_term.append(term)
        return tid

    def _lookup(self, term: Term) -> int | None:
        return self._term_to_id.get(term)

    def term_count(self) -> int:
        """Distinct terms interned so far (superset of terms in live triples)."""
        return len(self._id_to_term)

    def _decode(self, ids: tuple[int, int, int]) -> Triple:
        s, p, o = ids
        return Triple(self._id_to_term[s], self._id_to_term[p], self._id_to_term[o])  # type: ignore[arg-type]

    # -- mutation -------------------------------------------------------------

    def _check_writable(self) -> None:
        if self._frozen:
            raise FrozenGraphError("graph snapshot is read-only")

    def insert(self, t: Triple) -> bool:
        """Add a triple; True iff it was not already present."""
        if not isinstance(t, Triple):
            raise MalformedTripleError(f"expected a Triple, got {type(t).__name__}")
        if isinstance(t.subject, Literal):
            raise MalformedTripleError("literal in subject position")
        if not isinstance(t.predicate, Iri):
            raise MalformedTripleError("predicate must be an IRI")
        self._check_writable()
        with self._write_lock:
            ids = (self._intern(t.subject), self._intern(t.predicate), self._intern(t.object))
            if ids in self._triples:
                return False
            self._triples.add(ids)
            self._views_fresh = False
            return True

    def remove(self, t: Triple) -> bool:
        """Remove a triple; True iff it was present."""
        self._check_writable()
        with self._write_lock:
            ids = tuple(self._lookup(term) for term in (t.subject, t.predicate, t.object))
            if None in ids or ids not in self._triples:
                return False
            self._triples.remove(ids)  # type: ignore[arg-type]
            self._views_fresh = False
            return True

    # -- views ----------------------------------------------------------------

    def _refresh_views(self) -> None:
        if self._views_fresh:
            return
        with self._write_lock:
            if self._views_fresh:
                return
            spo = sorted(self._triples)
            self._views[_SPO] = spo
            self._views[_POS] = sorted((p, o, s) for s, p, o in self._triples)
            self._views[_OSP] = sorted((o, s, p) for s, p, o in self._triples)
            self._views_fresh = True

    def index_entries(self, order: str) -> list[tuple[int, int, int]]:
        """Sorted id-tuples of one view ('spo', 'pos', 'osp'); for inspection."""
        if order not in self._views:
            raise ValueError(f"unknown index order: {order!r}")
        self._refresh_views()
        return list(self._views[order])

    # -- matching ---------------------------------------------------------------

    def match(self, pattern: TriplePattern) -> list[Triple]:
        """All triples unifying with the pattern, in index order."""
        return self.match_with_stats(pattern)[0]

    def match_with_stats(self, pattern: TriplePattern) -> tuple[list[Triple], MatchStats]:
        """Like :meth:`match`, plus a count of index entries examined."""
        stats = MatchStats(index_used="none")
        view, lo, hi = self._index_range(pattern, stats)
        stats.index_used = view
        if view == "none":
            return [], stats
        if view == "set":
            stats.entries_visited = 1
            triples = [Triple(*pattern.slots())] if hi else []  # type: ignore[arg-type]
        else:
            entries = self._views[view]
            # the scan also reads the first entry past the run, if there is one
            stats.entries_visited += hi - lo + (hi < len(entries))
            s, p, o = _DECODE[view]
            triples = [self._decode((row[s], row[p], row[o])) for row in entries[lo:hi]]
        return self._filter_repeated_vars(pattern, triples), stats

    def _index_range(self, pattern: TriplePattern, stats: MatchStats) -> tuple[str, int, int]:
        """The view for the pattern's concrete slots and the [lo, hi) run of it
        holding every triple that agrees with them; lower-bound probes count
        into ``stats``.

        A term that was never interned gives ("none", 0, 0).  A fully concrete
        pattern is a membership test: ("set", 0, 1) if present, else ("set", 0, 0).
        """
        bound: list[int | None] = []
        for slot in pattern.slots():
            if isinstance(slot, (Iri, BlankNode, Literal)):
                tid = self._lookup(slot)
                if tid is None:
                    return "none", 0, 0
                bound.append(tid)
            else:
                bound.append(None)
        s, p, o = bound
        if s is not None and p is not None and o is not None:
            return "set", 0, int((s, p, o) in self._triples)

        self._refresh_views()
        if s is not None and o is not None:
            order, prefix = _OSP, (o, s)
        elif s is not None and p is not None:
            order, prefix = _SPO, (s, p)
        elif s is not None:
            order, prefix = _SPO, (s,)
        elif p is not None and o is not None:
            order, prefix = _POS, (p, o)
        elif p is not None:
            order, prefix = _POS, (p,)
        elif o is not None:
            order, prefix = _OSP, (o,)
        else:
            return _SPO, 0, len(self._views[_SPO])
        entries = self._views[order]
        lo = self._lower_bound(entries, prefix, stats)
        return order, lo, self._upper_bound(entries, prefix, lo)

    @staticmethod
    def _lower_bound(entries: list, prefix: tuple, stats: MatchStats) -> int:
        """Leftmost entry whose leading slots are >= prefix; each probe is a visit."""
        lo, hi = 0, len(entries)
        k = len(prefix)
        while lo < hi:
            mid = (lo + hi) // 2
            stats.entries_visited += 1
            if entries[mid][:k] < prefix:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @staticmethod
    def _filter_repeated_vars(pattern: TriplePattern, triples: list[Triple]) -> list[Triple]:
        slots = pattern.slots()
        names = [s.name if isinstance(s, Var) else None for s in slots]
        shared = {n for n in names if n is not None and names.count(n) > 1}
        if not shared:
            return triples
        out = []
        for t in triples:
            values = (t.subject, t.predicate, t.object)
            ok = True
            for name in shared:
                group = {values[i] for i in range(3) if names[i] == name}
                if len(group) > 1:
                    ok = False
                    break
            if ok:
                out.append(t)
        return out

    def count_matching(self, pattern: TriplePattern) -> int:
        """Upper-bound match count by index range width (ignores repeated-var filtering)."""
        _, lo, hi = self._index_range(pattern, MatchStats(index_used="none"))
        return hi - lo

    @staticmethod
    def _upper_bound(entries: list, prefix: tuple, lo: int) -> int:
        hi = len(entries)
        k = len(prefix)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid][:k] <= prefix:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- set-level access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        ids = tuple(self._lookup(term) for term in (t.subject, t.predicate, t.object))
        return None not in ids and ids in self._triples

    def __iter__(self):
        """Iterate all triples in SPO id order (deterministic for a fixed build)."""
        self._refresh_views()
        for ids in self._views[_SPO]:
            yield self._decode(ids)

    def __eq__(self, other: object) -> bool:
        """Triple-set equality; prefix maps are not compared."""
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self) == set(other)

    def __hash__(self):  # mutable container
        raise TypeError("Graph is unhashable")

    def triples(self) -> set[Triple]:
        return set(self)

    # -- lifecycle ---------------------------------------------------------------

    def copy(self) -> "Graph":
        """Independent mutable copy (triples and prefix map)."""
        g = Graph(self.prefix_map.copy())
        g._term_to_id = dict(self._term_to_id)
        g._id_to_term = list(self._id_to_term)
        g._triples = set(self._triples)
        g._views_fresh = False
        return g

    def snapshot(self) -> "Graph":
        """Independent frozen copy; insert/remove on it raise FrozenGraphError."""
        g = self.copy()
        g._refresh_views()
        g._frozen = True
        return g

    @property
    def frozen(self) -> bool:
        return self._frozen
