"""Indexed in-memory triple store.

Terms are dictionary-encoded to integer identifiers; the store keeps one
authoritative set of ``(s, p, o)`` id-triples.  The three lookup views (SPO,
POS, OSP) are lists of those same tuples, each sorted by its own key: a view
is sorted on its first use after a write, so a reader that needs only one
order sorts only one, and a copy shares the views its source already has
(views are replaced, never changed in place).  Pattern lookup binary-searches
the view chosen by the pattern's bound-slot signature:

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

The table is fixed, not adaptive.  A bisect reads only the bound slots of a
view's entries.  One range lookup serves both :meth:`Graph.match` (decoded
triples) and :meth:`Graph.match_ids` (id-triples, for callers that join on
ids and decode late).  Writes come as decoded triples through
:meth:`Graph.insert`, which interns their terms, or as id-triples of
already interned terms through :meth:`Graph.add_ids`, which checks and adds
a whole batch under one lock (the Turtle parser's path).  A graph supports many
concurrent readers or one exclusive writer; handlers that must never observe
mutation should work on a :meth:`Graph.snapshot`, which is an independent
frozen copy with every view already sorted.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections.abc import Iterable
from itertools import repeat
from operator import itemgetter

from ._record import Record
from .errors import FrozenGraphError, MalformedTripleError, UnknownPrefixError
from .terms import BlankNode, Iri, Literal, Term, Triple, TriplePattern, Var

_SPO, _POS, _OSP = "spo", "pos", "osp"
# sort key of each view over (s, p, o) id-tuples; SPO is their natural order
_KEYS = {_SPO: None, _POS: itemgetter(1, 2, 0), _OSP: itemgetter(2, 0, 1)}
# the bound slots a POS or OSP range lookup bisects on; SPO compares tuples
_P, _P_O = itemgetter(1), itemgetter(1, 2)
_O, _O_S = itemgetter(2), itemgetter(2, 0)

# Local-part shape that survives a prefixed-name round trip in our Turtle
# subset; anything else is written as a full <...> IRI.
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


class MatchStats(Record):
    """Instrumentation for one :meth:`Graph.match_with_stats` call, which alone
    builds it: which view, how many entries touched."""

    __slots__ = __match_args__ = ("index_used", "entries_visited")

    def __init__(self, index_used: str, entries_visited: int = 0):
        super().__init__(index_used, entries_visited)


def _probes(n: int, found: int) -> int:
    """Probes a binary search over n entries makes to find position ``found``
    (entry ``mid`` compares below the prefix exactly when ``mid < found``)."""
    lo, hi, probes = 0, n, 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if mid < found:
            lo = mid + 1
        else:
            hi = mid
    return probes


class Graph:
    """Deduplicated triple set with SPO/POS/OSP lookup views and a prefix map."""

    def __init__(self, prefix_map: PrefixMap | None = None):
        self.prefix_map = prefix_map or PrefixMap()
        self._term_to_id: dict[Term, int] = {}
        self._id_to_term: list[Term] = []
        self._triples: set[tuple[int, int, int]] = set()
        # order -> the id-triples sorted by that order; dropped on every write
        self._views: dict[str, list[tuple[int, int, int]]] = {}
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

    def term_id(self, term: Term) -> int | None:
        """The term's id, or None if it was never interned."""
        return self._term_to_id.get(term)

    def term(self, tid: int) -> Term:
        """The term behind an id from :meth:`term_id` or :meth:`match_ids`."""
        return self._id_to_term[tid]

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

    def _add(self, batch: Iterable[tuple[int, int, int]]) -> int:
        """Add checked id-triples with the write lock held; returns how many
        were new.  The views are dropped when anything was.  ``batch`` is a
        sequence, not a set: ``set.update`` then grows the table as
        ``set.add`` does, where merging a set would size it differently."""
        before = len(self._triples)
        self._triples.update(batch)
        added = len(self._triples) - before
        if added and self._views:
            self._views = {}
        return added

    def insert(self, t: Triple) -> bool:
        """Add a triple; True iff it was not already present."""
        # a Triple's own constructor has checked each term's position
        if not isinstance(t, Triple):
            raise MalformedTripleError(f"expected a Triple, got {type(t).__name__}")
        self._check_writable()
        subject, predicate, obj = t.subject, t.predicate, t.object
        lookup = self._term_to_id.get
        with self._write_lock:
            s, p, o = lookup(subject), lookup(predicate), lookup(obj)
            if s is None or p is None or o is None:
                s, p, o = self._intern(subject), self._intern(predicate), self._intern(obj)
            return self._add(((s, p, o),)) == 1

    def add_ids(self, batch: Iterable[tuple[int, int, int]]) -> int:
        """Add ``(s, p, o)`` id-triples of terms this graph interned; returns
        how many were new (a triple repeated in the batch or already stored
        counts once, or not at all).

        The id-level write that goes with :meth:`term_id`, :meth:`term` and
        :meth:`match_ids`.  The batch is checked as a whole before anything
        is added: each distinct id must have been interned, each distinct
        subject must not be a literal and each distinct predicate must be an
        IRI, or MalformedTripleError is raised and the graph is unchanged.
        """
        self._check_writable()
        batch = list(batch)
        if not batch:
            return 0
        try:
            if set(map(type, batch)) != {tuple} or set(map(len, batch)) != {3}:
                raise TypeError
            subjects, predicates, objects = map(set, zip(*batch))
        except TypeError:
            raise MalformedTripleError("expected (s, p, o) tuples of term ids") from None
        ids = subjects | predicates | objects
        if set(map(type, ids)) != {int} or min(ids) < 0 or max(ids) >= len(self._id_to_term):
            bad = next(t for t in ids if type(t) is not int or not 0 <= t < len(self._id_to_term))
            raise MalformedTripleError(f"term id {bad!r} was never interned")
        term = self._id_to_term.__getitem__
        if any(map(isinstance, map(term, subjects), repeat(Literal))):
            raise MalformedTripleError("literal in subject position")
        if not all(map(isinstance, map(term, predicates), repeat(Iri))):
            raise MalformedTripleError("predicate must be an IRI")
        with self._write_lock:
            return self._add(batch)

    def remove(self, t: Triple) -> bool:
        """Remove a triple; True iff it was present."""
        self._check_writable()
        with self._write_lock:
            ids = tuple(self.term_id(term) for term in (t.subject, t.predicate, t.object))
            if None in ids or ids not in self._triples:
                return False
            self._triples.remove(ids)  # type: ignore[arg-type]
            if self._views:
                self._views = {}
            return True

    # -- views ----------------------------------------------------------------

    def _view(self, order: str) -> list[tuple[int, int, int]]:
        """The id-triples sorted by ``order``, sorted now if a write made the
        last sort stale."""
        view = self._views.get(order)
        if view is None:
            with self._write_lock:
                view = self._views.get(order)
                if view is None:
                    view = self._views[order] = sorted(self._triples, key=_KEYS[order])
        return view

    def index_entries(self, order: str) -> list[tuple[int, int, int]]:
        """Sorted id-tuples of one view ('spo', 'pos', 'osp'), each in that
        view's slot order; for inspection."""
        if order not in _KEYS:
            raise ValueError(f"unknown index order: {order!r}")
        key = _KEYS[order]
        view = self._view(order)
        return list(view) if key is None else list(map(key, view))

    # -- matching ---------------------------------------------------------------

    def match(self, pattern: TriplePattern) -> list[Triple]:
        """All triples unifying with the pattern, in index order."""
        return self.match_with_stats(pattern)[0]

    def match_with_stats(self, pattern: TriplePattern) -> tuple[list[Triple], MatchStats]:
        """Like :meth:`match`, plus the view read and the index entries
        examined: the lower-bound probes (none for a membership test or a full
        scan), the run, and the first entry past the run."""
        ids = self._pattern_ids(pattern)
        if ids is None:
            return [], MatchStats("none")
        order, entries, lo, hi = self._id_range(*ids)
        probes = _probes(len(entries), lo) if 0 < ids.count(None) < 3 else 0
        stats = MatchStats(order, probes + hi - lo + (hi < len(entries)))
        found = entries[lo:hi]
        slots = pattern.slots()
        same = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2))
                if isinstance(slots[i], Var) and slots[i] == slots[j]]
        if same:
            found = [t for t in found if all(t[i] == t[j] for i, j in same)]
        return [self._decode(t) for t in found], stats

    def match_ids(self, s: int | None, p: int | None, o: int | None) -> list[tuple[int, int, int]]:
        """Id-triples (s, p, o) agreeing with every given id (None matches
        anything), in index order."""
        _, entries, lo, hi = self._id_range(s, p, o)
        return entries[lo:hi]

    def _pattern_ids(self, pattern: TriplePattern) -> tuple[int | None, int | None, int | None] | None:
        """The ids of the pattern's concrete slots (None for a variable), or
        None if one of its terms was never interned."""
        ids: list[int | None] = []
        for slot in pattern.slots():
            if isinstance(slot, (Iri, BlankNode, Literal)):
                tid = self._term_to_id.get(slot)
                if tid is None:
                    return None
                ids.append(tid)
            else:
                ids.append(None)
        return tuple(ids)  # type: ignore[return-value]

    def _id_range(self, s: int | None, p: int | None,
                  o: int | None) -> tuple[str, list[tuple[int, int, int]], int, int]:
        """The view read for the given ids, its entries, and the [lo, hi) run
        of them holding every triple that agrees with the ids.

        All three given is a membership test of the triple set: ("set",
        [(s, p, o)], 0, 1) if present, else ("set", [(s, p, o)], 0, 0).
        """
        if s is not None and p is not None and o is not None:
            return "set", [(s, p, o)], 0, int((s, p, o) in self._triples)

        if s is not None and o is not None:
            order, key, first, past = _OSP, _O_S, (o, s), (o, s + 1)
        elif s is not None and p is not None:
            order, key, first, past = _SPO, None, (s, p), (s, p + 1)
        elif s is not None:
            order, key, first, past = _SPO, None, (s,), (s + 1,)
        elif p is not None and o is not None:
            order, key, first, past = _POS, _P_O, (p, o), (p, o + 1)
        elif p is not None:
            order, key, first, past = _POS, _P, p, p + 1
        elif o is not None:
            order, key, first, past = _OSP, _O, o, o + 1
        else:
            entries = self._view(_SPO)
            return _SPO, entries, 0, len(entries)
        # ids are integers, so the run ends before the bound slots' successor
        entries = self._view(order)
        lo = bisect_left(entries, first, key=key)
        return order, entries, lo, bisect_left(entries, past, lo, key=key)

    def count_matching(self, pattern: TriplePattern) -> int:
        """Upper-bound match count by index range width (ignores repeated-var filtering)."""
        ids = self._pattern_ids(pattern)
        if ids is None:
            return 0
        _, _, lo, hi = self._id_range(*ids)
        return hi - lo

    # -- set-level access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        ids = tuple(self.term_id(term) for term in (t.subject, t.predicate, t.object))
        return None not in ids and ids in self._triples

    def __iter__(self):
        """Iterate all triples in SPO id order (deterministic for a fixed build)."""
        for ids in self._view(_SPO):
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
        g._views = dict(self._views)
        return g

    def snapshot(self) -> "Graph":
        """Independent frozen copy; insert/remove on it raise FrozenGraphError."""
        g = self.copy()
        for order in _KEYS:
            g._view(order)
        g._frozen = True
        return g

    @property
    def frozen(self) -> bool:
        return self._frozen
