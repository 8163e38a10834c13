"""Triple store: indexes, match dispatch, instrumentation, snapshots, prefixes."""

import bisect
import itertools
import math
import random
import threading

import pytest

import oracles
from plantkb.errors import FrozenGraphError, MalformedTripleError, UnknownPrefixError
from plantkb.graph import Graph, MatchStats, PrefixMap, expand_qname
from plantkb.terms import BlankNode, Iri, Literal, Triple, TriplePattern, Var

EX = "http://example.test/g#"


def iri(s):
    return Iri(EX + s)


def t(s, p, o):
    return Triple(iri(s), iri(p), iri(o) if isinstance(o, str) else o)


def small_graph():
    g = Graph()
    g.insert(t("s1", "p1", "o1"))
    g.insert(t("s1", "p1", "o2"))
    g.insert(t("s1", "p2", "o1"))
    g.insert(t("s2", "p1", "o1"))
    g.insert(t("s2", "p2", Literal("5", Iri("http://www.w3.org/2001/XMLSchema#integer"))))
    return g


def test_insert_dedup_remove_len():
    g = Graph()
    assert g.insert(t("a", "p", "b"))
    assert not g.insert(t("a", "p", "b"))
    assert len(g) == 1
    assert t("a", "p", "b") in g
    assert g.remove(t("a", "p", "b"))
    assert not g.remove(t("a", "p", "b"))
    assert len(g) == 0


def test_insert_validates_positions():
    g = Graph()
    with pytest.raises(MalformedTripleError):
        g.insert("not a triple")
    # Triple construction itself blocks literal subjects, so a look-alike
    # object is the only way to offer one; the store rejects any non-Triple
    class Fake:
        subject = Literal("x")
        predicate = iri("p")
        object = iri("o")
    with pytest.raises(MalformedTripleError):
        g.insert(Fake())


def test_match_all_bound_slot_combinations_against_scan():
    rng = random.Random(11)
    for _ in range(40):
        triples = oracles.random_document_triples(rng, max_triples=60)
        g = Graph()
        for tr in triples:
            g.insert(tr)
        pool = sorted({x for tr in triples for x in (tr.subject, tr.predicate, tr.object)},
                      key=repr)
        some = rng.sample(pool, min(4, len(pool)))
        subjects = [x for x in some if not isinstance(x, Literal)] or [iri("nope")]
        for s in (None, rng.choice(subjects)):
            for p in (None, rng.choice([x for x in pool if isinstance(x, Iri)])):
                for o in (None, rng.choice(pool)):
                    pat = TriplePattern(s, p, o)
                    assert set(g.match(pat)) == set(oracles.scan_match(triples, pat))


def test_match_with_repeated_variable():
    g = Graph()
    g.insert(t("a", "p", "a"))
    g.insert(t("a", "p", "b"))
    g.insert(t("b", "q", "b"))
    x = Var("x")
    got = set(g.match(TriplePattern(x, None, x)))
    assert got == {t("a", "p", "a"), t("b", "q", "b")}
    # all three slots equal: nothing here satisfies it
    assert g.match(TriplePattern(x, x, x)) == []


def test_match_stats_index_dispatch():
    g = small_graph()
    cases = {
        (True, True, True): "set",
        (True, True, False): "spo",
        (True, False, True): "osp",
        (True, False, False): "spo",
        (False, True, True): "pos",
        (False, True, False): "pos",
        (False, False, True): "osp",
        (False, False, False): "spo",
    }
    s, p, o = iri("s1"), iri("p1"), iri("o1")
    for (bs, bp, bo), want in cases.items():
        pat = TriplePattern(s if bs else None, p if bp else None, o if bo else None)
        _, stats = g.match_with_stats(pat)
        assert stats.index_used == want, f"{(bs, bp, bo)} -> {stats.index_used}"


def test_fully_bound_membership_costs_one_probe():
    g = small_graph()
    hits, stats = g.match_with_stats(TriplePattern(iri("s1"), iri("p1"), iri("o1")))
    assert len(hits) == 1 and stats == MatchStats("set", 1)
    misses, stats = g.match_with_stats(TriplePattern(iri("s1"), iri("p1"), iri("s1")))
    assert misses == [] and stats.entries_visited == 1


def test_match_unknown_term_is_free():
    g = small_graph()
    got, stats = g.match_with_stats(TriplePattern(iri("never-seen"), None, None))
    assert got == [] and stats.index_used == "none" and stats.entries_visited == 0


def test_single_bound_subject_visits_logarithmically():
    g = Graph()
    n_subjects, per = 2000, 5
    for i in range(n_subjects):
        for j in range(per):
            g.insert(t(f"s{i}", f"p{j}", f"o{i}_{j}"))
    n = len(g)
    _, stats = g.match_with_stats(TriplePattern(iri("s1500"), None, None))
    bound = per + 2 * math.ceil(math.log2(n)) + 4
    assert stats.index_used == "spo"
    assert stats.entries_visited <= bound, f"{stats.entries_visited} > {bound}"


def test_full_scan_visits_everything():
    g = small_graph()
    _, stats = g.match_with_stats(TriplePattern(None, None, None))
    assert stats.entries_visited == len(g)


# the view each bound-slot signature reads, and each view's slot order as
# positions in (s, p, o)
_VIEW_OF = {
    (True, True, False): "spo", (True, False, False): "spo", (False, False, False): "spo",
    (True, False, True): "osp", (False, False, True): "osp",
    (False, True, True): "pos", (False, True, False): "pos",
}
_VIEW_POSITIONS = {"spo": (0, 1, 2), "pos": (1, 2, 0), "osp": (2, 0, 1)}


def _counted_stats(g, ids):
    """(index_used, entries_visited) for a read of ``ids``, counted apart from
    the store: the key calls of a lower-bound bisect over the view's entries,
    plus the run that agrees with the bound ids, plus the entry past the run."""
    if None not in ids:
        return "set", 1
    order = _VIEW_OF[tuple(i is not None for i in ids)]
    entries = g.index_entries(order)
    prefix = tuple(ids[i] for i in _VIEW_POSITIONS[order] if ids[i] is not None)
    if not prefix:
        return order, len(entries)
    calls = 0

    def key(entry):
        nonlocal calls
        calls += 1
        return entry[:len(prefix)]

    lo = bisect.bisect_left(entries, prefix, key=key)
    hi = lo
    while hi < len(entries) and entries[hi][:len(prefix)] == prefix:
        hi += 1
    return order, calls + hi - lo + (hi < len(entries))


def test_match_stats_equal_an_independent_count_for_every_signature():
    rng = random.Random(61)
    for _ in range(40):
        names = [f"n{i}" for i in range(rng.randint(1, 7))]
        g = Graph()
        for _ in range(rng.randint(1, 120)):
            g.insert(t(rng.choice(names), rng.choice(names[:3]), rng.choice(names)))
        stored = list(g)
        for bound in itertools.product((True, False), repeat=3):
            for _ in range(4):
                picked = rng.choice(stored) if rng.random() < 0.7 else Triple(
                    iri(rng.choice(names)), iri(rng.choice(names)), iri(rng.choice(names)))
                slots = [x if b else None for x, b in zip(
                    (picked.subject, picked.predicate, picked.object), bound)]
                pattern = TriplePattern(*slots)
                ids = tuple(None if x is None else g.term_id(x) for x in slots)
                _, stats = g.match_with_stats(pattern)
                want = ("none", 0) if any(x is not None and i is None for x, i in zip(slots, ids)) \
                    else _counted_stats(g, ids)
                assert (stats.index_used, stats.entries_visited) == want, (bound, ids)
        unknown = TriplePattern(None, iri("never-seen"), None)
        assert g.match_with_stats(unknown)[1] == MatchStats("none", 0)


def test_count_matching_upper_bounds_match():
    rng = random.Random(23)
    g = Graph()
    for tr in oracles.random_document_triples(rng, max_triples=80):
        g.insert(tr)
    for pat in (
        TriplePattern(None, None, None),
        TriplePattern(Var("x"), None, Var("x")),
        TriplePattern(None, Var("p"), None),
    ):
        stripped = TriplePattern(*(None if isinstance(s, Var) else s for s in pat.slots()))
        assert g.count_matching(pat) == len(g.match(stripped))
        assert g.count_matching(pat) >= len(g.match(pat))


def test_iteration_is_deterministic_and_complete():
    g = small_graph()
    assert set(g) == g.triples()
    assert list(g) == list(g)
    assert len(list(g)) == len(g)


def test_equality_ignores_insertion_order():
    rng = random.Random(5)
    triples = list(oracles.random_document_triples(rng, max_triples=40))
    g1, g2 = Graph(), Graph()
    for tr in triples:
        g1.insert(tr)
    rng.shuffle(triples)
    for tr in triples:
        g2.insert(tr)
    assert g1 == g2
    g2.insert(t("extra", "p", "o"))
    assert g1 != g2
    with pytest.raises(TypeError):
        hash(g1)


def test_copy_is_independent():
    g = small_graph()
    c = g.copy()
    assert c == g
    c.insert(t("new", "p", "o"))
    assert len(c) == len(g) + 1
    assert t("new", "p", "o") not in g


def test_snapshot_is_frozen_and_original_stays_writable():
    g = small_graph()
    snap = g.snapshot()
    assert snap == g and snap.frozen
    with pytest.raises(FrozenGraphError):
        snap.insert(t("x", "p", "y"))
    with pytest.raises(FrozenGraphError):
        snap.remove(t("s1", "p1", "o1"))
    assert not g.frozen
    g.insert(t("x", "p", "y"))
    assert len(snap) == len(g) - 1  # snapshot unaffected


def _ids(g, *triples):
    return [tuple(g.term_id(x) for x in (tr.subject, tr.predicate, tr.object)) for tr in triples]


def test_add_ids_counts_each_new_triple_once():
    g = small_graph()
    present, = _ids(g, t("s1", "p1", "o1"))
    s2, p1, o2 = _ids(g, t("s2", "p1", "o2"))[0]
    assert (s2, p1, o2) not in g.match_ids(None, None, None)
    assert g.add_ids([(s2, p1, o2), present, (s2, p1, o2)]) == 1
    assert g.add_ids([(s2, p1, o2)]) == 0
    assert g.add_ids([]) == 0
    assert len(g) == 6 and t("s2", "p1", "o2") in g


def test_add_ids_drops_stale_views():
    g = small_graph()
    s1, p2, o2 = _ids(g, t("s1", "p2", "o2"))[0]
    for order in ("spo", "pos", "osp"):
        g.index_entries(order)
    assert g.match_ids(s1, p2, None) == [(s1, p2, g.term_id(iri("o1")))]
    g.add_ids([(s1, p2, o2)])
    assert g.match_ids(s1, p2, None) == sorted([(s1, p2, g.term_id(iri("o1"))), (s1, p2, o2)])
    assert (s1, p2, o2) in g.match_ids(None, None, o2)
    assert (s1, p2, o2) in g.match_ids(None, p2, None)
    assert g.match(TriplePattern(iri("s1"), iri("p2"), Var("x"))) == [t("s1", "p2", "o1"), t("s1", "p2", "o2")]


def test_add_ids_rejects_a_bad_batch_whole():
    g = small_graph()
    s1, p1, o1 = _ids(g, t("s1", "p1", "o1"))[0]
    s2 = g.term_id(iri("s2"))
    five = g.term_id(Literal("5", Iri("http://www.w3.org/2001/XMLSchema#integer")))
    before = g.match_ids(None, None, None)
    bad_triples = {
        "literal subject": (five, p1, o1),
        "literal predicate": (s2, five, o1),
        "id never interned": (s2, p1, g.term_count()),
        "negative id": (s2, -1, o1),
        "None": (s2, p1, None),
        "two slots": (s2, p1),
        "four slots": (s2, p1, o1, o1),
        "not a tuple": "abc",
    }
    for why, bad in bad_triples.items():
        with pytest.raises(MalformedTripleError):
            g.add_ids([(s2, p1, s1), bad])
            pytest.fail(why)
        assert g.match_ids(None, None, None) == before, why


def test_add_ids_on_a_snapshot_is_refused():
    g = small_graph()
    snap = g.snapshot()
    with pytest.raises(FrozenGraphError):
        snap.add_ids(_ids(snap, t("s1", "p1", "o1")))


def _random_pattern(rng, pool):
    """A pattern over the pool's terms, wildcards and the variables ?x and ?y,
    so that some patterns repeat a variable."""
    terms = [x for tr in pool for x in (tr.subject, tr.predicate, tr.object)]
    slots = []
    for _ in range(3):
        roll = rng.random()
        slots.append(None if roll < 0.3 else Var(rng.choice("xy")) if roll < 0.6 else rng.choice(terms))
    return TriplePattern(*slots)


def _assert_reads_agree(g, model, rng, pool):
    """match, match_ids and count_matching on g agree with a scan of model."""
    assert set(g) == model and len(g) == len(model)
    for _ in range(12):
        pat = _random_pattern(rng, pool)
        got = g.match(pat)
        assert len(got) == len(set(got)) and set(got) == set(oracles.scan_match(model, pat))
        stripped = TriplePattern(*(None if isinstance(x, Var) else x for x in pat.slots()))
        want = set(oracles.scan_match(model, stripped))
        assert g.count_matching(pat) == len(want)
        ids = [None if x is None else g.term_id(x) for x in stripped.slots()]
        if all((x is None) == (i is None) for x, i in zip(stripped.slots(), ids)):
            found = g.match_ids(*ids)
            assert len(found) == len(want)
            assert {Triple(g.term(s), g.term(p), g.term(o)) for s, p, o in found} == want
    for order in ("spo", "pos", "osp"):
        entries = g.index_entries(order)
        assert entries == sorted(entries) and len(entries) == len(model)


def test_views_follow_interleaved_writes_copies_and_reads():
    rng = random.Random(41)
    for _ in range(30):
        pool = list(oracles.random_document_triples(rng, max_triples=40))
        graphs = [(Graph(), set())]
        for _ in range(60):
            g, model = rng.choice(graphs)
            roll = rng.random()
            if roll < 0.35:
                tr = rng.choice(pool)
                assert g.insert(tr) == (tr not in model)
                model.add(tr)
            elif roll < 0.5:
                tr = rng.choice(pool)
                assert g.remove(tr) == (tr in model)
                model.discard(tr)
            elif roll < 0.6 and len(graphs) < 4:
                graphs.append((g.copy(), set(model)))
            else:
                _assert_reads_agree(g, model, rng, pool)
        for g, model in graphs:
            _assert_reads_agree(g, model, rng, pool)


def test_copy_taken_after_reads_is_written_on_one_side_only():
    rng = random.Random(43)
    pool = list(oracles.random_document_triples(rng, max_triples=40))
    g = Graph()
    for tr in pool[:-1]:
        g.insert(tr)
    model = set(pool[:-1])
    _assert_reads_agree(g, model, rng, pool)  # every view is sorted now
    c, copy_model = g.copy(), set(model)
    c.insert(pool[-1])
    copy_model.add(pool[-1])
    _assert_reads_agree(c, copy_model, rng, pool)
    _assert_reads_agree(g, model, rng, pool)
    g.remove(pool[0])
    model.discard(pool[0])
    _assert_reads_agree(g, model, rng, pool)
    _assert_reads_agree(c, copy_model, rng, pool)


def test_index_entries_sorted_and_sized():
    g = small_graph()
    for order in ("spo", "pos", "osp"):
        entries = g.index_entries(order)
        assert entries == sorted(entries)
        assert len(entries) == len(g)
    with pytest.raises(ValueError):
        g.index_entries("ops")


def test_term_count_tracks_interned_terms():
    g = Graph()
    assert g.term_count() == 0
    g.insert(t("a", "p", "b"))
    assert g.term_count() == 3
    g.insert(t("a", "p", "c"))
    assert g.term_count() == 4
    g.remove(t("a", "p", "c"))
    assert g.term_count() == 4  # interning is append-only


def test_concurrent_inserts_all_land():
    g = Graph()

    def worker(base):
        for i in range(200):
            g.insert(t(f"s{base}_{i}", "p", "o"))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(g) == 8 * 200


# -- prefix map ---------------------------------------------------------------


def test_prefix_expand_and_unknown():
    pm = PrefixMap()
    pm.bind("ex", Iri(EX))
    assert pm.expand("ex:Seed") == iri("Seed")
    assert expand_qname(pm, "ex:Seed") == iri("Seed")
    with pytest.raises(UnknownPrefixError):
        pm.expand("nope:Seed")
    assert pm.namespace("nope") is None


def test_prefix_compact_prefers_longest_namespace():
    pm = PrefixMap()
    pm.bind("a", Iri("http://example.test/"))
    pm.bind("b", Iri("http://example.test/g#"))
    assert pm.compact(iri("Seed")) == "b:Seed"
    assert pm.compact(Iri("http://example.test/other")) == "a:other"
    assert pm.compact(Iri("http://elsewhere.test/x")) is None


def test_prefix_compact_refuses_unsafe_local_names():
    pm = PrefixMap()
    pm.bind("ex", Iri(EX))
    assert pm.compact(Iri(EX + "a/b")) is None  # slash cannot appear in a local name
    assert pm.compact(Iri(EX)) == "ex:"  # empty local is fine


def test_prefix_items_sorted_and_copy_independent():
    pm = PrefixMap()
    pm.bind("z", Iri("http://z.test/"))
    pm.bind("a", Iri("http://a.test/"))
    assert [p for p, _ in pm.items()] == ["a", "z"]
    cp = pm.copy()
    cp.bind("m", Iri("http://m.test/"))
    assert pm.namespace("m") is None
