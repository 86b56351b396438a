"""The generators are pure functions of their seed."""

from __future__ import annotations

import re
from itertools import islice

from perfbench import gen
from repro.bench.workload import PAPER_QUERIES


def test_paper_stream_is_deterministic_and_covers_all_keys():
    first = list(islice(gen.paper_requests(3), 200))
    assert first == list(islice(gen.paper_requests(3), 200))
    assert first != list(islice(gen.paper_requests(4), 200))
    cycle = first[:56]
    assert {(q, s) for q, _, s in cycle} == {
        (q, s) for q in PAPER_QUERIES for s in gen.SCHEMES}


def test_adhoc_queries_are_deterministic_varied_and_parse():
    collection = gen.corpus(300)
    queries = list(islice(gen.adhoc_queries(collection, 5), 400))
    assert queries == list(islice(gen.adhoc_queries(gen.corpus(300), 5), 400))
    assert queries != list(islice(gen.adhoc_queries(collection, 6), 400))
    texts = [t for t, _ in queries]
    assert len(set(texts)) / len(texts) > 0.8
    assert {s for _, s in queries} == set(gen.SCHEMES)

    from repro import SearchEngine

    engine = SearchEngine(collection)
    nonempty = sum(bool(engine.search(t, scheme=s, top_k=10).results)
                   for t, s in queries[:100])
    assert nonempty >= 10


def test_adhoc_sample_is_one_fixed_set_in_a_seeded_order():
    collection = gen.corpus(300)
    sample = gen.adhoc_sample(collection, 5, 300)
    assert sample == gen.adhoc_sample(gen.corpus(300), 5, 300)
    other = gen.adhoc_sample(collection, 6, 300)
    assert other != sample and sorted(other) == sorted(sample)
    assert sorted(sample) == sorted(islice(
        gen.adhoc_queries(collection, gen.SAMPLE_STREAM_SEED), 300))
    assert len({t for t, _ in sample}) / len(sample) > 0.8


def test_adhoc_queries_keep_a_paper_query_structure():
    """Masking words and phrases leaves a paper query's skeleton: its
    operators, nesting, window sizes and number of words."""
    def skeleton(text):
        return gen.ATOM.sub(lambda m: "#" * len(m.group(0).strip('"').split()), text)

    shapes = {skeleton(t) for t in PAPER_QUERIES.values()}
    queries = list(islice(gen.adhoc_queries(gen.corpus(300), 9), 400))
    seen = {skeleton(t) for t, _ in queries}
    assert seen == shapes
    sizes = {n for n in (re.findall(r"\[(\d+)\]", t) for t, _ in queries) for n in n}
    assert sizes == {"50", "10", "20", "4", "15"}
    assert all(len(t.replace('"', " ").split()) > 0 for t, _ in queries)


def test_ingest_texts_are_deterministic_and_marked():
    texts = gen.ingest_texts(7, 20)
    assert texts == gen.ingest_texts(7, 20)
    assert texts != gen.ingest_texts(8, 20)
    for i, text in enumerate(texts):
        assert text.split()[-1] == gen.marker(7, i)
        assert sum(gen.marker(7, j) in text.split() for j in range(20)) == 1
