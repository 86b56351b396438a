"""Seeded inputs for the workloads: corpora, query streams, documents.

Everything here is a pure function of the seed it is given.  The program
under test receives only what these functions return: a document
collection, query texts and document texts.
"""

from __future__ import annotations

import bisect
import itertools
import random
import re
from collections import Counter

from repro.bench.workload import PAPER_QUERIES, default_corpus_config
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus, paper_themes

#: The seven scoring schemes of the paper's evaluation (Section 8).
SCHEMES = (
    "anysum", "sumbest", "lucene", "join-normalized", "event-model",
    "meansum", "bestsum-mindist",
)

#: A paper query's words and quoted phrases: the parts a derived query
#: replaces.  Operators, parentheses and window sizes are kept.
ATOM = re.compile(r'"[^"]+"|\b[a-z][a-z0-9]*\b')
#: A background substitute's document frequency lies within this factor
#: of the paper word's it replaces.
DF_FACTOR = 2.0
#: Chance that an atom is replaced from its query's planted topic rather
#: than by background terms (an assumption: no query log says how often
#: an ad-hoc query stays on topic).
TOPIC_SHARE = 0.5
#: Seed of the ad-hoc stream :func:`adhoc_sample` takes its fixed set
#: from; no run's integer seed can equal it.
SAMPLE_STREAM_SEED = "sample"


def corpus(num_docs: int):
    """The repository's benchmark corpus (``default_corpus_config``).

    The corpus is the same for every seed; the seed varies the requests
    and the documents added.  Each run then measures the same collection,
    so run-to-run spread is the program's and the machine's, not the
    corpus draw's.
    """
    return generate_corpus(default_corpus_config(num_docs))


def paper_requests(seed: int):
    """Endless ``(query name, text, scheme)`` requests cycling through all
    56 paper keys, each cycle in a fresh seeded order."""
    rng = random.Random(f"{seed}:paper")
    keys = [(name, text, scheme) for name, text in PAPER_QUERIES.items()
            for scheme in SCHEMES]
    while True:
        cycle = list(keys)
        rng.shuffle(cycle)
        yield from cycle


def _document_frequencies(collection) -> Counter:
    df: Counter[str] = Counter()
    for doc in collection:
        df.update(set(doc.tokens))
    return df


def _query_theme(text: str, themes) -> tuple[list[str], list[str]]:
    """``(words, phrases)`` of the planted theme sharing most words with
    a paper query: the topic its substitutes come from."""
    words = set(re.findall(r"\b[a-z]+\b", text))
    best = max(themes, key=lambda t: len(words & {w for p in t.topics for w in p.tokens}))
    return (sorted({w for p in best.topics for w in p.tokens}),
            sorted({" ".join(p.tokens) for p in best.topics if len(p.tokens) > 1}))


class _Substitutes:
    """Background terms near a given document frequency."""

    def __init__(self, df: Counter):
        self.df = df
        self.terms = sorted((c, t) for t, c in df.items() if t[1:].isdigit())
        self.counts = [c for c, _ in self.terms]
        self.cache: dict[str, list[str]] = {}

    def near(self, word: str) -> list[str]:
        """Background terms whose frequency is within :data:`DF_FACTOR` of
        ``word``'s (the nearest one when none is)."""
        if word not in self.cache:
            c = max(1, self.df[word])
            lo = bisect.bisect_left(self.counts, c / DF_FACTOR)
            hi = bisect.bisect_right(self.counts, c * DF_FACTOR)
            if lo == hi:
                lo = min(lo, len(self.terms) - 1)
                hi = lo + 1
            self.cache[word] = [t for _, t in self.terms[lo:hi]]
        return self.cache[word]


def adhoc_queries(collection, seed: int | str):
    """Endless ad-hoc ``(text, scheme)`` requests derived from the paper's queries.

    Each request takes one of the eight paper queries, chosen uniformly,
    and keeps its operator structure, length and window sizes (phrase,
    ``|``, ``WINDOW[n]``, ``PROXIMITY[n]``).  Each word or quoted phrase
    is replaced: with chance :data:`TOPIC_SHARE` from the query's planted
    topic (a word of the topic, a topic phrase of the same length), else
    word by word with background terms of about the same document
    frequency in ``collection``.  The scheme rotates through
    :data:`SCHEMES`.  The vocabulary is read here, before the first
    request is drawn.
    """
    rng = random.Random(f"{seed}:adhoc")
    substitutes = _Substitutes(_document_frequencies(collection))
    themes = paper_themes()
    templates = [(text, *_query_theme(text, themes)) for text in PAPER_QUERIES.values()]

    def replace(atom: str, words: list[str], phrases: list[str], used: set) -> str:
        parts = atom.strip('"').split()
        if rng.random() < TOPIC_SHARE:
            # A topic word or phrase is used once per query.
            if atom.startswith('"'):
                same = [p for p in phrases if len(p.split()) == len(parts) and p not in used]
                new = rng.choice(same) if same else atom.strip('"')
            else:
                new = rng.choice([w for w in words if w not in used] or words)
            used.add(new)
        else:
            new = " ".join(rng.choice(substitutes.near(w)) for w in parts)
        return f'"{new}"' if atom.startswith('"') else new

    def requests():
        for i in itertools.count():
            text, words, phrases = rng.choice(templates)
            used: set[str] = set()
            derived = ATOM.sub(lambda m: replace(m.group(0), words, phrases, used), text)
            yield derived, SCHEMES[i % len(SCHEMES)]

    return requests()


def adhoc_sample(collection, seed: int, n: int) -> list[tuple[str, str]]:
    """The first ``n`` requests of a fixed ad-hoc stream
    (:data:`SAMPLE_STREAM_SEED`), in an order shuffled by ``seed``.

    The nominal phase of ``serve_adhoc`` takes its tail from the slowest
    2% of its requests.  Drawn afresh for every seed, those are a handful
    of queries whose cost moves with the draw, so runs of the same code
    spread with the draw as much as with the program.  The same set in
    another order leaves the spread to the program and the machine, as
    the fixed corpus does; every text is still new to the server.
    """
    sample = list(itertools.islice(adhoc_queries(collection, SAMPLE_STREAM_SEED), n))
    random.Random(f"{seed}:sample").shuffle(sample)
    return sample


def marker(seed: int, i: int) -> str:
    """A token found only in the ``i``-th ingested document."""
    return f"ingest{seed}n{i}"


def ingest_texts(seed: int, n: int) -> list[str]:
    """``n`` new document texts drawn like the corpus, each carrying its
    own :func:`marker` token so it can be found after a reopen."""
    config = SyntheticCorpusConfig(num_docs=n, seed=seed + 1_000_003)
    docs = generate_corpus(config)
    return [" ".join(doc.tokens) + " " + marker(seed, i)
            for i, doc in enumerate(docs)]
