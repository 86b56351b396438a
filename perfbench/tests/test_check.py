"""The tie-aware output check accepts last-bit ties and nothing else."""

from __future__ import annotations

import math

from perfbench.check import check_topk

# Scores saturated at 1.0, as event-model produces: the canonical plan and
# the optimized plan may differ by one ulp at the top-k cut.
ONE = 1.0
ONE_MINUS_ULP = math.nextafter(1.0, 0.0)

CANONICAL = sorted(
    [(d, ONE) for d in range(8)]
    + [(8, ONE_MINUS_ULP), (9, ONE), (10, ONE_MINUS_ULP), (11, 0.5), (12, 0.25)],
    key=lambda p: (-p[1], p[0]),
)


def top(k=10):
    return [(d, s) for d, s in CANONICAL[:k]]


def test_exact_top_k_is_accepted():
    assert check_topk(top(), CANONICAL, 10) is None


def test_ulp_near_tie_at_the_cut_is_accepted():
    # Canonical top-10 ends with doc 8 (1 - ulp); the other plan scored
    # doc 10 at 1.0 and doc 8 at 1 - ulp, so it kept doc 10 instead.
    got = [(d, ONE) for d in range(8)] + [(9, ONE), (10, ONE)]
    assert check_topk(got, CANONICAL, 10) is None


def test_perturbed_score_is_rejected():
    got = top()
    got[3] = (got[3][0], got[3][1] * (1 + 1e-5))
    assert "scored" in check_topk(got, CANONICAL, 10)


def test_dropped_doc_is_rejected():
    assert "returned 9" in check_topk(top()[:9], CANONICAL, 10)


def test_doc_replaced_by_a_lower_one_is_rejected():
    got = top()[:9] + [(11, 0.5)]
    assert check_topk(got, CANONICAL, 10) is not None


def test_extra_doc_is_rejected():
    assert "returned 11" in check_topk(top(11), CANONICAL, 10)
    got = top()[:9] + [(99, ONE)]
    assert "not in the canonical" in check_topk(got, CANONICAL, 10)


def test_duplicate_and_misordered_results_are_rejected():
    got = top()[:9] + [top()[0]]
    assert "twice" in check_topk(got, CANONICAL, 10)
    small = [(11, 0.5), (12, 0.25)]
    assert check_topk(list(reversed(small)), small, 2) is not None


def test_short_canonical_result_is_returned_whole():
    small = [(11, 0.5), (12, 0.25)]
    assert check_topk(small, small, 10) is None
    assert check_topk([], [], 10) is None
    assert check_topk([], small, 10) is not None


def test_event_model_near_ties_of_the_paper_workload_pass():
    """On the 4000-doc benchmark corpus, event-model scores of Q5 and Q10
    saturate at 1.0, where the optimized and canonical plans may differ
    in the last bit; the check accepts them with no query excluded."""
    from perfbench import gen
    from perfbench.check import canonical_ranking
    from repro import SearchEngine
    from repro.bench.workload import PAPER_QUERIES

    engine = SearchEngine(gen.corpus(4000))
    naive_mismatches = 0
    for name in ("Q5", "Q10"):
        text = PAPER_QUERIES[name]
        got = [(r.doc_id, r.score)
               for r in engine.search(text, scheme="event-model", top_k=10)]
        canonical = canonical_ranking(engine, text, "event-model")
        assert check_topk(got, canonical, 10) is None
        naive_mismatches += got != canonical[:10]
    # A plain top-10 equality check would have failed here.
    assert naive_mismatches
