"""Tie-aware check of a returned top-k against the canonical plan.

The reference is the canonical score-isolated plan (``optimize=False``,
the paper's Definition 1) run without a top-k cut.  Scores are compared
with the shadow audit's tolerance (``repro.obs.audit``).  Two plans may
sum floating-point terms in another order, so scores that saturate can
differ in the last bit; the cut at k may then keep either of two docs
whose scores tie within the tolerance.  Everything else must match: each
returned doc carries its canonical score, every doc clearly above the cut
is returned, and no doc clearly below it is.
"""

from __future__ import annotations

from repro.obs.audit import AuditConfig

TOLERANCE = AuditConfig().tolerance


def close(got: float, want: float, tolerance: float = TOLERANCE) -> bool:
    """Relative-or-absolute closeness, as the shadow audit compares."""
    return abs(got - want) <= max(tolerance, tolerance * abs(want))


def canonical_ranking(engine, text: str, scheme: str) -> list[tuple[int, float]]:
    """Every matching doc with its canonical score, best first."""
    outcome = engine.search(text, scheme=scheme, top_k=None, optimize=False)
    return sorted(((r.doc_id, r.score) for r in outcome.results),
                  key=lambda p: (-p[1], p[0]))


def check_topk(
    got: list[tuple[int, float]],
    canonical: list[tuple[int, float]],
    k: int,
    tolerance: float = TOLERANCE,
) -> str | None:
    """Why ``got`` is not a valid top-``k`` of ``canonical``; None if it is.

    ``canonical`` must be sorted best first (:func:`canonical_ranking`).
    """
    want = dict(canonical)
    expect_n = min(k, len(canonical))
    if len(got) != expect_n:
        return f"returned {len(got)} docs, expected {expect_n}"
    docs = [doc for doc, _ in got]
    if len(set(docs)) != len(docs):
        return "a doc is returned twice"
    for doc, score in got:
        if doc not in want:
            return f"doc {doc} is not in the canonical result"
        if not close(score, want[doc], tolerance):
            return f"doc {doc} scored {score!r}, canonical {want[doc]!r}"
    for (_, above), (doc, below) in zip(got, got[1:]):
        if below > above and not close(below, above, tolerance):
            return f"doc {doc} is ranked below a lower score"
    if expect_n == 0:
        return None
    cut = canonical[expect_n - 1][1]
    returned = set(docs)
    for doc, score in canonical:
        if close(score, cut, tolerance) or score < cut:
            break
        if doc not in returned:
            return f"doc {doc} (score {score!r}) above the cut is missing"
    for doc in docs:
        if want[doc] < cut and not close(want[doc], cut, tolerance):
            return f"doc {doc} is below the top-{k} cut"
    return None
