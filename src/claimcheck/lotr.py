"""Merged retrieval over two embedding spaces.

A claim is embedded independently by each configured model, each index
answers with a diversity-selected hit list, and the lists are merged by
round-robin interleaving, deduplicated on chunk key, then reordered so
the strongest evidence sits at both ends of the context rather than in
its middle, where generation models tend to lose it.  The result is an
:class:`EvidenceBundle`: the indexes' own :class:`~.vecindex.Hit`
objects in context order, plus a warning for each leg that was down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .corpus import ChunkKey
from .errors import ConfigError, TransportError
from .transport import remote_endpoint, run_all
from .vecindex import DEFAULT_K, DEFAULT_LAMBDA, DEFAULT_POOL_SIZE, Hit, VectorIndex

logger = logging.getLogger(__name__)

DEFAULT_MIN_SIMILARITY = 0.8
REORDER_MODES = ("ends", "none")


@dataclass(frozen=True)
class EvidenceBundle:
    """Evidence for one claim: merged, deduplicated and reordered index
    hits, and one warning per retriever leg that was down."""

    hits: tuple[Hit, ...]
    warnings: tuple[str, ...] = ()


def merge_interleave(hit_lists: Sequence[Sequence[Hit]]) -> list[Hit]:
    """Round-robin merge preserving each list's internal order."""
    merged: list[Hit] = []
    width = max((len(lst) for lst in hit_lists), default=0)
    for rank in range(width):
        for lst in hit_lists:
            if rank < len(lst):
                merged.append(lst[rank])
    return merged


def dedupe(hits: Sequence[Hit]) -> list[Hit]:
    """Drop repeated chunk keys, keeping the first occurrence.  Idempotent."""
    first: dict[ChunkKey, Hit] = {}
    for hit in hits:
        first.setdefault(hit.chunk_key, hit)
    return list(first.values())


def long_context_reorder(hits: Sequence[Hit], mode: str = "ends") -> list[Hit]:
    """Place the most relevant hits at the edges of the context.

    ``ends`` sends input ranks 1,3,5,... to the front and 2,4,6,... to
    the back in reverse, so rank 1 opens the context and rank 2 closes
    it: [d1, d2, d3, d4, d5] -> [d1, d3, d5, d4, d2].  ``none`` keeps
    the merged order.
    """
    if mode not in REORDER_MODES:
        raise ConfigError(f"unknown reorder mode {mode!r}, expected one of {REORDER_MODES}")
    items = list(hits)
    if mode == "none" or len(items) < 3:
        return items
    return items[0::2] + items[1::2][::-1]


@dataclass(frozen=True)
class RetrieverLeg:
    """One (embedder, index) pair taking part in the merge."""

    retriever_id: str
    embedder: object  # anything whose .embed(list[str]) returns a (len, dimension) float64 matrix
    index: VectorIndex


class MergingRetriever:
    """Dual-space retrieval with interleave, dedupe, and ends reordering."""

    def __init__(
        self,
        legs: Sequence[RetrieverLeg],
        k: int = DEFAULT_K,
        lambda_: float = DEFAULT_LAMBDA,
        min_similarity: float = DEFAULT_MIN_SIMILARITY,
        pool_size: int = DEFAULT_POOL_SIZE,
        reorder: str = "ends",
    ):
        if not legs:
            raise ConfigError("retriever needs at least one leg")
        if reorder not in REORDER_MODES:
            raise ConfigError(f"unknown reorder mode {reorder!r}, expected one of {REORDER_MODES}")
        self.legs = list(legs)
        self.k = int(k)
        self.lambda_ = float(lambda_)
        self.min_similarity = float(min_similarity)
        self.pool_size = int(pool_size)
        self.reorder = reorder

    def _query_leg(self, leg: RetrieverLeg, claim_text: str) -> list[Hit]:
        return leg.index.mmr_select(
            leg.embedder.embed([claim_text])[0],
            k=self.k,
            pool_size=self.pool_size,
            lambda_=self.lambda_,
            min_similarity=self.min_similarity,
        )

    def retrieve(self, claim_text: str) -> EvidenceBundle:
        """Evidence for one claim; degrades to a single leg if one embedder is down.

        A leg on a remote embedder is queried on that embedder's endpoint
        pool, overlapped with the others; an in-process leg runs in the
        caller's thread.
        """

        def query(leg: RetrieverLeg) -> list[Hit] | TransportError:
            try:
                return self._query_leg(leg, claim_text)
            except TransportError as exc:
                return exc

        per_leg = run_all(query, self.legs, lambda leg: remote_endpoint(leg.embedder))
        failures = [
            (leg.retriever_id, out) for leg, out in zip(self.legs, per_leg) if isinstance(out, TransportError)
        ]
        for rid, exc in failures:
            logger.warning("retriever leg %r is down: %s", rid, exc)
        alive = [hits for hits in per_leg if not isinstance(hits, TransportError)]
        if not alive:
            detail = "; ".join(f"{rid}: {exc}" for rid, exc in failures)
            raise TransportError(f"all retriever legs failed: {detail}")
        merged = merge_interleave(alive)
        unique = dedupe(merged)
        ordered = long_context_reorder(unique, self.reorder)
        warnings = tuple(f"retriever {rid!r} unavailable, degraded to remaining legs" for rid, _ in failures)
        return EvidenceBundle(hits=tuple(ordered), warnings=warnings)
