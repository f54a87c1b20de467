"""Merged retrieval over two embedding spaces.

A claim is embedded independently by each configured model, each index
answers with a diversity-selected hit list, and the lists are merged by
round-robin interleaving, deduplicated on chunk key, then reordered so
the strongest evidence sits at both ends of the context rather than in
its middle, where generation models tend to lose it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

from .corpus import ChunkKey
from .errors import ConfigError, TransportError
from .transport import remote_endpoint, run_all
from .vecindex import DEFAULT_K, DEFAULT_LAMBDA, DEFAULT_POOL_SIZE, Hit, VectorIndex

logger = logging.getLogger(__name__)

DEFAULT_MIN_SIMILARITY = 0.8
REORDER_MODES = ("ends", "none")


@dataclass(frozen=True)
class EvidenceHit:
    """A retrieved chunk annotated with where it came from."""

    chunk_key: ChunkKey
    similarity: float
    retriever_id: str
    source_rank: int
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EvidenceBundle:
    """Ordered evidence for one claim plus retrieval provenance."""

    hits: tuple[EvidenceHit, ...]
    provenance: dict

    def __len__(self) -> int:
        return len(self.hits)


def merge_interleave(hit_lists: Sequence[Sequence[EvidenceHit]]) -> list[EvidenceHit]:
    """Round-robin merge preserving each list's internal order."""
    merged: list[EvidenceHit] = []
    width = max((len(lst) for lst in hit_lists), default=0)
    for rank in range(width):
        for lst in hit_lists:
            if rank < len(lst):
                merged.append(lst[rank])
    return merged


def dedupe(hits: Sequence[EvidenceHit]) -> list[EvidenceHit]:
    """Drop repeated chunk keys, keeping the first occurrence.

    The survivor is annotated with the maximum similarity seen across
    its duplicates (a display value; similarities from different
    embedding spaces are not otherwise comparable).  Idempotent.
    """
    best: dict[ChunkKey, float] = {}
    order: list[EvidenceHit] = []
    for hit in hits:
        if hit.chunk_key not in best:
            best[hit.chunk_key] = hit.similarity
            order.append(hit)
        elif hit.similarity > best[hit.chunk_key]:
            best[hit.chunk_key] = hit.similarity
    return [
        hit if hit.similarity == best[hit.chunk_key] else replace(hit, similarity=best[hit.chunk_key])
        for hit in order
    ]


def long_context_reorder(hits: Sequence[EvidenceHit], mode: str = "ends") -> list[EvidenceHit]:
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
    embedder: object  # anything with .embed(list[str]) -> list[EmbeddingVector]
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

    def _query_leg(self, leg: RetrieverLeg, claim_text: str) -> list[EvidenceHit]:
        vector = leg.embedder.embed([claim_text])[0]
        hits: list[Hit] = leg.index.mmr_select(
            vector.values,
            k=self.k,
            pool_size=self.pool_size,
            lambda_=self.lambda_,
            min_similarity=self.min_similarity,
        )
        return [
            EvidenceHit(
                chunk_key=h.chunk_key,
                similarity=h.similarity,
                retriever_id=leg.retriever_id,
                source_rank=rank,
                metadata=h.metadata,
            )
            for rank, h in enumerate(hits)
        ]

    def retrieve(self, claim_text: str) -> EvidenceBundle:
        """Evidence for one claim; degrades to a single leg if one embedder is down.

        A leg on a remote embedder is queried on that embedder's endpoint
        pool, overlapped with the others; an in-process leg runs in the
        caller's thread.
        """

        def query(leg: RetrieverLeg) -> list[EvidenceHit] | TransportError:
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
        warnings = [f"retriever {rid!r} unavailable, degraded to remaining legs" for rid, _ in failures]
        provenance = {
            "retrievers": [leg.retriever_id for leg in self.legs],
            "k": self.k,
            "lambda": self.lambda_,
            "min_similarity": self.min_similarity,
            "pool_size": self.pool_size,
            "reorder": self.reorder,
            "degraded": [rid for rid, _ in failures],
            "warnings": warnings,
        }
        return EvidenceBundle(hits=tuple(ordered), provenance=provenance)
